"""The package's records: value equality and hash, read-only fields, a repr
that names the fields, and, for the three validated records, one
construction path.

``PhasePoint``, ``ConnectionMatrix`` and ``ChamberPath`` validate in their
``__init__``; the others are ``NamedTuple`` records that validate nothing.
The validated ones are not tuples, since ``_replace`` and ``_make`` would
build one without calling ``__init__``."""

import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from calogero.cli import main
from calogero.laxdyn import PhasePoint, Trajectory
from calogero.symbolcalc import Scale, Shift
from calogero.transport import (
    ChamberPath,
    ConnectionMatrix,
    PathValidationError,
    TransportResult,
    build_local_system,
)

# each record as a builder of fresh, equal instances, and one that differs in
# a field.  Trajectory and TransportResult hold arrays and dicts, which are
# unhashable; hashable stand-ins in their place show that the record hashes
# its values
RECORDS = {
    "PhasePoint": (lambda: PhasePoint((0.0, 1.0), (1.0, -1.0), g2=2.0, omega=0.5),
                   lambda: PhasePoint((0.0, 1.0), (1.0, -1.0), g2=2.0, omega=0.25)),
    "ConnectionMatrix": (lambda: ConnectionMatrix((F(1, 2), 1), (F(2),)),
                         lambda: ConnectionMatrix((F(1, 2), 1), (F(3),))),
    "ChamberPath": (lambda: ChamberPath(((0.0, 1.0), (0.5, 2.0)), margin=0.25),
                    lambda: ChamberPath(((0.0, 1.0), (0.5, 2.0)), margin=0.125)),
    "Trajectory": (lambda: Trajectory((0.0, 0.1), ((0.0, 1.0),) * 2, ((1.0, -1.0),) * 2,
                                      (1.5, 1.5), ((0.0,),) * 2, (("H", 0.0),)),
                   lambda: Trajectory((0.0, 0.2), ((0.0, 1.0),) * 2, ((1.0, -1.0),) * 2,
                                      (1.5, 1.5), ((0.0,),) * 2, (("H", 0.0),))),
    "TransportResult": (lambda: TransportResult(((1.0, 0.0), (0.0, 1.0)), "ode",
                                                (("steps", 3),)),
                        lambda: TransportResult(((1.0, 0.0), (0.0, 1.0)), "dyson",
                                                (("steps", 3),))),
    "Shift": (lambda: Shift(0, 1, F(1)), lambda: Shift(1, 0, F(1))),
    "Scale": (lambda: Scale(0, F(-1)), lambda: Scale(0, F(2))),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_values_compare_and_hash_equal(name):
    make, other = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other() and other() != a


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_the_fields(name):
    record = RECORDS[name][0]()
    text = repr(record)
    assert text.startswith(f"{name}(")
    for field in record._fields:
        assert f"{field}={getattr(record, field)!r}" in text


def test_records_with_arrays_compare_by_field():
    # the real Trajectory and TransportResult hold arrays and a dict: equal
    # when they share the field objects, unhashable as a dict is
    m = np.eye(2, dtype=complex)
    stats = {"steps": 3}
    assert TransportResult(m, "ode", stats) == TransportResult(m, "ode", stats)
    with pytest.raises(TypeError):
        hash(TransportResult(m, "ode", stats))


@pytest.mark.parametrize("cls", [PhasePoint, ConnectionMatrix, ChamberPath])
def test_validated_records_have_no_tuple_constructors(cls):
    assert not issubclass(cls, tuple)
    assert not hasattr(cls, "_replace") and not hasattr(cls, "_make")
    assert "__init__" in vars(cls)


def test_validated_record_is_not_equal_to_its_values():
    assert PhasePoint((0.0, 1.0), (0.0, 0.0)) != ((0.0, 1.0), (0.0, 0.0), 1.0, 0.0)


def test_phase_point_copies_the_callers_lists():
    x, p = [0.0, 1.0], [0.0, 0.0]
    state = PhasePoint(x, p)
    built = PhasePoint((0.0, 1.0), (0.0, 0.0))
    assert state == built and hash(state) == hash(built)
    x.append(2.0)
    p[0] = 5.0
    assert state.x == (0.0, 1.0) and state.p == (0.0, 0.0) and state == built


def test_chamber_path_copies_the_callers_lists():
    waypoints = [[0.0, 1.0], [0.5, 2.0]]
    path = ChamberPath(waypoints, 0.25)
    built = ChamberPath(((0.0, 1.0), (0.5, 2.0)), 0.25)
    assert path == built and hash(path) == hash(built)
    # a waypoint outside the chamber, and one more waypoint, set afterwards
    waypoints[1][0] = 3.0
    waypoints.append([0.0, 1.0])
    assert path.waypoints == ((0.0, 1.0), (0.5, 2.0)) and path == built


def _raised(build) -> tuple[type, str]:
    with pytest.raises(Exception) as err:
        build()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("x, p, g2, omega, message", [
    ((0.0, 1.0, 2.0), (0.0, 0.0), 1.0, 0.0, "position and momentum dimensions differ"),
    ((1.0, 0.0), (0.0, 0.0), 1.0, 0.0, "positions must be strictly increasing"),
    ((0.0, math.inf), (0.0, 0.0), 1.0, 0.0, "must be finite"),
    ((0.0, 1.0), (0.0, 0.0), -1.0, 0.0, "g2 and omega must be nonnegative"),
    ((0.0, 1.0), (0.0, 0.0), 0.0, 1e200, "omega**2 must be finite"),
    ((0.0, 1.0, 1e200), (0.0, 0.0, 0.0), 0.0, 1e100, "harmonic force"),
])
def test_phase_point_refuses_alike_on_every_path(capsys, x, p, g2, omega, message):
    positional = _raised(lambda: PhasePoint(x, p, g2, omega))
    keyword = _raised(lambda: PhasePoint(omega=omega, g2=g2, p=p, x=x))
    assert positional == keyword
    assert positional[0] is ValueError and message in positional[1]
    code = main(["simulate", "--x=" + ",".join(map(repr, x)), "--p=" + ",".join(map(repr, p)),
                 f"--g2={g2!r}", f"--omega={omega!r}", "--t=1e-3", "--dt=1e-3"])
    assert (code, capsys.readouterr().err) == (2, f"error: {positional[1]}\n")


@pytest.mark.parametrize("p, q, message", [
    ((F(1),), (), "N=1 is outside 2..5"),
    ((F(0),) * 6, (F(1),) * 15, "N=6 is outside 2..5"),
    ((F(1), F(2)), (F(1), F(1)), "2 couplings for the 1 pairs of N=2"),
    ((F(10) ** 400, F(0)), (F(1),), "a momentum is too large for a float"),
    ((F(1), F(2)), (F(10) ** 400,), "a coupling is too large for a float"),
])
def test_connection_refuses_alike_on_every_path(p, q, message):
    positional = _raised(lambda: ConnectionMatrix(p, q))
    assert positional == _raised(lambda: ConnectionMatrix(q=q, p=p))
    assert positional[0] is ValueError and message in positional[1]
    if len(set(q)) == 1 and len(q) == len(p) * (len(p) - 1) // 2:
        # every pair coupled alike: the library's builder reaches the same
        # refusal
        assert _raised(lambda: build_local_system(len(p), p, q[0])) == positional


@pytest.mark.parametrize("waypoints, margin, exc, message", [
    (((0.0, 1.0),), math.nan, ValueError, "margin nan is not finite"),
    (((0.0, 1.0),), 0.0, ValueError, "margin must be positive"),
    ((), 0.1, ValueError, "path needs at least one waypoint"),
    (((0.0,),), 0.1, ValueError, "path needs at least two coordinates"),
    (((0.0, 1.0), (0.0, 1.0, 2.0)), 0.1, ValueError, "inconsistent waypoint dimensions"),
    (((0.0, 1.0), (0.5, 0.55)), 0.1, PathValidationError, "violates the chamber margin"),
])
def test_chamber_path_refuses_alike_on_every_path(tmp_path, waypoints, margin, exc,
                                                   message):
    positional = _raised(lambda: ChamberPath(waypoints, margin))
    assert positional == _raised(lambda: ChamberPath(margin=margin, waypoints=waypoints))
    assert positional[0] is exc and message in positional[1]
    if len({len(w) for w in waypoints}) <= 1 and math.isfinite(margin):
        # JSON holds no NaN, and N must match every waypoint: the loader
        # reaches the constructor with the same values
        data = {"N": len(waypoints[0]) if waypoints else 2, "margin": margin,
                "waypoints": [list(w) for w in waypoints]}
        assert _raised(lambda: ChamberPath.from_json(data)) == positional
        file = tmp_path / "path.json"
        file.write_text(json.dumps(data))
        assert _raised(lambda: ChamberPath.load(str(file))) == positional
