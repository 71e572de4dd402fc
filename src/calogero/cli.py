"""Command-line interface: identity suites, transport runs, classical
trajectories, and the normal-ordering report, all with deterministic JSON
output.

Exit codes: 0 success, 1 checks ran but failed, 2 usage or malformed input
(an unreadable or unwritable file included), 3 path leaves the chamber margin,
4 particle collision during simulation.  A command returns its report and
whether its checks passed, and raises its refusals; :func:`main` alone stamps
the report with ``schemaVersion`` and ``command``, writes it, and maps the
outcome or the refusal to an exit code.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import _Numpy, __version__
from .laxdyn import (
    MAX_JMAX,
    MAX_PARTICLES,
    MAX_STEPS,
    CollisionError,
    PhasePoint,
    integrate,
)
from .suites import SUITE_NAMES, run_suite, worker_pool
from .symbolcalc import realization_report, symbol_of_permutation, symbol_terms
from .transport import (
    MAX_N,
    MIN_TOL,
    ChamberPath,
    PathValidationError,
    TransportStepError,
    build_local_system,
    transport_dyson,
    transport_ode,
)

np = _Numpy(globals())

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CHAMBER = 3
EXIT_COLLISION = 4

# symbols work bounds, refused at parse time: the slowest run they admit,
# --n 8 --deg 8 --order 48, takes 2.6 s and writes 13 MB (2-vCPU x86_64 VM,
# Python 3.11); --n 2 --deg 60 took 22 s and --order 100 wrote 90 MB.  Every
# admitted order lies far below exactalg.EXPONENT_LIMIT, the largest exponent a
# packed key holds.
_SYMBOLS_MAX_N = 8
_SYMBOLS_MAX_DEG = 8
_SYMBOLS_MAX_ORDER = 48

# verify --deg bound per --n, refused before any suite runs or any worker is
# started: a serial --suite all run at the bound takes about a minute or less,
# 47, 46, 42 and 51 s at N=2..5, where --n 4 --deg 15 took 85 s (fresh
# process, 2-vCPU x86_64 VM, Python 3.11)
_VERIFY_MAX_DEG = {2: 400, 3: 40, 4: 13, 5: 5}


def _parsed(convert, what: str):
    """An argparse type: ``convert(text)``, whose ``ValueError`` or
    ``ZeroDivisionError`` is refused as ``not <what>: '<text>'``."""
    def parse(text: str):
        try:
            return convert(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"not {what}: {text!r}") from exc
    return parse


def _vector(convert):
    return lambda text: tuple(convert(part.strip()) for part in text.split(","))


_integer = _parsed(int, "an integer")
_number = _parsed(float, "a number")
_rational = _parsed(Fraction, "an exact rational")
_rational_vector = _parsed(_vector(Fraction), "a rational vector")
_float_vector = _parsed(_vector(float), "a float vector")


def _int_at_least(low: int, high: int | None = None):
    def parse(text: str) -> int:
        value = _integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}: {text!r}")
        return value
    return parse


def _float_at_least(low: float, strictly: bool = False):
    def parse(text: str) -> float:
        value = _number(text)
        if not (math.isfinite(value) and (value > low if strictly else value >= low)):
            bound = "above" if strictly else "at least"
            raise argparse.ArgumentTypeError(f"must be finite and {bound} {low!r}: {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _check_writable(path: str) -> None:
    """Refuse an output file that cannot be written, before any work is done."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if not os.access(path if os.path.exists(path) else parent, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _matrix_text(matrix: np.ndarray) -> str:
    """The text ``json.dumps(indent=2)`` gives a complex matrix as nested
    ``[re, im]`` lists at key depth 1, without building the lists.

    ``json`` writes a finite float with ``float.__repr__``; only a matrix with
    a non-finite entry pays for ``json.dumps`` on every value."""
    rows, cols = matrix.shape
    values = np.stack([matrix.real, matrix.imag], axis=-1).ravel().tolist()
    text = float.__repr__ if np.isfinite(matrix).all() else json.dumps
    entry = "[\n        %s,\n        %s\n      ]"
    row = "[\n      " + ",\n      ".join([entry] * cols) + "\n    ]"
    return ("[\n    " + ",\n    ".join([row] * rows) + "\n  ]") % tuple(map(text, values))


def _report_text(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` plus a newline, where a
    ``matrix`` entry is a complex ndarray written by :func:`_matrix_text`."""
    matrix = report.get("matrix")
    if matrix is None:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    text = json.dumps({**report, "matrix": None}, indent=2, sort_keys=True)
    # json escapes control characters inside strings, so a raw newline, two
    # spaces and a quote only ever start a top-level key.
    return text.replace('\n  "matrix": null', '\n  "matrix": ' + _matrix_text(matrix), 1) + "\n"


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> tuple[dict, bool]:
    bound = _VERIFY_MAX_DEG[args.n]
    deg = min(6, bound) if args.deg is None else args.deg
    if deg > bound:
        raise ValueError(f"--deg {deg} at --n {args.n}: must be at most {bound}")
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    with worker_pool(args.workers) as pool:
        records = [run_suite(name, args.n, deg, pool) for name in names]
    failure_count = sum(len(r["failures"]) for r in records)
    return {
        "config": {"n": args.n, "deg": deg, "suite": args.suite,
                   "workers": args.workers},
        "suites": records,
        "failureCount": failure_count,
    }, failure_count == 0


# -- transport ------------------------------------------------------------------


def cmd_transport(args) -> tuple[dict, bool]:
    path = ChamberPath.load(args.path)
    conn = build_local_system(path.n, args.p, args.c)
    result = transport_ode(conn, path, tol=args.tol)
    holonomy = None
    if path.is_closed():
        holonomy = float(np.max(np.abs(result.matrix - np.eye(conn.dim))))
    comparison = None
    if args.compare_dyson:
        order, steps = args.compare_dyson
        dyson = transport_dyson(conn, path, order=order, steps=steps)
        comparison = {
            "order": order,
            "steps": steps,
            "deviation": float(np.max(np.abs(dyson.matrix - result.matrix))),
        }
    return {
        "config": {"path": args.path, "tol": args.tol},
        "method": result.method,
        "N": path.n,
        "p": [str(v) for v in args.p],
        "c": str(args.c),
        "matrix": result.matrix,
        "holonomyDeviation": holonomy,
        "stepStats": result.step_stats,
        "dysonComparison": comparison,
    }, True


# -- simulate -------------------------------------------------------------------


def cmd_simulate(args) -> tuple[dict, bool]:
    state = PhasePoint(args.x, args.p, g2=args.g2, omega=args.omega)
    trajectory = integrate(state, args.t, args.dt, jmax=args.jmax,
                           sample_stride=args.sample_stride)
    if args.csv:
        trajectory.write_csv(args.csv)
    # every invariant integrate reports is conserved at this omega: tr P^k at
    # omega = 0, tr (L+ L-)^k at omega > 0
    drift = trajectory.max_drift
    ok = drift["H"] <= args.energy_tol and all(
        value <= args.drift_tol for name, value in drift.items() if name != "H")
    return {
        "config": {"x": list(args.x), "p": list(args.p), "g2": args.g2,
                   "omega": args.omega, "T": args.t, "dt": args.dt,
                   "jmax": args.jmax, "driftTol": args.drift_tol,
                   "energyTol": args.energy_tol},
        "maxDrift": drift,
        "traceInvariantsChecked": True,
        "samples": int(len(trajectory.times)),
        "withinTolerance": bool(ok),
    }, bool(ok)


# -- symbols --------------------------------------------------------------------


def cmd_symbols(args) -> tuple[dict, bool]:
    order = args.order if args.order is not None else args.deg
    # refuses a --j/--k pair of equal or out-of-range coordinates before any
    # work, its one refusal at the --n and --deg the parser admits
    try:
        rep = realization_report(args.n, args.deg, args.j, args.k)
    except ValueError as exc:
        raise ValueError(f"--j {args.j} --k {args.k} at --n {args.n}: {exc}") from None
    return {
        "config": {"n": args.n, "deg": args.deg, "j": args.j, "k": args.k,
                   "order": order},
        "realizations": rep,
        "symbolTerms": symbol_terms(symbol_of_permutation(args.n, args.j, args.k, order)),
    }, all(r["matchesSwap"] for r in rep["realizations"].values())


# -- parser ---------------------------------------------------------------------


def _verify_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int_at_least(2, MAX_N), required=True,
                   help=f"particle count (2 to {MAX_N})")
    p.add_argument("--deg", type=_positive_int,
                   help="spanning-set degree bound (>= 1; at most "
                        + ", ".join(f"{d} at --n {n}" for n, d in _VERIFY_MAX_DEG.items())
                        + "; default: 6, or the bound if it is smaller)")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    # every worker is forked at once, so no more are started than there are CPUs
    p.add_argument("--workers", type=_int_at_least(1, os.cpu_count() or 1), default=1,
                   help="worker processes for every suite (1 to the CPU count)")
    p.set_defaults(func=cmd_verify)


def _transport_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--path", required=True, help="path file: JSON {N, margin, waypoints}")
    p.add_argument("--p", type=_rational_vector, required=True,
                   help="momenta, comma-separated rationals")
    p.add_argument("--c", type=_rational, default=Fraction(1), help="coupling")
    p.add_argument("--tol", type=_float_at_least(MIN_TOL), default=1e-10,
                   help=f"local error tolerance (finite, at least {MIN_TOL!r}, ten float64 "
                        f"epsilons: an error estimate cannot resolve less)")
    p.add_argument("--compare-dyson", nargs=2, type=_positive_int, metavar=("ORDER", "STEPS"),
                   default=None,
                   help="also run the iterated-integral series (integers >= 1) and report "
                        "the deviation")
    p.set_defaults(func=cmd_transport)


def _simulate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--x", type=_float_vector, required=True,
                   help=f"initial positions, strictly increasing (2 to {MAX_PARTICLES})")
    p.add_argument("--p", type=_float_vector, required=True, help="initial momenta")
    p.add_argument("--g2", type=_number, default=1.0)
    p.add_argument("--omega", type=_number, default=0.0)
    p.add_argument("--t", type=_float_at_least(0.0, strictly=True), default=10.0,
                   help=f"duration (finite, > 0; t/dt at most {MAX_STEPS})")
    p.add_argument("--dt", type=_float_at_least(0.0, strictly=True), default=1e-4,
                   help="RK4 step (finite, > 0)")
    p.add_argument("--jmax", type=_positive_int, default=4,
                   help=f"highest trace power tracked (1 to {MAX_JMAX})")
    p.add_argument("--drift-tol", type=_float_at_least(0.0), default=1e-8,
                   help="drift bound for the trace invariants (finite, >= 0)")
    p.add_argument("--energy-tol", type=_float_at_least(0.0), default=1e-8,
                   help="drift bound for the energy H (finite, >= 0)")
    p.add_argument("--sample-stride", type=_positive_int, default=100,
                   help="keep every k-th step as a sample (>= 1)")
    p.add_argument("--csv", default=None, help="write the sampled trajectory here")
    p.set_defaults(func=cmd_simulate)


def _symbols_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_int_at_least(2, _SYMBOLS_MAX_N), default=2,
                   help=f"particle count (2 to {_SYMBOLS_MAX_N})")
    p.add_argument("--deg", type=_int_at_least(0, _SYMBOLS_MAX_DEG), default=6,
                   help=f"monomial degree bound (0 to {_SYMBOLS_MAX_DEG})")
    p.add_argument("--j", type=_integer, default=0)
    p.add_argument("--k", type=_integer, default=1)
    p.add_argument("--order", type=_int_at_least(0, _SYMBOLS_MAX_ORDER), default=None,
                   help=f"symbol truncation order (0 to {_SYMBOLS_MAX_ORDER}; default: --deg)")
    p.set_defaults(func=cmd_symbols)


# name: (help line, function adding its options); each such function sets the
# command function by its module global when the parser is built, and --out is
# added after the command's own options
_COMMANDS = {
    "verify": ("run exact identity suites", _verify_options),
    "transport": ("parallel transport along a chamber path", _transport_options),
    "simulate": ("classical trajectory with conserved-trace drift", _simulate_options),
    "symbols": ("normal-ordering realizations and swap symbol", _symbols_options),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser with every subcommand, or with ``command`` alone.

    A parser for one command parses that command's arguments exactly as the
    full one does, and its usage line still lists every subcommand, so its
    messages read alike."""
    parser = argparse.ArgumentParser(
        prog="calogero",
        description="Exact Dunkl-operator identity suites and chamber transport.")
    parser.add_argument("--version", action="version", version=__version__)
    listed = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=listed)
    for name, (help_line, options) in _COMMANDS.items():
        if command is None or command == name:
            p = sub.add_parser(name, help=help_line)
            options(p)
            p.add_argument("--out", default=None, help="write the JSON report here")
    return parser


# Options whose values may begin with a minus sign.
_SIGNED_VALUE_OPTIONS = ("--x", "--p", "--c")
_NEGATIVE_START = re.compile(r"-[0-9.]")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite ``--x -1,0,1`` as ``--x=-1,0,1``.

    argparse reads a token that starts with ``-`` and is not a plain number
    as an option, so a vector such as ``-1,0,1`` or a rational such as
    ``-1/2`` would be refused as a missing argument.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and _NEGATIVE_START.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _refuse(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command and write its report, stamped with ``schemaVersion``
    and ``command``, to ``--out`` or stdout; exit 0 if its checks passed, else
    1.  A refusal it raises becomes ``error: <message>`` on stderr and its exit
    code.  Any other exception propagates.  Output files (``--out``, ``--csv``)
    that cannot be written are refused before the run, so a refusal leaves
    none of them written."""
    argv = _attach_signed_values(sys.argv[1:] if argv is None else list(argv))
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        for path in (args.out, vars(args).get("csv")):
            if path:
                _check_writable(path)
        report, ok = args.func(args)
        text = _report_text({"schemaVersion": SCHEMA_VERSION, "command": args.command,
                             **report})
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (PathValidationError, TransportStepError) as exc:
        return _refuse(exc, EXIT_CHAMBER)
    except CollisionError as exc:
        return _refuse(exc, EXIT_COLLISION)
    except (ValueError, OSError) as exc:  # after PathValidationError, a ValueError
        return _refuse(exc, EXIT_USAGE)
    return EXIT_OK if ok else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
