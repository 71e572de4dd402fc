"""Acceptance suite: every shipped guarantee at its contract scale.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The exact-arithmetic criteria admit no tolerance at all; the numerical ones
pin the tolerances stated in their lines.
"""

import itertools
import random
from fractions import Fraction as F

import numpy as np

from calogero.dunkl import apply_dunkl, commutator_dunkl, sum_of_squares
from calogero.exactalg import MultiPoly, RationalSection, monomial_exponents
from calogero.laxdyn import (
    PhasePoint,
    integrate,
    noether_matrix,
    trace_integrals,
    trace_p3_explicit,
)
from calogero.suites import (
    intertwining_suite,
    restriction_suite,
    sum_squares_suite,
    zero_curvature_suite,
)
from calogero.symbolcalc import realization_report
from calogero.transport import (
    ChamberPath,
    build_local_system,
    free_transport,
    random_chamber_point,
    transport_dyson,
    transport_ode,
    verify_flatness,
)
from conftest import BENCHMARK_C, BENCHMARK_MARGIN, BENCHMARK_P, BENCHMARK_WAYPOINTS

GRADED_SCALES = ((2, 6), (3, 6), (4, 4))


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")


def test_criterion_01_zero_curvature():
    records = [zero_curvature_suite(n, deg) for n, deg in GRADED_SCALES]
    cases = sum(r["caseCount"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    report(1, "zero curvature, exact in formal coupling", not failures,
           f"{cases} commutator cases over N=2,3 deg<=6 and N=4 deg<=4")
    assert not failures


def test_criterion_02_intertwining():
    records = [intertwining_suite(n, deg) for n, deg in GRADED_SCALES]
    cases = sum(r["caseCount"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    report(2, "swap/Dunkl intertwining residuals", not failures,
           f"{cases} residual cases, exact")
    assert not failures


def test_criterion_03_sum_of_squares_normal_form():
    records = [sum_squares_suite(n, deg) for n, deg in GRADED_SCALES]
    cases = sum(r["caseCount"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    # suite records include the separate coupling-power grading check
    report(3, "sum of squares equals its normal-ordered form", not failures,
           f"{cases} cases incl. graded c^1/c^2 pieces, exact")
    assert not failures


def test_criterion_04_restriction_coefficients():
    records = [restriction_suite(n, 6) for n in (2, 3, 4)]
    cases = sum(r["caseCount"] for r in records)
    failures = [f for r in records for f in r["failures"]]
    report(4, "restriction to +/-1 swap values: coupling c(c+1) / c(c-1)",
           not failures,
           f"{cases} (anti)symmetric inputs, equals -2x Calogero action, exact")
    assert not failures


def test_criterion_05_normal_ordering_realizations():
    total = 0
    bad: list[str] = []
    matched_names = None
    for n in (2, 3, 4):
        for j, k in itertools.combinations(range(n), 2):
            rep = realization_report(n, 6, j, k)
            total += rep["caseCount"]
            names = {name for name, entry in rep["realizations"].items()
                     if entry["matchesSwap"]}
            bad.extend(name for name, entry in rep["realizations"].items()
                       if not entry["matchesSwap"])
            matched_names = names if matched_names is None else matched_names & names
    ok = not bad
    report(5, "swap realizations and truncated series match the exact swap", ok,
           f"{total} monomial cases; verbatim realizations: {sorted(matched_names)}")
    assert ok


def test_criterion_06_flatness_exact():
    rng = random.Random(2024)
    checked = 0
    failures = []
    for n in (2, 3, 4):
        p = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        c = F(rng.randint(1, 12), rng.randint(1, 5))
        conn = build_local_system(n, p, c)
        points = [random_chamber_point(n, rng) for _ in range(25)]
        rep = verify_flatness(conn, points)
        checked += rep["caseCount"]
        failures.extend(rep["failures"])
    report(6, "curvature of the vectorized system vanishes exactly", not failures,
           f"{checked} pair/point evaluations, 25 random rational points per N")
    assert not failures


def _random_loop(rng, base, spread, margin):
    n = len(base)
    waypoints = [tuple(base)]
    for _ in range(3):
        while True:
            w = tuple(b + rng.uniform(-spread, spread) for b in base)
            if min(w[i + 1] - w[i] for i in range(n - 1)) >= margin + 0.05:
                waypoints.append(w)
                break
    waypoints.append(tuple(base))
    return ChamberPath(tuple(waypoints), margin)


def test_criterion_07_holonomy_and_path_independence():
    rng = random.Random(7)
    conn = build_local_system(3, (F(1, 2), F(-1, 3), F(1, 4)), F(1))
    worst = 0.0
    for _ in range(10):
        loop = _random_loop(rng, (0.0, 1.0, 2.0), 0.35, 0.1)
        w = transport_ode(conn, loop, tol=1e-10).matrix
        worst = max(worst, float(np.max(np.abs(w - np.eye(6)))))
    direct = ChamberPath(((0.0, 1.0, 2.0), (0.3, 1.2, 2.5)), 0.1)
    detour = ChamberPath(((0.0, 1.0, 2.0), (-0.25, 0.85, 2.3),
                          (0.15, 1.35, 2.75), (0.3, 1.2, 2.5)), 0.1)
    gap = float(np.max(np.abs(transport_ode(conn, direct, tol=1e-10).matrix
                              - transport_ode(conn, detour, tol=1e-10).matrix)))
    ok = worst <= 1e-8 and gap <= 1e-8
    report(7, "holonomy ~ identity and path independence", ok,
           f"10 random loops, worst |W-I| = {worst:.2e}; open-path gap {gap:.2e}")
    assert ok


def test_criterion_08_series_matches_ode():
    conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
    path = ChamberPath(BENCHMARK_WAYPOINTS, BENCHMARK_MARGIN)
    ode = transport_ode(conn, path, tol=1e-10).matrix
    dyson = transport_dyson(conn, path, order=8, steps=400).matrix
    dev = float(np.max(np.abs(dyson - ode)))
    ok = dev <= 1e-6
    report(8, "time-ordered series vs adaptive ODE on the benchmark path", ok,
           f"order 8, 400 steps, deviation {dev:.2e} <= 1e-6")
    assert ok


def test_criterion_09_lax_conservation():
    drift_ok = True
    drifts = {}
    for x0, p0 in (((0.0, 1.0, 3.0), (1.0, 0.0, -1.0)),
                   ((-1.5, 0.0, 1.0, 2.5), (1.0, 0.5, -0.5, -1.0))):
        state = PhasePoint(x0, p0, g2=1.0, omega=0.0)
        traj = integrate(state, 10.0, 1e-4, jmax=4, sample_stride=10_000)
        worst = max(traj.max_drift[f"I{j}"] for j in range(1, 5))
        drifts[len(x0)] = worst
        drift_ok = drift_ok and worst <= 1e-8
    rng = random.Random(9)
    oracle_ok = True
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        x = tuple(np.cumsum([rng.uniform(-1, 1)]
                            + [rng.uniform(0.2, 2.0) for _ in range(n - 1)]))
        p = tuple(rng.uniform(-2, 2) for _ in range(n))
        state = PhasePoint(x, p)
        if abs(trace_p3_explicit(state) - trace_integrals(state, 3)[2]) > 1e-12:
            oracle_ok = False
    spectrum_ok = True
    for n in range(2, 9):
        ev = np.sort(np.linalg.eigvalsh(noether_matrix(n)))
        if not np.allclose(ev, np.sort([1 - n] + [1] * (n - 1)), atol=1e-10):
            spectrum_ok = False
    ok = drift_ok and oracle_ok and spectrum_ok
    report(9, "Lax trace conservation, explicit cubic trace, reduction spectrum", ok,
           f"worst drift N=3: {drifts[3]:.2e}, N=4: {drifts[4]:.2e} <= 1e-8; "
           f"100 oracle configs at 1e-12; spectra N<=8 exact")
    assert ok


def test_criterion_10_free_limit_degeneration():
    ok = True
    # operator identities collapse to plain derivative identities at c=0
    for exps in monomial_exponents(3, 3):
        f = RationalSection.monomial(3, exps)
        if apply_dunkl(1, f).specialize_coupling(0) != f.partial(1):
            ok = False
        if not commutator_dunkl(0, 2, f).specialize_coupling(0).is_zero():
            ok = False
    lap = sum_of_squares(RationalSection.monomial(3, (2, 0, 0)))
    if lap.specialize_coupling(0) != RationalSection(MultiPoly.constant(3, 2)):
        ok = False
    # transport decouples into pure phases at c=0
    conn = build_local_system(3, BENCHMARK_P, 0)
    path = ChamberPath(BENCHMARK_WAYPOINTS, BENCHMARK_MARGIN)
    w = transport_ode(conn, path, tol=1e-12).matrix
    if float(np.max(np.abs(w - free_transport(conn, path)))) > 1e-10:
        ok = False
    if verify_flatness(conn, [(F(0), F(1), F(2))])["failures"]:
        ok = False
    # free flight for the classical simulator
    state = PhasePoint((0.0, 1.0), (0.5, 1.0), g2=0.0, omega=0.0)
    traj = integrate(state, 1.0, 1e-3, jmax=1, sample_stride=1000)
    if not np.allclose(traj.xs[-1], [0.5, 2.0], atol=1e-9):
        ok = False
    report(10, "every layer degenerates correctly at zero coupling", ok,
           "Dunkl -> derivative, diagonal transport, flat free system, free flight")
    assert ok
