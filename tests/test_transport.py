import cmath
import dataclasses
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from calogero.exactalg import Permutation, RationalSection
from calogero.transport import (
    DYSON_MAX_BYTES,
    ChamberPath,
    EquivarianceError,
    PathValidationError,
    build_local_system,
    equivariance_check,
    free_transport,
    permute_momenta,
    plane_wave_map,
    random_chamber_point,
    transport_dyson,
    transport_ode,
    verify_flatness,
)
from conftest import BENCHMARK_C, BENCHMARK_P

P3 = (F(1, 2), F(-1, 3), F(1, 4))
LOOP3 = ((0.0, 1.0, 2.0), (0.3, 1.2, 2.5), (-0.2, 0.9, 2.1), (0.0, 1.0, 2.0))
LOOP4 = ((0.0, 1.0, 2.0, 3.2), (0.3, 1.2, 2.5, 3.0), (-0.2, 0.9, 2.1, 3.5),
         (0.0, 1.0, 2.0, 3.2))


def _entry_loop_velocity(conn, x, v):
    """Reference sum_k v_k Omega_k(x), one entry at a time from the exact
    entries, independent of the arrays the connection derives from them."""
    d = conn.dim
    out = np.zeros((d, d), dtype=complex)
    for k in range(conn.n):
        for row in range(d):
            out[row, row] += 1j * v[k] * float(conn.diag[k][row])
        for e in conn.off[k]:
            out[e.row, e.col] += v[k] * float(e.coeff) / (x[e.a] - x[e.b])
    return out


def _dense_curvature(conn, point, j, k):
    """Curvature of the pair (j, k) at a rational point from dense Fraction
    matrices: nonzero real and imaginary entries as {"row,col": text}."""
    d = conn.dim

    def off_part(kk, deriv=None):
        # Omega_kk's off-diagonal part, or its derivative along x_deriv
        m = [[F(0)] * d for _ in range(d)]
        for e in conn.off[kk]:
            gap = point[e.a] - point[e.b]
            if deriv is None:
                m[e.row][e.col] += e.coeff / gap
            else:
                m[e.row][e.col] -= ((deriv == e.a) - (deriv == e.b)) * e.coeff / gap ** 2
        return m

    rj, rk = off_part(j), off_part(k)
    dj_rk, dk_rj = off_part(k, deriv=j), off_part(j, deriv=k)
    dj, dk = conn.diag[j], conn.diag[k]
    real, imag = {}, {}
    for r in range(d):
        for c in range(d):
            comm = sum(rj[r][t] * rk[t][c] - rk[r][t] * rj[t][c] for t in range(d))
            re = dj_rk[r][c] - dk_rj[r][c] + comm
            im = (dj[r] - dj[c]) * rk[r][c] - (dk[r] - dk[c]) * rj[r][c]
            if re:
                real[f"{r},{c}"] = str(re)
            if im:
                imag[f"{r},{c}"] = str(im)
    return real, imag


class TestBuildLocalSystem:
    def test_free_two_particle_diagonals(self):
        conn = build_local_system(2, [F(1), F(2)], 0)
        x = np.array([0.0, 1.0])
        assert np.allclose(conn.eval_numeric(0, x), np.diag([1j, 2j]))
        assert np.allclose(conn.eval_numeric(1, x), np.diag([2j, 1j]))

    def test_two_particle_off_diagonal_coupling(self):
        conn = build_local_system(2, [F(1), F(2)], F(3))
        m = conn.eval_numeric(0, np.array([0.0, 1.0]))
        assert np.isclose(m[0, 1], 3.0)   # 3/(x1-x0)
        assert np.isclose(m[1, 0], 3.0)

    def test_three_particle_row_structure(self):
        conn = build_local_system(3, P3, F(1))
        for k in range(3):
            per_row = {}
            for e in conn.off[k]:
                per_row[e.row] = per_row.get(e.row, 0) + 1
            assert len(per_row) == 6
            assert all(count == 2 for count in per_row.values())

    def test_velocity_matrix_matches_entry_loop(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            conn = build_local_system(n, [F(i + 1, 3) - 1 for i in range(n)], F(5, 4))
            xs = np.cumsum(rng.uniform(0.2, 1.5, size=(4, n)), axis=1)
            v = rng.normal(size=n)
            batch = conn.velocity_matrix(xs, v)
            assert batch.shape == (4, conn.dim, conn.dim)
            for x, m in zip(xs, batch):
                ref = _entry_loop_velocity(conn, x, v)
                # off-diagonal entries are summed in the same order; only the
                # diagonal's n-term sum may round differently
                assert np.max(np.abs(m - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))
                assert np.array_equal(conn.velocity_matrix(x, v), m)
                for k in range(n):
                    unit = np.eye(n)[k]
                    assert np.allclose(conn.eval_numeric(k, x),
                                       _entry_loop_velocity(conn, x, unit), rtol=0, atol=1e-14)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            build_local_system(6, [F(i) for i in range(6)], 1)

    def test_momentum_length_checked(self):
        with pytest.raises(ValueError):
            build_local_system(3, [F(1)], 1)


class TestFlatness:
    def test_two_particles_at_unit_gap(self):
        conn = build_local_system(2, [F(5, 7), F(-2)], F(7, 3))
        report = verify_flatness(conn, [(F(0), F(1))])
        assert report["failures"] == []

    def test_three_particles_integer_point(self):
        conn = build_local_system(3, [F(1), F(2), F(5)], F(1))
        report = verify_flatness(conn, [(F(0), F(1), F(3))])
        assert report["failures"] == []

    def test_free_case_any_size(self):
        for n in (2, 3, 4):
            conn = build_local_system(n, [F(i + 1) for i in range(n)], 0)
            pts = [tuple(F(3 * i + j) for i in range(n)) for j in range(2)]
            assert verify_flatness(conn, pts)["failures"] == []

    def test_random_coupling_and_momenta(self):
        rng = random.Random(20)
        for n in (2, 3, 4):
            p = [F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(n)]
            c = F(rng.randint(1, 9), rng.randint(1, 4))
            conn = build_local_system(n, p, c)
            pts = [random_chamber_point(n, rng) for _ in range(4)]
            assert verify_flatness(conn, pts)["failures"] == []

    def test_tampered_coefficient_reports_exact_residuals(self):
        # one off-diagonal coefficient of Omega_1 moved from -1 or 1 to 7/5:
        # the connection is no longer flat, and every residual the report
        # names must equal the dense Fraction curvature
        conn = build_local_system(3, P3, F(1))
        off = [list(o) for o in conn.off]
        off[1][0] = dataclasses.replace(off[1][0], coeff=F(7, 5))
        bad = dataclasses.replace(conn, off=tuple(tuple(o) for o in off))
        points = [(F(0), F(1), F(3)), (F(-1, 2), F(2, 3), F(9, 4))]
        expected = []
        for point in points:
            for j, k in ((0, 1), (0, 2), (1, 2)):
                assert _dense_curvature(conn, point, j, k) == ({}, {})
                real, imag = _dense_curvature(bad, point, j, k)
                if real or imag:
                    expected.append({"point": [str(v) for v in point], "pair": [j, k],
                                     "real": real, "imag": imag})
        report = verify_flatness(bad, points)
        assert report["failures"] == expected
        assert any(f["real"] for f in expected) and any(f["imag"] for f in expected)
        assert verify_flatness(conn, points)["failures"] == []

    def test_unordered_point_rejected(self):
        conn = build_local_system(2, [F(1), F(2)], 1)
        with pytest.raises(PathValidationError):
            verify_flatness(conn, [(F(1), F(0))])


class TestVectorizationAgainstScalarOperator:
    """The rows of the local system must restate the scalar operator.

    For any section psi and argument permutation sigma, the chain rule plus
    the definition of the operator give

        d_k (sigma . psi) = sigma . (nabla_{m0} psi)
                            + sum over the built row entries of
                              coeff/(x_a - x_b) * (column-permutation . psi)

    with m0 = sigma^-1(k).  Checking this exactly for arbitrary psi certifies
    the connection's structure, not just its flatness.
    """

    def _check(self, n, c, psi):
        from calogero.dunkl import DunklContext, apply_dunkl

        conn = build_local_system(n, [F(i + 1) for i in range(n)], c)
        ctx = DunklContext(n, 2)
        for row, sigma in enumerate(conn.perms):
            vectorized = psi.permute(sigma)
            for k in range(n):
                m0 = sigma.inverse()(k)
                rhs = apply_dunkl(ctx, m0, psi).specialize_coupling(c).permute(sigma)
                for e in conn.off[k]:
                    if e.row != row:
                        continue
                    term = psi.permute(conn.perms[e.col])
                    rhs = rhs + term.mul_inverse_difference(e.a, e.b).scale(e.coeff)
                assert vectorized.partial(k) == rhs, (sigma, k)

    def test_three_particles_polynomial_section(self):
        self._check(3, F(5, 3), RationalSection.monomial(3, (2, 1, 0)))

    def test_three_particles_section_with_poles(self):
        psi = RationalSection.monomial(3, (1, 0, 1)) * \
            RationalSection.inverse_difference(3, 0, 2)
        self._check(3, F(-7, 2), psi)

    def test_two_particles_random_sections(self):
        rng = random.Random(13)
        for _ in range(3):
            terms = {tuple(rng.randint(0, 3) for _ in range(2)): F(rng.randint(-3, 3))
                     for _ in range(3)}
            num = sum((RationalSection.monomial(2, e).scale(v)
                       for e, v in terms.items() if v),
                      RationalSection.zero(2))
            self._check(2, F(rng.randint(1, 5), rng.randint(1, 3)), num)


class TestChamberPath:
    def test_margin_validation(self):
        with pytest.raises(PathValidationError):
            ChamberPath(((0.0, 0.5),), margin=0.6)
        with pytest.raises(PathValidationError):
            ChamberPath(((1.0, 0.0),), margin=0.1)

    @pytest.mark.parametrize("waypoints, margin", [
        (((0.0, float("nan")),), 0.1),
        (((0.0, 1.0), (float("-inf"), 2.0)), 0.1),
        (((0.0, 1.0),), float("nan")),
        (((0.0, 1.0),), float("inf")),
    ])
    def test_non_finite_input_is_malformed_not_a_chamber_violation(self, waypoints, margin):
        with pytest.raises(ValueError) as err:
            ChamberPath(waypoints, margin=margin)
        assert not isinstance(err.value, PathValidationError)
        assert "not finite" in str(err.value)

    def test_json_round_trip(self, tmp_path):
        path = ChamberPath(((0.0, 1.0), (0.5, 2.0)), margin=0.25)
        file = tmp_path / "path.json"
        path.save(str(file))
        again = ChamberPath.load(str(file))
        assert again == path

    def test_closed_detection_and_reversal(self):
        loop = ChamberPath(((0.0, 1.0), (0.2, 1.4), (0.0, 1.0)), margin=0.1)
        assert loop.is_closed()
        assert loop.reversed().waypoints[0] == (0.0, 1.0)

    def test_concat_requires_shared_junction(self):
        a = ChamberPath(((0.0, 1.0), (0.2, 1.4)), margin=0.1)
        b = ChamberPath(((0.2, 1.4), (0.1, 1.2)), margin=0.1)
        assert a.concat(b).waypoints == ((0.0, 1.0), (0.2, 1.4), (0.1, 1.2))
        with pytest.raises(PathValidationError):
            b.concat(a)


class TestTransportOde:
    def test_zero_length_path_gives_identity(self):
        conn = build_local_system(2, [F(1), F(2)], F(3))
        res = transport_ode(conn, ChamberPath(((0.0, 1.0),), margin=0.1))
        assert np.allclose(res.matrix, np.eye(2))

    def test_free_segment_matches_phase_formula(self):
        conn = build_local_system(3, P3, 0)
        path = ChamberPath(((0.0, 1.0, 2.0), (0.1, 1.05, 2.2)), margin=0.1)
        res = transport_ode(conn, path, tol=1e-12)
        assert np.max(np.abs(res.matrix - free_transport(conn, path))) < 1e-10

    def test_free_phase_value_spot_check(self):
        conn = build_local_system(2, [F(1), F(2)], 0)
        path = ChamberPath(((0.0, 1.0), (0.5, 1.75)), margin=0.1)
        res = transport_ode(conn, path, tol=1e-12)
        # row of the identity permutation: exp(i(p0*dx0 + p1*dx1))
        assert abs(res.matrix[0, 0] - cmath.exp(1j * (0.5 + 2 * 0.75))) < 1e-10

    def test_closed_triangle_holonomy(self):
        conn = build_local_system(3, P3, F(1))
        loop = ChamberPath(((0.0, 1.0, 2.0), (0.3, 1.2, 2.5),
                            (-0.2, 0.9, 2.1), (0.0, 1.0, 2.0)), margin=0.1)
        res = transport_ode(conn, loop, tol=1e-10)
        assert np.max(np.abs(res.matrix - np.eye(6))) <= 1e-8

    def test_path_independence(self):
        conn = build_local_system(3, P3, F(1))
        direct = ChamberPath(((0.0, 1.0, 2.0), (0.3, 1.2, 2.5)), margin=0.1)
        detour = ChamberPath(((0.0, 1.0, 2.0), (-0.3, 0.8, 2.2),
                              (0.1, 1.3, 2.8), (0.3, 1.2, 2.5)), margin=0.1)
        wa = transport_ode(conn, direct, tol=1e-10).matrix
        wb = transport_ode(conn, detour, tol=1e-10).matrix
        assert np.max(np.abs(wa - wb)) <= 1e-8

    def test_reversal_inverts(self):
        conn = build_local_system(3, P3, F(1))
        seg = ChamberPath(((0.0, 1.0, 2.0), (0.3, 1.2, 2.5)), margin=0.1)
        wf = transport_ode(conn, seg, tol=1e-11).matrix
        wb = transport_ode(conn, seg.reversed(), tol=1e-11).matrix
        assert np.max(np.abs(wf @ wb - np.eye(6))) < 1e-9

    def test_composition(self):
        conn = build_local_system(3, P3, F(1))
        first = ChamberPath(((0.0, 1.0, 2.0), (0.2, 1.3, 2.4)), margin=0.1)
        second = ChamberPath(((0.2, 1.3, 2.4), (0.4, 1.1, 2.7)), margin=0.1)
        w1 = transport_ode(conn, first, tol=1e-11).matrix
        w2 = transport_ode(conn, second, tol=1e-11).matrix
        w12 = transport_ode(conn, first.concat(second), tol=1e-11).matrix
        assert np.max(np.abs(w12 - w2 @ w1)) < 1e-9

    def test_columns_solve_the_system(self, benchmark_path):
        # central finite difference of the transported frame along the path
        conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
        a = np.asarray(benchmark_path.waypoints[0])
        b = np.asarray(benchmark_path.waypoints[1])
        v = b - a
        h = 1e-3
        for t in (0.25, 0.5, 0.75):
            paths = {}
            for dt in (-h, 0.0, h):
                end = tuple(a + (t + dt) * v)
                seg = ChamberPath((tuple(a), end), margin=0.05)
                paths[dt] = transport_ode(conn, seg, tol=1e-12).matrix
            deriv_fd = (paths[h] - paths[-h]) / (2 * h)
            deriv_exact = conn.velocity_matrix(a + t * v, v) @ paths[0.0]
            assert np.max(np.abs(deriv_fd - deriv_exact)) < 10 * h * h

    def test_tolerance_must_be_positive(self, benchmark_path):
        conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
        with pytest.raises(ValueError):
            transport_ode(conn, benchmark_path, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_tolerance_must_be_finite(self, benchmark_path, tol):
        conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
        with pytest.raises(ValueError):
            transport_ode(conn, benchmark_path, tol=tol)

    def test_dimension_mismatch_rejected(self, benchmark_path):
        conn = build_local_system(2, (F(1), F(2)), F(1))
        with pytest.raises(PathValidationError):
            transport_ode(conn, benchmark_path)

    def test_prefactor_overrides_coupling_scale(self):
        # off-diagonal entries scale with the prefactor, diagonal stays put
        base = build_local_system(2, (F(1), F(2)), F(1))
        scaled = build_local_system(2, (F(1), F(2)), F(1), prefactor=F(3))
        x = np.array([0.0, 1.0])
        m0, m1 = base.eval_numeric(0, x), scaled.eval_numeric(0, x)
        assert np.isclose(m1[0, 1], 3 * m0[0, 1])
        assert np.isclose(m1[0, 0], m0[0, 0])


class TestTransportDyson:
    def test_first_order_on_free_short_segment(self):
        conn = build_local_system(2, [F(1), F(2)], 0)
        path = ChamberPath(((0.0, 1.0), (0.01, 1.02)), margin=0.1)
        res = transport_dyson(conn, path, order=1, steps=8)
        a = free_transport(conn, path)
        # 1 + integral A equals the exponential through first order
        phases = np.angle(np.diag(a))
        expected = np.eye(2, dtype=complex) + np.diag(1j * phases)
        assert np.max(np.abs(res.matrix - expected)) < 1e-3

    def test_agreement_with_ode(self, benchmark_path):
        conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
        ode = transport_ode(conn, benchmark_path, tol=1e-10)
        dyson = transport_dyson(conn, benchmark_path, order=8, steps=400)
        assert np.max(np.abs(dyson.matrix - ode.matrix)) <= 1e-6

    def test_reversal_composes_to_identity(self, benchmark_path):
        conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
        forward = transport_dyson(conn, benchmark_path, order=10, steps=300).matrix
        backward = transport_dyson(conn, benchmark_path.reversed(),
                                   order=10, steps=300).matrix
        assert np.max(np.abs(forward @ backward - np.eye(6))) < 1e-6

    def test_parameter_validation(self, benchmark_path):
        conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
        with pytest.raises(ValueError):
            transport_dyson(conn, benchmark_path, order=0)
        with pytest.raises(ValueError):
            transport_dyson(conn, benchmark_path, steps=0)

    def test_zero_length_path_gives_identity(self):
        conn = build_local_system(2, (F(1), F(2)), F(1))
        res = transport_dyson(conn, ChamberPath(((0.0, 1.0),), margin=0.1))
        assert np.allclose(res.matrix, np.eye(2))

    @pytest.mark.parametrize("steps", [10**12, 10**400])
    def test_grid_above_memory_bound_refused_before_allocating(self, benchmark_path, steps):
        # 10**12 steps would need petabytes, so allocating them would raise
        # MemoryError, not ValueError; 10**400 does not even fit a float
        conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MiB bound"):
                transport_dyson(conn, benchmark_path, order=8, steps=steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20 < DYSON_MAX_BYTES


class TestScipyOracle:
    """DOP853 from scipy on W' = Omega(x(t)) W, with Omega from the per-entry
    reference loop, against transport_ode after every segment."""

    @pytest.mark.parametrize("waypoints, p", [
        (LOOP3, P3),
        (LOOP4, (F(1, 2), F(-1, 3), F(1, 4), F(2, 3))),
    ])
    def test_dop853_agrees_with_transport_ode(self, waypoints, p):
        integrate = pytest.importorskip("scipy.integrate")
        conn = build_local_system(len(p), p, F(1))
        d = conn.dim
        w = np.eye(d, dtype=complex)
        path = ChamberPath(waypoints, margin=0.1)
        for i, (a, b) in enumerate(path.segments()):
            v = b - a

            def rhs(t, y, a=a, v=v):
                return (_entry_loop_velocity(conn, a + t * v, v) @ y.reshape(d, d)).ravel()

            sol = integrate.solve_ivp(rhs, (0.0, 1.0), w.ravel(), method="DOP853",
                                      rtol=1e-12, atol=1e-12)
            assert sol.success
            w = sol.y[:, -1].reshape(d, d)
            prefix = ChamberPath(waypoints[:i + 2], margin=0.1)
            ours = transport_ode(conn, prefix, tol=1e-10).matrix
            assert np.max(np.abs(ours - w)) <= 1e-8


class TestPlaneWaveMap:
    def test_free_case_strips_to_identity(self):
        conn = build_local_system(3, P3, 0)
        report = plane_wave_map(conn, (0.0, 1.0, 2.0), 8.0, tol=1e-10)
        assert report["momentaGeneric"]
        assert max(report["differences"]) < 1e-8

    def test_interacting_differences_reported(self):
        conn = build_local_system(2, (F(1), F(-1)), F(1))
        report = plane_wave_map(conn, (0.0, 1.0), 16.0, tol=1e-9)
        assert len(report["differences"]) == len(report["lambdas"]) - 1
        assert all(d >= 0 for d in report["differences"])

    def test_degenerate_momenta_flagged(self):
        conn = build_local_system(2, (F(1), F(1)), F(1))
        report = plane_wave_map(conn, (0.0, 1.0), 2.0, tol=1e-9)
        assert report["momentaGeneric"] is False

    def test_unordered_base_point_rejected(self):
        conn = build_local_system(2, (F(1), F(2)), F(1))
        with pytest.raises(PathValidationError):
            plane_wave_map(conn, (1.0, 0.0), 4.0)


class TestEquivariance:
    def test_identity_matches_trivially(self):
        rng = random.Random(5)
        conn = build_local_system(3, P3, F(1))
        other = build_local_system(3, P3, F(1))
        report = equivariance_check(conn, other, Permutation.identity(3),
                                    [random_chamber_point(3, rng)])
        assert "right" in report["matched"]

    def test_two_particle_swap(self):
        rng = random.Random(6)
        sigma = Permutation.transposition(2, 0, 1)
        p = (F(1, 2), F(5, 3))
        conn = build_local_system(2, p, F(2))
        permuted = build_local_system(2, permute_momenta(p, sigma), F(2))
        report = equivariance_check(conn, permuted, sigma,
                                    [random_chamber_point(2, rng) for _ in range(3)])
        assert report["matched"]

    def test_three_particle_swap_five_points(self):
        rng = random.Random(7)
        sigma = Permutation.transposition(3, 0, 1)
        p = (F(1), F(2), F(5))
        conn = build_local_system(3, p, F(1))
        permuted = build_local_system(3, permute_momenta(p, sigma), F(1))
        report = equivariance_check(conn, permuted, sigma,
                                    [random_chamber_point(3, rng) for _ in range(5)])
        assert report["matched"] == ["right", "right-inverse"]

    def test_mismatched_momenta_raise(self):
        rng = random.Random(8)
        sigma = Permutation.transposition(3, 0, 1)
        p = (F(1), F(2), F(5))
        conn = build_local_system(3, p, F(1))
        wrong = build_local_system(3, (F(9), F(9), F(9)), F(1))
        with pytest.raises(EquivarianceError):
            equivariance_check(conn, wrong, sigma,
                               [random_chamber_point(3, rng)])

    def test_coincident_point_is_refused(self):
        # two equal coordinates put the point on a pole of the connection
        sigma = Permutation.transposition(3, 0, 1)
        conn = build_local_system(3, P3, F(1))
        permuted = build_local_system(3, permute_momenta(P3, sigma), F(1))
        with pytest.raises(PathValidationError, match="not strictly ordered"):
            equivariance_check(conn, permuted, sigma, [(0, 1, 1)])
