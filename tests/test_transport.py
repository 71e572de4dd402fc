import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from calogero import transport
from calogero.exactalg import Permutation, RationalSection
from calogero.transport import (
    DYSON_MAX_BYTES,
    DYSON_MAX_ORDER,
    MIN_TOL,
    ChamberPath,
    ConnectionMatrix,
    PathValidationError,
    TransportStepError,
    _DP_A,
    _DP_B4,
    _DP_C,
    _integrate_dp45,
    _regular_tables,
    _step_cap,
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
from conftest import BENCHMARK_C, BENCHMARK_P, mutant_module

P3 = (F(1, 2), F(-1, 3), F(1, 4))
LOOP3 = ((0.0, 1.0, 2.0), (0.3, 1.2, 2.5), (-0.2, 0.9, 2.1), (0.0, 1.0, 2.0))
LOOP4 = ((0.0, 1.0, 2.0, 3.2), (0.3, 1.2, 2.5, 3.0), (-0.2, 0.9, 2.1, 3.5),
         (0.0, 1.0, 2.0, 3.2))


def _exact_entries(conn):
    """Omega_k's exact off-diagonal entries ``(row, col, coeff, a, b)``, each
    ``coeff / (x_a - x_b)``, for every k: in row s, column ``(a b) * s`` holds
    ``q_ab`` in Omega_b and ``-q_ab`` in Omega_a.  The columns come from S_N
    products, not from the tables the connection reads."""
    index = {s.images: r for r, s in enumerate(conn.perms)}
    entries = [[] for _ in range(conn.n)]
    for (a, b), q in zip(itertools.combinations(range(conn.n), 2), conn.q):
        swap = Permutation.transposition(conn.n, a, b)
        for row, s in enumerate(conn.perms):
            col = index[(swap * s).images]
            entries[b].append((row, col, q, a, b))
            entries[a].append((row, col, -q, a, b))
    return entries


def _entry_loop_velocity(conn, entries, x, v):
    """Reference sum_k v_k Omega_k(x), one entry at a time from the exact
    diagonal and ``entries = _exact_entries(conn)``, independent of the arrays
    the connection derives."""
    d = conn.dim
    out = np.zeros((d, d), dtype=complex)
    for k in range(conn.n):
        for row in range(d):
            out[row, row] += 1j * v[k] * float(conn.diag[k][row])
        for row, col, coeff, a, b in entries[k]:
            out[row, col] += v[k] * float(coeff) / (x[a] - x[b])
    return out


def _dense_curvature(conn, entries, point, j, k):
    """Curvature of the pair (j, k) at a rational point from dense Fraction
    matrices built from ``entries = _exact_entries(conn)``: nonzero real and
    imaginary entries as {"row,col": text}."""
    d = conn.dim

    def off_part(kk, deriv=None):
        # Omega_kk's off-diagonal part, or its derivative along x_deriv
        m = [[F(0)] * d for _ in range(d)]
        for row, col, coeff, a, b in entries[kk]:
            gap = point[a] - point[b]
            if deriv is None:
                m[row][col] += coeff / gap
            else:
                m[row][col] -= ((deriv == a) - (deriv == b)) * coeff / gap ** 2
        return m

    rj, rk = off_part(j), off_part(k)
    dj_rk, dk_rj = off_part(k, deriv=j), off_part(j, deriv=k)
    dj, dk = conn.diag[j], conn.diag[k]
    real, imag = {}, {}
    for r in range(d):
        for c in range(d):
            comm = sum(rj[r][t] * rk[t][c] - rk[r][t] * rj[t][c] for t in range(d)
                       if rj[r][t] or rk[r][t])
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
        assert np.allclose(conn.velocity_matrix(x, np.eye(2)[0]), np.diag([1j, 2j]))
        assert np.allclose(conn.velocity_matrix(x, np.eye(2)[1]), np.diag([2j, 1j]))

    def test_two_particle_off_diagonal_coupling(self):
        conn = build_local_system(2, [F(1), F(2)], F(3))
        m = conn.velocity_matrix(np.array([0.0, 1.0]), np.eye(2)[0])
        assert np.isclose(m[0, 1], 3.0)   # 3/(x1-x0)
        assert np.isclose(m[1, 0], 3.0)

    def test_three_particle_row_structure(self):
        conn = build_local_system(3, P3, F(1))
        for entries in _exact_entries(conn):
            per_row = {}
            for row, *_ in entries:
                per_row[row] = per_row.get(row, 0) + 1
            assert len(per_row) == 6
            assert all(count == 2 for count in per_row.values())

    def test_velocity_matrix_matches_entry_loop(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4, 5):
            conn = build_local_system(n, [F(i + 1, 3) - 1 for i in range(n)], F(5, 4))
            xs = np.cumsum(rng.uniform(0.2, 1.5, size=(4, n)), axis=1)
            v = rng.normal(size=n)
            entries = _exact_entries(conn)
            batch = conn.velocity_matrix(xs, v)
            assert batch.shape == (4, conn.dim, conn.dim)
            for x, m in zip(xs, batch):
                ref = _entry_loop_velocity(conn, entries, x, v)
                # off-diagonal entries are summed in the same order; only the
                # diagonal's n-term sum may round differently
                assert np.max(np.abs(m - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))
                assert np.array_equal(conn.velocity_matrix(x, v), m)
                for k in range(n):
                    unit = np.eye(n)[k]
                    assert np.allclose(conn.velocity_matrix(x, unit),
                                       _entry_loop_velocity(conn, entries, x, unit),
                                       rtol=0, atol=1e-14)

    def test_segment_form_matches_velocity_matrix(self):
        # every call rewrites all seven stage matrices of the stack
        rng = np.random.default_rng(5)
        for n in (2, 3, 4, 5):
            conn = build_local_system(n, [F(i + 1, 3) - 1 for i in range(n)], F(5, 4))
            a = np.cumsum(rng.uniform(0.2, 1.5, size=n))
            v = np.cumsum(rng.uniform(0.2, 1.5, size=n)) - a
            put = conn.stages(a, v)
            for t, h in ((0.0, 0.1), (0.37, 0.25), (0.9, 0.1)):
                ts = t + np.array(_DP_C) * h
                stack = put(ts)
                assert stack.shape == (7, conn.dim, conn.dim)
                for s, ts_s in enumerate(ts):
                    ref = conn.velocity_matrix(a + ts_s * v, v)
                    # the gaps are a_a - a_b + t (v_a - v_b) here and
                    # x_a - x_b there, so they may round differently
                    assert (np.max(np.abs(stack[s] - ref))
                            <= 8 * np.finfo(float).eps * np.max(np.abs(ref)))

    def test_regular_tables_are_built_once_per_n(self):
        _regular_tables.cache_clear()
        conn = build_local_system(4, [F(1), F(2), F(3), F(4)], F(1))
        build_local_system(4, [F(0)] * 4, F(-2, 3))
        assert _regular_tables.cache_info()[:2] == (1, 1)  # hits, misses
        x, v = np.array([0.0, 1.0, 2.5, 2.75]), np.array([0.3, -1.0, 0.7, 0.2])
        # part 0 is the diagonal, part 1 the exact off-diagonal entries
        for change, part in (({"p": (F(4), F(3), F(-2), F(1, 2))}, 0),
                             ({"q": tuple(F(i - 2, 3) for i in range(6))}, 1)):
            moved = ConnectionMatrix(**{"p": conn.p, "q": conn.q, **change})
            fresh = ConnectionMatrix(**{"p": conn.p, "q": conn.q, **change})
            before, after, again = ((c.diag, _exact_entries(c)) for c in (conn, moved, fresh))
            assert after == again and after[part] != before[part]
            assert np.array_equal(moved.velocity_matrix(x, v), fresh.velocity_matrix(x, v))
            assert not np.array_equal(moved.velocity_matrix(x, v), conn.velocity_matrix(x, v))
        assert _regular_tables.cache_info()[:2] == (5, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_velocity_matrix_is_the_kz_form(self, n):
        # i diag(v @ D) + sum_{a<b} q_ab (v_b - v_a)/(x_a - x_b) L_ab, with
        # L_ab (row s -> column (a b) * s) and D built here from S_N itself,
        # for one coupling on every pair and for a different one on each
        rng = np.random.default_rng(17 + n)
        p = [F(i + 1, 3) - 1 for i in range(n)]
        pairs = list(itertools.combinations(range(n), 2))
        uniform = build_local_system(n, p, F(5, 4))
        varied = ConnectionMatrix(
            uniform.p, tuple(F(2 * i - 3, i + 2) for i in range(len(pairs))))
        perms = Permutation.all_elements(n)
        images = [s.images for s in perms]
        d = len(perms)
        shifts = {}
        for a, b in pairs:
            swap = Permutation.transposition(n, a, b)
            shifts[a, b] = np.zeros((d, d))
            for r, s in enumerate(perms):
                shifts[a, b][r, images.index((swap * s).images)] = 1.0
        diag = np.array([[float(p[s.inverse()(k)]) for s in perms] for k in range(n)])
        for conn in (uniform, varied):
            x = np.cumsum(rng.uniform(0.2, 1.5, size=n))
            v = rng.normal(size=n)
            ref = np.diag(1j * (v @ diag)) + sum(
                float(q) * (v[b] - v[a]) / (x[a] - x[b]) * shifts[a, b]
                for (a, b), q in zip(pairs, conn.q))
            m = conn.velocity_matrix(x, v)
            assert np.max(np.abs(m - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))

    def test_replaced_momenta_rederive_the_diagonal(self):
        conn = build_local_system(3, P3, F(1))
        moved = ConnectionMatrix((F(1), F(1), F(2)), conn.q)
        fresh = build_local_system(3, (F(1), F(1), F(2)), F(1))
        assert moved == fresh and moved.diag == fresh.diag
        x, v = np.array([0.0, 1.0, 2.5]), np.array([0.3, -1.0, 0.7])
        assert np.array_equal(moved.velocity_matrix(x, v), fresh.velocity_matrix(x, v))
        assert plane_wave_map(moved, (0.0, 1.0, 2.5), 1.0)["momentaGeneric"] is False

    @pytest.mark.parametrize("n", [1, 6])
    def test_particle_count_outside_the_cap_is_refused_before_enumeration(self, n,
                                                                          monkeypatch):
        def no_enumeration(size):
            raise AssertionError(f"S_{size} enumerated")

        monkeypatch.setattr(Permutation, "all_elements", no_enumeration)
        with pytest.raises(ValueError, match="cap"):
            ConnectionMatrix(tuple(F(i) for i in range(n)), (F(1),) * (n * (n - 1) // 2))

    @pytest.mark.parametrize("count", [2, 4])
    def test_one_coupling_per_pair_is_required(self, count):
        with pytest.raises(ValueError, match="couplings for the 3 pairs"):
            ConnectionMatrix(P3, (F(1),) * count)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            build_local_system(6, [F(i) for i in range(6)], 1)

    def test_momentum_length_checked(self):
        with pytest.raises(ValueError):
            build_local_system(3, [F(1)], 1)

    @pytest.mark.parametrize("p, c, what", [
        ([F(1), F(0), F(-1)], F(10) ** 400, "coupling"),
        ([F(1), F(0), -F(10) ** 400], F(1), "momentum"),
    ])
    def test_value_whose_float_overflows_is_refused(self, p, c, what):
        with pytest.raises(ValueError, match=what):
            build_local_system(3, p, c)


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

    @staticmethod
    def _dense_failures(conn, points):
        # every residual the report names must equal the dense Fraction
        # curvature, derivative terms included
        failures = []
        entries = _exact_entries(conn)
        for point in points:
            for j, k in itertools.combinations(range(conn.n), 2):
                real, imag = _dense_curvature(conn, entries, point, j, k)
                if real or imag:
                    failures.append({"point": [str(v) for v in point], "pair": [j, k],
                                     "real": real, "imag": imag})
        return failures

    @classmethod
    def _expected_failures(cls, conn, bad, points):
        assert cls._dense_failures(conn, points) == []
        return cls._dense_failures(bad, points)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_connections_match_the_dense_curvature(self, n):
        # one coupling per pair, one of them 0, and a repeated momentum.  At
        # N=2 the connection is always flat; above, unequal couplings break
        # the infinitesimal braid relations, so the report names real
        # residuals, and each must be the dense curvature's
        rng = random.Random(60 + n)
        failures = 0
        for _ in range(3):
            p = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            p[rng.randrange(1, n)] = p[0]
            q = [F(rng.randint(1, 6) * rng.choice((-1, 1)), rng.randint(1, 4))
                 for _ in range(n * (n - 1) // 2)]
            q[rng.randrange(len(q))] = F(0)
            conn = ConnectionMatrix(p, q)
            points = [random_chamber_point(n, rng) for _ in range(2)]
            report = verify_flatness(conn, points)
            assert report["failures"] == self._dense_failures(conn, points)
            failures += len(report["failures"])
        assert (failures > 0) == (n > 2)

    def test_tampered_coefficient_reports_exact_residuals(self):
        # the coupling of the pair (0, 1) moved from 1 to 7/5: the connection
        # is no longer flat, in its real part only, since D_j + D_k commutes
        # with the swap (j k) and no choice of couplings leaves an imaginary
        # residual
        conn = build_local_system(3, P3, F(1))
        bad = ConnectionMatrix(conn.p, (F(7, 5),) + conn.q[1:])
        points = [(F(0), F(1), F(3)), (F(-1, 2), F(2, 3), F(9, 4))]
        expected = self._expected_failures(conn, bad, points)
        assert verify_flatness(bad, points)["failures"] == expected
        assert expected and not any(f["imag"] for f in expected)
        assert verify_flatness(conn, points)["failures"] == []

    def test_tampered_coefficient_at_four_particles(self):
        # the coupling of the pair (1, 3) moved from 1 to -3/7, checked at two
        # random points against the dense curvature of every pair j < k
        conn = build_local_system(4, (F(1, 2), F(-1, 3), F(1, 4), F(2)), F(1))
        pairs = list(itertools.combinations(range(4), 2))
        q = list(conn.q)
        q[pairs.index((1, 3))] = F(-3, 7)
        bad = ConnectionMatrix(conn.p, tuple(q))
        rng = random.Random(41)
        points = [random_chamber_point(4, rng) for _ in range(2)]
        expected = self._expected_failures(conn, bad, points)
        assert verify_flatness(bad, points)["failures"] == expected
        # only the curvature of a pair touching 1 or 3 involves that coupling
        assert expected and all({1, 3} & set(f["pair"]) for f in expected)
        assert verify_flatness(conn, points)["failures"] == []

    @pytest.mark.parametrize("n", [3, 4])
    def test_inverted_diagonal_reports_exact_residuals(self, n):
        # a mutant whose diagonal reads p[s(k)] instead of p[s^-1(k)]: the
        # off-diagonal part is intact, so every residual is imaginary
        mutant = mutant_module(transport, "p[s.images.index(k)]", "p[s.images[k]]")
        p = (P3 + (F(2),))[:n]
        conn = build_local_system(n, p, F(1))
        bad = mutant.build_local_system(n, p, F(1))
        points = [pt[:n] for pt in ((F(0), F(1), F(3), F(17, 4)),
                                    (F(-1, 2), F(2, 3), F(9, 4), F(4)))]
        expected = self._expected_failures(conn, bad, points)
        assert verify_flatness(bad, points)["failures"] == expected
        assert expected and not any(f["real"] for f in expected)

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
        from calogero.dunkl import apply_dunkl

        conn = build_local_system(n, [F(i + 1) for i in range(n)], c)
        entries = _exact_entries(conn)
        for row, sigma in enumerate(conn.perms):
            vectorized = psi.permute(sigma)
            for k in range(n):
                m0 = sigma.inverse()(k)
                rhs = apply_dunkl(m0, psi).specialize_coupling(c).permute(sigma)
                for e_row, col, coeff, a, b in entries[k]:
                    if e_row != row:
                        continue
                    term = psi.permute(conn.perms[col])
                    rhs = rhs + term.mul_inverse_difference(a, b).scale(coeff)
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

    @pytest.mark.parametrize("waypoints", [((0.0,), (1.0,)), ((),)])
    def test_fewer_than_two_coordinates_is_malformed(self, waypoints):
        with pytest.raises(ValueError) as err:
            ChamberPath(waypoints, margin=0.1)
        assert not isinstance(err.value, PathValidationError)
        assert "at least two coordinates" in str(err.value)

    @pytest.mark.parametrize("waypoints, margin", [
        ((), 0.1),
        (((0.0, 1.0),), 0.0),
        (((0.0, 1.0),), -0.5),
        (((0.0, 1.0), (0.0, 1.0, 2.0)), 0.1),
    ])
    def test_empty_path_bad_margin_and_ragged_waypoints_are_malformed(self, waypoints,
                                                                     margin):
        with pytest.raises(ValueError) as err:
            ChamberPath(waypoints, margin=margin)
        assert not isinstance(err.value, PathValidationError)

    @pytest.mark.parametrize("data", [
        {"N": 2.7, "margin": 0.1, "waypoints": [[0.0, 1.0]]},
        {"N": 2.0, "margin": 0.1, "waypoints": [[0.0, 1.0]]},
        {"N": "2", "margin": 0.1, "waypoints": [[0.0, 1.0]]},
        {"N": True, "margin": 0.1, "waypoints": [[0.0, 1.0]]},
        {"N": 2, "margin": "0.1", "waypoints": [[0.0, 1.0]]},
        {"N": 2, "margin": True, "waypoints": [[0.0, 1.0]]},
        {"N": 2, "margin": 0.1, "waypoints": [[0.0, "1.0"]]},
        {"N": 2, "margin": 0.1, "waypoints": [[False, 1.0]]},
        {"N": 2, "margin": 0.1, "waypoints": [[0.0, None]]},
        {"N": 2, "margin": 0.1, "waypoints": [[0.0, 10 ** 400]]},
        {"N": 2, "margin": 0.1, "waypoints": "0.0, 1.0"},
        {"N": 2, "margin": 0.1, "waypoints": []},
        {"N": 2, "waypoints": [[0.0, 1.0, 2.0]]},
        {"margin": 0.1, "waypoints": [[0.0, 1.0]]},
    ])
    def test_from_json_refuses_values_of_the_wrong_json_type(self, data):
        with pytest.raises(ValueError) as err:
            ChamberPath.from_json(data)
        assert not isinstance(err.value, PathValidationError)

    def test_from_json_accepts_integer_coordinates_and_default_margin(self):
        path = ChamberPath.from_json({"N": 2, "waypoints": [[0, 1], [0.5, 2]]})
        assert path.waypoints == ((0.0, 1.0), (0.5, 2.0)) and path.margin == 1e-6
        assert all(type(v) is float for w in path.waypoints for v in w)

    def test_json_round_trip(self, tmp_path):
        path = ChamberPath(((0.0, 1.0), (0.5, 2.0)), margin=0.25)
        file = tmp_path / "path.json"
        path.save(str(file))
        again = ChamberPath.load(str(file))
        assert again == path

    @pytest.mark.parametrize("text", [
        '{"N": 2, "margin": NaN, "waypoints": [[0.0, 1.0]]}',
        '{"N": 2, "margin": 0.1, "waypoints": [[0.0, Infinity]]}',
        '{"N": 2, "margin": 0.1, "waypoints": [[-Infinity, 1.0]]}',
    ])
    def test_load_refuses_non_finite_tokens(self, tmp_path, text):
        file = tmp_path / "path.json"
        file.write_text(text)
        with pytest.raises(ValueError, match="non-finite"):
            ChamberPath.load(str(file))

    def test_load_refuses_malformed_json(self, tmp_path):
        file = tmp_path / "path.json"
        file.write_text("{not json")
        with pytest.raises(ValueError, match="malformed"):
            ChamberPath.load(str(file))

    def test_load_of_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            ChamberPath.load(str(tmp_path / "none.json"))

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
    def test_dormand_prince_tableau(self):
        # the tables are plain floats; each row of A sums to its node, the
        # last row is the fifth-order weights and the fourth-order ones sum to 1
        assert len(_DP_A) == len(_DP_C) == len(_DP_B4) == 7
        for s, row in enumerate(_DP_A):
            assert len(row) == 6 and all(type(a) is float for a in row)
            assert abs(sum(row) - _DP_C[s]) <= 1e-15
        b5 = (F(35, 384), 0, F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84))
        assert _DP_A[6] == tuple(float(b) for b in b5)
        assert abs(sum(_DP_B4) - 1.0) <= 1e-15

    def test_zero_length_path_gives_identity(self):
        conn = build_local_system(2, [F(1), F(2)], F(3))
        res = transport_ode(conn, ChamberPath(((0.0, 1.0),), margin=0.1))
        assert np.allclose(res.matrix, np.eye(2))

    def test_repeated_waypoint_changes_nothing(self):
        # a zero-length segment takes no step: the transport is bit for bit
        # that of the path without it
        conn = build_local_system(3, P3, F(1))
        points = list(LOOP3)
        plain = transport_ode(conn, ChamberPath(tuple(points), margin=0.1), tol=1e-10)
        for i in range(len(points)):
            repeated = ChamberPath(tuple(points[:i + 1] + points[i:]), margin=0.1)
            res = transport_ode(conn, repeated, tol=1e-10)
            assert res.matrix.tobytes() == plain.matrix.tobytes()

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

    def test_finite_too_stiff_right_hand_side_is_a_step_error(self):
        # y' = -1e20 y is unstable for every step above the floor, yet each
        # error estimate stays finite: the step size underflows
        y0 = np.ones((2, 2), dtype=complex)
        stack = np.broadcast_to(-1e20 * np.eye(2, dtype=complex), (7, 2, 2))
        with pytest.raises(TransportStepError, match="underflow"):
            _integrate_dp45(lambda ts: stack, y0, 1e-10, lambda t: 1.0)

    def test_step_cap_is_the_wall_distance_in_closed_form(self):
        # the reference is the numpy form: distance to the nearest wall
        # x_i = x_{i+1}, over twice the speed, floored at ten minimum steps
        def wall_margin(x):
            return float(np.min(np.diff(x))) / math.sqrt(2.0)

        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            for _ in range(40):
                a = np.cumsum(rng.uniform(0.05, 2.0, size=n)) + rng.normal()
                v = np.cumsum(rng.uniform(0.05, 2.0, size=n)) + rng.normal() - a
                speed = float(np.linalg.norm(v))
                cap = _step_cap(a, v, speed)
                for t in (0.0, 1.0, *rng.uniform(0.0, 1.0, size=4)):
                    ref = max(wall_margin(a + t * v) / (2 * speed), transport._MIN_STEP * 10)
                    assert cap(t) == ref and cap(float(t)) == ref

    def test_tolerance_below_the_floor_is_refused(self, benchmark_path):
        conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
        with pytest.raises(ValueError, match="MIN_TOL"):
            transport_ode(conn, benchmark_path, tol=math.nextafter(MIN_TOL, 0.0))

    def test_overflowing_frame_blames_the_coupling(self, recwarn):
        # the CLI tests cover couplings 1e6 and 1e10, which take seconds
        conn = build_local_system(3, (F(1), F(0), F(-1)), F(10) ** 300)
        loop = ChamberPath(LOOP3, margin=0.1)
        with pytest.raises(ValueError, match="too large") as info:
            transport_ode(conn, loop)
        assert not isinstance(info.value, PathValidationError)
        assert "segment" in str(info.value) and "chamber" not in str(info.value)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_off_diagonal_scales_with_coupling(self):
        # off-diagonal entries scale with c, the momentum diagonal stays put
        base = build_local_system(2, (F(1), F(2)), F(1))
        scaled = build_local_system(2, (F(1), F(2)), F(3))
        x = np.array([0.0, 1.0])
        m0, m1 = base.velocity_matrix(x, np.eye(2)[0]), scaled.velocity_matrix(x, np.eye(2)[0])
        assert m0[0, 1] != 0
        assert np.isclose(m1[0, 1], 3 * m0[0, 1])
        assert np.isclose(m1[1, 0], 3 * m0[1, 0])
        assert m1[0, 0] == m0[0, 0] and m1[1, 1] == m0[1, 1]


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

    def test_path_of_another_n_rejected(self, benchmark_path):
        conn = build_local_system(2, (F(1), F(2)), F(1))
        with pytest.raises(PathValidationError, match="path dimension does not match"):
            transport_dyson(conn, benchmark_path)

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

    def test_order_above_bound_refused_before_any_work(self, benchmark_path, monkeypatch):
        # each order costs one product per grid node: the bound is checked
        # before the grid is laid out, at any step count
        def refuse(*args):
            raise AssertionError("the grid was laid out")

        conn = build_local_system(3, BENCHMARK_P, BENCHMARK_C)
        monkeypatch.setattr(transport, "_segment_grids", refuse)
        for order in (DYSON_MAX_ORDER + 1, 10**8, 10**400):
            with pytest.raises(ValueError, match=f"above DYSON_MAX_ORDER = {DYSON_MAX_ORDER}"):
                transport_dyson(conn, benchmark_path, order=order, steps=10**12)
        with pytest.raises(AssertionError, match="laid out"):
            transport_dyson(conn, benchmark_path, order=DYSON_MAX_ORDER, steps=4)


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
        entries = _exact_entries(conn)
        path = ChamberPath(waypoints, margin=0.1)
        for i, (a, b) in enumerate(path.segments()):
            v = b - a

            def rhs(t, y, a=a, v=v):
                return (_entry_loop_velocity(conn, entries, a + t * v, v)
                        @ y.reshape(d, d)).ravel()

            sol = integrate.solve_ivp(rhs, (0.0, 1.0), w.ravel(), method="DOP853",
                                      rtol=1e-12, atol=1e-12)
            assert sol.success
            w = sol.y[:, -1].reshape(d, d)
            prefix = ChamberPath(waypoints[:i + 2], margin=0.1)
            ours = transport_ode(conn, prefix, tol=1e-10).matrix
            assert np.max(np.abs(ours - w)) <= 1e-8


class TestDunklKernelOracle:
    """Transport at N=2 against a closed-form solution: the Dunkl kernel.

    The package's operator is ``nabla_k = d_k + c sum_{i != k} P_ik/(x_k - x_i)``.
    With ``T_k(kappa) = d_k + kappa sum_{i != k} (1 - P_ik)/(x_k - x_i)``, the
    rational Dunkl operator, ``nabla_k(c) = T_k(-c) + c sum_{i != k} 1/(x_k - x_i)``,
    and since ``d_k |x_0 - x_1|^-c = -c |x_0 - x_1|^-c / (x_k - x_i)`` while the
    swap leaves ``|x_0 - x_1|`` alone,
    ``nabla_k(c) (|x_0 - x_1|^-c g) = |x_0 - x_1|^-c T_k(-c) g``.  So
    ``psi = |x_0 - x_1|^-c E_kappa(x, i p)``, kappa = -c, solves
    ``nabla_k psi = i p_k psi`` when ``T_k E = y_k E`` (the Dunkl kernel).

    Kernel at N=2: put ``E = exp((x_0 + x_1)(y_0 + y_1)/2) F(u)`` with
    ``u = x_0 - x_1`` and ``lambda = (y_0 - y_1)/2``.  On functions of u,
    ``T_0`` is the rank-one operator ``d/du + kappa (1 - s)/u`` (s: u -> -u),
    and ``T_0 E = y_0 E`` becomes ``F' + kappa (F(u) - F(-u))/u = lambda F``;
    ``T_1 E = y_1 E`` is the same equation, since d_1 = -d/du and
    ``x_1 - x_0 = -u``.  Split ``F = A + B``, A even and B odd:
    ``A' = lambda B`` and ``B' + 2 kappa B/u = lambda A``, so
    ``A'' + (2 kappa/u) A' = lambda^2 A``.  With ``A = sum a_m u^2m`` and
    A(0) = 1 this gives ``a_m = a_{m-1} (lambda^2/4) / (m (m + kappa - 1/2))``:
    ``A = 0F1(; kappa + 1/2; lambda^2 u^2/4)``, and ``B = A'/lambda =
    lambda u/(2 kappa + 1) 0F1(; kappa + 3/2; lambda^2 u^2/4)``.  In Bessel
    form ``F = j_{kappa-1/2}(i lambda u) + lambda u/(2 kappa + 1)
    j_{kappa+1/2}(i lambda u)`` with ``j_a(z) = 0F1(; a + 1; -z^2/4)``.

    The recursion divides by ``m + kappa - 1/2``, which vanishes at m = 1
    for kappa = -1/2: c = 1/2 is a singular coupling of this kernel
    (``2 kappa + 1 = 0``), so it is left out, although the transport itself
    is regular there.

    The local system transports ``Psi_sigma(x) = psi(x_sigma)`` in
    ``conn.perms`` order, so ``Psi(b) = W Psi(a)`` for the frame W along any
    chamber path.  Each accepted step keeps the local error of W below
    ``tol (1 + max|W|)`` entrywise; the bound sums that over the steps and
    the d rows of ``W Psi(a)``.  Swapping the momenta or building the
    connection from -c must fail by orders of magnitude more.
    """

    WAYPOINTS = ((-0.6, 0.2), (-0.4, 1.0), (-0.1, 1.9))
    TOL = 1e-12

    @staticmethod
    def _psi(x, p, c):
        hyp0f1 = pytest.importorskip("scipy.special").hyp0f1
        kappa = -float(c)
        u = x[0] - x[1]
        lam = 1j * float(p[0] - p[1]) / 2       # y = i p
        z = ((lam * u) ** 2 / 4).real
        rel = hyp0f1(kappa + 0.5, z) + lam * u / (2 * kappa + 1) * hyp0f1(kappa + 1.5, z)
        return abs(u) ** -float(c) * cmath.exp(1j * (x[0] + x[1]) * float(p[0] + p[1]) / 2) * rel

    def _residual(self, conn, p, c):
        """``max |Psi(b) - W Psi(a)|`` for the kernel vector of (p, c) and
        the frame of ``conn``, and the bound for a correct connection."""
        path = ChamberPath(self.WAYPOINTS, margin=0.05)
        a, b = self.WAYPOINTS[0], self.WAYPOINTS[-1]
        psi_a, psi_b = (np.array([self._psi([x[s(0)], x[s(1)]], p, c) for s in conn.perms])
                        for x in (a, b))
        result = transport_ode(conn, path, tol=self.TOL)
        w = result.matrix
        bound = (result.step_stats["steps"] * self.TOL * (1 + np.abs(w).max())
                 * conn.dim * np.abs(psi_a).max())
        return np.abs(psi_b - w @ psi_a).max(), bound

    @pytest.mark.parametrize("c", [F(2, 7), F(1, 3), F(-1, 5), F(1)])
    @pytest.mark.parametrize("p", [(F(1, 2), F(-1, 3)), (F(3, 2), F(1, 4))])
    def test_transport_carries_the_kernel_vector(self, p, c):
        residual, bound = self._residual(build_local_system(2, p, c), p, c)
        assert residual <= bound
        # measured 2e-13 to 2.2e-12 against bounds of 1.6e-10 to 1.1e-9
        assert bound < 1e-8

    @pytest.mark.parametrize("c", [F(2, 7), F(1, 3), F(-1, 5), F(1)])
    @pytest.mark.parametrize("p", [(F(1, 2), F(-1, 3)), (F(3, 2), F(1, 4))])
    def test_swapped_momenta_or_opposite_coupling_fail(self, p, c):
        for conn in (build_local_system(2, p[::-1], c), build_local_system(2, p, -c)):
            residual, bound = self._residual(conn, p, c)
            # measured 0.31 or more
            assert residual > 0.1 > 1e6 * bound


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

    @pytest.mark.parametrize("point, match", [
        ((0.0, float("nan")), "not finite"),
        ((float("-inf"), 0.0), "not finite"),
        ((0.0, 1.0, 2.0), "3 coordinates for N=2"),
    ])
    def test_bad_base_point_rejected(self, point, match):
        # a NaN passed the ordering test and gave an all-NaN frame; a point of
        # the wrong length failed inside numpy's matmul
        conn = build_local_system(2, (F(1), F(2)), F(1))
        with pytest.raises(ValueError, match=match):
            plane_wave_map(conn, point, 4.0)

    def test_lam_max_below_one_rejected(self):
        conn = build_local_system(2, (F(1), F(2)), F(1))
        with pytest.raises(ValueError, match="lam_max must be >= 1"):
            plane_wave_map(conn, (0.0, 1.0), 0.5)

    @pytest.mark.parametrize("lam_max", [float("nan"), float("inf")])
    def test_non_finite_lam_max_rejected(self, lam_max):
        # nan passed the lam_max < 1 test and returned one frame; inf doubled
        # lambda until the float overflowed
        conn = build_local_system(2, (F(1), F(2)), F(1))
        with pytest.raises(ValueError, match="not finite"):
            plane_wave_map(conn, (0.0, 1.0), lam_max)


def _right_action(perms, sigma):
    """rho(r), the index of perms[r] * sigma, with the product composed by
    hand: (s * sigma)(i) = s(sigma(i))."""
    images = [s.images for s in perms]
    return [images.index(tuple(s[sigma(i)] for i in range(len(s)))) for s in images]


def _oracle_deviation(conn_p, conn_sp, sigma, rng, points=3):
    """Largest |Omega_k(sigma . p) - P Omega_k(p) P^T| over random float
    chamber points and every k, with P[r, rho(r)] = 1: the conjugation done
    numerically on velocity_matrix, sharing no code with the exact check."""
    n, d = conn_p.n, conn_p.dim
    perm = np.zeros((d, d))
    for r, pr in enumerate(_right_action(conn_p.perms, sigma)):
        perm[r, pr] = 1.0
    worst = 0.0
    for _ in range(points):
        x = np.cumsum([rng.uniform(-3, 3)] + [rng.uniform(0.25, 2) for _ in range(n - 1)])
        for k in range(n):
            e_k = np.eye(n)[k]
            lhs = conn_sp.velocity_matrix(x, e_k)
            rhs = perm @ conn_p.velocity_matrix(x, e_k) @ perm.T
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


class TestEquivariance:
    @staticmethod
    def _sigmas(n, rng):
        elements = Permutation.all_elements(n)
        return elements if n == 3 else rng.sample(elements, 8)

    @pytest.mark.parametrize("n", [3, 4])
    def test_right_action_holds_and_matches_the_numeric_oracle(self, n):
        # every sigma of S_3 and a sample of S_4: the derived action is exact,
        # and the oracle sees zero deviation exactly when the check passes,
        # also for the system built from sigma^-1 . p (the other convention)
        rng = random.Random(40 + n)
        p = P3 + (F(7, 3),) if n == 4 else P3
        conn = build_local_system(n, p, F(2, 3))
        for sigma in self._sigmas(n, rng):
            for tau in (sigma, sigma.inverse()):
                permuted = build_local_system(n, permute_momenta(p, tau), F(2, 3))
                report = equivariance_check(conn, permuted, sigma)
                assert report["identity"] == "equivariance"
                assert (report["N"], report["caseCount"]) == (n, n)
                exact = report["failures"] == []
                assert exact == (tau == sigma)
                assert exact == (_oracle_deviation(conn, permuted, sigma, rng) <= 1e-12)

    def test_two_particle_swap(self):
        sigma = Permutation.transposition(2, 0, 1)
        p = (F(1, 2), F(5, 3))
        conn = build_local_system(2, p, F(2))
        permuted = build_local_system(2, permute_momenta(p, sigma), F(2))
        assert equivariance_check(conn, permuted, sigma) == {
            "identity": "equivariance", "N": 2, "caseCount": 2, "failures": []}

    def test_convention_change_fails_on_the_diagonal_only(self):
        # momenta permuted by sigma^-1 for a 3-cycle: diagonal row s of
        # Omega_k(q) is q_{s^-1(k)}, so the check expects p_{sigma^-1 s^-1 (k)}
        # and finds p_{sigma s^-1 (k)}; these differ in every row
        sigma = Permutation((1, 2, 0))
        conn = build_local_system(3, P3, F(1))
        wrong = build_local_system(3, permute_momenta(P3, sigma.inverse()), F(1))
        inv = sigma.inverse()
        expected = []
        for k in range(3):
            for r, s in enumerate(conn.perms):
                m = s.inverse()(k)
                expected.append({"k": k, "entry": f"{r},{r}", "pair": None,
                                 "expected": str(P3[inv(m)]), "found": str(P3[sigma(m)])})
        assert equivariance_check(conn, wrong, sigma)["failures"] == expected

    def test_negated_coupling_fails_every_off_diagonal_entry(self):
        sigma = Permutation((1, 2, 0))
        conn = build_local_system(3, P3, F(1))
        permuted = build_local_system(3, permute_momenta(P3, sigma), F(1))
        wrong = build_local_system(3, permute_momenta(P3, sigma), F(-1))
        failures = equivariance_check(conn, wrong, sigma)["failures"]
        assert {f["k"] for f in failures} == {0, 1, 2}
        assert all(f["pair"] is not None and f["found"] == str(-F(f["expected"]))
                   for f in failures)
        named = sorted((f["k"], f["entry"], tuple(f["pair"])) for f in failures)
        assert named == sorted((k, f"{row},{col}", (a, b))
                               for k, entries in enumerate(_exact_entries(permuted))
                               for row, col, _, a, b in entries)

    @pytest.mark.parametrize("side, value", [
        ("p", F(7, 5)), ("sp", F(7, 5)), ("p", F(0)), ("sp", F(0)),
    ], ids=["p", "sp", "p-zero", "sp-zero"])
    def test_one_tampered_entry_fails_exactly_there(self, side, value):
        # the coupling of the pair (0, 1) moved to 7/5 or to 0, on either
        # side: the failures are exactly that pair's entries, -q in Omega_0
        # and q in Omega_1 at row s, column (0 1) * s, relabelled by rho^-1
        # on the p side.  A zero coupling has no entries, so its side reads
        # "0" at each of them
        sigma = Permutation((1, 2, 0))
        conn = build_local_system(3, P3, F(1))
        permuted = build_local_system(3, permute_momenta(P3, sigma), F(1))
        target = conn if side == "p" else permuted
        bad = ConnectionMatrix(target.p, (value,) + target.q[1:])
        swap = Permutation.transposition(3, 0, 1)
        images = [s.images for s in conn.perms]
        cells = [(r, images.index((swap * s).images)) for r, s in enumerate(conn.perms)]
        if side == "p":
            rho = _right_action(conn.perms, sigma)
            cells = [(rho.index(r), rho.index(c)) for r, c in cells]
            report = equivariance_check(bad, permuted, sigma)
        else:
            report = equivariance_check(conn, bad, sigma)
        expected = []
        for k, sign in ((0, -1), (1, 1)):
            built, tampered = str(sign * F(1)), str(sign * value)
            for row, col in sorted(cells):
                expected.append({"k": k, "entry": f"{row},{col}", "pair": [0, 1],
                                 "expected": tampered if side == "p" else built,
                                 "found": built if side == "p" else tampered})
        assert len(expected) == 12
        assert report["failures"] == expected

    def test_mismatched_momenta_fail_on_the_diagonal(self):
        sigma = Permutation.transposition(3, 0, 1)
        conn = build_local_system(3, (F(1), F(2), F(3)), F(1))
        wrong = build_local_system(3, (F(5), F(7), F(9)), F(1))
        failures = equivariance_check(conn, wrong, sigma)["failures"]
        assert len(failures) == 3 * 6
        assert all(f["pair"] is None for f in failures)

    def test_sizes_must_agree(self):
        conn = build_local_system(3, P3, F(1))
        with pytest.raises(ValueError, match="different sizes"):
            equivariance_check(conn, build_local_system(2, P3[:2], F(1)),
                               Permutation.identity(3))
        with pytest.raises(ValueError, match="slots"):
            equivariance_check(conn, conn, Permutation.identity(2))
