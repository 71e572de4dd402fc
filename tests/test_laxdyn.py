import csv
import math
import random

import numpy as np
import pytest

from calogero.laxdyn import (
    CollisionError,
    PhasePoint,
    build_lax,
    hamiltonian,
    integrate,
    noether_matrix,
    trace_integrals,
    trace_p3_explicit,
)

BENCH2 = PhasePoint((0.0, 1.0), (1.0, -1.0))
BENCH3 = PhasePoint((0.0, 1.0, 3.0), (1.0, 0.0, -1.0))


def random_state(rng, n):
    x = np.cumsum([rng.uniform(-1.0, 1.0)] + [rng.uniform(0.2, 2.0) for _ in range(n - 1)])
    p = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    return PhasePoint(tuple(x), tuple(p))


class TestBuildLax:
    def test_two_particle_benchmark(self):
        lax = build_lax(BENCH2)
        assert np.allclose(lax, np.array([[1.0, -1j], [1j, -1.0]]))

    def test_trace_powers_of_benchmark(self):
        values = trace_integrals(BENCH2, 3)
        assert np.allclose(values, [0.0, 4.0, 0.0])

    def test_hermitian_at_random_states(self):
        rng = random.Random(1)
        for _ in range(20):
            state = random_state(rng, rng.choice((2, 3, 4)))
            lax = build_lax(state)
            assert np.allclose(lax, lax.conj().T)

    def test_coincident_coordinates_rejected(self):
        with pytest.raises(ValueError):
            PhasePoint((0.0, 0.0), (1.0, -1.0))


class TestTraceIntegrals:
    def test_first_integral_is_total_momentum(self):
        rng = random.Random(2)
        for _ in range(10):
            state = random_state(rng, 3)
            assert abs(trace_integrals(state, 1)[0] - sum(state.p)) < 1e-12

    def test_second_integral_expansion(self):
        rng = random.Random(3)
        for _ in range(10):
            state = random_state(rng, 4)
            x = np.array(state.x)
            expected = sum(v * v for v in state.p)
            for i in range(4):
                for j in range(i + 1, 4):
                    expected += 2.0 / (x[i] - x[j]) ** 2
            assert abs(trace_integrals(state, 2)[1] - expected) < 1e-10

    def test_explicit_p3_formula_matches_matrix_trace(self):
        rng = random.Random(4)
        for _ in range(100):
            state = random_state(rng, rng.choice((2, 3, 4)))
            assert abs(trace_p3_explicit(state) - trace_integrals(state, 3)[2]) < 1e-12

    def test_zero_momenta_cubic_trace_vanishes(self):
        # only the cyclic triple sum could contribute, and it cancels
        state = PhasePoint((0.0, 1.0, 3.0), (0.0, 0.0, 0.0))
        assert abs(trace_integrals(state, 3)[2]) < 1e-12
        assert abs(trace_p3_explicit(state)) < 1e-12

    def test_dilation_scaling_of_potential_parts(self):
        state = BENCH3
        doubled = PhasePoint(tuple(2 * v for v in state.x), state.p)
        i2 = trace_integrals(state, 3)
        i2d = trace_integrals(doubled, 3)
        kinetic2 = sum(v * v for v in state.p)
        kinetic3 = sum(v ** 3 for v in state.p)
        assert abs((i2d[1] - kinetic2) - (i2[1] - kinetic2) / 4) < 1e-12
        assert abs((i2d[2] - kinetic3) - (i2[2] - kinetic3) / 4) < 1e-12


class TestNoether:
    def test_multiplicities_match_eigensolver_up_to_eight(self):
        for n in range(2, 9):
            ev = np.sort(np.linalg.eigvalsh(noether_matrix(n)))
            expected = np.sort([1 - n] + [1] * (n - 1))
            assert np.allclose(ev, expected)

    def test_uniform_vector_is_extreme_eigenvector(self):
        for n in (2, 5, 8):
            w = np.ones(n)
            assert np.allclose(noether_matrix(n) @ w, (1 - n) * w)

    def test_zero_diagonal(self):
        assert np.allclose(np.diag(noether_matrix(6)), 0.0)


class TestIntegrate:
    def test_free_flight(self):
        state = PhasePoint((0.0, 1.0), (0.5, 1.0), g2=0.0, omega=0.0)
        traj = integrate(state, 1.0, 1e-3, jmax=1, sample_stride=100)
        assert np.allclose(traj.xs[-1], [0.5, 2.0], atol=1e-9)

    def test_energy_conserved_with_trap(self):
        state = PhasePoint((-1.0, 1.0), (0.3, -0.3), g2=1.0, omega=2.0)
        traj = integrate(state, 2.0, 1e-3, jmax=2, sample_stride=100)
        assert traj.max_drift["H"] < 1e-10

    def test_trace_invariants_conserved_short_run(self):
        traj = integrate(BENCH3, 1.0, 1e-4, jmax=4, sample_stride=500)
        assert max(traj.max_drift.values()) < 1e-10

    def test_lax_hermitian_along_trajectory(self):
        traj = integrate(BENCH3, 0.5, 1e-3, jmax=1, sample_stride=50)
        for x, p in zip(traj.xs, traj.ps):
            lax = build_lax(PhasePoint(tuple(x), tuple(p)))
            assert np.allclose(lax, lax.conj().T)

    def test_collision_aborts_with_time(self):
        state = PhasePoint((-1.0, 1.0), (2.0, -2.0), g2=0.0, omega=0.0)
        with pytest.raises(CollisionError) as err:
            integrate(state, 2.0, 1e-3, jmax=1)
        assert 0.0 < err.value.time <= 2.0

    def test_csv_output_columns(self, tmp_path):
        traj = integrate(BENCH3, 0.01, 1e-3, jmax=4, sample_stride=2)
        file = tmp_path / "traj.csv"
        traj.write_csv(str(file))
        with open(file, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x0", "x1", "x2", "p0", "p1", "p2",
                           "H", "I1", "I2", "I3", "I4"]
        assert len(rows) == len(traj.times) + 1

    def test_summary_shape(self):
        traj = integrate(BENCH3, 0.01, 1e-3, jmax=2)
        summary = traj.summary()
        assert set(summary) == {"maxDrift", "samples", "tFinal"}
        assert set(summary["maxDrift"]) == {"H", "I1", "I2"}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            integrate(BENCH3, 0.0, 1e-3)
        with pytest.raises(ValueError):
            integrate(BENCH3, 1.0, -1e-3)
        for duration, dt in ((math.nan, 1e-3), (math.inf, 1e-3),
                             (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                integrate(BENCH3, duration, dt)
        with pytest.raises(ValueError, match="step count"):
            integrate(BENCH3, 1e300, 1e-10)
        with pytest.raises(ValueError):
            integrate(BENCH3, 1.0, 1e-3, jmax=0)
        with pytest.raises(ValueError):
            integrate(BENCH3, 1.0, 1e-3, sample_stride=0)


def _hamilton_rhs(g2, omega):
    """(dH/dp, -dH/dx) for H = p^2/2 + omega^2 x^2/2 + sum_{i<j} g2/(x_i-x_j)^2."""
    def rhs(_t, y):
        n = len(y) // 2
        x, p = y[:n], y[n:]
        force = -omega ** 2 * x
        for i in range(n):
            for j in range(i + 1, n):
                push = 2.0 * g2 / (x[i] - x[j]) ** 3
                force[i] += push
                force[j] -= push
        return np.concatenate([p, force])
    return rhs


@pytest.mark.parametrize("state", [
    PhasePoint((0.0, 1.0, 3.0), (1.0, 0.0, -1.0), g2=1.0, omega=0.0),
    PhasePoint((-1.5, 0.0, 1.0, 2.5), (1.0, 0.5, -0.5, -1.0), g2=2.0, omega=0.5),
])
def test_trajectory_matches_scipy_oracle(state):
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    y0 = np.concatenate([state.x, state.p])
    ref = solve_ivp(_hamilton_rhs(state.g2, state.omega), (0.0, 1.0), y0,
                    method="DOP853", rtol=1e-12, atol=1e-12)
    assert ref.success
    traj = integrate(state, 1.0, 1e-3, jmax=1, sample_stride=1000)
    assert traj.times[-1] == pytest.approx(1.0)
    n = state.n
    assert np.max(np.abs(traj.xs[-1] - ref.y[:n, -1])) <= 1e-9
    assert np.max(np.abs(traj.ps[-1] - ref.y[n:, -1])) <= 1e-9


def test_energy_value_spot_check():
    # H = (1 + 1)/2 + 1/(0-1)^2 = 2
    assert abs(hamiltonian(BENCH2) - 2.0) < 1e-14
