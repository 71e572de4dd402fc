import csv
import math
import random
import sys

import numpy as np
import pytest

from calogero import laxdyn
from calogero.laxdyn import (
    MAX_PARTICLES,
    MAX_STEPS,
    CollisionError,
    PhasePoint,
    build_lax,
    exact_positions,
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

    @pytest.mark.parametrize("g2", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_off_diagonal_carries_the_coupling(self, g2):
        # Moser's Lax matrix: L[j, k] = i sqrt(g2)/(x_j - x_k) off the diagonal
        state = PhasePoint((0.0, 1.0, 3.0), (1.0, 0.0, -1.0), g2=g2)
        lax = build_lax(state)
        for j in range(3):
            assert lax[j, j] == state.p[j]
            for k in range(3):
                if j != k:
                    expected = 1j * math.sqrt(g2) / (state.x[j] - state.x[k])
                    assert lax[j, k] == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_hermitian_at_random_states(self):
        rng = random.Random(1)
        for _ in range(20):
            state = random_state(rng, rng.choice((2, 3, 4)))
            lax = build_lax(state)
            assert np.allclose(lax, lax.conj().T)

    def test_one_particle_rejected(self):
        with pytest.raises(ValueError, match="need at least two particles"):
            PhasePoint((0.0,), (1.0,))

    def test_coincident_coordinates_rejected(self):
        with pytest.raises(ValueError):
            PhasePoint((0.0, 0.0), (1.0, -1.0))

    def test_omega_with_infinite_square_rejected(self):
        # the largest omega whose square is finite is still a valid state
        top = math.sqrt(sys.float_info.max)
        assert math.isfinite(PhasePoint((0.0, 1.0), (0.0, 0.0), omega=top).omega ** 2)
        assert PhasePoint((0.0, 1.0), (0.0, 0.0), omega=1e150).omega == 1e150
        for omega in (math.nextafter(top, math.inf), 1e200):
            with pytest.raises(ValueError, match="omega"):
                PhasePoint((0.0, 1.0), (0.0, 0.0), omega=omega)

    def test_infinite_harmonic_force_rejected(self):
        # omega**2 = 1e200 is finite, but omega**2 * x is not at x = 1e200:
        # the first force would be inf, which the stepper reports as a
        # collision
        state = PhasePoint((0.0, 1.0, 1e100), (0.0, 0.0, 0.0), g2=0.0, omega=1e100)
        assert math.isfinite(state.omega ** 2 * state.x[-1])
        for x in ((0.0, 1.0, 1e200), (-1e200, 0.0, 1.0)):
            with pytest.raises(ValueError, match=r"harmonic force .* must be finite"):
                PhasePoint(x, (0.0, 0.0, 0.0), g2=0.0, omega=1e100)


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

    def test_no_trace_power_is_refused(self):
        with pytest.raises(ValueError, match="jmax must be >= 1"):
            trace_integrals(BENCH3, 0)

    def test_dilation_scaling_of_potential_parts(self):
        state = BENCH3
        doubled = PhasePoint(tuple(2 * v for v in state.x), state.p)
        i2 = trace_integrals(state, 3)
        i2d = trace_integrals(doubled, 3)
        kinetic2 = sum(v * v for v in state.p)
        kinetic3 = sum(v ** 3 for v in state.p)
        assert abs((i2d[1] - kinetic2) - (i2[1] - kinetic2) / 4) < 1e-12
        assert abs((i2d[2] - kinetic3) - (i2[2] - kinetic3) / 4) < 1e-12


def _random_hermitian(rng, shape, n):
    a = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    return (a + a.conj().swapaxes(-2, -1)) / 2


def _check_trace_powers(trace_powers, m, jmax):
    """``trace_powers(m, jmax)`` against the traces of ``matrix_power``, each
    relative to n |m|^j, the bound on |tr m^j| from the spectral norm |m|."""
    got = trace_powers(m, jmax)
    assert got.shape == m.shape[:-2] + (jmax,)
    norm = np.linalg.norm(m, 2, axis=(-2, -1))
    for j in range(1, jmax + 1):
        ref = np.trace(np.linalg.matrix_power(m, j), axis1=-2, axis2=-1).real
        scale = m.shape[-1] * norm ** j
        assert np.all(np.abs(got[..., j - 1] - ref) <= 1e-12 * scale), j


def _trace_powers_keeping_m_low(m, jmax):
    """The products of ``_trace_powers`` with ``low`` left at m, so tr m^4
    reads tr(m m^2)."""
    out = np.empty(m.shape[:-2] + (jmax,))
    out[..., 0] = np.einsum("...ii->...", m).real
    high = m
    for j in range(2, jmax + 1):
        if j % 2:
            high = high @ m
        out[..., j - 1] = np.einsum("...ij,...ji->...", m, high).real
    return out


class _CountedProducts(np.ndarray):
    products = 0

    def __matmul__(self, other):
        _CountedProducts.products += 1
        return super().__matmul__(other)


class TestTracePowers:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_matrix_power_on_hermitian_stacks(self, n):
        rng = np.random.default_rng(n)
        m = _random_hermitian(rng, (5,), n)
        for jmax in range(1, 10):
            _check_trace_powers(laxdyn._trace_powers, m, jmax)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_matrix_power_on_harmonic_invariant_matrix(self, n):
        # L+ L- at omega > 0, over a stack of states
        rng = np.random.default_rng(10 + n)
        x = np.sort(rng.uniform(-3.0, 3.0, size=(6, n)), axis=-1)
        p = rng.uniform(-1.0, 1.0, size=(6, n))
        m = laxdyn._invariant_matrix(x, p, laxdyn._inverse_differences(x), 1.2, 0.5)
        _check_trace_powers(laxdyn._trace_powers, m, 9)

    def test_low_power_left_at_m_fails(self):
        m = _random_hermitian(np.random.default_rng(0), (5,), 4)
        _check_trace_powers(_trace_powers_keeping_m_low, m, 3)
        with pytest.raises(AssertionError):
            _check_trace_powers(_trace_powers_keeping_m_low, m, 4)

    @pytest.mark.parametrize("jmax", range(1, 10))
    def test_half_the_products_and_no_trace(self, monkeypatch, jmax):
        def refuse(*args, **kwargs):
            raise AssertionError("np.trace was called")

        m = _random_hermitian(np.random.default_rng(jmax), (3,), 3).view(_CountedProducts)
        monkeypatch.setattr(_CountedProducts, "products", 0)
        monkeypatch.setattr(np, "trace", refuse)
        laxdyn._trace_powers(m, jmax)
        assert _CountedProducts.products == math.ceil(jmax / 2) - 1


class TestExactFlow:
    """RK4 against the exact flow of the projection method: the positions at
    time t are the eigenvalues of Q0 + t L0 (omega = 0) or of
    Q0 cos(omega t) + L0 sin(omega t) / omega."""

    @staticmethod
    def _state(n, omega):
        rng = random.Random(20 + n)
        x = np.cumsum([rng.uniform(-1.0, 1.0)] + [rng.uniform(0.5, 1.5) for _ in range(n - 1)])
        p = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        return PhasePoint(tuple(x), tuple(p), g2=1.5, omega=omega)

    @staticmethod
    def _deviation(traj, state):
        return max(np.max(np.abs(x - exact_positions(state, t)))
                   for t, x in zip(traj.times, traj.xs))

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rk4_agrees_to_fourth_order(self, n, omega):
        # the global error of RK4 is C dt^4; here C reads at most 19
        state = self._state(n, omega)
        assert np.array_equal(exact_positions(state, 0.0), state.x)
        for dt in (1e-3, 2e-3):
            traj = integrate(state, 1.0, dt, jmax=1, sample_stride=100)
            assert self._deviation(traj, state) <= 100 * dt ** 4

    @pytest.mark.parametrize("omega", [0.0, 0.5])
    def test_wrong_coupling_in_the_oracle_fails(self, omega):
        state = self._state(4, omega)
        traj = integrate(state, 1.0, 1e-3, jmax=1, sample_stride=100)
        wrong = PhasePoint(state.x, state.p, g2=1.1 * state.g2, omega=omega)
        assert self._deviation(traj, wrong) > 1e-2


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

    def test_one_particle_rejected(self):
        with pytest.raises(ValueError, match="need n >= 2"):
            noether_matrix(1)


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
        assert set(traj.max_drift) == {"H", "I1", "I2"}

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
        with pytest.raises(ValueError, match="zero steps"):
            integrate(BENCH3, 1e-9, 1e-4)
        with pytest.raises(ValueError):
            integrate(BENCH3, 1.0, 1e-3, jmax=0)
        with pytest.raises(ValueError):
            integrate(BENCH3, 1.0, 1e-3, sample_stride=0)

    @pytest.mark.parametrize("stride", [11, 10**21])
    def test_stride_past_the_steps_keeps_first_and_last(self, stride):
        # 10**21 is past int64, where ``step % sample_stride`` overflowed
        traj = integrate(BENCH3, 0.01, 1e-3, jmax=2, sample_stride=stride)
        ref = integrate(BENCH3, 0.01, 1e-3, jmax=2, sample_stride=10)
        assert np.array_equal(traj.times, [0.0, 0.01])
        for got, want in zip(traj, ref):
            if isinstance(got, dict):
                assert got == want
            else:
                assert got.tobytes() == want.tobytes()


HARMONIC = [
    PhasePoint((0.0, 1.0, 3.0), (1.0, 0.0, -1.0), g2=2.0, omega=0.5),
    PhasePoint((-1.5, 0.0, 1.0, 2.5), (1.0, 0.5, -0.5, -1.0), g2=2.0, omega=0.5),
]


class TestHarmonicInvariants:
    """At omega > 0 the trace powers of P are not conserved; those of L+ L-,
    L+- = P +- i omega diag(x), are, and they are what ``integrate`` reports."""

    @pytest.mark.parametrize("state", HARMONIC, ids=["n3", "n4"])
    def test_conserved(self, state):
        traj = integrate(state, 3.0, 1e-3, jmax=4, sample_stride=1000)
        assert list(traj.max_drift) == ["H", "J1", "J2", "J3", "J4"]
        assert max(traj.max_drift.values()) <= 1e-10
        # tr L+ L- = tr P^2 + omega^2 sum x^2 = 2 H
        assert np.allclose(traj.invariants[:, 0], 2 * traj.energies, rtol=1e-12)

    @pytest.mark.parametrize("state", HARMONIC, ids=["n3", "n4"])
    def test_wrong_frequency_in_the_invariant_fails(self, monkeypatch, state):
        make = laxdyn._invariant_matrix
        monkeypatch.setattr(laxdyn, "_invariant_matrix",
                            lambda x, p, inv, g, omega: make(x, p, inv, g, 1.1 * omega))
        drift = integrate(state, 3.0, 1e-3, jmax=3, sample_stride=1000).max_drift
        assert drift["H"] <= 1e-10
        assert min(drift[f"J{k}"] for k in (1, 2, 3)) > 1e-2

    def test_csv_names_the_invariants(self, tmp_path):
        traj = integrate(HARMONIC[0], 0.01, 1e-3, jmax=2, sample_stride=5)
        file = tmp_path / "traj.csv"
        traj.write_csv(str(file))
        with open(file, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "x0", "x1", "x2", "p0", "p1", "p2", "H", "J1", "J2"]

    def test_start_state_refusal_names_the_invariant(self):
        state = PhasePoint((0.0, 1e90, 3e90), (1e90, 0.0, -1e90), omega=0.5)
        # H and tr L+ L- = 2 H are finite; the square overflows
        with pytest.raises(ValueError, match=r"^tr \(L\+ L-\)\^2 of the initial state is "):
            integrate(state, 1e-2, 1e-3)


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
    PhasePoint((-4.0, -2.5, -1.5, -0.5, 0.5, 1.5, 3.0, 4.0),
               (0.5, -0.25, 0.5, 0.0, -0.5, 0.25, -0.5, 0.0), g2=1.0, omega=0.3),
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


def test_energy_without_trap_reads_far_positions():
    # at omega = 0, H has no harmonic term, where 0.0 * |x|^2 would be NaN
    # once |x|^2 overflows: H = 1/(0-1)^2 plus two pair terms that underflow
    assert hamiltonian(PhasePoint((0.0, 1.0, 1e200), (0.0, 0.0, 0.0))) == 1.0


@pytest.mark.parametrize("omega", [0.0, 0.5])
def test_energy_keeps_the_bytes_of_the_full_sum(omega):
    # with the term at omega > 0; without it at omega = 0, where the sum is
    # nonnegative and adding 0.0 leaves it unchanged
    rng = random.Random(7)
    states = [random_state(rng, 5) for _ in range(50)]
    x = np.array([s.x for s in states])
    p = np.array([s.p for s in states])
    inv = laxdyn._inverse_differences(x)
    full = (laxdyn._square(p) / 2 + omega ** 2 * laxdyn._square(x) / 2
            + 1.5 / 2 * (inv * inv).sum(axis=(-2, -1)))
    assert laxdyn._energy(x, p, inv, 1.5, omega).tobytes() == full.tobytes()


def _reference_force(y, g2, omega):
    """Force -dH/dx at one state, written out on numpy arrays."""
    diff = y[:, None] - y
    np.fill_diagonal(diff, np.inf)
    inv = 1.0 / diff
    return 2.0 * g2 * (inv * inv * inv).sum(axis=1) - omega ** 2 * y


def _reference_step(x, p, dt, g2, omega):
    """The RK4 step of the per-step simulator, written out on numpy arrays."""
    def force(y):
        return _reference_force(y, g2, omega)

    k1x, k1p = p, force(x)
    k2x = p + 0.5 * dt * k1p
    k2p = force(x + 0.5 * dt * k1x)
    k3x = p + 0.5 * dt * k2p
    k3p = force(x + 0.5 * dt * k2x)
    k4x = p + dt * k3p
    k4p = force(x + dt * k3x)
    return (x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0,
            p + dt * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0)


def _reference_measure(x, p, g2, omega, jmax):
    """H and the traces of the first jmax powers of P (omega = 0) or of
    L+ L- (omega > 0) of one state, measured as the per-step simulator
    measured them."""
    diff = x[:, None] - x
    np.fill_diagonal(diff, np.inf)
    inv = 1.0 / diff
    lax = 1j * math.sqrt(g2) * inv
    np.fill_diagonal(lax, p)
    if omega:
        raising = lax + 1j * omega * np.diag(x)
        lax = raising @ raising.conj().T
    out = [p @ p / 2 + omega ** 2 * (x @ x) / 2 + g2 / 2 * np.sum(inv * inv)]
    power = np.eye(len(x))
    for _ in range(jmax):
        power = power @ lax
        out.append(power.trace().real)
    return np.array(out)


def _reference_integrate(state, duration, dt, jmax, sample_stride):
    """One RK4 step, ordering test and measurement per step."""
    g2, omega = state.g2, state.omega
    x, p = np.array(state.x, dtype=float), np.array(state.p, dtype=float)
    steps = int(round(duration / dt))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c0 = _reference_measure(x, p, g2, omega, jmax)
        scale = np.maximum(np.abs(c0), 1.0)
        drift = np.zeros(jmax + 1)
        times, xs, ps, samples = [0.0], [x], [p], [c0]
        for step in range(1, steps + 1):
            x, p = _reference_step(x, p, dt, g2, omega)
            if not np.all(np.diff(x) > 0):
                raise CollisionError(step * dt)
            conserved = _reference_measure(x, p, g2, omega, jmax)
            drift = np.maximum(drift, np.abs(conserved - c0) / scale)
            if step % sample_stride == 0 or step == steps:
                times.append(step * dt)
                xs.append(x)
                ps.append(p)
                samples.append(conserved)
    return (np.array(times), np.array(xs), np.array(ps), np.array(samples), drift,
            scale)


def _small_blocks(monkeypatch, n, length):
    monkeypatch.setattr(laxdyn, "_BLOCK_BYTES", 16 * n * n * length)
    assert laxdyn._block_length(n) == length


class TestStepCap:
    def test_cap_is_checked_before_any_block(self, monkeypatch):
        class Started(Exception):
            pass

        def refuse_to_step(state, steps, dt):
            raise Started(steps)

        monkeypatch.setattr(laxdyn, "_step_blocks", refuse_to_step)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            integrate(BENCH3, float(MAX_STEPS + 1), 1.0)
        with pytest.raises(Started) as started:
            integrate(BENCH3, float(MAX_STEPS), 1.0)
        assert started.value.args == (MAX_STEPS,)


class TestParticleBound:
    def test_only_integrate_refuses_past_the_bound(self, monkeypatch):
        # the numpy helpers read any N; only the generated kernel is bounded
        def refuse(n):
            raise AssertionError(f"a kernel for {n} particles was built")

        monkeypatch.setattr(laxdyn, "_kernel_source", refuse)
        n = MAX_PARTICLES + 1
        state = PhasePoint(tuple(map(float, range(n))), (0.0,) * n)
        assert trace_integrals(state, jmax=2)[0] == 0.0
        assert math.isfinite(hamiltonian(state))
        # the particle count is checked first, before the other arguments
        with pytest.raises(ValueError, match="MAX_PARTICLES"):
            integrate(state, -1.0, 0.0, jmax=0)


class TestStep:
    # numpy sums a row of eight or more terms pairwise, not left to right, so
    # the reference's last bits differ from N=8 on; the scipy oracle above
    # covers N=8
    # at omega = 0 the kernel has no trap term, where the reference
    # subtracts 0.0 * y
    @pytest.mark.parametrize("n, omega", [
        pytest.param(n, omega, id=f"{n}" if omega else f"{n}-omega0")
        for omega in (0.4, 0.0) for n in range(2, 8)
    ])
    def test_step_matches_reference_bit_for_bit(self, n, omega):
        rng = random.Random(100 + n)
        x0 = np.cumsum([rng.uniform(-1.0, 1.0)]
                       + [rng.uniform(0.5, 2.0) for _ in range(n - 1)])
        p0 = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
        g2, dt = 1.5, 1e-3
        x, p = x0.tolist(), p0.tolist()
        f = laxdyn._force(x, g2, omega)
        assert np.array(f).tobytes() == _reference_force(x0, g2, omega).tobytes()
        xr, pr = x0, p0
        for _ in range(2000):
            x, p, f = laxdyn._rk4_step(x, p, f, dt, g2, omega)
            xr, pr = _reference_step(xr, pr, dt, g2, omega)
        assert all(type(v) is float for v in x + p + f)
        assert np.array(x).tobytes() == xr.tobytes()
        assert np.array(p).tobytes() == pr.tobytes()
        assert np.array(f).tobytes() == _reference_force(xr, g2, omega).tobytes()
        assert not np.array_equal(xr, x0)


def _stage_positions(x, p, dt, g2, omega):
    """Positions of the three inner RK4 stages and the new point of one
    reference step, where the step evaluates its four forces."""
    def force(y):
        return _reference_force(y, g2, omega)

    h = 0.5 * dt
    y1 = x + h * p
    k2x, k2p = p + h * force(x), force(y1)
    y2 = x + h * k2x
    k3x, k3p = p + h * k2p, force(y2)
    y3 = x + dt * k3x
    k4x = p + dt * k3p
    return [y1, y2, y3, x + dt * (p + 2 * k2x + 2 * k3x + k4x) / 6.0]


class TestKernel:
    # uncoupled oscillators (g2=0, omega=1) in which particles 1 and 2 mirror
    # each other exactly, and dt=1: the pair meets at 0 at exactly one of the
    # step's force evaluations, whose own division-by-zero branch must give
    # the collision the reference reports
    @pytest.mark.parametrize("x, p, stage", [
        ((-10.0, -1.0, 1.0), (0.0, 2.0, -2.0), 0),           # first inner stage
        ((-10.0, -1.0, 1.0), (0.0, 1.5, -1.5), 1),           # second inner stage
        ((-10.0, -3.0, 3.0), (0.0, 2.0, -2.0), 2),           # third inner stage
        ((-10.0, -2.5, 2.5), (0.0, 1.625, -1.625), 3),       # the new point
    ])
    def test_coincidence_at_each_force_is_a_collision(self, x, p, stage):
        state = PhasePoint(x, p, g2=0.0, omega=1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            positions = _stage_positions(np.array(x), np.array(p), 1.0, 0.0, 1.0)
        meets = [y[1] == y[2] for y in positions]
        assert meets.index(True) == stage
        with pytest.raises(CollisionError) as ref:
            _reference_integrate(state, 10.0, 1.0, 1, 1)
        with pytest.raises(CollisionError) as err:
            integrate(state, 10.0, 1.0, jmax=1)
        assert err.value.time == ref.value.time == 1.0

    def test_coincident_force_is_infinite(self):
        assert laxdyn._force([0.0, 1.0, 1.0], 1.0, 0.0) == [math.inf] * 3

    def test_kernel_is_compiled_once_per_particle_count(self):
        # one kernel per particle count with the trap term and one without
        laxdyn._kernel.cache_clear()
        four = random_state(random.Random(4), 4)
        states = [PhasePoint(s.x, s.p, omega=omega)
                  for s in (BENCH3, BENCH3, four) for omega in (0.0, 0.5, 0.0)]
        for _ in range(2):
            for state in states:
                integrate(state, 0.01, 1e-3, jmax=1)
        info = laxdyn._kernel.cache_info()
        assert (info.misses, info.currsize) == (4, 4)
        assert info.hits > 0

    def test_kernel_without_trap_has_no_trap_term(self):
        free, trapped = (laxdyn._kernel_source(3, harmonic) for harmonic in (False, True))
        assert "w *" not in free and "w = " not in free
        # five force evaluations of three particles: one in force, four in step
        assert trapped.count("w *") == 5 * 3


class TestBlocks:
    # both invariant matrices: L+ L- at omega > 0 (keys J), P at omega = 0
    # (keys I), each with its off-diagonal terms at g2 > 0
    @pytest.mark.parametrize("n, omega, key", [
        pytest.param(3, 0.4, "J", id="3"), pytest.param(7, 0.4, "J", id="7"),
        pytest.param(3, 0.0, "I", id="3-omega0"), pytest.param(7, 0.0, "I", id="7-omega0"),
    ])
    def test_blocks_match_per_step_reference(self, monkeypatch, n, omega, key):
        length, stride, dt = 50, 7, 1e-3
        steps = 2 * length + 23
        # two full blocks and a partial one; the stride does not divide the
        # block length, and the last step is not a multiple of it
        assert (steps + 1) // length == 2 and (steps + 1) % length
        assert length % stride and steps % stride
        _small_blocks(monkeypatch, n, length)
        rng = random.Random(n)
        x = np.cumsum([0.0] + [rng.uniform(0.5, 1.5) for _ in range(n - 1)])
        p = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        state = PhasePoint(tuple(x), tuple(p), g2=1.5, omega=omega)
        traj = integrate(state, steps * dt, dt, jmax=4, sample_stride=stride)
        times, xs, ps, samples, drift, scale = _reference_integrate(
            state, steps * dt, dt, 4, stride)
        assert np.array_equal(traj.times, times)
        assert np.array_equal(traj.xs, xs)
        assert np.array_equal(traj.ps, ps)
        assert traj.times[-1] == steps * dt
        assert np.all(np.abs(traj.energies - samples[:, 0]) <= 1e-15 * scale[0])
        assert np.all(np.abs(traj.invariants - samples[:, 1:]) <= 1e-15 * scale[1:])
        keys = ["H"] + [f"{key}{j}" for j in range(1, 5)]
        got = np.array([traj.max_drift[k] for k in keys])
        assert np.all(np.abs(got - drift) <= 1e-15)

    def test_drift_includes_every_block_head(self, monkeypatch):
        # uncoupled oscillators: RK4 loses energy at every step, so the drift
        # grows step by step and its maximum is the last state, here the
        # only state of the third block
        state = PhasePoint((-1.0, 1.0), (0.0, 0.0), g2=0.0, omega=1.0)
        _small_blocks(monkeypatch, 2, 10)
        dt, steps = 1e-2, 20
        energies = [hamiltonian(state)]
        x, p = np.array(state.x), np.array(state.p)
        for _ in range(steps):
            x, p = _reference_step(x, p, dt, 0.0, 1.0)
            energies.append(float(p @ p / 2 + x @ x / 2))
        drift = np.abs(np.array(energies) - energies[0]) / energies[0]
        assert np.all(np.diff(drift) > 1e-15)
        traj = integrate(state, steps * dt, dt, jmax=1)
        assert abs(traj.max_drift["H"] - drift[-1]) <= 1e-15

    def test_collision_inside_a_block(self, monkeypatch):
        state = PhasePoint((-1.0, 1.0), (2.0, -2.0), g2=0.0, omega=0.0)
        _small_blocks(monkeypatch, 2, 64)
        with pytest.raises(CollisionError) as ref:
            _reference_integrate(state, 2.0, 1e-3, 1, 1)
        step = round(ref.value.time / 1e-3)
        assert step % 64 not in (0, 63)
        with pytest.raises(CollisionError) as err:
            integrate(state, 2.0, 1e-3, jmax=1)
        assert err.value.time == ref.value.time

    # the block holding step k is steps 8..15: k = 10 is inside it, k = 15
    # its last row
    @pytest.mark.parametrize("k", [10, 15])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_position_is_a_collision_at_its_step(self, monkeypatch, bad, k):
        _small_blocks(monkeypatch, 2, 8)
        real, calls = laxdyn._rk4_step, []

        def step(x, p, f, dt, g2, omega):
            calls.append(len(calls) + 1)
            x, p, f = real(x, p, f, dt, g2, omega)
            if calls[-1] == k:
                x = x[:-1] + [bad]
            return x, p, f

        monkeypatch.setattr(laxdyn, "_rk4_step", step)
        dt = 1e-3
        with pytest.raises(CollisionError) as err:
            integrate(PhasePoint((-1.0, 1.0), (0.0, 0.0)), 40 * dt, dt, jmax=1)
        assert err.value.time == k * dt
        # the positions are tested once per block: the steps run to its end
        assert len(calls) == 15

    @pytest.mark.parametrize("state, dt, steps", [
        # the first force overflows to inf
        (PhasePoint((0.0, 1e-200, 1.0), (0.0, 0.0, 0.0)), 1e-3, 1),
        # the first RK4 stage puts both particles at 0.5: 1/0 in the force
        (PhasePoint((0.0, 1.0), (2.0, -2.0)), 0.5, 1),
        # a harmonic pull and a long step: the last RK4 stage puts both
        # particles at 0, which leaves the new positions ordered and only the
        # new momenta non-finite, so the ordering test fails a step later
        (PhasePoint((-1.0, 1.0), (0.9333333333333332, -0.9333333333333332),
                    g2=0.0, omega=1.0), 3.0, 2),
    ])
    def test_blow_up_is_a_collision(self, state, dt, steps):
        with pytest.raises(CollisionError) as ref:
            _reference_integrate(state, 10 * dt, dt, 1, 1)
        with pytest.raises(CollisionError) as err:
            integrate(state, 10 * dt, dt, jmax=1)
        assert err.value.time == ref.value.time == steps * dt
