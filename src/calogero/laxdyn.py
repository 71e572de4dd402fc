"""Lax matrix of the classical inverse-square model and trajectory checks.

The Hermitian matrix ``P`` with momenta on the diagonal and ``i/(x_j - x_k)``
off-diagonal has conserved trace powers along the Hamiltonian flow of

    H = sum_i (p_i^2/2 + omega^2 x_i^2/2) + sum_{i<j} g^2/(x_i - x_j)^2.

Every pair quantity (the Lax matrix, the potential, the forces and the
explicit cubic trace) is read from one array ``inv[i, j] = 1/(x_i - x_j)``
with a zero diagonal, built once per state.  A ``PhasePoint`` is validated
once, at the boundary; the simulator (fixed-step RK4) then carries plain
position and momentum arrays and reports the drift of the energy and of the
trace integrals, read from the same pair array as the next step's force.
The rank-two constant matrix ``I - e e^T`` driving the reduction has
spectrum {1 (N-1 times), 1-N}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhasePoint",
    "CollisionError",
    "build_lax",
    "trace_integrals",
    "trace_p3_explicit",
    "integrate",
    "Trajectory",
    "noether_matrix",
    "hamiltonian",
]


class CollisionError(RuntimeError):
    """Particle ordering violated during integration."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"particle collision (ordering violated) at t={time:.6g}")


@dataclass(frozen=True)
class PhasePoint:
    """Positions (strictly increasing), momenta, coupling g^2 and frequency,
    all finite."""

    x: tuple[float, ...]
    p: tuple[float, ...]
    g2: float = 1.0
    omega: float = 0.0

    def __post_init__(self):
        if len(self.x) != len(self.p):
            raise ValueError("position and momentum dimensions differ")
        if len(self.x) < 2:
            raise ValueError("need at least two particles")
        if not all(math.isfinite(v) for v in (*self.x, *self.p, self.g2, self.omega)):
            raise ValueError("positions, momenta, g2 and omega must be finite")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError("positions must be strictly increasing")
        if self.g2 < 0 or self.omega < 0:
            raise ValueError("g2 and omega must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.x)


def _inverse_differences(x: np.ndarray) -> np.ndarray:
    """inv[i, j] = 1/(x_i - x_j), with zeros on the diagonal."""
    diff = x[:, None] - x
    diff.flat[:: len(x) + 1] = np.inf
    return 1.0 / diff


def _lax(p: np.ndarray, inv: np.ndarray) -> np.ndarray:
    out = 1j * inv
    out.flat[:: len(p) + 1] = p
    return out


def _trace_powers(p: np.ndarray, inv: np.ndarray, jmax: int) -> np.ndarray:
    lax = _lax(p, inv)
    out = np.empty(jmax)
    out[0] = lax.trace().real
    power = lax
    for j in range(1, jmax):
        power = power @ lax
        out[j] = power.trace().real
    return out


def _energy(x: np.ndarray, p: np.ndarray, inv: np.ndarray, g2: float,
            omega: float) -> float:
    # the pair sum runs over ordered pairs, so it counts each pair twice
    return float(p @ p / 2 + omega ** 2 * (x @ x) / 2 + g2 / 2 * np.sum(inv * inv))


def _forces(x: np.ndarray, inv: np.ndarray, g2: float, omega: float) -> np.ndarray:
    return 2.0 * g2 * (inv * inv * inv).sum(axis=1) - omega ** 2 * x


def _arrays(state: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(state.x, dtype=float), np.asarray(state.p, dtype=float)


def build_lax(state: PhasePoint) -> np.ndarray:
    """Hermitian Lax matrix: momenta on the diagonal, i/(x_j - x_k) off it."""
    x, p = _arrays(state)
    return _lax(p, _inverse_differences(x))


def trace_integrals(state: PhasePoint, jmax: int = 4) -> np.ndarray:
    """I_j = tr P^j for j = 1..jmax (real for a Hermitian matrix)."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    x, p = _arrays(state)
    return _trace_powers(p, _inverse_differences(x), jmax)


def trace_p3_explicit(state: PhasePoint) -> float:
    """tr P^3 via the explicit formula sum_i p_i^3 + 3 sum_{i != j} p_i/(x_i-x_j)^2.

    Expanding tr P^3 also gives a purely imaginary three-index term, -i times
    the sum over all-distinct (i, j, k) of 1/((x_i-x_j)(x_j-x_k)(x_k-x_i)).
    It vanishes identically: the cyclic relabeling i -> j -> k leaves each
    summand fixed, while the swap of j and k flips its sign, so the summands
    cancel in pairs, as the reality of the trace requires.
    """
    x, p = _arrays(state)
    inv = _inverse_differences(x)
    return float(np.sum(p ** 3) + 3.0 * (p @ (inv * inv).sum(axis=1)))


def hamiltonian(state: PhasePoint) -> float:
    x, p = _arrays(state)
    return _energy(x, p, _inverse_differences(x), state.g2, state.omega)


@dataclass
class Trajectory:
    """Sampled trajectory with per-invariant drift bookkeeping."""

    times: np.ndarray
    xs: np.ndarray
    ps: np.ndarray
    energies: np.ndarray
    invariants: np.ndarray  # shape (samples, jmax)
    max_drift: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {"maxDrift": self.max_drift,
                "samples": int(len(self.times)),
                "tFinal": float(self.times[-1])}

    def write_csv(self, path: str) -> None:
        n = self.xs.shape[1]
        jmax = self.invariants.shape[1]
        header = (["t"] + [f"x{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
                  + ["H"] + [f"I{j+1}" for j in range(jmax)])
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(self.times)):
                writer.writerow([repr(float(self.times[i]))]
                                + [repr(float(v)) for v in self.xs[i]]
                                + [repr(float(v)) for v in self.ps[i]]
                                + [repr(float(self.energies[i]))]
                                + [repr(float(v)) for v in self.invariants[i]])


def _rk4_step(x: np.ndarray, p: np.ndarray, f: np.ndarray, dt: float, g2: float,
              omega: float):
    """One RK4 step from (x, p); ``f`` is the force at ``x``."""
    def force(y):
        return _forces(y, _inverse_differences(y), g2, omega)

    k1x, k1p = p, f
    k2x = p + 0.5 * dt * k1p
    k2p = force(x + 0.5 * dt * k1x)
    k3x = p + 0.5 * dt * k2p
    k3p = force(x + 0.5 * dt * k2x)
    k4x = p + dt * k3p
    k4p = force(x + dt * k3x)
    xn = x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
    pn = p + dt * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
    return xn, pn


def integrate(state: PhasePoint, duration: float, dt: float,
              jmax: int = 4, sample_stride: int = 1) -> Trajectory:
    """Fixed-step RK4 trajectory; aborts on particle collision.

    Energy and invariant drifts are tracked at every step; the stored arrays
    are downsampled by ``sample_stride``.  A state that leaves the open
    chamber, or blows up to inf or NaN, raises :class:`CollisionError`.
    """
    if not (0 < duration < math.inf and 0 < dt < math.inf):
        raise ValueError("duration and dt must be finite and positive")
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    ratio = duration / dt
    if not math.isfinite(ratio):
        raise ValueError(f"duration / dt = {ratio} is too large for a step count")
    steps = int(round(ratio))
    g2, omega = state.g2, state.omega
    x, p = _arrays(state)

    def measure(x, p):
        # H and tr P^1..tr P^jmax, and the force for the next step, from one
        # pair array
        inv = _inverse_differences(x)
        conserved = np.empty(jmax + 1)
        conserved[0] = _energy(x, p, inv, g2, omega)
        conserved[1:] = _trace_powers(p, inv, jmax)
        return conserved, _forces(x, inv, g2, omega)

    # overflow near a collision leaves inf or NaN in x, which the ordering
    # test below reports as a collision
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        c0, force = measure(x, p)
        scale = np.maximum(np.abs(c0), 1.0)
        drift = np.zeros(jmax + 1)
        times, xs, ps, samples = [0.0], [x], [p], [c0]
        for step in range(1, steps + 1):
            x, p = _rk4_step(x, p, force, dt, g2, omega)
            t = step * dt
            if not np.all(np.diff(x) > 0):
                raise CollisionError(t)
            conserved, force = measure(x, p)
            drift = np.maximum(drift, np.abs(conserved - c0) / scale)
            if step % sample_stride == 0 or step == steps:
                times.append(t)
                xs.append(x)
                ps.append(p)
                samples.append(conserved)
    samples = np.asarray(samples)
    max_drift = {"H": float(drift[0])}
    for j in range(1, jmax + 1):
        max_drift[f"I{j}"] = float(drift[j])
    return Trajectory(times=np.asarray(times), xs=np.asarray(xs), ps=np.asarray(ps),
                      energies=samples[:, 0], invariants=samples[:, 1:],
                      max_drift=max_drift)


def noether_matrix(n: int) -> np.ndarray:
    """The constant reduction matrix I - e e^T (zero diagonal, rank-two
    spectrum in the sense of two distinct eigenvalues)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return np.eye(n) - np.ones((n, n))
