"""Lax matrix of the classical inverse-square model and trajectory checks.

The Hermitian matrix ``P`` with momenta on the diagonal and ``i/(x_j - x_k)``
off-diagonal has conserved trace powers along the Hamiltonian flow of

    H = sum_i (p_i^2/2 + omega^2 x_i^2/2) + sum_{i<j} g^2/(x_i - x_j)^2.

The simulator integrates that flow (fixed-step RK4) and reports the drift of
the trace integrals; the explicit three-index trace formula is validated
against the matrix trace.  The rank-two constant matrix ``I - e e^T`` driving
the reduction has spectrum {1 (N-1 times), 1-N}.
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
    "noether_spectrum",
    "hamiltonian",
]


class CollisionError(RuntimeError):
    """Particle ordering violated during integration."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"particle collision (ordering violated) at t={time:.6g}")


@dataclass(frozen=True)
class PhasePoint:
    """Positions (strictly increasing), momenta, coupling g^2 and frequency."""

    x: tuple[float, ...]
    p: tuple[float, ...]
    g2: float = 1.0
    omega: float = 0.0

    def __post_init__(self):
        if len(self.x) != len(self.p):
            raise ValueError("position and momentum dimensions differ")
        if len(self.x) < 2:
            raise ValueError("need at least two particles")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ValueError("positions must be strictly increasing")
        if self.g2 < 0 or self.omega < 0:
            raise ValueError("g2 and omega must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.x)


def build_lax(state: PhasePoint) -> np.ndarray:
    """Hermitian Lax matrix: momenta on the diagonal, i/(x_j - x_k) off it."""
    x = np.asarray(state.x)
    n = state.n
    out = np.diag(np.asarray(state.p, dtype=complex))
    for j in range(n):
        for k in range(n):
            if j != k:
                out[j, k] = 1j / (x[j] - x[k])
    return out


def trace_integrals(state: PhasePoint, jmax: int = 4) -> np.ndarray:
    """I_j = tr P^j for j = 1..jmax (real for a Hermitian matrix)."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    lax = build_lax(state)
    out = np.empty(jmax)
    power = np.eye(state.n, dtype=complex)
    for j in range(jmax):
        power = power @ lax
        out[j] = np.trace(power).real
    return out


def trace_p3_explicit(state: PhasePoint) -> float:
    """tr P^3 via the explicit formula sum_i p_i^3 + 3 sum_{i != j} p_i/(x_i-x_j)^2.

    Expanding tr P^3 also gives a purely imaginary three-index term, -i times
    the sum over all-distinct (i, j, k) of 1/((x_i-x_j)(x_j-x_k)(x_k-x_i)).
    It vanishes identically: the cyclic relabeling i -> j -> k leaves each
    summand fixed, while the swap of j and k flips its sign, so the summands
    cancel in pairs, as the reality of the trace requires.
    """
    x = np.asarray(state.x)
    p = np.asarray(state.p)
    n = state.n
    total = float(np.sum(p ** 3))
    for i in range(n):
        for j in range(n):
            if i != j:
                total += 3.0 * p[i] / (x[i] - x[j]) ** 2
    return total


def hamiltonian(state: PhasePoint) -> float:
    x = np.asarray(state.x)
    p = np.asarray(state.p)
    h = float(np.sum(p ** 2) / 2 + state.omega ** 2 * np.sum(x ** 2) / 2)
    for i in range(state.n):
        for j in range(i + 1, state.n):
            h += state.g2 / (x[i] - x[j]) ** 2
    return h


def _forces(x: np.ndarray, g2: float, omega: float) -> np.ndarray:
    n = len(x)
    f = -omega ** 2 * x
    for i in range(n):
        acc = 0.0
        for j in range(n):
            if j != i:
                acc += 2.0 * g2 / (x[i] - x[j]) ** 3
        f[i] += acc
    return f


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


def _rk4_step(x: np.ndarray, p: np.ndarray, dt: float, g2: float, omega: float):
    k1x = p
    k1p = _forces(x, g2, omega)
    k2x = p + 0.5 * dt * k1p
    k2p = _forces(x + 0.5 * dt * k1x, g2, omega)
    k3x = p + 0.5 * dt * k2p
    k3p = _forces(x + 0.5 * dt * k2x, g2, omega)
    k4x = p + dt * k3p
    k4p = _forces(x + dt * k3x, g2, omega)
    xn = x + dt * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0
    pn = p + dt * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
    return xn, pn


def integrate(state: PhasePoint, duration: float, dt: float,
              jmax: int = 4, sample_stride: int = 1) -> Trajectory:
    """Fixed-step RK4 trajectory; aborts on particle collision.

    Invariant and energy drifts are tracked at every step; the stored arrays
    are downsampled by ``sample_stride``.
    """
    if dt <= 0 or duration <= 0:
        raise ValueError("duration and dt must be positive")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    steps = int(round(duration / dt))
    x = np.asarray(state.x, dtype=float)
    p = np.asarray(state.p, dtype=float)
    times, xs, ps, energies, invars = [], [], [], [], []

    def record(t: float):
        times.append(t)
        xs.append(x.copy())
        ps.append(p.copy())
        cur = PhasePoint(tuple(x), tuple(p), state.g2, state.omega)
        energies.append(hamiltonian(cur))
        invars.append(trace_integrals(cur, jmax))

    record(0.0)
    e0 = energies[0]
    i0 = invars[0].copy()
    escale = max(abs(e0), 1.0)
    iscale = np.maximum(np.abs(i0), 1.0)
    max_e_drift = 0.0
    max_i_drift = np.zeros(jmax)
    for step in range(1, steps + 1):
        x, p = _rk4_step(x, p, dt, state.g2, state.omega)
        t = step * dt
        if np.any(np.diff(x) <= 0):
            raise CollisionError(t)
        cur = PhasePoint(tuple(x), tuple(p), state.g2, state.omega)
        max_e_drift = max(max_e_drift, abs(hamiltonian(cur) - e0) / escale)
        max_i_drift = np.maximum(max_i_drift,
                                 np.abs(trace_integrals(cur, jmax) - i0) / iscale)
        if step % sample_stride == 0 or step == steps:
            record(t)
    drift = {"H": float(max_e_drift)}
    for j in range(jmax):
        drift[f"I{j+1}"] = float(max_i_drift[j])
    return Trajectory(times=np.asarray(times), xs=np.asarray(xs), ps=np.asarray(ps),
                      energies=np.asarray(energies), invariants=np.asarray(invars),
                      max_drift=drift)


def noether_matrix(n: int) -> np.ndarray:
    """The constant reduction matrix I - e e^T (zero diagonal, rank-two
    spectrum in the sense of two distinct eigenvalues)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return np.eye(n) - np.ones((n, n))


def noether_spectrum(n: int) -> dict[int, int]:
    """Eigenvalue multiplicities of I - e e^T: {1: n-1, 1-n: 1}."""
    if n < 2:
        raise ValueError("need n >= 2")
    return {1: n - 1, 1 - n: 1}
