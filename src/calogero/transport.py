"""Vectorized eigenproblem and parallel transport.

The nonlocal first-order system ``nabla_k psi = i p_k psi`` becomes a local
linear system on N!-component vectors by tracking all argument permutations
of one unknown: with ``Psi_sigma(x) = psi(x_sigma(0), ..., x_sigma(N-1))``
the chain rule turns the eigenproblem into

    d/dx_k Psi = Omega_k(x) Psi,

where ``Omega_k`` has ``i p_{sigma^-1(k)}`` on the diagonal and, in row
``sigma``, an entry ``c / (x_sigma(m) - x_k)`` in column ``sigma * s`` for
every transposition ``s`` moving the slot ``sigma^-1(k)``.  Flatness of this
connection (checked exactly in rational arithmetic) certifies the
vectorization; transport along chamber paths is then computed numerically by
an embedded Runge-Kutta 5(4) pair and, independently, by truncated
time-ordered iterated integrals.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .exactalg import Permutation

__all__ = [
    "ConnectionMatrix",
    "ChamberPath",
    "TransportResult",
    "PathValidationError",
    "TransportStepError",
    "EquivarianceError",
    "build_local_system",
    "verify_flatness",
    "transport_ode",
    "transport_dyson",
    "plane_wave_map",
    "equivariance_check",
    "free_transport",
    "permute_momenta",
    "random_chamber_point",
]


class PathValidationError(ValueError):
    """Path leaves the open chamber (or violates its margin)."""


class TransportStepError(RuntimeError):
    """Adaptive step size underflowed, typically near a chamber wall."""


class EquivarianceError(RuntimeError):
    """No candidate regular action conjugates the two systems exactly."""


@dataclass(frozen=True)
class _OffEntry:
    """One off-diagonal connection entry: coeff / (x_a - x_b), a < b."""
    row: int
    col: int
    coeff: Fraction
    a: int
    b: int


@dataclass(frozen=True)
class ConnectionMatrix:
    """Per-coordinate N! x N! connection of the vectorized eigenproblem.

    ``diag[k][row]`` is the rational momentum carried by the imaginary
    diagonal; ``off[k]`` lists the exact off-diagonal entries.
    """

    n: int
    p: tuple[Fraction, ...]
    c: Fraction
    perms: tuple[Permutation, ...]
    diag: tuple[tuple[Fraction, ...], ...]
    off: tuple[tuple[_OffEntry, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.perms)

    # -- float evaluation (transport) -------------------------------------

    def eval_numeric(self, k: int, x: np.ndarray) -> np.ndarray:
        d = self.dim
        out = np.zeros((d, d), dtype=complex)
        out[np.arange(d), np.arange(d)] = 1j * np.array([float(v) for v in self.diag[k]])
        for e in self.off[k]:
            out[e.row, e.col] += float(e.coeff) / (x[e.a] - x[e.b])
        return out

    def velocity_matrix(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sum_k v_k Omega_k(x)."""
        d = self.dim
        out = np.zeros((d, d), dtype=complex)
        idx = np.arange(d)
        for k in range(self.n):
            if v[k] == 0.0:
                continue
            out[idx, idx] += 1j * v[k] * np.array([float(q) for q in self.diag[k]])
            for e in self.off[k]:
                out[e.row, e.col] += v[k] * float(e.coeff) / (x[e.a] - x[e.b])
        return out

    # -- exact evaluation (flatness, equivariance) -------------------------

    def eval_exact(self, k: int, point: Sequence[Fraction]):
        """Real and imaginary parts as dense Fraction matrices (im is diagonal)."""
        d = self.dim
        re = [[Fraction(0)] * d for _ in range(d)]
        for e in self.off[k]:
            re[e.row][e.col] += e.coeff / (point[e.a] - point[e.b])
        im = list(self.diag[k])
        return re, im

    def _sparse_rows(self, k: int, point: Sequence[Fraction]):
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.dim)]
        for e in self.off[k]:
            rows[e.row].append((e.col, e.coeff / (point[e.a] - point[e.b])))
        return rows

    def _sparse_rows_derivative(self, k: int, j: int, point: Sequence[Fraction]):
        rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.dim)]
        for e in self.off[k]:
            delta = (1 if j == e.a else 0) - (1 if j == e.b else 0)
            if delta:
                val = -e.coeff * delta / (point[e.a] - point[e.b]) ** 2
                rows[e.row].append((e.col, val))
        return rows


def build_local_system(n: int, p: Sequence[Fraction | int], c: Fraction | int,
                       cap: int = 5, prefactor: Fraction | None = None) -> ConnectionMatrix:
    """Assemble the vectorized connection for N particles.

    ``prefactor`` overrides the coefficient carried by the off-diagonal
    (permutation) part of the connection; by default it is the coupling c
    itself, as dictated by the operator whose eigenproblem is vectorized.
    """
    if n < 2:
        raise ValueError("need at least two particles")
    if n > cap:
        raise ValueError(f"N={n} exceeds the configured cap {cap} (N! components)")
    p = tuple(Fraction(v) for v in p)
    if len(p) != n:
        raise ValueError("momentum vector has wrong length")
    c = Fraction(c)
    scale = c if prefactor is None else Fraction(prefactor)
    perms = tuple(Permutation.all_elements(n))
    index = {sig.images: i for i, sig in enumerate(perms)}
    diag: list[tuple[Fraction, ...]] = []
    off: list[tuple[_OffEntry, ...]] = []
    for k in range(n):
        dk = []
        ok = []
        for row, sig in enumerate(perms):
            inv = sig.inverse()
            m0 = inv(k)
            dk.append(p[m0])
            for m in range(n):
                if m == m0:
                    continue
                tau = sig * Permutation.transposition(n, m, m0)
                col = index[tau.images]
                a, b = sig(m), k
                if a < b:
                    ok.append(_OffEntry(row, col, scale, a, b))
                else:
                    ok.append(_OffEntry(row, col, -scale, b, a))
        diag.append(tuple(dk))
        off.append(tuple(ok))
    return ConnectionMatrix(n=n, p=p, c=c, perms=perms,
                            diag=tuple(diag), off=tuple(off))


# -- exact flatness ----------------------------------------------------------


def _sparse_commutator(rows_a, rows_b, dim: int):
    """[A, B] for sparse row-list matrices, as a dict keyed by (row, col)."""
    out: dict[tuple[int, int], Fraction] = {}
    for r in range(dim):
        for t, va in rows_a[r]:
            for cidx, vb in rows_b[t]:
                key = (r, cidx)
                out[key] = out.get(key, Fraction(0)) + va * vb
        for t, vb in rows_b[r]:
            for cidx, va in rows_a[t]:
                key = (r, cidx)
                out[key] = out.get(key, Fraction(0)) - vb * va
    return out


def verify_flatness(conn: ConnectionMatrix, points: Sequence[Sequence[Fraction]]) -> dict:
    """Exact curvature d_j Omega_k - d_k Omega_j + [Omega_j, Omega_k] at each
    point; returns a report with any nonzero residual entries."""
    failures = []
    checked = 0
    for point in points:
        point = [Fraction(v) for v in point]
        for i in range(len(point) - 1):
            if point[i] >= point[i + 1]:
                raise PathValidationError(f"point {point} is not strictly ordered")
        rows = [conn._sparse_rows(k, point) for k in range(conn.n)]
        for j in range(conn.n):
            for k in range(j + 1, conn.n):
                checked += 1
                # real part: d_j R_k - d_k R_j + [R_j, R_k]
                resid = _sparse_commutator(rows[j], rows[k], conn.dim)
                for row, entries in enumerate(conn._sparse_rows_derivative(k, j, point)):
                    for cidx, v in entries:
                        resid[(row, cidx)] = resid.get((row, cidx), Fraction(0)) + v
                for row, entries in enumerate(conn._sparse_rows_derivative(j, k, point)):
                    for cidx, v in entries:
                        resid[(row, cidx)] = resid.get((row, cidx), Fraction(0)) - v
                nonzero_real = {kk: v for kk, v in resid.items() if v != 0}
                # imaginary part: [D_j, R_k] - [D_k, R_j] entrywise
                imag: dict[tuple[int, int], Fraction] = {}
                for e in conn.off[k]:
                    dv = conn.diag[j][e.row] - conn.diag[j][e.col]
                    if dv:
                        val = dv * e.coeff / (point[e.a] - point[e.b])
                        key = (e.row, e.col)
                        imag[key] = imag.get(key, Fraction(0)) + val
                for e in conn.off[j]:
                    dv = conn.diag[k][e.row] - conn.diag[k][e.col]
                    if dv:
                        val = dv * e.coeff / (point[e.a] - point[e.b])
                        key = (e.row, e.col)
                        imag[key] = imag.get(key, Fraction(0)) - val
                nonzero_imag = {kk: v for kk, v in imag.items() if v != 0}
                if nonzero_real or nonzero_imag:
                    failures.append({
                        "point": [str(v) for v in point],
                        "pair": [j, k],
                        "real": {f"{a},{b}": str(v) for (a, b), v in nonzero_real.items()},
                        "imag": {f"{a},{b}": str(v) for (a, b), v in nonzero_imag.items()},
                    })
    return {"identity": "flatness", "N": conn.n, "pointCount": len(points),
            "caseCount": checked, "failures": failures}


# -- chamber paths -------------------------------------------------------------


@dataclass(frozen=True)
class ChamberPath:
    """Piecewise-linear path strictly inside the chamber x_0 < ... < x_{N-1}."""

    waypoints: tuple[tuple[float, ...], ...]
    margin: float = 1e-6

    def __post_init__(self):
        # non-finite input is malformed, not a chamber violation: every
        # comparison with NaN is false, so the checks below would pass it
        if not math.isfinite(self.margin):
            raise ValueError(f"margin {self.margin} is not finite")
        for w in self.waypoints:
            if not all(math.isfinite(v) for v in w):
                raise ValueError(f"waypoint {w} is not finite")
        if len(self.waypoints) < 1:
            raise PathValidationError("path needs at least one waypoint")
        if self.margin <= 0:
            raise PathValidationError("margin must be positive")
        n = len(self.waypoints[0])
        for w in self.waypoints:
            if len(w) != n:
                raise PathValidationError("inconsistent waypoint dimensions")
            gaps = [w[i + 1] - w[i] for i in range(n - 1)]
            if min(gaps) < self.margin:
                raise PathValidationError(
                    f"waypoint {w} violates the chamber margin {self.margin}")
        # linear interpolation of two margin-respecting points stays inside:
        # each gap is linear in t, so its minimum sits at an endpoint

    @property
    def n(self) -> int:
        return len(self.waypoints[0])

    def segments(self):
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            yield np.asarray(a, dtype=float), np.asarray(b, dtype=float)

    def is_closed(self) -> bool:
        return len(self.waypoints) > 1 and self.waypoints[0] == self.waypoints[-1]

    def reversed(self) -> "ChamberPath":
        return ChamberPath(tuple(reversed(self.waypoints)), self.margin)

    def concat(self, other: "ChamberPath") -> "ChamberPath":
        if self.waypoints[-1] != other.waypoints[0]:
            raise PathValidationError("paths do not share the junction point")
        return ChamberPath(self.waypoints + other.waypoints[1:],
                           min(self.margin, other.margin))

    def to_json(self) -> dict:
        return {"N": self.n, "margin": self.margin,
                "waypoints": [list(w) for w in self.waypoints]}

    @classmethod
    def from_json(cls, data: dict) -> "ChamberPath":
        try:
            waypoints = tuple(tuple(float(v) for v in w) for w in data["waypoints"])
            margin = float(data.get("margin", 1e-6))
            n = int(data["N"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed path data: {exc}") from exc
        if any(len(w) != n for w in waypoints):
            raise ValueError("waypoint dimension disagrees with N")
        return cls(waypoints, margin)

    @classmethod
    def load(cls, path: str) -> "ChamberPath":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)
            fh.write("\n")


@dataclass
class TransportResult:
    matrix: np.ndarray
    method: str
    step_stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "method": self.method,
            "matrix": [[[float(v.real), float(v.imag)] for v in row]
                       for row in self.matrix],
            "stepStats": self.step_stats,
        }


# -- embedded Runge-Kutta 5(4), Dormand-Prince coefficients -------------------

_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)

_MIN_STEP = 1e-14


def _integrate_dp45(fun: Callable[[float, np.ndarray], np.ndarray],
                    t0: float, t1: float, y0: np.ndarray, tol: float,
                    max_step: Callable[[float], float]) -> tuple[np.ndarray, dict]:
    """One-directional embedded Dormand-Prince integration of y' = fun(t, y)."""
    t, y = t0, y0
    h = min(t1 - t0, max_step(t0))
    steps = 0
    rejected = 0
    max_err = 0.0
    while t < t1:
        h = min(h, t1 - t, max_step(t))
        if h < _MIN_STEP:
            raise TransportStepError(
                f"step size underflow at t={t:.6g} (chamber margin too tight)")
        k = [fun(t, y)]
        for s in range(1, 7):
            ys = y + h * sum(a * ki for a, ki in zip(_DP_A[s], k))
            k.append(fun(t + _DP_C[s] * h, ys))
        y5 = y + h * sum(b * ki for b, ki in zip(_DP_B5, k))
        y4 = y + h * sum(b * ki for b, ki in zip(_DP_B4, k))
        scale = tol * (1.0 + np.max(np.abs(y)))
        err = np.max(np.abs(y5 - y4)) / scale
        if err <= 1.0:
            t += h
            y = y5
            steps += 1
            max_err = max(max_err, float(err * scale))
        else:
            rejected += 1
        h *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
    return y, {"steps": steps, "rejected": rejected, "maxLocalError": max_err}


def _wall_margin(x: np.ndarray) -> float:
    """Euclidean distance from x to the nearest chamber wall x_i = x_{i+1}."""
    return float(np.min(np.diff(x))) / math.sqrt(2.0)


def transport_ode(conn: ConnectionMatrix, path: ChamberPath,
                  tol: float = 1e-10) -> TransportResult:
    """Solve dW/dt = (sum_k xdot_k Omega_k(x(t))) W along the path, W(0) = 1.

    The adaptive step is capped so a single step never moves farther than half
    the distance to the nearest chamber wall.
    """
    if path.n != conn.n:
        raise PathValidationError("path dimension does not match the system")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    d = conn.dim
    w = np.eye(d, dtype=complex)
    stats = {"steps": 0, "rejected": 0, "maxLocalError": 0.0}
    for a, b in path.segments():
        v = b - a
        speed = float(np.linalg.norm(v))
        if speed == 0.0:
            continue

        def rhs(t: float, y: np.ndarray, a=a, v=v) -> np.ndarray:
            x = a + t * v
            return conn.velocity_matrix(x, v) @ y

        def max_step(t: float, a=a, v=v, speed=speed) -> float:
            x = a + t * v
            return max(_wall_margin(x) / (2.0 * speed), _MIN_STEP * 10)

        try:
            w, seg_stats = _integrate_dp45(rhs, 0.0, 1.0, w, tol, max_step)
        except TransportStepError as exc:
            raise TransportStepError(
                f"{exc} on segment {a.tolist()} -> {b.tolist()}") from exc
        stats["steps"] += seg_stats["steps"]
        stats["rejected"] += seg_stats["rejected"]
        stats["maxLocalError"] = max(stats["maxLocalError"], seg_stats["maxLocalError"])
    stats["tol"] = tol
    return TransportResult(matrix=w, method="ode", step_stats=stats)


def free_transport(conn: ConnectionMatrix, path: ChamberPath) -> np.ndarray:
    """Exact transport of the decoupled (c=0) part: the diagonal free phases."""
    a = np.asarray(path.waypoints[0], dtype=float)
    b = np.asarray(path.waypoints[-1], dtype=float)
    d = conn.dim
    out = np.zeros((d, d), dtype=complex)
    for row in range(d):
        phase = sum(float(conn.diag[k][row]) * (b[k] - a[k]) for k in range(conn.n))
        out[row, row] = np.exp(1j * phase)
    return out


# -- time-ordered iterated integrals -------------------------------------------


def _segment_nodes(path: ChamberPath, steps: int):
    """Distribute an even number of intervals over each segment, proportional
    to arc length; returns per-segment (points, h) with h in segment units."""
    segs = list(path.segments())
    lengths = [float(np.linalg.norm(b - a)) for a, b in segs]
    total = sum(lengths)
    out = []
    for (a, b), ln in zip(segs, lengths):
        share = steps * ln / total if total > 0 else steps / len(segs)
        m = max(2, 2 * math.ceil(share / 2))
        ts = np.linspace(0.0, 1.0, m + 1)
        out.append(((a, b), ts, 1.0 / m))
    return out


def _cumulative_simpson(values: list[np.ndarray], h: float) -> list[np.ndarray]:
    """Cumulative integral at every node of a uniform grid with an even
    number of intervals, quadratic through each consecutive node triple."""
    n = len(values) - 1
    out = [np.zeros_like(values[0])]
    for i in range(0, n, 2):
        f0, f1, f2 = values[i], values[i + 1], values[i + 2]
        out.append(out[i] + h * (5 * f0 + 8 * f1 - f2) / 12.0)
        out.append(out[i] + h * (f0 + 4 * f1 + f2) / 3.0)
    return out


def transport_dyson(conn: ConnectionMatrix, path: ChamberPath,
                    order: int = 8, steps: int = 400) -> TransportResult:
    """Truncated time-ordered series 1 + int A + int int A A + ... computed by
    composite quadrature on a fixed grid; converges to the ODE transport as
    order and steps grow."""
    if order < 1:
        raise ValueError("series order must be >= 1")
    if steps < 1:
        raise ValueError("step count must be >= 1")
    if path.n != conn.n:
        raise PathValidationError("path dimension does not match the system")
    d = conn.dim
    if len(path.waypoints) < 2:
        return TransportResult(matrix=np.eye(d, dtype=complex), method="dyson",
                               step_stats={"order": order, "steps": 0})
    grids = _segment_nodes(path, steps)
    a_vals: list[np.ndarray] = []
    h_list: list[tuple[int, int, float]] = []  # (start index, node count, h)
    pos = 0
    for (a, b), ts, h in grids:
        v = b - a
        nodes = [conn.velocity_matrix(a + t * v, v) for t in ts]
        a_vals.extend(nodes)
        h_list.append((pos, len(nodes), h))
        pos += len(nodes)
    eye = np.eye(d, dtype=complex)
    total = eye.copy()
    prev = [eye.copy() for _ in range(pos)]  # T_0 at every node
    total_intervals = sum(cnt - 1 for _, cnt, _ in h_list)
    for _ in range(order):
        integrand = [a_vals[i] @ prev[i] for i in range(pos)]
        nxt: list[np.ndarray] = []
        carry = np.zeros((d, d), dtype=complex)
        for start, cnt, h in h_list:
            cum = _cumulative_simpson(integrand[start:start + cnt], h)
            nxt.extend(carry + c for c in cum)
            carry = carry + cum[-1]
        prev = nxt
        total = total + prev[-1]
    return TransportResult(matrix=total, method="dyson",
                           step_stats={"order": order, "steps": total_intervals})


# -- plane-wave (scattering) map ------------------------------------------------


def plane_wave_map(conn: ConnectionMatrix, base_point: Sequence[float],
                   lam_max: float, tol: float = 1e-10,
                   margin: float | None = None) -> dict:
    """Transport outward along the dilation ray x -> lam*x and report the
    lam-dependence of the frame after stripping the free phases.

    Exploratory: successive differences of the stripped frames are reported,
    not asserted to converge.
    """
    x0 = np.asarray([float(v) for v in base_point], dtype=float)
    if np.min(np.diff(x0)) <= 0:
        raise PathValidationError("base point must be strictly ordered")
    if lam_max < 1:
        raise ValueError("lam_max must be >= 1")
    lambdas = [1.0]
    while lambdas[-1] < lam_max:
        lambdas.append(min(lambdas[-1] * 2.0, lam_max))
    if margin is None:
        margin = 0.5 * float(np.min(np.diff(x0)))

    def phase_matrix(lam: float) -> np.ndarray:
        d = conn.dim
        out = np.zeros((d, d), dtype=complex)
        for row in range(d):
            ph = sum(float(conn.diag[k][row]) * lam * x0[k] for k in range(conn.n))
            out[row, row] = np.exp(1j * ph)
        return out

    w = np.eye(conn.dim, dtype=complex)
    frames = []
    d1 = phase_matrix(lambdas[0])
    for i, lam in enumerate(lambdas):
        if i > 0:
            seg = ChamberPath((tuple(lambdas[i - 1] * x0), tuple(lam * x0)), margin)
            w = transport_ode(conn, seg, tol).matrix @ w
        stripped = np.linalg.inv(phase_matrix(lam)) @ w @ d1
        frames.append(stripped)
    diffs = [float(np.max(np.abs(frames[i + 1] - frames[i])))
             for i in range(len(frames) - 1)]
    generic = len(set(conn.p)) == len(conn.p)
    return {
        "lambdas": lambdas,
        "momentaGeneric": generic,
        "differences": diffs,
        "frames": [[[float(v.real), float(v.imag)] for v in row] for row in frames[-1]],
    }


# -- equivariance under momentum permutation ------------------------------------


def permute_momenta(p: Sequence[Fraction], sigma: Permutation) -> tuple[Fraction, ...]:
    """(sigma . p)_j = p_{sigma^-1(j)}: the momentum moves with its slot."""
    inv = sigma.inverse()
    return tuple(Fraction(p[inv(j)]) for j in range(len(p)))


def random_chamber_point(n: int, rng, max_num: int = 12, max_den: int = 4) -> tuple[Fraction, ...]:
    """Strictly ordered exact rational point with gaps >= 1/max_den."""
    x = Fraction(rng.randint(-2 * max_num, 2 * max_num), rng.randint(1, max_den))
    out = [x]
    for _ in range(n - 1):
        x = x + Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
        out.append(x)
    return tuple(out)


def equivariance_check(conn_p: ConnectionMatrix, conn_sp: ConnectionMatrix,
                       sigma: Permutation, points: Sequence[Sequence[Fraction]]) -> dict:
    """Search the regular actions (left/right, direct/inverse) for a
    permutation matrix conjugating Omega(p) into Omega(sigma . p), exactly at
    the given rational points.  Raises when no candidate matches."""
    if conn_p.n != conn_sp.n:
        raise ValueError("systems have different sizes")
    perms = conn_p.perms
    index = {s.images: i for i, s in enumerate(perms)}
    inv_sigma = sigma.inverse()
    candidates = {
        "right": [index[(s * sigma).images] for s in perms],
        "right-inverse": [index[(s * inv_sigma).images] for s in perms],
        "left": [index[(sigma * s).images] for s in perms],
        "left-inverse": [index[(inv_sigma * s).images] for s in perms],
    }
    results = {}
    for name, rho in candidates.items():
        worst = Fraction(0)
        exact = True
        for point in points:
            point = [Fraction(v) for v in point]
            for k in range(conn_p.n):
                re_p, im_p = conn_p.eval_exact(k, point)
                re_s, im_s = conn_sp.eval_exact(k, point)
                for rr in range(conn_p.dim):
                    if im_s[rr] != im_p[rho[rr]]:
                        exact = False
                        worst = max(worst, abs(im_s[rr] - im_p[rho[rr]]))
                    for cc in range(conn_p.dim):
                        dv = re_s[rr][cc] - re_p[rho[rr]][rho[cc]]
                        if dv != 0:
                            exact = False
                            worst = max(worst, abs(dv))
        results[name] = {"exact": exact, "maxResidual": str(worst)}
    matches = [name for name, r in results.items() if r["exact"]]
    if not matches:
        raise EquivarianceError(
            f"no regular action conjugates the permuted-momentum system: {results}")
    return {"matched": matches, "candidates": results,
            "pointCount": len(points)}
