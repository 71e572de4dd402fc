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

The connection has one representation: its exact entries, from which
construction derives index and coefficient arrays once.  Numeric evaluation
is a scatter of those arrays (batched over many points at once for the
iterated integrals).  Exact flatness scales each point's residuals to integers:
with L the lcm of the numerators of the pair differences, every
``L / (x_a - x_b)`` is an integer, so the curvature is a sum of Python ints and
only a nonzero total becomes a ``Fraction``.  The iterated integrals hold three
complex d x d matrices per grid node and refuse grids above
``DYSON_MAX_BYTES``.
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
    "DYSON_MAX_BYTES",
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
    diagonal; ``off[k]`` lists the exact off-diagonal entries.  These exact
    entries are the one representation: construction derives from them, once,
    the arrays every evaluator reads.

    * Numeric: the entries of all coordinates in order, as flat ``row*d+col``
      positions with their coordinate, pair ``(a, b)`` and float coefficient,
      plus the float diagonal of shape ``(n, d)``.  ``velocity_matrix``
      scatters them with one ``np.bincount``.
    * Exact: the coefficients as integers over their common denominator, and
      the momenta as integers over theirs, so the flatness and equivariance
      residuals at a rational point are sums of Python ints.
    """

    n: int
    p: tuple[Fraction, ...]
    c: Fraction
    perms: tuple[Permutation, ...]
    diag: tuple[tuple[Fraction, ...], ...]
    off: tuple[tuple[_OffEntry, ...], ...]

    def __post_init__(self):
        entries = [(k, e) for k, off_k in enumerate(self.off) for e in off_k]
        d = self.dim
        derived = {
            "_k": np.array([k for k, _ in entries], dtype=np.intp),
            "_flat": np.array([e.row * d + e.col for _, e in entries], dtype=np.intp),
            "_a": np.array([e.a for _, e in entries], dtype=np.intp),
            "_b": np.array([e.b for _, e in entries], dtype=np.intp),
            "_coef": np.array([float(e.coeff) for _, e in entries], dtype=float),
            "_diag": np.array([[float(q) for q in dk] for dk in self.diag],
                              dtype=float).reshape(self.n, d),
            "_coef_den": math.lcm(*(e.coeff.denominator for _, e in entries)),
            "_diag_den": math.lcm(*(q.denominator for dk in self.diag for q in dk)),
        }
        derived["_coef_num"] = tuple(
            tuple(_scaled_int(e.coeff, derived["_coef_den"]) for e in off_k)
            for off_k in self.off)
        derived["_diag_num"] = tuple(
            tuple(_scaled_int(q, derived["_diag_den"]) for q in dk) for dk in self.diag)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return len(self.perms)

    # -- float evaluation (transport) -------------------------------------

    def velocity_matrix(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """sum_k v_k Omega_k(x) as a (d, d) matrix, or as an (m, d, d) stack
        when ``x`` has shape (m, n)."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        d = self.dim
        xs = np.atleast_2d(x)
        m = len(xs)
        vals = v[self._k] * self._coef / (xs[:, self._a] - xs[:, self._b])
        flat = self._flat if m == 1 else (np.arange(m)[:, None] * (d * d) + self._flat)
        out = np.bincount(flat.ravel(), weights=vals.ravel(), minlength=m * d * d)
        out = out.astype(complex).reshape(m, d, d)
        idx = np.arange(d)
        out[:, idx, idx] = 1j * (v @ self._diag)
        return out if x.ndim > 1 else out[0]

    def eval_numeric(self, k: int, x: np.ndarray) -> np.ndarray:
        """Omega_k(x)."""
        return self.velocity_matrix(x, np.eye(self.n)[k])

    def _phase_matrix(self, dx: np.ndarray) -> np.ndarray:
        """exp(i sum_k dx_k D_k): transport of the diagonal (c=0) part over
        the displacement ``dx``."""
        return np.diag(np.exp(1j * (np.asarray(dx, dtype=float) @ self._diag)))

    # -- exact evaluation (flatness, equivariance) -------------------------

    def _scaled_rows(self, k: int, inv: list[list[int]]) -> list[list[tuple[int, int]]]:
        """Entries of Omega_k grouped by row as ``(col, value * coef_den * L)``,
        all Python ints, given ``inv[a][b] = L / (x_a - x_b)``."""
        rows: list[list[tuple[int, int]]] = [[] for _ in range(self.dim)]
        for e, q in zip(self.off[k], self._coef_num[k]):
            rows[e.row].append((e.col, q * inv[e.a][e.b]))
        return rows


def _scaled_int(q: Fraction | int, den: int) -> int:
    """The integer q * den, for den a multiple of q's denominator."""
    return q.numerator * (den // q.denominator)


def _inverse_differences(point: Sequence[Fraction]) -> tuple[int, list[list[int]]]:
    """L, the lcm of the numerators of the pair differences x_a - x_b, and the
    integers ``inv[a][b] = L / (x_a - x_b)`` for a < b.

    Raises :class:`PathValidationError` unless the point is strictly ordered,
    which also keeps every difference away from zero.
    """
    n = len(point)
    for i in range(n - 1):
        if point[i] >= point[i + 1]:
            raise PathValidationError(f"point {point} is not strictly ordered")
    diffs = [(a, b, point[a] - point[b]) for a in range(n) for b in range(a + 1, n)]
    lcm = math.lcm(*(dv.numerator for _, _, dv in diffs))
    inv = [[0] * n for _ in range(n)]
    for a, b, dv in diffs:
        inv[a][b] = lcm * dv.denominator // dv.numerator
    return lcm, inv


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
    neg = -scale
    perms = tuple(Permutation.all_elements(n))
    index = {sig.images: i for i, sig in enumerate(perms)}
    diag: list[tuple[Fraction, ...]] = []
    off: list[tuple[_OffEntry, ...]] = []
    for k in range(n):
        dk = []
        ok = []
        for row, sig in enumerate(perms):
            images = sig.images
            m0 = images.index(k)  # sigma^-1(k)
            dk.append(p[m0])
            for m in range(n):
                if m == m0:
                    continue
                # sigma * (m m0): the images of sigma with slots m, m0 swapped
                swapped = list(images)
                swapped[m], swapped[m0] = images[m0], images[m]
                col = index[tuple(swapped)]
                a = images[m]
                if a < k:
                    ok.append(_OffEntry(row, col, scale, a, k))
                else:
                    ok.append(_OffEntry(row, col, neg, k, a))
        diag.append(tuple(dk))
        off.append(tuple(ok))
    return ConnectionMatrix(n=n, p=p, c=c, perms=perms,
                            diag=tuple(diag), off=tuple(off))


# -- exact flatness ----------------------------------------------------------


def _curvature(conn: ConnectionMatrix, rows, inv: list[list[int]], j: int, k: int):
    """Scaled curvature of the pair j < k as two dicts keyed by ``row*d+col``.

    With R the off-diagonal and D the diagonal (momentum) parts, the real
    part is d_j R_k - d_k R_j + [R_j, R_k], scaled by (coef_den * L)^2, and
    the imaginary part [D_j, R_k] - [D_k, R_j], scaled by diag_den *
    coef_den * L.  Keys appear in the order the terms are accumulated.
    """
    d = conn.dim
    real: dict[int, int] = {}
    rows_j, rows_k = rows[j], rows[k]
    for r in range(d):
        base = r * d
        for t, va in rows_j[r]:
            for col, vb in rows_k[t]:
                real[base + col] = real.get(base + col, 0) + va * vb
        for t, vb in rows_k[r]:
            for col, va in rows_j[t]:
                real[base + col] = real.get(base + col, 0) - vb * va
    imag: dict[int, int] = {}
    den = conn._coef_den
    for sign, kk, i in ((1, k, j), (-1, j, k)):
        dn = conn._diag_num[i]
        for e, q in zip(conn.off[kk], conn._coef_num[kk]):
            key = e.row * d + e.col
            v = q * inv[e.a][e.b]
            # d_i (q / (x_a - x_b)) = -q (delta_ia - delta_ib) / (x_a - x_b)^2
            delta = (i == e.a) - (i == e.b)
            if delta:
                real[key] = real.get(key, 0) - sign * delta * den * v * inv[e.a][e.b]
            dv = dn[e.row] - dn[e.col]
            if dv:
                imag[key] = imag.get(key, 0) + sign * dv * v
    return real, imag


def verify_flatness(conn: ConnectionMatrix, points: Sequence[Sequence[Fraction]]) -> dict:
    """Exact curvature d_j Omega_k - d_k Omega_j + [Omega_j, Omega_k] at each
    point; returns a report with any nonzero residual entries.

    At each point the residuals are integer sums (see ``_curvature``); only a
    nonzero total becomes a ``Fraction`` for the report text.
    """
    failures = []
    checked = 0
    d = conn.dim
    for point in points:
        lcm, inv = _inverse_differences([Fraction(v) for v in point])
        rows = [conn._scaled_rows(k, inv) for k in range(conn.n)]
        real_scale = (conn._coef_den * lcm) ** 2
        imag_scale = conn._diag_den * conn._coef_den * lcm
        for j in range(conn.n):
            for k in range(j + 1, conn.n):
                checked += 1
                real, imag = _curvature(conn, rows, inv, j, k)
                nonzero_real = {key: v for key, v in real.items() if v}
                nonzero_imag = {key: v for key, v in imag.items() if v}
                if nonzero_real or nonzero_imag:
                    failures.append({
                        "point": [str(v) for v in point],
                        "pair": [j, k],
                        "real": {"%d,%d" % divmod(key, d): str(Fraction(v, real_scale))
                                 for key, v in nonzero_real.items()},
                        "imag": {"%d,%d" % divmod(key, d): str(Fraction(v, imag_scale))
                                 for key, v in nonzero_imag.items()},
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


# -- embedded Runge-Kutta 5(4), Dormand-Prince coefficients -------------------

# Row s of _DP_A weights the stages before s.  Row 6 equals _DP_B5, so the
# last stage is f(t + h, y5) and, once the step is accepted, the first stage
# of the next one (first same as last).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array([
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0),
    (3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0),
    (44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
])
_DP_B4 = np.array((5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                   187 / 2100, 1 / 40))

_MIN_STEP = 1e-14


def _integrate_dp45(fun: Callable[[float, np.ndarray], np.ndarray],
                    t0: float, t1: float, y0: np.ndarray, tol: float,
                    max_step: Callable[[float], float]) -> tuple[np.ndarray, dict]:
    """One-directional embedded Dormand-Prince integration of y' = fun(t, y).

    The stages live in one stacked array; each stage input and both
    solutions are a single contraction of the tableau row with that stack.
    """
    t, y = t0, y0
    h = min(t1 - t0, max_step(t0))
    steps = 0
    rejected = 0
    max_err = 0.0
    shape = np.shape(y0)
    k = np.empty((7, np.size(y0)), dtype=complex)  # stage s, flattened
    k[0] = fun(t, y).ravel()
    while t < t1:
        h = min(h, t1 - t, max_step(t))
        if h < _MIN_STEP:
            raise TransportStepError(
                f"step size underflow at t={t:.6g} (chamber margin too tight)")
        for s in range(1, 7):
            ys = y + h * (_DP_A[s, :s] @ k[:s]).reshape(shape)
            k[s] = fun(t + _DP_C[s] * h, ys).ravel()
        y5 = ys
        y4 = y + h * (_DP_B4 @ k).reshape(shape)
        scale = tol * (1.0 + np.max(np.abs(y)))
        err = np.max(np.abs(y5 - y4)) / scale
        if err <= 1.0:
            t += h
            y = y5
            k[0] = k[6]
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
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance {tol} must be finite and positive")
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
    return conn._phase_matrix(b - a)


# -- time-ordered iterated integrals -------------------------------------------


# Bound on what transport_dyson holds: three stacks of one complex d x d
# matrix per grid node (the connection, and the series terms of the previous
# and the current order).  At N=5 (d=120) it allows about 770 grid nodes.
DYSON_MAX_BYTES = 512 * 2**20


def _segment_grids(path: ChamberPath, steps: int) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Distribute an even number of intervals over each segment, proportional
    to arc length; returns per-segment (start, end, interval count)."""
    segs = list(path.segments())
    lengths = [float(np.linalg.norm(b - a)) for a, b in segs]
    total = sum(lengths)
    out = []
    for (a, b), ln in zip(segs, lengths):
        share = steps * ln / total if total > 0 else steps / len(segs)
        out.append((a, b, max(2, 2 * math.ceil(share / 2))))
    return out


def transport_dyson(conn: ConnectionMatrix, path: ChamberPath,
                    order: int = 8, steps: int = 400) -> TransportResult:
    """Truncated time-ordered series 1 + int A + int int A A + ... computed by
    composite quadrature on a fixed grid; converges to the ODE transport as
    order and steps grow.

    Term n+1 at every node is the cumulative integral of A T_n, quadratic
    through each consecutive node triple (Simpson's rule at the even nodes).
    The grid is refused with ``ValueError`` before anything is allocated when
    its node stacks would exceed ``DYSON_MAX_BYTES``.
    """
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
    per_node = 3 * d * d * np.dtype(complex).itemsize
    # every grid has more than `steps` nodes: refusing on that first keeps a
    # huge step count away from the float arc-length shares
    nodes = steps + 1
    if nodes * per_node <= DYSON_MAX_BYTES:
        grids = _segment_grids(path, steps)
        nodes = sum(m + 1 for _, _, m in grids)
    if nodes * per_node > DYSON_MAX_BYTES:
        raise ValueError(
            f"Dyson series with {steps} steps needs at least {nodes} grid nodes "
            f"of {d}x{d} matrices, above the {DYSON_MAX_BYTES // 2**20} MiB bound")
    a_vals = np.empty((nodes, d, d), dtype=complex)
    spans = []  # (node slice, h) per segment
    pos = 0
    for a, b, m in grids:
        ts = np.linspace(0.0, 1.0, m + 1)
        v = b - a
        a_vals[pos:pos + m + 1] = conn.velocity_matrix(a + ts[:, None] * v, v)
        spans.append((slice(pos, pos + m + 1), 1.0 / m))
        pos += m + 1
    total = np.eye(d, dtype=complex)
    prev, nxt = np.empty_like(a_vals), np.empty_like(a_vals)
    for term in range(order):
        carry = np.zeros((d, d), dtype=complex)
        for seg, h in spans:
            # T_0 = 1 at every node, so the first integrand is A itself
            f = a_vals[seg] @ prev[seg] if term else a_vals[seg]
            f0, f1, f2 = f[:-1:2], f[1::2], f[2::2]
            cum = nxt[seg]
            cum[0] = 0.0
            np.cumsum(h * (f0 + 4 * f1 + f2) / 3.0, axis=0, out=cum[2::2])
            cum[1::2] = cum[:-1:2] + h * (5 * f0 + 8 * f1 - f2) / 12.0
            cum += carry
            carry = cum[-1].copy()
        prev, nxt = nxt, prev
        total = total + prev[-1]
    return TransportResult(matrix=total, method="dyson",
                           step_stats={"order": order, "steps": nodes - len(grids)})


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

    w = np.eye(conn.dim, dtype=complex)
    frames = []
    d1 = conn._phase_matrix(lambdas[0] * x0)
    for i, lam in enumerate(lambdas):
        if i > 0:
            seg = ChamberPath((tuple(lambdas[i - 1] * x0), tuple(lam * x0)), margin)
            w = transport_ode(conn, seg, tol).matrix @ w
        stripped = np.linalg.inv(conn._phase_matrix(lam * x0)) @ w @ d1
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
    # per point, each system's scaled entries keyed by (row, col): value *
    # coef_den * L, with L common to both systems
    n, d = conn_p.n, conn_p.dim
    scaled = []
    for point in points:
        lcm, inv = _inverse_differences([Fraction(v) for v in point])
        entries = ([], [])
        for conn, out in zip((conn_p, conn_sp), entries):
            for k in range(n):
                ent: dict[tuple[int, int], int] = {}
                for r, row in enumerate(conn._scaled_rows(k, inv)):
                    for col, v in row:
                        ent[r, col] = ent.get((r, col), 0) + v
                out.append(ent)
        scaled.append((lcm, entries))
    den_p, den_s = conn_p._coef_den, conn_sp._coef_den
    results = {}
    for name, rho in candidates.items():
        back = [0] * d
        for rr, r in enumerate(rho):
            back[r] = rr
        worst = Fraction(0)
        exact = True
        for lcm, (ents_p, ents_s) in scaled:
            for k in range(n):
                for rr in range(d):
                    if conn_sp.diag[k][rr] != conn_p.diag[k][rho[rr]]:
                        exact = False
                        worst = max(worst, abs(conn_sp.diag[k][rr] - conn_p.diag[k][rho[rr]]))
                # Omega(p) conjugated by rho; entries absent from both are zero
                ep = {(back[r], back[col]): v for (r, col), v in ents_p[k].items()}
                es = ents_s[k]
                for key in es.keys() | ep.keys():
                    dv = es.get(key, 0) * den_p - ep.get(key, 0) * den_s
                    if dv:
                        exact = False
                        worst = max(worst, Fraction(abs(dv), den_p * den_s * lcm))
        results[name] = {"exact": exact, "maxResidual": str(worst)}
    matches = [name for name, r in results.items() if r["exact"]]
    if not matches:
        raise EquivarianceError(
            f"no regular action conjugates the permuted-momentum system: {results}")
    return {"matched": matches, "candidates": results,
            "pointCount": len(points)}
