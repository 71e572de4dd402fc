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

The connection is its momenta p and one coupling q_ab per pair a < b
(``build_local_system`` gives every pair the same c).  Along a velocity v it is
the Knizhnik-Zamolodchikov form on the regular representation of S_N,

    sum_k v_k Omega_k(x) = i (v . D) + sum_{a<b} q_ab (v_b - v_a) / (x_a - x_b) L_ab,

with ``D_k`` the diagonal ``p_{sigma^-1(k)}`` and ``L_ab`` the left
multiplication ``sigma -> (a b) * sigma``.  Construction derives everything
else from this rule, once: the exact entries, and the arrays with which
numeric evaluation is one put of ``(coef @ v) / (x_a - x_b)`` into the
positions of every ``L_ab`` (batched over many points at once for the
iterated integrals).
On a segment x = a + t v the numerators and the gaps' rates are fixed, so the
ODE right-hand side takes them once and at each new t writes one division
into a preset matrix.  Exact flatness scales each point's residuals to integers:
with L the lcm of the numerators of the pair differences, every
``L / (x_a - x_b)`` is an integer, so the curvature is a sum of Python ints and
only a nonzero total becomes a ``Fraction``.  Momentum equivariance needs no
point: it is an identity of the exact entries under one derived relabelling
of the components.  The iterated integrals hold three complex d x d matrices
per grid node and refuse grids above ``DYSON_MAX_BYTES``.

``np`` is the package's numpy stand-in until the first numerical call, so
importing this module, as every ``calogero`` command does, does not load numpy.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import _Numpy
from .exactalg import Permutation

np = _Numpy(globals())

__all__ = [
    "ConnectionMatrix",
    "ChamberPath",
    "TransportResult",
    "PathValidationError",
    "TransportStepError",
    "DYSON_MAX_BYTES",
    "MAX_N",
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


# largest particle count: the connection has N! components per point
MAX_N = 5


def _float_sized(value: Fraction, what: str) -> Fraction:
    """Refuse a value whose float overflows: the numeric arrays hold floats."""
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    return value


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
    """Per-coordinate N! x N! connection of the vectorized eigenproblem, in
    Knizhnik-Zamolodchikov form.

    Its data are the momenta ``p`` and one exact coupling per pair, ``q``,
    the pairs a < b in ``itertools.combinations`` order.  Along a velocity v

        sum_k v_k Omega_k(x) = i (v . D) + sum_{a<b} q_ab (v_b - v_a)/(x_a - x_b) L_ab,

    where ``diag[k][row] = p[s^-1(k)]`` for the permutation s of that row
    (``perms`` is S_N in lexicographic order) and ``L_ab`` puts a 1 in row s,
    column ``(a b) * s``: the images of s with the values a and b exchanged.
    Construction refuses N outside 2..``MAX_N``, a ``q`` of the wrong length
    and a value whose float overflows, and derives from this rule, once:

    * ``off[k]``: the exact entries, ``q_ab / (x_a - x_b)`` in Omega_b and its
      negative in Omega_a.
    * Numeric: the flat ``row*d+col`` positions of every ``L_ab``, each with
      its pair and one row of a ``(positions, n)`` float coefficient matrix
      (``-q_ab`` at a, ``q_ab`` at b), plus the float diagonal of shape
      ``(n, d)``.  ``velocity_matrix`` and ``along`` write
      ``(coef @ v) / (x_a - x_b)`` into those positions with one put.
    * Exact: the coefficients as integers over their common denominator, and
      the momenta as integers over theirs, so the flatness residuals at a
      rational point are sums of Python ints.
    """

    p: tuple[Fraction, ...]
    q: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.p)
        if not 2 <= n <= MAX_N:
            raise ValueError(f"N={n} is outside 2..{MAX_N}, the configured cap "
                             f"(N! components)")
        pairs = list(itertools.combinations(range(n), 2))
        if len(self.q) != len(pairs):
            raise ValueError(f"{len(self.q)} couplings for the {len(pairs)} pairs of N={n}")
        p = tuple(_float_sized(Fraction(v), "a momentum") for v in self.p)
        q = tuple(_float_sized(Fraction(v), "a coupling") for v in self.q)
        perms = tuple(Permutation.all_elements(n))
        index = {s.images: i for i, s in enumerate(perms)}
        d = len(perms)
        diag = tuple(tuple(p[s.images.index(k)] for s in perms) for k in range(n))
        off: list[list[_OffEntry]] = [[] for _ in range(n)]
        pos: list[int] = []
        coef = np.zeros((len(pairs) * d, n))
        for i, ((a, b), qab) in enumerate(zip(pairs, q)):
            neg = -qab
            swap = {a: b, b: a}
            for row, s in enumerate(perms):
                col = index[tuple(swap.get(v, v) for v in s.images)]  # (a b) * s
                pos.append(row * d + col)
                off[b].append(_OffEntry(row, col, qab, a, b))
                off[a].append(_OffEntry(row, col, neg, a, b))
            coef[i * d:(i + 1) * d, [a, b]] = float(neg), float(qab)
        pa, pb = np.repeat(np.array(pairs, dtype=np.intp).T, d, axis=1)
        coef_den = math.lcm(*(v.denominator for v in q))
        diag_den = math.lcm(*(v.denominator for v in p))
        derived = {
            "p": p, "q": q, "perms": perms, "diag": diag, "off": tuple(map(tuple, off)),
            "_pos": np.array(pos, dtype=np.intp),
            "_pa": pa,
            "_pb": pb,
            "_coef": coef,
            "_diag": np.array([[float(v) for v in dk] for dk in diag]),
            "_coef_den": coef_den,
            "_diag_den": diag_den,
            "_coef_num": tuple(tuple(_scaled_int(e.coeff, coef_den) for e in off_k)
                               for off_k in off),
            "_diag_num": tuple(tuple(_scaled_int(v, diag_den) for v in dk) for dk in diag),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.p)

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
        out = np.zeros((len(xs), d * d), dtype=complex)
        gaps = xs[:, self._pa]  # in place: a grid's gaps are the largest temporary
        gaps -= xs[:, self._pb]
        out.real[:, self._pos] = np.divide(self._coef @ v, gaps, out=gaps)
        out = out.reshape(len(xs), d, d)
        idx = np.arange(d)
        out[:, idx, idx] = 1j * (v @ self._diag)
        return out if x.ndim > 1 else out[0]

    def along(self, a: np.ndarray, v: np.ndarray) -> Callable[[float, np.ndarray], np.ndarray]:
        """``rhs(t, y) = velocity_matrix(a + t*v, v) @ y`` on the segment
        x(t) = a + t*v.

        The numerators ``coef @ v``, the pair gaps at ``a`` and their rates
        are taken once, and the diagonal ``i (v . D)`` is set once in a
        (d, d) buffer.  A call writes the off-diagonal entries into that
        buffer only when ``t`` differs from the previous call's (the last two
        Dormand-Prince stages share t + h)."""
        a = np.asarray(a, dtype=float)
        v = np.asarray(v, dtype=float)
        d = self.dim
        num = self._coef @ v
        g0 = a[self._pa] - a[self._pb]
        dg = v[self._pa] - v[self._pb]
        pos = self._pos
        buf = np.zeros((d, d), dtype=complex)
        idx = np.arange(d)
        buf[idx, idx] = 1j * (v @ self._diag)
        off = buf.real.reshape(-1)  # a view: the off-diagonal entries are real
        last_t = None

        def rhs(t: float, y: np.ndarray) -> np.ndarray:
            nonlocal last_t
            if t != last_t:
                off[pos] = num / (g0 + t * dg)
                last_t = t
            return buf @ y

        return rhs

    def _phase_matrix(self, dx: np.ndarray) -> np.ndarray:
        """exp(i sum_k dx_k D_k): transport of the diagonal (c=0) part over
        the displacement ``dx``."""
        return np.diag(np.exp(1j * (np.asarray(dx, dtype=float) @ self._diag)))

    # -- exact evaluation (flatness) -------------------------------------

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


def build_local_system(n: int, p: Sequence[Fraction | int],
                       c: Fraction | int) -> ConnectionMatrix:
    """The vectorized connection for N particles, every pair coupled by c.

    The coupling c is the coefficient of the off-diagonal (permutation) part
    of the connection, as dictated by the operator whose eigenproblem is
    vectorized; the diagonal carries the momenta.
    """
    p = tuple(p)
    if len(p) != n:
        raise ValueError(f"{len(p)} momenta for N={n} particles")
    return ConnectionMatrix(p, (Fraction(c),) * (n * (n - 1) // 2))


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


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


def _is_json_number(value) -> bool:
    return type(value) in (int, float)


@dataclass(frozen=True)
class ChamberPath:
    """Piecewise-linear path strictly inside the chamber x_0 < ... < x_{N-1}."""

    waypoints: tuple[tuple[float, ...], ...]
    margin: float = 1e-6

    def __post_init__(self):
        # malformed input raises a plain ValueError, and only a real margin
        # or ordering violation a PathValidationError.  Non-finite values are
        # malformed: every comparison with NaN is false, so the chamber
        # checks below would pass them
        if not math.isfinite(self.margin):
            raise ValueError(f"margin {self.margin} is not finite")
        if self.margin <= 0:
            raise ValueError(f"margin must be positive, got {self.margin}")
        if len(self.waypoints) < 1:
            raise ValueError("path needs at least one waypoint")
        n = len(self.waypoints[0])
        if n < 2:
            raise ValueError(f"path needs at least two coordinates, got {n}")
        for w in self.waypoints:
            if len(w) != n:
                raise ValueError("inconsistent waypoint dimensions")
            if not all(math.isfinite(v) for v in w):
                raise ValueError(f"waypoint {w} is not finite")
        for w in self.waypoints:
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
        """Build a path from parsed JSON.  ``N`` must be a JSON integer and the
        margin and every coordinate JSON numbers; a float, a bool or a string
        in their place raises ``ValueError``."""
        try:
            n, rows, margin = data["N"], data["waypoints"], data.get("margin", 1e-6)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed path data: {exc}") from exc
        if type(n) is not int:
            raise ValueError(f"N must be an integer, got {n!r}")
        if not _is_json_number(margin):
            raise ValueError(f"margin must be a number, got {margin!r}")
        if not (isinstance(rows, list)
                and all(isinstance(w, list) and all(map(_is_json_number, w)) for w in rows)):
            raise ValueError("waypoints must be lists of numbers")
        if any(len(w) != n for w in rows):
            raise ValueError("waypoint dimension disagrees with N")
        try:
            waypoints = tuple(tuple(float(v) for v in w) for w in rows)
            margin = float(margin)
        except OverflowError as exc:
            raise ValueError(f"malformed path data: {exc}") from exc
        return cls(waypoints, margin)

    @classmethod
    def load(cls, path: str) -> "ChamberPath":
        """Read a path file.  An unreadable file raises ``OSError``; text that
        is not JSON, or holds NaN or Infinity, raises ``ValueError``."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh, parse_constant=_reject_constant)
            except ValueError as exc:  # json.JSONDecodeError included
                raise ValueError(f"malformed path JSON: {exc}") from exc
        return cls.from_json(data)

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

# Row s of _DP_A weights the stages before s.  Row 6 holds the fifth-order
# weights, so the last stage is f(t + h, y5) and, once the step is accepted,
# the first stage of the next one (first same as last).  The tables are plain
# floats so that importing the module does not load numpy.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0),
    (3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0),
    (44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
          187 / 2100, 1 / 40)

_MIN_STEP = 1e-14


def _integrate_dp45(fun: Callable[[float, np.ndarray], np.ndarray],
                    t0: float, t1: float, y0: np.ndarray, tol: float,
                    max_step: Callable[[float], float]) -> tuple[np.ndarray, dict]:
    """One-directional embedded Dormand-Prince integration of y' = fun(t, y).

    The stages live in one stacked array; each stage input and both
    solutions are a single contraction of the tableau row with that stack.
    When the step size underflows, raises ``OverflowError`` if the last error
    estimate was not finite (the solution overflowed) and
    :class:`TransportStepError` otherwise.
    """
    t, y = t0, y0
    h = min(t1 - t0, max_step(t0))
    steps = 0
    rejected = 0
    max_err = 0.0
    err = 0.0
    shape = np.shape(y0)
    k = np.empty((7, np.size(y0)), dtype=complex)  # stage s, flattened
    dp_a, dp_b4 = np.array(_DP_A), np.array(_DP_B4)
    # an overflowing solution shows as a non-finite error estimate, which
    # rejects every step until the step size underflows
    with np.errstate(over="ignore", invalid="ignore"):
        k[0] = fun(t, y).ravel()
        while t < t1:
            h = min(h, t1 - t, max_step(t))
            if h < _MIN_STEP:
                if not math.isfinite(err):
                    raise OverflowError(f"the transported frame overflowed at t={t:.6g}")
                raise TransportStepError(
                    f"step size underflow at t={t:.6g} (chamber margin too tight)")
            for s in range(1, 7):
                ys = y + h * (dp_a[s, :s] @ k[:s]).reshape(shape)
                k[s] = fun(t + _DP_C[s] * h, ys).ravel()
            y5 = ys
            y4 = y + h * (dp_b4 @ k).reshape(shape)
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
    the distance to the nearest chamber wall.  A frame that overflows (a
    coupling or momenta too large for float transport) raises ``ValueError``
    naming the segment; a step size that underflows with a finite error
    estimate raises :class:`TransportStepError`.
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

        def max_step(t: float, a=a, v=v, speed=speed) -> float:
            x = a + t * v
            return max(_wall_margin(x) / (2.0 * speed), _MIN_STEP * 10)

        try:
            w, seg_stats = _integrate_dp45(conn.along(a, v), 0.0, 1.0, w, tol, max_step)
        except OverflowError as exc:
            coupling = max(map(abs, conn.q))
            raise ValueError(
                f"{exc} on segment {a.tolist()} -> {b.tolist()}: the coupling "
                f"|c| = {float(coupling):.6g} or the momenta "
                f"p = {[float(q) for q in conn.p]} are too large for float transport"
            ) from None
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
                   lam_max: float, tol: float = 1e-10) -> dict:
    """Transport outward along the dilation ray x -> lam*x and report the
    lam-dependence of the frame after stripping the free phases.

    Exploratory: successive differences of the stripped frames are reported,
    not asserted to converge.
    """
    point = [float(v) for v in base_point]
    if len(point) != conn.n:
        raise ValueError(f"base point has {len(point)} coordinates for N={conn.n}")
    if not all(map(math.isfinite, point)):
        raise ValueError(f"base point {tuple(point)} is not finite")
    x0 = np.asarray(point, dtype=float)
    if np.min(np.diff(x0)) <= 0:
        raise PathValidationError("base point must be strictly ordered")
    if not math.isfinite(lam_max):
        raise ValueError(f"lam_max {lam_max} is not finite")
    if lam_max < 1:
        raise ValueError("lam_max must be >= 1")
    lambdas = [1.0]
    while lambdas[-1] < lam_max:
        lambdas.append(min(lambdas[-1] * 2.0, lam_max))
    margin = 0.5 * float(np.min(np.diff(x0)))  # the gaps only grow along the ray

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


def random_chamber_point(n: int, rng) -> tuple[Fraction, ...]:
    """Strictly ordered exact rational point with gaps a/b >= 1/4 (a <= 12, b <= 4)."""
    x = Fraction(rng.randint(-24, 24), rng.randint(1, 4))
    out = [x]
    for _ in range(n - 1):
        x = x + Fraction(rng.randint(1, 12), rng.randint(1, 4))
        out.append(x)
    return tuple(out)


def equivariance_check(conn_p: ConnectionMatrix, conn_sp: ConnectionMatrix,
                       sigma: Permutation) -> dict:
    """Exact identity ``Omega_k(sigma . p) = R Omega_k(p) R^-1`` for the one
    right regular action ``rho(s) = s * sigma``.

    The action is derived, not searched: with ``(sigma . p)_j =
    p_{sigma^-1(j)}``, row ``s`` of ``Omega_k(sigma . p)`` is row
    ``s * sigma`` of ``Omega_k(p)`` with every column relabelled the same way.
    The diagonals are compared momentum by momentum.  The off-diagonal
    coefficients of each side are summed by ``(row, col, a, b)``, zero totals
    dropped, after relabelling ``conn_p``'s rows and columns by ``rho^-1``.
    Each entry is ``coeff / (x_a - x_b)`` and these functions are linearly
    independent for distinct pairs, so equal coefficients make the identity
    hold at every point of the chamber: no point is evaluated.
    """
    n = conn_p.n
    if conn_sp.n != n:
        raise ValueError("systems have different sizes")
    if sigma.size != n:
        raise ValueError(f"sigma acts on {sigma.size} slots, not on N={n}")
    index = {s.images: i for i, s in enumerate(conn_p.perms)}
    rho = [index[(s * sigma).images] for s in conn_sp.perms]
    back = [0] * len(rho)  # rho^-1: conn_p's label -> conn_sp's
    for r, pr in enumerate(rho):
        back[pr] = r
    failures = []
    for k in range(n):
        for r, pr in enumerate(rho):
            expected, found = conn_p.diag[k][pr], conn_sp.diag[k][r]
            if expected != found:
                failures.append({"k": k, "entry": f"{r},{r}", "pair": None,
                                 "expected": str(expected), "found": str(found)})
        ep = _coefficients(conn_p, k, back)
        es = _coefficients(conn_sp, k, range(len(rho)))
        for key in sorted(ep.keys() | es.keys()):
            expected, found = ep.get(key, Fraction(0)), es.get(key, Fraction(0))
            if expected != found:
                row, col, a, b = key
                failures.append({"k": k, "entry": f"{row},{col}", "pair": [a, b],
                                 "expected": str(expected), "found": str(found)})
    return {"identity": "equivariance", "N": n, "caseCount": n,
            "failures": failures}


def _coefficients(conn: ConnectionMatrix, k: int,
                  label: Sequence[int]) -> dict[tuple[int, int, int, int], Fraction]:
    """Omega_k's off-diagonal coefficients keyed by ``(label[row],
    label[col], a, b)``, equal keys summed and zero totals dropped."""
    out: dict[tuple[int, int, int, int], Fraction] = {}
    for e in conn.off[k]:
        key = (label[e.row], label[e.col], e.a, e.b)
        out[key] = out.get(key, 0) + e.coeff
    return {key: q for key, q in out.items() if q}
