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
multiplication ``sigma -> (a b) * sigma``, whose column in each row is a table
built once per N.  Numeric evaluation is one put of ``(coef @ v) / (x_a - x_b)``
into the positions of every ``L_ab``; on a segment x = a + t v the numerators
and the gaps' rates are fixed, so the Dormand-Prince driver for the linear
system y' = A(t) y gets the seven stage matrices of a step from one put into
a preset stack.  Exact flatness scales each point's residuals to integers:
with L the lcm of the numerators of the pair differences, each pair's
``q_ab L / (x_a - x_b)`` is an integer over the couplings' common denominator,
taken once per point.  Each pair's term ``q_ab L_ab d log(x_a - x_b)`` is
closed, so the real residual is the commutator alone, and the imaginary one
reads momentum differences taken once per call: sums of Python ints walked
through the column tables, where only a nonzero total becomes a ``Fraction``.
Momentum equivariance needs no point: it is an identity of the exact entries
under one derived relabelling of the components.  The iterated integrals hold
three complex d x d matrices per grid node and refuse grids above
``DYSON_MAX_BYTES`` and orders above ``DYSON_MAX_ORDER``.

``np`` is the package's numpy stand-in until the first numerical call, so
importing this module, as every ``calogero`` command does, does not load numpy.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from . import _Numpy, _Record
from .exactalg import Permutation

np = _Numpy(globals())

__all__ = [
    "ConnectionMatrix",
    "ChamberPath",
    "TransportResult",
    "PathValidationError",
    "TransportStepError",
    "DYSON_MAX_BYTES",
    "DYSON_MAX_ORDER",
    "MAX_N",
    "MIN_TOL",
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


@functools.cache
def _regular_tables(n: int):
    """S_N in lexicographic order, its row of each permutation (keyed by
    ``images``), the pairs a < b in ``itertools.combinations`` order, each
    pair's column of ``(a b) * s`` in every row s, and read-only index arrays:
    the flat ``row*d+col`` positions and the pair of each."""
    perms = tuple(Permutation.all_elements(n))
    index = {s.images: i for i, s in enumerate(perms)}
    pairs = tuple(itertools.combinations(range(n), 2))
    cols = tuple(tuple(index[tuple(b if v == a else a if v == b else v for v in s.images)]
                       for s in perms) for a, b in pairs)
    d = len(perms)
    pos = (np.array(cols, dtype=np.intp) + np.arange(0, d * d, d)).ravel()
    pa, pb = np.repeat(np.array(pairs, dtype=np.intp).T, d, axis=1)
    for arr in (pos, pa, pb):
        arr.flags.writeable = False
    return perms, index, pairs, cols, pos, pa, pb


class ConnectionMatrix(_Record):
    """Per-coordinate N! x N! connection of the vectorized eigenproblem, in
    Knizhnik-Zamolodchikov form.

    Its data are the momenta ``p`` and one exact coupling per pair, ``q``,
    the pairs a < b in ``itertools.combinations`` order.  Along a velocity v

        sum_k v_k Omega_k(x) = i (v . D) + sum_{a<b} q_ab (v_b - v_a)/(x_a - x_b) L_ab,

    where ``diag[k][row] = p[s^-1(k)]`` for the permutation s of that row
    (``perms``: S_N in lexicographic order) and ``L_ab`` puts a 1 in row s,
    column ``(a b) * s``.  The constructor ``ConnectionMatrix(p, q)`` is the
    one way to build a connection.  It refuses N outside 2..``MAX_N``, a
    ``q`` of the wrong length and a value whose float overflows, reads S_N and
    the columns from ``_regular_tables``, and derives the float diagonal and a
    ``(positions, n)`` coefficient matrix (``-q_ab`` at a, ``q_ab`` at b) for
    the puts of ``velocity_matrix`` and ``stages``.  The exact checks read
    ``p``, ``q``, ``diag`` and the column tables themselves: Omega_k's
    off-diagonal entries are ``q_ab / (x_a - x_b)`` at row s, column
    ``(a b) * s`` for every pair with b = k, and their negatives for a = k.
    """

    _fields = ("p", "q")

    def __init__(self, p: Sequence[Fraction], q: Sequence[Fraction]):
        n = len(p)
        if not 2 <= n <= MAX_N:
            raise ValueError(f"N={n} is outside 2..{MAX_N}, the configured cap "
                             f"(N! components)")
        if len(q) != n * (n - 1) // 2:
            raise ValueError(f"{len(q)} couplings for the {n * (n - 1) // 2} pairs of N={n}")
        p = tuple(_float_sized(Fraction(v), "a momentum") for v in p)
        q = tuple(_float_sized(Fraction(v), "a coupling") for v in q)
        perms, _, pairs, cols, pos, pa, pb = _regular_tables(n)
        diag = tuple(tuple(p[s.images.index(k)] for s in perms) for k in range(n))
        coef = np.zeros((len(pairs), n))
        for i, ((a, b), qab) in enumerate(zip(pairs, q)):
            coef[i, [a, b]] = float(-qab), float(qab)
        self.__dict__.update(
            p=p, q=q, perms=perms, diag=diag, _pairs=pairs, _cols=cols,
            _pos=pos, _pa=pa, _pb=pb, _coef=np.repeat(coef, len(perms), axis=0),
            _diag=np.array([[float(v) for v in dk] for dk in diag]))

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

    def stages(self, a: np.ndarray, v: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """``put(ts)``: ``velocity_matrix(a + t*v, v)`` at the seven stage
        times ``ts`` of a step, as one (7, d, d) stack that the next call
        overwrites.  The numerators ``coef @ v``, the gaps at ``a``, their
        rates and the diagonal ``i (v . D)`` are set once; a call writes the
        real off-diagonal entries at all seven times with one put."""
        a, v, d = np.asarray(a, dtype=float), np.asarray(v, dtype=float), self.dim
        num = self._coef @ v
        g0 = a[self._pa] - a[self._pb]
        dg = v[self._pa] - v[self._pb]
        stack = np.zeros((len(_DP_C), d, d), dtype=complex)
        stack.reshape(len(_DP_C), d * d)[:, ::d + 1] = 1j * (v @ self._diag)
        off = stack.real.reshape(len(_DP_C), d * d)  # a view, as is the reshape above
        pos = self._pos

        def put(ts: np.ndarray) -> np.ndarray:
            off[:, pos] = num / (g0 + ts[:, None] * dg)
            return stack

        return put

    def _phase_matrix(self, dx: np.ndarray) -> np.ndarray:
        """exp(i sum_k dx_k D_k): transport of the diagonal (c=0) part over
        the displacement ``dx``."""
        return np.diag(np.exp(1j * (np.asarray(dx, dtype=float) @ self._diag)))


def _inverse_differences(point: Sequence[Fraction]) -> tuple[int, list[int]]:
    """L, the lcm of the numerators of the pair differences x_a - x_b, and the
    integer weight ``L / (x_a - x_b)`` of each pair a < b, in
    ``itertools.combinations`` order.

    Raises :class:`PathValidationError` unless the point is strictly ordered,
    which also keeps every difference away from zero.
    """
    n = len(point)
    for i in range(n - 1):
        if point[i] >= point[i + 1]:
            raise PathValidationError(f"point {point} is not strictly ordered")
    diffs = [point[a] - point[b] for a, b in itertools.combinations(range(n), 2)]
    lcm = math.lcm(*(dv.numerator for dv in diffs))
    return lcm, [lcm * dv.denominator // dv.numerator for dv in diffs]


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


def _curvature(d: int, walk, diffs, j: int, k: int):
    """Scaled curvature of the pair j < k as two dicts of its nonzero entries
    keyed by ``row*d+col``, in the order the terms are accumulated;
    ``walk[k]`` lists Omega_k's pairs as ``(columns of L_ab, scaled entry,
    pair index)`` and ``diffs[i][pair]`` the nonzero ``(row*d+col,
    D_i[row] - D_i[col])`` at that pair's positions.  With R the off-diagonal
    and D the constant diagonal parts, the real part is d_j R_k - d_k R_j
    + [R_j, R_k] and the imaginary part [D_j, R_k] - [D_k, R_j].  The
    derivative terms cancel for every input, as each pair's term
    q_ab L_ab d log(x_a - x_b) is closed: R_k depends on x_j only through the
    pair (j, k), whose entry is q / (x_j - x_k) in Omega_k and its negative in
    Omega_j at the same positions, so d_j R_k and d_k R_j are both
    -q L_jk / (x_j - x_k)^2.  The real part is [R_j, R_k], scaled by
    (coef_den * L)^2; the imaginary part is scaled by diag_den * coef_den * L."""
    # L_cd L_ab is the left multiplication by one permutation, known by its
    # column in row 0: the products of [R_j, R_k] are summed per permutation,
    # in the order they first appear, and a nonzero sum is walked down the
    # rows.  Distinct permutations have distinct columns in a row, so no two
    # sums meet at a key
    sums: dict[int, list] = {}
    for first, second, sign in ((walk[j], walk[k], 1), (walk[k], walk[j], -1)):
        for cols_a, va, _ in first:
            for cols_b, vb, _ in second:
                group = sums.setdefault(cols_b[cols_a[0]], [cols_a, cols_b, 0])
                group[2] += sign * va * vb
    real = {r * d + cols_b[cols_a[r]]: total for r in range(d)
            for cols_a, cols_b, total in sums.values() if total}
    # both passes walk the pair (j, k), at the same keys, so totals can cancel
    imag: dict[int, int] = {}
    for sign, kk, i in ((1, k, j), (-1, j, k)):
        for _, v, pair in walk[kk]:
            for key, dv in diffs[i][pair]:
                imag[key] = imag.get(key, 0) + sign * dv * v
    return real, {key: v for key, v in imag.items() if v}


def verify_flatness(conn: ConnectionMatrix, points: Sequence[Sequence[Fraction]]) -> dict:
    """Exact curvature d_j Omega_k - d_k Omega_j + [Omega_j, Omega_k] at each
    point; returns a report with any nonzero residual entries.

    The momentum differences over every pair's positions are taken once per
    call and each pair's scaled value ``q_ab L / (x_a - x_b)`` once per
    point; the residuals are integer sums over the column tables (see
    ``_curvature``), and only a nonzero total becomes a ``Fraction``.
    """
    failures = []
    d = conn.dim
    # q as integers over their common denominator, diag over p's
    coef_den = math.lcm(*(v.denominator for v in conn.q))
    coef_num = [v.numerator * (coef_den // v.denominator) for v in conn.q]
    diag_den = math.lcm(*(v.denominator for v in conn.p))
    diag_num = [[v.numerator * (diag_den // v.denominator) for v in dk] for dk in conn.diag]
    diffs = [[[(row * d + col, dn[row] - dn[col]) for row, col in enumerate(cols)
               if dn[row] != dn[col]] for cols in conn._cols] for dn in diag_num]
    for point in points:
        lcm, weights = _inverse_differences([Fraction(v) for v in point])
        walk: list[list] = [[] for _ in range(conn.n)]
        for pair, ((a, b), num, cols, w) in enumerate(
                zip(conn._pairs, coef_num, conn._cols, weights)):
            walk[b].append((cols, num * w, pair))
            walk[a].append((cols, -num * w, pair))
        real_scale = (coef_den * lcm) ** 2
        imag_scale = diag_den * coef_den * lcm
        for j, k in conn._pairs:
            real, imag = _curvature(d, walk, diffs, j, k)
            if real or imag:
                failures.append({
                    "point": [str(v) for v in point],
                    "pair": [j, k],
                    "real": {"%d,%d" % divmod(key, d): str(Fraction(v, real_scale))
                             for key, v in real.items()},
                    "imag": {"%d,%d" % divmod(key, d): str(Fraction(v, imag_scale))
                             for key, v in imag.items()},
                })
    return {"identity": "flatness", "N": conn.n, "pointCount": len(points),
            "caseCount": len(points) * len(conn._pairs), "failures": failures}


# -- chamber paths -------------------------------------------------------------


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not allowed")


def _is_json_number(value) -> bool:
    return type(value) in (int, float)


class ChamberPath(_Record):
    """Piecewise-linear path strictly inside the chamber x_0 < ... < x_{N-1}."""

    _fields = ("waypoints", "margin")

    def __init__(self, waypoints: tuple[tuple[float, ...], ...], margin: float = 1e-6):
        # copied, so that the caller's lists cannot change a validated path
        waypoints = tuple(map(tuple, waypoints))
        # malformed input raises a plain ValueError, and only a real margin
        # or ordering violation a PathValidationError.  Non-finite values are
        # malformed: every comparison with NaN is false, so the chamber
        # checks below would pass them
        if not math.isfinite(margin):
            raise ValueError(f"margin {margin} is not finite")
        if margin <= 0:
            raise ValueError(f"margin must be positive, got {margin}")
        if len(waypoints) < 1:
            raise ValueError("path needs at least one waypoint")
        n = len(waypoints[0])
        if n < 2:
            raise ValueError(f"path needs at least two coordinates, got {n}")
        for w in waypoints:
            if len(w) != n:
                raise ValueError("inconsistent waypoint dimensions")
            if not all(math.isfinite(v) for v in w):
                raise ValueError(f"waypoint {w} is not finite")
        for w in waypoints:
            gaps = [w[i + 1] - w[i] for i in range(n - 1)]
            if min(gaps) < margin:
                raise PathValidationError(
                    f"waypoint {w} violates the chamber margin {margin}")
        # linear interpolation of two margin-respecting points stays inside:
        # each gap is linear in t, so its minimum sits at an endpoint
        self.__dict__.update(waypoints=waypoints, margin=margin)

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


class TransportResult(NamedTuple):
    matrix: np.ndarray
    method: str
    step_stats: dict


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

# smallest local error tolerance: an error estimate is the difference of two
# rounded solutions, so one far below epsilon asks what no step size can give
MIN_TOL = 10 * math.ulp(1.0)


def _integrate_dp45(stages: Callable[[np.ndarray], np.ndarray],
                    y0: np.ndarray, tol: float,
                    max_step: Callable[[float], float]) -> tuple[np.ndarray, dict]:
    """Embedded Dormand-Prince integration of the linear system y' = A(t) y
    from t = 0 to t = 1, where ``stages(ts)`` returns the stack of the seven
    matrices A(ts[s]) at the stage times ``ts = t + c h`` of a step.

    Each stage input and both solutions are one contraction of a complex
    tableau row with the stack of stage derivatives.  An underflowing step
    size raises ``OverflowError`` if the last error estimate was not finite
    (the solution overflowed), else :class:`TransportStepError`."""
    t, y, h = 0.0, y0, 1.0
    steps = rejected = 0
    max_err = err = 0.0
    shape = np.shape(y0)
    k = np.empty((7,) + shape, dtype=complex)  # stage s
    flat = k.reshape(7, -1)
    nodes = np.array(_DP_C)
    dp_a, dp_b4 = np.array(_DP_A, dtype=complex), np.array(_DP_B4, dtype=complex)
    # an overflowing solution shows as a non-finite error estimate, which
    # rejects every step until the step size underflows
    with np.errstate(over="ignore", invalid="ignore"):
        while t < 1.0:
            h = min(h, 1.0 - t, max_step(t))
            if h < _MIN_STEP:
                if not math.isfinite(err):
                    raise OverflowError(f"the transported frame overflowed at t={t:.6g}")
                raise TransportStepError(
                    f"step size underflow at t={t:.6g} (chamber margin too tight)")
            a_s = stages(t + nodes * h)
            if steps == rejected == 0:  # later steps reuse the last stage
                np.matmul(a_s[0], y, out=k[0])
            for s in range(1, 7):
                ys = y + h * (dp_a[s, :s] @ flat[:s]).reshape(shape)
                np.matmul(a_s[s], ys, out=k[s])
            y4 = y + h * (dp_b4 @ flat).reshape(shape)
            scale = tol * (1.0 + np.abs(y).max())
            err = np.abs(ys - y4).max() / scale
            if err <= 1.0:
                t += h
                y = ys
                k[0] = k[6]
                steps += 1
                max_err = max(max_err, float(err * scale))
            else:
                rejected += 1
            h *= min(5.0, max(0.2, 0.9 * (err + 1e-300) ** -0.2))
    return y, {"steps": steps, "rejected": rejected, "maxLocalError": max_err}


def _step_cap(a: np.ndarray, v: np.ndarray, speed: float) -> Callable[[float], float]:
    """t -> half the distance from a + t*v to the nearest chamber wall, over the
    speed, and at least ``10 * _MIN_STEP``: ``min(diff(a + t*v)) / sqrt(2) /
    (2 speed)`` on Python floats, in the same operations and order."""
    av, root2, twice = list(zip(a.tolist(), v.tolist())), math.sqrt(2.0), 2.0 * speed

    def cap(t: float) -> float:
        x = [ai + t * vi for ai, vi in av]
        return max(min([x1 - x0 for x0, x1 in zip(x, x[1:])]) / root2 / twice, _MIN_STEP * 10)

    return cap


def transport_ode(conn: ConnectionMatrix, path: ChamberPath,
                  tol: float = 1e-10) -> TransportResult:
    """Solve dW/dt = (sum_k xdot_k Omega_k(x(t))) W along the path, W(0) = 1.

    The adaptive step is capped so a single step never moves farther than half
    the distance to the nearest chamber wall.  A tolerance below ``MIN_TOL``,
    or a frame that overflows (a coupling or momenta too large for float
    transport, the segment named), raises ``ValueError``; a step size that
    underflows with a finite error estimate raises :class:`TransportStepError`.
    """
    if path.n != conn.n:
        raise PathValidationError("path dimension does not match the system")
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(f"tolerance {tol} must be finite and at least MIN_TOL = {MIN_TOL!r}")
    d = conn.dim
    w = np.eye(d, dtype=complex)
    stats = {"steps": 0, "rejected": 0, "maxLocalError": 0.0}
    for a, b in path.segments():
        v = b - a
        speed = float(np.linalg.norm(v))
        if speed == 0.0:
            continue
        try:
            w, seg_stats = _integrate_dp45(conn.stages(a, v), w, tol,
                                           _step_cap(a, v, speed))
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

# Bound on the series order of transport_dyson: each order is one d x d
# product and one quadrature per grid node, about 0.55 ms per node at N=5
# (d=120) on a 2-vCPU Xeon, so at the largest N=5 grid DYSON_MAX_BYTES allows
# (about 770 nodes, 0.43 s per order) this bound is about two minutes
DYSON_MAX_ORDER = 256


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
    An order above ``DYSON_MAX_ORDER``, or a grid whose node stacks would
    exceed ``DYSON_MAX_BYTES``, is refused with ``ValueError`` before anything
    is allocated.
    """
    if order < 1:
        raise ValueError("series order must be >= 1")
    if order > DYSON_MAX_ORDER:
        raise ValueError(f"series order {order} is above DYSON_MAX_ORDER = {DYSON_MAX_ORDER}")
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
            # numpy divides a complex by a real by multiplying both parts by
            # the rounded reciprocal, so these products equal the quotients
            # up to the sign of a zero part, which adding carry (+0.0 from the
            # start) clears; the multiply costs about a quarter of the divide
            np.cumsum(h * (f0 + 4 * f1 + f2) * (1 / 3), axis=0, out=cum[2::2])
            cum[1::2] = cum[:-1:2] + h * (5 * f0 + 8 * f1 - f2) * (1 / 12)
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
    The diagonals are compared momentum by momentum.  The nonzero
    off-diagonal coefficients of each side are keyed by ``(row, col, a, b)``,
    a key that never repeats (see ``_coefficients``), after relabelling
    ``conn_p``'s rows and columns by ``rho^-1``.
    Each entry is ``coeff / (x_a - x_b)`` and these functions are linearly
    independent for distinct pairs, so equal coefficients make the identity
    hold at every point of the chamber: no point is evaluated.
    """
    n = conn_p.n
    if conn_sp.n != n:
        raise ValueError("systems have different sizes")
    if sigma.size != n:
        raise ValueError(f"sigma acts on {sigma.size} slots, not on N={n}")
    perms, index = _regular_tables(n)[:2]
    rho = [index[(s * sigma).images] for s in perms]
    back = [index[(s * sigma.inverse()).images] for s in perms]  # rho^-1
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
    """Omega_k's nonzero off-diagonal coefficients keyed by ``(label[row],
    label[col], a, b)``: ``q_ab`` when k = b and ``-q_ab`` when k = a.

    Nothing is summed, as no two entries share a key: distinct pairs differ
    in ``(a, b)``, and ``label`` is a bijection on the rows, so one pair's
    rows stay distinct.  A zero coupling gives no entry."""
    return {(label[row], label[col], a, b): qab if k == b else -qab
            for (a, b), qab, cols in zip(conn._pairs, conn.q, conn._cols)
            if qab and k in (a, b) for row, col in enumerate(cols)}
