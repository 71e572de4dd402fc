"""Lax matrix of the classical inverse-square model and trajectory checks.

The Hermitian matrix ``P`` with momenta on the diagonal and
``i g/(x_j - x_k)`` off-diagonal, ``g = sqrt(g2)`` (Moser's Lax matrix), has
conserved trace powers along the Hamiltonian flow of

    H = sum_i (p_i^2/2 + omega^2 x_i^2/2) + sum_{i<j} g^2/(x_i - x_j)^2

at ``omega = 0``.  At ``omega > 0`` they are not conserved; the trace powers
of ``L+ L-`` are, with ``L+- = P +- i omega Q`` and ``Q = diag(x)``.  At
``g2 = 0`` P is ``diag(p)``.

Every pair quantity (the Lax matrix, the potential, the forces and the
explicit cubic trace) is read from one array ``inv[..., i, j] =
1/(x_i - x_j)`` with a zero diagonal, built for one state or for a stack of
states at once.

The simulator (fixed-step RK4) steps first and measures in blocks.  A
``PhasePoint`` is validated once; the stepping loop then carries the
positions, momenta and force, and each step is one ``_rk4_step`` call whose
new positions and momenta are appended to two flat buffers.  Each full or
final block is viewed as (rows, N) arrays and tested once: its first state
that is not strictly ordered or not finite is the collision, reported at that
state's step.  The step runs on plain Python floats, in a kernel generated
once per particle count and per omega = 0 or not: straight-line source on
scalar locals ``x0, x1, ...``, with no loop or list indexing inside a step,
compiled with ``exec`` and cached.  At omega = 0 the kernel has no trap term,
which there would subtract ``0.0 * y``.  Each of its force evaluations
divides every pair once, in row-major order, so each row sum adds its terms
left to right; every float operation runs in the order a numpy reference of
the step runs it below eight particles, which the tests hold bit for bit.  At
three or four particles a step takes about a quarter of the time of a loop
over lists and a tenth of a step on numpy arrays, and from about eighteen
particles on a numpy step would be faster; the whole loop takes 2.9 us per
step at N=3 and omega = 0 (the README gives the measured times, the machine
and the compile cost).  Each full or final block is then measured at once:
one stacked pair array gives H and the invariants 1..jmax of every state,
the drift is taken over every step, and every ``sample_stride``-th state is
kept.  Each trace power is read from two powers, tr M^j = tr(M^a M^b) with
a = j // 2 and b = j - a, as one ``einsum``, so a block takes
ceil(jmax / 2) - 1 stacked products (one at the default jmax = 4, and one
more for L+ L- at omega > 0) and no per-row trace reduce; at N=3 and 4 that
measures a block in about a third of the time of jmax - 1 products and
``np.trace``.  ``duration / dt`` is capped at ``MAX_STEPS``, the particle
count at ``MAX_PARTICLES`` and ``jmax`` at ``MAX_JMAX``, and a
``sample_stride`` above the step count keeps the first and the last state.

``exact_positions`` gives the positions of the exact flow, the eigenvalues
of Q0 + t L0 (omega = 0) or of Q0 cos(omega t) + L0 sin(omega t) / omega,
an oracle the tests hold the RK4 trajectory to.

The rank-two constant matrix ``I - e e^T`` driving the reduction has
spectrum {1 (N-1 times), 1-N}.

``np`` is the package's numpy stand-in until the first numerical call, so
importing this module, as every ``calogero`` command does, does not load numpy.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

from . import _Numpy, _Record

np = _Numpy(globals())

__all__ = [
    "PhasePoint",
    "CollisionError",
    "build_lax",
    "trace_integrals",
    "trace_p3_explicit",
    "exact_positions",
    "integrate",
    "Trajectory",
    "noether_matrix",
    "hamiltonian",
    "MAX_STEPS",
    "MAX_PARTICLES",
    "MAX_JMAX",
]


# ``duration / dt`` above this is refused before anything runs: a few minutes
# of stepping at N=3, a hundred times the longest acceptance run
MAX_STEPS = 10_000_000

# largest particle count ``integrate`` steps: the generated RK4 kernel grows as
# N^2 (at N=100, 100k lines that compile in 0.6 s with a 248 MB peak on a
# 2-vCPU Xeon)
MAX_PARTICLES = 100

# largest trace power ``integrate`` tracks: a block holds (rows, jmax) floats
# twice, and no power above N adds an independent invariant (Cayley-Hamilton)
MAX_JMAX = 1024

# bytes of one stacked complex n x n array over a block of states; sets the
# block length, so a block's memory does not grow with N
_BLOCK_BYTES = 1 << 18


class CollisionError(RuntimeError):
    """Particle ordering violated during integration."""

    def __init__(self, time: float):
        self.time = time
        super().__init__(f"particle collision (ordering violated) at t={time:.6g}")


class PhasePoint(_Record):
    """Positions (strictly increasing), momenta, coupling g^2 and frequency,
    all finite, with a finite omega^2 and harmonic force omega^2 x_i."""

    _fields = ("x", "p", "g2", "omega")

    def __init__(self, x: tuple[float, ...], p: tuple[float, ...], g2: float = 1.0,
                 omega: float = 0.0):
        # copied, so that the caller's lists cannot change a validated state
        x, p = tuple(x), tuple(p)
        if len(x) != len(p):
            raise ValueError("position and momentum dimensions differ")
        if len(x) < 2:
            raise ValueError("need at least two particles")
        if not all(math.isfinite(v) for v in (*x, *p, g2, omega)):
            raise ValueError("positions, momenta, g2 and omega must be finite")
        if any(b <= a for a, b in zip(x, x[1:])):
            raise ValueError("positions must be strictly increasing")
        if g2 < 0 or omega < 0:
            raise ValueError("g2 and omega must be nonnegative")
        # the force and H take omega ** 2, which raises OverflowError where
        # the square is not finite
        w = omega * omega
        if not math.isfinite(w):
            raise ValueError(f"omega**2 must be finite: omega={omega!r}")
        # an inf harmonic force would make the first step's positions
        # non-finite, which the stepper reports as a collision
        for v in x:
            if not math.isfinite(w * v):
                raise ValueError(f"the harmonic force omega**2 * x must be finite: "
                                 f"omega={omega!r}, x={v!r}")
        self.__dict__.update(x=x, p=p, g2=g2, omega=omega)

    @property
    def n(self) -> int:
        return len(self.x)


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable view of the diagonals of a fresh stack of square matrices."""
    n = a.shape[-1]
    return a.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1]


def _inverse_differences(x: np.ndarray) -> np.ndarray:
    """inv[..., i, j] = 1/(x_i - x_j), with zeros on the diagonal, for states
    x of shape (..., n)."""
    diff = x[..., :, None] - x[..., None, :]
    _diagonal(diff)[...] = np.inf
    return 1.0 / diff


def _lax(p: np.ndarray, inv: np.ndarray, g: float) -> np.ndarray:
    out = 1j * g * inv
    _diagonal(out)[...] = p
    return out


def _invariant_matrix(x: np.ndarray, p: np.ndarray, inv: np.ndarray, g: float,
                      omega: float) -> np.ndarray:
    """The matrix whose trace powers the flow conserves: P at omega = 0, and
    L+ L- at omega > 0, with L+- = P +- i omega Q and Q = diag(x).

    L- is the adjoint of L+, so L+ L- is Hermitian and its traces are real."""
    lax = _lax(p, inv, g)
    if omega == 0:
        return lax
    _diagonal(lax)[...] += 1j * omega * x
    return lax @ lax.conj().swapaxes(-2, -1)


def _trace_powers(m: np.ndarray, jmax: int) -> np.ndarray:
    """tr m^1..tr m^jmax, real parts, of a stack of Hermitian matrices.

    Each trace is read from two powers, tr m^j = tr(m^a m^b) with
    a = j // 2 and b = j - a, as one ``einsum`` over the stack, so a stack
    needs ceil(jmax / 2) - 1 products (one at jmax = 4) and holds at most
    two powers: ``high`` = m^b steps up at odd j, and ``low`` = m^a takes
    its value at even j > 2."""
    out = np.empty(m.shape[:-2] + (jmax,))
    out[..., 0] = np.einsum("...ii->...", m).real
    low = high = m
    for j in range(2, jmax + 1):
        if j % 2:
            high = high @ m
        elif j > 2:
            low = high
        out[..., j - 1] = np.einsum("...ij,...ji->...", low, high).real
    return out


def _square(v: np.ndarray) -> np.ndarray:
    """v @ v over the last axis, summed as ``@`` sums one vector."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _energy(x: np.ndarray, p: np.ndarray, inv: np.ndarray, g2: float,
            omega: float) -> np.ndarray:
    # the pair sum runs over ordered pairs, so it counts each pair twice.  At
    # omega = 0 the harmonic term is left out: 0.0 * |x|^2 is NaN where |x|^2
    # overflows, and elsewhere adding it leaves the nonnegative sum unchanged
    kinetic = _square(p) / 2
    if omega:
        kinetic = kinetic + omega ** 2 * _square(x) / 2
    return kinetic + g2 / 2 * (inv * inv).sum(axis=(-2, -1))


def _arrays(state: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(state.x, dtype=float), np.asarray(state.p, dtype=float)


def build_lax(state: PhasePoint) -> np.ndarray:
    """Hermitian Lax matrix: momenta on the diagonal, i g/(x_j - x_k) off it."""
    x, p = _arrays(state)
    return _lax(p, _inverse_differences(x), math.sqrt(state.g2))


def trace_integrals(state: PhasePoint, jmax: int = 4) -> np.ndarray:
    """I_j = tr P^j for j = 1..jmax (real for a Hermitian matrix)."""
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    x, p = _arrays(state)
    return _trace_powers(_lax(p, _inverse_differences(x), math.sqrt(state.g2)), jmax)


def exact_positions(state: PhasePoint, t: float) -> np.ndarray:
    """Positions of the exact flow at time ``t`` from ``state``: the
    eigenvalues, in increasing order, of Q0 + t L0 at omega = 0 and of
    Q0 cos(omega t) + L0 sin(omega t) / omega at omega > 0, with
    Q0 = diag(x) and L0 = ``build_lax(state)`` (the projection method).

    An oracle for ``integrate``, which never calls it."""
    lax = build_lax(state)
    x = np.asarray(state.x, dtype=float)
    if state.omega == 0:
        q = t * lax
    else:
        q = math.sin(state.omega * t) / state.omega * lax
        x = math.cos(state.omega * t) * x
    _diagonal(q)[...] += x
    return np.linalg.eigvalsh(q)


def trace_p3_explicit(state: PhasePoint) -> float:
    """tr P^3 via the explicit formula
    sum_i p_i^3 + 3 g^2 sum_{i != j} p_i/(x_i-x_j)^2.

    Expanding tr P^3 also gives a purely imaginary three-index term, -i g^3
    times the sum over all-distinct (i, j, k) of 1/((x_i-x_j)(x_j-x_k)(x_k-x_i)).
    It vanishes identically: the cyclic relabeling i -> j -> k leaves each
    summand fixed, while the swap of j and k flips its sign, so the summands
    cancel in pairs, as the reality of the trace requires.
    """
    x, p = _arrays(state)
    inv = _inverse_differences(x)
    return float(np.sum(p ** 3) + 3.0 * state.g2 * (p @ (inv * inv).sum(axis=1)))


def hamiltonian(state: PhasePoint) -> float:
    x, p = _arrays(state)
    return float(_energy(x, p, _inverse_differences(x), state.g2, state.omega))


class Trajectory(NamedTuple):
    """Sampled trajectory with per-invariant drift bookkeeping."""

    times: np.ndarray
    xs: np.ndarray
    ps: np.ndarray
    energies: np.ndarray
    invariants: np.ndarray  # shape (samples, jmax)
    max_drift: dict         # H, then the invariants in column order

    def write_csv(self, path: str) -> None:
        import csv  # only ``simulate --csv`` writes one

        n = self.xs.shape[1]
        header = (["t"] + [f"x{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
                  + list(self.max_drift))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(len(self.times)):
                writer.writerow([repr(float(self.times[i]))]
                                + [repr(float(v)) for v in self.xs[i]]
                                + [repr(float(v)) for v in self.ps[i]]
                                + [repr(float(self.energies[i]))]
                                + [repr(float(v)) for v in self.invariants[i]])


def _force_block(n: int, y: str, f: str, harmonic: bool) -> list[str]:
    """Source lines that set ``f0..`` to the force -dH/dx at positions
    ``y0..``, given ``k = 2.0 * g2`` and, if ``harmonic``, ``w = omega ** 2``.

    Each pair is divided once, in row-major order, so every row sum of
    inv[i, j]**3 adds its terms left to right (inv[j, i]**3 is
    -inv[i, j]**3).  Two coinciding positions divide by zero and give the
    all-inf force: it makes the new positions non-finite (from the last stage,
    the next step's), which the ordering test reports as a collision."""
    body = [" = ".join(f"s{i}" for i in range(n)) + " = 0.0"]
    for i in range(n - 1):
        for j in range(i + 1, n):
            body += [f"a = 1.0 / ({y}{i} - {y}{j})", "c = a * a * a",
                     f"s{i} += c", f"s{j} -= c"]
    body += [f"{f}{i} = k * s{i}" + (f" - w * {y}{i}" if harmonic else "")
             for i in range(n)]
    return (["try:"] + ["    " + line for line in body]
            + ["except ZeroDivisionError:",
               "    " + " = ".join(f"{f}{i}" for i in range(n)) + " = inf"])


def _kernel_source(n: int, harmonic: bool) -> str:
    """Python source of ``force`` and ``step`` for ``n`` particles: the float
    operations of one force evaluation and one RK4 step, written out on scalar
    locals in the order the tests hold bit for bit to a numpy reference.

    Without ``harmonic`` (omega = 0) the trap term is left out: there it is
    ``0.0 * y``, whose subtraction leaves every finite force as it was, bar
    the sign of a zero."""
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(n))

    def each(template):
        return [template.format(i=i) for i in range(n)]

    def forces(y, f):
        return _force_block(n, y, f, harmonic)

    setup = ["k = 2.0 * g2"] + (["w = omega ** 2"] if harmonic else [])
    force = (["def force(x, g2, omega):", f"[{names('y')}] = x"] + setup
             + forces("y", "f") + [f"return [{names('f')}]"])
    step = (["def step(x, p, f, dt, g2, omega):", f"[{names('x')}] = x",
             f"[{names('p')}] = p", f"[{names('f')}] = f"] + setup + ["h = 0.5 * dt"]
            + each("k2x{i} = p{i} + h * f{i}") + each("y{i} = x{i} + h * p{i}")
            + forces("y", "k2p")
            + each("k3x{i} = p{i} + h * k2p{i}") + each("y{i} = x{i} + h * k2x{i}")
            + forces("y", "k3p")
            + each("k4x{i} = p{i} + dt * k3p{i}") + each("y{i} = x{i} + dt * k3x{i}")
            + forces("y", "k4p")
            + each("xn{i} = x{i} + dt * (p{i} + 2.0 * k2x{i} + 2.0 * k3x{i} + k4x{i}) / 6.0")
            + each("pn{i} = p{i} + dt * (f{i} + 2.0 * k2p{i} + 2.0 * k3p{i} + k4p{i}) / 6.0")
            + forces("xn", "fn")
            + [f"return [{names('xn')}], [{names('pn')}], [{names('fn')}]"])
    return "\n\n".join("\n    ".join(lines) for lines in (force, step)) + "\n"


class _Kernel(NamedTuple):
    force: Callable
    step: Callable


@functools.lru_cache(maxsize=None)
def _kernel(n: int, harmonic: bool) -> _Kernel:
    """The force and RK4 step for ``n`` particles, with or without the trap
    term, compiled once per process."""
    namespace = {"inf": math.inf}
    exec(compile(_kernel_source(n, harmonic),
                 f"<laxdyn kernel, n={n}, harmonic={harmonic}>", "exec"), namespace)
    return _Kernel(namespace["force"], namespace["step"])


def _force(x: list, g2: float, omega: float) -> list:
    """Force -dH/dx at one state."""
    return _kernel(len(x), omega != 0).force(x, g2, omega)


def _rk4_step(x: list, p: list, f: list, dt: float, g2: float, omega: float):
    """One RK4 step from (x, p) with force ``f`` at ``x``; returns the new
    state and the force there.

    ``integrate`` makes one call per step, which the benchmark's layer tracer
    (``perfbench/layertrace.py``) counts as ``laxdyn.steps``."""
    return _kernel(len(x), omega != 0).step(x, p, f, dt, g2, omega)


def _block_length(n: int) -> int:
    """States per block: one stacked complex n x n matrix per state fills
    ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (16 * n * n))


def _step_blocks(state: PhasePoint, steps: int, dt: float):
    """Run ``steps`` RK4 steps from ``state`` and yield the states, initial
    one first, as (first step, positions, momenta) blocks of at most
    ``_block_length`` rows.

    A step is one ``_rk4_step`` call, whose new positions and momenta are
    appended to two flat ``array('d')`` buffers; a full or final block is
    viewed as (rows, n) arrays and tested once.  Its first state that leaves
    the open chamber, or blows up to inf or NaN, raises
    :class:`CollisionError` at that state's step, so on that path at most one
    block of steps past the collision is taken.
    """
    from array import array  # only the stepper fills flat buffers

    g2, omega, n, step = state.g2, state.omega, state.n, _rk4_step
    x, p = [float(v) for v in state.x], [float(v) for v in state.p]
    f = _force(x, g2, omega)
    length = _block_length(n)
    # the first block starts with the initial state
    first, xs, ps = 0, array("d", x), array("d", p)
    while True:
        for _ in range(min(length, steps + 1 - first) - len(xs) // n):
            x, p, f = step(x, p, f, dt, g2, omega)
            xs.extend(x)
            ps.extend(p)
        bx = np.frombuffer(xs).reshape(-1, n)
        inside = np.all(bx[:, :-1] < bx[:, 1:], axis=1) & np.all(np.isfinite(bx), axis=1)
        if not inside.all():
            raise CollisionError((first + int(inside.argmin())) * dt)
        yield first, bx, np.frombuffer(ps).reshape(-1, n)
        first += len(bx)
        if first > steps:
            return
        xs, ps = array("d"), array("d")


def _conserved(x: np.ndarray, p: np.ndarray, g2: float, omega: float,
               jmax: int) -> np.ndarray:
    """H and the invariants 1..jmax of states (..., n), from one pair array:
    shape (..., jmax + 1).  The invariants are tr P^k at omega = 0 and
    tr (L+ L-)^k at omega > 0 (:func:`_invariant_matrix`)."""
    inv = _inverse_differences(x)
    out = np.empty(x.shape[:-1] + (jmax + 1,))
    out[..., 0] = _energy(x, p, inv, g2, omega)
    out[..., 1:] = _trace_powers(_invariant_matrix(x, p, inv, math.sqrt(g2), omega), jmax)
    return out


def integrate(state: PhasePoint, duration: float, dt: float,
              jmax: int = 4, sample_stride: int = 1) -> Trajectory:
    """Fixed-step RK4 trajectory; aborts on particle collision.

    Energy and invariant drifts are tracked at every step; the stored arrays
    are downsampled by ``sample_stride``, and the final step is always kept.
    The invariants are ``I1..I{jmax}``, tr P^k, at omega = 0 and
    ``J1..J{jmax}``, tr (L+ L-)^k with L+- = P +- i omega diag(x), at
    omega > 0, where the trace powers of P are not conserved.

    A state that leaves the open chamber, or blows up to inf or NaN, raises
    :class:`CollisionError`.  More than ``MAX_PARTICLES`` particles, a
    ``jmax`` above ``MAX_JMAX``, ``duration / dt`` above ``MAX_STEPS``, one
    that rounds to zero steps, or a start state whose H or some invariant
    (k <= jmax) is not a finite float raises ``ValueError`` before anything
    runs; a start state whose force is not finite either is the collision of
    the first step.
    """
    if state.n > MAX_PARTICLES:
        raise ValueError(f"{state.n} particles are above MAX_PARTICLES = {MAX_PARTICLES}")
    if not (0 < duration < math.inf and 0 < dt < math.inf):
        raise ValueError("duration and dt must be finite and positive")
    if jmax < 1:
        raise ValueError("jmax must be >= 1")
    if jmax > MAX_JMAX:
        raise ValueError(f"jmax = {jmax} is above MAX_JMAX = {MAX_JMAX}")
    if sample_stride < 1:
        raise ValueError("sample_stride must be >= 1")
    ratio = duration / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(f"duration / dt = {ratio:.6g} is too large for a step count "
                         f"(at most MAX_STEPS = {MAX_STEPS})")
    steps = int(round(ratio))
    if steps == 0:
        raise ValueError(f"duration / dt = {ratio:.6g} rounds to zero steps")
    # every stride above ``steps`` keeps the first and the last state only,
    # as ``steps + 1`` does; the clamp keeps ``step % sample_stride`` inside
    # int64
    sample_stride = min(sample_stride, steps + 1)
    g2, omega = state.g2, state.omega
    key, quantity = ("I", "tr P^") if omega == 0 else ("J", "tr (L+ L-)^")
    drift = np.zeros(jmax + 1)
    times, xs, ps, samples = [], [], [], []
    # overflow near a collision leaves inf or NaN in x, which the ordering
    # test reports as a collision
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a finite state can still overflow H or a trace power, whose drift
        # would be inf or NaN; where the force overflows too, the first step
        # reports the collision instead
        start = _conserved(*_arrays(state), g2, omega, jmax).tolist()
        bad = [j for j, v in enumerate(start) if not math.isfinite(v)]
        if bad and all(map(math.isfinite, _force(list(state.x), g2, omega))):
            j = bad[0]
            raise ValueError(f"{f'{quantity}{j}' if j else 'H'} of the initial state is "
                             f"{start[j]}, not a finite float")
        for first, bx, bp in _step_blocks(state, steps, dt):
            conserved = _conserved(bx, bp, g2, omega, jmax)
            if first == 0:
                c0 = conserved[0]
                scale = np.maximum(np.abs(c0), 1.0)
            # row 0 of the first block is c0 itself, so its drift is exactly 0
            drift = np.maximum(drift, np.max(np.abs(conserved - c0) / scale, axis=0))
            step = np.arange(first, first + len(bx))
            keep = (step % sample_stride == 0) | (step == steps)
            times.append(step[keep] * dt)
            xs.append(bx[keep])
            ps.append(bp[keep])
            samples.append(conserved[keep])
    samples = np.concatenate(samples)
    max_drift = {"H": float(drift[0])}
    for j in range(1, jmax + 1):
        max_drift[f"{key}{j}"] = float(drift[j])
    return Trajectory(times=np.concatenate(times), xs=np.concatenate(xs),
                      ps=np.concatenate(ps), energies=samples[:, 0],
                      invariants=samples[:, 1:], max_drift=max_drift)


def noether_matrix(n: int) -> np.ndarray:
    """The constant reduction matrix I - e e^T (zero diagonal, rank-two
    spectrum in the sense of two distinct eigenvalues)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return np.eye(n) - np.ones((n, n))
