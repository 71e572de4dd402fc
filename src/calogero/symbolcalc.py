"""Normal-ordering calculus: shift and dilation words, the truncated Taylor
form of the sign-changing operator, the normal-ordered swap series, and its
symbol.

A :class:`ShiftWord` is a product of exactly-computable substitution
operators: ``exp(a x_j d_k)`` replaces ``x_k`` by ``x_k + a x_j``, and the
dilation ``q^{x_k d_k}`` rescales it; the sign flip ``(-1)^{x_k d_k}`` is the
dilation by -1.  Words are written in operator order (leftmost acts last), so
applying a word walks its atoms right to left.  The registry below collects
the candidate shift-word factorizations of the coordinate swap; the suite
reports which of them reproduce the swap exactly rather than assuming they
all do.

Both series are the normal-ordered Taylor sum ``sum_n gap^n / n! D^n f``
(gap factors left of derivatives), truncated at ``n <= order``: the swap

    P_jk = sum_n (x_j - x_k)^n / n! (d_k - d_j)^n,

and the sign flip with gap ``-2v`` and ``D = d_v``.  Each is exact on
polynomials once the truncation order reaches the total degree.  The sum is
taken in integers as ``m!/n! gap^n D^n f`` (m the last nonzero order) and
divided by ``m!`` once.

The symbol of the swap is written straight from the binomial expansion of
its series, grouped by momentum exponent over the one denominator ``order!``;
:func:`symbol_terms` lists its terms for the report.  :func:`quantize_apply`
skips every group whose exponent exceeds the polynomial's top exponent in
some coordinate, by comparing exponents alone, sums integer numerators times
the remaining derivatives and divides by the denominator once.  A
coefficient is an ``int`` wherever it is integral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import gt
from typing import NamedTuple, Sequence, Union

from .exactalg import (
    EXPONENT_LIMIT,
    MultiPoly,
    Permutation,
    _check_limit,
    _pack,
    _poly_from,
    _unpack,
    monomial_exponents,
)

__all__ = [
    "Shift",
    "Scale",
    "ShiftWord",
    "apply_shift_word",
    "swap_word_registry",
    "sign_flip_series",
    "permutation_series",
    "GroupedSymbol",
    "symbol_of_permutation",
    "symbol_terms",
    "quantize_apply",
    "realization_report",
]


@dataclass(frozen=True)
class Shift:
    """exp(amount * x_source * d_target): x_target <- x_target + amount*x_source."""
    target: int
    source: int
    amount: Fraction

    def apply(self, f: MultiPoly) -> MultiPoly:
        return f.substitute_shift(self.target, self.source, self.amount)


@dataclass(frozen=True)
class Scale:
    """q^{x_target d_target}: x_target <- q * x_target; q = -1 is the sign flip."""
    target: int
    q: Fraction

    def apply(self, f: MultiPoly) -> MultiPoly:
        return f.substitute_scale(self.target, self.q)


Atom = Union[Shift, Scale]
ShiftWord = tuple  # tuple of atoms in operator order


def apply_shift_word(word: Sequence[Atom], f: MultiPoly) -> MultiPoly:
    """Apply the operator product to a polynomial (rightmost atom first).

    Substitutions are exact only on polynomials, so anything else is refused.
    """
    if not isinstance(f, MultiPoly):
        raise TypeError("shift words act exactly on polynomials only")
    for atom in reversed(word):
        f = atom.apply(f)
    return f


def swap_word_registry(j: int, k: int) -> dict[str, ShiftWord]:
    """Candidate shift-word factorizations of the swap x_j <-> x_k.

    The first two are the displayed factorizations with the sign flip on the
    far left / far right; the third moves the flip to the other coordinate
    with opposite shear signs (the variant appearing in the worked
    normal-ordering reduction).
    """
    one = Fraction(1)
    return {
        "flip-left": (Scale(k, -one), Shift(k, j, one), Shift(j, k, -one), Shift(k, j, one)),
        "flip-right": (Shift(j, k, one), Shift(k, j, -one), Shift(j, k, one), Scale(k, -one)),
        "flip-left-reversed": (Scale(j, -one), Shift(k, j, -one), Shift(j, k, one), Shift(k, j, -one)),
    }


def _taylor(f: MultiPoly, gap: MultiPoly, derive, order: int) -> MultiPoly:
    """sum_{n<=order} gap^n / n! D^n f with ``D = derive``, gap factors on the
    left; the sum stops early once D^n f vanishes.

    With m the last n whose D^n f is nonzero, the terms are summed as
    ``m!/n! gap^n D^n f``, which keeps integer coefficients integral, and
    divided by m! once at the end."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    derivs = [] if f.is_zero() else [f]
    while derivs and len(derivs) <= order:
        deriv = derive(derivs[-1])
        if deriv.is_zero():
            break
        derivs.append(deriv)
    top = math.factorial(max(len(derivs) - 1, 0))
    # every D^n f has slots no higher than f's, and each power of the gap is
    # checked as it is added to them
    _check_limit(f.arity, f.terms)
    acc: dict[int, int | Fraction] = {}
    power = MultiPoly.one(f.arity)
    for n, deriv in enumerate(derivs):
        if n:
            power = power * gap
            _check_limit(f.arity, power.terms)
        weight = top // math.factorial(n)
        for ea, ca in power.terms.items():
            ca *= weight
            for eb, cb in deriv.terms.items():
                key = ea + eb
                acc[key] = acc.get(key, 0) + ca * cb
    return _poly_from(f.arity, {e: _over(v, top) for e, v in acc.items() if v})


def _over(v: int | Fraction, den: int) -> int | Fraction:
    """v / den, an ``int`` where integral."""
    if type(v) is int and not v % den:
        return v // den
    q = Fraction(v, den)
    return q.numerator if q.denominator == 1 else q


def sign_flip_series(coeffs: Sequence[Fraction | int], order: int) -> tuple[Fraction, ...]:
    """Truncated Taylor form of the sign flip on a univariate polynomial
    (coefficients from degree 0 up):

        sum_{n<=order} (-2v)^n / n! d_v^n f(v)

    Exact (equals f(-v)) once ``order >= deg f``; lower orders return the
    literal truncated sum, without trailing zero coefficients.
    """
    f = MultiPoly(1, {(m, 0): Fraction(v) for m, v in enumerate(coeffs)})
    out = _taylor(f, MultiPoly.monomial(1, (1,), -2), lambda g: g.partial(0), order)
    terms = out.tuple_terms()
    return tuple(Fraction(terms.get((m, 0), 0)) for m in range(out.total_degree() + 1))


def permutation_series(j: int, k: int, f: MultiPoly, order: int) -> MultiPoly:
    """Truncated normal-ordered swap series applied to f:

        sum_{n<=order} (x_j - x_k)^n / n! (d_k - d_j)^n f

    Exact (equals the swap) once ``order >= deg f``.  ``j`` and ``k`` must
    be distinct coordinates of f (``ValueError`` otherwise).
    """
    Permutation.transposition(f.arity, j, k)  # refuses the pair before any work
    gap = MultiPoly.variable(f.arity, j) - MultiPoly.variable(f.arity, k)
    return _taylor(f, gap, lambda g: g.partial(k) - g.partial(j), order)


class GroupedSymbol(NamedTuple):
    """A symbol grouped by momentum exponent over one common denominator.

    ``groups[p_exp]`` lists ``(key, numerator)`` pairs, one per term
    ``numerator / den * x^x_exp d^p_exp``; ``key`` is the packed
    :class:`MultiPoly` key of ``x_exp`` with a zero coupling slot, so it adds
    straight onto the key of a polynomial's term."""
    den: int
    groups: dict[tuple[int, ...], list[tuple[int, int]]]


def symbol_of_permutation(n_vars: int, j: int, k: int, order: int) -> GroupedSymbol:
    """Normal-ordered symbol of the swap, truncated at ``order``, over
    ``order!``.

    Term n of the series contributes the expansion of
    (x_j - x_k)^n / n! times (p_k - p_j)^n; quantization sends each momentum
    monomial to the matching derivative product, x factors multiplying from
    the left.  Each pair of exponents comes from one ``(n, a, b)`` with
    ``a = x_exp[j]`` and ``b = p_exp[k]``, and no coefficient vanishes, so
    every term is written once.  ``j`` and ``k`` must be distinct
    coordinates below ``n_vars``, and the order below ``EXPONENT_LIMIT``,
    the largest x exponent a key can hold (``ValueError`` otherwise).
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    if order >= EXPONENT_LIMIT:
        raise ValueError(f"truncation order {order} reaches the exponent limit {EXPONENT_LIMIT}")
    Permutation.transposition(n_vars, j, k)  # refuses the pair before any work
    den = math.factorial(order)
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for n in range(order + 1):
        weight = den // math.factorial(n)
        for b in range(n + 1):
            # (p_k - p_j)^n -> C(n,b) p_k^b (-p_j)^(n-b)
            pe = [0] * n_vars
            pe[k], pe[j] = b, n - b
            row = groups[tuple(pe)] = []
            for a in range(n + 1):
                # (x_j - x_k)^n -> C(n,a) x_j^a (-x_k)^(n-a)
                xe = [0] * (n_vars + 1)
                xe[j], xe[k] = a, n - a
                row.append((_pack(xe), (-1) ** (a + b) * weight * math.comb(n, a)
                            * math.comb(n, b)))
    return GroupedSymbol(den, groups)


def symbol_terms(symbol: GroupedSymbol) -> list[dict]:
    """The JSON records of the symbol's terms, sorted by ``(x_exp, p_exp)``,
    each coefficient reduced (an ``int`` where integral)."""
    terms = sorted((_unpack(x, len(p))[:-1], p, num)
                   for p, row in symbol.groups.items() for x, num in row)
    return [{"xExponents": list(x), "pExponents": list(p),
             "coefficient": str(_over(num, symbol.den))} for x, p, num in terms]


def quantize_apply(symbol: GroupedSymbol, f: MultiPoly) -> MultiPoly:
    """Apply a grouped normal-ordered symbol: each p_m becomes d/dx_m, acting
    first.

    A group whose ``p_exp`` exceeds, in some coordinate, the top exponent of
    that coordinate in f is skipped without taking its derivative.  Each
    other distinct derivative d^p f is taken once per call, from the one a
    single order lower; the integer numerators times d^p f are summed into
    one exponent -> coefficient dict, and each sum is divided by ``den``
    once.  Every derivative has slots no higher than f's, so f is checked
    against the exponent limit once, up front; the symbol's keys are packed
    below the limit by :func:`symbol_of_permutation`."""
    _check_limit(f.arity, f.terms)
    tops = [max(col) for col in zip(*(_unpack(key, f.arity) for key in f.terms))]
    derivs = {(0,) * f.arity: f}
    acc: dict[int, int | Fraction] = {}
    for p_exp, row in symbol.groups.items():
        if any(map(gt, p_exp, tops)):
            continue
        g = _derivative(derivs, p_exp).terms.items()
        for shift, num in row:
            for exp, v in g:
                key = exp + shift
                acc[key] = acc.get(key, 0) + num * v
    den = symbol.den
    return _poly_from(f.arity, {e: _over(v, den) for e, v in acc.items() if v})


def _derivative(derivs: dict[tuple[int, ...], MultiPoly], p_exp: tuple[int, ...]) -> MultiPoly:
    """d^p_exp f from the cache ``derivs`` (which holds f at the zero exponent),
    differentiating the cached derivative one order lower in the last
    coordinate of nonzero order; every derivative taken is cached."""
    g = derivs.get(p_exp)
    if g is None:
        m = max(i for i, e in enumerate(p_exp) if e)
        lower = _derivative(derivs, p_exp[:m] + (p_exp[m] - 1,) + p_exp[m + 1:])
        g = derivs[p_exp] = lower if lower.is_zero() else lower.partial(m)
    return g


def realization_report(n_vars: int, max_degree: int, j: int = 0, k: int = 1) -> dict:
    """Check every registered swap realization against the exact swap on all
    monomials of total degree <= max_degree; report which hold verbatim.

    The series and the symbol are truncated at ``max_degree`` for every
    monomial: the series stops where the derivative vanishes, and a symbol
    group whose momentum exponent exceeds a monomial's exponents is skipped
    on it."""
    # first, so that j or k out of range is refused before any work
    swap = Permutation.transposition(n_vars, j, k)
    basis = [MultiPoly.monomial(n_vars, e) for e in monomial_exponents(n_vars, max_degree)]
    symbol = symbol_of_permutation(n_vars, j, k, max(max_degree, 0))
    realizations = {name: functools.partial(apply_shift_word, word)
                    for name, word in swap_word_registry(j, k).items()}
    realizations["normal-ordered-series"] = lambda f: permutation_series(j, k, f, max_degree)
    realizations["quantized-symbol"] = lambda f: quantize_apply(symbol, f)
    cases = [(mono, mono.permute(swap)) for mono in basis]
    results = {}
    for name, realize in realizations.items():
        failures = [mono.to_text() for mono, swapped in cases if realize(mono) != swapped]
        results[name] = {"matchesSwap": not failures, "failures": failures}
    return {
        "nVars": n_vars,
        "maxDegree": max_degree,
        "swap": [j, k],
        "caseCount": len(basis),
        "realizations": results,
    }
