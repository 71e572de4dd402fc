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
polynomials once the truncation order reaches the total degree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Sequence, Union

from .exactalg import MultiPoly, Permutation, _poly_from, monomial_exponents

__all__ = [
    "Shift",
    "Scale",
    "ShiftWord",
    "apply_shift_word",
    "swap_word_registry",
    "sign_flip_series",
    "permutation_series",
    "SymbolTerm",
    "symbol_of_permutation",
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
    left; the sum stops early once D^n f vanishes."""
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    out = MultiPoly.zero(f.arity)
    deriv = f
    power = MultiPoly.one(f.arity)
    for n in range(order + 1):
        if n > 0:
            deriv = derive(deriv)
            power = power * gap
        if deriv.is_zero():
            break
        out = out + (power * deriv).scale(Fraction(1, math.factorial(n)))
    return out


def sign_flip_series(coeffs: Sequence[Fraction | int], order: int) -> tuple[Fraction, ...]:
    """Truncated Taylor form of the sign flip on a univariate polynomial
    (coefficients from degree 0 up):

        sum_{n<=order} (-2v)^n / n! d_v^n f(v)

    Exact (equals f(-v)) once ``order >= deg f``; lower orders return the
    literal truncated sum, without trailing zero coefficients.
    """
    f = MultiPoly(1, {(m, 0): Fraction(v) for m, v in enumerate(coeffs)})
    out = _taylor(f, MultiPoly.monomial(1, (1,), -2), lambda g: g.partial(0), order)
    return tuple(Fraction(out.terms.get((m, 0), 0)) for m in range(out.total_degree() + 1))


def permutation_series(j: int, k: int, f: MultiPoly, order: int) -> MultiPoly:
    """Truncated normal-ordered swap series applied to f:

        sum_{n<=order} (x_j - x_k)^n / n! (d_k - d_j)^n f

    Exact (equals the swap) once ``order >= deg f``.
    """
    gap = MultiPoly.variable(f.arity, j) - MultiPoly.variable(f.arity, k)
    return _taylor(f, gap, lambda g: g.partial(k) - g.partial(j), order)


@dataclass(frozen=True)
class SymbolTerm:
    """One normal-ordered term: coeff * x^x_exp * (d)^p_exp, x on the left."""
    x_exp: tuple[int, ...]
    p_exp: tuple[int, ...]
    coeff: Fraction

    def to_json(self) -> dict:
        return {
            "xExponents": list(self.x_exp),
            "pExponents": list(self.p_exp),
            "coefficient": str(self.coeff),
        }


def symbol_of_permutation(n_vars: int, j: int, k: int, order: int) -> list[SymbolTerm]:
    """Normal-ordered symbol of the swap, truncated at ``order``.

    Term n of the series contributes the expansion of
    (x_j - x_k)^n / n! times (p_k - p_j)^n; quantization sends each momentum
    monomial to the matching derivative product, x factors multiplying from
    the left.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    terms: dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction] = {}
    for n in range(order + 1):
        scale = Fraction(1, math.factorial(n))
        for a in range(n + 1):
            # (x_j - x_k)^n -> C(n,a) x_j^a (-x_k)^(n-a)
            xc = math.comb(n, a) * (-1) ** (n - a)
            xe = [0] * n_vars
            xe[j] += a
            xe[k] += n - a
            for b in range(n + 1):
                pc = math.comb(n, b) * (-1) ** (n - b)
                pe = [0] * n_vars
                pe[k] += b
                pe[j] += n - b
                key = (tuple(xe), tuple(pe))
                terms[key] = terms.get(key, Fraction(0)) + scale * xc * pc
    out = [SymbolTerm(xe, pe, c) for (xe, pe), c in sorted(terms.items()) if c != 0]
    return out


def quantize_apply(terms: Sequence[SymbolTerm], f: MultiPoly) -> MultiPoly:
    """Apply a normal-ordered symbol: each p_m becomes d/dx_m, acting first.

    Each distinct derivative d^p f is taken once per call, from the one a
    single order lower, and every product coeff * x^x_exp * d^p f is added
    into one exponent -> coefficient dict."""
    derivs = {(0,) * f.arity: f}
    out: dict[tuple[int, ...], int | Fraction] = {}
    for term in terms:
        g = _derivative(derivs, term.p_exp)
        coeff = term.coeff
        if g.is_zero() or not coeff:
            continue
        shift = term.x_exp + (0,)
        for exp, v in g.terms.items():
            key = tuple(map(add, exp, shift))
            s = out.get(key, 0) + coeff * v
            if s:
                out[key] = s
            else:
                del out[key]
    return _poly_from(f.arity, out)


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
    term of order above a monomial's degree gives zero on it."""
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
