"""Normal-ordering calculus: shift/sign-flip/dilation words, the truncated
Taylor form of the sign-changing operator, the normal-ordered swap series,
and its symbol.

A :class:`ShiftWord` is a product of exactly-computable substitution
operators: ``exp(a x_j d_k)`` replaces ``x_k`` by ``x_k + a x_j``,
``(-1)^{x_k d_k}`` flips the sign of ``x_k``, and ``q^{x_k d_k}`` rescales
it.  Words are written in operator order (leftmost acts last), so applying a
word walks its atoms right to left.  The registry below collects the candidate
shift-word factorizations of the coordinate swap; the suite reports which of
them reproduce the swap exactly rather than assuming they all do.

The normal-ordered swap series is

    P_jk = sum_n (x_j - x_k)^n / n! (d_k - d_j)^n

(x factors left of derivatives), exact on polynomials once the truncation
order reaches the total degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .exactalg import MultiPoly, Permutation, monomial_exponents

__all__ = [
    "Shift",
    "SignFlip",
    "Scale",
    "ShiftWord",
    "apply_shift_word",
    "swap_word_registry",
    "sign_flip_series",
    "permutation_series",
    "scaling_apply",
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
class SignFlip:
    """(-1)^{x_target d_target}: x_target <- -x_target."""
    target: int

    def apply(self, f: MultiPoly) -> MultiPoly:
        return f.substitute_scale(self.target, Fraction(-1))


@dataclass(frozen=True)
class Scale:
    """q^{x_target d_target}: x_target <- q * x_target."""
    target: int
    q: Fraction

    def apply(self, f: MultiPoly) -> MultiPoly:
        return f.substitute_scale(self.target, self.q)


Atom = Union[Shift, SignFlip, Scale]
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
        "flip-left": (SignFlip(k), Shift(k, j, one), Shift(j, k, -one), Shift(k, j, one)),
        "flip-right": (Shift(j, k, one), Shift(k, j, -one), Shift(j, k, one), SignFlip(k)),
        "flip-left-reversed": (SignFlip(j), Shift(k, j, -one), Shift(j, k, one), Shift(k, j, -one)),
    }


def sign_flip_series(coeffs: Sequence[Fraction | int], order: int) -> tuple[Fraction, ...]:
    """Truncated Taylor form of the sign flip on a univariate polynomial:

        sum_{n<=order} (-2v)^n / n! d_v^n f(v)

    Exact (equals f(-v)) once ``order >= deg f``; lower orders return the
    literal truncated sum.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    cs = [Fraction(v) for v in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    out = [Fraction(0)] * len(cs)
    deriv = list(cs)
    for n in range(order + 1):
        if n > 0:
            deriv = [deriv[m] * m for m in range(1, len(deriv))]
        if not deriv:
            break
        # multiply d_v^n f by (-2v)^n / n!: degree shifts back up by n
        factor = Fraction((-2) ** n, math.factorial(n))
        for m, val in enumerate(deriv):
            out[m + n] += val * factor
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _directional_derivative(f: MultiPoly, k: int, j: int) -> MultiPoly:
    return f.partial(k) - f.partial(j)


def permutation_series(j: int, k: int, f: MultiPoly, order: int) -> MultiPoly:
    """Truncated normal-ordered swap series applied to f:

        sum_{n<=order} (x_j - x_k)^n / n! (d_k - d_j)^n f

    Exact (equals the swap) once ``order >= deg f``.
    """
    if order < 0:
        raise ValueError("truncation order must be >= 0")
    n_vars = f.arity
    diff = MultiPoly.variable(n_vars, j) - MultiPoly.variable(n_vars, k)
    out = MultiPoly.zero(n_vars)
    deriv = f
    power = MultiPoly.one(n_vars)
    for n in range(order + 1):
        if n > 0:
            deriv = _directional_derivative(deriv, k, j)
            power = power * diff
        if deriv.is_zero():
            break
        out = out + (power * deriv).scale(Fraction(1, math.factorial(n)))
    return out


def scaling_apply(q: Fraction | int, k: int, f: MultiPoly) -> MultiPoly:
    """Dilation q^{x_k d_k}: substitutes x_k <- q x_k."""
    return f.substitute_scale(k, Fraction(q))


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
    """Apply a normal-ordered symbol: each p_m becomes d/dx_m, acting first."""
    out = MultiPoly.zero(f.arity)
    for term in terms:
        g = f
        for m, e in enumerate(term.p_exp):
            for _ in range(e):
                g = g.partial(m)
            if g.is_zero():
                break
        if g.is_zero():
            continue
        out = out + (MultiPoly.monomial(f.arity, term.x_exp) * g).scale(term.coeff)
    return out


def _exact_swap(j: int, k: int, f: MultiPoly) -> MultiPoly:
    return f.permute(Permutation.transposition(f.arity, j, k))


def realization_report(n_vars: int, max_degree: int, j: int = 0, k: int = 1) -> dict:
    """Check every registered swap realization against the exact swap on all
    monomials of total degree <= max_degree; report which hold verbatim."""
    basis = [MultiPoly.monomial(n_vars, e) for e in monomial_exponents(n_vars, max_degree)]
    results = {}
    for name, word in swap_word_registry(j, k).items():
        failures = []
        for mono in basis:
            if apply_shift_word(word, mono) != _exact_swap(j, k, mono):
                failures.append(mono.to_text())
        results[name] = {"matchesSwap": not failures, "failures": failures}
    failures = []
    for mono in basis:
        got = permutation_series(j, k, mono, mono.total_degree())
        if got != _exact_swap(j, k, mono):
            failures.append(mono.to_text())
    results["normal-ordered-series"] = {"matchesSwap": not failures, "failures": failures}
    failures = []
    for mono in basis:
        sym = symbol_of_permutation(n_vars, j, k, max(mono.total_degree(), 0))
        if quantize_apply(sym, mono) != _exact_swap(j, k, mono):
            failures.append(mono.to_text())
    results["quantized-symbol"] = {"matchesSwap": not failures, "failures": failures}
    return {
        "nVars": n_vars,
        "maxDegree": max_degree,
        "swap": [j, k],
        "caseCount": len(basis),
        "realizations": results,
    }
