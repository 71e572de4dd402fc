"""The Dunkl operator of the rational Calogero model and its exact identities.

The operator acting on rational sections is

    nabla_k = d/dx_k - c * sum_{i != k} 1/(x_i - x_k) P_ik,

with ``P_ik`` the coordinate swap and ``c`` the formal coupling.  Every
operator reads the particle count ``n`` from its section, ``f.arity``.
Everything here is exact: the commutator suite certifies
``[nabla_j, nabla_k] = 0`` (zero curvature), the intertwining suite
``P_jk nabla_l = nabla_{s(l)} P_jk``, and the sum-of-squares suite the
normal-ordered form of ``sum_i nabla_i^2``, all identically in ``c`` on a
graded spanning set of monomials.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactalg import (
    MultiPoly,
    Permutation,
    RationalSection,
    _compositions,
)

__all__ = [
    "apply_dunkl",
    "commutator_dunkl",
    "verify_intertwining",
    "sum_of_squares",
    "sum_of_squares_normal_form",
    "restricted_projection",
    "calogero_apply",
    "laplacian",
    "SymmetryError",
    "symmetric_basis",
    "antisymmetric_basis",
    "vandermonde",
]

class SymmetryError(ValueError):
    """Input section does not have the declared S_N symmetry type ``sign``;
    ``swap`` is the first adjacent pair (i, i+1) whose swap breaks it."""

    def __init__(self, sign: str, swap: tuple[int, int]):
        super().__init__(sign, swap)  # as args, so that the error pickles
        self.sign, self.swap = sign, swap

    def __str__(self) -> str:
        return f"section is not {self.sign} under the swap {self.swap}"


def apply_dunkl(k: int, f: RationalSection) -> RationalSection:
    """nabla_k f, exact."""
    n = f.arity
    if not 0 <= k < n:
        raise ValueError(f"coordinate index {k} out of range")
    result = f.partial(k)
    swaps = Permutation.transpositions(n)[k]
    for i in range(n):
        if i == k:
            continue
        result = result.add_over_difference(f.permute(swaps[i]), i, k, coupling=1, negate=True)
    return result


def commutator_dunkl(j: int, k: int, f: RationalSection) -> RationalSection:
    """(nabla_j nabla_k - nabla_k nabla_j) f; the zero section when flat."""
    if j == k:
        raise ValueError("commutator needs distinct indices")
    jk = apply_dunkl(j, apply_dunkl(k, f))
    kj = apply_dunkl(k, apply_dunkl(j, f))
    return jk - kj


def verify_intertwining(j: int, l: int, k: int, f: RationalSection) -> RationalSection:
    """Residual of ``P_jk nabla_l - nabla_{s_jk(l)} P_jk`` applied to f.

    For ``l in {j, k}`` this is the swap relation, otherwise the commutation
    with an untouched component; both are the single statement that the swap
    conjugates the Dunkl family by relabeling its index.
    """
    swap = Permutation.transposition(f.arity, j, k)
    left = apply_dunkl(l, f).permute(swap)
    right = apply_dunkl(swap(l), f.permute(swap))
    return left - right


def laplacian(f: RationalSection) -> RationalSection:
    out = RationalSection.zero(f.arity)
    for i in range(f.arity):
        out = out + f.partial(i).partial(i)
    return out


def sum_of_squares(f: RationalSection) -> RationalSection:
    """sum_i nabla_i^2 f, computed by iterated application."""
    out = RationalSection.zero(f.arity)
    for i in range(f.arity):
        out = out + apply_dunkl(i, apply_dunkl(i, f))
    return out


def _normal_ordered(f: RationalSection, exchanged) -> RationalSection:
    """Laplacian f - sum_{i != j} (x_i - x_j)^-2 (c exchanged(i, j) + c^2 f),
    over ordered pairs; ``exchanged(i, j)`` stands for P_ij f."""
    out = laplacian(f)
    for i, j in itertools.permutations(range(f.arity), 2):
        out = out.add_over_difference(exchanged(i, j), i, j, 2, coupling=1, negate=True)
        out = out.add_over_difference(f, i, j, 2, coupling=2, negate=True)
    return out


def sum_of_squares_normal_form(f: RationalSection) -> RationalSection:
    """The normal-ordered form of sum_i nabla_i^2:

        Laplacian - c * sum_{i != j} (x_i - x_j)^-2 P_ij - c^2 * sum_{i != j} (x_i - x_j)^-2

    The signs follow from expanding (d_k - A_k)^2: the cross terms enter with
    a minus and the square of the exchange part contributes -c^2/(x_i-x_j)^2
    on the diagonal (P_ij moves the coefficient past itself with a sign flip),
    while the mixed-index quadratic terms cancel by the cyclic identity.
    """
    swaps = Permutation.transpositions(f.arity)
    return _normal_ordered(f, lambda i, j: f.permute(swaps[i][j]))


def pair_potential(f: RationalSection) -> RationalSection:
    """sum_{i<j} (x_i - x_j)^-2 * f."""
    out = RationalSection.zero(f.arity)
    for i, j in itertools.combinations(range(f.arity), 2):
        out = out.add_over_difference(f, i, j, 2)
    return out


def restricted_projection(f: RationalSection, sign: str) -> RationalSection:
    """sum_i nabla_i^2 f with every rightmost swap replaced by +1 or -1.

    Valid only on sections of the matching symmetry type (checked); there the
    replacement is exact and the result collapses to

        Laplacian f - 2 c (c +/- 1) * sum_{i<j} (x_i - x_j)^-2 f,

    i.e. -2 times the Calogero Hamiltonian with coupling c(c+1) on symmetric
    and c(c-1) on antisymmetric inputs.
    """
    if sign not in ("symmetric", "antisymmetric"):
        raise ValueError("sign must be 'symmetric' or 'antisymmetric'")
    n = f.arity
    swapped = f if sign == "symmetric" else -f
    # adjacent transpositions generate S_N
    swaps = Permutation.transpositions(n)
    for i in range(n - 1):
        if f.permute(swaps[i][i + 1]) != swapped:
            raise SymmetryError(sign, (i, i + 1))
    return _normal_ordered(f, lambda i, j: swapped)


def calogero_apply(f: RationalSection, g: MultiPoly | Fraction | int) -> RationalSection:
    """Calogero Hamiltonian action: -1/2 Laplacian f + g * sum_{i<j} (x_i-x_j)^-2 f.

    The coupling ``g`` is an exact rational or a polynomial in c such as
    c(c+1); a polynomial is multiplied in as a section.
    """
    if isinstance(g, MultiPoly):
        g = RationalSection(g)
    return laplacian(f).scale(Fraction(-1, 2)) + pair_potential(f) * g


def vandermonde(n: int) -> RationalSection:
    """prod_{i<j} (x_i - x_j), the basic antisymmetric polynomial."""
    p = MultiPoly.one(n)
    for i, j in itertools.combinations(range(n), 2):
        p = p * (MultiPoly.variable(n, i) - MultiPoly.variable(n, j))
    return RationalSection(p)


def symmetric_basis(n: int, max_degree: int) -> list[RationalSection]:
    """Monomial symmetric polynomials m_lambda, |lambda| <= max_degree, by
    degree and then by partition lambda in descending order.  Each m_lambda
    sums the exponent vectors whose non-increasing sort is lambda."""
    out = []
    for deg in range(max_degree + 1):
        orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for e in _compositions(deg, n):
            orbits.setdefault(tuple(sorted(e, reverse=True)), []).append(e)
        for lam in sorted(orbits, reverse=True):
            out.append(RationalSection(MultiPoly(n, {e + (0,): 1 for e in orbits[lam]})))
    return out


def antisymmetric_basis(n: int, max_degree: int) -> list[RationalSection]:
    """Vandermonde times symmetric monomials, total degree <= max_degree."""
    v = vandermonde(n)
    vdeg = n * (n - 1) // 2
    if max_degree < vdeg:
        return []
    return [v * s for s in symmetric_basis(n, max_degree - vdeg)]
