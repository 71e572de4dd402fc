"""The Dunkl operator of the rational Calogero model and its exact identities.

The operator acting on rational sections is

    nabla_k = d/dx_k - c * sum_{i != k} 1/(x_i - x_k) P_ik,

with ``P_ik`` the coordinate swap and ``c`` the formal coupling.  Everything
here is exact: the commutator suite certifies ``[nabla_j, nabla_k] = 0``
(zero curvature), the intertwining suite ``P_jk nabla_l = nabla_{s(l)} P_jk``,
and the sum-of-squares suite the normal-ordered form of ``sum_i nabla_i^2``,
all identically in ``c`` on a graded spanning set of monomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    MultiPoly,
    Permutation,
    RationalSection,
    monomial_exponents,
)

__all__ = [
    "DunklContext",
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
    """Input section does not have the declared S_N symmetry type."""


@dataclass(frozen=True)
class DunklContext:
    """Particle count and the degree bound of the monomial spanning set."""

    n: int
    basis_degree: int = 6

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two particles")
        if self.basis_degree < 1:
            raise ValueError("basis degree must be >= 1")

    def basis(self) -> list[RationalSection]:
        """All monomials of total degree <= basis_degree, graded order."""
        return [RationalSection.monomial(self.n, e)
                for e in monomial_exponents(self.n, self.basis_degree)]


def apply_dunkl(ctx: DunklContext, k: int, f: RationalSection) -> RationalSection:
    """nabla_k f, exact."""
    if not 0 <= k < ctx.n:
        raise ValueError(f"coordinate index {k} out of range")
    result = f.partial(k)
    for i in range(ctx.n):
        if i == k:
            continue
        swapped = f.permute(Permutation.transposition(ctx.n, i, k))
        result = result - swapped.mul_inverse_difference(i, k).mul_coupling()
    return result


def commutator_dunkl(ctx: DunklContext, j: int, k: int, f: RationalSection) -> RationalSection:
    """(nabla_j nabla_k - nabla_k nabla_j) f; the zero section when flat."""
    if j == k:
        raise ValueError("commutator needs distinct indices")
    jk = apply_dunkl(ctx, j, apply_dunkl(ctx, k, f))
    kj = apply_dunkl(ctx, k, apply_dunkl(ctx, j, f))
    return jk - kj


def verify_intertwining(ctx: DunklContext, j: int, l: int, k: int,
                        f: RationalSection) -> RationalSection:
    """Residual of ``P_jk nabla_l - nabla_{s_jk(l)} P_jk`` applied to f.

    For ``l in {j, k}`` this is the swap relation, otherwise the commutation
    with an untouched component; both are the single statement that the swap
    conjugates the Dunkl family by relabeling its index.
    """
    if j == k:
        raise ValueError("transposition needs distinct indices")
    swap = Permutation.transposition(ctx.n, j, k)
    left = apply_dunkl(ctx, l, f).permute(swap)
    right = apply_dunkl(ctx, swap(l), f.permute(swap))
    return left - right


def laplacian(ctx: DunklContext, f: RationalSection) -> RationalSection:
    out = RationalSection.zero(ctx.n)
    for i in range(ctx.n):
        out = out + f.partial(i).partial(i)
    return out


def sum_of_squares(ctx: DunklContext, f: RationalSection) -> RationalSection:
    """sum_i nabla_i^2 f, computed by iterated application."""
    out = RationalSection.zero(ctx.n)
    for i in range(ctx.n):
        out = out + apply_dunkl(ctx, i, apply_dunkl(ctx, i, f))
    return out


def sum_of_squares_normal_form(ctx: DunklContext, f: RationalSection) -> RationalSection:
    """The normal-ordered form of sum_i nabla_i^2:

        Laplacian - c * sum_{i != j} (x_i - x_j)^-2 P_ij - c^2 * sum_{i != j} (x_i - x_j)^-2

    The signs follow from expanding (d_k - A_k)^2: the cross terms enter with
    a minus and the square of the exchange part contributes -c^2/(x_i-x_j)^2
    on the diagonal (P_ij moves the coefficient past itself with a sign flip),
    while the mixed-index quadratic terms cancel by the cyclic identity.
    """
    out = laplacian(ctx, f)
    for i, j in itertools.permutations(range(ctx.n), 2):
        swapped = f.permute(Permutation.transposition(ctx.n, i, j))
        out = out - swapped.mul_inverse_difference(i, j, 2).mul_coupling()
        out = out - f.mul_inverse_difference(i, j, 2).mul_coupling(2)
    return out


def pair_potential(ctx: DunklContext, f: RationalSection) -> RationalSection:
    """sum_{i<j} (x_i - x_j)^-2 * f."""
    out = RationalSection.zero(ctx.n)
    for i, j in itertools.combinations(range(ctx.n), 2):
        out = out + f.mul_inverse_difference(i, j, 2)
    return out


def is_symmetric(f: RationalSection) -> bool:
    n = f.arity
    return all(f.permute(Permutation.transposition(n, i, i + 1)) == f
               for i in range(n - 1))


def is_antisymmetric(f: RationalSection) -> bool:
    n = f.arity
    return all(f.permute(Permutation.transposition(n, i, i + 1)) == -f
               for i in range(n - 1))


def restricted_projection(ctx: DunklContext, f: RationalSection,
                          sign: str) -> RationalSection:
    """sum_i nabla_i^2 f with every rightmost swap replaced by +1 or -1.

    Valid only on sections of the matching symmetry type (checked); there the
    replacement is exact and the result collapses to

        Laplacian f - 2 c (c +/- 1) * sum_{i<j} (x_i - x_j)^-2 f,

    i.e. -2 times the Calogero Hamiltonian with coupling c(c+1) on symmetric
    and c(c-1) on antisymmetric inputs.
    """
    if sign not in ("symmetric", "antisymmetric"):
        raise ValueError("sign must be 'symmetric' or 'antisymmetric'")
    if sign == "symmetric":
        if not is_symmetric(f):
            raise SymmetryError("section is not symmetric")
        swap_value = 1
    else:
        if not is_antisymmetric(f):
            raise SymmetryError("section is not antisymmetric")
        swap_value = -1
    out = laplacian(ctx, f)
    for i, j in itertools.permutations(range(ctx.n), 2):
        inv2 = f.mul_inverse_difference(i, j, 2)
        out = out - inv2.mul_coupling().scale(swap_value) - inv2.mul_coupling(2)
    return out


def calogero_apply(ctx: DunklContext, f: RationalSection,
                   g: MultiPoly | Fraction | int) -> RationalSection:
    """Calogero Hamiltonian action: -1/2 Laplacian f + g * sum_{i<j} (x_i-x_j)^-2 f.

    The coupling ``g`` is an exact rational or a polynomial in c such as
    c(c+1); a polynomial is multiplied in as a section.
    """
    if isinstance(g, MultiPoly):
        g = RationalSection.from_poly(g)
    return laplacian(ctx, f).scale(Fraction(-1, 2)) + pair_potential(ctx, f) * g


def vandermonde(n: int) -> RationalSection:
    """prod_{i<j} (x_i - x_j), the basic antisymmetric polynomial."""
    p = MultiPoly.one(n)
    for i, j in itertools.combinations(range(n), 2):
        p = p * (MultiPoly.variable(n, i) - MultiPoly.variable(n, j))
    return RationalSection.from_poly(p)


def _partitions(total: int, max_part: int | None = None):
    if total == 0:
        yield ()
        return
    if max_part is None:
        max_part = total
    for head in range(min(total, max_part), 0, -1):
        for tail in _partitions(total - head, head):
            yield (head,) + tail


def symmetric_basis(n: int, max_degree: int) -> list[RationalSection]:
    """Monomial symmetric polynomials m_lambda, |lambda| <= max_degree."""
    out = []
    for deg in range(max_degree + 1):
        for lam in _partitions(deg):
            if len(lam) > n:
                continue
            exps = set(itertools.permutations(tuple(lam) + (0,) * (n - len(lam))))
            poly = MultiPoly(n, {e + (0,): 1 for e in exps})
            out.append(RationalSection.from_poly(poly))
    return out


def antisymmetric_basis(n: int, max_degree: int) -> list[RationalSection]:
    """Vandermonde times symmetric monomials, total degree <= max_degree."""
    v = vandermonde(n)
    vdeg = n * (n - 1) // 2
    if max_degree < vdeg:
        return []
    return [v * s for s in symmetric_basis(n, max_degree - vdeg)]
