"""Independent oracle for the exact Dunkl calculus: sympy recomputes

    nabla_k f = d_k f - c * sum_{i != k} P_ik f / (x_i - x_k)

from its definition, with a symbolic coupling c, and every image,
commutator, sum of squares and restriction of the package must agree with it
after a round trip through the canonical text form."""

import itertools
import math

import pytest

from calogero.dunkl import (
    apply_dunkl,
    calogero_apply,
    commutator_dunkl,
    restricted_projection,
    sum_of_squares,
    sum_of_squares_normal_form,
    symmetric_basis,
    vandermonde,
)
from calogero.exactalg import RationalSection, monomial_exponents, parse_section
from conftest import coupling_poly

sympy = pytest.importorskip("sympy")

C = sympy.Symbol("c")


def _nabla(k, f, xs):
    out = sympy.diff(f, xs[k])
    for i in range(len(xs)):
        if i != k:
            swapped = f.subs({xs[i]: xs[k], xs[k]: xs[i]}, simultaneous=True)
            out -= C * swapped / (xs[i] - xs[k])
    return out


def _from_text(section, xs):
    """The section as a sympy expression, read back from its text form."""
    parsed = parse_section(section.to_text(), arity=len(xs))
    num = sum((sympy.Rational(v.numerator, v.denominator) * C ** exp[-1]
               * math.prod(x ** e for x, e in zip(xs, exp))
               for exp, v in parsed.num.terms.items()), sympy.Integer(0))
    den = math.prod((xs[i] - xs[j]) ** d for (i, j), d in parsed.den.items())
    return num / den


def _same(a, b):
    return sympy.cancel(sympy.together(a - b)) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_dunkl_images_and_commutators_match_sympy(n):
    xs = sympy.symbols(f"x0:{n}")
    for exp in monomial_exponents(n, 2):
        f = RationalSection.monomial(n, exp)
        f_sym = math.prod(x ** e for x, e in zip(xs, exp))
        images = [_nabla(k, f_sym, xs) for k in range(n)]
        for k in range(n):
            assert _same(_from_text(apply_dunkl(k, f), xs), images[k]), (exp, k)
        for j, k in itertools.combinations(range(n), 2):
            oracle = _nabla(j, images[k], xs) - _nabla(k, images[j], xs)
            assert _same(oracle, 0), (exp, j, k)
            assert _same(_from_text(commutator_dunkl(j, k, f), xs), oracle), (exp, j, k)


def _sum_of_squares(f, xs):
    return sum((_nabla(i, _nabla(i, f, xs), xs) for i in range(len(xs))), sympy.Integer(0))


@pytest.mark.parametrize("n", [2, 3])
def test_sum_of_squares_and_normal_form_match_sympy(n):
    xs = sympy.symbols(f"x0:{n}")
    for exp in monomial_exponents(n, 2):
        f = RationalSection.monomial(n, exp)
        oracle = _sum_of_squares(math.prod(x ** e for x, e in zip(xs, exp)), xs)
        assert _same(_from_text(sum_of_squares(f), xs), oracle), exp
        assert _same(_from_text(sum_of_squares_normal_form(f), xs), oracle), exp


@pytest.mark.parametrize("n", [2, 3])
def test_restriction_matches_sympy_calogero_action(n):
    # sum_i nabla_i^2 f = -2 (-1/2 Laplacian f + g sum_{i<j} (x_i - x_j)^-2 f)
    # with g = c(c+1) on symmetric f and g = c(c-1) on the Vandermonde
    xs = sympy.symbols(f"x0:{n}")
    plus = (C * (C + 1), coupling_poly(n, 0, 1, 1))
    minus = (C * (C - 1), coupling_poly(n, 0, -1, 1))
    cases = [(f, "symmetric", plus) for f in symmetric_basis(n, 2)]
    cases.append((vandermonde(n), "antisymmetric", minus))
    for f, sign, (g, g_poly) in cases:
        f_sym = _from_text(f, xs)
        laplacian = sum((sympy.diff(f_sym, x, 2) for x in xs), sympy.Integer(0))
        potential = sum((f_sym / (xs[i] - xs[j]) ** 2
                         for i, j in itertools.combinations(range(n), 2)), sympy.Integer(0))
        calogero = -laplacian / 2 + g * potential
        assert _same(_sum_of_squares(f_sym, xs), -2 * calogero), (sign, f.to_text())
        assert _same(_from_text(restricted_projection(f, sign), xs), -2 * calogero)
        assert _same(_from_text(calogero_apply(f, g_poly), xs), calogero)
