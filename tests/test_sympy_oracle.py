"""Independent oracle for the exact Dunkl calculus: sympy recomputes

    nabla_k f = d_k f - c * sum_{i != k} P_ik f / (x_i - x_k)

from its definition, with a symbolic coupling c, and every image,
commutator, sum of squares and restriction of the package must agree with it
after a round trip through the canonical text form.  It also recomputes the
two polynomial kernels of the normal-ordering report: the shift substitution
x_k -> x_k + alpha x_j, and the truncated swap series

    sum_{n<=order} (x_j - x_k)^n / n! (d_k - d_j)^n f

that a quantized swap symbol must reproduce."""

import itertools
import math
from fractions import Fraction

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
from calogero.exactalg import MultiPoly, RationalSection, monomial_exponents, parse_section
from calogero.symbolcalc import quantize_apply, symbol_of_permutation
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
               for exp, v in parsed.num.tuple_terms().items()), sympy.Integer(0))
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


# Non-monomial polynomials at N=3; exponent tuples end in the power of c.
POLYS3 = [
    MultiPoly(3, {(2, 1, 0, 0): Fraction(3, 2), (0, 3, 0, 1): -1, (1, 0, 1, 2): 5,
                  (0, 0, 0, 0): -7}),
    MultiPoly(3, {(3, 0, 1, 1): Fraction(2, 3), (1, 2, 1, 0): -4, (0, 0, 4, 3): 1,
                  (1, 1, 0, 1): Fraction(-5, 7)}),
    MultiPoly(3, {(4, 0, 0, 0): 1, (0, 2, 2, 2): Fraction(1, 3), (2, 0, 1, 0): 6,
                  (0, 1, 0, 0): Fraction(-1, 2), (0, 0, 0, 1): 2}),
]


def _poly_expr(p, xs):
    return _from_text(RationalSection(p), xs)


@pytest.mark.parametrize("alpha", [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 2)])
def test_substitute_shift_matches_sympy(alpha):
    xs = sympy.symbols("x0:3")
    a = sympy.Rational(alpha.numerator, alpha.denominator)
    for f in POLYS3:
        f_sym = _poly_expr(f, xs)
        for k, j in itertools.permutations(range(3), 2):
            oracle = f_sym.subs(xs[k], xs[k] + a * xs[j])
            assert _same(_poly_expr(f.substitute_shift(k, j, alpha), xs), oracle), (k, j)


def test_quantized_symbol_matches_sympy_series():
    xs = sympy.symbols("x0:3")
    for f in POLYS3:
        f_sym = _poly_expr(f, xs)
        degree = f.total_degree()
        for j, k in ((0, 1), (0, 2), (1, 2), (2, 0)):
            swapped = f_sym.subs({xs[j]: xs[k], xs[k]: xs[j]}, simultaneous=True)
            oracle = sympy.Integer(0)
            deriv = f_sym
            for order in range(degree + 2):
                if order:
                    deriv = sympy.diff(deriv, xs[k]) - sympy.diff(deriv, xs[j])
                oracle += (xs[j] - xs[k]) ** order / math.factorial(order) * deriv
                if order < degree - 1:
                    continue
                symbol = symbol_of_permutation(3, j, k, order)
                got = _poly_expr(quantize_apply(symbol, f), xs)
                assert _same(got, oracle), (f.to_text(), j, k, order)
                if order >= degree:
                    assert _same(got, swapped), (f.to_text(), j, k, order)
