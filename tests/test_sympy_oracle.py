"""Independent oracle for the exact Dunkl calculus: sympy recomputes

    nabla_k f = d_k f - c * sum_{i != k} P_ik f / (x_i - x_k)

from its definition, with a symbolic coupling c, and every image and
commutator of the package must agree with it after a round trip through the
canonical text form."""

import itertools
import math

import pytest

from calogero.dunkl import DunklContext, apply_dunkl, commutator_dunkl
from calogero.exactalg import RationalSection, monomial_exponents, parse_section

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
    ctx = DunklContext(n, 2)
    for exp in monomial_exponents(n, 2):
        f = RationalSection.monomial(n, exp)
        f_sym = math.prod(x ** e for x, e in zip(xs, exp))
        images = [_nabla(k, f_sym, xs) for k in range(n)]
        for k in range(n):
            assert _same(_from_text(apply_dunkl(ctx, k, f), xs), images[k]), (exp, k)
        for j, k in itertools.combinations(range(n), 2):
            oracle = _nabla(j, images[k], xs) - _nabla(k, images[j], xs)
            assert _same(oracle, 0), (exp, j, k)
            assert _same(_from_text(commutator_dunkl(ctx, j, k, f), xs), oracle), (exp, j, k)
