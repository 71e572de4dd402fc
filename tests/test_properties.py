"""Property-based checks of the ring axioms, the section operations, the
quantized swap symbol and the Lax-matrix identities."""

import math
from fractions import Fraction as F
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calogero.exactalg import (
    EXPONENT_LIMIT,
    MultiPoly,
    Permutation,
    RationalSection,
    _pack,
    _unpack,
)
from calogero.laxdyn import (
    PhasePoint,
    build_lax,
    hamiltonian,
    trace_integrals,
    trace_p3_explicit,
)
from calogero.symbolcalc import (
    permutation_series,
    quantize_apply,
    symbol_of_permutation,
)

N_VARS = 3

rationals = st.fractions(
    min_value=F(-6), max_value=F(6), max_denominator=4)

# x exponents, then the power of the coupling c in the last slot
exponents = st.tuples(*(st.integers(min_value=0, max_value=3),) * N_VARS,
                      st.integers(min_value=0, max_value=2))

polys = st.dictionaries(exponents, rationals, min_size=0, max_size=8).map(
    lambda terms: MultiPoly(N_VARS, terms))

perms = st.sampled_from(Permutation.all_elements(N_VARS))

pairs = st.sampled_from([(i, j) for i in range(N_VARS)
                         for j in range(i + 1, N_VARS)])

sections = st.tuples(
    polys,
    st.dictionaries(pairs, st.integers(min_value=1, max_value=2), max_size=2),
).map(lambda t: RationalSection(*t))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys)
def test_additive_and_multiplicative_identities(a):
    zero = MultiPoly.zero(N_VARS)
    one = MultiPoly.one(N_VARS)
    assert a + zero == a
    assert a * one == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys, pairs, st.booleans(), rationals.filter(bool))
def test_division_by_pair_difference_inverts_multiplication(p, pair, swap, const):
    i, j = pair[::-1] if swap else pair
    product = p * (MultiPoly.variable(N_VARS, i) - MultiPoly.variable(N_VARS, j))
    assert product.divide_by_difference(i, j) == p
    plus = product + MultiPoly.constant(N_VARS, const)
    assert plus.divide_by_difference(i, j) is None


def test_zero_polynomial_divides_to_zero():
    for i, j in [(0, 1), (2, 0)]:
        assert MultiPoly.zero(N_VARS).divide_by_difference(i, j).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys, st.sampled_from([(j, k) for j in range(N_VARS) for k in range(N_VARS) if j != k]),
       st.integers(min_value=0, max_value=6))
def test_quantized_symbol_equals_series(f, pair, order):
    # Fraction coefficients and coupling powers take the Fraction(v, den)
    # path; orders below the degree compare the truncated sums
    symbol = symbol_of_permutation(N_VARS, *pair, order)
    assert quantize_apply(symbol, f) == permutation_series(*pair, f, order)


@settings(max_examples=60, deadline=None)
@given(sections, sections)
def test_section_field_operations(f, g):
    assert f + g == g + f
    assert f - f == RationalSection.zero(N_VARS)
    assert f * g == g * f


# exact points off the walls x_i = x_j, where every section is defined
points = st.lists(rationals, min_size=N_VARS, max_size=N_VARS, unique=True)


@settings(max_examples=60, deadline=None)
@given(sections, sections, points, rationals)
def test_section_sum_evaluates_pointwise(f, g, pt, cval):
    # evaluation shares no code with the common-denominator sum
    fv, gv = f.eval(pt, cval), g.eval(pt, cval)
    assert (f + g).eval(pt, cval) == fv + gv
    assert (f - g).eval(pt, cval) == fv - gv


@settings(max_examples=60, deadline=None)
@given(sections, perms, perms)
def test_permutation_left_action(f, sigma, tau):
    assert f.permute(tau).permute(sigma) == f.permute(sigma * tau)


@settings(max_examples=60, deadline=None)
@given(sections, sections)
def test_text_does_not_depend_on_construction_path(a, b):
    back = (a + b) - b
    assert back == a
    assert back.to_text() == a.to_text()


@settings(max_examples=40, deadline=None)
@given(sections, st.integers(min_value=0, max_value=2))
def test_derivative_text_matches_reduced_input(a, k):
    assert a.partial(k).to_text() == a.reduced().partial(k).to_text()


@settings(max_examples=40, deadline=None)
@given(sections, st.integers(min_value=0, max_value=2))
def test_derivative_is_linear_and_leibniz(f, k):
    g = RationalSection.monomial(N_VARS, (1, 0, 1))
    assert (f + g).partial(k) == f.partial(k) + g.partial(k)
    assert (f * g).partial(k) == f.partial(k) * g + f * g.partial(k)


@settings(max_examples=40, deadline=None)
@given(sections, perms, st.integers(min_value=0, max_value=2))
def test_derivative_conjugates_under_permutation(f, sigma, k):
    # moving the derivative through the argument permutation relabels it
    assert f.permute(sigma).partial(sigma(k)) == f.partial(k).permute(sigma)


# -- packed keys against a tuple-keyed reference ------------------------------

# exponents small, or just below the limit, where a carry would show first
slot_values = st.one_of(st.integers(min_value=0, max_value=5),
                        st.integers(min_value=EXPONENT_LIMIT - 4,
                                    max_value=EXPONENT_LIMIT - 1))


def exponent_vectors(arity, values=slot_values):
    """Exponent tuples of one polynomial of ``arity``: one slot per
    coordinate plus the coupling slot."""
    return st.tuples(*(values,) * (arity + 1))


@st.composite
def vector_pairs(draw):
    arity = draw(st.integers(min_value=1, max_value=6))
    return arity, draw(exponent_vectors(arity)), draw(exponent_vectors(arity))


@settings(max_examples=200, deadline=None)
@given(vector_pairs())
def test_packed_keys_round_trip_order_and_add(case):
    arity, a, b = case
    ka, kb = _pack(a), _pack(b)
    assert _unpack(ka, arity) == a and _unpack(kb, arity) == b
    assert (ka < kb) == (a < b) and (ka == kb) == (a == b)
    assert _unpack(ka + kb, arity) == tuple(map(add, a, b))


@st.composite
def poly_pairs(draw, min_arity=1):
    """Two polynomials of one random arity up to 4, each as its tuple-keyed
    reference dict."""
    arity = draw(st.integers(min_value=min_arity, max_value=4))
    terms = st.dictionaries(exponent_vectors(arity), rationals.filter(bool), max_size=5)
    return arity, draw(terms), draw(terms)


def ref_clean(terms):
    return {e: v for e, v in terms.items() if v}


def ref_mul(a, b):
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            e = tuple(map(add, ea, eb))
            out[e] = out.get(e, 0) + va * vb
    return ref_clean(out)


def ref_permute(terms, images):
    # slot images[k] of the result is slot k of the input; c stays last
    out = {}
    for e, v in terms.items():
        new = list(e)
        for k, image in enumerate(images):
            new[image] = e[k]
        out[tuple(new)] = v
    return out


def ref_partial(terms, k):
    out = {}
    for e, v in terms.items():
        if e[k]:
            out[e[:k] + (e[k] - 1,) + e[k + 1:]] = v * e[k]
    return out


def ref_shift_var(terms, j, power):
    return {e[:j] + (e[j] + power,) + e[j + 1:]: v for e, v in terms.items()}


def ref_substitute_shift(terms, k, j, alpha):
    out = {}
    for e, v in terms.items():
        for i in range(e[k] + 1):
            new = list(e)
            new[k], new[j] = e[k] - i, e[j] + i
            new = tuple(new)
            out[new] = out.get(new, 0) + v * math.comb(e[k], i) * alpha ** i
    return ref_clean(out)


@settings(max_examples=100, deadline=None)
@given(poly_pairs(), st.data())
def test_packed_operations_match_the_tuple_reference(case, data):
    arity, a, b = case
    pa, pb = MultiPoly(arity, a), MultiPoly(arity, b)
    assert pa.tuple_terms() == a
    assert (pa * pb).tuple_terms() == ref_mul(a, b)
    sigma = data.draw(st.sampled_from(Permutation.all_elements(arity)))
    assert pa.permute(sigma).tuple_terms() == ref_permute(a, sigma.images)
    if arity > 1:
        i, k = data.draw(st.lists(st.integers(0, arity - 1), min_size=2, max_size=2,
                                  unique=True))
        swap = Permutation.transposition(arity, i, k)
        assert pa.permute(swap).tuple_terms() == ref_permute(a, swap.images)
    k = data.draw(st.integers(min_value=0, max_value=arity - 1))
    assert pa.partial(k).tuple_terms() == ref_partial(a, k)
    j = data.draw(st.integers(min_value=0, max_value=arity))       # c included
    power = data.draw(slot_values)
    assert pa.shift_var(j, power).tuple_terms() == ref_shift_var(a, j, power)


@settings(max_examples=100, deadline=None)
@given(poly_pairs(min_arity=2), st.data(), rationals)
def test_substitute_shift_matches_the_tuple_reference(case, data, alpha):
    arity, a, _ = case
    k, j = data.draw(st.lists(st.integers(0, arity - 1), min_size=2, max_size=2,
                              unique=True))
    # slot k is expanded binomially, so it stays small; slot j may sit just
    # below the limit
    a = {e[:k] + (e[k] % 5,) + e[k + 1:]: v for e, v in a.items()}
    got = MultiPoly(arity, a).substitute_shift(k, j, alpha)
    assert got.tuple_terms() == ref_substitute_shift(a, k, j, alpha)


@st.composite
def ordered_states(draw):
    """(x, p) with N = 2..5 strictly increasing positions."""
    n = draw(st.integers(min_value=2, max_value=5))
    start = draw(st.floats(min_value=-5.0, max_value=5.0))
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=3.0),
                         min_size=n - 1, max_size=n - 1))
    p = draw(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n))
    return tuple(float(v) for v in np.cumsum([start, *gaps])), tuple(p)


@settings(max_examples=60, deadline=None)
@given(ordered_states())
def test_energy_is_half_the_second_trace(xp):
    state = PhasePoint(*xp, g2=1.0, omega=0.0)
    assert math.isclose(hamiltonian(state), trace_integrals(state, 2)[1] / 2,
                        rel_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(ordered_states())
def test_explicit_cubic_trace_matches_matrix_trace(xp):
    state = PhasePoint(*xp)
    # relative to |P|_F^3, which bounds |tr P^3|; the trace itself may cancel to 0
    scale = np.linalg.norm(build_lax(state)) ** 3
    assert abs(trace_p3_explicit(state) - trace_integrals(state, 3)[2]) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(ordered_states(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
def test_phase_point_rejects_non_finite_entries(xp, bad, data):
    n = len(xp[0])
    values = [*xp[0], *xp[1], 1.0, 0.0]          # x, p, g2, omega
    values[data.draw(st.integers(min_value=0, max_value=2 * n + 1))] = bad
    with pytest.raises(ValueError, match="finite"):
        PhasePoint(tuple(values[:n]), tuple(values[n:2 * n]), *values[2 * n:])
