"""Property-based checks of the ring axioms and the section operations."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from calogero.exactalg import MultiPoly, Permutation, RationalSection

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
@given(sections, sections)
def test_section_field_operations(f, g):
    assert f + g == g + f
    assert f - f == RationalSection.zero(N_VARS)
    assert f * g == g * f


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
