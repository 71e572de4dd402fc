import itertools
from fractions import Fraction as F

import pytest

from calogero import suites
from calogero.dunkl import (
    DunklContext,
    SymmetryError,
    antisymmetric_basis,
    apply_dunkl,
    calogero_apply,
    commutator_dunkl,
    laplacian,
    pair_potential,
    restricted_projection,
    sum_of_squares,
    sum_of_squares_normal_form,
    symmetric_basis,
    vandermonde,
    verify_intertwining,
)
from calogero.exactalg import (
    MultiPoly,
    Permutation,
    RationalSection,
    monomial_exponents,
    parse_section,
)
from conftest import coupling_poly


def g_plus(n):
    return coupling_poly(n, 0, 1, 1)    # c(c+1)


def g_minus(n):
    return coupling_poly(n, 0, -1, 1)   # c(c-1)


def mono(n, *exps):
    return RationalSection.monomial(n, exps)


class TestApplyDunkl:
    def test_on_constant(self):
        # no x-dependence: only the swap term survives, giving c/(x0-x1)
        ctx = DunklContext(2)
        result = apply_dunkl(ctx, 0, RationalSection.one(2))
        assert result == RationalSection.inverse_difference(2, 0, 1).mul_coupling()

    def test_on_first_coordinate(self):
        # 1 + c x1/(x0-x1): the swap sends x0 to x1, coefficient -1/(x0-x1)
        ctx = DunklContext(2)
        result = apply_dunkl(ctx, 0, mono(2, 1, 0))
        expected = RationalSection.one(2) + RationalSection(
            MultiPoly.variable(2, 1) * MultiPoly.coupling(2), {(0, 1): 1})
        assert result == expected

    def test_free_limit_is_partial_derivative(self):
        ctx = DunklContext(2)
        for exps in ((2, 1), (0, 3), (1, 1)):
            f = mono(2, *exps)
            assert apply_dunkl(ctx, 0, f).specialize_coupling(0) == f.partial(0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_dunkl(DunklContext(2), 2, RationalSection.one(2))


class TestZeroCurvature:
    def test_commutator_on_cubic(self):
        ctx = DunklContext(3)
        assert commutator_dunkl(ctx, 0, 1, mono(3, 2, 1, 0)).is_zero()

    def test_commutator_high_degree_two_particles(self):
        ctx = DunklContext(2)
        assert commutator_dunkl(ctx, 0, 1, mono(2, 5, 0)).is_zero()

    def test_free_limit_partials_commute(self):
        f = mono(2, 3, 2)
        assert (f.partial(0).partial(1) - f.partial(1).partial(0)).is_zero()

    def test_commutator_on_section_with_poles(self):
        ctx = DunklContext(3)
        f = RationalSection.inverse_difference(3, 0, 2) * mono(3, 0, 2, 0)
        assert commutator_dunkl(ctx, 1, 2, f).is_zero()

    def test_graded_pieces_vanish_separately(self):
        ctx = DunklContext(3)
        residual = commutator_dunkl(ctx, 0, 2, mono(3, 1, 1, 2))
        for power in (0, 1, 2):
            assert residual.coupling_component(power).is_zero()


class TestIntertwining:
    def test_swap_branch(self):
        # P01 nabla1 f == nabla0 P01 f
        ctx = DunklContext(3)
        assert verify_intertwining(ctx, 0, 1, 1, mono(3, 0, 3, 0)).is_zero()

    def test_commuting_branch(self):
        # [P01, nabla2] f == 0
        ctx = DunklContext(3)
        assert verify_intertwining(ctx, 0, 2, 1, mono(3, 1, 0, 1)).is_zero()

    def test_free_limit(self):
        ctx = DunklContext(2)
        f = mono(2, 0, 2)
        res = verify_intertwining(ctx, 0, 1, 1, f).specialize_coupling(0)
        assert res.is_zero()


class TestSumOfSquares:
    def test_matches_normal_form_antisymmetric(self):
        ctx = DunklContext(2)
        f = RationalSection.from_poly(
            MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1))
        assert (sum_of_squares(ctx, f) - sum_of_squares_normal_form(ctx, f)).is_zero()

    def test_matches_normal_form_product(self):
        ctx = DunklContext(3)
        f = mono(3, 1, 1, 1)
        assert (sum_of_squares(ctx, f) - sum_of_squares_normal_form(ctx, f)).is_zero()

    def test_free_limit_is_laplacian(self):
        ctx = DunklContext(2)
        f = mono(2, 2, 0)
        assert sum_of_squares(ctx, f).specialize_coupling(0) == \
            RationalSection.from_poly(MultiPoly.constant(2, 2))

    def test_graded_pieces_of_residual_vanish(self):
        ctx = DunklContext(3)
        residual = sum_of_squares(ctx, mono(3, 2, 0, 1)) - \
            sum_of_squares_normal_form(ctx, mono(3, 2, 0, 1))
        for power in (0, 1, 2):
            assert residual.coupling_component(power).is_zero()


class TestRestriction:
    def test_symmetric_constant(self):
        # Laplacian of 1 vanishes; both interaction terms pick up the minus
        # of the expanded square: -2c(c+1)/(x0-x1)^2
        ctx = DunklContext(2)
        result = restricted_projection(ctx, RationalSection.one(2), "symmetric")
        expected = RationalSection(coupling_poly(2, 0, -2, -2), {(0, 1): 2})
        assert result == expected

    def test_antisymmetric_linear_carries_cm1_factor(self):
        ctx = DunklContext(2)
        f = RationalSection.from_poly(
            MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1))
        result = restricted_projection(ctx, f, "antisymmetric")
        expected = RationalSection(g_minus(2).scale(F(-2)), {(0, 1): 1})
        assert result == expected

    def test_matches_true_operator_on_symmetric_input(self):
        ctx = DunklContext(3)
        for f in symmetric_basis(3, 3):
            assert restricted_projection(ctx, f, "symmetric") == sum_of_squares(ctx, f)

    def test_matches_true_operator_on_antisymmetric_input(self):
        ctx = DunklContext(3)
        for f in antisymmetric_basis(3, 4):
            assert restricted_projection(ctx, f, "antisymmetric") == \
                sum_of_squares(ctx, f)

    def test_equals_minus_two_calogero(self):
        ctx = DunklContext(2)
        one = RationalSection.one(2)
        assert restricted_projection(ctx, one, "symmetric") == \
            calogero_apply(ctx, one, g_plus(2)).scale(-2)
        v = vandermonde(2)
        assert restricted_projection(ctx, v, "antisymmetric") == \
            calogero_apply(ctx, v, g_minus(2)).scale(-2)

    def test_free_limit_is_laplacian(self):
        ctx = DunklContext(2)
        f = RationalSection.from_poly(
            MultiPoly.monomial(2, (2, 0)) + MultiPoly.monomial(2, (0, 2)))
        res = restricted_projection(ctx, f, "symmetric").specialize_coupling(0)
        assert res == laplacian(ctx, f)

    def test_wrong_symmetry_raises(self):
        ctx = DunklContext(2)
        with pytest.raises(SymmetryError):
            restricted_projection(ctx, mono(2, 1, 0), "symmetric")
        with pytest.raises(SymmetryError):
            restricted_projection(ctx, RationalSection.one(2), "antisymmetric")


class TestCalogeroApply:
    def test_free_quadratic(self):
        ctx = DunklContext(2)
        assert calogero_apply(ctx, mono(2, 2, 0), 0) == \
            RationalSection.from_poly(MultiPoly.constant(2, -1))

    def test_unit_coupling_constant_input(self):
        ctx = DunklContext(2)
        assert calogero_apply(ctx, RationalSection.one(2), 1) == \
            RationalSection.inverse_difference(2, 0, 1, 2)

    def test_three_particles_formal_coupling(self):
        ctx = DunklContext(3)
        result = calogero_apply(ctx, RationalSection.one(3), g_minus(3))
        expected = RationalSection.zero(3)
        for i, j in itertools.combinations(range(3), 2):
            expected = expected + RationalSection.inverse_difference(3, i, j, 2) * \
                RationalSection.from_poly(g_minus(3))
        assert result == expected


def test_vandermonde_is_antisymmetric():
    v = vandermonde(3)
    for i in range(2):
        assert v.permute(Permutation.transposition(3, i, i + 1)) == -v


def test_context_validation():
    with pytest.raises(ValueError):
        DunklContext(1)
    with pytest.raises(ValueError):
        DunklContext(3, 0)


def test_context_basis_spans_all_low_degree_monomials():
    ctx = DunklContext(3, 2)
    basis = ctx.basis()
    assert len(basis) == 10  # 1 + 3 + 6 monomials of degree <= 2
    degrees = sorted(f.num.total_degree() for f in basis)
    assert degrees == [0] + [1] * 3 + [2] * 6


def _flipped_term_residual(term):
    """Operator minus a normal form whose ``term`` has the wrong sign."""
    if term == "laplacian":
        return lambda ctx, f: laplacian(ctx, f).scale(2)
    # the c^2 term runs over ordered pairs, twice pair_potential
    return lambda ctx, f: pair_potential(ctx, f).mul_coupling(2).scale(-4)


@pytest.mark.parametrize("term, powers", [("laplacian", []), ("c^2", [2])])
def test_sign_mutation_in_normal_form_is_reported(monkeypatch, term, powers):
    # Section arithmetic keeps unreduced intermediates, so a suite must still
    # see a wrong normal form, and its failure texts must still be canonical.
    residual_of = _flipped_term_residual(term)
    monkeypatch.setattr(suites, "sum_of_squares_normal_form",
                        lambda ctx, f: sum_of_squares_normal_form(ctx, f) - residual_of(ctx, f))
    for n, degree in ((2, 3), (3, 2)):
        ctx = DunklContext(n)
        record = suites.sum_squares_suite(n, degree)
        expected = [list(e) for e in monomial_exponents(n, degree)
                    if not residual_of(ctx, RationalSection.monomial(n, e)).is_zero()]
        assert expected
        assert [f["monomial"] for f in record["failures"]] == expected
        for failure in record["failures"]:
            assert failure["nonzeroCouplingPowers"] == powers
            text = failure["residual"]
            parsed = parse_section(text, arity=n)
            assert parsed.to_text() == text
            assert parsed.reduced().to_text() == text
            assert parsed == residual_of(ctx, RationalSection.monomial(n, failure["monomial"]))
