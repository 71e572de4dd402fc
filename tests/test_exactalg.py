import random
from fractions import Fraction as F

import pytest

from calogero.exactalg import (
    CouplingPoly,
    MultiPoly,
    Permutation,
    PoleError,
    RationalSection,
    monomial_exponents,
    parse_section,
)

C = CouplingPoly.c()


def var(n, i):
    return MultiPoly.variable(n, i)


def random_section(rng, n, max_degree=4, max_den=2):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(n))
        coeff = CouplingPoly([F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))])
        if not coeff.is_zero():
            terms[exp] = coeff
    den = {}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for pair in rng.sample(pairs, k=min(len(pairs), rng.randint(0, 2))):
        den[pair] = rng.randint(1, max_den)
    return RationalSection(MultiPoly(n, terms), den)


class TestCouplingPoly:
    def test_canonical_form_strips_zeros(self):
        assert CouplingPoly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert CouplingPoly([0, 0]).is_zero()

    def test_arithmetic(self):
        a = CouplingPoly([1, 2])     # 1 + 2c
        b = CouplingPoly([0, -2])    # -2c
        assert (a + b) == CouplingPoly([1])
        assert (a * b) == CouplingPoly([0, -2, -4])
        assert a - a == CouplingPoly.ZERO

    def test_eval_and_components(self):
        a = CouplingPoly([F(1, 2), 0, 3])
        assert a.eval_at(F(2)) == F(1, 2) + 12
        assert a.component(2) == 3
        assert a.component(5) == 0

    def test_shift_multiplies_by_powers_of_c(self):
        assert CouplingPoly([5]).shift(2) == CouplingPoly([0, 0, 5])


class TestMultiPoly:
    def test_additive_inverse(self):
        x0 = var(2, 0)
        assert (x0 + (-x0)).is_zero()

    def test_difference_of_squares(self):
        x0, x1 = var(2, 0), var(2, 1)
        assert (x0 - x1) * (x0 + x1) == x0 * x0 - x1 * x1

    def test_coupling_powers_multiply(self):
        cx = var(2, 0).scale(C)
        assert cx * cx == MultiPoly.monomial(2, (2, 0), C * C)

    def test_arity_mismatch_raises(self):
        with pytest.raises(ValueError):
            var(2, 0) + var(3, 0)

    def test_partial_derivative_of_square(self):
        p = MultiPoly.monomial(2, (2, 0))
        assert p.partial(0) == var(2, 0).scale(2)
        assert p.partial(1).is_zero()

    def test_permute_moves_variables(self):
        s = Permutation.transposition(2, 0, 1)
        assert var(2, 0).permute(s) == var(2, 1)

    def test_division_by_pair_difference(self):
        x0, x1 = var(3, 0), var(3, 1)
        p = (x0 - x1) * (x0 - x1) * var(3, 2)
        q = p.divide_by_difference(0, 1)
        assert q == (x0 - x1) * var(3, 2)
        assert var(3, 2).divide_by_difference(0, 1) is None

    def test_mul_difference_matches_general_product(self):
        rng = random.Random(5)
        for n in (2, 3, 4):
            for _ in range(10):
                p = random_section(rng, n).num
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            assert p.mul_difference(i, j) == p * (var(n, i) - var(n, j))

    def test_integral_coefficients_stay_int(self):
        p = MultiPoly.monomial(2, (3, 0), F(4, 2)).partial(0)
        assert all(type(v) is int for c in p.terms.values() for v in c.coeffs)
        half = CouplingPoly([F(1, 2)])
        assert type(half.component(0)) is F and type(half.component(1)) is int


class TestPermutation:
    def test_composition_convention(self):
        # (sigma * tau)(i) = sigma(tau(i))
        tau = Permutation.transposition(3, 0, 1)
        sigma = Permutation.transposition(3, 1, 2)
        assert (sigma * tau)(0) == 2

    def test_inverse(self):
        for p in Permutation.all_elements(4):
            assert (p * p.inverse()).is_identity()

    def test_sign(self):
        assert Permutation.transposition(4, 1, 3).sign() == -1
        assert Permutation.identity(4).sign() == 1
        assert Permutation((1, 2, 0)).sign() == 1

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 2))


class TestRationalSection:
    def test_quotient_rule_simple(self):
        inv = RationalSection.inverse_difference(2, 0, 1)
        expected = RationalSection(MultiPoly.constant(2, -1), {(0, 1): 2})
        assert inv.partial(0) == expected

    def test_quotient_rule_with_numerator(self):
        f = RationalSection(var(2, 1), {(0, 1): 1})  # x1/(x0-x1)
        expected = RationalSection(-var(2, 1), {(0, 1): 2})
        assert f.partial(0) == expected

    def test_permute_coordinate(self):
        s = Permutation.transposition(2, 0, 1)
        f = RationalSection.monomial(2, (1, 0))
        assert f.permute(s) == RationalSection.monomial(2, (0, 1))

    def test_permute_flips_difference_sign(self):
        s = Permutation.transposition(2, 0, 1)
        inv = RationalSection.inverse_difference(2, 0, 1)
        assert inv.permute(s) == -inv

    def test_fusion_on_monomial(self):
        # P01 P12 m == P02 P01 m on x0 x1^2 x2^3
        m = RationalSection.monomial(3, (1, 2, 3))
        s01 = Permutation.transposition(3, 0, 1)
        s12 = Permutation.transposition(3, 1, 2)
        s02 = Permutation.transposition(3, 0, 2)
        assert m.permute(s12).permute(s01) == m.permute(s01).permute(s02)

    def test_evaluate(self):
        f = RationalSection(var(2, 0), {(0, 1): 1})
        assert f.eval([1, 3]) == F(-1, 2)

    def test_evaluate_on_pole_identifies_pair(self):
        f = RationalSection.inverse_difference(3, 0, 2)
        with pytest.raises(PoleError) as err:
            f.eval([1, 5, 1])
        assert err.value.pair == (0, 2)

    def test_evaluate_with_coupling(self):
        f = RationalSection.one(2) + RationalSection(var(2, 1).scale(C), {(0, 1): 1})
        assert f.eval([0, 1], cval=2) == -1

    def test_cancellation_reduces(self):
        x0, x1 = var(2, 0), var(2, 1)
        f = RationalSection(x0 - x1, {(0, 1): 1})
        assert f == RationalSection.one(2)

    def test_addition_needs_common_denominator(self):
        a = RationalSection.inverse_difference(3, 0, 1)
        b = RationalSection.inverse_difference(3, 1, 2)
        total = a + b
        # 1/(x0-x1) + 1/(x1-x2) = (x0-x2)/((x0-x1)(x1-x2))
        expected = RationalSection(var(3, 0) - var(3, 2), {(0, 1): 1, (1, 2): 1})
        assert total == expected

    def test_arithmetic_defers_reduction_to_text(self):
        x0, x1 = var(2, 0), var(2, 1)
        f = RationalSection.one(2).mul_inverse_difference(0, 1)
        g = f * RationalSection.from_poly(x0 - x1)
        assert g.den == {(0, 1): 1}            # kept as built
        assert g == RationalSection.one(2)
        assert g.reduced().den == {} and g.to_text() == RationalSection.one(2).to_text()
        assert (g - RationalSection.one(2)).is_zero()

    def test_scale_by_zero(self):
        f = RationalSection.inverse_difference(2, 0, 1)
        assert f.scale(0).is_zero()


class TestRandomizedInvariants:
    def test_reduction_idempotence(self):
        rng = random.Random(117)
        for n in (2, 3, 4):
            for _ in range(25):
                f = random_section(rng, n)
                again = RationalSection(f.num, f.den)
                assert again == f

    def test_permutation_group_action(self):
        rng = random.Random(11)
        sections = [random_section(rng, 3) for _ in range(6)]
        elements = Permutation.all_elements(3)
        for f in sections:
            for sigma in elements:
                for tau in elements:
                    assert f.permute(tau).permute(sigma) == f.permute(sigma * tau)

    def test_evaluate_commutes_with_permutation(self):
        rng = random.Random(4242)
        hits = 0
        while hits < 100:
            n = rng.choice((2, 3))
            f = random_section(rng, n)
            sigma = rng.choice(Permutation.all_elements(n))
            point = [F(rng.randint(-12, 12), rng.randint(1, 5)) for _ in range(n)]
            permuted_point = [point[sigma(i)] for i in range(n)]
            try:
                left = f.permute(sigma).eval(point, cval=F(1, 3))
                right = f.eval(permuted_point, cval=F(1, 3))
            except PoleError:
                continue
            assert left == right
            hits += 1

    def test_text_round_trip(self):
        rng = random.Random(99)
        for n in (2, 3, 4):
            for _ in range(20):
                f = random_section(rng, n)
                assert parse_section(f.to_text(), arity=n) == f

    def test_text_round_trip_edge_cases(self):
        zero = RationalSection.zero(3)
        assert parse_section(zero.to_text(), arity=3) == zero
        with pytest.raises(ValueError):
            parse_section("0")  # arity cannot be inferred
        coupled = RationalSection.inverse_difference(2, 0, 1).scale(
            CouplingPoly([F(-1, 2), 0, F(3)]))
        assert parse_section(coupled.to_text()) == coupled

    def test_permute_size_mismatch(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(3, 0).permute(Permutation.identity(2))


def test_monomial_exponents_counts():
    # degree <= 2 in 2 variables: 1 + 2 + 3 = 6 monomials
    assert len(monomial_exponents(2, 2)) == 6
    assert len(monomial_exponents(3, 6)) == 84


def test_swap_relations_exact_at_full_scale():
    # involution, disjoint commutativity and fusion on every monomial of
    # total degree <= 6 for up to four coordinates
    from calogero.suites import permutation_relations_suite

    for n in (2, 3, 4):
        record = permutation_relations_suite(n, 6)
        assert record["failures"] == [], record["failures"][:1]
        assert record["caseCount"] > 0
