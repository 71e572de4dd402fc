import itertools
import random
from fractions import Fraction as F

import pytest

from calogero.exactalg import (
    EXPONENT_LIMIT as LIMIT,
    MultiPoly,
    Permutation,
    PoleError,
    RationalSection,
    monomial_exponents,
    parse_section,
)
from calogero.symbolcalc import symbol_of_permutation
from conftest import coupling_poly

def var(n, i):
    return MultiPoly.variable(n, i)


def random_section(rng, n, max_degree=4, max_den=2):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exp = tuple(rng.randint(0, max_degree) for _ in range(n))
        for k in range(rng.randint(1, 3)):
            terms[exp + (k,)] = F(rng.randint(-4, 4))
    den = {}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for pair in rng.sample(pairs, k=min(len(pairs), rng.randint(0, 2))):
        den[pair] = rng.randint(1, max_den)
    return RationalSection(MultiPoly(n, terms), den)


class TestCouplingSlot:
    def test_zero_coefficients_are_stripped(self):
        p = coupling_poly(2, 1, 2, 0, 0)
        assert p.tuple_terms() == {(0, 0, 0): 1, (0, 0, 1): 2}
        assert coupling_poly(2, 0, 0).is_zero()
        assert MultiPoly.constant(2, 0).is_zero()

    def test_arithmetic_in_c(self):
        a = coupling_poly(2, 1, 2)     # 1 + 2c
        b = coupling_poly(2, 0, -2)    # -2c
        assert a + b == coupling_poly(2, 1)
        assert a * b == coupling_poly(2, 0, -2, -4)
        assert (a - a).is_zero()
        assert a - b == coupling_poly(2, 1, 4)

    def test_eval_at_c_and_components(self):
        a = coupling_poly(2, F(1, 2), 0, 3)
        assert a.eval([5, 7], cval=F(2)) == F(1, 2) + 12
        assert a.coupling_component(2) == MultiPoly.constant(2, 3)
        assert a.coupling_component(5).is_zero()
        p = var(2, 0) * a     # x0 (1/2 + 3 c^2)
        assert p.eval([F(3), 7], cval=F(2)) == 3 * (F(1, 2) + 12)
        assert p.coupling_component(0) == var(2, 0).scale(F(1, 2))
        assert p.specialize_coupling(F(2)) == var(2, 0).scale(F(25, 2))

    def test_shift_multiplies_by_powers_of_c(self):
        assert MultiPoly.constant(2, 5).shift_var(2, 2) == coupling_poly(2, 0, 0, 5)
        assert MultiPoly.coupling(2, 2).scale(5) == coupling_poly(2, 0, 0, 5)
        f = RationalSection(var(2, 1), {(0, 1): 1})
        assert f.mul_coupling(2) == f * RationalSection(MultiPoly.coupling(2, 2))

    def test_coupling_slot_is_not_a_coordinate(self):
        p = MultiPoly.monomial(2, (1, 2)) * MultiPoly.coupling(2, 3)
        assert p.total_degree() == 3
        s = Permutation.transposition(2, 0, 1)
        assert p.permute(s) == MultiPoly.monomial(2, (2, 1)) * MultiPoly.coupling(2, 3)
        assert p.to_text() == "(1 c^3) x^(1,2)"

    def test_constructor_takes_one_key_format(self):
        with pytest.raises(ValueError):
            MultiPoly(2, {(1, 0): 1})
        with pytest.raises(TypeError):
            var(2, 0).scale(MultiPoly.coupling(2))

    def test_text_groups_powers_of_c_by_x_exponent(self):
        p = (coupling_poly(2, 1, 2) * var(2, 1) + coupling_poly(2, F(-1, 2), 0, 3)
             + MultiPoly.coupling(2))
        assert p.to_text() == "(-1/2 + 1 c + 3 c^2) x^(0,0) + (1 + 2 c) x^(0,1)"
        assert parse_section(p.to_text()) == RationalSection(p)


class TestMultiPoly:
    def test_additive_inverse(self):
        x0 = var(2, 0)
        assert (x0 + (-x0)).is_zero()

    def test_difference_of_squares(self):
        x0, x1 = var(2, 0), var(2, 1)
        assert (x0 - x1) * (x0 + x1) == x0 * x0 - x1 * x1

    def test_coupling_powers_multiply(self):
        cx = var(2, 0) * MultiPoly.coupling(2)
        assert cx * cx == MultiPoly.monomial(2, (2, 0)).shift_var(2, 2)

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
        # A section sum multiplies each numerator by the pair differences its
        # denominator lacks (_difference_product into _add_product), here by
        # (x_a - x_b)^power with a < b, on the added and on the subtracted side:
        # p + 1/(x_i - x_j)^power has the numerator +-(p (x_i - x_j)^power + 1).
        rng = random.Random(5)
        for n in (2, 3, 4):
            for _ in range(10):
                p = random_section(rng, n).num
                for i, j in itertools.permutations(range(n), 2):
                    diff = var(n, i) - var(n, j)
                    for power in range(5):
                        pole = RationalSection.inverse_difference(n, i, j, power)
                        sign = -1 if i > j and power % 2 else 1
                        expected = (p * diff ** power + MultiPoly.one(n)).scale(sign)
                        for total in (RationalSection(p) + pole, pole - RationalSection(-p)):
                            assert total.num == expected
                            assert total.den == ({(min(i, j), max(i, j)): power}
                                                 if power else {})

    @pytest.mark.parametrize("index", [5, -1, 2])
    def test_variable_index_out_of_range_is_refused(self, index):
        # 2 is the coupling slot of an arity-2 polynomial, not a coordinate
        with pytest.raises(ValueError, match="out of range"):
            MultiPoly.variable(2, index)

    def test_integral_coefficients_stay_int(self):
        p = MultiPoly.monomial(2, (3, 0), F(4, 2)).partial(0)
        assert all(type(v) is int for v in p.terms.values())
        half = coupling_poly(2, F(1, 2), F(4, 2))
        half_terms = half.tuple_terms()
        assert type(half_terms[(0, 0, 0)]) is F and type(half_terms[(0, 0, 1)]) is int

        def integral_as_int(p):
            return all(type(v) is int or v.denominator != 1 for v in p.terms.values())

        x0_half = MultiPoly(2, {(1, 0, 0): F(1, 2)})
        results = [
            x0_half * MultiPoly(2, {(0, 1, 0): 2}),
            x0_half + x0_half,
            x0_half - MultiPoly(2, {(1, 0, 0): F(-1, 2)}),
            x0_half.scale(2),
            MultiPoly(2, {(2, 0, 0): F(1, 2)}).partial(0),
            MultiPoly(2, {(1, 0, 0): F(1, 2)}).substitute_scale(0, 2),
            MultiPoly(2, {(2, 0, 0): F(1, 2)}).substitute_shift(0, 1, 1),
        ]
        # 1/2 + 1/(x0 - x1)^2: the 1/2 is raised by x0^2 - 2 x0 x1 + x1^2
        raised = (RationalSection(MultiPoly.constant(2, F(1, 2)))
                  + RationalSection.inverse_difference(2, 0, 1, 2))
        results.append(raised.num)
        assert all(integral_as_int(p) for p in results)
        assert results[0].tuple_terms() == {(1, 1, 0): 1}
        assert raised.num.tuple_terms()[(1, 1, 0)] == -1


class TestPackingLimit:
    """Keys pack one field per slot; an exponent at the limit is refused
    wherever it would be packed or added to, so no field ever carries."""

    def test_one_below_the_limit_round_trips(self):
        for exp in ((LIMIT - 1, 0, 0), (0, LIMIT - 1, 0), (0, 0, LIMIT - 1),
                    (LIMIT - 1, LIMIT - 1, LIMIT - 1)):
            p = MultiPoly(2, {exp: 3})
            assert p.tuple_terms() == {exp: 3}
            assert parse_section(p.to_text()) == RationalSection(p)
        assert MultiPoly(2, {(LIMIT - 1, 1, 0): 1}).to_text() == f"(1) x^({LIMIT - 1},1)"

    def test_sums_of_admissible_slots_do_not_carry(self):
        # the largest exponents an operation may add: every slot of both
        # operands one below the limit
        top = MultiPoly(2, {(LIMIT - 1, LIMIT - 1, LIMIT - 1): 1})
        doubled = (2 * LIMIT - 2,) * 3
        assert (top * top).tuple_terms() == {doubled: 1}
        for j in (0, 1, 2):
            shifted = [LIMIT - 1] * 3
            shifted[j] = 2 * LIMIT - 2
            assert top.shift_var(j, LIMIT - 1).tuple_terms() == {tuple(shifted): 1}
        moved = MultiPoly(2, {(1, LIMIT - 1, 0): 1}).substitute_shift(0, 1, 1)
        assert moved.tuple_terms() == {(1, LIMIT - 1, 0): 1, (0, LIMIT, 0): 1}

    @pytest.mark.parametrize("exp", [(LIMIT, 0, 0), (0, LIMIT, 0), (0, 0, LIMIT),
                                     (0, 2 * LIMIT, 0), (1.0, 0, 0), (True, 0, 0),
                                     (0, 0, F(1))])
    def test_constructor_refuses(self, exp):
        with pytest.raises(ValueError):
            MultiPoly(2, {exp: 1})

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_product_refuses_an_operand_at_the_limit(self, slot):
        below = [0, 0, 0]
        below[slot] = LIMIT - 1
        one = [0, 0, 0]
        one[slot] = 1
        at = MultiPoly(2, {tuple(below): 1}) * MultiPoly(2, {tuple(one): 1})
        assert at.tuple_terms() == {tuple(LIMIT * e for e in one): 1}
        for left, right in ((at, at), (at, MultiPoly(2, {tuple(one): 1})),
                            (MultiPoly.one(2), at), (var(2, 1) + at, var(2, 0))):
            with pytest.raises(ValueError, match="limit"):
                left * right

    def test_power_refuses_the_limit(self):
        assert (var(2, 0) ** (LIMIT - 1)).tuple_terms() == {(LIMIT - 1, 0, 0): 1}
        for n in (LIMIT, LIMIT + 1, 2 * LIMIT):
            with pytest.raises(ValueError, match="limit"):
                MultiPoly.variable(2, 0) ** n
        with pytest.raises(ValueError, match="limit"):
            (var(2, 0) * var(2, 1) ** 3) ** (LIMIT // 3 + 1)

    def test_shift_var_refuses(self):
        at = MultiPoly(2, {(LIMIT - 1, 0, 0): 1}).shift_var(0)
        assert at.tuple_terms() == {(LIMIT, 0, 0): 1}
        for j in (0, 1, 2):
            with pytest.raises(ValueError, match="limit"):
                at.shift_var(j)
        for power in (LIMIT, -1):
            with pytest.raises(ValueError):
                MultiPoly.one(2).shift_var(0, power)
        with pytest.raises(ValueError, match="out of range"):
            MultiPoly.one(2).shift_var(3)

    def test_substitute_shift_refuses(self):
        at = MultiPoly(2, {(LIMIT - 1, 2, 0): 1}).shift_var(0)
        with pytest.raises(ValueError, match="limit"):
            at.substitute_shift(1, 0, 1)
        with pytest.raises(ValueError, match="limit"):
            at.substitute_shift(0, 1, F(1, 2))

    def test_section_sum_refuses(self):
        at = RationalSection(MultiPoly(2, {(LIMIT - 1, 0, 0): 1}).shift_var(0))
        with pytest.raises(ValueError, match="limit"):
            at + RationalSection.inverse_difference(2, 0, 1)

    def test_symbol_order_at_the_limit_is_refused(self):
        with pytest.raises(ValueError, match="limit"):
            symbol_of_permutation(2, 0, 1, LIMIT)


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

    def test_transposition_out_of_range_is_refused(self):
        for i, j in ((0, 3), (3, 0), (-1, 1), (5, 7)):
            with pytest.raises(ValueError, match="out of range"):
                Permutation.transposition(3, i, j)


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
        f = RationalSection.one(2) + RationalSection(var(2, 1), {(0, 1): 1}).mul_coupling()
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
        g = f * RationalSection(x0 - x1)
        assert g.den == {(0, 1): 1}            # kept as built
        assert g == RationalSection.one(2)
        assert g.reduced().den == {} and g.to_text() == RationalSection.one(2).to_text()
        assert (g - RationalSection.one(2)).is_zero()

    def test_scale_by_zero(self):
        f = RationalSection.inverse_difference(2, 0, 1)
        assert f.scale(0).is_zero()

    def test_reversed_pair_keeps_its_sign(self):
        # {(1, 0): d} is 1/(x1 - x0)^d: the odd power changes sign against
        # (x0 - x1), the even one does not
        one = MultiPoly.one(2)
        for d, value in ((1, F(1)), (2, F(1)), (3, F(1, 8))):
            point = [0, 1] if d < 3 else [0, 2]
            f = RationalSection(one, {(1, 0): d})
            assert f.eval(point) == value
            assert f == RationalSection.inverse_difference(2, 1, 0, d)
            assert f == RationalSection(one, {(0, 1): d}).scale((-1) ** d)

    def test_reversed_pair_in_text_keeps_its_sign(self):
        f = parse_section("[(1) x^(0,0)] / [(x1-x0)^1]", arity=2)
        assert f.eval([0, 1]) == 1
        assert f.to_text() == "[(-1) x^(0,0)] / [(x0-x1)^1]"

    def test_pair_out_of_range_is_refused(self):
        for pair in ((0, 5), (-1, 1), (2, 0)):
            with pytest.raises(ValueError):
                RationalSection(MultiPoly.one(2), {pair: 1})

    def test_multiplied_pair_out_of_range_is_refused(self):
        # refused as the constructor refuses it, not later by eval's IndexError
        one = RationalSection.one(2)
        for pair in ((0, 5), (-1, 1), (2, 0)):
            for power in (0, 1):
                with pytest.raises(ValueError, match="out of range"):
                    one.mul_inverse_difference(*pair, power)

    def test_pair_of_one_coordinate_in_text_is_refused(self):
        with pytest.raises(ValueError, match="pair indices must differ"):
            parse_section("[(1) x^(0,0)] / [(x1-x1)^2]")

    def test_negative_coupling_power_is_refused(self):
        f = RationalSection.one(2)
        with pytest.raises(ValueError, match=r"power -1 is outside 0\.\."):
            f.add_over_difference(f, 0, 1, coupling=-1)

    def test_negative_exponent_is_refused(self):
        for exp in ((-1, 0, 0), (0, 1, -2)):
            with pytest.raises(ValueError):
                MultiPoly(2, {exp: 1})
        with pytest.raises(ValueError):
            parse_section("(1) x^(-1,0)", arity=2)


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
        coupled = RationalSection.inverse_difference(2, 0, 1) * \
            RationalSection(coupling_poly(2, F(-1, 2), 0, F(3)))
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
