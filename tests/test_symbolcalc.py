import math
from fractions import Fraction as F

import pytest

from calogero import cli, symbolcalc
from calogero.exactalg import MultiPoly, Permutation, _pack, _unpack, monomial_exponents
from calogero.symbolcalc import (
    GroupedSymbol,
    Scale,
    Shift,
    apply_shift_word,
    permutation_series,
    quantize_apply,
    realization_report,
    sign_flip_series,
    swap_word_registry,
    symbol_of_permutation,
    symbol_terms,
)


def mono(n, *exps):
    return MultiPoly.monomial(n, exps)


def swap(f, j=0, k=1):
    return f.permute(Permutation.transposition(f.arity, j, k))


class TestShiftWords:
    def test_sign_flip_even_power(self):
        f = mono(2, 2, 1)
        assert apply_shift_word((Scale(0, F(-1)),), f) == f

    def test_single_shift(self):
        f = MultiPoly.variable(2, 0)
        assert apply_shift_word((Shift(0, 1, F(1)),), f) == \
            MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)

    def test_flip_left_word_swaps_mixed_monomial(self):
        word = swap_word_registry(0, 1)["flip-left"]
        assert apply_shift_word(word, mono(2, 1, 2)) == mono(2, 2, 1)

    def test_all_registered_words_swap_low_degrees(self):
        for name, word in swap_word_registry(0, 1).items():
            for exps in ((1, 0), (0, 1), (2, 1), (1, 3), (2, 2)):
                f = mono(2, *exps)
                assert apply_shift_word(word, f) == swap(f), name

    def test_words_leave_spectator_variables_alone(self):
        for word in swap_word_registry(0, 1).values():
            f = mono(3, 1, 2, 3)
            assert apply_shift_word(word, f) == swap(f)


class TestSignFlipSeries:
    def test_linear(self):
        # v - 2v = -v
        assert sign_flip_series([0, 1], 1) == (F(0), F(-1))

    def test_cubic_full_order(self):
        # (1 - 6 + 12 - 8) v^3 = -v^3
        assert sign_flip_series([0, 0, 0, 1], 3) == (F(0), F(0), F(0), F(-1))

    def test_truncation_below_degree_reported_not_exact(self):
        # v^2 at order 1: v^2 - 4v^2 = -3v^2, not the flip
        assert sign_flip_series([0, 0, 1], 1) == (F(0), F(0), F(-3))

    def test_matches_reflection_when_order_reaches_degree(self):
        coeffs = [F(3), F(-2), F(5), F(7)]
        flipped = sign_flip_series(coeffs, 3)
        assert flipped == (F(3), F(2), F(5), F(-7))


class TestPermutationSeries:
    def test_symmetric_input_fixed_at_order_zero(self):
        f = MultiPoly.variable(2, 0) + MultiPoly.variable(2, 1)
        assert permutation_series(0, 1, f, 0) == f

    def test_linear_needs_order_one(self):
        f = MultiPoly.variable(2, 0)
        assert permutation_series(0, 1, f, 1) == MultiPoly.variable(2, 1)

    def test_cubic_mixed_monomial(self):
        f = mono(2, 2, 1)
        assert permutation_series(0, 1, f, 3) == mono(2, 1, 2)

    def test_exact_at_degree_and_wrong_below(self):
        for deg in range(1, 6):
            f = mono(2, deg, 0)
            assert permutation_series(0, 1, f, deg) == swap(f)
            assert permutation_series(0, 1, f, deg - 1) != swap(f)

    def test_involution(self):
        for exps in monomial_exponents(3, 4):
            f = MultiPoly.monomial(3, exps)
            deg = sum(exps)
            once = permutation_series(0, 2, f, deg)
            assert permutation_series(0, 2, once, deg) == f


class TestScaling:
    def test_minus_one_is_sign_flip(self):
        f = mono(2, 3, 0)
        assert Scale(0, F(-1)).apply(f) == f.scale(F(-1))

    def test_eigenvalue_powers(self):
        assert Scale(0, F(2)).apply(mono(2, 2, 0)) == MultiPoly.monomial(2, (2, 0), 4)

    def test_identity(self):
        f = mono(2, 1, 4)
        assert Scale(0, F(1)).apply(f) == f

    def test_composition_multiplies_factors(self):
        for exps in monomial_exponents(2, 4):
            f = MultiPoly.monomial(2, exps)
            twice = Scale(0, F(2)).apply(Scale(0, F(3, 2)).apply(f))
            assert twice == Scale(0, F(3)).apply(f)


class TestSymbol:
    def test_order_zero_is_identity_term(self):
        identity = GroupedSymbol(1, {(0, 0): [(_pack((0, 0, 0)), 1)]})
        assert symbol_of_permutation(2, 0, 1, 0) == identity

    def test_order_one_adds_difference_pair(self):
        symbol = symbol_of_permutation(2, 0, 1, 1)
        terms = {(_unpack(x, 2)[:-1], p): F(num, symbol.den)
                 for p, row in symbol.groups.items() for x, num in row}
        # the identity, then (x0 - x1)(p1 - p0) expanded into four monomial pairs
        assert len(terms) == 5 and terms[((0, 0), (0, 0))] == 1
        assert terms[((1, 0), (0, 1))] == 1
        assert terms[((1, 0), (1, 0))] == -1
        assert terms[((0, 1), (0, 1))] == -1
        assert terms[((0, 1), (1, 0))] == 1

    def test_quantized_symbol_reproduces_series(self):
        for exps in monomial_exponents(2, 4):
            f = MultiPoly.monomial(2, exps)
            order = sum(exps)
            symbol = symbol_of_permutation(2, 0, 1, order)
            assert quantize_apply(symbol, f) == permutation_series(0, 1, f, order)

    def test_quantized_symbol_round_trip_against_swap(self):
        for exps in monomial_exponents(2, 4):
            f = MultiPoly.monomial(2, exps)
            symbol = symbol_of_permutation(2, 0, 1, sum(exps))
            assert quantize_apply(symbol, f) == swap(f)

    def test_each_derivative_taken_once(self, monkeypatch):
        # order 6 at N=3 has 140 terms over 28 momentum exponents; a full
        # degree-6 polynomial keeps every derivative nonzero
        symbol = symbol_of_permutation(3, 0, 2, 6)
        distinct = {p for p in symbol.groups if any(p)}
        s = sum((MultiPoly.variable(3, i) for i in range(3)), MultiPoly.zero(3))
        f = s ** 6 + mono(3, 3, 0, 3) * MultiPoly.coupling(3)
        calls = []
        partial = MultiPoly.partial

        def counted(self, k):
            calls.append(k)
            return partial(self, k)

        monkeypatch.setattr(MultiPoly, "partial", counted)
        assert quantize_apply(symbol, f) == swap(f, 0, 2)
        assert 0 < len(calls) <= len(distinct)

    def test_integral_coefficients_are_ints(self):
        f = mono(2, 3, 1)
        series = permutation_series(0, 1, f, 4)
        quantized = quantize_apply(symbol_of_permutation(2, 0, 1, 4), f)
        for g in (series, quantized):
            assert g == mono(2, 1, 3)
            assert [type(c) for c in g.terms.values()] == [int]

    def test_json_form(self):
        assert symbol_terms(symbol_of_permutation(2, 0, 1, 0)) == [
            {"xExponents": [0, 0], "pExponents": [0, 0], "coefficient": "1"}]
        # sorted by (x, p) exponents, each coefficient reduced
        terms = symbol_terms(symbol_of_permutation(2, 0, 1, 2))
        keys = [(t["xExponents"], t["pExponents"]) for t in terms]
        assert keys == sorted(keys) and len(keys) == 1 + 4 + 9
        assert terms[-1] == {"xExponents": [2, 0], "pExponents": [2, 0],
                             "coefficient": "1/2"}


class TestGroupedSymbol:
    def test_one_denominator_keeps_every_term(self):
        # against sum_n ((x0 - x1)(p1 - p0))^n / n! in four commuting variables
        symbol = symbol_of_permutation(2, 0, 1, 4)
        assert symbol.den == 24
        x0, x1, p0, p1 = (MultiPoly.variable(4, i) for i in range(4))
        expected = MultiPoly.zero(4)
        for n in range(5):
            expected = expected + ((x0 - x1) * (p1 - p0)) ** n * F(1, math.factorial(n))
        regrouped = {_unpack(x, 2)[:-1] + p + (0,): F(num, symbol.den)
                     for p, row in symbol.groups.items() for x, num in row}
        assert regrouped == expected.tuple_terms()
        assert sum(map(len, symbol.groups.values())) == len(regrouped)
        assert all(type(num) is int and num and _unpack(x, 2)[-1] == 0
                   for row in symbol.groups.values() for x, num in row)

    def test_derivatives_taken_only_below_the_exponents(self, monkeypatch):
        # x0^3 x1 at order 4: of the symbol's 15 momentum exponents only the
        # 8 with p <= (3, 1) are differentiated; the rest are skipped by
        # comparing exponents, with no derivative taken
        symbol = symbol_of_permutation(2, 0, 1, 4)
        assert len(symbol.groups) == 15
        taken = set()
        derivative = symbolcalc._derivative

        def counted(derivs, p_exp):
            taken.add(p_exp)
            return derivative(derivs, p_exp)

        partials = []
        partial = MultiPoly.partial

        def counted_partial(self, k):
            partials.append(k)
            return partial(self, k)

        monkeypatch.setattr(symbolcalc, "_derivative", counted)
        monkeypatch.setattr(MultiPoly, "partial", counted_partial)
        assert quantize_apply(symbol, mono(2, 3, 1)) == mono(2, 1, 3)
        assert taken == {(a, b) for a in range(4) for b in range(2)}
        assert len(partials) == 7

    def test_removing_a_live_group_breaks_the_round_trip(self):
        f = mono(2, 3, 1)
        symbol = symbol_of_permutation(2, 0, 1, 4)
        live = {p for p in symbol.groups if p[0] <= 3 and p[1] <= 1}
        assert len(live) == 8
        for p in symbol.groups:
            rest = GroupedSymbol(symbol.den, {q: row for q, row in symbol.groups.items()
                                              if q != p})
            assert (quantize_apply(rest, f) == swap(f)) == (p not in live), p

    def test_fraction_coefficients_and_coupling_powers(self):
        f = MultiPoly(3, {(2, 1, 0, 1): F(1, 3), (0, 1, 2, 0): F(-5, 2), (1, 0, 0, 2): 4})
        symbol = symbol_of_permutation(3, 0, 2, 3)
        got = quantize_apply(symbol, f)
        assert got == permutation_series(0, 2, f, 3) == swap(f, 0, 2)
        assert any(type(c) is F for c in got.terms.values())

    def test_zero_polynomial(self):
        symbol = symbol_of_permutation(2, 0, 1, 3)
        assert quantize_apply(symbol, MultiPoly.zero(2)).is_zero()
        assert permutation_series(0, 1, MultiPoly.zero(2), 3).is_zero()


def test_realization_report_all_match():
    report = realization_report(3, 4)
    assert report["caseCount"] == len(monomial_exponents(3, 4))
    assert all(entry["matchesSwap"] for entry in report["realizations"].values())


@pytest.mark.parametrize("wrong_first", [True, False])
def test_realization_report_flags_only_a_wrong_word(monkeypatch, wrong_first):
    # the three shears without the flip turn (x0, x1) by a quarter, so they
    # fail exactly where the sign of one coordinate shows
    registry = swap_word_registry

    def with_wrong_word(j, k):
        words = registry(j, k)
        wrong = {"shears-only": words["flip-left"][1:]}
        return {**wrong, **words} if wrong_first else {**words, **wrong}

    monkeypatch.setattr(symbolcalc, "swap_word_registry", with_wrong_word)
    report = realization_report(3, 4)
    wrong_word = swap_word_registry(0, 1)["flip-left"][1:]
    expected = [mono(3, *e).to_text() for e in monomial_exponents(3, 4)
                if apply_shift_word(wrong_word, mono(3, *e)) != swap(mono(3, *e))]
    assert 0 < len(expected) < report["caseCount"]
    results = report["realizations"]
    assert results["shears-only"] == {"matchesSwap": False, "failures": expected}
    assert [name for name, entry in results.items() if not entry["matchesSwap"]] == [
        "shears-only"]
    assert len(results) == 6


def test_realization_report_builds_the_symbol_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return symbol_of_permutation(*args)

    monkeypatch.setattr(symbolcalc, "symbol_of_permutation", counted)
    report = realization_report(3, 4, 0, 2)
    assert calls == [(3, 0, 2, 4)]
    assert report["realizations"]["quantized-symbol"]["matchesSwap"]


def test_realization_report_refuses_a_swap_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        realization_report(3, 2, 0, 5)


@pytest.mark.parametrize("j, k, match", [
    (-1, 0, "out of range"), (0, -1, "out of range"), (0, 2, "out of range"),
    (5, 1, "out of range"), (1, 1, "distinct"),
])
def test_series_refuses_a_bad_pair(j, k, match):
    # -1 used to wrap to the coupling slot and return a wrong series silently
    with pytest.raises(ValueError, match=match):
        permutation_series(j, k, mono(2, 1, 0), 1)


@pytest.mark.parametrize("j, k, match", [
    (-1, 0, "out of range"), (0, 5, "out of range"), (2, 0, "out of range"),
    (0, 0, "distinct"),
])
def test_symbol_refuses_a_bad_pair(j, k, match):
    # (-1, 0) used to build the symbol of the swap (1 0); (0, 5) raised IndexError
    with pytest.raises(ValueError, match=match):
        symbol_of_permutation(2, j, k, 2)


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        permutation_series(0, 1, MultiPoly.one(2), -1)
    with pytest.raises(ValueError):
        sign_flip_series([1], -1)
    with pytest.raises(ValueError):
        symbol_of_permutation(2, 0, 1, -1)


def test_shift_word_rejects_non_polynomial_input():
    word = swap_word_registry(0, 1)["flip-left"]
    with pytest.raises(TypeError):
        apply_shift_word(word, "x0 + x1")
