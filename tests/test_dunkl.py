import itertools
import multiprocessing
from fractions import Fraction as F

import pytest

from calogero import dunkl, suites
from calogero.cli import main
from calogero.dunkl import (
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
from conftest import coupling_poly, mutant_module


def g_plus(n):
    return coupling_poly(n, 0, 1, 1)    # c(c+1)


def g_minus(n):
    return coupling_poly(n, 0, -1, 1)   # c(c-1)


def mono(n, *exps):
    return RationalSection.monomial(n, exps)


class TestApplyDunkl:
    def test_on_constant(self):
        # no x-dependence: only the swap term survives, giving c/(x0-x1)
        result = apply_dunkl(0, RationalSection.one(2))
        assert result == RationalSection.inverse_difference(2, 0, 1).mul_coupling()

    def test_on_first_coordinate(self):
        # 1 + c x1/(x0-x1): the swap sends x0 to x1, coefficient -1/(x0-x1)
        result = apply_dunkl(0, mono(2, 1, 0))
        expected = RationalSection.one(2) + RationalSection(
            MultiPoly.variable(2, 1) * MultiPoly.coupling(2), {(0, 1): 1})
        assert result == expected

    def test_free_limit_is_partial_derivative(self):
        for exps in ((2, 1), (0, 3), (1, 1)):
            f = mono(2, *exps)
            assert apply_dunkl(0, f).specialize_coupling(0) == f.partial(0)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_dunkl(2, RationalSection.one(2))


class TestZeroCurvature:
    def test_commutator_on_cubic(self):
        assert commutator_dunkl(0, 1, mono(3, 2, 1, 0)).is_zero()

    def test_commutator_high_degree_two_particles(self):
        assert commutator_dunkl(0, 1, mono(2, 5, 0)).is_zero()

    def test_equal_indices_are_refused(self):
        with pytest.raises(ValueError, match="commutator needs distinct indices"):
            commutator_dunkl(1, 1, mono(2, 1, 0))

    def test_free_limit_partials_commute(self):
        f = mono(2, 3, 2)
        assert (f.partial(0).partial(1) - f.partial(1).partial(0)).is_zero()

    def test_commutator_on_section_with_poles(self):
        f = RationalSection.inverse_difference(3, 0, 2) * mono(3, 0, 2, 0)
        assert commutator_dunkl(1, 2, f).is_zero()

    def test_graded_pieces_vanish_separately(self):
        residual = commutator_dunkl(0, 2, mono(3, 1, 1, 2))
        for power in (0, 1, 2):
            assert residual.coupling_component(power).is_zero()


class TestIntertwining:
    def test_swap_branch(self):
        # P01 nabla1 f == nabla0 P01 f
        assert verify_intertwining(0, 1, 1, mono(3, 0, 3, 0)).is_zero()

    def test_commuting_branch(self):
        # [P01, nabla2] f == 0
        assert verify_intertwining(0, 2, 1, mono(3, 1, 0, 1)).is_zero()

    def test_free_limit(self):
        f = mono(2, 0, 2)
        res = verify_intertwining(0, 1, 1, f).specialize_coupling(0)
        assert res.is_zero()

    def test_swap_out_of_range_is_refused(self):
        with pytest.raises(ValueError, match="out of range"):
            verify_intertwining(0, 1, 3, mono(3, 1, 0, 1))


class TestSumOfSquares:
    def test_matches_normal_form_antisymmetric(self):
        f = RationalSection(
            MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1))
        assert (sum_of_squares(f) - sum_of_squares_normal_form(f)).is_zero()

    def test_matches_normal_form_product(self):
        f = mono(3, 1, 1, 1)
        assert (sum_of_squares(f) - sum_of_squares_normal_form(f)).is_zero()

    def test_free_limit_is_laplacian(self):
        f = mono(2, 2, 0)
        assert sum_of_squares(f).specialize_coupling(0) == \
            RationalSection(MultiPoly.constant(2, 2))

    def test_graded_pieces_of_residual_vanish(self):
        f = mono(3, 2, 0, 1)
        residual = sum_of_squares(f) - sum_of_squares_normal_form(f)
        for power in (0, 1, 2):
            assert residual.coupling_component(power).is_zero()


class TestRestriction:
    def test_symmetric_constant(self):
        # Laplacian of 1 vanishes; both interaction terms pick up the minus
        # of the expanded square: -2c(c+1)/(x0-x1)^2
        result = restricted_projection(RationalSection.one(2), "symmetric")
        expected = RationalSection(coupling_poly(2, 0, -2, -2), {(0, 1): 2})
        assert result == expected

    def test_antisymmetric_linear_carries_cm1_factor(self):
        f = RationalSection(
            MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1))
        result = restricted_projection(f, "antisymmetric")
        expected = RationalSection(g_minus(2).scale(F(-2)), {(0, 1): 1})
        assert result == expected

    def test_matches_true_operator_on_symmetric_input(self):
        for f in symmetric_basis(3, 3):
            assert restricted_projection(f, "symmetric") == sum_of_squares(f)

    def test_matches_true_operator_on_antisymmetric_input(self):
        for f in antisymmetric_basis(3, 4):
            assert restricted_projection(f, "antisymmetric") == sum_of_squares(f)

    def test_equals_minus_two_calogero(self):
        one = RationalSection.one(2)
        assert restricted_projection(one, "symmetric") == \
            calogero_apply(one, g_plus(2)).scale(-2)
        v = vandermonde(2)
        assert restricted_projection(v, "antisymmetric") == \
            calogero_apply(v, g_minus(2)).scale(-2)

    def test_free_limit_is_laplacian(self):
        f = RationalSection(
            MultiPoly.monomial(2, (2, 0)) + MultiPoly.monomial(2, (0, 2)))
        res = restricted_projection(f, "symmetric").specialize_coupling(0)
        assert res == laplacian(f)

    def test_unknown_symmetry_type_is_refused(self):
        with pytest.raises(ValueError, match="sign must be 'symmetric' or 'antisymmetric'"):
            restricted_projection(RationalSection.one(2), "odd")

    def test_wrong_symmetry_raises(self):
        with pytest.raises(SymmetryError):
            restricted_projection(mono(2, 1, 0), "symmetric")
        with pytest.raises(SymmetryError):
            restricted_projection(RationalSection.one(2), "antisymmetric")


class TestCalogeroApply:
    def test_free_quadratic(self):
        assert calogero_apply(mono(2, 2, 0), 0) == \
            RationalSection(MultiPoly.constant(2, -1))

    def test_unit_coupling_constant_input(self):
        assert calogero_apply(RationalSection.one(2), 1) == \
            RationalSection.inverse_difference(2, 0, 1, 2)

    def test_three_particles_formal_coupling(self):
        result = calogero_apply(RationalSection.one(3), g_minus(3))
        expected = RationalSection.zero(3)
        for i, j in itertools.combinations(range(3), 2):
            expected = expected + RationalSection.inverse_difference(3, i, j, 2) * \
                RationalSection(g_minus(3))
        assert result == expected


def test_vandermonde_is_antisymmetric():
    v = vandermonde(3)
    for i in range(2):
        assert v.permute(Permutation.transposition(3, i, i + 1)) == -v


def _flipped_term_residual(term):
    """Operator minus a normal form whose ``term`` has the wrong sign."""
    if term == "laplacian":
        return lambda f: laplacian(f).scale(2)
    # the c^2 term runs over ordered pairs, twice pair_potential
    return lambda f: pair_potential(f).mul_coupling(2).scale(-4)


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched module only when forked"))])
@pytest.mark.parametrize("term, powers", [("laplacian", []), ("c^2", [2])])
def test_sign_mutation_in_normal_form_is_reported(monkeypatch, term, powers, workers):
    # Section arithmetic keeps unreduced intermediates, so a suite must still
    # see a wrong normal form, and its failure texts must still be canonical.
    # Pool workers are forked after the patch, so they run the wrong normal
    # form too, and their failures must come back in the serial order.
    residual_of = _flipped_term_residual(term)
    monkeypatch.setattr(suites, "sum_of_squares_normal_form",
                        lambda f: sum_of_squares_normal_form(f) - residual_of(f))
    for n, degree in ((2, 3), (3, 2)):
        with suites.worker_pool(workers) as pool:
            record = suites.sum_squares_suite(n, degree, pool)
        expected = [list(e) for e in monomial_exponents(n, degree)
                    if not residual_of(RationalSection.monomial(n, e)).is_zero()]
        assert expected
        assert [f["monomial"] for f in record["failures"]] == expected
        for failure in record["failures"]:
            assert failure["nonzeroCouplingPowers"] == powers
            text = failure["residual"]
            parsed = parse_section(text, arity=n)
            assert parsed.to_text() == text
            assert parsed.reduced().to_text() == text
            assert parsed == residual_of(RationalSection.monomial(n, failure["monomial"]))


def test_c2_sign_mutation_in_shared_normal_ordered_loop_fails_both_suites(monkeypatch):
    # The normal form and the restricted projection share one loop; flipping
    # the sign of its c^2 term must break the sum-of-squares identity and the
    # restriction identity alike.
    term = "out = out.add_over_difference(f, i, j, 2, coupling=2, negate=True)"
    mutant = mutant_module(dunkl, term, term.replace("negate=True", "negate=False"))
    monkeypatch.setattr(suites, "sum_of_squares_normal_form", mutant.sum_of_squares_normal_form)
    monkeypatch.setattr(suites, "restricted_projection", mutant.restricted_projection)
    sumsq = suites.sum_squares_suite(2, 2)
    restriction = suites.restriction_suite(3, 3)
    assert len(sumsq["failures"]) == sumsq["caseCount"] > 0
    assert len(restriction["failures"]) == restriction["caseCount"] > 0
    assert {f["sign"] for f in restriction["failures"]} == {"symmetric", "antisymmetric"}


def test_sign_twisted_swap_is_a_restriction_failure_not_a_refusal(monkeypatch, capsys):
    # The twisted swap f -> -(f o s) on odd s maps a symmetric f to -f and an
    # antisymmetric f to f, so the swap (0 1) already breaks the declared
    # symmetry of every case of the suite: each becomes a failure record
    # naming that swap, and verify exits 1, not 2 (refused input)
    cases = ([("symmetric", f) for f in symmetric_basis(3, 3)]
             + [("antisymmetric", f) for f in antisymmetric_basis(3, 3)])
    permute = MultiPoly.permute

    def twisted(self, sigma):
        return -permute(self, sigma) if sigma.sign() == -1 else permute(self, sigma)

    monkeypatch.setattr(MultiPoly, "permute", twisted)
    record = suites.restriction_suite(3, 3)
    assert record["caseCount"] == len(cases) > 0
    assert record["failures"] == [{"sign": sign, "section": f.to_text(), "brokenSwap": [0, 1]}
                                  for sign, f in cases]
    with pytest.raises(SymmetryError, match=r"not symmetric under the swap \(0, 1\)"):
        restricted_projection(cases[0][1], "symmetric")
    assert main(["verify", "--n=3", "--deg=3", "--suite=restriction"]) == 1
    out, err = capsys.readouterr()
    assert '"brokenSwap"' in out and err == ""


def _collapsed(exp, i, k):
    """Exponents of x^exp after x_i -> x_k, with x_k left in place."""
    out = list(exp)
    out[k] += out[i]
    out[i] = 0
    return tuple(out)


def _collapsing_permute(self, sigma):
    """Not a group action: sigma sends its first moved variable x_i to
    x_{sigma(i)} and sends nothing back, so x_i is lost."""
    moved = [v for v in range(sigma.size) if sigma(v) != v]
    if not moved:
        return self
    i = moved[0]
    terms = {}
    for exp, coef in self.tuple_terms().items():
        key = _collapsed(exp, i, sigma(i))
        terms[key] = terms.get(key, 0) + coef
    return MultiPoly(self.arity, {key: coef for key, coef in terms.items() if coef})


def _collapsing_relation_failures(n, degree):
    """The permutation-relations records of the collapsing map, derived from
    its definition: on a monomial the swap (a b), a < b, moves a's exponent
    onto b, so each side of a relation is one monomial."""
    assert n == 3  # no two disjoint swaps

    def swap(exp, a, b):
        return _collapsed(exp, min(a, b), max(a, b))

    out = []

    def relation(exp, tag, indices, lhs, rhs):
        if lhs != rhs:
            residual = MultiPoly(n, {lhs + (0,): 1, rhs + (0,): -1})
            out.append({"monomial": list(exp), "relation": tag, "indices": list(indices),
                        "residual": RationalSection(residual).to_text()})

    for exp in monomial_exponents(n, degree):
        for i, k in itertools.combinations(range(n), 2):
            relation(exp, "involution", (i, k), swap(swap(exp, i, k), i, k), exp)
        for i, k, l in itertools.permutations(range(n), 3):
            # s_ik s_kl = s_il s_ik = s_kl s_il, the right factor acting first
            first = swap(swap(exp, k, l), i, k)
            relation(exp, "fusion-a", (i, k, l), first, swap(swap(exp, i, k), i, l))
            relation(exp, "fusion-b", (i, k, l), first, swap(swap(exp, i, l), k, l))
    return out


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched module only when forked"))])
def test_map_that_is_no_action_fails_the_permutation_relations(monkeypatch, workers):
    # every group action passes this suite, the sign-twisted swap included; a
    # map that loses a variable must fail it with exactly its own residuals
    monkeypatch.setattr(MultiPoly, "permute", _collapsing_permute)
    expected = _collapsing_relation_failures(3, 2)
    with suites.worker_pool(workers) as pool:
        record = suites.permutation_relations_suite(3, 2, pool)
    assert len(expected) > 0
    assert {f["relation"] for f in expected} == {"involution", "fusion-a", "fusion-b"}
    assert record["failures"] == expected


def test_unknown_suite_is_refused():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        suites.run_suite("nope", 2, 1)


def _broken_dunkl(k, f):
    """nabla_k, except that coordinate 0's exchange term carries 2c, not c:
    2 (d_0 f - c X f) - d_0 f = d_0 f - 2c X f."""
    if k != 0:
        return apply_dunkl(k, f)
    return apply_dunkl(0, f).scale(2) - f.partial(0)


def _broken_zero_curvature_failures(n, degree):
    out = []
    for e in monomial_exponents(n, degree):
        f = RationalSection.monomial(n, e)
        for j, k in itertools.combinations(range(n), 2):
            residual = _broken_dunkl(j, _broken_dunkl(k, f)) - _broken_dunkl(k, _broken_dunkl(j, f))
            if not residual.is_zero():
                out.append((list(e), [j, k], residual))
    return out


def _broken_intertwining_failures(n, degree):
    out = []
    for e in monomial_exponents(n, degree):
        f = RationalSection.monomial(n, e)
        for j, k in itertools.combinations(range(n), 2):
            s = Permutation.transposition(n, j, k)
            for l in range(n):
                residual = (_broken_dunkl(l, f).permute(s)
                            - _broken_dunkl(s(l), f.permute(s)))
                if not residual.is_zero():
                    out.append((list(e), [j, k], l, residual))
    return out


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched module only when forked"))])
def test_broken_operator_fails_zero_curvature(monkeypatch, workers):
    # The suite must compare nabla_j nabla_k with nabla_k nabla_j, not a
    # difference that vanishes whatever the operator: with a wrong exchange
    # coefficient on one coordinate, its failures are exactly the nonzero
    # commutators of the broken operator, in case order.
    monkeypatch.setattr(suites, "apply_dunkl", _broken_dunkl)
    for n, degree, failing in ((2, 2, 6), (3, 2, 20)):
        with suites.worker_pool(workers) as pool:
            record = suites.zero_curvature_suite(n, degree, pool)
        expected = _broken_zero_curvature_failures(n, degree)
        assert len(expected) == failing
        assert [(f["monomial"], f["pair"]) for f in record["failures"]] == \
            [(e, pair) for e, pair, _ in expected]
        for failure, (_, _, residual) in zip(record["failures"], expected):
            assert failure["residual"] == residual.to_text()
            assert failure["nonzeroCouplingPowers"] == [
                pw for pw in (1, 2) if not residual.coupling_component(pw).is_zero()]


@pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="pool workers see the patched module only when forked"))])
def test_broken_operator_fails_intertwining(monkeypatch, workers):
    # Likewise the swap must be compared with the operator on the swapped
    # section: the failures are exactly the broken operator's nonzero
    # intertwining residuals, in monomial order although the suite computes
    # one S_N orbit of exponents at a time.  At N=4 the orbits of degree 2
    # interleave in that order and include monomials such as x0 x1 that a
    # swap fixes.
    monkeypatch.setattr(suites, "apply_dunkl", _broken_dunkl)
    for n, degree, failing in ((2, 2, 12), (3, 2, 40), (4, 2, 90)):
        with suites.worker_pool(workers) as pool:
            record = suites.intertwining_suite(n, degree, pool)
        expected = _broken_intertwining_failures(n, degree)
        assert len(expected) == failing
        assert [(f["monomial"], f["pair"], f["component"]) for f in record["failures"]] == \
            [(e, pair, l) for e, pair, l, _ in expected]
        for failure, (_, _, _, residual) in zip(record["failures"], expected):
            assert failure["residual"] == residual.to_text()
