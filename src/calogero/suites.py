"""Identity suites: exhaustive exact checks over graded monomial spanning
sets, with JSON-ready result records.

Every suite record has the shape
``{identity, N, degree, caseCount, failures: [...]}`` where a failure entry
carries the offending case and the serialized nonzero residual section.
Linearity of all operators makes a residual that vanishes on every monomial
of total degree <= D vanish on the whole degree-D polynomial space, so these
finite runs are complete certificates up to the tested degree.

Each suite is one per-case check (a monomial exponent; an S_N orbit of
exponents for intertwining; a symmetry type and a section for restriction)
that ``_run`` applies to every case.  Every
suite takes ``(n, degree, pool=None)``: without a pool the cases run
serially, with one from :func:`worker_pool` (the only place a process pool
is built), which maps a check over the cases in its workers.  The record
does not depend on the number of workers.  Swaps come from the shared table
``Permutation.transpositions``.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Callable, Iterator

from .dunkl import (
    SymmetryError,
    antisymmetric_basis,
    apply_dunkl,
    calogero_apply,
    restricted_projection,
    sum_of_squares,
    sum_of_squares_normal_form,
    symmetric_basis,
)
from .exactalg import (
    MultiPoly,
    Permutation,
    RationalSection,
    monomial_exponents,
)

__all__ = [
    "zero_curvature_suite",
    "intertwining_suite",
    "sum_squares_suite",
    "restriction_suite",
    "permutation_relations_suite",
    "run_suite",
    "worker_pool",
    "SUITE_NAMES",
]


@contextlib.contextmanager
def worker_pool(workers: int) -> Iterator[Callable | None]:
    """``pool(check, n, cases)``, the results of ``check(n, case)`` in case
    order from one process pool of ``workers`` shared by the suites run in the
    block, or None when ``workers`` is 1 and every suite runs serially."""
    if workers <= 1:
        yield None
        return
    # imported here so that a serial run never loads concurrent.futures
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as executor:
        def pool(check, n, cases):
            return executor.map(check, itertools.repeat(n), cases,
                                chunksize=max(1, len(cases) // (4 * workers)))
        yield pool


def _run(identity: str, check, cases: list, n: int, degree: int,
         pool: Callable | None) -> dict:
    """One suite record: ``check(n, case) -> (count, failures)`` on every case,
    serially or in ``pool``, summed in case order."""
    if pool is None:
        parts = [check(n, case) for case in cases]
    else:
        parts = list(pool(check, n, cases))
    return {"identity": identity, "N": n, "degree": degree,
            "caseCount": sum(count for count, _ in parts),
            "failures": [f for _, failures in parts for f in failures]}


def _nonzero_coupling_powers(residual: RationalSection) -> list[int]:
    """The graded pieces c^1, c^2 of a failed residual that do not vanish."""
    return [pw for pw in (1, 2) if not residual.coupling_component(pw).is_zero()]


def _check_zero_curvature(n: int, exp: tuple[int, ...]) -> tuple[int, list[dict]]:
    f = RationalSection.monomial(n, exp)
    first = [apply_dunkl(k, f) for k in range(n)]
    failures = []
    count = 0
    for j, k in itertools.combinations(range(n), 2):
        count += 1
        residual = apply_dunkl(j, first[k]) - apply_dunkl(k, first[j])
        if not residual.is_zero():
            failures.append({"monomial": list(exp), "pair": [j, k],
                             "residual": residual.to_text(),
                             "nonzeroCouplingPowers": _nonzero_coupling_powers(residual)})
    return count, failures


def _check_intertwining(n: int, orbit: tuple[tuple[int, ...], ...]) -> tuple[int, list[dict]]:
    """The swap relations on every monomial of one S_N orbit of exponents,
    in ``orbit`` order.  A swap maps x^e to the monomial of the swapped
    exponent, in the same orbit, so the n first applications of each member
    are computed once and serve both sides of every residual."""
    first = {e: [apply_dunkl(l, RationalSection.monomial(n, e)) for l in range(n)]
             for e in orbit}
    failures = []
    count = 0
    swaps = Permutation.transpositions(n)
    for exp in orbit:
        mine = first[exp]
        for j, k in itertools.combinations(range(n), 2):
            swap = swaps[j][k]
            swapped = list(exp)
            swapped[j], swapped[k] = exp[k], exp[j]
            theirs = first[tuple(swapped)]
            for l in range(n):
                count += 1
                residual = mine[l].permute(swap) - theirs[swap(l)]
                if not residual.is_zero():
                    failures.append({"monomial": list(exp), "pair": [j, k],
                                     "component": l, "residual": residual.to_text()})
    return count, failures


def _check_sum_squares(n: int, exp: tuple[int, ...]) -> tuple[int, list[dict]]:
    f = RationalSection.monomial(n, exp)
    residual = sum_of_squares(f) - sum_of_squares_normal_form(f)
    if residual.is_zero():
        return 1, []
    return 1, [{"monomial": list(exp), "residual": residual.to_text(),
                "nonzeroCouplingPowers": _nonzero_coupling_powers(residual)}]


def _check_permutation_relations(n: int, exp: tuple[int, ...]) -> tuple[int, list[dict]]:
    f = RationalSection.monomial(n, exp)
    pairs = list(itertools.combinations(range(n), 2))
    failures = []
    count = 0

    def check(tag, indices, lhs, rhs):
        nonlocal count
        count += 1
        if lhs != rhs:
            failures.append({"monomial": list(exp), "relation": tag,
                             "indices": list(indices),
                             "residual": (lhs - rhs).to_text()})

    swaps = Permutation.transpositions(n)
    for i, k in pairs:
        s = swaps[i][k]
        check("involution", (i, k), f.permute(s).permute(s), f)
    for (i, j), (k, l) in itertools.combinations(pairs, 2):
        if len({i, j, k, l}) == 4:
            a, b = swaps[i][j], swaps[k][l]
            check("disjoint-commute", (i, j, k, l),
                  f.permute(b).permute(a), f.permute(a).permute(b))
    for i, k, l in itertools.permutations(range(n), 3):
        s_ik, s_kl, s_il = swaps[i][k], swaps[k][l], swaps[i][l]
        first = f.permute(s_kl).permute(s_ik)     # P_ik P_kl f
        check("fusion-a", (i, k, l), first, f.permute(s_ik).permute(s_il))
        check("fusion-b", (i, k, l), first, f.permute(s_il).permute(s_kl))
    return count, failures


def _check_restriction(n: int, case: tuple[str, RationalSection]) -> tuple[int, list[dict]]:
    sign, f = case
    c = MultiPoly.coupling(n)
    g = c * c + c if sign == "symmetric" else c * c - c    # c(c+1) or c(c-1)
    try:
        res = restricted_projection(f, sign)
    except SymmetryError as exc:
        # a case of the suite is (anti)symmetric by construction: a swap that
        # breaks it is a defect of the operators, reported as a failure
        return 1, [{"sign": sign, "section": f.to_text(), "brokenSwap": list(exc.swap)}]
    true_op = sum_of_squares(f)
    target = calogero_apply(f, g).scale(-2)
    if res == true_op and res == target:
        return 1, []
    return 1, [{"sign": sign, "section": f.to_text(),
                "projectionMinusOperator": (res - true_op).to_text(),
                "projectionMinusCalogero": (res - target).to_text()}]


def zero_curvature_suite(n: int, degree: int, pool: Callable | None = None) -> dict:
    """[nabla_j, nabla_k] f == 0 for all pairs and monomials of degree <= degree,
    identically in the formal coupling; a failure also names the powers of c
    whose pieces of the residual do not vanish."""
    return _run("zero-curvature", _check_zero_curvature,
                monomial_exponents(n, degree), n, degree, pool)


def intertwining_suite(n: int, degree: int, pool: Callable | None = None) -> dict:
    """P_jk nabla_l == nabla_{s(l)} P_jk on the spanning set (all j<k, all l);
    a case of the run is one S_N orbit of exponents, and the failures are
    put back in monomial order, (degree, exponent)."""
    orbits: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for e in monomial_exponents(n, degree):
        orbits.setdefault(tuple(sorted(e)), []).append(e)
    record = _run("intertwining", _check_intertwining,
                  [tuple(orbit) for orbit in orbits.values()], n, degree, pool)
    # stable: a monomial's failures stay in (pair, component) order
    record["failures"].sort(key=lambda f: (sum(f["monomial"]), f["monomial"]))
    return record


def sum_squares_suite(n: int, degree: int, pool: Callable | None = None) -> dict:
    """sum nabla_i^2 equals its normal-ordered form on the spanning set."""
    return _run("sum-of-squares", _check_sum_squares,
                monomial_exponents(n, degree), n, degree, pool)


def permutation_relations_suite(n: int, degree: int,
                                pool: Callable | None = None) -> dict:
    """Involution, disjoint commutativity and fusion of coordinate swaps."""
    return _run("permutation-relations", _check_permutation_relations,
                monomial_exponents(n, degree), n, degree, pool)


def restriction_suite(n: int, degree: int, pool: Callable | None = None) -> dict:
    """On (anti)symmetric polynomials the rightmost-swap replacement matches
    the true operator and equals -2x the Calogero action with coupling
    c(c+1) (symmetric) or c(c-1) (antisymmetric)."""
    cases = ([("symmetric", f) for f in symmetric_basis(n, degree)]
             + [("antisymmetric", f) for f in antisymmetric_basis(n, degree)])
    return _run("restriction-coefficients", _check_restriction, cases, n, degree, pool)


# Each entry calls its suite through the module attribute at call time, so a
# wrapped or patched suite function is the one that runs.
_SUITES = {
    "zerocurv": lambda n, degree, pool: zero_curvature_suite(n, degree, pool),
    "intertwine": lambda n, degree, pool: intertwining_suite(n, degree, pool),
    "sumsq": lambda n, degree, pool: sum_squares_suite(n, degree, pool),
    "permrel": lambda n, degree, pool: permutation_relations_suite(n, degree, pool),
    "restriction": lambda n, degree, pool: restriction_suite(n, degree, pool),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, n: int, degree: int, pool: Callable | None = None) -> dict:
    """The record of suite ``name``; with ``pool`` (see :func:`worker_pool`)
    its cases run in that shared pool."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return _SUITES[name](n, degree, pool)
