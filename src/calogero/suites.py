"""Identity suites: exhaustive exact checks over graded monomial spanning
sets, with JSON-ready result records.

Every suite record has the shape
``{identity, N, degree, caseCount, failures: [...]}`` where a failure entry
carries the offending case and the serialized nonzero residual section.
Linearity of all operators makes a residual that vanishes on every monomial
of total degree <= D vanish on the whole degree-D polynomial space, so these
finite runs are complete certificates up to the tested degree.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor

from .dunkl import (
    DunklContext,
    antisymmetric_basis,
    apply_dunkl,
    calogero_apply,
    restricted_projection,
    sum_of_squares,
    sum_of_squares_normal_form,
    symmetric_basis,
)
from .exactalg import (
    CouplingPoly,
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
    "SUITE_NAMES",
    "worker_count",
]

_G_PLUS = CouplingPoly((0, 1, 1))    # c(c+1)
_G_MINUS = CouplingPoly((0, -1, 1))  # c(c-1)


def worker_count(flag: int | None = None) -> int:
    """Worker pool size: explicit flag wins, then CALOGERO_WORKERS, then 1."""
    if flag is not None and flag > 0:
        return flag
    env = os.environ.get("CALOGERO_WORKERS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def _monomial_chunks(n: int, degree: int, workers: int):
    exps = monomial_exponents(n, degree)
    if workers <= 1:
        return [exps]
    size = max(1, (len(exps) + workers - 1) // workers)
    return [exps[i:i + size] for i in range(0, len(exps), size)]


def _zero_curvature_chunk(args) -> tuple[int, list[dict]]:
    n, degree, exps = args
    ctx = DunklContext(n, degree)
    failures = []
    count = 0
    for exp in exps:
        f = RationalSection.monomial(n, exp)
        first = [apply_dunkl(ctx, k, f) for k in range(n)]
        for j, k in itertools.combinations(range(n), 2):
            count += 1
            residual = apply_dunkl(ctx, j, first[k]) - apply_dunkl(ctx, k, first[j])
            graded_bad = [pw for pw in (1, 2) if not residual.coupling_component(pw).is_zero()]
            if not residual.is_zero() or graded_bad:
                failures.append({"monomial": list(exp), "pair": [j, k],
                                 "residual": residual.to_text(),
                                 "nonzeroCouplingPowers": graded_bad})
    return count, failures


def _intertwining_chunk(args) -> tuple[int, list[dict]]:
    n, degree, exps = args
    ctx = DunklContext(n, degree)
    failures = []
    count = 0
    for exp in exps:
        f = RationalSection.monomial(n, exp)
        first = [apply_dunkl(ctx, l, f) for l in range(n)]
        for j, k in itertools.combinations(range(n), 2):
            swap = Permutation.transposition(n, j, k)
            swapped_f = f.permute(swap)
            for l in range(n):
                count += 1
                residual = first[l].permute(swap) - apply_dunkl(ctx, swap(l), swapped_f)
                if not residual.is_zero():
                    failures.append({"monomial": list(exp), "pair": [j, k],
                                     "component": l, "residual": residual.to_text()})
    return count, failures


def _sum_squares_chunk(args) -> tuple[int, list[dict]]:
    n, degree, exps = args
    ctx = DunklContext(n, degree)
    failures = []
    count = 0
    for exp in exps:
        f = RationalSection.monomial(n, exp)
        count += 1
        residual = sum_of_squares(ctx, f) - sum_of_squares_normal_form(ctx, f)
        graded_bad = [pw for pw in (1, 2) if not residual.coupling_component(pw).is_zero()]
        if not residual.is_zero() or graded_bad:
            failures.append({"monomial": list(exp), "residual": residual.to_text(),
                             "nonzeroCouplingPowers": graded_bad})
    return count, failures


def _permutation_relations_chunk(args) -> tuple[int, list[dict]]:
    n, degree, exps = args
    failures = []
    count = 0
    pairs = list(itertools.combinations(range(n), 2))
    for exp in exps:
        f = RationalSection.monomial(n, exp)

        def check(tag, indices, lhs, rhs):
            nonlocal count
            count += 1
            if lhs != rhs:
                failures.append({"monomial": list(exp), "relation": tag,
                                 "indices": list(indices),
                                 "residual": (lhs - rhs).to_text()})

        for i, k in pairs:
            s = Permutation.transposition(n, i, k)
            check("involution", (i, k), f.permute(s).permute(s), f)
        for (i, j), (k, l) in itertools.combinations(pairs, 2):
            if len({i, j, k, l}) == 4:
                a = Permutation.transposition(n, i, j)
                b = Permutation.transposition(n, k, l)
                check("disjoint-commute", (i, j, k, l),
                      f.permute(b).permute(a), f.permute(a).permute(b))
        for i, k, l in itertools.permutations(range(n), 3):
            s_ik = Permutation.transposition(n, i, k)
            s_kl = Permutation.transposition(n, k, l)
            s_il = Permutation.transposition(n, i, l)
            first = f.permute(s_kl).permute(s_ik)     # P_ik P_kl f
            check("fusion-a", (i, k, l), first, f.permute(s_ik).permute(s_il))
            check("fusion-b", (i, k, l), first, f.permute(s_il).permute(s_kl))
    return count, failures


_CHUNK_RUNNERS = {
    "zerocurv": _zero_curvature_chunk,
    "intertwine": _intertwining_chunk,
    "sumsq": _sum_squares_chunk,
    "permrel": _permutation_relations_chunk,
}


def _run_chunked(name: str, identity: str, n: int, degree: int, workers: int) -> dict:
    runner = _CHUNK_RUNNERS[name]
    chunks = _monomial_chunks(n, degree, workers)
    args = [(n, degree, chunk) for chunk in chunks]
    if len(args) == 1 or workers <= 1:
        parts = [runner(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(runner, args))
    count = sum(p[0] for p in parts)
    failures = [f for p in parts for f in p[1]]
    return {"identity": identity, "N": n, "degree": degree,
            "caseCount": count, "failures": failures}


def zero_curvature_suite(n: int, degree: int, workers: int = 1) -> dict:
    """[nabla_j, nabla_k] f == 0 for all pairs and monomials of degree <= degree,
    identically in the formal coupling, with graded pieces checked separately."""
    return _run_chunked("zerocurv", "zero-curvature", n, degree, workers)


def intertwining_suite(n: int, degree: int, workers: int = 1) -> dict:
    """P_jk nabla_l == nabla_{s(l)} P_jk on the spanning set (all j<k, all l)."""
    return _run_chunked("intertwine", "intertwining", n, degree, workers)


def sum_squares_suite(n: int, degree: int, workers: int = 1) -> dict:
    """sum nabla_i^2 equals its normal-ordered form on the spanning set."""
    return _run_chunked("sumsq", "sum-of-squares", n, degree, workers)


def permutation_relations_suite(n: int, degree: int, workers: int = 1) -> dict:
    """Involution, disjoint commutativity and fusion of coordinate swaps."""
    return _run_chunked("permrel", "permutation-relations", n, degree, workers)


def restriction_suite(n: int, degree: int, workers: int = 1) -> dict:
    """On (anti)symmetric polynomials the rightmost-swap replacement matches
    the true operator and equals -2x the Calogero action with coupling
    c(c+1) (symmetric) or c(c-1) (antisymmetric)."""
    ctx = DunklContext(n, degree)
    failures = []
    count = 0

    def run(basis, sign, g):
        nonlocal count
        for f in basis:
            count += 1
            res = restricted_projection(ctx, f, sign)
            true_op = sum_of_squares(ctx, f)
            target = calogero_apply(ctx, f, g).scale(-2)
            if res != true_op or res != target:
                failures.append({
                    "sign": sign,
                    "section": f.to_text(),
                    "projectionMinusOperator": (res - true_op).to_text(),
                    "projectionMinusCalogero": (res - target).to_text(),
                })

    run(symmetric_basis(n, degree), "symmetric", _G_PLUS)
    run(antisymmetric_basis(n, degree), "antisymmetric", _G_MINUS)
    return {"identity": "restriction-coefficients", "N": n, "degree": degree,
            "caseCount": count, "failures": failures}


SUITE_NAMES = ("zerocurv", "intertwine", "sumsq", "permrel", "restriction")


def run_suite(name: str, n: int, degree: int, workers: int = 1) -> dict:
    if name == "zerocurv":
        return zero_curvature_suite(n, degree, workers)
    if name == "intertwine":
        return intertwining_suite(n, degree, workers)
    if name == "sumsq":
        return sum_squares_suite(n, degree, workers)
    if name == "permrel":
        return permutation_relations_suite(n, degree, workers)
    if name == "restriction":
        return restriction_suite(n, degree, workers)
    raise ValueError(f"unknown suite {name!r}")
