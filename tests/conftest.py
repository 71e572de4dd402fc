from fractions import Fraction

import pytest

from calogero.exactalg import MultiPoly
from calogero.transport import ChamberPath

# Fixed N=3 benchmark for the ODE/series cross-check: one straight segment
# with generous chamber margin and small momenta, so the order-8 series
# truncation sits far below the comparison tolerance.
BENCHMARK_WAYPOINTS = ((0.0, 1.0, 2.0), (0.3, 1.2, 2.5))
BENCHMARK_MARGIN = 0.1
BENCHMARK_P = (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 4))
BENCHMARK_C = Fraction(1)


@pytest.fixture
def benchmark_path() -> ChamberPath:
    return ChamberPath(BENCHMARK_WAYPOINTS, BENCHMARK_MARGIN)


def coupling_poly(n, *coeffs):
    """sum_k coeffs[k] c^k as a coordinate-free MultiPoly in n variables."""
    return MultiPoly(n, {(0,) * n + (k,): v for k, v in enumerate(coeffs)})
