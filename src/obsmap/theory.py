"""Budget ratios and counting bounds on the observation image. The
reconstruction floor itself is observation.fiber_stats(table).error.

Asymptotic constants are never estimated: every bound check substitutes
measured instance quantities (profile count, codebook size, extremal bucket
collision and balance), which turns the statements into exact, testable
inequalities.
"""

from __future__ import annotations

import math

from .observation import BoundReport, ObservationTable, _bound_reports, bucket_diagnostics
from .spectral import QuantizedCodes, codebook_size

__all__ = [
    "BoundReport",
    "rho_eng",
    "bound_report",
]

_MIN_N = 16


def rho_eng(n: int, k: int, m: int, eta: float) -> float | None:
    """Budget ratio (k ln ln n + m ln(2/eta)) / ln n, natural logarithms
    throughout; None below n = 16, where ln ln n is not safely positive.
    Raises ValueError for negative k or m and for eta <= 0."""
    if k < 0 or m < 0:
        raise ValueError("k and m must be non-negative")
    if eta <= 0:
        raise ValueError("eta must be positive")
    if n < _MIN_N:
        return None
    log_n = math.log(n)
    return (k * math.log(log_n) + m * math.log(2.0 / eta)) / log_n


def bound_report(table: ObservationTable, codes: QuantizedCodes) -> BoundReport:
    """Full bound report: generic and refined counting bounds together.

    The refined bound D * (1 + beta_hat / coll_hat) applies only when a
    non-singleton bucket exists and the minimum non-singleton bucket
    collision is positive; otherwise the refined fields stay None. Under
    that substitution the bound is implied by the per-bucket inequality
    M(B) <= Bal(B) |B| / (1 + (|B|-1) Coll(B)), so refined_satisfied must
    always come back True when applicable. The rule is the one
    observation.evaluate_rows applies to every row, here applied to the
    table's fibers, buckets and diagnostics with the codebook of codes.
    """
    diag = bucket_diagnostics(table)
    (report,) = _bound_reports([len(table.fiber_groups)], [len(table.bucket_groups)],
                               [codebook_size(codes)], [0, diag.sizes.size],
                               diag.collisions, diag.balances)
    return report
