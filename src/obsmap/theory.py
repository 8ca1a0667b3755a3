"""Budget ratios and counting bounds on the observation image. The
reconstruction floor itself is observation.fiber_stats(table).error.

Asymptotic constants are never estimated: every bound check substitutes
measured instance quantities (profile count, codebook size, extremal bucket
collision and balance), which turns the statements into exact, testable
inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .observation import BucketDiagnostics, ObservationTable, bucket_diagnostics
from .spectral import QuantizedCodes, codebook_size

__all__ = [
    "BoundReport",
    "rho_eng",
    "bound_report",
]

_MIN_N = 16


@dataclass(frozen=True)
class BoundReport:
    """Measured image size against its counting bounds.

    profile_bound is the measured number of attained distance profiles D;
    generic_bound is D times the codebook size; refined_bound is
    D * (1 + beta_hat / coll_hat) with beta_hat the largest bucket balance
    and coll_hat the smallest non-singleton bucket collision. refined_bound
    and refined_satisfied are None when no non-singleton bucket exists or
    some non-singleton bucket has zero collision (the substitution is then
    undefined or vacuous).
    """

    image_size: int
    profile_bound: int
    generic_bound: int
    generic_satisfied: bool
    refined_bound: float | None
    refined_satisfied: bool | None


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


def _refined_parts(diag: BucketDiagnostics) -> tuple[float, float] | None:
    if not diag.sizes.size or diag.collisions.min() <= 0.0:
        return None
    return float(diag.balances.max()), float(diag.collisions.min())


def bound_report(table: ObservationTable, codes: QuantizedCodes) -> BoundReport:
    """Full bound report: generic and refined counting bounds together.

    The refined bound D * (1 + beta_hat / coll_hat) applies only when a
    non-singleton bucket exists and the minimum non-singleton bucket
    collision is positive; otherwise the refined fields stay None. Under
    that substitution the bound is implied by the per-bucket inequality
    M(B) <= Bal(B) |B| / (1 + (|B|-1) Coll(B)), so refined_satisfied must
    always come back True when applicable.
    """
    image = len(table.fiber_groups)
    profiles = len(table.bucket_groups)
    generic = profiles * codebook_size(codes)
    parts = _refined_parts(bucket_diagnostics(table))
    if parts is None:
        refined = None
        refined_ok = None
    else:
        beta_hat, coll_hat = parts
        refined = profiles * (1.0 + beta_hat / coll_hat)
        refined_ok = image <= refined
    return BoundReport(
        image_size=image,
        profile_bound=profiles,
        generic_bound=generic,
        generic_satisfied=image <= generic,
        refined_bound=refined,
        refined_satisfied=refined_ok,
    )

