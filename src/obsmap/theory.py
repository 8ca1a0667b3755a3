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
    "BudgetInputs",
    "BoundReport",
    "rho_eng",
    "bound_report",
    "subcritical_check",
]

_MIN_N = 16


@dataclass(frozen=True)
class BudgetInputs:
    """Inputs of the engineering budget ratio.

    The defaults C_ent=2, c_ent=1 give the ratio
    (k ln ln n + m ln(2/eta)) / ln n. Natural logarithms throughout;
    n must be at least 16 so ln ln n is safely positive.
    """

    n: int
    k: int
    m: int
    eta: float
    c_ent: float = 1.0
    C_ent: float = 2.0

    def __post_init__(self) -> None:
        if self.n < _MIN_N:
            raise ValueError(f"n must be at least {_MIN_N}")
        if self.k < 0 or self.m < 0:
            raise ValueError("k and m must be non-negative")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.c_ent <= 0 or self.C_ent <= 0:
            raise ValueError("entropy constants must be positive")


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

    @property
    def refined_applicable(self) -> bool:
        return self.refined_bound is not None


def rho_eng(b: BudgetInputs) -> float:
    """Budget ratio (k ln ln n + c_ent m ln(C_ent/eta)) / ln n."""
    log_n = math.log(b.n)
    return (b.k * math.log(log_n) + b.c_ent * b.m * math.log(b.C_ent / b.eta)) / log_n


def _refined_parts(diag: BucketDiagnostics) -> tuple[float, float] | None:
    if not diag.sizes.size or diag.collisions.min() <= 0.0:
        return None
    return float(diag.balances.max()), float(diag.collisions.min())


def bound_report(
    table: ObservationTable,
    codes: QuantizedCodes,
    *,
    diagnostics: BucketDiagnostics | None = None,
    codebook: int | None = None,
) -> BoundReport:
    """Full bound report: generic and refined counting bounds together.

    The refined bound D * (1 + beta_hat / coll_hat) applies only when a
    non-singleton bucket exists and the minimum non-singleton bucket
    collision is positive; otherwise the refined fields stay None. Under
    that substitution the bound is implied by the per-bucket inequality
    M(B) <= Bal(B) |B| / (1 + (|B|-1) Coll(B)), so refined_satisfied must
    always come back True when applicable.

    A caller already holding bucket_diagnostics(table) or
    codebook_size(codes) passes them in so they are not computed again.
    """
    if diagnostics is None:
        diagnostics = bucket_diagnostics(table)
    if codebook is None:
        codebook = codebook_size(codes)
    image = len(table.fiber_groups)
    profiles = len(table.bucket_groups)
    generic = profiles * codebook
    parts = _refined_parts(diagnostics)
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


def subcritical_check(b: BudgetInputs, epsilon0: float) -> bool:
    """Whether the budget sits below the crossover: rho_eng <= 1 - epsilon0.

    Closed inequality; the boundary counts as subcritical. Advisory only,
    the underlying statement is asymptotic.
    """
    if not (0.0 < epsilon0 < 1.0):
        raise ValueError("epsilon0 must lie strictly between 0 and 1")
    return rho_eng(b) <= 1.0 - epsilon0
