"""Checks the tests share that the package itself does not need.

`verify_improvement` checks the update-improvement guarantee on one instance,
and `warp_weighted_mean` and `warp_weighted_inner` are the warp-weighted
products written out one pair at a time, the reference for
`products.warp_weighted_rows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from curveclust.curves import Curve, normalize
from curveclust.products import center_inner, sum_in_order
from curveclust.updating import (
    UpdateContext,
    _Quantities,
    _shrinkage_parts,
    _update_with,
    select_update_weights,
)
from curveclust.warping import rho_parts


def warp_weighted_mean(f: np.ndarray, dpsi: np.ndarray, weights: np.ndarray) -> float:
    """Mean against the warp-derivative measure: integral of f * dpsi."""
    return float(weights @ (f * dpsi))


def warp_weighted_inner(
    f: np.ndarray, g: np.ndarray, dpsi: np.ndarray, weights: np.ndarray
) -> float:
    """Warp-weighted centered inner product (positive semidefinite, symmetric)."""
    fc = f - warp_weighted_mean(f, dpsi, weights)
    gc = g - warp_weighted_mean(g, dpsi, weights)
    return float(weights @ (fc * gc * dpsi))


@dataclass
class ImprovementCheck:
    """Outcome of verifying the update-improvement conditions on one instance."""

    qualifies: bool
    reasons: list
    lam: float
    lc5: Optional[float]
    lc6: float
    theta: np.ndarray
    sum_before: float
    sum_after: float
    updated: Optional[Curve]


def verify_improvement(ctx: UpdateContext) -> ImprovementCheck:
    """Numerically check the conditions of the improvement guarantee and
    evaluate both sides of the inequality at the instance's warps.

    Conditions: unit seminorms, nonnegative alignment inner products, both
    residual aggregates strictly positive for the selected weights, and a
    positive shrinkage constant dominating both bound quantities.  The sums
    compare the penalized similarity of the target (before/after the update)
    to each neighbor at the fixed instance warps.
    """
    norm_ctx = replace(
        ctx, target=normalize(ctx.target), others=[normalize(c) for c in ctx.others]
    )
    q = _Quantities(norm_ctx)
    reasons = []
    if np.any(q.ip_f1 < 0.0):
        reasons.append("negative alignment inner product")
    theta, all_zero = select_update_weights(norm_ctx, q)
    if all_zero:
        reasons.append("all weights zeroed")
        return ImprovementCheck(False, reasons, math.nan, None, math.nan, theta, math.nan, math.nan, None)
    lam, lc5, lc6, g0, alpha_sum = _shrinkage_parts(theta, q)
    c3 = center_inner(g0, q.resid_sum, q.w)
    if c3 <= 0.0:
        reasons.append("aggregate plain residual not positive")
    if alpha_sum <= 0.0:
        reasons.append("aggregate weighted residual not positive")
    if not (lam > 0.0 and np.isfinite(lam)):
        reasons.append("shrinkage constant not positive")
    if lc5 is not None and lam < lc5:
        reasons.append("shrinkage below first bound")
    if lam < lc6:
        reasons.append("shrinkage below second bound")
    updated = _update_with(norm_ctx, q)
    before = sum_in_order(
        rho_parts(norm_ctx.target, other, warp, norm_ctx.lambda0).rho
        for other, warp in zip(norm_ctx.others, norm_ctx.warps)
    )
    after = sum_in_order(
        rho_parts(updated, other, warp, norm_ctx.lambda0).rho
        for other, warp in zip(norm_ctx.others, norm_ctx.warps)
    )
    return ImprovementCheck(
        qualifies=not reasons,
        reasons=reasons,
        lam=lam,
        lc5=lc5,
        lc6=lc6,
        theta=theta,
        sum_before=before,
        sum_after=after,
        updated=updated,
    )
