"""One curve-updating pass: zeroing rules for the neighbor weights, the
shrinkage constant keeping the update conservative enough, and the convex
combination that moves each curve toward its warped neighbors.

The weight and shrinkage rules are exactly the ones under which the
improvement guarantee holds (see verify_improvement, which checks the
conditions and the resulting inequality numerically on a concrete instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .curves import Curve, normalize, refit_on_grid
from .errors import (
    DegenerateDataError,
    InvalidInputError,
    MissingSimilaritiesError,
)
from .products import center_inner, centered_norm, warp_weighted_inner
from .splines import DEFAULT_SPLINES, SplineSettings, derivative, evaluate
from .warping import Warping, rho_parts

W_FLOOR = 1e-6
IND_MAX_CLAMP = (1e-6, 1.0 - 1e-6)
LC5_DENOM_TOL = 1e-12


@dataclass(eq=False)
class UpdateContext:
    """Everything needed to update one curve against its neighbors."""

    target: Curve
    others: List[Curve]
    warps: List[Warping]  # aligning target to each neighbor
    sims: List[float]  # penalized similarity of target to each neighbor
    n_js: List[int]
    tau: float
    lambda0: float
    settings: SplineSettings = field(default_factory=lambda: DEFAULT_SPLINES)


def weight_exponent(original_sims) -> float:
    """Exponent tau = log(0.5)/log(max similarity below one), clamped so the
    exponent stays finite for near-degenerate similarity spectra."""
    sims = [s for s in original_sims if s < 1.0]
    if not sims:
        raise MissingSimilaritiesError("no similarities below one to set the exponent")
    ind_max = min(max(max(sims), IND_MAX_CLAMP[0]), IND_MAX_CLAMP[1])
    return math.log(0.5) / math.log(ind_max)


class _Quantities:
    """Per-target arrays shared by weight selection and the shrinkage bound."""

    def __init__(self, ctx: UpdateContext):
        grid = ctx.target.grid
        w = grid.weights
        self.grid = grid
        self.w = w
        self.f1 = ctx.target.samples
        k = len(ctx.others)
        n = len(grid)
        self.warped = np.empty((k, n))  # h_j = neighbor composed with its warp
        self.dpsi = np.empty((k, n))
        for j, (other, warp) in enumerate(zip(ctx.others, ctx.warps)):
            self.warped[j] = other.spline(np.clip(warp.forward(grid.points), 0.0, 1.0))
            self.dpsi[j] = evaluate(derivative(warp.forward), grid.points)
        self.norms = np.array([centered_norm(h, w) for h in self.warped])
        if np.any(self.norms <= 1e-12):
            raise DegenerateDataError("warped neighbor has zero seminorm")
        self.unit = self.warped / self.norms[:, None]
        # plain centered inner products with the target
        self.ip_f1 = np.array([center_inner(self.f1, h, w) for h in self.warped])
        # residual sum for the first zeroing rule
        resid = (self.warped - self.ip_f1[:, None] * self.f1[None, :]) / self.norms[:, None]
        self.resid_sum = resid.sum(axis=0)
        self.res1 = np.array([center_inner(u, self.resid_sum, w) for u in self.unit])
        # warp-weighted quantities for the second zeroing rule
        self.f1_wnorms = np.empty(k)
        self.w_resid = np.empty((k, n))
        for l in range(k):
            d = self.dpsi[l]
            nw = warp_weighted_inner(self.f1, self.f1, d, w)
            if nw <= 1e-12:
                raise DegenerateDataError(
                    "target has zero warp-weighted seminorm for a neighbor"
                )
            self.f1_wnorms[l] = math.sqrt(nw)
            ip_w = warp_weighted_inner(self.warped[l], self.f1, d, w)
            self.w_resid[l] = (
                self.warped[l] - ip_w * self.f1 / nw
            ) / self.f1_wnorms[l]
        self.res2 = np.array(
            [
                sum(
                    warp_weighted_inner(self.unit[j], self.w_resid[l], self.dpsi[l], w)
                    for l in range(k)
                )
                for j in range(k)
            ]
        )


def select_update_weights(ctx: UpdateContext, _q: Optional[_Quantities] = None):
    """Neighbor weights: zero out neighbors failing any of the three rules,
    split the rest proportionally to n_j * (similarity ratio) ** tau.

    Returns (weights, all_zero).  All-zero is a flagged outcome, not an error:
    the caller leaves the target unchanged.
    """
    q = _q if _q is not None else _Quantities(ctx)
    k = len(ctx.others)
    theta = np.zeros(k)
    survivors = [
        j
        for j in range(k)
        if q.ip_f1[j] > 0.0 and q.res1[j] > 0.0 and q.res2[j] > 0.0
    ]
    if not survivors:
        return theta, True
    sims = np.array([ctx.sims[j] for j in survivors])
    top = sims.max()
    if top <= W_FLOOR:
        ratios = np.ones_like(sims)  # all similarities non-positive: equal split
    else:
        ratios = np.maximum(sims / top, W_FLOOR)
    weights = np.array(
        [ctx.n_js[j] for j in survivors], dtype=float
    ) * ratios**ctx.tau
    theta[survivors] = weights / weights.sum()
    return theta, False


def _shrinkage_parts(ctx: UpdateContext, theta: np.ndarray, q: _Quantities):
    w = q.w
    f1 = q.f1
    g0 = theta @ q.unit
    s = q.unit.sum(axis=0)
    s0 = q.resid_sum
    ip_g0_f1 = center_inner(g0, f1, w)
    ip_s_f1 = center_inner(s, f1, w)
    ip_g0_s0 = center_inner(g0, s0, w)
    resid_norm = centered_norm(g0 - ip_g0_f1 * f1, w)

    lc5 = None
    denom = 2.0 * ip_s_f1 * ip_g0_s0
    if abs(denom) > LC5_DENOM_TOL:
        lc5 = (resid_norm**2 * ip_s_f1**2 - ip_g0_s0**2) / denom - ip_g0_f1

    k = len(ctx.others)
    a = np.empty(k)
    b = np.empty(k)
    d = np.empty(k)
    e = np.empty(k)
    for j in range(k):
        dp = q.dpsi[j]
        n1 = q.f1_wnorms[j]
        a[j] = warp_weighted_inner(f1, q.warped[j], dp, w) / n1
        b[j] = warp_weighted_inner(g0, q.warped[j], dp, w) / n1
        d[j] = 2.0 * warp_weighted_inner(f1, g0, dp, w) / n1**2
        e[j] = math.sqrt(max(warp_weighted_inner(g0, g0, dp, w), 0.0)) / n1
    alpha = b - 0.5 * a * d
    beta = 0.5 * (a * e**2 + b * d + np.abs(b) * e) + (3.0 / math.sqrt(2.0)) * (
        np.abs(a) + 1.0
    ) * (np.abs(d) + e) ** 2
    alpha_sum = float(alpha.sum())
    ratio = float(beta.sum()) / alpha_sum if alpha_sum > 0.0 else -math.inf
    lc6 = max(ratio, float(np.max(np.maximum(e, np.abs(b)))))
    lam = lc6 if lc5 is None else max(lc5, lc6)
    return lam, lc5, lc6, g0, alpha_sum


def shrinkage_constant(
    ctx: UpdateContext, theta: np.ndarray, _q: Optional[_Quantities] = None
) -> float:
    """The shrinkage constant: max of the two bound quantities, skipping the
    first one when its denominator is numerically zero."""
    if not np.any(theta > 0.0):
        raise InvalidInputError("shrinkage is undefined for all-zero weights")
    q = _q if _q is not None else _Quantities(ctx)
    lam, _, _, _, _ = _shrinkage_parts(ctx, theta, q)
    return lam


def update_curve(ctx: UpdateContext) -> Curve:
    """Replace the target by its shrunken average with the warped neighbors,
    refit in the shape-spline space.  All-zero weights leave it unchanged."""
    q = _Quantities(ctx)
    theta, all_zero = select_update_weights(ctx, _q=q)
    if all_zero:
        return ctx.target
    lam, _, _, g0, _ = _shrinkage_parts(ctx, theta, q)
    combined = (lam / (lam + 1.0)) * q.f1 + g0 / (lam + 1.0)
    return refit_on_grid(
        ctx.target.id,
        ctx.target.grid,
        combined,
        settings=ctx.settings,
        n_orig=ctx.target.n_orig,
        members=ctx.target.members,
    )


def update_all(
    curves,
    matrix,
    lambda0: float,
    tau: float,
    settings: SplineSettings = DEFAULT_SPLINES,
):
    """Update every curve once, in ascending id order.

    Before each update all curves are renormalized to unit seminorm; each
    update sees the most recent versions of the others.  Warps and similarities
    are the ones from the supplied matrix (refreshed once per pipeline
    iteration), which stay valid under renormalization because the similarity
    is scale invariant.
    """
    pool = {c.id: c for c in curves}
    order = sorted(pool)
    if len(order) < 2:
        return [pool[i] for i in order]
    for target_id in order:
        pool = {i: normalize(c) for i, c in pool.items()}
        other_ids = [i for i in order if i != target_id]
        ctx = UpdateContext(
            target=pool[target_id],
            others=[pool[i] for i in other_ids],
            warps=[matrix.warp(target_id, i) for i in other_ids],
            sims=[matrix.rho(target_id, i) for i in other_ids],
            n_js=[pool[i].n_orig for i in other_ids],
            tau=tau,
            lambda0=lambda0,
            settings=settings,
        )
        pool[target_id] = update_curve(ctx)
    return [pool[i] for i in order]


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
    norm_ctx = UpdateContext(
        target=normalize(ctx.target),
        others=[normalize(c) for c in ctx.others],
        warps=ctx.warps,
        sims=ctx.sims,
        n_js=ctx.n_js,
        tau=ctx.tau,
        lambda0=ctx.lambda0,
        settings=ctx.settings,
    )
    q = _Quantities(norm_ctx)
    reasons = []
    if np.any(q.ip_f1 < 0.0):
        reasons.append("negative alignment inner product")
    theta, all_zero = select_update_weights(norm_ctx, _q=q)
    if all_zero:
        reasons.append("all weights zeroed")
        return ImprovementCheck(False, reasons, math.nan, None, math.nan, theta, math.nan, math.nan, None)
    lam, lc5, lc6, g0, alpha_sum = _shrinkage_parts(norm_ctx, theta, q)
    c3 = center_inner(theta @ q.unit, q.resid_sum, q.w)
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
    updated = update_curve(norm_ctx)
    before = sum(
        rho_parts(norm_ctx.target, other, warp, norm_ctx.lambda0).rho
        for other, warp in zip(norm_ctx.others, norm_ctx.warps)
    )
    after = sum(
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
