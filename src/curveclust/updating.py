"""One curve-updating pass: zeroing rules for the neighbor weights, the
shrinkage constant keeping the update conservative enough, and the convex
combination that moves each curve toward its warped neighbors.

The weight and shrinkage rules are exactly the ones under which the
improvement guarantee holds; the tests check the conditions and the
resulting inequality numerically on concrete instances
(`tests/oracles.py`, `verify_improvement`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .curves import Curve, normalize, refit_on_grid
from .errors import DegenerateDataError, MissingSimilaritiesError
from .products import ZERO_NORM_TOL, center_inner, centered_norm, warp_weighted_rows
from .splines import SHAPE, Layout
from .warping import Warping, forward_on_grid

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
    tau: float
    lambda0: float
    settings: Layout = SHAPE


def weight_exponent(original_sims) -> float:
    """Exponent tau = log(0.5)/log(max similarity below one), clamped so the
    exponent stays finite for near-degenerate similarity spectra."""
    sims = [s for s in original_sims if s < 1.0]
    if not sims:
        raise MissingSimilaritiesError("no similarities below one to set the exponent")
    ind_max = min(max(max(sims), IND_MAX_CLAMP[0]), IND_MAX_CLAMP[1])
    return math.log(0.5) / math.log(ind_max)


class _Quantities:
    """Per-target arrays shared by weight selection and the shrinkage bound,
    one row per neighbor.

    The warp-weighted products use neighbor l's measure w*d with d = psi'_l.
    Expanding the centered product gives, with m_d(f) = sum w*d*f,

        <f, g>_d = sum w*d*f*g - m_d(f)*m_d(g)*(2 - sum w*d),

    which is f @ v_l for the row v_l = w*d*(g - m_d(g)*(2 - sum w*d)) that
    `warp_weighted_rows` builds for every l at once.  Each warp-weighted
    product is then a row-wise reduction, and res2[j], a sum over l of
    <unit_j, w_resid_l> under measure l, is unit_j @ (sum over l of v_l).
    """

    def __init__(self, ctx: UpdateContext):
        grid = ctx.target.grid
        w = grid.weights
        self.grid = grid
        self.w = w
        f1 = self.f1 = ctx.target.samples
        psi, self.dpsi = forward_on_grid(ctx.warps, grid)
        # h_j = neighbor composed with its warp; psi is in [0, 1] already
        self.warped = np.array(
            [other.spline.evaluator(p) for other, p in zip(ctx.others, psi)]
        )
        centered = self.warped - (self.warped @ w)[:, None]
        self.norms = np.sqrt((centered * centered) @ w)
        if np.any(self.norms <= ZERO_NORM_TOL):
            raise DegenerateDataError("warped neighbor has zero seminorm")
        self.unit = self.warped / self.norms[:, None]
        # plain centered inner products with the target
        self.ip_f1 = centered @ (w * (f1 - w @ f1))
        # residual sum for the first zeroing rule
        resid = (self.warped - self.ip_f1[:, None] * f1) / self.norms[:, None]
        self.resid_sum = resid.sum(axis=0)
        self.res1 = centered @ (w * (self.resid_sum - w @ self.resid_sum)) / self.norms
        # warp-weighted quantities for the second zeroing rule
        self.f1_rows = warp_weighted_rows(f1, self.dpsi, w)
        nw = self.f1_rows @ f1
        if np.any(nw <= 1e-12):
            raise DegenerateDataError(
                "target has zero warp-weighted seminorm for a neighbor"
            )
        self.f1_wnorms = np.sqrt(nw)
        self.ip_w = _rowwise_dot(self.f1_rows, self.warped)
        self.w_resid = (
            self.warped - (self.ip_w / nw)[:, None] * f1
        ) / self.f1_wnorms[:, None]
        self.res2 = self.unit @ warp_weighted_rows(self.w_resid, self.dpsi, w).sum(axis=0)


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def select_update_weights(ctx: UpdateContext, q: _Quantities):
    """Neighbor weights: zero out neighbors failing any of the three rules,
    split the rest proportionally to `n_orig` * (similarity ratio) ** tau.

    Returns (weights, all_zero).  All-zero is a flagged outcome, not an error:
    the caller leaves the target unchanged.
    """
    theta = np.zeros(len(ctx.others))
    survivors = np.flatnonzero((q.ip_f1 > 0.0) & (q.res1 > 0.0) & (q.res2 > 0.0))
    if not survivors.size:
        return theta, True
    sims = np.asarray(ctx.sims, dtype=float)[survivors]
    top = sims.max()
    if top <= W_FLOOR:
        ratios = np.ones_like(sims)  # all similarities non-positive: equal split
    else:
        ratios = np.maximum(sims / top, W_FLOOR)
    counts = np.array([other.n_orig for other in ctx.others], dtype=float)
    weights = counts[survivors] * ratios**ctx.tau
    theta[survivors] = weights / weights.sum()
    return theta, False


def _shrinkage_parts(theta: np.ndarray, q: _Quantities):
    """The shrinkage constant lam = max of the two bound quantities lc5 and
    lc6 (lc5 is None, and skipped, when its denominator is numerically zero),
    with g0 and the sum of the alpha terms."""
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

    # warp-weighted products under each neighbor's measure (see _Quantities)
    n1 = q.f1_wnorms
    g0_rows = warp_weighted_rows(g0, q.dpsi, w)
    a = q.ip_w / n1
    b = _rowwise_dot(g0_rows, q.warped) / n1
    d = 2.0 * (q.f1_rows @ g0) / n1**2
    e = np.sqrt(np.maximum(g0_rows @ g0, 0.0)) / n1
    alpha = b - 0.5 * a * d
    beta = 0.5 * (a * e**2 + b * d + np.abs(b) * e) + (3.0 / math.sqrt(2.0)) * (
        np.abs(a) + 1.0
    ) * (np.abs(d) + e) ** 2
    alpha_sum = float(alpha.sum())
    ratio = float(beta.sum()) / alpha_sum if alpha_sum > 0.0 else -math.inf
    lc6 = max(ratio, float(np.max(np.maximum(e, np.abs(b)))))
    lam = lc6 if lc5 is None else max(lc5, lc6)
    return lam, lc5, lc6, g0, alpha_sum


def update_curve(ctx: UpdateContext) -> Curve:
    """Replace the target by its shrunken average with the warped neighbors,
    refit in the shape-spline space.  All-zero weights leave it unchanged."""
    return _update_with(ctx, _Quantities(ctx))


def _update_with(ctx: UpdateContext, q: _Quantities) -> Curve:
    theta, all_zero = select_update_weights(ctx, q)
    if all_zero:
        return ctx.target
    lam, _, _, g0, _ = _shrinkage_parts(theta, q)
    combined = (lam / (lam + 1.0)) * q.f1 + g0 / (lam + 1.0)
    return refit_on_grid(
        ctx.target.id,
        ctx.target.grid,
        combined,
        settings=ctx.settings,
        members=ctx.target.members,
    )


def update_all(
    curves,
    matrix,
    lambda0: float,
    tau: float,
    settings: Layout = SHAPE,
):
    """Update every curve once, in ascending id order.

    Every update sees all curves at unit seminorm and the most recent versions
    of the others.  All curves are normalized once before the first update;
    after that only the curve just updated is, when the next target is
    visited, since `normalize` returns a unit curve unchanged.  The last
    updated curve is returned as the update left it, not normalized.  Warps
    and similarities are the ones from the supplied matrix (refreshed once per
    pipeline iteration), which stay valid under renormalization because the
    similarity is scale invariant.
    """
    pool = {c.id: c for c in curves}
    order = sorted(pool)
    if len(order) < 2:
        return [pool[i] for i in order]
    pool = {i: normalize(c) for i, c in pool.items()}
    updated_id = None
    for target_id in order:
        if updated_id is not None:
            pool[updated_id] = normalize(pool[updated_id])
        other_ids = [i for i in order if i != target_id]
        ctx = UpdateContext(
            target=pool[target_id],
            others=[pool[i] for i in other_ids],
            warps=[matrix.warp(target_id, i) for i in other_ids],
            sims=[matrix.rho(target_id, i) for i in other_ids],
            tau=tau,
            lambda0=lambda0,
            settings=settings,
        )
        pool[target_id] = update_curve(ctx)
        updated_id = target_id
    return [pool[i] for i in order]
