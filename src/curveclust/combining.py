"""Grouping similar curves for combination (with index-based conflict
resolution), building weighted-spline representatives, and completing a
partial clustering into a full candidate partition."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .curves import Curve, fit_curve
from .errors import InvalidInputError
from .products import sum_in_order
from .splines import SHAPE, Layout


@dataclass
class PartialClustering:
    """Groups destined for combination (admission order kept) plus the
    curves left unassigned."""

    groups: List[List[int]]
    unassigned: List[int]


@dataclass(frozen=True)
class Partition:
    """Disjoint groups covering all original curve ids."""

    groups: tuple  # tuple of frozensets

    def sorted_groups(self):
        return sorted((sorted(g) for g in self.groups), key=lambda g: g[0])


def assign_groups(
    ids: Sequence[int], matrix, c_star: float, nu: Callable
) -> PartialClustering:
    """Assign curves to combination groups by greedy clique growth around the
    highest-connectivity seeds, with the retention test resolving curves torn
    between a group and similar outsiders.

    `nu` scores a partition (list of id sets) of the current curves and is only
    consulted by the retention test.  Groups that end up singletons dissolve
    into the unassigned set.
    """
    ids = sorted(ids)
    if len(ids) < 2:
        raise InvalidInputError("need at least 2 curves to assign groups")
    n = len(ids)
    pos = {i: k for k, i in enumerate(ids)}
    # the similarities, read once; the diagonal is never compared, and a
    # curve counts as similar to itself so the group test can skip it
    table = np.zeros((n, n))
    for k in range(n):
        for l in range(k + 1, n):
            table[k, l] = table[l, k] = matrix.rho(ids[k], ids[l])
    adjacent = table > c_star
    np.fill_diagonal(adjacent, True)
    rho_rows, similar_rows = table.tolist(), adjacent.tolist()

    def rho(a, b):
        return rho_rows[pos[a]][pos[b]]

    def similar(a, b):
        return similar_rows[pos[a]][pos[b]]

    # sums in id order: a numpy sum would add in another order
    score = {
        i: sum_in_order(rho_rows[k][l] for l in range(n) if l != k and similar_rows[k][l])
        for k, i in enumerate(ids)
    }
    sequence = sorted(ids, key=lambda i: (-score[i], i))
    groups: List[List[int]] = []
    while sequence:
        seed = sequence[0]
        candidates = sorted(
            (i for i in sequence[1:] if similar(seed, i)),
            key=lambda i: (-rho(seed, i), i),
        )
        admitted = [seed]
        for cand in candidates:
            if all(similar(cand, m) for m in admitted):
                admitted.append(cand)

        alive = set(admitted)
        rows = [pos[m] for m in admitted]
        # a conflict: a curve outside the group is similar to a member
        if np.delete(adjacent[:, rows], rows, axis=0).any():
            for member in admitted:  # examined in admission order
                if member not in alive:
                    continue
                k = pos[member]
                torn = adjacent[:, k] & ~adjacent[:, [pos[m] for m in alive]].all(axis=1)
                torn[k] = False
                conflicts = [ids[l] for l in np.flatnonzero(torn)]
                if not conflicts:
                    continue
                rival = sorted(conflicts, key=lambda c: (-rho(member, c), c))[0]
                keep = nu([set(alive), {rival}])
                leave = nu([{member, rival}, alive - {member}])
                if not keep > leave:
                    alive.remove(member)  # rejoins the sequence for later seeds

        final = [m for m in admitted if m in alive]
        groups.append(final)
        sequence = [i for i in sequence if i not in alive]

    kept = [g for g in groups if len(g) >= 2]
    grouped = {i for g in kept for i in g}
    return PartialClustering(
        groups=kept, unassigned=[i for i in ids if i not in grouped]
    )


def reference_member(group: Sequence[int], matrix) -> int:
    """The member with the largest mean similarity to the rest of its group;
    ties go to the smallest id."""
    group = sorted(group)
    mean_rho = {
        m: np.mean([matrix.rho(m, o) for o in group if o != m]) for m in group
    }
    return sorted(group, key=lambda m: (-mean_rho[m], m))[0]


def combine_group(
    group: Sequence[int],
    curves_by_id: dict,
    matrix,
    settings: Layout = SHAPE,
) -> Curve:
    """Merge a group into one representative curve.

    The reference is the group's `reference_member`; every other member is
    warped onto it through the cached pairwise warp, and the pooled samples
    are fit by weighted least squares with each member's original-curve count
    as weight.
    """
    group = sorted(group)
    if len(group) < 2:
        raise InvalidInputError("combination needs a group of at least 2 curves")
    reference = reference_member(group, matrix)
    ref_curve = curves_by_id[reference]
    grid = ref_curve.grid

    ts, ys, ws = [grid.points], [ref_curve.samples], [np.full(len(grid), float(ref_curve.n_orig))]
    for m in group:
        if m == reference:
            continue
        curve = curves_by_id[m]
        warp = matrix.warp(m, reference)
        ts.append(np.clip(warp.forward(grid.points), 0.0, 1.0))
        ys.append(curve.samples)
        ws.append(np.full(len(grid), float(curve.n_orig)))

    return fit_curve(
        min(group),
        grid,
        np.concatenate(ts),
        np.concatenate(ys),
        np.concatenate(ws),
        settings,
        members=frozenset().union(*(curves_by_id[m].members for m in group)),
    )


def complete_clustering(
    groups: Sequence[set], unassigned: Sequence[int], nu0: Callable
) -> List[set]:
    """Attach every unassigned curve: joins the group that maximizes the
    original-curve index when attachment beats staying alone, otherwise the
    best remaining curve is promoted to a new singleton group, until none are
    left."""
    current = [set(g) for g in groups]
    pending = sorted(unassigned)
    while pending:
        for item in list(pending):
            attach_scores = []
            for k in range(len(current)):
                trial = [set(g) for g in current]
                trial[k].add(item)
                attach_scores.append(nu0(trial))
            alone = nu0(current + [{item}])
            best_k = int(np.argmax(attach_scores))
            if attach_scores[best_k] > alone:
                current[best_k].add(item)
                pending.remove(item)
        if pending:
            singleton_scores = [nu0(current + [{h}]) for h in pending]
            promoted = pending[int(np.argmax(singleton_scores))]
            current.append({promoted})
            pending.remove(promoted)
    return current


def candidate_partition(
    partial: PartialClustering,
    matrix,
    c_star: float,
    nu0: Callable,
    members_of: dict,
) -> Partition:
    """Complete a partial clustering into a candidate partition of the
    original curves, dispatching on the number of groups and unassigned
    curves."""
    groups = [set(g) for g in partial.groups]
    unassigned = sorted(partial.unassigned)
    p0, q0 = len(groups), len(unassigned)

    if p0 >= 2 and q0 >= 1:
        result = complete_clustering(groups, unassigned, nu0)
    elif p0 >= 1 and q0 == 0:
        result = groups
    elif p0 == 0 and q0 == 2:
        g1, g2 = unassigned
        if matrix.rho(g1, g2) > c_star:
            result = [{g1, g2}]
        else:
            result = [{g1}, {g2}]
    elif p0 == 0 and q0 == 1:
        result = [{unassigned[0]}]
    elif p0 == 0:  # q0 >= 3
        totals = {
            g: sum_in_order(matrix.rho(g, h) for h in unassigned if h != g)
            for g in unassigned
        }
        first = sorted(unassigned, key=lambda g: (-totals[g], g))[0]
        rest = [g for g in unassigned if g != first]
        scores = {g: nu0([{first}, {g}]) for g in rest}
        second = sorted(rest, key=lambda g: (-scores[g], g))[0]
        remaining = [g for g in rest if g != second]
        result = complete_clustering([{first}, {second}], remaining, nu0)
    elif q0 == 1:  # p0 == 1
        group = groups[0]
        lone = unassigned[0]
        baseline = nu0([group, {lone}])
        swapped = [
            nu0([(group - {member}) | {lone}, {member}]) for member in sorted(group)
        ]
        if any(k > baseline for k in swapped):
            result = [group | {lone}]
        else:
            result = [group, {lone}]
    else:  # p0 == 1 and q0 >= 2: seed a second group, then complete
        everyone = sorted(set().union(groups[0], unassigned))
        scores = {
            g: nu0([{g}, set(everyone) - {g}]) for g in unassigned
        }
        second = sorted(unassigned, key=lambda g: (-scores[g], g))[0]
        remaining = [g for g in unassigned if g != second]
        result = complete_clustering([groups[0], {second}], remaining, nu0)

    expanded = [
        frozenset().union(*(members_of[c] for c in grp)) for grp in result
    ]
    expanded.sort(key=lambda g: min(g))
    return Partition(groups=tuple(expanded))
