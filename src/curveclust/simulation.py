"""Reproducible simulation scenarios: fixed and random shape functions, power /
linear / shifted warps, pointwise Gaussian noise, and ground-truth labels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import InvalidInputError
from .splines import SHAPE, check_count

# Power-warp exponents: 0.86 + 0.03 (k - 1), k = 1..10.
DEFAULT_ALPHAS = tuple(0.86 + 0.03 * k for k in range(10))

TWO_PI = 2.0 * math.pi

# Standard deviation of the draws e1..e4 behind the random shapes f4-f6.
SHAPE_NOISE_SCALE = 0.1

# The fewest time points a simulated curve may have: `cluster` smooths each
# curve with the default shape spline, which needs a sample per basis function.
MIN_POINTS = SHAPE.size


def shape_f1(t):
    return np.sin(2.5 * math.pi * t)


def shape_f2(t):
    return (-(t**2) + np.sin(TWO_PI * t) + 0.25) / 1.3


def shape_f3(t):
    return np.sin(2.5 * math.pi * t**2.5)


def shape_g1(t):
    return np.sin(TWO_PI * t**2)


def shape_g2(t):
    return np.cos(TWO_PI * t**2)


FIXED_SHAPES: Dict[str, Callable] = {
    "f1": shape_f1,
    "f2": shape_f2,
    "f3": shape_f3,
    "g1": shape_g1,
    "g2": shape_g2,
}

RANDOM_SHAPES = ("f4", "f5", "f6")


def sang_random_shape(which: int, noise_draws) -> Callable:
    """Random two-harmonic shape number 4, 5 or 6 for given draws e1..e4.

    Shapes 4 and 5 share their phase argument; shape 6 changes phase and
    frequency.  Within a replication the same draws are used for all three.
    """
    e1, e2, e3, e4 = (float(v) for v in noise_draws)
    if not all(np.isfinite([e1, e2, e3, e4])):
        raise InvalidInputError("random-shape draws must be finite")
    if which == 4:
        amp1, amp2 = 1.0 + e1, 1.0 + e4
        phase, freq = e2, (1.0 + e3) * TWO_PI
    elif which == 5:
        amp1, amp2 = 2.0 + e1, -1.0 + e4
        phase, freq = e2, (1.0 + e3) * TWO_PI
    elif which == 6:
        amp1, amp2 = 1.0 + e1, 1.0 + e4
        phase, freq = -1.0 / 3.0 + e2, (0.75 + e3) * TWO_PI
    else:
        raise InvalidInputError(f"unknown random shape: {which}")

    def shape(t):
        arg = phase + freq * np.asarray(t, dtype=float)
        return amp1 * np.sin(arg) + amp2 * np.sin(arg**2 / TWO_PI)

    return shape


@dataclass(frozen=True)
class Scenario:
    shapes: Tuple[str, ...]
    warp: str = "power"  # power | linear_shift | power_shift | none
    alphas: Tuple[float, ...] = DEFAULT_ALPHAS
    sizes: Tuple[int, ...] = (10, 10, 10)
    sigma: float = 0.15
    n_points: int = 100
    seed: int = 0
    merged: Optional[Tuple[int, int]] = None  # group indexes of the 2-cluster truth

    def __post_init__(self):
        if len(self.shapes) != len(self.sizes):
            raise InvalidInputError("one size per shape is required")
        for size in self.sizes:
            check_count(size, 1, "a group size")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise InvalidInputError("sigma must be finite and nonnegative")
        if self.n_points < MIN_POINTS:
            raise InvalidInputError(
                f"need at least {MIN_POINTS} time points, one per shape-spline basis function"
            )
        check_count(self.n_points, MIN_POINTS, "n_points")
        check_count(self.seed, 0, "seed")
        if not (self.alphas and all(math.isfinite(a) and a > 0 for a in self.alphas)):
            raise InvalidInputError("alphas must be one or more finite positive exponents")
        for name in self.shapes:
            if name not in FIXED_SHAPES and name not in RANDOM_SHAPES:
                raise InvalidInputError(f"unknown shape function: {name!r}")
        if self.warp not in ("power", "linear_shift", "power_shift", "none"):
            raise InvalidInputError(f"unknown warp family: {self.warp!r}")


@dataclass
class SimulatedData:
    ids: list
    points: np.ndarray
    samples: np.ndarray  # one row per curve
    labels: dict  # id -> 1-based group label
    truths: dict  # name -> tuple of frozensets of ids


# The named scenarios of the paper's simulations, as `Scenario` fields; a
# preset without sizes has 10 curves per shape.
PRESETS: Dict[str, dict] = {
    "s31": dict(shapes=("f1", "f2", "f3"), warp="power", sigma=0.15, merged=(0, 2)),
    "s32a": dict(shapes=("f1", "f2", "f3"), warp="linear_shift", sigma=0.15, merged=(0, 2)),
    "s32b": dict(shapes=("f1", "f2", "f3"), warp="power_shift", sigma=0.15, merged=(0, 2)),
    "s33a": dict(shapes=("f4", "f5", "f6"), warp="none", sigma=0.0, merged=(0, 1)),
    "s33b": dict(
        shapes=("g1", "g2"),
        warp="power",
        alphas=(0.78, 0.89, 1.11, 1.22),
        sizes=(4, 4),
        sigma=0.0,
    ),
}


def scenario_preset(
    name: str,
    sizes: Optional[Tuple[int, ...]] = None,
    sigma: Optional[float] = None,
    n_points: int = Scenario.n_points,
    seed: int = Scenario.seed,
) -> Scenario:
    if name not in PRESETS:
        raise InvalidInputError(f"unknown scenario: {name!r}")
    spec = dict(PRESETS[name])
    if sizes is not None:
        spec["sizes"] = tuple(sizes)
    elif "sizes" not in spec:
        spec["sizes"] = (10,) * len(spec["shapes"])
    if sigma is not None:
        spec["sigma"] = sigma
    return Scenario(n_points=n_points, seed=seed, **spec)


def _warp_for_curve(scenario: Scenario, within_index: int, rng) -> Callable:
    if scenario.warp == "none":
        return lambda t: t
    if scenario.warp == "power":
        alpha = scenario.alphas[within_index % len(scenario.alphas)]
        return lambda t: t**alpha
    if scenario.warp == "linear_shift":
        a1 = rng.uniform(0.975, 1.025)
        a2 = rng.uniform(0.0, 0.05)
        return lambda t: a1 * t + a2
    # power_shift
    alpha = scenario.alphas[within_index % len(scenario.alphas)]
    b1 = rng.uniform(0.0, 0.05)
    b2 = rng.uniform(-0.05, 0.05)
    return lambda t: (1.0 + b2 - b1) * t**alpha + b1


def _shape_for_curve(scenario: Scenario, group_index: int, within_index: int) -> Callable:
    name = scenario.shapes[group_index]
    if name in FIXED_SHAPES:
        return FIXED_SHAPES[name]
    eps_rng = np.random.default_rng([scenario.seed, 3, within_index])
    draws = eps_rng.normal(0.0, SHAPE_NOISE_SCALE, 4)
    return sang_random_shape(int(name[1]), draws)


def generate(scenario: Scenario) -> SimulatedData:
    """Generate all curves of a scenario, deterministic given the seed.

    Each curve has its own generator stream derived from (seed, id), so the
    output does not depend on generation order.  Random-shape draws are shared
    across groups within the same replication index.
    """
    points = np.linspace(0.0, 1.0, scenario.n_points)
    rows = []
    ids = []
    labels = {}
    group_members: Dict[int, list] = {}
    gid = 0
    for group_index, size in enumerate(scenario.sizes):
        group_members[group_index] = []
        for within in range(size):
            shape = _shape_for_curve(scenario, group_index, within)
            warp_rng = np.random.default_rng([scenario.seed, 2, gid])
            warp = _warp_for_curve(scenario, within, warp_rng)
            values = np.asarray(shape(warp(points)), dtype=float)
            if scenario.sigma > 0:
                noise_rng = np.random.default_rng([scenario.seed, 1, gid])
                values = values + noise_rng.normal(0.0, scenario.sigma, len(points))
            rows.append(values)
            ids.append(gid)
            labels[gid] = group_index + 1
            group_members[group_index].append(gid)
            gid += 1

    truths = {
        "natural": tuple(frozenset(group_members[g]) for g in sorted(group_members))
    }
    if scenario.merged is not None:
        a, b = scenario.merged
        merged_group = frozenset(group_members[a]) | frozenset(group_members[b])
        others = [
            frozenset(group_members[g])
            for g in sorted(group_members)
            if g not in (a, b)
        ]
        truths["merged"] = tuple([merged_group] + others)
    return SimulatedData(
        ids=ids, points=points, samples=np.vstack(rows), labels=labels, truths=truths
    )
