"""Randomized Bourgain-style embedding into lp via Frechet coordinates.

Coordinates are f_{t,j}(x) = d(x, S_{t,j}) for random subsets S_{t,j} of size
2^t, t = 0..floor(log2 n), j = 1..repetitions_per_scale. Each coordinate is
1-Lipschitz, so the raw map never expands any distance by more than the
number of coordinates; the returned embedding is rescaled to be expanding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ZeroSourceDistance
from .lp_geometry import PointSet
from .metric_core import DistortionStats, MetricSpace, normalize_expanding


@dataclass(frozen=True)
class BourgainParams:
    """repetitions_per_scale=None means the ceil(24*ln n) default."""

    repetitions_per_scale: Optional[int] = None
    seed: int = 0
    p: float = 2.0

    def resolved_repetitions(self, n: int) -> int:
        if self.repetitions_per_scale is not None:
            if self.repetitions_per_scale < 1:
                raise ValueError("repetitions_per_scale must be >= 1")
            return int(self.repetitions_per_scale)
        return max(1, math.ceil(24.0 * math.log(max(n, 2))))


def frechet_coordinates(m: MetricSpace, params: BourgainParams) -> np.ndarray:
    """Raw (n, num_coords) Frechet coordinate matrix, deterministic given seed.

    Subsets for distinct (t, j) are drawn from independently seeded streams
    (seed mixed with t, j) and concatenated in index order, so the result does
    not depend on evaluation order.
    """
    n = m.n
    reps = params.resolved_repetitions(n)
    num_scales = int(math.floor(math.log2(n))) + 1 if n > 1 else 1
    cols = []
    for t in range(num_scales):
        size = min(2 ** t, n)
        for j in range(reps):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=int(params.seed), spawn_key=(t, j))
            )
            subset = rng.choice(n, size=size, replace=False)
            cols.append(m.dist[subset].min(axis=0))  # rows: the matrix is symmetric
    return np.column_stack(cols)


def bourgain_embed(m: MetricSpace, params: BourgainParams) -> tuple[PointSet, DistortionStats]:
    """Expanding-normalized Bourgain embedding plus its measured distortion."""
    coords = frechet_coordinates(m, params)
    raw = PointSet(points=coords, p=params.p)
    if m.n == 1:
        # single point at the origin; distortion 1 by convention
        return raw, DistortionStats(max_ratio=1.0, min_ratio=1.0)
    try:
        return normalize_expanding(m, raw)
    except ZeroSourceDistance:
        raise ZeroSourceDistance(
            "degenerate draw: some pair was separated by no Frechet coordinate; "
            "increase repetitions_per_scale or change the seed"
        )
