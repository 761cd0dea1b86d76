"""Composition of nested embeddings.

Given a metric on X, a subset S with low-distortion expanding embedding
alpha_S, and a coarser expanding embedding alpha_X of all of X, a random draw
clusters the outliers K = X minus S around permutation-ordered centers and
concatenates one block per cluster behind an alpha_S-derived block. Pairs
inside S keep exactly their alpha_S distances; all other pairs expand by at
most case-specific multiples of (c_S, c_X), in expectation for mutually close
outlier pairs and in the worst case otherwise.

Cluster loop semantics: the i-th center is the i-th element of the
permutation even if it was already swallowed by an earlier cluster, so
clusters can be empty. Center u grabs outlier v when d(v, u) <= b d(v, gamma(v)),
and each outlier joins the first center in permutation order that grabs it
(every outlier grabs itself); the loop stops once every outlier is assigned,
so t is the last such position plus one. The block for outlier v in cluster
i uses the anchor of the *center* u_i, not of v itself.

The derandomized composition (compose_deterministic) counts blocks instead of
concatenating draws: alpha' is keyed by the alpha_S row each point reads and
a cluster block by (gamma(center), members), and each distinct block is
written once at weight (count/m)^(1/p). An empty cluster's block is one row
repeated on every point, adds nothing to any distance, and is not written.
compose_once keeps the literal one-draw layout, empty clusters included.

Every draw takes b uniform on [2, 2 + TAU], TAU = 2, the paper's tau at which
each bound here is stated. The strong composition (compose_strong) makes one
draw and builds each cluster block from an embedding of that cluster plus
its anchor instead of alpha_X. A cluster that passes the Schoenberg test at
p = 2 is factored from its centered Gram, an isometry (an empty cluster, the
anchor alone, is one zero column); the others, and every cluster at p != 2,
get a seeded Bourgain embedding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .bourgain import BourgainParams, bourgain_embed
from .errors import (
    DomainError,
    EmptyS,
    InconsistentTranscript,
    IndexOutOfRange,
    InvalidCase,
    KappaOutOfRange,
    NotExpanding,
    NotPSD,
    SizeMismatch,
)
from .lp_geometry import PointSet, centered_gram, points_from_gram
from .metric_core import (
    MetricSpace,
    _submetric,
    distortion_stats,
    normalize_expanding,
)

EXPANDING_TOL = 1e-9
TAU = 2.0  # b is uniform on [2, 2 + TAU]; every bound here is stated at tau = 2
BLOCK = 512  # Monte Carlo trials per batch: a batch's arrays hold BLOCK x (k + dims) numbers


# ---------------------------------------------------------------------------
# inputs and transcripts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositionInputs:
    """Validated inputs: metric, subset S, host p, the two expanding embeddings.

    alpha_s rows follow sorted(S); alpha_x rows follow 0..n-1. The
    measured distortions c_s <= c_x and gamma, gamma(u) for each u outside S
    (a point is in S iff it is not a key), are set at construction.
    """

    m: MetricSpace
    s: tuple[int, ...]
    p: float
    alpha_s: PointSet
    alpha_x: PointSet
    c_s: float = field(init=False)
    c_x: float = field(init=False)
    gamma: dict[int, int] = field(init=False)

    def __post_init__(self):
        s_sorted, c_s, gamma = _check_subset(self.m, self.s, self.p, self.alpha_s)
        object.__setattr__(self, "s", s_sorted)
        object.__setattr__(self, "gamma", gamma)
        if self.alpha_x.n != self.m.n:
            raise SizeMismatch(f"alpha_x has {self.alpha_x.n} rows, metric has {self.m.n}")
        if self.alpha_x.p != self.p:
            raise SizeMismatch("alpha_x.p must equal p")
        c_x = _require_expanding(self.m, tuple(range(self.m.n)), self.alpha_x, "alpha_x")
        if c_s > c_x * (1.0 + EXPANDING_TOL):
            raise ValueError(f"c_S={c_s:g} exceeds c_X={c_x:g}; the finer embedding must not be coarser")
        object.__setattr__(self, "c_s", c_s)
        object.__setattr__(self, "c_x", c_x)

    @cached_property
    def outliers(self) -> tuple[int, ...]:
        return tuple(self.gamma)  # nearest_anchors keys K in increasing order

    @property
    def k(self) -> int:
        return self.m.n - len(self.s)

    @cached_property
    def anchor_of(self) -> np.ndarray:
        """gamma as an array over 0..n-1, extended by the identity on S."""
        anchors = np.arange(self.m.n)
        anchors[list(self.gamma)] = list(self.gamma.values())
        return anchors

    @cached_property
    def anchor_rows(self) -> np.ndarray:
        """_anchor_rows of these inputs: the alpha_s row of each point's anchor."""
        return _anchor_rows(self.m.n, self.s, self.gamma)


def _check_subset(m: MetricSpace, s: Sequence[int], p: float,
                  alpha_s: PointSet) -> tuple[tuple[int, ...], float, dict[int, int]]:
    """The S-side setup both compositions share: S a nonempty subset of
    0..n-1, alpha_s an expanding lp embedding of sorted(S), and every grab
    radius b d(v, gamma(v)) finite for b <= 2 + TAU. Returns sorted(S), c_S
    and gamma (nearest_anchors)."""
    s_sorted = tuple(sorted(set(int(i) for i in s)))
    if not s_sorted:
        raise EmptyS("S must be nonempty")
    if s_sorted[0] < 0 or s_sorted[-1] >= m.n:
        raise SizeMismatch(f"S contains indices outside 0..{m.n - 1}")
    if alpha_s.n != len(s_sorted):
        raise SizeMismatch(f"alpha_s has {alpha_s.n} rows, |S|={len(s_sorted)}")
    if alpha_s.p != p:
        raise SizeMismatch("alpha_s.p must equal p")
    c_s = _require_expanding(m, s_sorted, alpha_s, "alpha_s")
    gamma = nearest_anchors(m, s_sorted)
    far = float(np.max(m.dist[list(gamma), list(gamma.values())], initial=0.0))
    if not math.isfinite((2.0 + TAU) * far):
        raise ValueError(f"d(v, gamma(v)) = {far:g} is too large: the grab radius "
                         f"b d(v, gamma(v)), b <= {2.0 + TAU:g}, overflows a float")
    return s_sorted, c_s, gamma


def _require_expanding(m: MetricSpace, subset: tuple[int, ...], emb: PointSet, name: str) -> float:
    if len(subset) < 2:
        return 1.0
    stats = distortion_stats(_submetric(m, subset), emb)
    if stats.min_ratio < 1.0 - EXPANDING_TOL:
        raise NotExpanding(f"{name} contracts some pair (min ratio {stats.min_ratio:.12g})")
    return max(stats.max_ratio, 1.0)


def nearest_anchors(m: MetricSpace, s: Sequence[int]) -> dict[int, int]:
    """gamma(u) = the closest point of S to each u outside S, lowest index on ties."""
    s_sorted = tuple(sorted(set(int(i) for i in s)))
    if not s_sorted:
        raise EmptyS("S must be nonempty")
    cols = np.asarray(s_sorted, dtype=int)
    outliers = np.setdiff1d(np.arange(m.n), cols)
    nearest = np.argmin(m.dist[np.ix_(outliers, cols)], axis=1)  # the first minimum
    return dict(zip(outliers.tolist(), cols[nearest].tolist()))


@dataclass(frozen=True)
class CompositionTranscript:
    """One random draw: the threshold b, the permutation of K, and the greedy
    clusters (center, members) in formation order."""

    b: float
    pi: tuple[int, ...]
    clusters: tuple[tuple[int, tuple[int, ...]], ...]
    gamma: dict[int, int] = field(compare=False)

    def cluster_of(self) -> dict[int, int]:
        owner = {}
        for i, (_, members) in enumerate(self.clusters):
            for v in members:
                owner[v] = i
        return owner

    def to_dict(self) -> dict:
        return {
            "b": self.b,
            "pi": list(self.pi),
            "clusters": [{"center": c, "members": list(ms)} for c, ms in self.clusters],
            "gamma": {str(u): g for u, g in sorted(self.gamma.items())},
        }


def sample_transcript(inputs: CompositionInputs, rng: np.random.Generator) -> CompositionTranscript:
    """Draw b uniform on [2, 2 + TAU], a Fisher-Yates permutation of K, and run
    the greedy cluster loop."""
    (b,), (pi,) = _draw_block(inputs.outliers, 1, rng)
    return _greedy_clusters(inputs.m, inputs.gamma, float(b), tuple(pi.tolist()))


def _draw_block(outliers: tuple[int, ...], count: int,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """count draws of b = 2 + TAU u, shape (count,), and of pi, shape (count, k), a
    permutation of the outliers (K in increasing order). Each draw takes
    rng.random() for b, then shuffles its row of an arange(k) table in place.
    rng.permutation(k) is arange(k) shuffled, so the random calls and values
    are those of rng.permutation(k), and of rng.permutation of K itself."""
    u = np.empty(count)
    order = np.tile(np.arange(len(outliers)), (count, 1))
    for t in range(count):
        u[t] = rng.random()
        rng.shuffle(order[t])
    return 2.0 + TAU * u, np.asarray(outliers, dtype=int)[order]


def _cluster_positions(m: MetricSpace, gamma: dict[int, int], v: Sequence[int],
                       b: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The grab rule, for every outlier of v in every draw of a batch.

    Center u grabs outlier v when d(v, u) <= b d(v, gamma(v)), and v joins
    the first center in pi order that grabs it, which is the cluster the
    greedy loop puts it in. Entry [t, j] is the position in pi[t] of the
    center of v[j]'s cluster under threshold b[t]; every outlier grabs
    itself, so there is one. The batch's temporary holds len(v) x pi.size
    distances.
    """
    if not len(v):
        return np.zeros((len(b), 0), dtype=int)
    d = m.dist[list(v)]
    reach = b[:, None] * d[np.arange(len(v)), [gamma[u] for u in v]]
    grab = d[:, pi] <= reach.T[:, :, None]
    return grab.argmax(axis=2).T  # the first True in pi order


def _transcript(gamma: dict[int, int], b: float, pi: Sequence[int],
                position: Sequence[int]) -> CompositionTranscript:
    """The transcript of the draw (b, pi) in which the j-th outlier (gamma's
    keys, K in increasing order) joins the cluster of pi[position[j]]: t is
    the last such position plus one, and cluster i holds the outliers whose
    center is pi[i], in increasing index (possibly none)."""
    members = [[] for _ in range(max(position, default=-1) + 1)]
    for v, i in zip(gamma, position):
        members[i].append(v)
    return CompositionTranscript(b=b, pi=tuple(pi), clusters=tuple(zip(pi, map(tuple, members))),
                                 gamma=dict(gamma))


def _greedy_clusters(m: MetricSpace, gamma: dict[int, int], b: float,
                     pi: tuple[int, ...]) -> CompositionTranscript:
    """The greedy cluster loop over pi: _cluster_positions for one draw."""
    position = _cluster_positions(m, gamma, tuple(gamma), np.array([b]),
                                  np.asarray(pi, dtype=int).reshape(1, -1))
    return _transcript(gamma, b, pi, position[0].tolist())


def _check_transcript(m: MetricSpace, gamma: dict[int, int], tr: CompositionTranscript) -> None:
    """Raise InconsistentTranscript unless tr is a draw the greedy cluster loop
    could make; gamma keys X minus S in increasing order (nearest_anchors)."""
    if tuple(sorted(tr.pi)) != tuple(gamma):
        raise InconsistentTranscript("pi is not a permutation of X minus S")
    assigned: set[int] = set()
    for idx, (center, members) in enumerate(tr.clusters):
        if center != tr.pi[idx]:
            raise InconsistentTranscript("cluster centers must follow pi order")
        for v in members:
            if v in assigned:
                raise InconsistentTranscript(f"outlier {v} assigned twice")
            scale = max(m.dist[v, gamma[v]], 1.0)
            if m.dist[v, center] > tr.b * m.dist[v, gamma[v]] + 1e-9 * scale:
                raise InconsistentTranscript(f"outlier {v} violates the grab rule of its cluster")
            assigned.add(v)
    if assigned != set(gamma):
        raise InconsistentTranscript("clusters do not partition X minus S")


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComposedEmbedding:
    """A composed embedding plus the transcripts that produced it."""

    embedding: PointSet
    transcripts: tuple[CompositionTranscript, ...]


# A block is (points, rows): column block points[rows], so point v reads row
# rows[v] of points.

def _anchor_rows(n: int, s: tuple[int, ...], gamma: dict[int, int]) -> np.ndarray:
    """The row of alpha_s (rows follow sorted S) of each point's anchor: its
    own on S, gamma(v)'s on an outlier v. In alpha' a point reads the entry
    of its cluster's center, its own on S."""
    rows = np.empty(n, dtype=int)
    rows[list(s)] = np.arange(len(s))
    rows[list(gamma)] = rows[list(gamma.values())]
    return rows


def _prime_rows(anchor_rows: np.ndarray, tr: CompositionTranscript) -> np.ndarray:
    """Row of alpha_s that each point reads in alpha' in the draw tr."""
    center = np.arange(len(anchor_rows))
    for c, members in tr.clusters:
        center[list(members)] = c
    return anchor_rows[center]


def _cluster_rows(n: int, members: Sequence[int], member_rows: Sequence[int],
                  anchor_row: int) -> np.ndarray:
    """Rows of a cluster block: each member's own on the members, the anchor's elsewhere."""
    rows = np.full(n, anchor_row)
    rows[list(members)] = member_rows
    return rows


def _write_blocks(n: int, blocks: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Blocks (points, rows) side by side in one preallocated (n, total) array."""
    out = np.empty((n, sum(points.shape[1] for points, _ in blocks)))
    col = 0
    for points, rows in blocks:
        np.take(points, rows, axis=0, out=out[:, col:col + points.shape[1]])
        col += points.shape[1]
    return out


def compose_once(inputs: CompositionInputs, transcript: CompositionTranscript) -> ComposedEmbedding:
    """Materialize one draw: alpha(v) = alpha'(v) | alpha_1(v) | ... | alpha_t(v),
    with a block for every cluster, empty ones included."""
    _check_transcript(inputs.m, inputs.gamma, transcript)
    n, gamma = inputs.m.n, inputs.gamma
    blocks = [(inputs.alpha_s.points, _prime_rows(inputs.anchor_rows, transcript))]
    blocks += [(inputs.alpha_x.points, _cluster_rows(n, members, members, gamma[center]))
               for center, members in transcript.clusters]
    return ComposedEmbedding(
        embedding=PointSet(points=_write_blocks(n, blocks), p=inputs.p),
        transcripts=(transcript,),
    )


def compose_deterministic(inputs: CompositionInputs, m_samples: int,
                          rng: np.random.Generator) -> ComposedEmbedding:
    """The composition of m_samples independent draws, each distinct block written once.

    A block that occurs in `count` draws is written once at weight
    (count/m_samples)^(1/p), and an empty cluster gets no block, so the p-th
    power of every pair distance is the mean of the per-draw p-th powers, as
    in the concatenation of the draws at weight m_samples^(-1/p) each. Pairs
    inside S therefore keep exactly their alpha_S distance, and no pair falls
    below the per-draw 3^(1/p - 1) floor, for every p. For p=1 the result's
    distance on every pair equals the arithmetic mean of the per-draw
    distances. Blocks appear in order of first occurrence, and a cluster
    block's rows are built only then.

    The draws come BLOCK // k at a time (at least one), with the random
    calls and transcripts of m_samples calls of sample_transcript. One
    _cluster_positions call finds every outlier's cluster in all of a
    batch's draws (BLOCK x k distances), and a draw's alpha' rows are read
    off its centers. Each weight multiplies its source, alpha_S or alpha_X,
    once: the same bits as scaling the taken block. Memory is the batch,
    the scaled sources and the output.
    """
    if m_samples < 1:
        raise ValueError("m_samples must be >= 1")
    n, gamma, outliers = inputs.m.n, inputs.gamma, inputs.outliers
    sources = (inputs.alpha_s.points, inputs.alpha_x.points)
    counted: dict = {}  # key -> [source index, rows, count]; the key determines the block
    transcripts = []
    batch = max(1, BLOCK // max(len(outliers), 1))
    for start in range(0, m_samples, batch):
        b, pi = _draw_block(outliers, min(batch, m_samples - start), rng)
        position = _cluster_positions(inputs.m, gamma, outliers, b, pi)
        primes = inputs.anchor_rows[np.take_along_axis(pi, position, axis=1)]
        for b_t, pi_t, position_t, prime in zip(b.tolist(), pi.tolist(), position.tolist(), primes):
            tr = _transcript(gamma, b_t, pi_t, position_t)
            transcripts.append(tr)
            key = prime.tobytes()  # the outliers' alpha' rows; S reads its own
            if key not in counted:
                rows = inputs.anchor_rows.copy()
                rows[list(outliers)] = prime
                counted[key] = [0, rows, 0]
            counted[key][2] += 1
            for center, members in tr.clusters:
                if not members:
                    continue
                key = (gamma[center], members)
                if key not in counted:
                    counted[key] = [1, _cluster_rows(n, members, members, key[0]), 0]
                counted[key][2] += 1
    scaled: dict = {}  # (source index, count) -> the source at that count's weight
    blocks = []
    for source, rows, count in counted.values():
        if (source, count) not in scaled:
            scaled[source, count] = sources[source] * (count / m_samples) ** (1.0 / inputs.p)
        blocks.append((scaled[source, count], rows))
    return ComposedEmbedding(
        embedding=PointSet(points=_write_blocks(n, blocks), p=inputs.p),
        transcripts=tuple(transcripts),
    )


def _check_pair(n: int, x: int, y: int) -> None:
    for v in (x, y):
        if not 0 <= v < n:
            raise IndexOutOfRange(f"pair index {v} is outside 0..{n - 1}")
    if x == y:
        raise DomainError(f"pair ({x}, {y}) names one point twice")


def _owner_distances(inputs: CompositionInputs, x: int, y: int,
                     cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """||alpha(x) - alpha(y)||_p in each draw t where x's cluster has center
    cx[t] and y's has center cy[t]; a point of S is its own owner.

    Only the blocks that differ are read: alpha', and the blocks of the two
    owners' clusters. In the block of x's cluster, x reads its own alpha_X row
    and y reads the cluster anchor's row, or its own if it is in the same
    cluster; a point of S is in no cluster, so its term is zero.
    """
    p = inputs.p
    a_s, a_x = inputs.alpha_s.points, inputs.alpha_x.points
    gx, gy = inputs.anchor_of[cx], inputs.anchor_of[cy]
    same = cx == cy
    total = np.sum(np.abs(a_s[inputs.anchor_rows[cx]] - a_s[inputs.anchor_rows[cy]]) ** p, axis=1)
    total += np.sum(np.abs(a_x[x] - a_x[np.where(same, y, gx)]) ** p, axis=1)
    total += np.sum(np.abs(a_x[y] - a_x[np.where(same, y, gy)]) ** p, axis=1)
    root = 1.0 / p  # taken as a float power: numpy's array power can differ in the last bit
    return np.array([t ** root for t in total.tolist()])


def pair_distance(inputs: CompositionInputs, tr: CompositionTranscript, x: int, y: int) -> float:
    """||alpha(x) - alpha(y)||_p for one draw, using only the blocks that differ.

    Finding the clusters of x and y scans the member lists, O(k); the
    distance then reads two rows of alpha_S and four of alpha_X, O(dims).
    """
    _check_pair(inputs.m.n, x, y)
    cx, cy = (np.array([next((c for c, ms in tr.clusters if v in ms), v)]) for v in (x, y))
    return float(_owner_distances(inputs, x, y, cx, cy)[0])


def _owners(inputs: CompositionInputs, v: int, b: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Per draw, the center of v's cluster; a point of S is its own owner."""
    if v not in inputs.gamma:
        return np.full(len(b), v)
    position = _cluster_positions(inputs.m, inputs.gamma, (v,), b, pi)
    return pi[np.arange(len(b)), position[:, 0]]


def estimate_expected_expansion(inputs: CompositionInputs, pair: tuple[int, int],
                                trials: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the pair's composed distance.

    The trials run BLOCK at a time. They consume rng as `trials` calls of
    sample_transcript do, and each trial's distance is pair_distance on that
    draw, but only the clusters of x and y are found.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    x, y = pair
    _check_pair(inputs.m.n, x, y)
    vals = np.empty(trials)
    for start in range(0, trials, BLOCK):
        b, pi = _draw_block(inputs.outliers, min(BLOCK, trials - start), rng)
        vals[start:start + len(b)] = _owner_distances(
            inputs, x, y, _owners(inputs, x, b, pi), _owners(inputs, y, b, pi))
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


# ---------------------------------------------------------------------------
# theoretical bound calculator
# ---------------------------------------------------------------------------

def harmonic_number(k: int) -> Fraction:
    """H_k = sum_{i=1..k} 1/i, with H_0 = 0."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def expansion_coefficients(case: str, k: int = 0, tau=2, kappa=2) -> tuple[Fraction, Fraction]:
    """Exact (c_S, c_X) multipliers of the per-case expansion bound.

    Computed in rational arithmetic; at tau=2, kappa=2 these are
    (1,0), (0,1), (7,9), (31,45) and ((155/2)H_k, (225/2)H_k + 1).
    """
    if not (math.isfinite(tau) and math.isfinite(kappa)):
        raise ValueError(f"tau and kappa must be finite, got tau={tau}, kappa={kappa}")
    tau = Fraction(tau)
    kappa = Fraction(kappa)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if case == "a":
        return Fraction(1), Fraction(0)
    if case == "b":
        return Fraction(0), Fraction(1)
    if case == "c":
        return tau + 5, 2 * tau + 5
    if case == "d":
        if kappa <= 0:
            raise KappaOutOfRange(f"case (d) needs kappa > 0, got {float(kappa)}")
        return (2 * tau + 8) * kappa + tau + 5, (4 * tau + 10) * kappa + 2 * tau + 5
    if case == "e":
        if kappa <= 1:
            raise KappaOutOfRange(f"case (e) needs kappa > 1, got {float(kappa)}")
        h_k = harmonic_number(k)
        pref = (tau + 3) / ((kappa - 1) * tau)
        coef_s = pref * h_k * (kappa * (tau + 3) + (kappa + 1) * (tau + 5))
        coef_x = 1 + pref * h_k * (2 * tau + 5) * (2 * kappa + 1)
        return coef_s, coef_x
    raise InvalidCase(f"unknown case {case!r}; expected one of a..e")


def expansion_bound(case: str, c_s: float, c_x: float, k: int = 0, tau=2, kappa=2) -> float:
    """The multiplier of d(x,y) bounding the (expected, for case e) expansion.

    Cases: 'a' both in S; 'b' same cluster; 'c' one endpoint in S; 'd' outlier
    pair with an anchor within kappa times the pair distance; 'e' outlier pair
    with both anchors beyond kappa times the pair distance (bound holds in
    expectation). tau = kappa = 2 gives the fixed-constant bounds. c_s and
    c_x are distortions, so each must be finite and >= 1; a multiplier too
    large for a float raises ValueError.
    """
    for name, c in (("c_s", c_s), ("c_x", c_x)):
        if not (math.isfinite(c) and c >= 1.0):
            raise ValueError(f"{name} must be finite and >= 1, got {c}")
    coef_s, coef_x = expansion_coefficients(case, k=k, tau=tau, kappa=kappa)
    try:
        value = float(coef_s) * c_s + float(coef_x) * c_x
    except OverflowError:  # a coefficient beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the case ({case}) multiplier overflows a float")
    return value


def table_case(inputs: CompositionInputs, tr: CompositionTranscript, x: int, y: int) -> str:
    """Classify a pair into exactly one of the cases a..e for this draw, at kappa = 2."""
    _check_pair(inputs.m.n, x, y)
    in_s_x = x not in inputs.gamma
    in_s_y = y not in inputs.gamma
    if in_s_x and in_s_y:
        return "a"
    if in_s_x or in_s_y:
        return "c"
    owner = tr.cluster_of()
    if owner[x] == owner[y]:
        return "b"
    d = inputs.m.dist[x, y]
    d_ax = inputs.m.dist[x, inputs.gamma[x]]
    d_ay = inputs.m.dist[y, inputs.gamma[y]]
    if min(d_ax, d_ay) <= 2.0 * d:
        return "d"
    return "e"


def close_pair_split_bound(inputs: CompositionInputs, x: int, y: int) -> float:
    """Upper bound on the probability that a mutually close outlier pair is
    split across clusters: sum over eligible u of (5/index(u)) * d(x,y) /
    d(x_u, gamma(x_u)), stated for the draws' tau, TAU = 2.
    """
    _check_pair(inputs.m.n, x, y)
    for v in (x, y):
        if v not in inputs.gamma:
            raise DomainError(f"the split bound is for outlier pairs; {v} is in S")
    d = inputs.m.dist
    dxy = d[x, y]
    betas = []
    for u in inputs.outliers:
        bx = d[x, u] / d[x, inputs.gamma[x]]
        by = d[y, u] / d[y, inputs.gamma[y]]
        if bx <= by:
            betas.append((bx, u, x))
        else:
            betas.append((by, u, y))
    betas.sort(key=lambda item: (item[0], item[1]))
    total = 0.0
    for index, (beta, _, closer) in enumerate(betas, start=1):
        if beta > TAU + 2.0:
            continue
        total += (5.0 / index) * dxy / d[closer, inputs.gamma[closer]]
    return total


# ---------------------------------------------------------------------------
# strong composition: cluster-local embeddings instead of alpha_X
# ---------------------------------------------------------------------------

def _cluster_embedding(sub: MetricSpace, p: float, seed: int) -> PointSet:
    """An expanding embedding of a cluster plus its anchor. At p = 2 the
    centered Gram's factor (points_from_gram), rescaled to be expanding. It
    has one column per eigenvalue above n * eps * lam_max, the Gram's
    numerical rank, and before the rescale each squared distance is within
    2 * n * SCHOENBERG_TOL * lam_max of the metric's: the factor clamps
    negative eigenvalues no larger than SCHOENBERG_TOL * lam_max, and drops
    positive ones smaller still. An empty cluster is its anchor alone, one zero
    row in one column. A cluster whose centered Gram fails that factor's PSD
    test, and every cluster at p != 2, gets the Bourgain embedding with the
    seed."""
    if p == 2.0:
        try:  # one eigendecomposition is both the Schoenberg test and the factor
            emb = points_from_gram(centered_gram(sub))
        except NotPSD:
            pass
        else:
            return normalize_expanding(sub, emb)[0] if sub.n >= 2 else emb
    return bourgain_embed(sub, BourgainParams(seed=seed, p=p))[0]


def compose_strong(m: MetricSpace, s: Sequence[int], p: float, alpha_s: PointSet,
                   rng: np.random.Generator) -> ComposedEmbedding:
    """One draw of the composition, with each cluster block built
    from an expanding embedding of that cluster plus its center's anchor
    (_cluster_embedding).

    rng gives the draw, then one seed per cluster in formation order, drawn
    whether or not the cluster takes the Bourgain path, so rng's stream does
    not depend on the path a cluster takes.

    At p = 2 a distance inside a cluster whose square overflows raises
    squared_distances' ValueError; the d(x, y) it names are indices of the
    cluster's submetric (its sorted members and anchor), not of m.
    """
    s_sorted, _, gamma = _check_subset(m, s, p, alpha_s)
    (b,), (pi,) = _draw_block(tuple(gamma), 1, rng)
    transcript = _greedy_clusters(m, gamma, float(b), tuple(pi.tolist()))

    blocks = [(alpha_s.points, _prime_rows(_anchor_rows(m.n, s_sorted, gamma), transcript))]
    for center, members in transcript.clusters:
        subset = tuple(sorted(set(members) | {gamma[center]}))
        emb = _cluster_embedding(_submetric(m, subset), p, int(rng.integers(0, 2 ** 63 - 1)))
        row_of = {orig: r for r, orig in enumerate(subset)}
        rows = _cluster_rows(m.n, members, [row_of[v] for v in members], row_of[gamma[center]])
        blocks.append((emb.points, rows))

    return ComposedEmbedding(
        embedding=PointSet(points=_write_blocks(m.n, blocks), p=p),
        transcripts=(transcript,),
    )
