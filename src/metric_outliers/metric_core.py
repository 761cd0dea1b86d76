"""Finite metric spaces, their validation, and distortion measurements.

A metric is stored densely as an n x n matrix; n is expected to stay in the
low hundreds. Validation rejects bad inputs, it never repairs them.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DisconnectedGraph,
    IndexOutOfRange,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    SizeMismatch,
    TriangleViolation,
    ZeroSourceDistance,
)
from .lp_geometry import PointSet, condensed_distances

DEFAULT_TRIANGLE_TOL = 1e-9  # absolute, for unit-scale inputs


@dataclass(frozen=True)
class MetricSpace:
    """A validated finite metric: symmetric, zero diagonal, triangle inequality."""

    n: int
    dist: np.ndarray


@dataclass(frozen=True)
class Graph:
    """Undirected simple unweighted graph on nodes 0..n-1."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise SizeMismatch(f"a graph needs n >= 0 nodes, got n={self.n}")
        seen = set()
        norm = []
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IndexOutOfRange(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise IndexOutOfRange(f"self-loop at node {u}")
            e = (min(u, v), max(u, v))
            if e in seen:
                raise IndexOutOfRange(f"duplicate edge {e}")
            seen.add(e)
            norm.append(e)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


@dataclass(frozen=True)
class DistortionStats:
    """Ratios of image distance over source distance, over unordered pairs."""

    max_ratio: float
    min_ratio: float
    distortion: float = field(init=False)

    def __post_init__(self):
        if self.min_ratio <= 0:
            object.__setattr__(self, "distortion", float("inf"))
        else:
            object.__setattr__(self, "distortion", self.max_ratio / self.min_ratio)


def from_matrix(matrix, tol_tri: float = DEFAULT_TRIANGLE_TOL) -> MetricSpace:
    """Validate a square distance matrix into a MetricSpace.

    Raises ValueError for a tol_tri that is not finite or below 0, then
    AsymmetricMatrix, NonzeroDiagonal, NonpositiveOffDiagonal, or
    TriangleViolation(i, j, k) naming the first offending triple.

    The stored matrix is exactly symmetric, so triples (i, j, k) and (k, j, i)
    have the same slack d[i][k] - (d[i][j] + d[j][k]) bit for bit, and i == k
    has slack -2 d[i][j] <= 0. One pass over the endpoint pairs k > i
    therefore decides the triangle inequality; rounding is monotone, so
    d[k][i] - min_j (d[k][j] + d[j][i]) is the pair's largest slack exactly.
    Only a matrix that fails is scanned again, over j, then (i, k) row-major,
    to name the first offending triple.
    """
    if not 0.0 <= tol_tri < math.inf:
        raise ValueError(f"tol_tri must be finite and >= 0, got {tol_tri}")
    d = np.asarray(matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise AsymmetricMatrix(f"expected a square matrix, got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise NonpositiveOffDiagonal("matrix contains non-finite entries")
    n = d.shape[0]
    scale = max(1.0, float(np.abs(d).max()) if d.size else 0.0)
    with np.errstate(over="ignore"):  # only entries above about 8.99e307 overflow
        gap = np.abs(d - d.T)
        mean = (d + d.T) / 2.0
    if gap.max(initial=0.0) > 1e-12 * scale:
        i, j = np.unravel_index(int(np.argmax(gap)), d.shape)
        raise AsymmetricMatrix(f"d[{i}][{j}]={d[i, j]:g} != d[{j}][{i}]={d[j, i]:g}")
    big = np.isinf(mean)
    if big.any():
        mean[big] = d[big] / 2.0 + d.T[big] / 2.0
    d = mean
    if np.abs(np.diag(d)).max(initial=0.0) > 0:
        i = int(np.argmax(np.abs(np.diag(d))))
        raise NonzeroDiagonal(f"d[{i}][{i}]={d[i, i]:g} != 0")
    off = d + np.eye(n)  # lift the diagonal so only off-diagonal entries can trip
    if off.min(initial=1.0) <= 0:
        i, j = np.unravel_index(int(np.argmin(off)), d.shape)
        raise NonpositiveOffDiagonal(f"d[{i}][{j}]={d[i, j]:g} must be positive")
    # triangle inequality over all triples (i, j, k): d[i,k] <= d[i,j] + d[j,k]
    # a path sum may overflow to inf: an infinite path is never the shorter one
    buf = np.empty((n, n))
    with np.errstate(over="ignore"):
        for i in range(n - 1):
            via = buf[: n - 1 - i]  # via[k - i - 1, j] = d[k,j] + d[j,i], for k > i
            np.add(d[i + 1:], d[i], out=via)
            if (d[i, i + 1:] - via.min(axis=1)).max() > tol_tri:
                _raise_first_violation(d, tol_tri)
    return MetricSpace(n=n, dist=d)


def _raise_first_violation(d: np.ndarray, tol_tri: float) -> None:
    """The ordered scan: the first j, then the first (i, k) row-major, whose
    slack exceeds tol_tri."""
    for j in range(d.shape[0]):
        slack = d - (d[:, j][:, None] + d[j, :][None, :])
        worst = float(slack.max(initial=0.0))
        if worst > tol_tri:
            i, k = np.unravel_index(int(np.argmax(slack)), slack.shape)
            raise TriangleViolation(int(i), int(j), int(k), worst)


def from_graph(g: Graph) -> MetricSpace:
    """Hop-count shortest-path metric of a connected graph (BFS from every node)."""
    adj = g.adjacency()
    dist = np.full((g.n, g.n), -1.0)
    for src in range(g.n):
        dist[src, src] = 0.0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1.0
                    queue.append(v)
    if (dist < 0).any():
        u = int(np.argwhere(dist < 0)[0][1])
        raise DisconnectedGraph(f"node {u} unreachable; shortest-path metric undefined")
    return MetricSpace(n=g.n, dist=dist)


def restrict(m: MetricSpace, outliers: Iterable[int]) -> tuple[MetricSpace, tuple[int, ...]]:
    """Metric on X minus the outlier set, plus the kept original indices in order."""
    out = set()
    for i in outliers:
        if not (0 <= i < m.n):
            raise IndexOutOfRange(f"outlier index {i} out of range for n={m.n}")
        out.add(int(i))
    kept = tuple(i for i in range(m.n) if i not in out)
    return _submetric(m, kept), kept


def _submetric(m: MetricSpace, kept: tuple[int, ...]) -> MetricSpace:
    """The metric on the points kept, in that order; the indices are not checked."""
    idx = np.asarray(kept, dtype=int)
    return MetricSpace(n=len(kept), dist=m.dist[np.ix_(idx, idx)])


def _pair_ratios(m: MetricSpace, e: PointSet) -> np.ndarray:
    if e.n != m.n:
        raise SizeMismatch(f"embedding has {e.n} points, metric has {m.n}")
    if m.n < 2:
        raise SizeMismatch("distortion needs at least two points")
    # imported here, as in condensed_distances; the pairs i < j, row-major
    from scipy.spatial.distance import squareform
    src = squareform(m.dist, checks=False)
    if (src <= 0).any():
        raise ZeroSourceDistance("source metric has a zero distance between distinct points")
    return condensed_distances(e) / src


def distortion_stats(m: MetricSpace, e: PointSet) -> DistortionStats:
    """Raw max/min image-over-source ratios; normalizing to an expanding
    embedding (dividing by min_ratio) is the caller's explicit step."""
    ratios = _pair_ratios(m, e)
    return DistortionStats(max_ratio=float(ratios.max()), min_ratio=float(ratios.min()))


def normalize_expanding(m: MetricSpace, e: PointSet) -> tuple[PointSet, DistortionStats]:
    """Scale an embedding by 1/min_ratio so it never contracts, and return the
    stats of the scaled embedding."""
    stats = distortion_stats(m, e)
    if stats.min_ratio <= 0:
        raise ZeroSourceDistance("embedding maps two distinct points to the same image")
    scaled = PointSet(points=e.points / stats.min_ratio, p=e.p)
    return scaled, DistortionStats(max_ratio=stats.max_ratio / stats.min_ratio, min_ratio=1.0)


def verify_outlier_embedding(m: MetricSpace, outliers: Iterable[int], e: PointSet,
                             c: float, tol: float = 1e-9) -> bool:
    """True iff every surviving pair satisfies d <= ||.||_p <= c*d within relative tol."""
    sub, kept = restrict(m, outliers)
    if e.n != sub.n:
        raise SizeMismatch(f"embedding has {e.n} points, {sub.n} survivors expected")
    if sub.n < 2:
        return True
    from scipy.spatial.distance import squareform  # imported here, as in _pair_ratios
    src = squareform(sub.dist, checks=False)
    img = condensed_distances(e)
    ok_low = img >= src * (1.0 - tol)
    ok_high = img <= c * src * (1.0 + tol)
    return bool(np.all(ok_low & ok_high))


# -- text file interchange ------------------------------------------------------

def write_metric_text(path: str, m: MetricSpace) -> None:
    with open(path, "w") as fh:
        fh.write(metric_to_text(m))


def metric_to_text(m: MetricSpace) -> str:
    lines = [str(m.n)]
    for row in m.dist:
        lines.append(" ".join(map(repr, row.tolist())))
    return "\n".join(lines) + "\n"


def read_metric_text(path: str, tol_tri: float = DEFAULT_TRIANGLE_TOL) -> MetricSpace:
    """Metric text format: first line n, then n whitespace-separated rows.

    Each row is converted from its diagonal entry rightwards and mirrored into
    the lower triangle; only a column whose tokens below the diagonal are not
    the same text as the row right of it is converted as well. Equal text
    gives an equal float, so the matrix from_matrix validates is the file's.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise SizeMismatch("empty metric file")
    n = int(tokens[0])
    if n < 1:
        raise SizeMismatch(f"a metric needs at least one point, got n={n}")
    vals = tokens[1:]
    if len(vals) != n * n:
        raise SizeMismatch(f"expected {n * n} entries after n={n}, got {len(vals)}")
    rightwards = chain.from_iterable(vals[i * n + i:(i + 1) * n] for i in range(n))
    upper = np.fromiter(map(float, rightwards), np.float64, count=n * (n + 1) // 2)
    rows, cols = np.triu_indices(n)  # row-major, the order of upper
    mat = np.empty((n, n))
    mat[rows, cols] = upper
    mat[cols, rows] = upper
    for i in range(n - 1):
        below = vals[(i + 1) * n + i::n]
        if below != vals[i * n + i + 1:(i + 1) * n]:
            mat[i + 1:, i] = np.fromiter(map(float, below), np.float64, count=n - 1 - i)
    return from_matrix(mat, tol_tri=tol_tri)


def graph_to_text(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def write_graph_text(path: str, g: Graph) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_text(g))


def read_graph_text(path: str) -> Graph:
    """Graph text format: first line `n m`, then m lines `u v` (0-based)."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise SizeMismatch("graph file must start with 'n m'")
    n, m_edges = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * m_edges:
        raise SizeMismatch(f"expected {2 * m_edges} endpoints, got {len(body)}")
    edges = tuple((int(body[2 * i]), int(body[2 * i + 1])) for i in range(m_edges))
    return Graph(n=n, edges=edges)
