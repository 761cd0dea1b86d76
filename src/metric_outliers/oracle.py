"""Exhaustive ground-truth computations on small instances.

Everything here is exact (subject only to eigenvalue tolerance where noted),
deterministic, and witness-producing. The optimal l2 distortion is a
bracket: its upper end is the distortion of an embedding in hand and its
lower end a Linial-London-Rabinovich dual certificate, both checked here.
Budgets guard runtime, they never trade away exactness.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator, Optional

import numpy as np

from .errors import BudgetExceeded, SolverFailure
from .lp_geometry import _center, schoenberg_test, squared_distances
from .metric_core import Graph, MetricSpace, from_graph
from .outlier_sdp import PairTable, distortion_feasible, upper_distortion


BLOCK = 256  # candidate sets per batch: each batch's temporaries stay within a few MB
MAX_CORES = 4096  # cores the filter keeps: 256 x 4096 float32 products are 4 MB


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 16
    max_subset_size: Optional[int] = None
    max_columns: Optional[int] = None
    time_cap: Optional[float] = None  # seconds

    def __post_init__(self):
        for name in ("max_nodes", "max_subset_size", "max_columns"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.time_cap is not None and not (math.isfinite(self.time_cap) and self.time_cap > 0):
            raise ValueError(f"time_cap must be finite and positive, got {self.time_cap}")

    def deadline(self) -> Optional[float]:
        return None if self.time_cap is None else time.monotonic() + self.time_cap


DEFAULT_BUDGET = OracleBudget()


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("time cap exhausted")


def _incidence(rows: np.ndarray, n: int) -> np.ndarray:
    """Boolean (len(rows), n) matrix, True at the entries each row lists."""
    inc = np.zeros((len(rows), n), dtype=bool)
    np.put_along_axis(inc, rows, True, axis=1)
    return inc


def _subsets(n: int, size: int) -> Iterator[np.ndarray]:
    """The size-subsets of range(n) in lexicographic order, BLOCK rows at a time."""
    it = combinations(range(n), size)
    while chunk := list(islice(it, BLOCK)):
        yield np.array(chunk, dtype=np.intp)


def _hitting_sets(n: int, size: int, sets: np.ndarray,
                  deadline: Optional[float]) -> Iterator[np.ndarray]:
    """The size-subsets of range(n) that meet every row of the incidence
    matrix sets (one row per set to hit), in lexicographic order, a block at
    a time; blocks left empty by the filter are skipped."""
    sets_t = sets.T.astype(np.float32)
    for block in _subsets(n, size):
        _check_deadline(deadline)
        block = block[(_incidence(block, n).astype(np.float32) @ sets_t > 0).all(axis=1)]
        if len(block):
            yield block


def min_vertex_cover(g: Graph, budget: OracleBudget = DEFAULT_BUDGET) -> tuple[int, tuple[int, ...]]:
    """Exact minimum vertex cover: the lexicographically first smallest set
    that hits every edge."""
    if g.n > budget.max_nodes:
        raise BudgetExceeded(f"{g.n} nodes exceeds max_nodes={budget.max_nodes}")
    if not g.edges:
        return 0, ()
    deadline = budget.deadline()
    edges = _incidence(np.array(g.edges), g.n)
    for size in range(1, g.n + 1):
        for block in _hitting_sets(g.n, size, edges, deadline):
            return size, tuple(int(v) for v in block[0])
    raise SolverFailure("unreachable: the full vertex set covers all edges")


def _cores(d2: np.ndarray, deadline: Optional[float]) -> np.ndarray:
    """Incidence rows of the first MAX_CORES 4-point sets of the metric with
    squared distances d2 that fail the Schoenberg test, with the tolerance
    measured against lam_max of the whole metric."""
    n = len(d2)
    lam_ref = float(np.linalg.eigvalsh(_center(d2))[-1]) if n else 0.0
    found = np.zeros((0, 4), dtype=np.intp)
    for quads in _subsets(n, 4):
        if len(found) >= MAX_CORES:
            break
        _check_deadline(deadline)
        sub = d2[quads[:, :, None], quads[:, None, :]]
        found = np.concatenate([found, quads[~schoenberg_test(sub, lam_ref)]])
    return _incidence(found[:MAX_CORES], n)


def min_outlier_isometric_l2(m: MetricSpace, budget: OracleBudget = DEFAULT_BUDGET
                             ) -> tuple[int, tuple[int, ...]]:
    """Smallest K such that the metric minus K embeds isometrically into l2.

    Returns the lexicographically first K of minimum size: candidate sets
    are taken in increasing size and lexicographic order, and the first
    whose complement passes the Schoenberg test (is_l2_isometric's rule) wins.

    Most candidates are never tested. Every 3-point metric embeds in l2, so
    the smallest non-embeddable sets have 4 points; the 4-point sets that
    fail the test are found first, in batched tests, and kept as cores.
    A candidate that misses a core leaves that core in its complement and is
    dropped untested; the rest of each block of candidates is tested in one
    batched eigenvalue call. The filter is exact, not a heuristic: if Q is a
    subset of T, the centered-Gram quadratic form of Q is that of T on the
    vectors supported on Q, so lam_min(T) <= lam_min(Q) and
    lam_max(T) <= lam_max(X) for the whole space X. A core is required to
    fail with its tolerance measured against lam_max(X), so every T that
    contains it fails the test with its own lam_max. Keeping only some of
    the cores (MAX_CORES) weakens the filter but not its exactness.
    """
    if m.n > budget.max_nodes:
        raise BudgetExceeded(f"{m.n} nodes exceeds max_nodes={budget.max_nodes}")
    # removing all but one point always embeds; the 0-point metric embeds as it is
    limit = max(m.n - 1, 0)
    if budget.max_subset_size is not None:
        limit = min(budget.max_subset_size, limit)
    deadline = budget.deadline()
    d2 = squared_distances(m)
    cores = _cores(d2, deadline)
    for size in range(0, limit + 1):
        for block in _hitting_sets(m.n, size, cores, deadline):
            kept = np.nonzero(~_incidence(block, m.n))[1].reshape(len(block), m.n - size)
            passed = schoenberg_test(d2[kept[:, :, None], kept[:, None, :]])
            if passed.any():
                return size, tuple(int(v) for v in block[np.argmax(passed)])
    raise BudgetExceeded(f"no outlier set of size <= {limit} found within budget")


def distortion_bracket(m: MetricSpace, tol: float = 1e-3) -> tuple[float, float]:
    """Witnessed bracket (lower, upper) on the optimal l2 distortion c2(m).

    Bisection over c on the three-valued feasibility run. upper is the
    distortion of an embedding in hand: the best of upper_distortion's, or a
    Gram matrix a run accepted. lower is the best LLR certificate
    found, 1.0 if there is none. An undecided run moves the search past its
    c but not the certified lower end. The bisection also stops when the
    midpoint of the search interval is not strictly inside it, as happens
    once its ends are adjacent floats. So upper - lower <= tol holds unless a
    run was undecided or tol is below the float spacing at c. tol must be
    finite and positive.

    The first run starts from the rescaled centered Gram with dual u = 0, as
    a cold distortion_feasible run does; each later one goes on from the
    primal-dual pair (G, u) where the previous run stopped, at a nearby c. The
    start changes how soon a run ends, not whether its verdict holds: a Gram
    is accepted on its measured distortion, and an LLR bound holds for any
    weights.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    # one pair table, with one eigendecomposition of the centered Gram, gives
    # the Schoenberg test, hi and every run's start
    table = PairTable(m)
    if table.isometric:
        return 1.0, 1.0
    hi = upper_distortion(table)
    lo = lower = 1.0
    pair = table.cold()
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if not lo < mid < hi:
            break
        verdict, _, bound = distortion_feasible(table, mid, pair)
        if verdict == "feasible":
            hi = min(hi, bound)
        elif verdict == "infeasible":
            lower = max(lower, min(bound, hi))
            lo = max(lo, lower)
        else:
            lo = mid
    return lower, hi


def optimal_distortion_l2(m: MetricSpace, tol: float = 1e-3) -> float:
    """The optimal l2 distortion within tol, with no random draw: the upper end
    of distortion_bracket, an embedding in hand, with an LLR certificate within
    tol below unless a feasibility run was undecided."""
    return distortion_bracket(m, tol)[1]


# ---------------------------------------------------------------------------
# hypercube embeddings at integer scale
# ---------------------------------------------------------------------------

def _column_cap(dist: np.ndarray, scale: int) -> tuple[int, int]:
    """(root, cap): root minimizing the total-ones bound scale * sum d(root, .).

    With the root row all zeros and no constant columns, every column carries
    at least one 1 and the total number of 1s is scale * sum d(root, .), so
    the search below the cap is complete.
    """
    sums = dist.sum(axis=1)
    root = int(np.argmin(sums))
    return root, int(round(scale * sums[root]))


def hypercube_column_bound(g: Graph, scale: int) -> int:
    """The column count up to which hypercube_embeddable's search is complete:
    a refutation with max_columns below it holds only within max_columns."""
    if g.n == 0:  # the empty codeword set needs no column
        return 0
    return _column_cap(np.rint(from_graph(g).dist).astype(int), scale)[1]


def hypercube_embeddable(g: Graph, scale: int, budget: OracleBudget = DEFAULT_BUDGET
                         ) -> tuple[bool, Optional[np.ndarray]]:
    """Decide whether binary codewords exist whose Hamming distances equal
    scale times the graph distances; returns a witness codeword matrix if so.

    Backtracks node by node over column-pattern groups (columns with equal
    prefixes are interchangeable, which quotients away column order), with the
    first row normalized to all zeros. False is a complete refutation unless
    budget.max_columns is below hypercube_column_bound(g, scale).
    """
    if scale < 1:
        raise ValueError("scale must be a positive integer")
    if g.n > budget.max_nodes:
        raise BudgetExceeded(f"{g.n} nodes exceeds max_nodes={budget.max_nodes}")
    if g.n == 0:  # no node to root the search at; the empty codeword set is a witness
        return True, np.zeros((0, 0), dtype=int)
    metric = from_graph(g)
    dist = np.rint(metric.dist).astype(int)
    root, complete_cap = _column_cap(dist, scale)
    max_cols = complete_cap if budget.max_columns is None else min(budget.max_columns, complete_cap)
    order = [root] + [v for v in range(g.n) if v != root]
    targets = [[scale * int(dist[order[r], order[j]]) for j in range(r)] for r in range(g.n)]
    deadline = budget.deadline()

    def place_row(r: int, groups: dict[tuple[int, ...], int], used_cols: int) -> Optional[dict]:
        if r == g.n:
            return groups
        _check_deadline(deadline)
        req = targets[r]
        items = sorted(groups.items())

        def assign(gi: int, acc: list[int], chosen: list[int]) -> Optional[dict]:
            if gi == len(items):
                need = set(req[j] - acc[j] for j in range(r))
                if len(need) > 1:
                    return None
                y = need.pop() if need else 0
                if y < 0 or used_cols + y > max_cols:
                    return None
                new_groups: dict[tuple[int, ...], int] = {}
                for (pat, cnt), x in zip(items, chosen):
                    if cnt - x:
                        new_groups[pat + (0,)] = new_groups.get(pat + (0,), 0) + (cnt - x)
                    if x:
                        new_groups[pat + (1,)] = new_groups.get(pat + (1,), 0) + x
                if y:
                    fresh = (0,) * r + (1,)
                    new_groups[fresh] = new_groups.get(fresh, 0) + y
                return place_row(r + 1, new_groups, used_cols + y)
            pat, cnt = items[gi]
            rem_after = sum(c for _, c in items[gi + 1:]) + (max_cols - used_cols)
            for x in range(cnt + 1):
                nacc = list(acc)
                ok = True
                for j in range(r):
                    nacc[j] += x if pat[j] == 0 else cnt - x
                    if nacc[j] > req[j] or nacc[j] + rem_after < req[j]:
                        ok = False
                        break
                if not ok:
                    continue
                found = assign(gi + 1, nacc, chosen + [x])
                if found is not None:
                    return found
            return None

        return assign(0, [0] * r, [])

    solution = place_row(1, {}, 0)
    if solution is None:
        return False, None
    cols = []
    for pat, cnt in sorted(solution.items()):
        cols.extend([pat] * cnt)
    matrix = np.array(cols, dtype=int).T if cols else np.zeros((g.n, 0), dtype=int)
    witness = np.zeros((g.n, matrix.shape[1]), dtype=int)
    for r, v in enumerate(order):
        witness[v] = matrix[r]
    return True, witness


# ---------------------------------------------------------------------------
# Graham-Winkler theta relation
# ---------------------------------------------------------------------------

def dw_edge_classes(g: Graph) -> list[list[tuple[int, int]]]:
    """Equivalence classes of the transitive closure of the theta relation.

    Edges ab and cd are theta-related iff
    [d(a,c) - d(a,d)] - [d(b,c) - d(b,d)] != 0.
    """
    metric = from_graph(g)
    d = metric.dist
    edges = list(g.edges)
    parent = list(range(len(edges)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in combinations(range(len(edges)), 2):
        a, b = edges[i]
        c, e = edges[j]
        if (d[a, c] - d[a, e]) - (d[b, c] - d[b, e]) != 0:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)

    classes: dict[int, list[tuple[int, int]]] = {}
    for i in range(len(edges)):
        classes.setdefault(find(i), []).append(edges[i])
    return [classes[r] for r in sorted(classes)]
