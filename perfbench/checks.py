"""Output checks computed apart from the package.

Every function here takes plain data (numpy arrays, lists, dicts) and returns
a list of problems; an empty list means the output passed. Nothing here
imports metric_outliers: each check tests a property of the method or a value
that this module computes itself, never a stored copy of an earlier output.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.spatial.distance import cdist

# tau = kappa = 2 constants of the worst-case expansion cases (a)-(d): the
# multipliers of (c_S, c_X). Written out here on purpose, so that the package's
# own rational calculator is not what the benchmark checks against.
CASE_CONSTANTS = {"a": (1.0, 0.0), "b": (0.0, 1.0), "c": (7.0, 9.0), "d": (31.0, 45.0)}
KAPPA = 2.0


def lp_distances(points: np.ndarray, p: float, width: int = 256) -> np.ndarray:
    """All-pairs l_p distances, exact up to rounding, by column chunks.

    Within a chunk of `width` columns, rows with identical values are
    collapsed and distances are taken between the distinct rows only. A wide
    composed embedding repeats the same few rows across each cluster block,
    so this is much cheaper than differencing every pair on every column.
    Rows are grouped by a random projection, and the grouping is verified
    row for row, so a collision only costs the slower exact grouping.
    """
    pts = np.asarray(points, dtype=float)
    n, dims = pts.shape
    probe = np.random.default_rng(0).standard_normal(width)
    acc = np.zeros((n, n))
    for lo in range(0, dims, width):
        block = pts[:, lo:lo + width]
        _, first, inv = np.unique(block @ probe[:block.shape[1]], return_index=True,
                                  return_inverse=True)
        uniq = block[first]
        if not np.array_equal(uniq[inv], block):
            uniq, inv = np.unique(block, axis=0, return_inverse=True)
            inv = inv.reshape(-1)
        if p == 1.0:
            part = cdist(uniq, uniq, metric="cityblock")
        elif p == 2.0:
            part = cdist(uniq, uniq, metric="sqeuclidean")
        else:
            part = cdist(uniq, uniq, metric="minkowski", p=p) ** p
        acc += part[np.ix_(inv, inv)]
    return acc if p == 1.0 else acc ** (1.0 / p)


def upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, k=1)


def harmonic(k: int) -> float:
    return math.fsum(1.0 / i for i in range(1, k + 1))


def nearest_in(dist: np.ndarray, s: list[int]) -> dict[int, int]:
    """gamma(u): the closest point of S to each u outside S, lowest index on ties."""
    in_s = set(s)
    anchors = {}
    for u in range(dist.shape[0]):
        if u in in_s:
            continue
        best = min(s, key=lambda v: (dist[u, v], v))
        anchors[u] = best
    return anchors


# -- solve-planted -----------------------------------------------------------------


def check_outlier_solution(dist: np.ndarray, payload: dict, gamma_c: float,
                           rel: float = 1e-6) -> list[str]:
    """The JSON of `outliers solve` against the source metric.

    K holds distinct indices in range; the survivors' embedding, measured here,
    satisfies d <= |x - y| <= gamma*c*d within `rel`; the reported achieved
    distortion is the measured max/min ratio; |K| is within the certified bound.
    """
    problems = []
    n = dist.shape[0]
    k_set = payload.get("K")
    if not isinstance(k_set, list) or not all(isinstance(v, int) for v in k_set):
        return [f"K is not a list of integers: {k_set!r}"]
    if len(set(k_set)) != len(k_set):
        problems.append(f"K repeats an index: {k_set}")
    if any(not 0 <= v < n for v in k_set):
        problems.append(f"K has an index outside 0..{n - 1}: {k_set}")
    if problems:
        return problems
    survivors = [i for i in range(n) if i not in set(k_set)]
    points = np.asarray(payload["embedding"]["points"], dtype=float)
    if points.shape[0] != len(survivors):
        return [f"embedding has {points.shape[0]} rows for {len(survivors)} survivors"]
    if len(survivors) >= 2:
        src = dist[np.ix_(survivors, survivors)]
        img = lp_distances(points, 2.0)
        iu = upper_pairs(len(survivors))
        ratio = img[iu] / src[iu]
        if ratio.min() < 1.0 - rel:
            problems.append(f"a survivor pair contracts: min ratio {ratio.min():.12g}")
        if ratio.max() > gamma_c * (1.0 + rel):
            problems.append(f"a survivor pair expands past gamma*c={gamma_c:g}: "
                            f"max ratio {ratio.max():.12g}")
        measured = ratio.max() / ratio.min()
    else:
        measured = 1.0
    reported = payload.get("achieved_distortion")
    if not isinstance(reported, float) or abs(reported - measured) > 1e-9 * measured:
        problems.append(f"achieved_distortion {reported!r} != measured {measured!r}")
    bound = payload.get("certified_bound")
    if not isinstance(bound, float) or len(k_set) > bound:
        problems.append(f"|K|={len(k_set)} exceeds certified_bound {bound!r}")
    return problems


# -- oracle-exact ------------------------------------------------------------------


def distortion_of(points: np.ndarray, dist: np.ndarray) -> float:
    """max/min of image over source distance, over unordered pairs."""
    img = lp_distances(points, 2.0)
    iu = upper_pairs(dist.shape[0])
    ratio = img[iu] / dist[iu]
    return float(ratio.max() / ratio.min())


def cycle_embedding(n: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([np.cos(ang), np.sin(ang)])


def cube_embedding(d: int) -> np.ndarray:
    return np.array([[(v >> b) & 1 for b in range(d)] for v in range(2 ** d)], dtype=float)


def star_embedding(m: int) -> np.ndarray:
    """Center 0 at the centroid of a regular simplex on the m leaves."""
    leaves = np.eye(m)
    return np.vstack([leaves.mean(axis=0), leaves])


def check_distortion_value(value: float, upper: float, lower: float, tol: float) -> list[str]:
    """An optimal-distortion answer must sit between a proven lower bound and
    the distortion of an explicit embedding, each up to the oracle's tol."""
    problems = []
    if not isinstance(value, float) or not math.isfinite(value):
        return [f"value {value!r} is not a finite float"]
    if value > upper + tol:
        problems.append(f"value {value:.6f} exceeds the explicit embedding's {upper:.6f} + tol")
    if value < lower - tol:
        problems.append(f"value {value:.6f} is below the proven lower bound {lower:.6f} - tol")
    return problems


def min_vertex_cover_size(n: int, edges: list[tuple[int, int]]) -> int:
    for size in range(n + 1):
        for cand in combinations(range(n), size):
            cset = set(cand)
            if all(u in cset or v in cset for u, v in edges):
                return size
    raise AssertionError("unreachable")


def schoenberg_ok(dist: np.ndarray, tol: float = 1e-9) -> bool:
    """A metric embeds isometrically in l2 iff -1/2 J D^2 J is PSD."""
    n = dist.shape[0]
    if n <= 2:
        return True
    j = np.eye(n) - 1.0 / n
    b = -0.5 * j @ (dist ** 2) @ j
    vals = np.linalg.eigvalsh((b + b.T) / 2.0)
    return bool(vals[0] >= -tol * max(vals[-1], 1.0))


def check_gadget_answer(dist: np.ndarray, size: int, witness: tuple, vc_size: int) -> list[str]:
    """The minimum isometric outlier set of an lp gadget has the size of a
    minimum vertex cover of its source, and removing it leaves an l2 metric."""
    problems = []
    n = dist.shape[0]
    if size != vc_size:
        problems.append(f"outlier set size {size} != minimum vertex cover {vc_size}")
    wit = list(witness)
    if len(wit) != size or len(set(wit)) != len(wit) or any(not 0 <= v < n for v in wit):
        problems.append(f"witness {wit} is not {size} distinct indices in range")
        return problems
    kept = [i for i in range(n) if i not in set(wit)]
    if not schoenberg_ok(dist[np.ix_(kept, kept)]):
        problems.append("the witness's complement fails the Schoenberg test")
    return problems


# -- compose-nested ----------------------------------------------------------------


def check_metric_copy(dist: np.ndarray, expected: np.ndarray) -> list[str]:
    if dist.shape != expected.shape or not np.array_equal(dist, expected):
        return ["the validated metric differs from the generated matrix"]
    return []


def check_expanding(points: np.ndarray, p: float, dist: np.ndarray,
                    reported_distortion: float) -> list[str]:
    """A Bourgain output never contracts and reports its measured distortion."""
    img = lp_distances(points, p)
    iu = upper_pairs(dist.shape[0])
    ratio = img[iu] / dist[iu]
    problems = []
    if ratio.min() < 1.0 - 1e-9:
        problems.append(f"embedding contracts: min ratio {ratio.min():.12g}")
    measured = ratio.max() / ratio.min()
    if abs(reported_distortion - measured) > 1e-9 * measured:
        problems.append(f"reported distortion {reported_distortion!r} != measured {measured!r}")
    return problems


def max_ratio(points: np.ndarray, p: float, dist: np.ndarray) -> float:
    img = lp_distances(points, p)
    iu = upper_pairs(dist.shape[0])
    return max(float((img[iu] / dist[iu]).max()), 1.0)


def check_inputs(c_s: float, c_x: float, anchors: dict, want_c_s: float, want_c_x: float,
                 want_anchors: dict) -> list[str]:
    problems = []
    if abs(c_s - want_c_s) > 1e-9 * want_c_s:
        problems.append(f"c_S {c_s!r} != measured {want_c_s!r}")
    if abs(c_x - want_c_x) > 1e-9 * want_c_x:
        problems.append(f"c_X {c_x!r} != measured {want_c_x!r}")
    if dict(anchors) != want_anchors:
        problems.append("nearest anchors differ from the recomputed ones")
    return problems


def check_transcript(dist: np.ndarray, s: list[int], anchors: dict, b: float,
                     pi: tuple, clusters: tuple, tau: float = 2.0) -> list[str]:
    """A valid greedy clustering of X minus S.

    b lies in [2, 2 + tau]; pi is a permutation of X minus S; the i-th center
    is pi[i]; cluster i holds exactly the still-unassigned outliers v with
    d(v, center) <= b * d(v, gamma(v)); the clusters partition X minus S and
    the loop stops at the first moment everything is assigned.
    """
    outliers = sorted(anchors)
    if not 2.0 <= b <= 2.0 + tau:
        return [f"threshold b={b!r} outside [2, {2.0 + tau}]"]
    if sorted(pi) != outliers:
        return ["pi is not a permutation of X minus S"]
    remaining = set(outliers)
    for i, (center, members) in enumerate(clusters):
        if center != pi[i]:
            return [f"cluster {i} has center {center}, pi order gives {pi[i]}"]
        grab = {v for v in remaining
                if dist[v, center] <= b * dist[v, anchors[v]] + 1e-12 * max(dist[v, anchors[v]], 1.0)}
        must = {v for v in remaining if dist[v, center] <= b * dist[v, anchors[v]] * (1 - 1e-12)}
        got = set(members)
        if not got <= grab:
            return [f"cluster {i} holds outliers outside the grab rule: {sorted(got - grab)}"]
        if not must <= got:
            return [f"cluster {i} misses outliers the grab rule assigns: {sorted(must - got)}"]
        remaining -= got
        if not remaining and i != len(clusters) - 1:
            return ["clusters continue after every outlier is assigned"]
    if remaining:
        return [f"clusters do not cover X minus S: {sorted(remaining)} left"]
    return []


def check_s_pairs(img: np.ndarray, s: list[int], alpha_s_dist: np.ndarray) -> list[str]:
    sub = img[np.ix_(s, s)]
    iu = upper_pairs(len(s))
    err = np.abs(sub[iu] - alpha_s_dist[iu]) / alpha_s_dist[iu]
    if err.max(initial=0.0) > 1e-9:
        return [f"an S pair moved from its alpha_S distance (relative {err.max():.3g})"]
    return []


def check_floor(img: np.ndarray, dist: np.ndarray, p: float) -> list[str]:
    """No pair falls below 3^(1/p - 1) d; for p = 1 that is no contraction."""
    floor = 3.0 ** (1.0 / p - 1.0)
    iu = upper_pairs(dist.shape[0])
    ratio = img[iu] / dist[iu]
    if ratio.min() < floor * (1.0 - 1e-9):
        return [f"a pair contracts below {floor:.6g} d: min ratio {ratio.min():.12g}"]
    return []


def pair_cases(dist: np.ndarray, s: list[int], anchors: dict, clusters: tuple) -> np.ndarray:
    """Case letter a..e of every pair for one draw, as an n x n array."""
    n = dist.shape[0]
    in_s = np.zeros(n, dtype=bool)
    in_s[s] = True
    owner = np.full(n, -1)
    for i, (_, members) in enumerate(clusters):
        owner[list(members)] = i
    gap = np.zeros(n)
    for u, g in anchors.items():
        gap[u] = dist[u, g]
    cases = np.full((n, n), "e", dtype="<U1")
    near = np.minimum(gap[:, None], gap[None, :]) <= KAPPA * dist
    cases[near] = "d"
    same = (owner[:, None] == owner[None, :]) & (owner[:, None] >= 0)
    cases[same] = "b"
    one_s = in_s[:, None] ^ in_s[None, :]
    cases[one_s] = "c"
    cases[in_s[:, None] & in_s[None, :]] = "a"
    return cases


def check_case_bounds(img: np.ndarray, dist: np.ndarray, cases: np.ndarray,
                      c_s: float, c_x: float) -> list[str]:
    """Per draw, cases (a)-(d) expand by at most A c_S + B c_X."""
    iu = upper_pairs(dist.shape[0])
    ratio = img[iu] / dist[iu]
    case = cases[iu]
    problems = []
    for letter, (a, b) in CASE_CONSTANTS.items():
        sel = case == letter
        if sel.any() and ratio[sel].max() > (a * c_s + b * c_x) * (1.0 + 1e-9):
            problems.append(f"case ({letter}) expands by {ratio[sel].max():.6g} > "
                            f"{a:g} c_S + {b:g} c_X = {a * c_s + b * c_x:.6g}")
    return problems


def case_e_bound(k: int, c_s: float, c_x: float) -> float:
    """tau = kappa = 2 case-(e) multiplier: (155/2) H_k c_S + ((225/2) H_k + 1) c_X."""
    h = harmonic(k)
    return 77.5 * h * c_s + (112.5 * h + 1.0) * c_x


def check_expected_expansion(mean: float, stderr: float, d: float, k: int,
                             c_s: float, c_x: float, p: float) -> list[str]:
    problems = []
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr >= 0.0):
        return [f"mean {mean!r} / stderr {stderr!r} not finite and nonnegative"]
    limit = case_e_bound(k, c_s, c_x) * d + 3.0 * stderr
    if mean > limit:
        problems.append(f"Monte Carlo mean {mean:.6g} above the case-(e) bound {limit:.6g}")
    floor = 3.0 ** (1.0 / p - 1.0) * d
    if mean < floor * (1.0 - 1e-9):
        problems.append(f"Monte Carlo mean {mean:.6g} below the per-draw floor {floor:.6g}")
    return problems
