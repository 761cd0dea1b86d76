"""The outlier SDP: build, solve, round, and the k-search loop.

Variables are a Gram matrix G (PSD) and outlier weights delta in [0,1]^n;
for every pair (x,y) with squared distance d2:

    (1 - dx - dy) * d2  <=  G_xx + G_yy - 2 G_xy  <=  (c^2 + (dx + dy) * f) * d2

minimizing sum(delta). The solver is a first-order splitting: damped
simultaneous corrections for the linear pair constraints, exact projection of
delta onto the box intersected with an objective level set, and projection of
G onto the PSD cone by eigendecomposition with negative eigenvalues clamped.
One minimization step serves solve_sdp and the k-search: an LP fast path over
known Gram matrices (for a fixed G the best delta is a small LP), else one
probe at the starting level sum(delta) <= s; a feasible result then descends
by halving the level. Every accepted delta is polished by that LP, which
snaps unnecessary weights to exact zero.

Plain feasibility at distortion c (no outlier weights) has its own
primal-dual run whose verdicts come with checked witnesses: a Gram matrix of
distortion <= c, or a Linial-London-Rabinovich certificate above c.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .bourgain import BourgainParams, bourgain_embed
from .errors import Exhausted, GammaNotAboveOne, MissingZetaK
from .lp_geometry import PointSet, centered_gram, points_from_gram
from .metric_core import MetricSpace, distortion_stats, restrict
from .nested_composition import harmonic_number


# ---------------------------------------------------------------------------
# f(k) and the bicriteria bound
# ---------------------------------------------------------------------------

def weak_g(k: int) -> float:
    """Explicit envelope of the close-pair expected-expansion multiplier:
    g(k) = 190 * H_k + 1 (the c_S and c_X coefficients summed, plus one)."""
    return float(190 * harmonic_number(k) + 1)


def f_of_k(k: int, zeta: float, g_mode: str = "weak_factor",
           zeta_k: Optional[float] = None) -> float:
    """Pair-constraint relaxation coefficient f(k).

    weak_factor: (g(k) * zeta)^2 with zeta the outlier-free distortion.
    strong_subset: (382 * H_{k+1} * zeta_k)^2 with zeta_k the worst subset
    distortion at size k+1.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if zeta < 1.0 and g_mode == "weak_factor":
        raise ValueError(f"zeta must be >= 1, got {zeta}")
    if g_mode == "weak_factor":
        return (weak_g(k) * zeta) ** 2
    if g_mode == "strong_subset":
        if zeta_k is None:
            raise MissingZetaK("strong_subset mode requires zeta_k")
        return (382.0 * float(harmonic_number(k + 1)) * zeta_k) ** 2
    raise ValueError(f"unknown g_mode {g_mode!r}")


def bicriteria_bound(k: int, c: float, gamma: float, g_value: float, zeta: float) -> float:
    """Cap on the rounded outlier set size: 2 (g^2 zeta^2 / c^2 + gamma^2)
    / (gamma^2 - 1) * k."""
    _check_gamma(gamma)
    return 2.0 * ((g_value * zeta) ** 2 / c ** 2 + gamma ** 2) / (gamma ** 2 - 1.0) * k


def _check_gamma(gamma: float) -> None:
    if not gamma > 1.0:
        raise GammaNotAboveOne(f"gamma must be strictly above 1, got {gamma}")


def _check_c(c: float) -> None:
    if c < 1.0:
        raise ValueError(f"target distortion must be >= 1, got {c}")


# ---------------------------------------------------------------------------
# instances and solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdpInstance:
    m: MetricSpace
    c: float
    f_k: float

    def __post_init__(self):
        _check_c(self.c)
        if self.f_k < 0.0:
            raise ValueError(f"f_k must be >= 0, got {self.f_k}")

    @property
    def num_pairs(self) -> int:
        return self.m.n * (self.m.n - 1) // 2

    @property
    def num_inequalities(self) -> int:
        return 2 * self.num_pairs


@dataclass(frozen=True)
class SolveOpts:
    eps_feas: float = 1e-6   # relative to d^2 per pair constraint
    eps_obj: float = 1e-3
    max_iters: int = 50_000  # one probe runs at most max(2000, max_iters // 12)
    seed: int = 0


@dataclass(frozen=True)
class SdpSolution:
    instance: SdpInstance
    gram: np.ndarray
    delta: np.ndarray
    objective: float
    max_violation: float
    iterations: int
    feasible: bool


@dataclass(frozen=True)
class OutlierResult:
    outliers: tuple[int, ...]
    embedding: PointSet
    gamma: float
    achieved_distortion: float
    certified_bound: float
    metadata: dict = field(compare=False)


# ---------------------------------------------------------------------------
# feasibility core
# ---------------------------------------------------------------------------

class _Work:
    """Precomputed index arrays for one instance."""

    def __init__(self, inst: SdpInstance):
        n = inst.m.n
        self.n = n
        xs, ys = np.triu_indices(n, k=1)
        self.xs, self.ys = xs, ys
        self.d2 = inst.m.dist[xs, ys] ** 2
        self.c2 = inst.c ** 2
        self.f = inst.f_k
        self.low_norm2 = 4.0 + 2.0 * self.d2 ** 2
        self.up_norm2 = 4.0 + 2.0 * (self.f * self.d2) ** 2
        self.deg = max(n - 1, 1)
        self.ends = np.concatenate((xs, ys))

    def scatter(self, w: np.ndarray) -> np.ndarray:
        """Per-point sum of the pair values w over both ends of each pair."""
        return np.bincount(self.ends, np.concatenate((w, w)), self.n)

    def laplacian(self, w: np.ndarray) -> np.ndarray:
        """sum over pairs of w (e_x - e_y)(e_x - e_y)^T."""
        lap = np.diag(self.scatter(w))
        lap[self.xs, self.ys] = lap[self.ys, self.xs] = -w
        return lap

    def pair_r(self, g: np.ndarray) -> np.ndarray:
        diag = np.diag(g)
        return diag[self.xs] + diag[self.ys] - 2.0 * g[self.xs, self.ys]

    def violations(self, g: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = self.pair_r(g)
        sdel = delta[self.xs] + delta[self.ys]
        low_gap = (1.0 - sdel) * self.d2 - r
        up_gap = r - (self.c2 + sdel * self.f) * self.d2
        return low_gap, up_gap

    def residual(self, g: np.ndarray, delta: np.ndarray) -> float:
        return self.gap_residual(*self.violations(g, delta))

    def gap_residual(self, low_gap: np.ndarray, up_gap: np.ndarray) -> float:
        rel = np.maximum(low_gap, up_gap) / self.d2
        return float(max(rel.max(initial=0.0), 0.0))


def _project_level_box(delta: np.ndarray, level: float) -> np.ndarray:
    """Exact projection onto {0 <= delta <= 1, sum(delta) <= level}.

    The projection is clip(delta - t, 0, 1) for the least t >= 0 meeting the
    level (Wang & Lu 2015, capped simplex). The clipped sum is piecewise
    linear in t with breakpoints delta and delta - 1, so t is interpolated
    between the two breakpoints that bracket the level.
    """
    b = np.sort(np.concatenate((delta, delta - 1.0)))
    b = np.concatenate(([0.0], b[b > 0.0]))
    s = np.clip(delta - b[:, None], 0.0, 1.0).sum(axis=1)  # nonincreasing in t
    if s[0] <= level:
        return np.clip(delta, 0.0, 1.0)
    j = int(np.argmax(s <= level))  # the last breakpoint, max(delta), has s = 0
    t = b[j] - (level - s[j]) * (b[j] - b[j - 1]) / (s[j - 1] - s[j])
    return np.clip(delta - t, 0.0, 1.0)


def _psd_project(g: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh((g + g.T) / 2.0)
    vals = np.clip(vals, 0.0, None)
    out = (vecs * vals) @ vecs.T
    return (out + out.T) / 2.0


_OMEGA = 1.6  # over-relaxation of the pair corrections


def _probe(work: _Work, level: float, g0: np.ndarray, delta0: np.ndarray,
           opts: SolveOpts) -> tuple[np.ndarray, np.ndarray, float, int]:
    """Run the splitting iteration at a fixed objective level, for at most
    max(2000, opts.max_iters // 12) iterations.

    Returns (G, delta, residual) of the best iterate seen and the iterations run.
    """
    n = work.n
    g = _psd_project(g0.copy())
    delta = _project_level_box(delta0, level)
    gaps = work.violations(g, delta)
    best = (g.copy(), delta.copy(), work.gap_residual(*gaps), 0)
    if best[2] <= opts.eps_feas:
        return best
    stall = 0
    milestone = best[2]
    for it in range(1, max(2000, opts.max_iters // 12) + 1):
        low_gap, up_gap = gaps
        wl = np.clip(low_gap, 0.0, None) / work.low_norm2
        wu = np.clip(up_gap, 0.0, None) / work.up_norm2
        net = wl - wu
        # G corrections: +w on both diagonal entries, -w on the off-diagonal pair
        g[work.xs, work.ys] -= _OMEGA * net
        g[work.ys, work.xs] -= _OMEGA * net
        g[np.diag_indices(n)] += _OMEGA * work.scatter(net) / work.deg
        dd = wl * work.d2 + wu * work.f * work.d2
        delta = _project_level_box(delta + _OMEGA * work.scatter(dd) / work.deg, level)
        g = _psd_project(g)
        gaps = work.violations(g, delta)
        res = work.gap_residual(*gaps)
        if res < best[2]:
            best = (g.copy(), delta.copy(), res, it)
            if res <= opts.eps_feas:
                return best
        # progress gate: require a 5% residual drop every 400 iterations, else
        # call the level infeasible (a conservative objective, never a wrong one)
        if res < milestone * 0.95:
            milestone = res
            stall = 0
        else:
            stall += 1
        if stall > 400 and best[2] > 5 * opts.eps_feas:
            break
    return best[0], best[1], best[2], it


def _lp_polish(work: _Work, g: np.ndarray, opts: SolveOpts) -> Optional[np.ndarray]:
    """Minimal-weight delta for a fixed Gram matrix: a tiny LP over the pair
    constraints delta_x + delta_y >= needed relaxation."""
    r = work.pair_r(g)
    need_low = 1.0 - r / work.d2
    if work.f > 0:
        need_up = (r / work.d2 - work.c2) / work.f
    else:
        need_up = np.where(r / work.d2 - work.c2 > opts.eps_feas, np.inf, -np.inf)
    need = np.maximum(np.maximum(need_low, need_up), 0.0)
    if np.isinf(need).any():
        return None
    mask = need > 0
    n = work.n
    if not mask.any():
        return np.zeros(n)
    rows = np.flatnonzero(mask)
    a_ub = np.zeros((len(rows), n))
    a_ub[np.arange(len(rows)), work.xs[rows]] = -1.0
    a_ub[np.arange(len(rows)), work.ys[rows]] = -1.0
    b_ub = -need[rows]
    res = linprog(c=np.ones(n), A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * n,
                  method="highs")
    if not res.success:
        return None
    out = np.clip(res.x, 0.0, 1.0)
    out[out == 0.0] = 0.0  # normalize any -0.0 from the LP
    return out


def _solution_from(inst: SdpInstance, work: _Work, g: np.ndarray, delta: np.ndarray,
                   iters: int, opts: SolveOpts) -> SdpSolution:
    """Package (G, delta) with its residual."""
    res = work.residual(g, delta)
    return SdpSolution(
        instance=inst,
        gram=g,
        delta=delta,
        objective=float(delta.sum()),
        max_violation=res,
        iterations=iters,
        feasible=bool(res <= opts.eps_feas),
    )


def _initial_gram(m: MetricSpace) -> np.ndarray:
    """PSD-clamped centered Gram, rescaled so no pair contracts.

    Starting expanding means initial violations sit on the upper constraints,
    which the delta weights can absorb; that keeps the iteration out of the
    contracted basin where lower constraints must be bought back.
    """
    b = _psd_project(centered_gram(m))
    n = m.n
    if n < 2:
        return b
    xs, ys = np.triu_indices(n, k=1)
    diag = np.diag(b)
    r = diag[xs] + diag[ys] - 2.0 * b[xs, ys]
    ratio = r / (m.dist[xs, ys] ** 2)
    rmin = float(ratio.min())
    if rmin <= 1e-6:
        return b  # clamping collapsed a pair; scaling cannot fix that
    if rmin < 1.0:
        b = b / rmin
    return b


def _polished_sum(work: _Work, g: np.ndarray, delta: np.ndarray, opts: SolveOpts
                  ) -> tuple[np.ndarray, float]:
    """delta minimized by LP for this G when that stays feasible."""
    polished = _lp_polish(work, g, opts)
    if polished is not None and work.residual(g, polished) <= opts.eps_feas \
            and polished.sum() <= delta.sum() + 1e-12:
        return polished, float(polished.sum())
    return delta, float(delta.sum())


def _minimize(inst: SdpInstance, level: float, grams: Sequence[np.ndarray],
              start: np.ndarray, opts: SolveOpts) -> SdpSolution:
    """Minimize sum(delta) at or below `level`.

    LP fast path: the cheapest delta any Gram matrix in `grams` admits within
    the level. Otherwise one probe at the level from `start`. A feasible
    result descends by halving the level until a probe fails or the polished
    sum falls by less than 10%. Flagged infeasible if neither step meets the
    level.
    """
    work = _Work(inst)
    n = work.n
    iters = 0
    g, delta = None, None
    for cand in grams:
        quick = _lp_polish(work, cand, opts)
        if quick is None or quick.sum() > level:
            continue
        if work.residual(cand, quick) <= opts.eps_feas \
                and quick.sum() < (delta.sum() if delta is not None else np.inf):
            g, delta = cand.copy(), quick
    if g is None:
        g, delta, res, iters = _probe(work, level, start, np.full(n, min(1.0, level / n)), opts)
        if res > opts.eps_feas:
            return _solution_from(inst, work, g, delta, iters, opts)
        delta, _ = _polished_sum(work, g, delta, opts)
    level = float(delta.sum())
    while level > opts.eps_obj / 4.0:
        g2, d2, res2, it2 = _probe(work, level / 2.0, g, delta, opts)
        iters += it2
        if res2 > opts.eps_feas:
            break
        d2, new_level = _polished_sum(work, g2, d2, opts)
        g, delta = g2, d2
        if new_level > 0.9 * level:
            break
        level = new_level
    return _solution_from(inst, work, g, delta, iters, opts)


def solve_sdp(inst: SdpInstance, opts: SolveOpts = SolveOpts()) -> SdpSolution:
    """Minimize sum(delta) subject to the pair, box, and PSD constraints.

    Runs the k-search's minimization step from level n and the rescaled
    centered Gram. Should that come back infeasible, returns the level-n
    certificate instead: G = 0 with its LP-polished delta, always feasible.
    """
    n = inst.m.n
    g0 = _initial_gram(inst.m)
    sol = _minimize(inst, float(n), [g0], g0, opts)
    if sol.feasible:
        return sol
    work = _Work(inst)
    g = np.zeros((n, n))
    delta, _ = _polished_sum(work, g, np.ones(n), opts)
    return _solution_from(inst, work, g, delta, sol.iterations, opts)


def _llr_bound(work: _Work, w: np.ndarray) -> float:
    """Lower bound on the l2 distortion from pair weights w (Linial, London &
    Rabinovich 1995).

    w is shifted by mu/n, which adds mu (I - 11^T/n) to its Laplacian, with mu
    chosen so the shifted Laplacian L is PSD with smallest eigenvalue 0 on 1-perp.
    Any Gram matrix G then has sum w r(G) = <L, G> >= 0, so an embedding with
    d^2 <= r <= c^2 d^2 needs c^2 >= sum_{w<0} |w| d^2 / sum_{w>0} w d^2.
    """
    lap = work.laplacian(w)
    # a lift of alpha >= any eigenvalue on 1-perp moves the eigenvalue 0 of 1 out of the way
    alpha = abs(float(np.trace(lap))) + 1.0
    lam_min = np.linalg.eigh(lap + alpha / work.n)[0][0]
    w = w - lam_min / work.n
    pos = float(w[w > 0.0] @ work.d2[w > 0.0])
    neg = float(-w[w < 0.0] @ work.d2[w < 0.0])
    return math.sqrt(neg / pos) if pos > 0.0 else 1.0


def distortion_feasible(m: MetricSpace, c: float, opts: SolveOpts = SolveOpts()
                        ) -> tuple[str, Optional[np.ndarray], Optional[float]]:
    """Plain outlier-free feasibility: does a Gram matrix with distortion <= c
    exist? Returns (verdict, gram, bound), each verdict checked by a witness:

    - "feasible": gram, rescaled so no pair contracts, has distortion bound <= c;
    - "infeasible": an LLR certificate proves the optimal l2 distortion is at
      least bound > c (gram is None);
    - "undecided": neither turned up within max(2000, opts.max_iters // 12)
      iterations (gram and bound are None).

    The run is the linearized primal-dual iteration of Chambolle & Pock (2011)
    on {G PSD, d^2/2 <= r(G)/2 <= c^2 d^2/2}, r(G) = G_xx + G_yy - 2 G_xy,
    from the rescaled centered Gram. Every row of that map has unit norm, so
    its squared norm is n/2 and one step size 0.99/sqrt(n/2) serves primal
    and dual. The primal witness is checked every iteration; the dual one, the
    weights u/2 of the dual iterate u, every 50.
    """
    n = m.n
    if n < 2:
        return "feasible", np.zeros((n, n)), 1.0
    work = _Work(SdpInstance(m, c, 0.0))
    lo, hi = work.d2 / 2.0, work.c2 * work.d2 / 2.0
    step = 0.99 / math.sqrt(n / 2.0)
    g = _initial_gram(m)
    r = r_bar = work.pair_r(g)  # r(G), and r of the extrapolated 2 G_next - G
    u = np.zeros_like(r)
    for it in range(max(2000, opts.max_iters // 12) + 1):
        if it > 0:
            v = u + step * r_bar / 2.0
            u = v - step * np.clip(v / step, lo, hi)
            g = _psd_project(g - step * work.laplacian(u / 2.0))
            r_next = work.pair_r(g)
            r, r_bar = r_next, 2.0 * r_next - r
        ratio = r / work.d2
        rmin = ratio.min()
        dist = math.sqrt(ratio.max() / rmin) if rmin > 0.0 else math.inf
        if dist <= c:
            return "feasible", g / rmin, dist
        if it > 0 and it % 50 == 0:
            bound = _llr_bound(work, u / 2.0)
            if bound > c:
                return "infeasible", None, bound
    return "undecided", None, None


# ---------------------------------------------------------------------------
# rounding and the k-search loop
# ---------------------------------------------------------------------------

def _survivor_embedding(m: MetricSpace, gram: np.ndarray, outliers: Sequence[int],
                        scale: float) -> tuple[PointSet, float]:
    """Survivor vectors factored from their Gram rows, scaled, and the
    distortion they achieve on the metric minus the outliers."""
    out = set(outliers)
    survivors = [i for i in range(m.n) if i not in out]
    pts = points_from_gram(gram[np.ix_(survivors, survivors)], tol_eig=1e-7)
    embedding = PointSet(points=pts.points * scale, p=2.0)
    if len(survivors) < 2:
        return embedding, 1.0
    sub_metric, _ = restrict(m, out)
    return embedding, float(distortion_stats(sub_metric, embedding).distortion)


def round_solution(sol: SdpSolution, c: float, gamma: float, f_k: float,
                   k: Optional[int] = None) -> OutlierResult:
    """Threshold the outlier weights at Delta = c^2 (gamma^2 - 1) /
    (2 f_k + 2 c^2 gamma^2), extract survivor vectors from the Gram matrix,
    and rescale by 1/sqrt(1 - 2 Delta)."""
    _check_gamma(gamma)
    m = sol.instance.m
    delta_cut = c ** 2 * (gamma ** 2 - 1.0) / (2.0 * f_k + 2.0 * c ** 2 * gamma ** 2)
    outliers = tuple(int(i) for i in np.flatnonzero(sol.delta >= delta_cut))
    scale = 1.0 / math.sqrt(1.0 - 2.0 * delta_cut)
    embedding, achieved = _survivor_embedding(m, sol.gram, outliers, scale)
    if k is not None:
        certified = (2.0 * f_k / c ** 2 + 2.0 * gamma ** 2) / (gamma ** 2 - 1.0) * k
    else:
        certified = sol.objective / delta_cut
    return OutlierResult(
        outliers=outliers,
        embedding=embedding,
        gamma=gamma,
        achieved_distortion=achieved,
        certified_bound=float(certified),
        metadata={
            "delta_cut": delta_cut,
            "k": k,
            "f_k": f_k,
            "c": c,
            "objective": sol.objective,
            "max_violation": sol.max_violation,
            "iterations": sol.iterations,
            "feasible": sol.feasible,
            "delta": [float(v) for v in sol.delta],
        },
    )


def _reclaim_outliers(sol: SdpSolution, result: OutlierResult, c: float,
                      gamma: float) -> OutlierResult:
    """Return thresholded points to the survivor set when their Gram rows
    already satisfy the survivor sandwich against everything kept.

    The thresholded set can carry solver dust just above the (tiny) cutoff;
    re-adding is checked pair by pair against d <= scaled distance <=
    gamma * c * d, so the result's guarantees are verified rather than
    inherited. Outliers are retried in increasing weight order.
    """
    if not result.outliers:
        return result
    m = sol.instance.m
    delta_cut = result.metadata["delta_cut"]
    scale = 1.0 / math.sqrt(1.0 - 2.0 * delta_cut)
    diag = np.diag(sol.gram)
    r = diag[:, None] + diag[None, :] - 2.0 * sol.gram
    dist = scale * np.sqrt(np.clip(r, 0.0, None))
    tol = 1e-6
    kept = [i for i in range(m.n) if i not in set(result.outliers)]
    still_out = []
    for x in sorted(result.outliers, key=lambda i: (sol.delta[i], i)):
        ok = all(
            m.dist[x, y] * (1.0 - tol) <= dist[x, y] <= gamma * c * m.dist[x, y] * (1.0 + tol)
            for y in kept)
        if ok:
            kept.append(x)
        else:
            still_out.append(x)
    if len(still_out) == len(result.outliers):
        return result
    embedding, achieved = _survivor_embedding(m, sol.gram, still_out, scale)
    metadata = dict(result.metadata)
    metadata["reclaimed"] = len(result.outliers) - len(still_out)
    return OutlierResult(
        outliers=tuple(sorted(still_out)),
        embedding=embedding,
        gamma=result.gamma,
        achieved_distortion=achieved,
        certified_bound=result.certified_bound,
        metadata=metadata,
    )


def search_min_outliers(m: MetricSpace, c: float, gamma: float,
                        mode: str = "weak_factor",
                        opts: SolveOpts = SolveOpts(),
                        zeta: Optional[float] = None,
                        zeta_k: Optional[float] = None) -> OutlierResult:
    """Try k = 0, 1, 2, ... until the SDP with f(k) admits value <= k; round.

    Each k runs the shared minimization step at level k + eps_obj/2, so k = 0
    solves the f(0) SDP and isometric-enough inputs exit with an empty outlier
    set. Its LP fast path tries the rescaled centered Gram, the Gram of one
    plain feasibility run at distortion gamma*c (when that succeeds) and the
    previous k's Gram; the probe starts from the previous k's. zeta defaults
    to the measured distortion of a seeded Bourgain run (recorded in the
    metadata); in strong_subset mode zeta_k defaults to that same value.
    """
    _check_gamma(gamma)
    _check_c(c)
    zeta_source = "supplied"
    if zeta is None:
        if m.n >= 2:
            _, stats = bourgain_embed(m, BourgainParams(seed=opts.seed, p=2.0))
            zeta = max(stats.distortion, 1.0)
        else:
            zeta = 1.0
        zeta_source = f"bourgain(seed={opts.seed})"
    if mode == "strong_subset" and zeta_k is None:
        zeta_k = zeta
    g0 = _initial_gram(m)
    # a Gram feasible at the target distortion gamma*c concentrates the weight
    # needs on genuinely bad points; well worth one extra feasibility run
    verdict, g_target, _ = distortion_feasible(m, gamma * c, opts)
    candidates = [g0] + ([g_target] if verdict == "feasible" else [])
    g_warm = g0
    for k in range(0, m.n + 1):
        f_k = f_of_k(k, zeta, mode, zeta_k=zeta_k)
        inst = SdpInstance(m, c, f_k)
        # at k = 0 the warm start is g0 itself, already a candidate
        grams = candidates if g_warm is g0 else candidates + [g_warm]
        sol = _minimize(inst, k + opts.eps_obj / 2.0, grams, g_warm, opts)
        if sol.objective <= k + opts.eps_obj and sol.feasible:
            result = round_solution(sol, c, gamma, f_k, k=k)
            result.metadata.update({
                "mode": mode,
                "g_value": weak_g(k) if mode == "weak_factor"
                           else 382.0 * float(harmonic_number(k + 1)),
                "zeta": zeta,
                "zeta_k": zeta_k,
                "zeta_source": zeta_source,
                "seed": opts.seed,
            })
            return _reclaim_outliers(sol, result, c, gamma)
        g_warm = sol.gram
    raise Exhausted("no k <= n admitted an SDP value <= k; this should be unreachable")
