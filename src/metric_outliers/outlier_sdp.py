"""The outlier SDP: the k-search for a checked (G, delta), and its rounding.

Variables are a Gram matrix G (PSD) and outlier weights delta in [0,1]^n;
for every pair (x,y) with squared distance d2:

    (1 - dx - dy) * d2  <=  G_xx + G_yy - 2 G_xy  <=  (c^2 + (dx + dy) * f) * d2

minimizing sum(delta). Nothing here iterates on (G, delta): for a fixed G
the least delta is a fractional vertex cover, solved exactly as a max-weight
assignment, so the k-search tries a short list of witness Gram matrices,
polishes each by that cover and accepts the first whose delta meets the level
and passes the residual check. Every accepted point is feasible and checked;
its objective is an upper bound on the SDP value.

The witnesses come from plain feasibility at a distortion c (no outlier
weights): a primal-dual run whose verdicts come with checked witnesses, a
Gram matrix of distortion <= c or a Linial-London-Rabinovich certificate
above c. A certificate can come at iteration 0, before any iteration runs,
from the bottom eigenvector of the centered Gram B = -1/2 J D^2 J; the
eigendecomposition of B that gives it also gives the run's starting Gram.
Neither depends on c, so each entry point builds one _PairTable for all its
runs, witnesses and measurements; c^2 and f(k) are plain arguments. A given
zeta's c0 scale is checked, like every parameter, before any feasibility run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import Exhausted, GammaNotAboveOne
from .lp_geometry import PointSet, _center, points_from_gram, schoenberg_rule, squared_distances
from .metric_core import MetricSpace, _submetric, distortion_stats
from .nested_composition import harmonic_number

EPS_FEAS = 1e-6   # largest accepted pair-constraint violation, relative to d^2
EPS = 5e-4        # slack on the level: k accepts sum(delta) <= k + EPS
FEAS_ITERS = 4166  # iterations of one feasibility run before it is undecided
LLR_EVERY = 10    # iterations between two LLR checks of a feasibility run's dual


# ---------------------------------------------------------------------------
# f(k) and the bicriteria bound
# ---------------------------------------------------------------------------

def weak_g(k: int) -> float:
    """Explicit envelope of the close-pair expected-expansion multiplier:
    g(k) = 190 * H_k + 1 (the c_S and c_X coefficients summed, plus one)."""
    return float(190 * harmonic_number(k) + 1)


def _g(k: int, g_mode: str) -> float:
    """g(k) of f(k) = (g(k) * zeta)^2: weak_g(k) in weak_factor mode, 382 * H_{k+1}
    in strong_subset mode."""
    if g_mode == "weak_factor":
        return weak_g(k)
    if g_mode == "strong_subset":
        return 382.0 * float(harmonic_number(k + 1))
    raise ValueError(f"unknown g_mode {g_mode!r}")


def f_of_k(k: int, zeta: float, g_mode: str = "weak_factor") -> float:
    """Pair-constraint relaxation coefficient f(k) = (g(k) * zeta)^2.

    zeta is the outlier-free distortion, finite and >= 1, so f(k) >= 1. In
    strong_subset mode it stands in for the paper's worst distortion of a
    (k+1)-point subset, which it bounds from above.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    g = _g(k, g_mode)
    _check_distortion("zeta", zeta)
    return _square("zeta", zeta, g * zeta)


def bicriteria_bound(k: int, c: float, gamma: float, g_value: float, zeta: float) -> float:
    """Cap on the rounded outlier set size of a solution whose delta sums to
    at most k: 2 (g^2 zeta^2 / c^2 + gamma^2) / (gamma^2 - 1) * k."""
    _check_gamma(gamma)
    return _cap(k, c, gamma, (g_value * zeta) ** 2)


def _cap(weight: float, c: float, gamma: float, f_k: float) -> float:
    """2 (f_k / c^2 + gamma^2) / (gamma^2 - 1) * weight, the cap with f(k) = f_k
    on outlier weights delta that sum to weight."""
    return 2.0 * (f_k / c ** 2 + gamma ** 2) / (gamma ** 2 - 1.0) * weight


def _check_gamma(gamma: float) -> None:
    if not 1.0 < gamma < math.inf:
        raise GammaNotAboveOne(f"gamma must be finite and strictly above 1, got {gamma}")
    _square("gamma", gamma, gamma)


def _check_distortion(name: str, value: float) -> None:
    if not 1.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 1, got {value}")
    _square(name, value, value)


def _square(name: str, value: float, x: float) -> float:
    """x * x, or a ValueError naming the parameter whose size makes it overflow."""
    if x * x == math.inf:
        raise ValueError(f"{name} is too large: a square overflows, got {value}")
    return x * x


def _check_scale(m: MetricSpace, name: str, value: float, c: float) -> None:
    """`value` (named `name`) is a distortion >= 1, and c^2 d^2 is finite on every pair."""
    _check_distortion(name, value)
    _square(name, value, c * float(m.dist.max(initial=0.0)))


def _c0(c: float, zeta: float, mode: str) -> float:
    """The distortion bound of every witness k = 0 can accept (search_min_outliers)."""
    return math.sqrt((c ** 2 + EPS * f_of_k(0, zeta, mode) + EPS_FEAS) / (1.0 - EPS - EPS_FEAS))


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdpSolution:
    """A checked (G, delta) of the SDP on m at distortion c with f(k) = f_k."""
    m: MetricSpace
    c: float
    f_k: float
    gram: np.ndarray
    delta: np.ndarray
    objective: float
    max_violation: float

    def __post_init__(self):
        _check_distortion("target distortion", self.c)
        if not 0.0 <= self.f_k < math.inf:
            raise ValueError(f"f_k must be finite and >= 0, got {self.f_k}")


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

@dataclass
class _Iterate:
    """A primal-dual pair (G, u) of the feasibility iteration."""
    g: np.ndarray
    u: np.ndarray


class _PairTable:
    """The pairs x < y of one metric, their squared distances d2 (an overflowing
    one is refused before any eigendecomposition) and the centered start of its
    feasibility runs: the Gram `start` and its iteration-0 bound `start_bound`.
    `isometric` is the metric's Schoenberg test, decided from the eigenvalues
    the start came from."""

    def __init__(self, m: MetricSpace):
        self.m, self.n = m, m.n
        self.xs, self.ys = np.triu_indices(m.n, k=1)
        d2 = squared_distances(m)
        self.d2 = d2[self.xs, self.ys]
        self.ends = np.concatenate((self.xs, self.ys))
        self.start, self.start_bound, self.isometric = _centered_start(self, d2)

    def cold(self) -> _Iterate:
        """The pair a cold feasibility run starts from: `start` with dual u = 0."""
        return _Iterate(self.start, np.zeros_like(self.d2))

    def laplacian(self, w: np.ndarray) -> np.ndarray:
        """sum over pairs of w (e_x - e_y)(e_x - e_y)^T."""
        lap = np.diag(np.bincount(self.ends, np.concatenate((w, w)), self.n))
        lap[self.xs, self.ys] = lap[self.ys, self.xs] = -w
        return lap

    def pair_r(self, g: np.ndarray) -> np.ndarray:
        diag = np.diag(g)
        return diag[self.xs] + diag[self.ys] - 2.0 * g[self.xs, self.ys]

    def residual(self, g: np.ndarray, delta: np.ndarray, c2: float, f: float) -> float:
        """Largest pair-constraint violation relative to d^2 (0 when none), c^2 = c2."""
        r = self.pair_r(g)
        sdel = delta[self.xs] + delta[self.ys]
        low_gap = (1.0 - sdel) * self.d2 - r
        up_gap = r - (c2 + sdel * f) * self.d2
        rel = np.maximum(low_gap, up_gap) / self.d2
        return float(max(rel.max(initial=0.0), 0.0))


def _clamp(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The PSD projection of g, with the eigenvalues and eigenvectors it came from."""
    vals, vecs = np.linalg.eigh((g + g.T) / 2.0)
    out = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
    return (out + out.T) / 2.0, vals, vecs


def _psd_project(g: np.ndarray) -> np.ndarray:
    return _clamp(g)[0]


def _lp_polish(table: _PairTable, g: np.ndarray, c2: float, f: float) -> Optional[np.ndarray]:
    """Minimal-weight delta for a fixed Gram matrix at c^2 = c2: the _min_cover
    of the pair needs, or None when no delta in [0, 1]^n meets them.

    need_xy = max(1 - r/d^2, (r/d^2 - c^2) / f, 0) is the least delta_x + delta_y
    that meets both constraints of the pair. A pair whose violation at
    delta = 0 is at most EPS_FEAS needs nothing: the residual check accepts it
    as it is.
    """
    ratio = table.pair_r(g) / table.d2
    need = np.maximum(np.maximum(1.0 - ratio, (ratio - c2) / f), 0.0)
    need[np.maximum(1.0 - ratio, ratio - c2) <= EPS_FEAS] = 0.0
    return _min_cover(table.n, table.xs, table.ys, need)


def _min_cover(n: int, xs: np.ndarray, ys: np.ndarray, need: np.ndarray
               ) -> Optional[np.ndarray]:
    """The least-sum delta in [0, 1]^n with delta_x + delta_y >= need on every
    pair (xs, ys), a fractional vertex cover; None when some need is above 2.

    Every such delta has delta_x >= l_x = max(0, max_y need_xy - 1). After the
    shift delta = l + d', lowering any d'_x above 1 - l_x to it uncovers no pair,
    so an optimum of the shifted LP without the upper bound meets it. That LP,
    with edge weights W = max(need - l_x - l_y, 0) and W_xx = 0, is half the
    dual of a max-weight assignment on W (Egervary): for any permutation s,
    2 sum(d') >= sum_i W[i, s(i)], and equality holds at d' = (u + v) / 2 for a
    dual (u, v) of an optimal s, u_i = W[i, s(i)] - v_s(i); u_x + v_x >= W_xx
    keeps d' >= 0. The dual taken is the one with the least v >= 0, found by
    max-plus sweeps; it is the same for every optimal assignment, so delta
    depends on the needs only, not on the solver's choice or the labels.
    """
    if not need.any():
        return np.zeros(n)
    if need.max() > 2.0:
        return None
    w = np.zeros((n, n))
    w[xs, ys] = w[ys, xs] = need
    low = np.maximum(w.max(axis=1) - 1.0, 0.0)
    w = np.maximum(w - low[:, None] - low[None, :], 0.0)
    # imported here: `import metric_outliers.cli` loads no scipy
    from scipy.optimize import linear_sum_assignment
    sigma = linear_sum_assignment(w, maximize=True)[1]
    matched = w[np.arange(n), sigma]
    gain = w - matched[:, None]  # gain[i, j]: moving row i from column sigma(i) to j
    v = np.zeros(n)
    for _ in range(n + 1):  # an optimal sigma leaves no positive cycle to climb
        nxt = np.maximum((v[sigma][:, None] + gain).max(axis=0), 0.0)
        if np.array_equal(nxt, v):
            break
        v = nxt
    return np.clip(low + (matched - v[sigma] + v) / 2.0, 0.0, 1.0)


def _distortion(ratio: np.ndarray) -> float:
    """Distortion sqrt(max / min) of the embedding with pair ratios r / d^2."""
    rmin = ratio.min()
    return math.sqrt(ratio.max() / rmin) if rmin > 0.0 else math.inf


def _centered_start(table: _PairTable, d2: np.ndarray) -> tuple[np.ndarray, Optional[float], bool]:
    """The PSD-clamped centered Gram of the n x n squared distances d2,
    rescaled so no pair contracts, the iteration-0 LLR bound of
    distortion_feasible and the Schoenberg test. The bound is that of the
    weights w_xy = -v_x v_y from the bottom eigenvector v of the centered
    Gram B the Gram is clamped from, when v^T B v < 0 (else None). All three
    come from one eigendecomposition of B, and none depends on c.

    The Gram seeds the feasibility core and is a candidate witness of its own.
    Starting expanding puts any violations on the upper constraints, which
    the delta weights can absorb.
    """
    if table.n < 2:
        return np.zeros((table.n, table.n)), None, True
    b, vals, vecs = _clamp(_center(d2))
    isometric = bool(schoenberg_rule(vals))
    rmin = float((table.pair_r(b) / table.d2).min(initial=1.0))
    # at rmin <= 1e-6 clamping collapsed a pair, which scaling cannot fix
    gram = b / rmin if 1e-6 < rmin < 1.0 else b
    if vals[0] >= 0.0:
        return gram, None, isometric
    bottom = vecs[:, 0]
    return gram, _llr_bound(table, -bottom[table.xs] * bottom[table.ys]), isometric


def upper_distortion(m: MetricSpace, grams: Sequence[np.ndarray] = ()) -> float:
    """The least measured l2 distortion of the embeddings in hand: `grams`, the
    rescaled centered Gram and the distance rows x -> d(x, .) (at most sqrt(n/2)).
    Nothing is drawn at random; relabeling moves the value only by rounding."""
    return _least_distortion(_PairTable(m), grams)


def _least_distortion(table: _PairTable, grams: Sequence[np.ndarray]) -> float:
    """The least distortion of `grams`, the table's start and the distance rows."""
    if table.n < 2:
        return 1.0
    # the Gram matrix of the distance rows, whose entries reach n d^2, from rows
    # scaled by a power of two to at most 1: exact, and the distortion is a ratio
    rows = np.ldexp(table.m.dist, -math.frexp(float(table.m.dist.max()))[1])
    rows = rows @ rows
    return min(_distortion(table.pair_r(g) / table.d2) for g in (*grams, table.start, rows))


def _first_witness(table: _PairTable, c: float, f_k: float, level: float,
                   grams: Sequence[np.ndarray]) -> Optional[SdpSolution]:
    """The first Gram matrix in `grams` whose LP-polished delta at distortion c
    and f(k) = f_k sums to at most `level` and meets every pair constraint
    within EPS_FEAS, with that delta; None when no Gram in the list does."""
    c2 = c ** 2
    for g in grams:
        delta = _lp_polish(table, g, c2, f_k)
        if delta is None or delta.sum() > level:
            continue
        res = table.residual(g, delta, c2, f_k)
        if res <= EPS_FEAS:
            return SdpSolution(m=table.m, c=c, f_k=f_k, gram=g, delta=delta,
                               objective=float(delta.sum()), max_violation=res)
    return None


def _llr_bound(table: _PairTable, w: np.ndarray) -> float:
    """Lower bound on the l2 distortion from pair weights w (Linial, London &
    Rabinovich 1995); 1.0 when w is all zero.

    w is shifted by mu/n, which adds mu (I - 11^T/n) to its Laplacian, with mu
    chosen so the shifted Laplacian L is PSD with smallest eigenvalue 0 on 1-perp.
    Any Gram matrix G then has sum w r(G) = <L, G> >= 0, so an embedding with
    d^2 <= r <= c^2 d^2 needs c^2 >= sum_{w<0} |w| d^2 / sum_{w>0} w d^2.
    The bound does not change when w is scaled by a positive factor, so w is
    first divided by max |w|: eigh's rounding error is relative to the largest
    eigenvalue of the matrix it factors, and a lift alpha >= 1 would let it
    swamp weights of order 1e-14.
    """
    scale = float(np.abs(w).max(initial=0.0))
    if scale == 0.0:
        return 1.0
    w = w / scale
    lap = table.laplacian(w)
    # lifting the eigenvalue 0 of 1 by any alpha leaves lam_min <= the smallest
    # eigenvalue on 1-perp, all soundness needs; alpha >= trace / (n - 1) >= that
    # eigenvalue makes lam_min equal to it
    alpha = abs(float(np.trace(lap))) + 1.0
    lam_min = np.linalg.eigvalsh(lap + alpha / table.n)[0]
    w = w - lam_min / table.n
    pos = float(w[w > 0.0] @ table.d2[w > 0.0])
    neg = float(-w[w < 0.0] @ table.d2[w < 0.0])
    return math.sqrt(neg / pos) if pos > 0.0 else 1.0


def distortion_feasible(m: MetricSpace, c: float
                        ) -> tuple[str, Optional[np.ndarray], Optional[float]]:
    """Plain outlier-free feasibility: does a Gram matrix with distortion <= c
    exist? Returns (verdict, gram, bound), each verdict checked by a witness:

    - "feasible": gram, rescaled so no pair contracts, has distortion bound <= c;
    - "infeasible": an LLR certificate proves the optimal l2 distortion is at
      least bound > c (gram is None);
    - "undecided": neither turned up within FEAS_ITERS iterations (gram and
      bound are None).

    The run is the linearized primal-dual iteration of Chambolle & Pock (2011)
    on {G PSD, d^2/2 <= r(G)/2 <= c^2 d^2/2}, r(G) = G_xx + G_yy - 2 G_xy,
    from the rescaled centered Gram. Every row of that map has unit norm, so
    its squared norm is n/2 and one step size 0.99/sqrt(n/2) serves primal
    and dual. The primal witness is checked every iteration; the dual one, the
    weights u/2 of the dual iterate u, every LLR_EVERY iterations. At
    iteration 0, after the primal check, the certificate comes from the
    centered Gram B itself: when its bottom eigenvector v has v^T B v < 0, the
    weights w_xy = -v_x v_y have Laplacian v v^T (v is orthogonal to 1), which
    is PSD, and sum w d^2 = v^T B v < 0, so they bound the distortion above 1
    with no iteration run.
    """
    table = _PairTable(m)  # an overflowing distance is named before c
    _check_scale(m, "target distortion", c, c)
    return _feasible(table, c)


def _feasible(table: _PairTable, c: float, start: Optional[_Iterate] = None
              ) -> tuple[str, Optional[np.ndarray], Optional[float]]:
    """distortion_feasible on the table's metric, with c unchecked, from the
    pair `start`, or cold from table.cold(). A given start is left holding the
    pair where the run stopped, so the next run can go on from there."""
    n = table.n
    if n < 2:
        return "feasible", np.zeros((n, n)), 1.0
    lo, hi = table.d2 / 2.0, c ** 2 * table.d2 / 2.0
    step = 0.99 / math.sqrt(n / 2.0)
    pair = start if start is not None else table.cold()
    g, u = pair.g, pair.u
    r = r_bar = table.pair_r(g)  # r(G), and r of the extrapolated 2 G_next - G
    for it in range(FEAS_ITERS + 1):
        if it > 0:
            v = u + step * r_bar / 2.0
            u = v - step * np.clip(v / step, lo, hi)
            g = _psd_project(g - step * table.laplacian(u / 2.0))
            pair.g, pair.u = g, u
            r_next = table.pair_r(g)
            r, r_bar = r_next, 2.0 * r_next - r
        ratio = r / table.d2
        dist = _distortion(ratio)
        if dist <= c:
            return "feasible", g / ratio.min(), dist
        if it == 0 and table.start_bound is not None:
            bound = table.start_bound
        elif it > 0 and it % LLR_EVERY == 0:
            bound = _llr_bound(table, u / 2.0)
        else:
            continue
        if bound > c:
            return "infeasible", None, bound
    return "undecided", None, None


# ---------------------------------------------------------------------------
# rounding and the k-search loop
# ---------------------------------------------------------------------------

def round_solution(sol: SdpSolution, gamma: float) -> OutlierResult:
    """Round a solution in one pass, with m, c and f_k from sol.

    Points with delta >= Delta = c^2 (gamma^2 - 1) / (2 f_k + 2 c^2 gamma^2)
    are cut. The cut points are then retried in increasing (delta, index)
    order: one goes back when its Gram row, scaled by 1/sqrt(1 - 2 Delta),
    lies within [d, gamma * c * d] (relative tolerance 1e-6) of every point
    kept so far, so the survivors' guarantees are checked rather than
    inherited; metadata["reclaimed"] counts them. The final survivors are
    factored once from their Gram rows and scaled by 1/sqrt(1 - 2 Delta).

    certified_bound is the cap at sol's own sum(delta): every cut point has
    delta >= Delta, so |K| <= |cut| <= sum(delta) / Delta, which is
    _cap(sum(delta), c, gamma, f_k).
    """
    _check_gamma(gamma)
    m, c, f_k = sol.m, sol.c, sol.f_k
    delta_cut = c ** 2 * (gamma ** 2 - 1.0) / (2.0 * f_k + 2.0 * c ** 2 * gamma ** 2)
    scale = 1.0 / math.sqrt(1.0 - 2.0 * delta_cut)
    cut = sol.delta >= delta_cut
    kept, outliers = np.flatnonzero(~cut).tolist(), []
    diag = np.diag(sol.gram)
    dist = scale * np.sqrt(np.clip(diag[:, None] + diag[None, :] - 2.0 * sol.gram, 0.0, None))
    tol = 1e-6
    for x in sorted(np.flatnonzero(cut).tolist(), key=lambda i: (sol.delta[i], i)):
        d, e = m.dist[x, kept], dist[x, kept]
        if np.all(d * (1.0 - tol) <= e) and np.all(e <= gamma * c * d * (1.0 + tol)):
            kept.append(x)
        else:
            outliers.append(x)
    survivors = sorted(kept)
    pts = points_from_gram(sol.gram[np.ix_(survivors, survivors)])
    embedding = PointSet(points=pts.points * scale, p=2.0)
    achieved = 1.0
    if len(survivors) >= 2:
        achieved = float(distortion_stats(_submetric(m, tuple(survivors)), embedding).distortion)
    return OutlierResult(
        outliers=tuple(sorted(outliers)),
        embedding=embedding,
        gamma=gamma,
        achieved_distortion=achieved,
        certified_bound=float(_cap(sol.objective, c, gamma, f_k)),
        metadata={
            "delta_cut": delta_cut,
            "reclaimed": int(cut.sum()) - len(outliers),
            "f_k": f_k,
            "objective": sol.objective,
            "max_violation": sol.max_violation,
            "delta": [float(v) for v in sol.delta],
        },
    )


def search_min_outliers(m: MetricSpace, c: float, gamma: float,
                        mode: str = "weak_factor",
                        zeta: Optional[float] = None) -> OutlierResult:
    """Try k = 0, 1, 2, ... until a checked witness shows the SDP with f(k)
    admits value <= k + EPS; round it with round_solution.

    The witnesses are Gram matrices, tried in this order for every k, each
    with its LP-polished delta: the Gram of a plain feasibility run at c0
    (below), the Gram of one at gamma*c (each when that run finds one within
    FEAS_ITERS iterations), the rescaled centered Gram, and G = 0. The first
    whose delta sums to at most k + EPS and meets every pair constraint within
    EPS_FEAS is accepted.

    c0 = sqrt((c^2 + EPS * f(0) + EPS_FEAS) / (1 - EPS - EPS_FEAS)) bounds the
    distortion of every witness k = 0 can accept. There sum(delta) <= EPS
    caps every delta_x + delta_y, and the residual check admits a violation
    of EPS_FEAS * d^2 on each side, so each pair has
    (1 - EPS - EPS_FEAS) d^2 <= r(G) <= (c^2 + EPS * f(0) + EPS_FEAS) d^2,
    and G has distortion sqrt(max / min of r(G) / d^2) <= c0. A certificate
    at c0 therefore rules k = 0 out, and the search then starts at k = 1
    without trying the witnesses at k = 0.
    metadata["k0"] is the c0 run's verdict: "feasible", "infeasible"
    (certified) or "undecided". zeta defaults to upper_distortion over the
    gamma*c witness. Parameters, (gamma c d)^2 and, for a given zeta, (c0 d)^2
    on the largest d are checked before any feasibility run; c0 from a computed
    zeta, before the c0 run.
    """
    _check_gamma(gamma)
    _check_distortion("target distortion", c)
    _g(0, mode)  # a bad mode is refused before any feasibility run
    # one table, with one eigendecomposition of B, serves every run, zeta and witness
    table = _PairTable(m)  # an overflowing distance is named before the scales
    _check_scale(m, "gamma * c", gamma * c, gamma * c)
    if zeta is not None:  # a given zeta is refused before any feasibility run
        _check_scale(m, "zeta", zeta, _c0(c, zeta, mode))
    high = _feasible(table, gamma * c)
    if zeta is None:
        witnesses = [high[1]] if high[0] == "feasible" else []
        zeta = _least_distortion(table, witnesses)
    c0 = _c0(c, zeta, mode)
    _check_scale(m, "c0", c0, c0)  # only a computed zeta can fail here
    runs = [_feasible(table, c0), high]
    # the first witness, not the least delta sum: reclaim can only keep points
    # the accepted Gram embeds within [d, gamma*c*d], and the feasibility
    # witnesses embed the most (least-sum left planted-n128 of the benchmark
    # corpus with K = [126])
    grams = [g for verdict, g, _ in runs if verdict == "feasible"]
    grams += [table.start, np.zeros((m.n, m.n))]
    for k in range(1 if runs[0][0] == "infeasible" else 0, m.n + 1):
        sol = _first_witness(table, c, f_of_k(k, zeta, mode), k + EPS, grams)
        if sol is not None:
            result = round_solution(sol, gamma)
            result.metadata.update({
                "k": k,
                "mode": mode,
                "g_value": _g(k, mode),
                "zeta": zeta,
                "k0": runs[0][0],
            })
            return result
    raise Exhausted("no k <= n admitted an SDP value <= k; this should be unreachable")
