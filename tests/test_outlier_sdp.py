import json
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metric_outliers import (
    BourgainParams,
    CompositionInputs,
    Graph,
    PointSet,
    bicriteria_bound,
    bourgain_embed,
    compose_deterministic,
    distortion_bracket,
    distortion_stats,
    f_of_k,
    from_graph,
    from_matrix,
    min_outlier_isometric_l2,
    restrict,
    search_min_outliers,
    verify_outlier_embedding,
)
from metric_outliers.cli import dispatch
from metric_outliers.errors import GammaNotAboveOne
from metric_outliers.hardness_gadgets import lp_gadget
from metric_outliers.lp_geometry import pairwise_distances, points_from_gram
from metric_outliers.metric_core import write_metric_text
from metric_outliers import outlier_sdp
from metric_outliers.outlier_sdp import (
    EPS,
    EPS_FEAS,
    SdpSolution,
    _PairTable,
    _distortion,
    _first_witness,
    _llr_bound,
    _lp_polish,
    _min_cover,
    distortion_feasible,
    round_solution,
    upper_distortion,
    weak_g,
)

from conftest import atlas_graphs, gram_of, integer_metric

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402  (the benchmark's independent output checks)
import workloads  # noqa: E402  (the benchmark's instance generators)


def benchmark_corpus():
    """(label, metric): the 9 solve-planted instances and the 6 oracle-exact lp
    gadgets at seed 11."""
    cases = []
    for i, (n_core, k) in enumerate(workloads.PLANTED_SHAPES):
        dist = workloads.planted_metric(np.random.default_rng([i]), n_core, k)
        cases.append((f"planted-n{n_core + k}", from_matrix(dist, tol_tri=1e-9)))
    for j, n in enumerate(workloads.INTEGER_SIZES):
        dist = workloads.integer_metric(np.random.default_rng([100 + j]), n)
        cases.append((f"integer-n{n}", from_matrix(dist, tol_tri=0.0)))
    rng = np.random.default_rng(11)
    for i, (n, cover) in enumerate(workloads.GADGET_SOURCES):
        edges = workloads.random_graph_with_cover(rng, n, cover)
        cases.append((f"gadget{i}-n{n}", from_graph(lp_gadget(Graph(n, tuple(edges))).graph)))
    return cases


def benchmark_instances():
    """(label, metric, gamma): the benchmark corpus with n <= 33, each at
    gamma = 1.5 and 1.1, except integer-n5 at 1.1."""
    return [(label, m, gamma) for label, m in benchmark_corpus() for gamma in (1.5, 1.1)
            if m.n <= 33 and (label, gamma) != ("integer-n5", 1.1)]


class TestFOfK:
    def test_k0_weak_is_zeta_squared(self):
        assert f_of_k(0, 1.7) == pytest.approx(1.7 ** 2)

    def test_strong_k1_unit(self):
        assert f_of_k(1, 1.0, "strong_subset") == pytest.approx(328329.0)

    def test_weak_k1(self):
        assert f_of_k(1, 2.0) == pytest.approx(145924.0)
        assert weak_g(1) == pytest.approx(191.0)

    @pytest.mark.parametrize("zeta", [-1.0, 0.0, 0.5, math.nan])
    def test_strong_rejects_zeta_k_below_one(self, zeta):
        # zeta = -1 would give f = 328329 and zeta = 0 would give f = 0
        with pytest.raises(ValueError, match=f"zeta must be finite and >= 1, got {zeta}"):
            f_of_k(1, zeta, "strong_subset")


def solution(m, c, f_k):
    """An SdpSolution on m at c and f_k with G = 0 and delta = 0."""
    return SdpSolution(m=m, c=c, f_k=f_k, gram=np.zeros((m.n, m.n)), delta=np.zeros(m.n),
                       objective=0.0, max_violation=0.0)


class TestInstance:
    """The SDP instance (m, c, f_k) that an SdpSolution carries."""

    @pytest.mark.parametrize("f_k", [-1.0, math.inf, math.nan])
    def test_rejects_bad_f_k(self, line_metric, f_k):
        # round_solution is public, so a solution built by hand is checked too
        with pytest.raises(ValueError, match=f"got {f_k}"):
            solution(line_metric, 1.0, f_k)

    @pytest.mark.parametrize("c", [0.5, math.inf, math.nan, 1e200])
    def test_rejects_bad_c(self, line_metric, c):
        with pytest.raises(ValueError, match=f"target distortion .*got {re.escape(str(c))}$"):
            solution(line_metric, c, 1.0)

    def test_constraint_reduction_under_delta(self, line_metric):
        # delta = 0 pinches to d^2 <= R <= c^2 d^2; delta_y = 1 voids the
        # lower side and lifts the upper to (c^2 + f) d^2
        c, f = 1.5, 9.0
        d2 = 4.0
        for dx, dy, lo_expect, hi_expect in [
            (0.0, 0.0, d2, c * c * d2),
            (0.0, 1.0, -0.0, (c * c + f) * d2),
        ]:
            lo = (1 - dx - dy) * d2
            hi = (c * c + (dx + dy) * f) * d2
            assert lo == pytest.approx(max(lo_expect, min(lo_expect, lo)))
            assert hi == pytest.approx(hi_expect)
            assert lo <= hi


def highs_cover(n, xs, ys, need, f=1.0):
    """min sum(delta) over delta_x + delta_y >= need on the pairs (xs, ys) and
    0 <= delta <= 1, by HiGHS: the reference _min_cover must match in value.
    It solves for f * delta, as HiGHS's tolerances are absolute and an error e
    in delta moves an upper pair constraint by e * f * d^2. None when HiGHS
    reports the LP infeasible."""
    from scipy.optimize import linprog
    rows = np.flatnonzero(need > 0)
    if len(rows) == 0:
        return np.zeros(n)
    a_ub = np.zeros((len(rows), n))
    a_ub[np.arange(len(rows)), xs[rows]] = -1.0
    a_ub[np.arange(len(rows)), ys[rows]] = -1.0
    res = linprog(c=np.ones(n), A_ub=a_ub, b_ub=-f * need[rows], bounds=(0.0, f), method="highs")
    if res.status == 2:
        return None
    assert res.success
    return res.x / f


@st.composite
def pair_needs(draw):
    """(n, needs of the pairs x < y) for n = 2..12, needs in [0, 2.2] on a grid
    of 0.01, so no need lies within HiGHS's 1e-7 feasibility tolerance above 2.
    The top is 1, 2 or 2.2: no lower bound, the shift by l, or infeasible."""
    n = draw(st.integers(2, 12))
    top = draw(st.sampled_from([100, 200, 220]))
    pairs = n * (n - 1) // 2
    return n, np.array(draw(st.lists(st.integers(0, top), min_size=pairs, max_size=pairs))) / 100.0


def line_witness(line_metric):
    """The line's own Gram matrix at level 0: every delta is 0."""
    table = _PairTable(line_metric)
    sol = _first_witness(table, 1.0, 4.0, 0.0, [table.start])
    assert sol is not None and sol.objective == 0.0
    return sol


class TestSolve:
    def test_objective_monotone_in_c_and_f(self):
        # relaxation nesting: for a fixed Gram the least delta only shrinks
        # as c or f grows
        rng = np.random.default_rng(5)
        for _ in range(3):
            table = _PairTable(integer_metric(rng, 6))

            def polished(c, f):
                return _lp_polish(table, table.start, c ** 2, f).sum()
            obj = [polished(c, 8.0) for c in (1.0, 1.3, 1.8)]
            objf = [polished(1.0, f) for f in (4.0, 16.0, 64.0)]
            for seq in (obj, objf):
                assert seq[1] <= seq[0] + 1e-9 and seq[2] <= seq[1] + 1e-9

    def test_lp_polish_meets_the_residual_check_at_large_f(self):
        # at f(1) ~ 1e5 an absolute LP error of 1e-7 in delta would be 1e-2 of
        # upper slack; the polish must still pass the EPS_FEAS check
        m = integer_metric(np.random.default_rng([101]), 6)
        verdict, g, _ = distortion_feasible(m, 1.5)
        assert verdict == "feasible"
        _, stats = bourgain_embed(m, BourgainParams(seed=0, p=2.0))
        table, f = _PairTable(m), f_of_k(1, max(stats.distortion, 1.0))
        delta = _lp_polish(table, g, 1.0, f)
        assert delta is not None
        assert table.residual(g, delta, 1.0, f) <= EPS_FEAS

    def test_lp_polish_matches_highs_on_the_corpus(self, monkeypatch):
        # every polish of the 60 corpus solves (weak and strong, gamma 1.5 and
        # 1.1) has HiGHS's least sum, on needs with nothing zeroed, and passes
        # the residual check
        calls = []
        polish = outlier_sdp._lp_polish

        def recorded(table, g, c2, f):
            calls.append((table, g, c2, f, polish(table, g, c2, f)))
            return calls[-1][-1]

        monkeypatch.setattr(outlier_sdp, "_lp_polish", recorded)
        for _, m in benchmark_corpus():
            for mode in ("weak_factor", "strong_subset"):
                for gamma in (1.5, 1.1):
                    search_min_outliers(m, 1.0, gamma, mode=mode)
        assert len(calls) >= 60
        for table, g, c2, f, delta in calls:
            ratio = table.pair_r(g) / table.d2
            need = np.maximum(np.maximum(1.0 - ratio, (ratio - c2) / f), 0.0)
            ref = highs_cover(table.n, table.xs, table.ys, need, f)
            assert delta is not None and ref is not None
            assert delta.sum() == pytest.approx(ref.sum(), rel=1e-12, abs=0.0)
            assert table.residual(g, delta, c2, f) <= EPS_FEAS

    @given(pair_needs())
    @settings(max_examples=300, deadline=None)
    def test_min_cover_is_highs_optimum(self, case):
        n, need = case
        xs, ys = np.triu_indices(n, k=1)
        delta = _min_cover(n, xs, ys, need)
        ref = highs_cover(n, xs, ys, need)
        assert (delta is None) == (ref is None)
        if delta is not None:
            assert delta.sum() == pytest.approx(ref.sum(), rel=1e-12, abs=0.0)
            assert np.all((delta >= 0.0) & (delta <= 1.0))
            assert np.all(delta[xs] + delta[ys] >= need - 1e-12)

    def test_lp_polish_memory_is_linear_in_the_pairs(self):
        # the assignment works on n x n matrices, 131 kB each at n = 128; a
        # dense 8127 x 128 pair constraint matrix alone would take 8.3 MB
        m = from_matrix(workloads.planted_metric(np.random.default_rng([5]), 120, 8),
                        tol_tri=1e-9)
        table, f = _PairTable(m), f_of_k(1, 1.2)
        _lp_polish(table, table.start, 1.0, f)  # scipy's modules load outside the traced call
        tracemalloc.start()
        try:
            delta = _lp_polish(table, table.start, 1.0, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delta is not None and delta.sum() > 0.0
        assert peak < 4e6

    def test_distortion_feasibility_direction(self, claw_metric):
        # the claw's optimal l2 distortion is sqrt(4/3)
        verdict, g, bound = distortion_feasible(claw_metric, 1.0)
        assert verdict == "infeasible" and g is None
        assert 1.0 < bound <= math.sqrt(4.0 / 3.0) + 1e-12
        verdict, g, bound = distortion_feasible(claw_metric, 2.0)
        assert verdict == "feasible"
        measured = distortion_stats(claw_metric, points_from_gram(g)).distortion
        assert measured <= 2.0 and measured == pytest.approx(bound, rel=1e-9)


class _Iterated(Exception):
    pass


class TestPairTable:
    """Each entry point builds one pair table for all its runs, witnesses and
    measurements."""

    @pytest.mark.parametrize("label", ["claw", "planted-n19"])
    def test_one_table_per_entry_point_call(self, monkeypatch, claw_metric, label):
        m = claw_metric if label == "claw" else dict(benchmark_corpus())[label]
        built = []
        init = _PairTable.__init__
        monkeypatch.setattr(_PairTable, "__init__",
                            lambda table, m_: built.append(1) or init(table, m_))
        calls = {
            "search_min_outliers": lambda: search_min_outliers(m, 1.0, 1.5),
            "search_min_outliers strong": lambda: search_min_outliers(
                m, 1.0, 1.1, mode="strong_subset"),
            "distortion_feasible": lambda: distortion_feasible(m, 1.2),
            "upper_distortion": lambda: upper_distortion(m),
            "distortion_bracket": lambda: distortion_bracket(m),
        }
        for name, call in calls.items():
            built.clear()
            call()
            assert len(built) == 1, name

    def test_overflowing_distance_is_refused_before_any_eigendecomposition(
            self, monkeypatch, claw_metric):
        # d = 2e160 passes metric validation, but d^2 overflows a float
        m = from_matrix(claw_metric.dist * 1e160)

        def factored(*args, **kwargs):
            raise AssertionError("an eigendecomposition started")

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, factored)
        message = re.escape("distance d(0, 1) is too large: its square overflows, got 1e+160")
        calls = (lambda: distortion_feasible(m, 1.5), lambda: upper_distortion(m),
                 lambda: distortion_bracket(m), lambda: min_outlier_isometric_l2(m))
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=message):
                    call()


class TestIterationZeroCertificate:
    """distortion_feasible refuses c before its first iteration when the
    weights -v_x v_y of the centered Gram's bottom eigenvector v bound the
    distortion above c."""

    def test_claw_is_refused_without_iterating(self, monkeypatch, claw_metric):
        calls = []
        project = outlier_sdp._psd_project

        def counted(g):
            calls.append(1)
            return project(g)

        monkeypatch.setattr(outlier_sdp, "_psd_project", counted)
        verdict, g, bound = distortion_feasible(claw_metric, 1.1)
        assert verdict == "infeasible" and g is None
        assert bound == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-12)
        assert calls == []

    def test_certificate_is_computed_once_per_start(self, monkeypatch, claw_metric):
        # the bound does not depend on c: runs from one start factor nothing
        # before they refuse c at iteration 0
        table = _PairTable(claw_metric)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        for c in (1.0, 1.05, 1.1):
            verdict, _, bound = outlier_sdp._feasible(table, c)
            assert verdict == "infeasible" and bound == table.start_bound
        assert calls == []

    def test_bound_at_most_upper_distortion_on_the_atlas(self, monkeypatch):
        # at c = 1 every bound above 1 is returned; a run that would iterate
        # raises instead, so each verdict seen is the one of iteration 0
        def iterated(g):
            raise _Iterated

        monkeypatch.setattr(outlier_sdp, "_psd_project", iterated)
        graphs = [g for g in atlas_graphs(7, connected=True) if g.n >= 3]
        assert len(graphs) == 994
        certified = 0
        for graph in graphs:
            m = from_graph(graph)
            try:
                verdict, _, bound = distortion_feasible(m, 1.0)
            except _Iterated:
                continue
            if verdict == "infeasible":
                certified += 1
                assert bound <= upper_distortion(m), graph.edges
        assert certified >= 900


class TestLlrBound:
    def test_scale_invariant(self):
        rng = np.random.default_rng(8)
        m = integer_metric(rng, 7)
        table = _PairTable(m)
        w = rng.normal(size=len(table.d2))
        bound = _llr_bound(table, w)
        for scale in (1e-14, 1e-3, 1e6):
            assert _llr_bound(table, scale * w) == pytest.approx(bound, rel=1e-12, abs=0.0)
        assert _llr_bound(table, np.zeros_like(w)) == 1.0

    @pytest.mark.parametrize("seed", [36, 22])
    def test_isometric_metric_is_not_refused(self, seed):
        # 17 points on a line (seed 36) and 31 in the plane (seed 22): at c = 1
        # the dual weights fall to ~1e-14, where a lift of absolute size one
        # let eigh's rounding refuse c = 1 with bounds 1.0039 and 1.0008
        rng = np.random.default_rng(seed)
        n, dim = int(rng.integers(4, 40)), int(rng.integers(1, 6))
        x = rng.normal(size=(n, dim)) * 10 ** rng.uniform(-3, 3)
        m = from_matrix(pairwise_distances(PointSet(points=x, p=2.0)), tol_tri=1e-9)
        assert distortion_feasible(m, 1.0)[0] != "infeasible"


class TestRounding:
    def test_cutoff_formula(self, line_metric):
        res = round_solution(line_witness(line_metric), gamma=math.sqrt(2.0))
        assert res.metadata["delta_cut"] == pytest.approx(1.0 / 12.0)

    def test_zero_delta_keeps_everyone(self, line_metric):
        res = round_solution(line_witness(line_metric), gamma=1.5)
        assert res.outliers == ()
        assert res.embedding.n == 3

    def test_integral_certificate_rounds_to_planted_leaf(self, claw_metric):
        # a by-hand solution with delta = 1 on one leaf and the Gram matrix of
        # a composed embedding rounds to exactly that leaf
        sub, kept = restrict(claw_metric, {3})
        alpha_s = PointSet(points=np.array([[0.0], [-1.0], [1.0]]), p=2.0)
        alpha_x, stats = bourgain_embed(claw_metric, BourgainParams(seed=4, p=2.0))
        inputs = CompositionInputs(m=claw_metric, s=(0, 1, 2), p=2.0,
                                   alpha_s=alpha_s, alpha_x=alpha_x)
        det = compose_deterministic(inputs, 16, np.random.default_rng(0))
        gram = gram_of(det.embedding.points)
        delta = np.array([0.0, 0.0, 0.0, 1.0])
        zeta = max(stats.distortion, 1.0)
        f_k = f_of_k(1, zeta)
        sol = SdpSolution(m=claw_metric, c=1.0, f_k=f_k, gram=gram, delta=delta,
                          objective=1.0, max_violation=0.0)
        res = round_solution(sol, gamma=1.5)
        assert res.outliers == (3,)
        assert res.achieved_distortion <= 1.5 * (1 + 1e-9)
        assert verify_outlier_embedding(claw_metric, res.outliers, res.embedding, 1.5, tol=1e-6)

    def test_survivor_sandwich(self, claw_metric):
        res = search_min_outliers(claw_metric, 1.0, 1.5)
        surv, _ = restrict(claw_metric, res.outliers)
        if surv.n >= 2:
            emb = pairwise_distances(res.embedding)
            iu = np.triu_indices(surv.n, 1)
            ratios = emb[iu] / surv.dist[iu]
            assert ratios.min() >= 1.0 - 1e-6
            assert ratios.max() <= 1.5 * (1.0 + 1e-6)

    def test_outlier_count_versus_markov(self, claw_metric):
        _, stats = bourgain_embed(claw_metric, BourgainParams(seed=0, p=2.0))
        f_k = f_of_k(1, max(stats.distortion, 1.0))
        table, n = _PairTable(claw_metric), claw_metric.n
        sol = _first_witness(table, 1.0, f_k, 1.0, [table.start, np.zeros((n, n))])
        res = round_solution(sol, gamma=1.25)
        assert len(res.outliers) <= sol.objective / res.metadata["delta_cut"] + 1e-9

    def test_gamma_must_exceed_one(self, line_metric):
        with pytest.raises(GammaNotAboveOne):
            round_solution(line_witness(line_metric), gamma=1.0)


class TestSearch:
    def test_isometric_exits_at_k0(self, line_metric):
        res = search_min_outliers(line_metric, 1.0, 1.5)
        assert res.metadata["k"] == 0
        assert res.outliers == ()

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points(self, n):
        # the empty metric used to raise ZeroDivisionError centering its Gram
        res = search_min_outliers(from_matrix(np.zeros((n, n))), 1.0, 1.5)
        assert res.outliers == () and res.metadata["k"] == 0

    def test_claw_stops_at_k1(self, claw_metric):
        res = search_min_outliers(claw_metric, 1.0, 1.5)
        assert res.metadata["k"] == 1
        assert verify_outlier_embedding(claw_metric, res.outliers, res.embedding, 1.5, tol=1e-3)
        assert len(res.outliers) <= res.certified_bound

    def test_gadget_value_at_k2_within_vertex_cover(self, k3):
        # the search stops no later than k = 2 = vc(K3)
        m = from_graph(lp_gadget(k3).graph)
        assert search_min_outliers(m, 1.0, 1.5).metadata["k"] <= 2

    def test_k0_verdict_labels_the_k0_exit(self, claw_metric, line_metric):
        # the claw needs distortion 2/sqrt(3) > c0, so k = 0 is ruled out by certificate
        res = search_min_outliers(claw_metric, 1.0, 1.5)
        assert res.metadata["k0"] == "infeasible" and res.metadata["k"] == 1
        res = search_min_outliers(line_metric, 1.0, 1.5)
        assert res.metadata["k0"] == "feasible" and res.metadata["k"] == 0

    def test_no_outliers_when_an_embedding_fits(self):
        # integer-n6 of the benchmark corpus embeds within gamma*c = 1.5
        m = integer_metric(np.random.default_rng([101]), 6)
        assert search_min_outliers(m, 1.0, 1.5).outliers == ()

    def test_outliers_invariant_under_relabeling(self):
        # zeta and K (mapped back) stay put under 5 relabelings, in weak mode and
        # in strong mode on planted-n14 and integer-n7, where the delta LP has
        # several optima and the one taken decides K. integer-n5 is left out at
        # gamma = 1.1: there the (delta, index) reclaim order depends on the
        # labels, and K changes within the same size
        corpus = dict(benchmark_corpus())
        cases = [(label, m, gamma, "weak_factor") for label, m, gamma in benchmark_instances()]
        cases += [(label, corpus[label], gamma, "strong_subset")
                  for label in ("planted-n14", "integer-n7") for gamma in (1.5, 1.1)]
        for label, m, gamma, mode in cases:
            base = search_min_outliers(m, 1.0, gamma, mode=mode)
            for s in range(1, 6):
                perm = np.random.default_rng(1000 + s).permutation(m.n)
                res = search_min_outliers(from_matrix(m.dist[np.ix_(perm, perm)]), 1.0, gamma,
                                          mode=mode)
                assert res.metadata["zeta"] == pytest.approx(base.metadata["zeta"], rel=1e-12,
                                                              abs=0.0), (label, mode, gamma, s)
                assert tuple(sorted(int(perm[i]) for i in res.outliers)) == base.outliers, \
                    (label, mode, gamma, s)

    def test_strong_mode_runs(self, claw_metric):
        res = search_min_outliers(claw_metric, 1.0, 1.5, mode="strong_subset")
        assert res.metadata["mode"] == "strong_subset"
        assert verify_outlier_embedding(claw_metric, res.outliers, res.embedding, 1.5, tol=1e-3)

    def test_gamma_validation(self, claw_metric):
        with pytest.raises(GammaNotAboveOne):
            search_min_outliers(claw_metric, 1.0, 1.0)


# K of `outliers solve --c 1 --mode weak` at gamma = 1.5 and at gamma = 1.1.
# Every run accepts k = 1 after a certificate at c0.
GOLDEN_K_WEAK = {
    "planted-n10": ([], []),
    "planted-n14": ([], []),
    "planted-n19": ([], []),
    "planted-n33": ([], []),
    "planted-n64": ([], [3, 41, 60, 62, 63]),
    "planted-n128": ([], [120, 121, 123, 124, 125, 126, 127]),
    "integer-n5": ([], [1, 2, 4]),
    "integer-n6": ([], [4]),
    "integer-n7": ([], [0, 2, 6]),
    "gadget0-n6": ([], [1, 3, 5, 7, 9, 11]),
    "gadget1-n6": ([], [1, 3, 5, 7, 9, 11]),
    "gadget2-n7": ([], [1, 3, 5, 7, 9, 11, 13]),
    "gadget3-n7": ([], [1, 3, 5, 7, 9, 11, 13]),
    "gadget4-n8": ([], [1, 3, 5, 7, 9, 11, 13]),
    "gadget5-n8": ([], [1, 3, 5, 7, 9, 13, 15]),
}

# The same with --mode strong. f(0) = (382 zeta)^2 makes the c0 run feasible, so
# every run accepts k = 0, and a sum(delta) <= EPS still cuts points.
GOLDEN_K_STRONG = {
    "planted-n10": ([], []),
    "planted-n14": ([], [3]),
    "planted-n19": ([], []),
    "planted-n33": ([], [30, 32]),
    "planted-n64": ([], [3, 41, 60, 62, 63]),
    "planted-n128": ([126], [120, 121, 123, 124, 125, 126, 127]),
    "integer-n5": ([4], [1, 2, 4]),
    "integer-n6": ([], [4]),
    "integer-n7": ([0, 2, 6], [0, 2, 6]),
    "gadget0-n6": ([], [1, 3, 5, 7, 9, 11]),
    "gadget1-n6": ([], [1, 3, 5, 7, 9, 11]),
    "gadget2-n7": ([13], [1, 3, 5, 7, 9, 11, 13]),
    "gadget3-n7": ([], [1, 3, 5, 7, 9, 11, 13]),
    "gadget4-n8": ([], [1, 3, 5, 7, 9, 11, 13]),
    "gadget5-n8": ([1, 5], [1, 3, 5, 7, 9, 13, 15]),
}


def test_outliers_solve_golden(capsys, tmp_path):
    # each output also passes the benchmark's own check: K in range, the
    # survivors' embedding within [d, gamma*c*d], and |K| <= certified_bound
    corpus = benchmark_corpus()
    golden = {"weak": (GOLDEN_K_WEAK, 1, "infeasible"), "strong": (GOLDEN_K_STRONG, 0, "feasible")}
    assert all([label for label, _ in corpus] == list(g[0]) for g in golden.values())
    for label, m in corpus:
        path = str(tmp_path / f"{label}.txt")
        write_metric_text(path, m)
        for mode, (golden_k, k, k0) in golden.items():
            for gamma, want in zip(("1.5", "1.1"), golden_k[label]):
                argv = ["outliers", "solve", "--metric", path, "--c", "1", "--gamma", gamma,
                        "--mode", mode]
                assert dispatch(argv) == 0
                payload = json.loads(capsys.readouterr().out)
                got = (payload["K"], payload["k"], payload["solver"]["k0"])
                assert got == (want, k, k0), (label, mode, gamma)
                assert checks.check_outlier_solution(m.dist, payload, float(gamma)) == [], \
                    (label, mode, gamma)


class TestK0Skip:
    """After a certificate at c0 the search starts at k = 1. The skip is sound
    only if c0 bounds the distortion of every witness k = 0 can accept."""

    def test_skipped_k0_pass_could_not_accept(self, monkeypatch, claw_metric):
        # the explicit k = 0 pass over the witnesses the search holds finds
        # nothing, and the search LP-polishes at f(1) and above only
        polished_f = []
        polish = outlier_sdp._lp_polish

        def counted(table, g, c2, f):
            polished_f.append(f)
            return polish(table, g, c2, f)

        monkeypatch.setattr(outlier_sdp, "_lp_polish", counted)
        cases = benchmark_instances() + [("claw", claw_metric, gamma) for gamma in (1.5, 1.1)]
        certified = 0
        for label, m, gamma in cases:
            polished_f.clear()
            res = search_min_outliers(m, 1.0, gamma)
            if res.metadata["k0"] != "infeasible":
                continue
            certified += 1
            zeta = res.metadata["zeta"]
            assert polished_f and min(polished_f) >= f_of_k(1, zeta), (label, gamma)
            verdict, high, _ = distortion_feasible(m, gamma)
            table = _PairTable(m)
            grams = [high] if verdict == "feasible" else []
            grams += [table.start, np.zeros((m.n, m.n))]
            assert _first_witness(table, 1.0, f_of_k(0, zeta), EPS, grams) is None, \
                (label, gamma)
        # every instance here needs distortion above c0
        assert certified == len(cases)

    def test_k0_witnesses_stay_within_c0(self):
        # Grams whose top ratio sits just above c^2, so a delta summing to
        # about EPS can absorb it, and scaled to contract by up to 2 EPS
        rng = np.random.default_rng(2024)
        accepted = 0
        for _ in range(60):
            m = integer_metric(rng, int(rng.integers(4, 9)))
            table = _PairTable(m)
            g = (table.start, m.dist @ m.dist)[int(rng.integers(2))]
            ratio = table.pair_r(g) / table.d2
            g = g / ratio.min() * rng.uniform(1.0 - 2.0 * EPS, 1.0)
            f = float(rng.uniform(1.0, 4.0))
            c = math.sqrt(max(1.0, _distortion(ratio) ** 2 - rng.uniform(0.0, 2.0) * EPS * f))
            if _first_witness(table, c, f, EPS, [g]) is None:
                continue
            accepted += 1
            c0 = math.sqrt((c ** 2 + EPS * f + EPS_FEAS) / (1.0 - EPS - EPS_FEAS))
            assert _distortion(table.pair_r(g) / table.d2) <= c0
        assert accepted >= 10


class TestUpperDistortion:
    def test_one_on_a_line(self):
        x = np.arange(5.0)[:, None]
        m = from_matrix(np.abs(x - x.T))
        assert upper_distortion(m, [gram_of(x)]) == 1.0
        assert upper_distortion(m) == pytest.approx(1.0, abs=1e-12)

    def test_between_the_certified_lower_end_and_sqrt_n(self):
        nx = pytest.importorskip("networkx")
        from networkx.generators.atlas import graph_atlas_g
        metrics = [integer_metric(np.random.default_rng([s]), n)
                   for s, n in ((1, 4), (2, 5), (3, 6), (4, 7), (5, 9))]
        metrics += [from_graph(Graph(g.number_of_nodes(), tuple(g.edges())))
                    for g in graph_atlas_g() if 3 <= g.number_of_nodes() <= 5 and nx.is_connected(g)]
        for m in metrics:
            upper = upper_distortion(m)
            assert distortion_bracket(m)[0] <= upper <= math.sqrt(m.n)


class TestBicriteriaBound:
    def test_formula_example(self):
        assert bicriteria_bound(1, 1.0, math.sqrt(2.0), 1.0, 1.0) == pytest.approx(6.0)

    def test_zero_k(self):
        assert bicriteria_bound(0, 1.0, 2.0, 5.0, 3.0) == 0.0

    def test_large_gamma_limit(self):
        assert bicriteria_bound(3, 1.0, 1e6, 1.0, 1.0) == pytest.approx(6.0, rel=1e-6)

    def test_eps_form(self):
        # gamma = 1 + eps with eps = 0.5: 2 (1 + 2.25) / 1.25 * 2
        assert bicriteria_bound(2, 1.0, 1.0 + 0.5, 1.0, 1.0) == pytest.approx(10.4)

    def test_gamma_validation(self):
        with pytest.raises(GammaNotAboveOne):
            bicriteria_bound(1, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("gamma", [1.5, 1.1])
    def test_search_reports_the_cap(self, claw_metric, gamma):
        # round_solution's certified bound is the cap at the witness's own
        # sum(delta), bit for bit, not at the accepted k
        res = search_min_outliers(claw_metric, 1.0, gamma)
        md = res.metadata
        assert res.certified_bound == bicriteria_bound(md["objective"], 1.0, gamma,
                                                       md["g_value"], md["zeta"])
        assert len(res.outliers) <= res.certified_bound < bicriteria_bound(
            md["k"], 1.0, gamma, md["g_value"], md["zeta"])


class TestSearchQuality:
    def test_embeddable_at_target_keeps_everyone(self, claw_metric):
        # the claw embeds at distortion 2/sqrt(3) < 1.25, so no outliers needed
        res = search_min_outliers(claw_metric, 1.0, 1.25)
        assert res.outliers == ()
        assert res.achieved_distortion <= 1.25 * (1 + 1e-6)

    def test_random_metric_keeps_meaningful_survivors(self):
        rng = np.random.default_rng(1)
        m = integer_metric(rng, 16)
        res = search_min_outliers(m, 1.5, 1.5)
        survivors = m.n - len(res.outliers)
        assert survivors >= 2
        assert verify_outlier_embedding(m, res.outliers, res.embedding, 2.25, tol=1e-3)

    def test_reclaim_count_reported(self, claw_metric):
        # the threshold cuts points the reclaim returns: 1 on the claw, 3 on
        # integer-n7 of the benchmark corpus
        integer_n7 = integer_metric(np.random.default_rng([102]), 7)
        for m, gamma, reclaimed in ((claw_metric, 1.25, 1), (integer_n7, 1.5, 3)):
            res = search_min_outliers(m, 1.0, gamma)
            assert res.metadata["reclaimed"] == reclaimed and res.outliers == ()
