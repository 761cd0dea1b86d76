from itertools import combinations

import numpy as np
import pytest

from metric_outliers import (
    Graph,
    distortion_bracket,
    distortion_stats,
    dw_edge_classes,
    from_graph,
    from_matrix,
    hypercube_embeddable,
    is_l2_isometric,
    min_outlier_isometric_l2,
    min_vertex_cover,
    optimal_distortion_l2,
    points_from_gram,
    restrict,
)
from metric_outliers import oracle, outlier_sdp
from metric_outliers.errors import BudgetExceeded, DisconnectedGraph
from metric_outliers.hardness_gadgets import l1_gadget, lp_gadget
from metric_outliers.oracle import OracleBudget
from metric_outliers.outlier_sdp import PairTable, distortion_feasible, upper_distortion

from conftest import atlas_graphs, integer_metric

# graphs with a known optimal l2 distortion c2: even cycles (regular polygon,
# Linial-Magen), hypercubes (sqrt(d), Enflo) and stars (sqrt(2 - 2/m))
KNOWN_C2 = (
    [(f"C{n}", Graph(n, tuple((i, (i + 1) % n) for i in range(n))), n / 2 * np.sin(np.pi / n))
     for n in (4, 6, 8, 10, 12)]
    + [(f"Q{d}", Graph(2 ** d, tuple((u, u ^ (1 << b)) for u in range(2 ** d) for b in range(d)
                                     if u < u ^ (1 << b))), np.sqrt(d))
       for d in (3, 4)]
    + [(f"K1,{m}", Graph(m + 1, tuple((0, i) for i in range(1, m + 1))), np.sqrt(2.0 - 2.0 / m))
       for m in (3, 4, 5, 6)]
)


def cycle(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def random_connected_graph(rng):
    """G(n, 0.35) on rng.integers(6, 17) nodes, redrawn until it is connected."""
    n = int(rng.integers(6, 17))
    while True:
        edges = tuple((u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.35)
        try:
            return from_graph(Graph(n, edges))
        except DisconnectedGraph:
            continue


def cold_bracket(m, tol):
    """distortion_bracket's bisection with a new pair table for every
    measurement and run: every feasibility run starts cold from the centered
    Gram."""
    hi, lo, lower = upper_distortion(PairTable(m)), 1.0, 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        verdict, _, bound = distortion_feasible(PairTable(m), mid)
        if verdict == "feasible":
            hi = min(hi, bound)
        elif verdict == "infeasible":
            lower = max(lower, min(bound, hi))
            lo = max(lo, lower)
        else:
            lo = mid
    return lower, hi


def enumerated_outliers(m):
    """Reference: restrict and test every candidate set, by size, in lexicographic order."""
    for size in range(m.n):
        for cand in combinations(range(m.n), size):
            if is_l2_isometric(restrict(m, cand)[0]):
                return size, cand


def enumerated_cover(g):
    """Reference: the first candidate set, by size, in lexicographic order, that covers every edge."""
    for size in range(g.n + 1):
        for cand in combinations(range(g.n), size):
            if all(u in cand or v in cand for u, v in g.edges):
                return size, cand


class TestAgainstEnumeration:
    """The oracles' (size, witness) equals plain subset enumeration's."""

    def test_atlas_graph_metrics(self):
        graphs = list(atlas_graphs(7, connected=True))
        assert len(graphs) == 995  # 1 + 2 + 6 + 21 + 112 + 853 on 2..7 nodes
        for g in graphs:
            m = from_graph(g)
            assert min_outlier_isometric_l2(m) == enumerated_outliers(m), g.edges

    def test_integer_metrics(self):
        rng = np.random.default_rng(2024)
        for i in range(60):
            m = integer_metric(rng, 4 + i % 7)
            assert min_outlier_isometric_l2(m) == enumerated_outliers(m), i

    @pytest.mark.parametrize("n", range(4, 12))
    def test_cycles(self, n):
        m = from_graph(cycle(n))
        assert min_outlier_isometric_l2(m) == enumerated_outliers(m)

    def test_vertex_cover_on_atlas_graphs(self):
        for g in atlas_graphs(7, connected=False):
            assert min_vertex_cover(g) == enumerated_cover(g), g.edges


class TestVertexCover:
    def test_single_edge(self, single_edge):
        assert min_vertex_cover(single_edge)[0] == 1

    def test_triangle(self, k3):
        size, witness = min_vertex_cover(k3)
        assert size == 2
        assert all(u in witness or v in witness for u, v in k3.edges)

    def test_path_p4(self):
        p4 = Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))
        assert min_vertex_cover(p4)[0] == 2

    def test_empty_graph(self):
        assert min_vertex_cover(Graph(n=3, edges=())) == (0, ())

    def test_budget(self):
        big = Graph(n=20, edges=((0, 1),))
        with pytest.raises(BudgetExceeded):
            min_vertex_cover(big, OracleBudget(max_nodes=16))


class TestMinOutlier:
    def test_line_needs_none(self, line_metric):
        assert min_outlier_isometric_l2(line_metric)[0] == 0

    def test_claw_needs_one(self, claw_metric):
        size, witness = min_outlier_isometric_l2(claw_metric)
        assert size == 1
        sub, _ = restrict(claw_metric, witness)
        assert is_l2_isometric(sub)

    def test_gadget_matches_vertex_cover(self, k3):
        m = from_graph(lp_gadget(k3).graph)
        assert min_outlier_isometric_l2(m)[0] == min_vertex_cover(k3)[0]

    def test_empty_metric_needs_none(self):
        # there is no outlier set of size n - 1 = -1 to try; the empty set is the answer
        assert min_outlier_isometric_l2(from_matrix(np.zeros((0, 0)))) == (0, ())
        assert min_outlier_isometric_l2(from_matrix(np.zeros((0, 0))),
                                        OracleBudget(max_subset_size=0)) == (0, ())

    def test_exhaustive_small_graphs(self):
        nx = pytest.importorskip("networkx")
        from networkx.generators.atlas import graph_atlas_g
        checked = 0
        for g_nx in graph_atlas_g():
            n = g_nx.number_of_nodes()
            if n < 1 or n > 4:
                continue
            g = Graph(n=n, edges=tuple((int(u), int(v)) for u, v in g_nx.edges()))
            vc, _ = min_vertex_cover(g)
            m = from_graph(lp_gadget(g).graph)
            out, witness = min_outlier_isometric_l2(m)
            assert out == vc, f"graph atlas entry with {n} nodes, edges {g.edges}"
            checked += 1
        assert checked == 18  # 1 + 2 + 4 + 11 non-isomorphic graphs on 1..4 nodes

    def test_twenty_point_gadget_matches_vertex_cover(self):
        petersen = Graph(10, tuple((i, (i + 1) % 5) for i in range(5))
                         + tuple((i, i + 5) for i in range(5))
                         + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)))
        m = from_graph(lp_gadget(petersen).graph)
        size, witness = min_outlier_isometric_l2(m, OracleBudget(max_nodes=20))
        assert size == min_vertex_cover(petersen)[0] == 6
        assert is_l2_isometric(restrict(m, witness)[0])


class TestOptimalDistortion:
    def test_isometric_is_one(self, line_metric):
        assert optimal_distortion_l2(line_metric) == pytest.approx(1.0)

    def test_four_cycle_is_sqrt2(self):
        c4 = from_graph(Graph(n=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))))
        assert optimal_distortion_l2(c4, tol=1e-3) == pytest.approx(np.sqrt(2.0), abs=5e-3)

    def test_monotone_under_restriction(self):
        c4 = from_graph(Graph(n=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))))
        sub, _ = restrict(c4, {0})
        assert optimal_distortion_l2(sub) <= optimal_distortion_l2(c4) + 2e-3


class TestDistortionBracket:
    @pytest.mark.parametrize("graph,c2", [entry[1:] for entry in KNOWN_C2],
                             ids=[entry[0] for entry in KNOWN_C2])
    def test_witnesses_bracket_known_c2(self, monkeypatch, graph, c2):
        m = from_graph(graph)
        accepted, certified = [], []
        original = oracle.distortion_feasible

        def recording(table, c, start=None):
            verdict, g, bound = original(table, c, start)
            if verdict == "feasible":
                accepted.append(g)
            elif verdict == "infeasible":
                certified.append(bound)
            return verdict, g, bound

        monkeypatch.setattr(oracle, "distortion_feasible", recording)
        lower, upper = distortion_bracket(m, tol=1e-3)
        assert upper - lower <= 1e-3
        assert lower <= c2 + 1e-9 and all(b <= c2 + 1e-9 for b in certified)
        for g in accepted:
            assert distortion_stats(m, points_from_gram(g)).distortion >= c2 - 1e-9
        assert optimal_distortion_l2(m, tol=1e-3) == upper

    @pytest.mark.parametrize("graph,c2", [entry[1:] for entry in KNOWN_C2],
                             ids=[entry[0] for entry in KNOWN_C2])
    def test_one_centered_start_per_bracket(self, monkeypatch, graph, c2):
        # the warm bracket and the cold one of the public functions, each of
        # which factors the centered Gram again, hold c2 and overlap
        m = from_graph(graph)
        cold = cold_bracket(m, 1e-3)
        # the bracket builds one pair table, and with it one centered start
        tables = []
        init = outlier_sdp.PairTable.__init__
        monkeypatch.setattr(outlier_sdp.PairTable, "__init__",
                            lambda table, m_: tables.append(1) or init(table, m_))
        warm = distortion_bracket(m, tol=1e-3)
        for lower, upper in (cold, warm):
            assert lower <= c2 + 1e-9 and c2 <= upper + 1e-9
            assert upper - lower <= 1e-3
        assert max(cold[0], warm[0]) <= min(cold[1], warm[1])
        assert len(tables) == 1

    def test_warm_bisection_decides_where_the_cold_one_does_not(self, monkeypatch):
        # the cold bisection of this 15-node graph has an undecided run and
        # ends wider than tol; the warm one decides every run
        m = random_connected_graph(np.random.default_rng(0))
        assert m.n == 15
        cold = cold_bracket(m, 1e-3)
        verdicts = []
        original = oracle.distortion_feasible

        def recording(table, c, start=None):
            run = original(table, c, start)
            verdicts.append(run[0])
            return run

        monkeypatch.setattr(oracle, "distortion_feasible", recording)
        lower, upper = distortion_bracket(m, tol=1e-3)
        assert "undecided" not in verdicts
        assert upper - lower <= 1e-3
        assert max(cold[0], lower) <= min(cold[1], upper)

    def test_factorization_budget(self, monkeypatch):
        # a count repeats exactly, so a regression fails here without timing;
        # cold starts with a certificate check every 50 iterations make 1 540
        calls = []
        for name in ("eigh", "eigvalsh"):
            factor = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, factor=factor, **k: calls.append(1) or factor(*a, **k))
        for _, graph, _ in KNOWN_C2:
            distortion_bracket(from_graph(graph), tol=1e-3)
        assert len(calls) <= 900

    @pytest.mark.parametrize("name", ["C8", "K1,5"])
    def test_tol_below_the_float_spacing_returns(self, monkeypatch, name):
        # at tol = 1e-300 the bisection reaches adjacent floats lo < hi, whose
        # midpoint rounds onto one of them; it stops there instead of running
        # the same c again forever
        graph, c2 = next(entry[1:] for entry in KNOWN_C2 if entry[0] == name)
        runs = []
        original = oracle.distortion_feasible

        def recording(table, c, start=None):
            runs.append(c)
            assert len(runs) < 2000, f"the bisection does not stop: {len(set(runs))} distinct c"
            return original(table, c, start)

        monkeypatch.setattr(oracle, "distortion_feasible", recording)
        lower, upper = distortion_bracket(from_graph(graph), tol=1e-300)
        assert lower <= c2 + 1e-9 and c2 <= upper + 1e-9
        assert len(runs) == len(set(runs))


class TestTinyScales:
    @pytest.mark.parametrize("scale", [1e-20, 1e-30, 1e-60])
    def test_scaled_six_cycle_keeps_its_answers(self, scale):
        # the Schoenberg tolerance is relative to lam_max alone, so a metric
        # whose centered Gram is tiny is judged as it is at scale 1
        m = from_matrix(from_graph(cycle(6)).dist * scale)
        assert not is_l2_isometric(m)
        assert min_outlier_isometric_l2(m) == (2, (0, 1))
        lower, upper = distortion_bracket(m, tol=1e-3)
        assert lower - 1e-9 <= 1.5 <= upper + 1e-9
        assert upper - lower <= 1e-3


class TestHypercube:
    def test_k2_scale2_witness(self, single_edge):
        ok, witness = hypercube_embeddable(single_edge, 2)
        assert ok
        assert witness.shape[0] == 2
        assert int(np.abs(witness[0] - witness[1]).sum()) == 2

    def test_k3_scale1_not_bipartite(self, k3):
        assert hypercube_embeddable(k3, 1) == (False, None)

    def test_even_cycles_and_paths_at_scale1(self):
        c4 = Graph(n=4, edges=((0, 1), (1, 2), (2, 3), (3, 0)))
        c6 = Graph(n=6, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)))
        p4 = Graph(n=4, edges=((0, 1), (1, 2), (2, 3)))
        for g, cols in ((c4, 2), (c6, 3), (p4, 3)):
            ok, witness = hypercube_embeddable(g, 1)
            assert ok
            assert witness.shape[1] <= cols
            self._verify(g, 1, witness)

    def test_odd_cycle_scale2_is_embeddable(self):
        # C5 at scale 2 embeds (pentagon cuts); a sanity case for scale > 1
        c5 = Graph(n=5, edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
        ok, witness = hypercube_embeddable(c5, 2)
        assert ok
        self._verify(c5, 2, witness)

    def test_edge_l1_gadget_fails_both_scales(self, single_edge):
        g = l1_gadget(single_edge).graph
        assert hypercube_embeddable(g, 1)[0] is False
        ok, _ = hypercube_embeddable(g, 2, OracleBudget(max_columns=18))
        assert ok is False

    def test_empty_graph_needs_no_column(self):
        empty = Graph(n=0, edges=())
        assert oracle.hypercube_column_bound(empty, 1) == 0
        ok, witness = hypercube_embeddable(empty, 1)
        assert ok and witness.shape == (0, 0)

    def test_witness_reverifies(self, single_edge):
        ok, witness = hypercube_embeddable(single_edge, 1)
        assert ok
        self._verify(single_edge, 1, witness)

    @staticmethod
    def _verify(g: Graph, scale: int, witness: np.ndarray) -> None:
        m = from_graph(g)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                ham = int(np.abs(witness[x] - witness[y]).sum())
                assert ham == scale * int(m.dist[x, y])


class TestDwClasses:
    def test_edge_l1_gadget_single_class(self, single_edge):
        g = l1_gadget(single_edge).graph
        classes = dw_edge_classes(g)
        assert len(classes) == 1
        assert sum(len(c) for c in classes) == len(g.edges)

    def test_path_p3_two_classes(self):
        p3 = Graph(n=3, edges=((0, 1), (1, 2)))
        assert len(dw_edge_classes(p3)) == 2

    def test_triangle_one_class(self, k3):
        assert len(dw_edge_classes(k3)) == 1


class TestBudgets:
    def test_time_cap(self, single_edge):
        g8 = l1_gadget(single_edge).graph
        with pytest.raises(BudgetExceeded):
            hypercube_embeddable(g8, 2, OracleBudget(time_cap=1e-9))

    def test_subset_size_cap(self, claw_metric):
        with pytest.raises(BudgetExceeded):
            min_outlier_isometric_l2(claw_metric, OracleBudget(max_subset_size=0))

    def test_subset_size_cap_at_and_below_the_answer(self):
        m = from_graph(cycle(8))
        size, witness = min_outlier_isometric_l2(m)
        assert size >= 2
        assert min_outlier_isometric_l2(m, OracleBudget(max_subset_size=size)) == (size, witness)
        with pytest.raises(BudgetExceeded, match=f"size <= {size - 1} found"):
            min_outlier_isometric_l2(m, OracleBudget(max_subset_size=size - 1))

    @pytest.mark.parametrize("oracle_call", [
        lambda b: min_outlier_isometric_l2(from_graph(lp_gadget(cycle(5)).graph), b),
        lambda b: min_vertex_cover(cycle(9), b),
    ], ids=["outliers", "vertex-cover"])
    def test_time_cap_for_subset_searches(self, oracle_call):
        with pytest.raises(BudgetExceeded, match="time cap"):
            oracle_call(OracleBudget(time_cap=1e-9))

    @pytest.mark.parametrize("field,value", [
        ("time_cap", float("nan")), ("time_cap", float("inf")), ("time_cap", 0.0),
        ("time_cap", -1.0), ("max_nodes", -1), ("max_subset_size", -1), ("max_columns", -1),
    ])
    def test_bad_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            OracleBudget(**{field: value})

    def test_smallest_valid_caps(self):
        assert OracleBudget(max_nodes=0, max_subset_size=0, max_columns=0, time_cap=1e-9)

    def test_node_cap_for_hypercube(self):
        big = Graph(n=18, edges=tuple((i, i + 1) for i in range(17)))
        with pytest.raises(BudgetExceeded):
            hypercube_embeddable(big, 1, OracleBudget(max_nodes=16))
