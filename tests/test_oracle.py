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
from metric_outliers import oracle
from metric_outliers.errors import BudgetExceeded
from metric_outliers.hardness_gadgets import l1_gadget, lp_gadget
from metric_outliers.oracle import OracleBudget

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

        def recording(m_, c):
            verdict, g, bound = original(m_, c)
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

    def test_node_cap_for_hypercube(self):
        big = Graph(n=18, edges=tuple((i, i + 1) for i in range(17)))
        with pytest.raises(BudgetExceeded):
            hypercube_embeddable(big, 1, OracleBudget(max_nodes=16))
