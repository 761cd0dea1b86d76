import warnings

import numpy as np
import pytest

from metric_outliers import (
    Graph,
    MetricSpace,
    PointSet,
    distortion_stats,
    from_graph,
    from_matrix,
    normalize_expanding,
    restrict,
    verify_outlier_embedding,
)
from metric_outliers.errors import (
    AsymmetricMatrix,
    DisconnectedGraph,
    IndexOutOfRange,
    NonpositiveOffDiagonal,
    NonzeroDiagonal,
    SizeMismatch,
    TriangleViolation,
)
from metric_outliers import metric_core
from metric_outliers.hardness_gadgets import lp_gadget
from metric_outliers.metric_core import (
    metric_to_text,
    read_graph_text,
    read_metric_text,
    write_graph_text,
    write_metric_text,
)

from conftest import antenna_instance, integer_metric, point_metric


class TestFromMatrix:
    def test_one_point(self):
        m = from_matrix([[0.0]])
        assert m.n == 1

    def test_two_points(self):
        m = from_matrix([[0, 1], [1, 0]])
        assert m.n == 2
        assert m.dist[0, 1] == 1.0

    def test_triangle_violation_names_triple(self):
        with pytest.raises(TriangleViolation) as exc:
            from_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        assert exc.value.triple == (0, 1, 2)

    def test_asymmetric(self):
        with pytest.raises(AsymmetricMatrix):
            from_matrix([[0, 1], [2, 0]])

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal):
            from_matrix([[0.5, 1], [1, 0]])

    def test_nonpositive_off_diagonal(self):
        with pytest.raises(NonpositiveOffDiagonal):
            from_matrix([[0, 0], [0, 0]])

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_bad_triangle_tolerance_is_named(self, tmp_path, tol):
        bad = [[0, 1, 3], [1, 0, 1], [3, 1, 0]]  # d(0,2) > d(0,1) + d(1,2)
        with pytest.raises(ValueError, match="tol_tri"):
            from_matrix(bad, tol_tri=tol)
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1 3\n1 0 1\n3 1 0\n")
        with pytest.raises(ValueError, match="tol_tri"):
            read_metric_text(str(path), tol_tri=tol)

    def test_rejects_non_square(self):
        with pytest.raises(AsymmetricMatrix):
            from_matrix([[0, 1, 2], [1, 0, 1]])

    def test_huge_finite_distances_are_kept(self):
        # d + d^T overflows above about 8.99e307, and (d + d^T) / 2 stored inf
        # there; the triangle sums 1e308 + 1e308 overflow too, without a warning
        d = np.array([[0.0, 1.0, 1e308, 1.7e308],
                      [1.0 + 2.0 ** -50, 0.0, 1e308, 1.7e308],
                      [1e308, 1e308, 0.0, 1e308],
                      [1.7e308, 1.7e308, 1e308, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = from_matrix(d)
        assert np.isfinite(m.dist).all() and np.array_equal(m.dist, m.dist.T)
        assert m.dist[0, 2] == 1e308 and m.dist[0, 3] == 1.7e308
        with np.errstate(over="ignore"):
            mean = (d + d.T) / 2.0
        fits = np.isfinite(mean)  # where the sum fits, the mean is the one it always was
        assert np.array_equal(m.dist[fits], mean[fits])

    def test_huge_asymmetry_is_named_without_warnings(self):
        # d - d^T overflows to inf, and numpy warned before the error was raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AsymmetricMatrix, match=r"d\[0\]\[1\]=1e\+308"):
                from_matrix([[0.0, 1e308], [-1e308, 0.0]])


def _ordered_scan(d, tol_tri):
    """Reference triangle check: every j, then (i, k) row-major; the first
    offending (i, j, k) and its slack, or None."""
    d = np.asarray(d, dtype=float)
    for j in range(d.shape[0]):
        slack = d - (d[:, j][:, None] + d[j, :][None, :])
        worst = float(slack.max(initial=0.0))
        if worst > tol_tri:
            i, k = np.unravel_index(int(np.argmax(slack)), slack.shape)
            return (int(i), j, int(k)), worst
    return None


def _tight_triple(d):
    """Some (i, j, k) of distinct points with d[i,k] == d[i,j] + d[j,k], else (0, 1, 2)."""
    n = d.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3 and d[i, k] == d[i, j] + d[j, k]:
                    return i, j, k
    return 0, 1, 2


class TestTriangleCheck:
    """from_matrix's half pass against the ordered scan over all triples."""

    def assert_matches_scan(self, d, tol_tri):
        want = _ordered_scan(d, tol_tri)
        if want is None:
            np.testing.assert_array_equal(from_matrix(d, tol_tri=tol_tri).dist, d)
            return
        with pytest.raises(TriangleViolation) as exc:
            from_matrix(d, tol_tri=tol_tri)
        assert (exc.value.triple, exc.value.slack) == want

    def perturbed(self, d, i, k, value):
        d = d.copy()
        d[i, k] = d[k, i] = value
        return d

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny(self, n):
        d = np.ones((n, n)) - np.eye(n)
        self.assert_matches_scan(d, 0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_euclidean(self, seed):
        rng = np.random.default_rng(seed)
        d = point_metric(rng, int(rng.integers(3, 40)), dims=int(rng.integers(1, 4))).dist
        self.assert_matches_scan(d, 1e-9)
        n = d.shape[0]
        for i, j, k in ((0, 1, 2), (n - 2, 0, n - 1)):  # the first and the last pair k > i
            bound = d[i, j] + d[j, k] + 1e-9
            for value in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, np.inf), 1.3 * bound):
                self.assert_matches_scan(self.perturbed(d, i, k, value), 1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_integer_tight_triples_at_zero_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        d = integer_metric(rng, int(rng.integers(3, 30)), hi=4).dist
        i, j, k = _tight_triple(d)
        self.assert_matches_scan(d, 0.0)
        bound = d[i, j] + d[j, k]
        for value in (np.nextafter(bound, 0.0), np.nextafter(bound, np.inf), bound + 1.0):
            for tol_tri in (0.0, 1e-9):
                self.assert_matches_scan(self.perturbed(d, i, k, value), tol_tri)

    def test_tolerance_plus_and_minus_one_ulp(self):
        # slack exactly at tol passes, one ulp of tol above fails: tol at an
        # exactly representable slack, so the arithmetic is exact
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        d = self.perturbed(d, 0, 2, 2.25)
        for tol_tri in (0.25, np.nextafter(0.25, 0.0), np.nextafter(0.25, 1.0)):
            self.assert_matches_scan(d, tol_tri)
        with pytest.raises(TriangleViolation) as exc:
            from_matrix(d, tol_tri=np.nextafter(0.25, 0.0))
        assert exc.value.triple == (0, 1, 2) and exc.value.slack == 0.25
        from_matrix(d, tol_tri=0.25)


class TestFromGraph:
    def test_path_distance(self):
        m = from_graph(Graph(n=3, edges=((0, 1), (1, 2))))
        assert m.dist[0, 2] == 2.0

    def test_claw_bfs(self, claw_metric):
        assert claw_metric.dist[0, 1] == 1.0
        assert claw_metric.dist[1, 2] == 2.0
        assert claw_metric.dist[2, 3] == 2.0

    def test_single_edge_gadget_distances(self, single_edge):
        # complete graph on 4 nodes minus one edge: that pair at 2, rest at 1
        gm = lp_gadget(single_edge)
        m = from_graph(gm.graph)
        assert m.dist[1, 3] == 2.0
        others = [m.dist[i, j] for i in range(4) for j in range(i + 1, 4) if (i, j) != (1, 3)]
        assert all(v == 1.0 for v in others)

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            from_graph(Graph(n=3, edges=((0, 1),)))

    def test_output_passes_validation_with_zero_tol(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6]
            g = Graph(n=n, edges=tuple(edges))
            try:
                m = from_graph(g)
            except DisconnectedGraph:
                continue
            from_matrix(m.dist, tol_tri=0.0)

    def test_graph_rejects_self_loop_and_duplicates(self):
        with pytest.raises(IndexOutOfRange):
            Graph(n=2, edges=((0, 0),))
        with pytest.raises(IndexOutOfRange):
            Graph(n=2, edges=((0, 1), (1, 0)))


class TestRestrict:
    def test_empty_outlier_set_is_identity(self, claw_metric):
        sub, kept = restrict(claw_metric, ())
        assert kept == (0, 1, 2, 3)
        np.testing.assert_array_equal(sub.dist, claw_metric.dist)

    def test_stretched_pair_minus_far_point_is_equilateral(self, stretched_pair_metric):
        sub, kept = restrict(stretched_pair_metric, {3})
        assert kept == (0, 1, 2)
        off = sub.dist[np.triu_indices(3, 1)]
        np.testing.assert_array_equal(off, np.ones(3))

    def test_all_but_one(self, claw_metric):
        sub, kept = restrict(claw_metric, {0, 1, 2})
        assert sub.n == 1 and kept == (3,)

    def test_out_of_range(self, claw_metric):
        with pytest.raises(IndexOutOfRange):
            restrict(claw_metric, {7})


class TestDistortionStats:
    def test_identity_line(self, line_metric):
        e = PointSet(points=np.array([[0.0], [1.0], [2.0]]), p=2.0)
        assert distortion_stats(line_metric, e).distortion == pytest.approx(1.0)

    def test_uniform_scaling_invariance(self, line_metric):
        e = PointSet(points=2.0 * np.array([[0.0], [1.0], [2.0]]), p=2.0)
        assert distortion_stats(line_metric, e).distortion == pytest.approx(1.0)

    def test_ratio_enumeration(self):
        m = from_matrix([[0, 1, 3], [1, 0, 2], [3, 2, 0]])
        e = PointSet(points=np.array([[0.0], [1.0], [2.0]]), p=2.0)
        stats = distortion_stats(m, e)
        assert stats.max_ratio == pytest.approx(1.0)
        assert stats.min_ratio == pytest.approx(0.5)
        assert stats.distortion == pytest.approx(2.0)

    def test_size_mismatch(self, line_metric):
        with pytest.raises(SizeMismatch):
            distortion_stats(line_metric, PointSet(points=np.zeros((2, 1)), p=2.0))

    def test_restriction_consistency(self):
        # stats on the restricted embedding equal stats over surviving pairs
        rng = np.random.default_rng(3)
        for trial in range(10):
            m = point_metric(rng, 8)
            pts = rng.normal(size=(8, 3))
            e = PointSet(points=pts, p=2.0)
            drop = {int(rng.integers(0, 8))}
            sub, kept = restrict(m, drop)
            sub_e = PointSet(points=pts[list(kept)], p=2.0)
            stats = distortion_stats(sub, sub_e)
            from metric_outliers.lp_geometry import pairwise_distances
            full = pairwise_distances(e)
            ratios = [full[x, y] / m.dist[x, y] for i, x in enumerate(kept)
                      for y in kept[i + 1:]]
            assert stats.max_ratio == pytest.approx(max(ratios))
            assert stats.min_ratio == pytest.approx(min(ratios))

    def test_normalize_expanding(self):
        rng = np.random.default_rng(4)
        m = integer_metric(rng, 7)
        e = PointSet(points=rng.normal(size=(7, 4)), p=2.0)
        scaled, stats = normalize_expanding(m, e)
        assert stats.min_ratio == pytest.approx(1.0, abs=1e-12)
        assert distortion_stats(m, scaled).distortion >= 1.0


class TestVerifyOutlierEmbedding:
    def test_claw_minus_leaf_on_a_line(self, claw_metric):
        e = PointSet(points=np.array([[0.0], [-1.0], [1.0]]), p=2.0)
        assert verify_outlier_embedding(claw_metric, {3}, e, c=1.0, tol=1e-9)

    def test_claw_needs_an_outlier(self, claw_metric):
        # no 4-point placement achieves c=1 (the oracle says min outlier is 1)
        from metric_outliers import is_l2_isometric
        assert not is_l2_isometric(claw_metric)
        e = PointSet(points=np.array([[0.0, 0], [1, 0], [0, 1], [-1, 0]]), p=2.0)
        assert not verify_outlier_embedding(claw_metric, (), e, c=1.0, tol=1e-9)

    def test_vacuous_when_everything_removed(self, claw_metric):
        e = PointSet(points=np.zeros((0, 1)), p=2.0)
        assert verify_outlier_embedding(claw_metric, {0, 1, 2, 3}, e, c=1.0)


class TestTextFormats:
    def test_metric_roundtrip(self, tmp_path, claw_metric):
        path = tmp_path / "m.txt"
        write_metric_text(str(path), claw_metric)
        back = read_metric_text(str(path))
        np.testing.assert_array_equal(back.dist, claw_metric.dist)

    def test_metric_text_shape(self, line_metric):
        text = metric_to_text(line_metric)
        assert text.splitlines()[0] == "3"
        assert len(text.splitlines()) == 4

    def test_metric_rows_may_split_across_lines(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3\n0 1\n2 1 0 1\n2\n1 0\n")
        back = read_metric_text(str(path))
        np.testing.assert_array_equal(back.dist, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_metric_non_numeric_token(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n0 1\nx 0\n")
        with pytest.raises(ValueError, match="'x'"):
            read_metric_text(str(path))

    @pytest.mark.parametrize("where", [(0, 2), (1, 1)], ids=["above", "diagonal"])
    def test_non_numeric_token_is_named_wherever_it_stands(self, tmp_path, where):
        # the test above has its bad token below the diagonal
        rows = [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]
        rows[where[0]][where[1]] = "bad"
        path = tmp_path / "m.txt"
        path.write_text("3\n" + "\n".join(" ".join(r) for r in rows) + "\n")
        with pytest.raises(ValueError, match="'bad'"):
            read_metric_text(str(path))

    def test_graph_roundtrip(self, tmp_path, claw_graph):
        path = tmp_path / "g.txt"
        write_graph_text(str(path), claw_graph)
        back = read_graph_text(str(path))
        assert back == claw_graph


def _full_parse(path) -> MetricSpace:
    """The reader converting every token: all n^2 of them, then from_matrix."""
    with open(path) as fh:
        tokens = fh.read().split()
    n = int(tokens[0])
    return from_matrix(np.fromiter(map(float, tokens[1:]), float, count=n * n).reshape(n, n))


class TestMirroredRead:
    def assert_bitwise_full_parse(self, path):
        got, want = read_metric_text(str(path)), _full_parse(str(path))
        assert got.dist.tobytes() == want.dist.tobytes()
        return got

    def test_planted_metric(self, tmp_path):
        m, _, _ = antenna_instance(np.random.default_rng(3), 40, 5)
        path = tmp_path / "m.txt"
        write_metric_text(str(path), m)
        assert self.assert_bitwise_full_parse(path).dist.tobytes() == m.dist.tobytes()

    def test_mirror_in_another_spelling(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3\n0 1 2.0\n1.0 0 1e0\n2 1 0.0\n")
        m = self.assert_bitwise_full_parse(path)
        np.testing.assert_array_equal(m.dist, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    def test_mirror_off_by_an_accepted_asymmetry(self, tmp_path):
        # from_matrix stores the mean of the two entries, so both are read
        d = point_metric(np.random.default_rng(4), 12).dist.copy()
        d[7, 2] += 1e-13
        d[11, 0] -= 1e-13
        path = tmp_path / "m.txt"
        write_metric_text(str(path), MetricSpace(n=12, dist=d))
        m = self.assert_bitwise_full_parse(path)
        assert m.dist[7, 2] != d[2, 7] and m.dist[7, 2] == m.dist[2, 7]

    def test_symmetric_file_converts_each_pair_once(self, tmp_path, monkeypatch):
        n = 40
        path = tmp_path / "m.txt"
        write_metric_text(str(path), integer_metric(np.random.default_rng(5), n))
        converted = []

        def counting_float(token):
            converted.append(token)
            return float(token)

        # the reader's float is the module's name; from_matrix is left out of the count
        monkeypatch.setattr(metric_core, "float", counting_float, raising=False)
        monkeypatch.setattr(metric_core, "from_matrix", lambda mat, tol_tri: mat)
        read_metric_text(str(path))
        assert len(converted) == n * (n + 1) // 2  # 820, not 1600


def _scalar_metric_to_text(m: MetricSpace) -> str:
    """The reference formatter: repr of each entry as a Python float."""
    lines = [str(m.n)]
    for row in m.dist:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def test_metric_text_bytes_match_the_scalar_formatter():
    rng = np.random.default_rng(6)
    d = rng.uniform(1e-3, 1e3, size=(5, 5))
    d[0, 1:] = [1e-300, 1e300, 0.1 + 0.2, 5e-324]
    d[1:, 0] = [1.7976931348623157e308, 2.0 / 3.0, 1e16, 123456789.0]
    np.fill_diagonal(d, 0.0)
    m = MetricSpace(n=5, dist=d)  # not a metric: only the formatter is under test
    assert metric_to_text(m) == _scalar_metric_to_text(m)
    pm, _, _ = antenna_instance(rng, 30, 3)
    assert metric_to_text(pm) == _scalar_metric_to_text(pm)
