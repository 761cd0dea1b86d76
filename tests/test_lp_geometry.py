import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from metric_outliers import (
    PointSet,
    centered_gram,
    distortion_stats,
    from_matrix,
    is_l2_isometric,
    pairwise_distances,
    points_from_gram,
    verify_outlier_embedding,
)
from metric_outliers.errors import DimMismatch, InvalidP, NotPSD
from metric_outliers.lp_geometry import (
    condensed_distances,
    read_embedding,
    schoenberg_test,
    write_embedding,
)

from conftest import gram_of, point_metric


def lp_distance(a, b, p: float) -> float:
    """The lp distance of two points, measured by pairwise_distances."""
    return float(pairwise_distances(PointSet(points=[a, b], p=p))[0, 1])


class TestLpDistance:
    def test_pythagoras(self):
        assert lp_distance([0, 0], [3, 4], 2.0) == pytest.approx(5.0)

    def test_cityblock(self):
        assert lp_distance([0, 0], [3, 4], 1.0) == pytest.approx(7.0)

    def test_fractional_p(self):
        assert lp_distance([0, 0], [1, 1], 1.5) == pytest.approx(2.0 ** (2.0 / 3.0))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            PointSet(points=[0.0, 1.0], p=2.0)
        with pytest.raises(DimMismatch):
            PointSet(points=np.zeros((2, 0)), p=2.0)

    def test_invalid_p(self):
        with pytest.raises(InvalidP):
            PointSet(points=np.zeros((1, 1)), p=0.5)
        with pytest.raises(InvalidP):
            PointSet(points=np.zeros((1, 1)), p=float("inf"))

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=5),
        st.lists(st.floats(-100, 100), min_size=1, max_size=5),
        st.lists(st.floats(-100, 100), min_size=1, max_size=5),
        st.floats(1.0, 8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_triangle_inequality(self, a, b, c, p):
        dims = min(len(a), len(b), len(c))
        a, b, c = a[:dims], b[:dims], c[:dims]
        ab = lp_distance(a, b, p)
        bc = lp_distance(b, c, p)
        ac = lp_distance(a, c, p)
        assert ac <= ab + bc + 1e-9 * max(1.0, ab + bc)


def _cdist_reference(ps):
    """The all-pairs matrix as cdist gives it, symmetrized."""
    if ps.p == 2.0:
        d = cdist(ps.points, ps.points, metric="euclidean")
    elif ps.p == 1.0:
        d = cdist(ps.points, ps.points, metric="cityblock")
    else:
        d = cdist(ps.points, ps.points, metric="minkowski", p=ps.p)
    return (d + d.T) / 2.0


class TestDistanceKernel:
    """Every distance measurement equals the cdist reference bit for bit."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 31])
    def test_matrix_and_condensed(self, n, p):
        ps = PointSet(points=np.random.default_rng(n).normal(size=(n, 3)), p=p)
        ref = _cdist_reference(ps)
        np.testing.assert_array_equal(pairwise_distances(ps), ref)
        np.testing.assert_array_equal(condensed_distances(ps), ref[np.triu_indices(n, 1)])

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    def test_distortion_and_verification(self, p):
        rng = np.random.default_rng(7)
        m = point_metric(rng, 24)
        for _ in range(3):
            e = PointSet(points=rng.normal(size=(24, 4)), p=p)
            iu = np.triu_indices(24, 1)
            ratios = _cdist_reference(e)[iu] / m.dist[iu]
            stats = distortion_stats(m, e)
            assert (stats.max_ratio, stats.min_ratio) == (ratios.max(), ratios.min())
            e = PointSet(points=e.points / ratios.min(), p=p)
            img, src = _cdist_reference(e)[iu], m.dist[iu]
            top = (img / src).max()
            for c in (top, np.nextafter(top, 0.0), 0.99 * top):
                for tol in (0.0, 1e-9):
                    want = bool(np.all((img >= src * (1.0 - tol)) & (img <= c * src * (1.0 + tol))))
                    assert verify_outlier_embedding(m, (), e, c, tol=tol) == want


class TestCenteredGram:
    def test_two_points(self):
        m = from_matrix([[0, 2], [2, 0]])
        b = centered_gram(m)
        np.testing.assert_allclose(b, [[1, -1], [-1, 1]], atol=1e-12)
        np.testing.assert_allclose(np.linalg.eigvalsh(b), [0.0, 2.0], atol=1e-12)

    def test_one_point(self):
        b = centered_gram(from_matrix([[0.0]]))
        np.testing.assert_array_equal(b, [[0.0]])

    def test_claw_not_psd(self, claw_metric):
        vals = np.linalg.eigvalsh(centered_gram(claw_metric))
        assert vals[0] < -1e-6


class TestSchoenberg:
    def test_line_is_isometric(self, line_metric):
        assert is_l2_isometric(line_metric)

    def test_claw_is_not(self, claw_metric):
        assert not is_l2_isometric(claw_metric)

    def test_stretched_pair_is_not(self, stretched_pair_metric):
        assert not is_l2_isometric(stretched_pair_metric)

    def test_point_metrics_are_isometric(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            assert is_l2_isometric(point_metric(rng, int(rng.integers(2, 10))))

    def test_batch_rows_are_the_one_row_case(self, claw_metric, stretched_pair_metric):
        rng = np.random.default_rng(3)
        line4 = from_matrix([[abs(i - j) for j in range(4)] for i in range(4)])
        metrics = [claw_metric, line4, stretched_pair_metric, point_metric(rng, 4)]
        d2 = np.stack([m.dist ** 2 for m in metrics])
        assert schoenberg_test(d2).tolist() == [is_l2_isometric(m) for m in metrics]
        assert schoenberg_test(np.zeros((2, 0, 0))).tolist() == [True, True]

    def test_lam_ref_scales_the_tolerance(self, stretched_pair_metric):
        vals = np.linalg.eigvalsh(centered_gram(stretched_pair_metric))
        d2 = stretched_pair_metric.dist[None] ** 2
        assert not schoenberg_test(d2, lam_ref=vals[-1])[0]
        assert schoenberg_test(d2, lam_ref=-vals[0] / 1e-8 * 2)[0]


class TestPointsFromGram:
    def test_two_antipodal(self):
        ps = points_from_gram(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        d = pairwise_distances(ps)
        assert d[0, 1] == pytest.approx(2.0)

    def test_zero_matrix(self):
        ps = points_from_gram(np.zeros((3, 3)))
        assert np.allclose(ps.points, 0.0)

    def test_claw_gram_rejected(self, claw_metric):
        with pytest.raises(NotPSD):
            points_from_gram(centered_gram(claw_metric))

    def test_roundtrip_random_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = rng.normal(size=(n, n))
            g = a @ a.T
            ps = points_from_gram(g)
            np.testing.assert_allclose(gram_of(ps.points), g, atol=1e-8 * max(1, g.max()))

    def test_isometric_metric_embeds_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m = point_metric(rng, int(rng.integers(2, 9)))
            ps = points_from_gram(centered_gram(m))
            assert distortion_stats(m, ps).distortion == pytest.approx(1.0, abs=1e-8)


def test_embedding_json_roundtrip(tmp_path):
    ps = PointSet(points=np.array([[0.5, -1.25], [3.0, 4.0]]), p=1.5)
    write_embedding(str(tmp_path / "e.json"), ps)
    back = read_embedding(str(tmp_path / "e.json"))
    assert back.p == ps.p
    np.testing.assert_array_equal(back.points, ps.points)


def _factor_digest(grams) -> str:
    h = hashlib.sha256()
    for g in grams:
        pts = points_from_gram(g).points
        h.update(repr(pts.shape).encode())
        h.update(pts.tobytes())
    return h.hexdigest()


def digest_grams() -> list:
    """Seeded Grams: full rank, rank 3 of 7 points, a repeated eigenvalue, the
    centered Gram of points, identity, zero, 1x1 and 0x0."""
    rng = np.random.default_rng(25)
    full, low = rng.normal(size=(6, 6)), rng.normal(size=(7, 3))
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    repeated = (q * [3.0, 3.0, 1.0, 1.0, 0.0]) @ q.T
    return [gram_of(full), gram_of(low), (repeated + repeated.T) / 2.0,
            centered_gram(point_metric(rng, 8)), np.eye(4), np.zeros((3, 3)),
            np.array([[2.5]]), np.zeros((0, 0))]


def test_points_from_gram_digest():
    """The factor's bytes on digest_grams are pinned. The digest holds for one
    numpy/LAPACK build; on another, re-pin it from a tree whose factor is
    known good."""
    assert _factor_digest(digest_grams()) == "4ff57162467c3f9766dc48deea10f7b7d1e94af0ec0c9478fd5ab4263e7c2f9a"


def spread_gram() -> np.ndarray:
    """The centered Gram of (0, 0), (1, 0), (2, 0) and (1, 1e-5): eigenvalues 2
    and 7.5e-11, the small one real and far above eigh's rounding."""
    x = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1e-5]])
    return centered_gram(from_matrix(cdist(x, x), tol_tri=1e-9))


def test_factor_keeps_the_eigenvalues_above_the_floor():
    # one column per eigenvalue above n * eps * lam_max, at least one; against
    # the factor that keeps every eigenvalue, each squared distance moves by
    # at most 2 * n^2 * eps * lam_max, and the digest's distances by 1e-12
    _, low, _, _, eye, zero, one, empty = digest_grams()
    eps, spread = np.finfo(float).eps, spread_gram()
    for g in (low, eye, zero, one, empty, spread):
        n = len(g)
        vals, vecs = np.linalg.eigh(g)
        lam_max = vals.max() if n else 0.0
        pts = points_from_gram(g).points
        assert pts.shape == (n, max(np.count_nonzero(vals > n * eps * lam_max), 1))
        full = vecs * np.sqrt(np.clip(vals, 0.0, None))
        moved = np.abs(cdist(pts, pts, "sqeuclidean") - cdist(full, full, "sqeuclidean"))
        assert (moved <= 2 * n * n * eps * lam_max).all()
        if g is not spread:  # its 1e-5 pair moves by rounding, 1e-7 relative
            np.testing.assert_allclose(cdist(pts, pts), cdist(full, full), rtol=1e-12, atol=0.0)

