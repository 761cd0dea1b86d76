import hashlib
import math

import numpy as np
import pytest

from metric_outliers import (
    BourgainParams,
    bourgain_embed,
    frechet_coordinates,
    from_matrix,
)

from conftest import antenna_instance, integer_metric


def test_single_point_is_origin():
    m = from_matrix([[0.0]])
    emb, stats = bourgain_embed(m, BourgainParams(seed=0))
    assert np.allclose(emb.points, 0.0)
    assert stats.distortion == 1.0


def test_two_points_are_isometric():
    m = from_matrix([[0, 3.5], [3.5, 0]])
    emb, stats = bourgain_embed(m, BourgainParams(seed=2))
    assert stats.distortion == pytest.approx(1.0, abs=1e-12)


def test_deterministic_given_seed(line_metric):
    a, _ = bourgain_embed(line_metric, BourgainParams(seed=42))
    b, _ = bourgain_embed(line_metric, BourgainParams(seed=42))
    np.testing.assert_array_equal(a.points, b.points)
    c, _ = bourgain_embed(line_metric, BourgainParams(seed=43))
    assert c.points.shape == a.points.shape


def test_coordinates_are_one_lipschitz_exactly():
    # integer metrics satisfy the triangle inequality exactly in floats,
    # so the Lipschitz check needs no tolerance at all
    rng = np.random.default_rng(9)
    for trial in range(10):
        m = integer_metric(rng, int(rng.integers(4, 33)))
        coords = frechet_coordinates(m, BourgainParams(repetitions_per_scale=6, seed=trial))
        diff = np.abs(coords[:, None, :] - coords[None, :, :])
        assert np.all(diff <= m.dist[:, :, None])


def test_output_is_expanding():
    rng = np.random.default_rng(10)
    for trial in range(5):
        m = integer_metric(rng, 12)
        emb, stats = bourgain_embed(m, BourgainParams(seed=trial))
        assert stats.min_ratio == pytest.approx(1.0, abs=1e-12)


def test_default_repetitions():
    params = BourgainParams()
    assert params.resolved_repetitions(32) == math.ceil(24 * math.log(32))
    with pytest.raises(ValueError):
        BourgainParams(repetitions_per_scale=0).resolved_repetitions(4)


def test_distortion_improves_with_repetitions():
    # median measured distortion at 4r should not sit above the median at r
    # by more than 10%; a draw that separates some pair by no coordinate has
    # unbounded distortion
    from metric_outliers.errors import ZeroSourceDistance

    def measured(m, reps, seed):
        try:
            _, stats = bourgain_embed(m, BourgainParams(repetitions_per_scale=reps, seed=seed))
            return stats.distortion
        except ZeroSourceDistance:
            return float("inf")

    rng = np.random.default_rng(21)
    m = integer_metric(rng, 24)
    lo = [measured(m, 2, seed) for seed in range(20)]
    hi = [measured(m, 8, seed) for seed in range(20)]
    assert np.median(hi) <= np.median(lo) * 1.10


def test_log_bound_on_moderate_instance():
    rng = np.random.default_rng(31)
    m = integer_metric(rng, 32)
    hits = 0
    for seed in range(10):
        _, stats = bourgain_embed(m, BourgainParams(seed=seed))
        hits += stats.distortion <= 4.0 * math.log(32)
    assert hits >= 9


def _coords_digest(coords: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(repr(coords.shape).encode())
    h.update(np.ascontiguousarray(coords).tobytes())
    return h.hexdigest()


def test_frechet_coordinates_match_pinned_digests():
    # each coordinate is a min over exact distances, so the bytes do not
    # depend on the BLAS build
    m = integer_metric(np.random.default_rng(4), 30)
    assert _coords_digest(frechet_coordinates(m, BourgainParams(seed=7))) == (
        "cbcc7c012d45737fe3cb1d7cf720e90a5930eba7d6afeee7bf901d4877f6a95a")
    m, _, _ = antenna_instance(np.random.default_rng(5), 192, 8)
    assert _coords_digest(frechet_coordinates(m, BourgainParams(repetitions_per_scale=8, seed=3))) == (
        "c4ebe1368dcb74f728f3010a2d821238650f5dee923a68287f536774834f2f17")
