"""Seeded properties on small metrics, each checked against an independent answer.

Inputs are integer metrics (min-plus closures of random integer weights),
planted metrics (conftest's 3-D point core plus antennas) and the lp gadgets
of random graphs, with at most 9 points, and point sets in R^d, some with
one axis squashed. Every example is drawn derandomized, with no example database, so a run is the
same on every machine.
"""
import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from itertools import combinations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from metric_outliers import (Graph, centered_gram, distortion_bracket, from_graph, from_matrix,
                             points_from_gram)
from metric_outliers.cli import dispatch
from metric_outliers.hardness_gadgets import lp_gadget
from metric_outliers.metric_core import write_metric_text

from conftest import planted_instance

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def integer_metrics(draw):
    """The shortest-path metric of integer weights 1..9 on 2..9 points."""
    n = draw(st.integers(2, 9))
    w = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    w[iu] = draw(st.lists(st.integers(1, 9), min_size=len(iu[0]), max_size=len(iu[0])))
    w = w + w.T
    for j in range(n):
        w = np.minimum(w, w[:, j][:, None] + w[j, :][None, :])
    return from_matrix(w, tol_tri=0.0)


@st.composite
def gadget_metrics(draw):
    """The lp gadget of a random graph on 1..4 nodes: 2..8 points."""
    n = draw(st.integers(1, 4))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(e for e, k in zip(pairs, keep) if k)
    return from_graph(lp_gadget(Graph(n, edges)).graph)


def solve(m, gamma, mode):
    """The JSON that `outliers solve --c 1` prints on m."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "metric.txt")
        write_metric_text(path, m)
        out = io.StringIO()
        with redirect_stdout(out):
            code = dispatch(["outliers", "solve", "--metric", path, "--c", "1",
                             "--gamma", repr(gamma), "--mode", mode])
    assert code == 0
    return json.loads(out.getvalue())


@PROPERTY
@given(st.one_of(integer_metrics(), gadget_metrics()), st.sampled_from([1.1, 1.5]),
       st.sampled_from(["weak", "strong"]))
def test_solve_survivors_are_within_gamma_c(m, gamma, mode):
    # the printed embedding, re-measured by scipy, keeps every survivor pair
    # within [d, gamma * c * d] up to a relative 1e-6
    payload = solve(m, gamma, mode)
    survivors = [x for x in range(m.n) if x not in set(payload["K"])]
    points = np.array(payload["embedding"]["points"], dtype=float).reshape(len(survivors), -1)
    if len(survivors) < 2:
        return
    iu = np.triu_indices(len(survivors), k=1)
    ratio = cdist(points, points)[iu] / m.dist[np.ix_(survivors, survivors)][iu]
    assert ratio.min() >= 1.0 - 1e-6, (payload["K"], ratio.min())
    assert ratio.max() <= gamma * (1.0 + 1e-6), (payload["K"], ratio.max())


@PROPERTY
@given(st.integers(1, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.floats(-100.0, 100.0)] * d), min_size=2, max_size=9)))
def test_bracket_of_euclidean_points_is_one(points):
    # c2 = 1 for any metric of distinct points in R^d
    x = np.array(points, dtype=float)
    dist = cdist(x, x)
    assume(dist[np.triu_indices(len(x), k=1)].min() > 0.0)
    assert distortion_bracket(from_matrix(dist, tol_tri=1e-9)) == (1.0, 1.0)


@PROPERTY
@given(st.integers(2, 4).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-100, 100)] * d), min_size=2, max_size=9)))
def test_factor_of_squashed_points_keeps_their_distances(points):
    # the last axis scaled by 1e-5 carries an eigenvalue near 1e-10 * lam_max,
    # which the factor keeps: each squared distance is off by rounding only,
    # a few n^2 * eps * lam_max, and the width is at most the dimension
    x = np.array(points, dtype=float)
    x[:, -1] *= 1e-5
    dist = cdist(x, x)
    n = len(x)
    assume(dist[np.triu_indices(n, k=1)].min() > 0.0)
    g = centered_gram(from_matrix(dist, tol_tri=1e-9))
    pts = points_from_gram(g).points
    assert pts.shape[1] <= x.shape[1]
    moved = np.abs(cdist(pts, pts, "sqeuclidean") - dist ** 2).max()
    assert moved <= 8 * n * n * np.finfo(float).eps * np.linalg.eigvalsh(g)[-1], moved

@PROPERTY
@given(st.one_of(st.integers(0, 2 ** 32 - 1).map(lambda seed: planted_instance(seed)[0])
                 .filter(lambda m: m.n <= 9), integer_metrics()),
       st.sampled_from([1.1, 1.5]), st.sampled_from(["weak", "strong"]))
def test_scaling_the_metric_scales_the_embedding(m, gamma, mode):
    # every decision is relative, so a metric scaled by 2^j gets the same K, k,
    # k0 and width, and the same points times 2^j, bit for bit
    base = solve(m, gamma, mode)
    points = np.array(base["embedding"]["points"], dtype=float)
    for j in (-3, 4):
        scaled = solve(from_matrix(m.dist * 2.0 ** j, tol_tri=1e-9), gamma, mode)
        for key in ("K", "k"):
            assert scaled[key] == base[key], (j, key)
        assert scaled["solver"]["k0"] == base["solver"]["k0"], j
        got = np.array(scaled["embedding"]["points"], dtype=float)
        assert got.shape == points.shape, j
        np.testing.assert_array_equal(got, points * 2.0 ** j)
