"""Shared instance generators and fixtures."""
import numpy as np
import pytest
from scipy.spatial.distance import cdist

from metric_outliers import (
    BourgainParams,
    CompositionInputs,
    Graph,
    MetricSpace,
    PointSet,
    bourgain_embed,
    from_graph,
    from_matrix,
    normalize_expanding,
    restrict,
)


def integer_metric(rng: np.random.Generator, n: int, hi: int = 10) -> MetricSpace:
    """Random integer-valued metric via min-plus closure; the stored floats
    satisfy the triangle inequality exactly, so exact assertions are safe."""
    w = rng.integers(1, hi, size=(n, n)).astype(float)
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    for j in range(n):
        w = np.minimum(w, w[:, j][:, None] + w[j, :][None, :])
    np.fill_diagonal(w, 0.0)
    return from_matrix(w, tol_tri=0.0)


def point_metric(rng: np.random.Generator, n: int, dims: int = 3) -> MetricSpace:
    pts = rng.normal(size=(n, dims))
    return from_matrix(cdist(pts, pts), tol_tri=1e-9)


def gram_of(points: np.ndarray) -> np.ndarray:
    """The Gram matrix V V^T of row vectors, exactly symmetric."""
    g = points @ points.T
    return (g + g.T) / 2.0


def composition_instance_with_s(rng: np.random.Generator, m: MetricSpace,
                                s: tuple[int, ...], p: float, seed: int,
                                reps: int = 4) -> CompositionInputs:
    """Bourgain embeddings for alpha_S and alpha_X over a given subset S.

    If the independent alpha_S run lands above alpha_X's distortion, fall back
    to the restriction of alpha_X renormalized on S, which is never coarser.
    """
    alpha_x, _ = bourgain_embed(m, BourgainParams(repetitions_per_scale=reps, seed=seed, p=p))
    sub, _ = restrict(m, set(range(m.n)) - set(s))
    alpha_s, _ = bourgain_embed(sub, BourgainParams(repetitions_per_scale=reps, seed=seed + 1, p=p))
    try:
        return CompositionInputs(m=m, s=s, p=p, alpha_s=alpha_s, alpha_x=alpha_x)
    except ValueError:
        rows = np.asarray(sorted(s), dtype=int)
        alpha_s, _ = normalize_expanding(sub, PointSet(points=alpha_x.points[rows], p=p))
        return CompositionInputs(m=m, s=s, p=p, alpha_s=alpha_s, alpha_x=alpha_x)


def composition_instance(rng: np.random.Generator, m: MetricSpace, k: int, p: float,
                         seed: int, reps: int = 4) -> CompositionInputs:
    """Random S of size n-k with Bourgain embeddings for alpha_S and alpha_X."""
    idx = rng.permutation(m.n)
    s = tuple(sorted(int(v) for v in idx[k:]))
    return composition_instance_with_s(rng, m, s, p, seed, reps=reps)


def close_pair_instance(seed: int) -> tuple[MetricSpace, tuple[int, ...], tuple[int, int]]:
    """A metric with an anchored cluster of S points and far-away pods of
    outliers; the returned pair is mutually close with both anchors at least
    twice the pair distance away."""
    rng = np.random.default_rng(seed)
    ns = int(rng.integers(3, 6))
    npods = int(rng.integers(1, 4))
    pod_sizes = [int(rng.integers(1, 3)) for _ in range(npods)]
    pod_sizes[0] = 2
    pts = [rng.uniform(0.0, 2.0, size=2) for _ in range(ns)]
    outliers = []
    for j, size in enumerate(pod_sizes):
        ang = 2.0 * np.pi * rng.random()
        center = np.array([np.cos(ang), np.sin(ang)]) * rng.uniform(8.0, 15.0) + 1.0
        for _ in range(size):
            outliers.append(center + rng.normal(size=2) * rng.uniform(0.1, 0.4))
    all_pts = np.array(pts + outliers)
    m = from_matrix(cdist(all_pts, all_pts), tol_tri=1e-7)
    return m, tuple(range(ns)), (ns, ns + 1)


def planted_instance(seed: int) -> tuple[MetricSpace, np.ndarray, tuple[int, ...]]:
    """Isometric l2 core plus k adversarial 'antenna' points: each adversarial
    point adds a positive station cost to all its distances, which keeps the
    matrix a metric while making it non-embeddable in general.

    Returns (metric, core point coordinates, planted outlier indices)."""
    rng = np.random.default_rng(seed)
    n_core = int(rng.integers(5, 11))
    k = int(rng.integers(1, 4))
    core = rng.normal(size=(n_core, 3))
    n = n_core + k
    dist = np.zeros((n, n))
    dist[:n_core, :n_core] = cdist(core, core)
    pos = rng.normal(size=(k, 3)) * 2.0
    eta = rng.uniform(0.5, 1.5, size=k)
    for a in range(k):
        da = np.linalg.norm(core - pos[a], axis=1) + eta[a]
        dist[n_core + a, :n_core] = da
        dist[:n_core, n_core + a] = da
        for b in range(a):
            dab = np.linalg.norm(pos[a] - pos[b]) + eta[a] + eta[b]
            dist[n_core + a, n_core + b] = dist[n_core + b, n_core + a] = dab
    return from_matrix(dist, tol_tri=1e-9), core, tuple(range(n_core, n))


def atlas_graphs(max_nodes: int, connected: bool):
    """The graphs of networkx's atlas with 1..max_nodes nodes; with `connected`,
    only the connected ones with at least 2 nodes."""
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g
    for g_nx in graph_atlas_g():
        n = g_nx.number_of_nodes()
        if 1 <= n <= max_nodes and (not connected or (n >= 2 and nx.is_connected(g_nx))):
            yield Graph(n=n, edges=tuple((int(u), int(v)) for u, v in g_nx.edges()))


# -- common fixtures -------------------------------------------------------------

@pytest.fixture
def claw_graph() -> Graph:
    return Graph(n=4, edges=((0, 1), (0, 2), (0, 3)))


@pytest.fixture
def claw_metric(claw_graph) -> MetricSpace:
    return from_graph(claw_graph)


@pytest.fixture
def line_metric() -> MetricSpace:
    return from_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])


@pytest.fixture
def stretched_pair_metric() -> MetricSpace:
    # w, x, y, z all at distance 1 except d(y, z) = 2
    d = np.ones((4, 4)) - np.eye(4)
    d[2, 3] = d[3, 2] = 2.0
    return from_matrix(d)


@pytest.fixture
def single_edge() -> Graph:
    return Graph(n=2, edges=((0, 1),))


@pytest.fixture
def k3() -> Graph:
    return Graph(n=3, edges=((0, 1), (0, 2), (1, 2)))
