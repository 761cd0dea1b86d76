"""lp point arithmetic, the Schoenberg l2-embeddability test, and Gram factorization.

The classical facts used here: a finite metric embeds isometrically into l2
iff the double-centered squared-distance matrix B = -1/2 * J * D^2 * J
(J = I - (1/n) * 1 * 1^T) is positive semidefinite, and any PSD matrix G is
the Gram matrix of points recoverable by eigendecomposition.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimMismatch, InvalidP, NotPSD, SizeMismatch

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids a circular import
    from .metric_core import MetricSpace

SYMMETRY_TOL = 1e-12  # relative symmetry tolerance for matrices handed around here
SCHOENBERG_TOL = 1e-8  # relative eigenvalue tolerance of the Schoenberg test


@dataclass(frozen=True)
class PointSet:
    """n points in R^dims together with the finite p >= 1 of the host norm."""

    points: np.ndarray  # shape (n, dims)
    p: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise DimMismatch(f"points must be a (n, dims) array with dims >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DimMismatch("points contain non-finite coordinates")
        _check_p(self.p)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "p", float(self.p))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dims(self) -> int:
        return self.points.shape[1]


def _check_p(p: float) -> None:
    if not np.isfinite(p) or p < 1.0:
        raise InvalidP(f"p must be finite and >= 1, got {p}")


def lp_distance(a, b, p: float) -> float:
    """(sum |a_i - b_i|^p)^(1/p) for finite p >= 1."""
    _check_p(p)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimMismatch(f"point dimensions differ: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b, ord=p))


def condensed_distances(ps: PointSet) -> np.ndarray:
    """lp distances of the pairs i < j of a point set, row-major: the upper
    triangle of pairwise_distances, in the order of np.triu_indices(n, 1)."""
    # imported here: commands that measure no embedding never load scipy
    from scipy.spatial.distance import pdist
    if ps.p == 2.0:
        return pdist(ps.points, metric="euclidean")
    if ps.p == 1.0:
        return pdist(ps.points, metric="cityblock")
    return pdist(ps.points, metric="minkowski", p=ps.p)


def pairwise_distances(ps: PointSet) -> np.ndarray:
    """All-pairs lp distance matrix of a point set, exactly symmetric."""
    from scipy.spatial.distance import squareform  # imported here, as in condensed_distances
    return squareform(condensed_distances(ps)) if ps.n else np.zeros((0, 0))


def check_symmetric(a: np.ndarray) -> np.ndarray:
    """Validate symmetry within a relative tolerance and return the symmetrized matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()) if a.size else 0.0)
    if np.abs(a - a.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise DimMismatch("matrix is not symmetric within tolerance")
    return (a + a.T) / 2.0


def sorted_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition with eigenvalues sorted descending.

    Eigenvector signs are fixed (largest-magnitude component positive) so the
    factorization is reproducible for CLI output.
    """
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            vecs[:, j] = -col
    return vals, vecs


def _center(d2: np.ndarray) -> np.ndarray:
    """B = -1/2 * J * D^2 * J for each matrix of a stack (..., k, k) of squared distances."""
    k = d2.shape[-1]
    j = np.eye(k) - np.full((k, k), 1.0 / k)
    b = -0.5 * j @ d2 @ j
    return (b + np.swapaxes(b, -1, -2)) / 2.0


def squared_distances(m: "MetricSpace") -> np.ndarray:
    """The matrix of d(x, y)^2, or a ValueError naming the first distance whose square overflows."""
    with np.errstate(over="ignore"):
        d2 = np.asarray(m.dist, dtype=float) ** 2
    if np.isinf(d2).any():
        x, y = np.argwhere(np.isinf(d2))[0]
        raise ValueError(f"distance d({x}, {y}) is too large: its square overflows, got {m.dist[x, y]}")
    return d2


def centered_gram(m: "MetricSpace") -> np.ndarray:
    """Double-centered squared-distance matrix B = -1/2 * J * D^2 * J."""
    return _center(np.asarray(m.dist, dtype=float) ** 2)


def schoenberg_test(d2: np.ndarray, lam_ref: float = 0.0) -> np.ndarray:
    """Schoenberg criterion on a stack (r, k, k) of squared-distance matrices.

    Row i passes iff the smallest eigenvalue of its centered Gram matrix is
    >= -SCHOENBERG_TOL * max(lam_max, lam_ref), lam_max its largest
    eigenvalue. The floor is relative only, so a scaled metric gets the
    verdict of the unscaled one, and a 1-point metric passes as 0 >= -0.
    lam_ref = 0 is the plain test; a larger lam_ref measures the tolerance
    against a bound on lam_max known from a larger set.
    """
    if d2.shape[-1] == 0:
        return np.ones(d2.shape[0], dtype=bool)
    return schoenberg_rule(np.linalg.eigvalsh(_center(d2)), lam_ref)


def schoenberg_rule(vals: np.ndarray, lam_ref: float = 0.0) -> np.ndarray:
    """schoenberg_test's decision from the ascending eigenvalues (..., k) of
    centered Gram matrices, for callers that have factored them already."""
    scale = np.maximum(vals[..., -1], lam_ref)
    return vals[..., 0] >= -SCHOENBERG_TOL * scale


def is_l2_isometric(m: "MetricSpace") -> bool:
    """Schoenberg criterion: true iff the centered Gram matrix is PSD.

    The decision is exact in theory; SCHOENBERG_TOL only absorbs
    floating-point error, relative to the largest eigenvalue. The one-row
    case of schoenberg_test.
    """
    return bool(schoenberg_test(squared_distances(m)[None])[0])


def points_from_gram(g: np.ndarray) -> PointSet:
    """Factor a PSD matrix G into points whose pairwise inner products match G.

    Eigenvalues in [-SCHOENBERG_TOL * lam_max, 0) are clamped to zero;
    anything below that raises NotPSD.
    """
    g = check_symmetric(g)
    vals, vecs = sorted_eigh(g)
    lam_max = max(float(vals[0]) if vals.size else 0.0, 0.0)
    floor = -SCHOENBERG_TOL * lam_max
    if vals.size and float(vals[-1]) < floor:
        raise NotPSD(
            f"matrix has eigenvalue {float(vals[-1]):g} below -SCHOENBERG_TOL*lam_max = {floor:g}"
        )
    vals = np.clip(vals, 0.0, None)
    pts = vecs * np.sqrt(vals)[None, :]
    if pts.shape[1] == 0:
        pts = np.zeros((g.shape[0], 1))
    return PointSet(points=pts, p=2.0)


def gram_of_points(points: np.ndarray) -> np.ndarray:
    """Gram matrix V V^T of row vectors."""
    points = np.asarray(points, dtype=float)
    g = points @ points.T
    return (g + g.T) / 2.0


# -- embedding JSON interchange ------------------------------------------------

def embedding_to_json(ps: PointSet) -> str:
    return json.dumps({"p": ps.p, "points": ps.points.tolist()})


def embedding_from_json(text: str) -> PointSet:
    data = json.loads(text)
    for key in ("p", "points"):
        if key not in data:
            raise SizeMismatch(f"embedding JSON has no {key!r} key")
    return PointSet(points=np.asarray(data["points"], dtype=float), p=float(data["p"]))


def write_embedding(path: str, ps: PointSet) -> None:
    with open(path, "w") as fh:
        fh.write(embedding_to_json(ps))
        fh.write("\n")


def read_embedding(path: str) -> PointSet:
    with open(path) as fh:
        return embedding_from_json(fh.read())
