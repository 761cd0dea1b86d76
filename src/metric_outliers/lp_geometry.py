"""The Schoenberg l2-embeddability test, Gram factorization, lp distances of
point sets and their JSON interchange.

The classical facts used here: a finite metric embeds isometrically into l2
iff the double-centered squared-distance matrix B = -1/2 * J * D^2 * J
(J = I - (1/n) * 1 * 1^T) is positive semidefinite (Schoenberg 1935), and any
PSD matrix G is the Gram matrix of points recoverable by eigendecomposition.
Each is decided in one place: schoenberg_rule is the PSD test,
squared_distances the one squaring of a metric and points_from_gram the
one factor.
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
        if not np.isfinite(self.p) or self.p < 1.0:
            raise InvalidP(f"p must be finite and >= 1, got {self.p}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "p", float(self.p))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dims(self) -> int:
        return self.points.shape[1]


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
    """Double-centered squared-distance matrix B = -1/2 * J * D^2 * J, or
    squared_distances' ValueError."""
    return _center(squared_distances(m))


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


def _rank(vals: np.ndarray) -> int:
    """The numerical rank of a PSD matrix with ascending eigenvalues vals: the
    count above n * eps * lam_max (numpy's matrix_rank rule), and at least 1."""
    return max(int(np.count_nonzero(vals > len(vals) * np.finfo(float).eps * vals[-1])), 1)


def points_from_gram(g: np.ndarray) -> PointSet:
    """Factor a PSD matrix G into points whose pairwise inner products match G.

    G must pass schoenberg_rule: eigenvalues in [-SCHOENBERG_TOL * lam_max, 0)
    are clamped to zero, and anything below that raises NotPSD. The factor has
    one column per eigenvalue above n * eps * lam_max (numpy's matrix_rank
    rule, eps the float64 machine epsilon), so its width is G's numerical
    rank; a G with none gets one zero column, and a 0x0 G gives shape (0, 1).
    Column j is the j-th largest eigenvalue's eigenvector, signed so its
    largest-magnitude entry is positive, times the eigenvalue's square root.
    So the factor is fixed only up to a rotation within a repeated eigenvalue
    (and moves by rounding when two eigenvalues nearly meet); the distances
    between the points are what is stable.

    Each dropped eigenvalue lam moves a squared distance by lam * (v_x - v_y)^2
    <= 2 * lam, so against a column for every eigenvalue the trim moves each
    squared distance by at most 2 * n^2 * eps * lam_max. eigh's own error in
    an eigenvalue is already a small multiple of n * eps * lam_max, so the
    trim drops only eigenvalues that eigh cannot tell from zero.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimMismatch(f"expected a square matrix, got shape {g.shape}")
    if not g.size:
        return PointSet(points=np.zeros((0, 1)), p=2.0)
    if np.abs(g - g.T).max() > SYMMETRY_TOL * max(1.0, float(np.abs(g).max())):
        raise DimMismatch("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh((g + g.T) / 2.0)
    if not schoenberg_rule(vals):
        floor = -SCHOENBERG_TOL * max(float(vals[-1]), 0.0)
        raise NotPSD(f"matrix has eigenvalue {float(vals[0]):g} below -SCHOENBERG_TOL*lam_max = {floor:g}")
    # eigh's eigenvalues ascend, so those above the floor are its last r
    r = _rank(vals)
    vals, vecs = np.clip(vals[::-1][:r], 0.0, None), vecs[:, ::-1][:, :r]
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(vals))]
    return PointSet(points=vecs * np.where(pivots < 0, -1.0, 1.0) * np.sqrt(vals), p=2.0)


# -- embedding JSON interchange ------------------------------------------------

def write_embedding(path: str, ps: PointSet) -> None:
    with open(path, "w") as fh:
        json.dump({"p": ps.p, "points": ps.points.tolist()}, fh)
        fh.write("\n")


def read_embedding(path: str) -> PointSet:
    with open(path) as fh:
        data = json.load(fh)
    for key in ("p", "points"):
        if key not in data:
            raise SizeMismatch(f"embedding JSON has no {key!r} key")
    return PointSet(points=np.asarray(data["points"], dtype=float), p=float(data["p"]))
