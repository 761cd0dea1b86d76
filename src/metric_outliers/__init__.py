"""Low-distortion outlier embeddings of finite metrics into lp."""

__version__ = "0.1.0"

from .bourgain import BourgainParams, bourgain_embed, frechet_coordinates
from .errors import DomainError
from .hardness_gadgets import GadgetMap, l1_gadget, lp_gadget
from .lp_geometry import (
    PointSet,
    centered_gram,
    is_l2_isometric,
    pairwise_distances,
    points_from_gram,
)
from .metric_core import (
    DistortionStats,
    Graph,
    MetricSpace,
    distortion_stats,
    from_graph,
    from_matrix,
    normalize_expanding,
    restrict,
    verify_outlier_embedding,
)
from .nested_composition import (
    ComposedEmbedding,
    CompositionInputs,
    CompositionTranscript,
    compose_deterministic,
    compose_once,
    compose_strong,
    estimate_expected_expansion,
    expansion_bound,
    expansion_coefficients,
    harmonic_number,
    nearest_anchors,
    sample_transcript,
)
from .oracle import (
    OracleBudget,
    distortion_bracket,
    dw_edge_classes,
    hypercube_embeddable,
    min_outlier_isometric_l2,
    min_vertex_cover,
    optimal_distortion_l2,
)
from .outlier_sdp import (
    OutlierResult,
    SdpSolution,
    f_of_k,
    round_solution,
    search_min_outliers,
)

__all__ = [name for name in dir() if not name.startswith("_")]
