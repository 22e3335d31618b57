"""Streaming triangle counting and transitivity estimation.

The stream is a sequence of edge insertions and deletions over a fixed
vertex universe; the quantities of interest are those of the final graph.
``estimate_triangles`` runs the estimator, ``oracles`` holds the
exact references, and ``DoulionCounter`` is the sampling baseline.
"""

from .baselines import DoulionCounter
from .estimator import (
    EstimatorConfig,
    NoQualifiedCopiesError,
    Report,
    derive_config,
    estimate_triangles,
)
from .f2_sketch import F2Sketch
from .indep_paths import greedy_independent_count, verify_lower_bounds
from .oracles import (
    exact_f2,
    exact_transitivity,
    exact_triangles,
    exact_two_paths,
    graph_stats,
)
from .sparsifier import ColoringFunction, SparsifiedGraph
from .stream_core import (
    AdjacencyGraph,
    EdgeEvent,
    StreamConfig,
    StreamError,
    materialize,
    read_stream,
    write_stream,
)
from .two_path import TwoPathEstimator

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "ColoringFunction",
    "DoulionCounter",
    "EdgeEvent",
    "EstimatorConfig",
    "F2Sketch",
    "NoQualifiedCopiesError",
    "Report",
    "SparsifiedGraph",
    "StreamConfig",
    "StreamError",
    "TwoPathEstimator",
    "derive_config",
    "estimate_triangles",
    "exact_f2",
    "exact_transitivity",
    "exact_triangles",
    "exact_two_paths",
    "graph_stats",
    "greedy_independent_count",
    "materialize",
    "read_stream",
    "verify_lower_bounds",
    "write_stream",
    "__version__",
]
