"""Streaming triangle counting for low-degeneracy graphs.

Exact oracles, a degree-oracle estimator, a six-pass streaming estimator
with a sampled triangle-to-edge assignment rule, graph generators with
closed-form ground truth, and a benchmarking CLI.
"""

from .assignment import (
    AssignmentTable,
    EdgeEstimate,
    assign_triangle,
    compute_s,
    saturated_estimates,
)
from .errors import (
    ConfigError,
    EdgeListError,
    InputError,
    SchedulingError,
    StreamUsageError,
    TriadError,
)
from .estimator import (
    EstimatorConfig,
    RunReport,
    compute_ell,
    compute_r,
    estimate,
)
from .generators import (
    GroundTruth,
    LbSpec,
    gen_book,
    gen_erdos_renyi,
    gen_lb_instance,
    gen_preferential_attachment,
    gen_wheel,
    lb_spec,
)
from .graph import (
    EdgeProfile,
    Graph,
    classify_edges,
    degeneracy,
    enumerate_triangles,
    per_edge_triangles,
    sum_edge_degrees,
    triangles_exact_cn,
    triangles_exact_naive,
)
from .ideal import DegreeOracle, IdealReport, ideal_estimate, ideal_sample
from .sampling import substream
from .stream import EdgeStream, StreamStats

__version__ = "0.1.0"

__all__ = [
    "AssignmentTable", "ConfigError", "DegreeOracle", "EdgeEstimate",
    "EdgeListError", "EdgeProfile", "EdgeStream", "EstimatorConfig",
    "Graph", "GroundTruth", "IdealReport", "InputError", "LbSpec",
    "RunReport", "SchedulingError", "StreamStats", "StreamUsageError",
    "TriadError", "assign_triangle", "classify_edges", "compute_ell",
    "compute_r", "compute_s", "degeneracy", "enumerate_triangles",
    "estimate", "gen_book", "gen_erdos_renyi", "gen_lb_instance",
    "gen_preferential_attachment", "gen_wheel", "ideal_estimate",
    "ideal_sample", "lb_spec", "per_edge_triangles",
    "saturated_estimates", "substream", "sum_edge_degrees",
    "triangles_exact_cn", "triangles_exact_naive",
]
