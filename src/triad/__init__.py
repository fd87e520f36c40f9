"""Streaming triangle counting for low-degeneracy graphs.

Exact oracles, a degree-oracle estimator, a six-pass streaming estimator
with a sampled triangle-to-edge assignment rule, graph generators with
closed-form ground truth, and a benchmarking CLI.

Every name in `__all__` is importable from the package itself, but its
module loads on first use (PEP 562): `from triad import Graph` imports
`triad.graph` and what it needs, not the estimators, so a run pays only
for the modules it touches. Each CLI command loads `triad`, `triad.cli`,
`triad.errors`, `triad.edgelist` and `triad.idset`, and besides them:

- `exact`: `triad.graph`;
- `estimate --mode main`: `triad.stream`, `triad.sampling`,
  `triad.assignment` and `triad.estimator`, and `triad.graph` only when
  the run falls back to exact counting;
- `estimate --mode ideal`: main mode's and `triad.ideal`, never
  `triad.graph`;
- `gen`: `triad.generators`, `triad.graph` and `triad.sampling`;
- `bench`: `gen`'s and main mode's.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("compute_s",), "assignment"),
    **dict.fromkeys((
        "ConfigError", "EdgeListError", "InputError", "StreamUsageError", "TriadError"), "errors"),
    **dict.fromkeys((
        "EstimatorConfig", "RunReport", "compute_ell", "compute_r", "estimate"), "estimator"),
    **dict.fromkeys((
        "GroundTruth", "LbSpec", "gen_book", "gen_erdos_renyi", "gen_lb_instance",
        "gen_preferential_attachment", "gen_wheel", "lb_spec"), "generators"),
    **dict.fromkeys((
        "EdgeProfile", "Graph", "classify_edges", "degeneracy", "enumerate_triangles",
        "per_edge_triangles", "sum_edge_degrees", "triangles_exact_cn",
        "triangles_exact_naive"), "graph"),
    **dict.fromkeys(("DegreeOracle", "IdealReport", "ideal_estimate", "ideal_sample"), "ideal"),
    **dict.fromkeys(("substream",), "sampling"),
    **dict.fromkeys(("EdgeStream", "StreamStats"), "stream"),
}

__all__: list[str] = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the module that defines a public name, on its first use."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups no longer reach __getattr__
    return value


def __dir__() -> list[str]:
    return __all__
