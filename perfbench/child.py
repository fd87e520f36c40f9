"""One benchmark command, run in a fresh process.

    python3 perfbench/child.py WORKLOAD INPUT.el SEED TRACED SETUP_ONLY

Runs the workload's command through the library's public API, the same
calls the CLI makes, and times it: `wall_s` covers import, open and
validate, compute and serialize; `setup_s` ends where the first estimator
or oracle pass would begin. With SETUP_ONLY=1 the child stops there. With
TRACED=1 it records spans around every public call and stream pass and
derives the per-layer metrics from them.

After the timed part, the output is checked against the generator's closed
form and the truth sidecar. A failed check is reported, never raised. The
child prints one JSON object as its last line. The caller puts the
repository's `src` on PYTHONPATH as an absolute path.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracing import Tracer, TracedStream, duration  # noqa: E402
from workloads import (  # noqa: E402
    ESTIMATE_BAND,
    IDEAL_EXTRA_KEYS,
    IDEAL_PASSES,
    MAIN_PASSES_PER_REPETITION,
    REPORT_KEYS,
    WORKLOADS,
    closed_form,
)

class SetupDone(Exception):
    """Ends a set-up-only child once set-up has been timed."""


class Probe:
    """Times one command and, when traced, records its spans."""

    def __init__(self, traced: bool, setup_only: bool):
        self.tracer = Tracer() if traced else None
        self.setup_only = setup_only
        self.setup_s = None
        self.wall_s = None
        self.peak_rss_mb = None
        self.failures: list[str] = []
        self.layers: dict[str, float] = {}

    def call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    def stream(self, stream):
        return stream if self.tracer is None else TracedStream(stream, self.tracer)

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - STARTED
        if self.setup_only:
            raise SetupDone

    def done(self) -> None:
        self.wall_s = time.perf_counter() - STARTED
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def check_estimate(self, value: float, truth: int) -> None:
        self.check(math.isfinite(value) and value >= 0, f"estimate {value} is not finite and >= 0")
        self.check(truth / ESTIMATE_BAND <= value <= truth * ESTIMATE_BAND,
                   f"estimate {value} outside [T/{ESTIMATE_BAND}, {ESTIMATE_BAND}T] for T={truth}")

    # -- per-layer metrics from the spans ---------------------------------------

    def passes_under(self, name: str) -> list[dict]:
        """Stream passes read inside the spans called `name`, in order."""
        owners = {s["id"] for s in self.tracer.named(name)}
        return [s for s in self.tracer.named("stream.pass") if s["parent"] in owners]

    def derive_common(self) -> None:
        tr = self.tracer
        passes = tr.named("stream.pass")
        edges = sum(s["attrs"]["edges"] for s in passes)
        read_s = sum(s["attrs"]["read_s"] for s in passes)
        top = sum(duration(s) for s in tr.spans if s["parent"] is None)
        self.layers.update({
            "edgelist.scan_s": tr.total("edgelist.scan"),
            "stream.passes": len(passes),
            "stream.edges": edges,
            "stream.read_s": read_s,
            "stream.read_us_per_edge": 1e6 * read_s / edges if edges else 0.0,
            "estimator.stats_s": tr.total("estimator.stats"),
            "graph.load_s": tr.total("graph.load"),
            "graph.triangles_s": tr.total("graph.triangles"),
            "graph.degeneracy_s": tr.total("graph.degeneracy"),
            "graph.edge_degrees_s": tr.total("graph.edge_degrees"),
            "trace.untraced_s": self.wall_s - top,
        })


# -- workloads ---------------------------------------------------------------------


def run_main(probe: Probe, spec: dict, path: str, seed: int, truth: dict) -> dict:
    with_span = probe.call
    from triad import EdgeStream, EstimatorConfig, compute_r, compute_s, estimate

    stream = probe.stream(with_span("edgelist.scan", EdgeStream.from_file, path, order_seed=seed))
    stats = with_span("estimator.stats", stream.stats)
    probe.setup_done()
    config = EstimatorConfig(
        epsilon=spec["epsilon"], t_hat=truth["T"], kappa_hat=truth["kappa"],
        repetitions=spec["repetitions"], seed=seed, scale=spec["scale"],
    )
    value, report = with_span("estimator.estimate", estimate, stream, config)
    payload = report.to_json_dict()
    output = with_span("serialize", json.dumps, payload)
    probe.done()

    closed = closed_form("pa-main")
    m, t_exact, kappa = truth["m"], truth["T"], truth["kappa"]
    probe.check(stats.m == m == closed["m"], f"m: stream {stats.m}, sidecar {m}, closed form {closed['m']}")
    probe.check(stats.n == truth["n"], f"n: stream {stats.n}, sidecar {truth['n']}")
    probe.check(1 <= kappa <= closed["kappa_max"], f"sidecar kappa {kappa} above {closed['kappa_max']}")
    probe.check(tuple(payload) == REPORT_KEYS, f"report keys {list(payload)}")
    budget = 1 + MAIN_PASSES_PER_REPETITION * spec["repetitions"]
    probe.check(stream.pass_counter <= budget, f"{stream.pass_counter} passes, budget {budget}")
    probe.check(report.passes <= MAIN_PASSES_PER_REPETITION, f"report passes {report.passes}")
    args = (stats.n, stats.m, config.epsilon, config.t_hat, config.kappa_hat)
    r = compute_r(*args, scale=config.scale)
    s = compute_s(*args, scale=config.scale)
    probe.check(report.r == r, f"r {report.r}, compute_r {r}")
    probe.check(report.s == s, f"s {report.s}, compute_s {s}")
    probe.check(report.stored_edges_peak > 0, "no stored edges")
    probe.check_estimate(value, t_exact)

    if probe.tracer is not None:
        probe.derive_common()
        passes = probe.passes_under("estimator.estimate")
        for k in range(MAIN_PASSES_PER_REPETITION):
            stage = passes[k::MAIN_PASSES_PER_REPETITION]
            pass_s = sum(duration(p) for p in stage)
            read_s = sum(p["attrs"]["read_s"] for p in stage)
            edges = sum(p["attrs"]["edges"] for p in stage)
            probe.layers[f"estimator.stage{k}.pass_s"] = pass_s
            probe.layers[f"sampling.stage{k}.observe_us_per_edge"] = (
                1e6 * (pass_s - read_s) / edges if edges else 0.0)
        entries = [edge for table in report.tables for _, edge in table.items()]
        probe.layers.update({
            "estimator.between_s": sum(
                probe.tracer.self_time(s) for s in probe.tracer.named("estimator.estimate")),
            "estimator.r": report.r,
            "estimator.ell": report.ell,
            "estimator.s": report.s,
            "estimator.stored_peak": report.stored_edges_peak,
            "estimator.peak_over_mkappa_t": report.stored_edges_peak / (m * kappa / t_exact),
            "estimator.exact_fallbacks": report.flags.count("exact-fallback"),
            "estimator.space_aborts": report.flags.count("space-abort"),
            "assignment.calls": report.assignment_calls,
            "assignment.memo_size": report.memo_size,
            "assignment.assigned_frac": (
                sum(edge is not None for edge in entries) / len(entries) if entries else 0.0),
            "estimator.rel_error": abs(value - t_exact) / t_exact,
        })
    return {"output": output, "stored_peak_per_m": report.stored_edges_peak / m}


def run_exact(probe: Probe, spec: dict, path: str, seed: int, truth: dict) -> dict:
    with_span = probe.call
    from triad import Graph, degeneracy, sum_edge_degrees, triangles_exact_cn

    g = with_span("graph.load", Graph.from_file, path)
    probe.setup_done()
    result = {
        "T": with_span("graph.triangles", triangles_exact_cn, g),
        "kappa": with_span("graph.degeneracy", degeneracy, g),
        "d_E": with_span("graph.edge_degrees", sum_edge_degrees, g),
        "m": g.m,
        "n": g.n,
    }
    output = with_span("serialize", json.dumps, result)
    probe.done()

    closed = closed_form("lb-exact")
    for key in ("T", "m", "d_E"):
        probe.check(result[key] == closed[key], f"{key} {result[key]}, closed form {closed[key]}")
    for key in ("T", "m"):
        probe.check(result[key] == truth[key], f"{key} {result[key]}, sidecar {truth[key]}")
    # a loaded graph numbers only the vertices its edges touch
    probe.check(result["n"] == closed["endpoints"],
                f"n {result['n']}, closed form {closed['endpoints']} endpoints")
    probe.check(truth["n"] == closed["n"], f"sidecar n {truth['n']}, closed form {closed['n']}")
    probe.check(result["kappa"] == truth["kappa"], f"kappa {result['kappa']}, sidecar {truth['kappa']}")
    probe.check(closed["kappa_min"] <= result["kappa"] <= closed["kappa_max"],
                f"kappa {result['kappa']} outside [{closed['kappa_min']}, {closed['kappa_max']}]")
    probe.check(result["d_E"] <= 2 * result["m"] * result["kappa"], "d_E above 2 m kappa")

    if probe.tracer is not None:
        probe.derive_common()
    # the exact oracle holds the whole edge list
    return {"output": output, "stored_peak_per_m": g.m / truth["m"]}


def run_ideal(probe: Probe, spec: dict, path: str, seed: int, truth: dict) -> dict:
    with_span = probe.call
    from triad import DegreeOracle, EdgeStream, Graph, RunReport, ideal_estimate

    g = with_span("graph.load", Graph.from_file, path)
    # stream the dense-relabelled edges so oracle lookups line up
    stream = probe.stream(with_span(
        "stream.open", EdgeStream.from_edges, g.edge_list(), order_seed=seed))
    oracle = DegreeOracle(g)
    probe.setup_done()
    epsilon, t_hat = spec["epsilon"], truth["T"]
    value, ideal = with_span("ideal.estimate", ideal_estimate,
                             stream, oracle, epsilon=epsilon, t_hat=t_hat, seed=seed)
    report = RunReport(
        estimate=value, passes=ideal.passes, stored_edges_peak=ideal.instances,
        r=ideal.instances, ell=0, s=0, assignment_calls=ideal.closure_hits,
        memo_size=0, seed=seed,
        config={"mode": "ideal", "epsilon": epsilon, "t_hat": t_hat,
                "groups": ideal.groups, "group_size": ideal.group_size},
    )
    payload = report.to_json_dict()
    payload["oracle_queries"] = ideal.oracle_queries
    output = with_span("serialize", json.dumps, payload)
    probe.done()

    closed = closed_form("wheel-ideal")
    for key in ("n", "m", "T", "kappa"):
        probe.check(truth[key] == closed[key], f"sidecar {key} {truth[key]}, closed form {closed[key]}")
    probe.check(g.m == closed["m"], f"loaded m {g.m}, closed form {closed['m']}")
    probe.check(tuple(payload) == REPORT_KEYS + IDEAL_EXTRA_KEYS, f"report keys {list(payload)}")
    probe.check(stream.pass_counter == 1 + IDEAL_PASSES,
                f"{stream.pass_counter} passes, budget sizing + {IDEAL_PASSES}")
    probe.check(ideal.passes == IDEAL_PASSES, f"report passes {ideal.passes}")
    probe.check(ideal.d_e_total == closed["d_E"], f"d_E {ideal.d_e_total}, closed form {closed['d_E']}")
    probe.check(ideal.instances == ideal.groups * ideal.group_size, "instances != groups x group size")
    probe.check(ideal.oracle_queries > 0, "no oracle queries")
    probe.check_estimate(value, t_hat)

    if probe.tracer is not None:
        probe.derive_common()
        passes = probe.passes_under("ideal.estimate")
        names = ["ideal.sizing_pass_s", "ideal.pass1_s", "ideal.pass2_s", "ideal.pass3_s"]
        for name, span in zip(names, passes):
            probe.layers[name] = duration(span)
        probe.layers.update({
            "ideal.between_s": sum(
                probe.tracer.self_time(s) for s in probe.tracer.named("ideal.estimate")),
            "ideal.instances": ideal.instances,
            "ideal.oracle_queries": ideal.oracle_queries,
            "ideal.closed_frac": ideal.closure_hits / ideal.instances,
            "ideal.rel_error": abs(value - t_hat) / t_hat,
        })
    # the oracle and the in-memory stream hold the whole edge list
    return {"output": output, "stored_peak_per_m": len(stream) / truth["m"]}


RUNNERS = {"main": run_main, "exact": run_exact, "ideal": run_ideal}


def main(argv: list[str]) -> int:
    workload, path, seed, traced, setup_only = argv
    spec = WORKLOADS[workload]
    with open(f"{path}.json", encoding="ascii") as fh:
        truth = json.load(fh)
    probe = Probe(traced == "1", setup_only == "1")
    result = {}
    try:
        if probe.tracer is not None:
            with probe.tracer.span("import"):
                import triad  # noqa: F401
        result = RUNNERS[spec["mode"]](probe, spec, path, int(seed), truth)
    except SetupDone:
        pass
    import numpy
    import triad

    result.update(
        setup_s=probe.setup_s,
        wall_s=probe.wall_s,
        peak_rss_mb=probe.peak_rss_mb,
        failures=probe.failures,
        triad_file=triad.__file__,
        numpy=numpy.__version__,
    )
    if probe.tracer is not None and probe.wall_s is not None:
        result["layers"] = probe.layers
        result["spans"] = probe.tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
