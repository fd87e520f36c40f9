"""Command-line surface: gen, exact, estimate, bench.

Global flags --seed, --format, --quiet may appear before or after the
subcommand and can be defaulted through TRIAD_SEED / TRIAD_FORMAT /
TRIAD_QUIET. Exit codes: 0 success, 2 configuration problem or an output
that cannot be written (an `--out` path, or a stdout or stderr whose
reader went away), 3 unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from collections import namedtuple
from typing import TYPE_CHECKING, Iterator

from . import edgelist
from .errors import ConfigError, EdgeListError, InputError

# each command imports the modules it runs, so `triad exact` loads only the
# graph oracles
if TYPE_CHECKING:
    from .estimator import EstimatorConfig, RunReport
    from .generators import GroundTruth
    from .graph import Graph
    from .ideal import IdealReport

_BENCH_HEADER = [
    "family", "n", "m", "T_exact", "kappa", "epsilon", "t_hat", "kappa_hat",
    "estimate", "relative_error", "passes", "stored_edges_peak", "r", "ell",
    "s", "seed", "wall_time_ms",
]

_FORMATS = ("json", "csv")

# the instance families `triad gen` writes and a manifest row may name
_FAMILIES = ("wheel", "book", "lb", "pa", "er")

# `EstimatorConfig` flags that only main mode reads; each defaults to None,
# so a flag given to ideal mode can be told from one left out
_MAIN_ONLY = ("kappa_hat", "repetitions", "scale", "share_passes", "abort_multiplier")

# each generator parameter and its type, as `triad gen` parses it
_PARAM_TYPES = {"n": int, "k": int, "p": int, "q": int, "N": int, "attach": int,
                "kind": str, "prob": float, "shared": int}


def _env_default(name, cast, fallback):
    raw = os.environ.get(f"TRIAD_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"bad TRIAD_{name} value {raw!r}") from None


def _format_name(raw: str) -> str:
    if raw not in _FORMATS:
        raise ValueError(raw)
    return raw


def _env_flag(name) -> bool:
    return os.environ.get(f"TRIAD_{name}", "").lower() in ("1", "true", "yes", "on")


def _say(args, message) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _print_report(args, payload: dict, columns: list) -> None:
    """`payload` as JSON, or with --format csv a header of `columns` and a
    row of their values, in one write, so no reader sees half a report."""
    if args.format == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows([columns, [payload[k] for k in columns]])
        sys.stdout.write(buf.getvalue())
    else:
        sys.stdout.write(json.dumps(payload) + "\n")


def _write_output(path: str, chunks) -> None:
    """Write the strings `chunks` to `path`; an OSError is a config error
    naming it as an output."""
    try:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ConfigError(f"cannot write output {path!r}: {exc.strerror or exc}") from None


def generate_family(family: str, params: dict, seed: int) -> tuple[Graph, GroundTruth]:
    """Build (graph, ground truth) for a named family.

    Families without a closed form get their truth from the exact oracles.
    """
    try:
        return _generate_family(family, params, seed)
    except KeyError as exc:
        raise ConfigError(
            f"family {family!r} needs parameter {exc.args[0]!r}") from None


def _generate_family(family: str, params: dict, seed: int) -> tuple[Graph, GroundTruth]:
    from .generators import (
        GroundTruth,
        gen_book,
        gen_erdos_renyi,
        gen_lb_instance,
        gen_preferential_attachment,
        gen_wheel,
        lb_spec,
    )
    from .graph import degeneracy, triangles_exact_cn

    if family == "wheel":
        return gen_wheel(int(params["n"]))
    if family == "book":
        return gen_book(int(params["k"]))
    if family == "lb":
        spec = lb_spec(
            p=int(params["p"]), q=int(params["q"]), blocks=int(params["N"]),
            kind=str(params["kind"]), seed=seed,
            shared=int(params.get("shared", 1)),
        )
        return gen_lb_instance(spec)
    if family == "pa":
        g = gen_preferential_attachment(int(params["n"]), int(params["attach"]), seed)
    elif family == "er":
        g = gen_erdos_renyi(int(params["n"]), float(params["prob"]), seed)
    else:
        raise ConfigError(f"unknown family {family!r}")
    truth = GroundTruth(n=g.n, m=g.m, triangles=triangles_exact_cn(g),
                        kappa=degeneracy(g))
    return g, truth


def cmd_gen(args) -> int:
    params = {}
    for key in _PARAM_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    graph, truth = generate_family(args.family, params, args.seed)
    out = args.out or f"{args.family}.el"
    param_text = " ".join(f"{k}={params[k]}" for k in sorted(params))
    _write_output(out, edgelist.edge_lines(
        graph.edges(), f"family={args.family} {param_text} seed={args.seed}"))
    sidecar = dict(family=args.family, params=params, seed=args.seed, **truth.as_dict())
    _write_output(f"{out}.json", [json.dumps(sidecar, indent=2), "\n"])
    _say(args, f"wrote {out} ({truth.m} edges) and {out}.json")
    return 0


def cmd_exact(args) -> int:
    from .graph import Graph, degeneracy, sum_edge_degrees, triangles_exact_cn

    g = Graph.from_file(args.path)
    result = {
        "T": triangles_exact_cn(g),
        "kappa": degeneracy(g),
        "d_E": sum_edge_degrees(g),
        "m": g.m,
        "n": g.n,
    }
    _print_report(args, result, list(result))
    return 0


def _dump_tables(args, report: RunReport) -> None:
    entries = []
    for rep_index, table in enumerate(report.tables):
        for tri, edge in table.items():
            entries.append({
                "repetition": rep_index,
                "triangle": list(tri),
                "edge": list(edge) if edge is not None else None,
            })
    print("assignments: " + json.dumps(entries), file=sys.stderr)


def _run_main_mode(args) -> RunReport:
    from .estimator import EstimatorConfig, estimate
    from .stream import EdgeStream

    stream = EdgeStream.from_file(args.path, order_seed=args.order_seed)
    given = {name: getattr(args, name) for name in _MAIN_ONLY
             if getattr(args, name) is not None}
    config = EstimatorConfig(epsilon=args.epsilon, t_hat=args.t_hat, seed=args.seed, **given)
    _, report = estimate(stream, config)
    _say(args, f"passes including stats: {stream.pass_counter}")
    if report.flags:
        _say(args, "flags: " + ",".join(report.flags))
    return report


def _run_ideal_mode(args) -> IdealReport:
    import numpy as np

    from .ideal import DegreeOracle, ideal_estimate
    from .idset import _relabel
    from .stream import EdgeStream

    # main mode's stream, its ids relabelled to dense [0, n) in their order:
    # the edges stay canonical and distinct, and a degree table is the oracle
    _, dense = _relabel(edgelist.read_edges(args.path))
    stream = EdgeStream(dense, order_seed=args.order_seed)
    oracle = DegreeOracle.from_degrees(np.bincount(dense.ravel()))
    del dense  # the stream holds its own copy
    _, report = ideal_estimate(stream, oracle, epsilon=args.epsilon,
                               t_hat=args.t_hat, seed=args.seed)
    _say(args, f"passes including stats: {stream.pass_counter}")
    return report


def cmd_estimate(args) -> int:
    if args.mode == "main" and args.kappa_hat is None:
        raise ConfigError("--kappa-hat is required in main mode")
    # ideal mode has no assignment table to dump either
    flags = ["--" + name.replace("_", "-") for name in _MAIN_ONLY + ("debug_dump_assignments",)
             if getattr(args, name) is not None]
    if args.mode == "ideal" and flags:
        raise ConfigError(f"ideal mode does not take {', '.join(flags)}")
    report = _run_main_mode(args) if args.mode == "main" else _run_ideal_mode(args)
    payload = report.to_json_dict()
    # the CSV row is the scalar fields, the keys before `config`
    _print_report(args, payload, list(payload)[:list(payload).index("config")])
    if args.debug_dump_assignments:
        _dump_tables(args, report)
    return 0


def _manifest_value(row: int, key: str, value, cast):
    """`cast(value)` for cast int, float, str or bool. A value it refuses, a
    boolean for another cast or a non-boolean for bool, or a fraction for
    int is a config error naming the manifest row and key, never truncated."""
    if isinstance(value, bool) == (cast is bool) and not (
            cast is int and isinstance(value, float) and not value.is_integer()):
        try:
            return cast(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"manifest row {row}: bad {key} value {edgelist.quote(value)}")


def _manifest_bound(row: int, key: str, value) -> int:
    """A manifest row's `config.<key>`, 1 for "exact" until the instance is
    generated; a given value below 1 is a config error, as in `estimate`."""
    if value == "exact":
        return 1
    bound = _manifest_value(row, f"config.{key}", value, int)
    if bound < 1:
        raise ConfigError(f"manifest row {row}: bad config.{key} value {edgelist.quote(value)}")
    return bound


# the `config` keys a manifest row may leave out, for `EstimatorConfig`'s
# defaults, and their types
_CONFIG_DEFAULTED = {"repetitions": int, "scale": float, "share_passes": bool}
# the keys a manifest row and its `config` may hold; its `params` may hold
# those of _PARAM_TYPES
_ROW_KEYS = ("family", "params", "config", "trials", "seed")
_CONFIG_KEYS = ("epsilon", "t_hat", "kappa_hat", *_CONFIG_DEFAULTED)


# a checked manifest row; `config` carries the row's base seed, and 1 for
# each bound named in `exact` until the instance's ground truth replaces it
BenchRow = namedtuple("BenchRow", "family params config exact trials")


def parse_manifest(doc, seed: int = 0) -> list[BenchRow]:
    """Check every row of a manifest document, a list of rows or
    {"rows": [...]}, before any instance is generated. A row without a
    "seed" takes `seed`. Every error is a config error naming its row."""
    from .estimator import EstimatorConfig

    if isinstance(doc, dict):
        doc = doc.get("rows")
    if not isinstance(doc, list):
        raise ConfigError("manifest must be a list of rows or {'rows': [...]}")
    rows = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict):
            raise ConfigError(f"manifest row {i} is not an object")
        for name in ("family", "params", "config"):
            if name not in entry:
                raise ConfigError(f"manifest row {i} is missing {name!r}")
        if entry["family"] not in _FAMILIES:
            raise ConfigError(
                f"manifest row {i}: unknown family {edgelist.quote(entry['family'])}")
        for name in ("params", "config"):
            if not isinstance(entry[name], dict):
                raise ConfigError(f"manifest row {i}: {name!r} is not an object")
        for prefix, table, known in (("", entry, _ROW_KEYS),
                                     ("config.", entry["config"], _CONFIG_KEYS),
                                     ("params.", entry["params"], _PARAM_TYPES)):
            unknown = [key for key in table if key not in known]
            if unknown:
                raise ConfigError(
                    f"manifest row {i}: unknown key {edgelist.quote(prefix + unknown[0])}")
        params = {key: _manifest_value(i, f"params.{key}", value, _PARAM_TYPES[key])
                  for key, value in entry["params"].items()}
        trials = _manifest_value(i, "trials", entry.get("trials", 1), int)
        if trials < 1:
            raise ConfigError(
                f"manifest row {i}: bad trials value {edgelist.quote(entry['trials'])}")
        cfg = entry["config"]
        config = EstimatorConfig(
            epsilon=_manifest_value(i, "config.epsilon", cfg.get("epsilon"), float),
            **{key: _manifest_value(i, f"config.{key}", cfg[key], cast)
               for key, cast in _CONFIG_DEFAULTED.items() if key in cfg},
            seed=_manifest_value(i, "seed", entry.get("seed", seed), int),
            t_hat=_manifest_bound(i, "t_hat", cfg.get("t_hat", "exact")),
            kappa_hat=_manifest_bound(i, "kappa_hat", cfg.get("kappa_hat", "exact")),
        )
        try:
            config.validate()
        except ConfigError as exc:
            raise ConfigError(f"manifest row {i}: {exc}") from None
        exact = tuple(key for key in ("t_hat", "kappa_hat") if cfg.get(key, "exact") == "exact")
        rows.append(BenchRow(entry["family"], params, config, exact, trials))
    return rows


def run_row(row: BenchRow) -> Iterator[tuple[GroundTruth, EstimatorConfig, float,
                                             RunReport, float]]:
    """Generate a checked row's instance once and yield (truth, config,
    estimate, report, elapsed_ms) per trial. Trial t seeds the estimator and
    the stream order with the row's seed + t; only `estimate` is timed."""
    from dataclasses import replace

    from .estimator import estimate
    from .stream import EdgeStream

    graph, truth = generate_family(row.family, row.params, row.config.seed)
    # a Graph's edges are canonical and distinct already
    edges = graph.edge_array()
    # "exact" is raised to 1 so that a triangle-free row still runs
    known = {"t_hat": max(1, truth.triangles), "kappa_hat": max(1, truth.kappa)}
    config = replace(row.config, **{key: known[key] for key in row.exact})
    for trial in range(row.trials):
        trial_config = replace(config, seed=config.seed + trial)
        stream = EdgeStream(edges, order_seed=trial_config.seed)
        started = time.perf_counter()
        value, report = estimate(stream, trial_config)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        yield truth, trial_config, value, report, elapsed_ms


def cmd_bench(args) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:
        # a JSONDecodeError, a UnicodeDecodeError (JSON text is UTF-8), or an
        # integer past Python's limit on int-string conversion
        raise EdgeListError(f"manifest is not valid JSON: {exc}") from None
    rows = parse_manifest(doc, args.seed)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(_BENCH_HEADER)
    for row in rows:
        for truth, config, value, report, elapsed_ms in run_row(row):
            rel = (abs(value - truth.triangles) / truth.triangles
                   if truth.triangles > 0 else "")
            writer.writerow([
                row.family, truth.n, truth.m, truth.triangles, truth.kappa,
                config.epsilon, config.t_hat, config.kappa_hat, value, rel,
                report.passes, report.stored_edges_peak, report.r, report.ell,
                report.s, config.seed, 0.0 if args.fixed_clock else elapsed_ms,
            ])
    text = buf.getvalue()
    if args.out:
        _write_output(args.out, [text])
        _say(args, f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand's unset copy of a global flag from
    # clobbering the value parsed before the subcommand
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="base RNG seed (TRIAD_SEED)")
    shared.add_argument("--format", choices=_FORMATS, default=argparse.SUPPRESS,
                        help="output format where applicable (TRIAD_FORMAT)")
    shared.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress stderr diagnostics (TRIAD_QUIET)")

    parser = argparse.ArgumentParser(prog="triad", parents=[shared],
                                     description="streaming triangle counting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", parents=[shared],
                           help="write a generated graph and its ground-truth sidecar")
    p_gen.add_argument("family", choices=_FAMILIES)
    for key, cast in _PARAM_TYPES.items():
        p_gen.add_argument(f"--{key}", type=cast,
                           choices=("yes", "no") if key == "kind" else None)
    p_gen.add_argument("--out")
    p_gen.set_defaults(func=cmd_gen)

    p_exact = sub.add_parser("exact", parents=[shared],
                             help="exact T, degeneracy, and edge-degree totals")
    p_exact.add_argument("path")
    p_exact.set_defaults(func=cmd_exact)

    p_est = sub.add_parser("estimate", parents=[shared],
                           help="run a streaming estimate and print its report")
    p_est.add_argument("path")
    p_est.add_argument("--mode", choices=("ideal", "main"), default="main")
    p_est.add_argument("--epsilon", type=float, required=True)
    p_est.add_argument("--t-hat", type=int, required=True)
    p_est.add_argument("--kappa-hat", type=int, default=None)
    p_est.add_argument("--repetitions", type=int, default=None)
    p_est.add_argument("--scale", type=float, default=None)
    p_est.add_argument("--share-passes", action="store_true", default=None)
    p_est.add_argument("--abort-multiplier", type=float, default=None)
    p_est.add_argument("--order-seed", type=int, default=None,
                       help="shuffle the stream order with this seed")
    p_est.add_argument("--debug-dump-assignments", action="store_true", default=None,
                       help="dump memoized triangle assignments to stderr")
    p_est.set_defaults(func=cmd_estimate)

    p_bench = sub.add_parser("bench", parents=[shared],
                             help="run a benchmark manifest and emit CSV rows")
    p_bench.add_argument("manifest")
    p_bench.add_argument("--out")
    p_bench.add_argument("--fixed-clock", action="store_true", default=None,
                         help="write 0 for wall_time_ms so outputs are reproducible")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is None:
            args.seed = _env_default("SEED", int, 0)
        if getattr(args, "format", None) is None:
            args.format = _env_default("FORMAT", _format_name, "json")
        if getattr(args, "quiet", None) is None:
            args.quiet = _env_flag("QUIET")
        if args.command == "bench" and args.fixed_clock is None:
            args.fixed_clock = _env_flag("FIXED_CLOCK")
        code = args.func(args)
        # a report still buffered fails here, not at exit
        sys.stdout.flush()
        return code
    except EdgeListError as exc:
        return _fail(3, f"parse error: {exc}")
    except InputError as exc:  # ConfigError included
        return _fail(2, f"config error: {exc}")
    except BrokenPipeError as exc:  # the reader of stdout or stderr went away
        _flush_or_drop(sys.stdout)
        return _fail(2, f"cannot write output: {exc}")
    except OSError as exc:  # a missing file, a directory, no permission
        return _fail(3, f"cannot read input: {exc}")


def _fail(code: int, message: str) -> int:
    """Print one `triad: ...` line to stderr, if it can still be written,
    and return the exit code."""
    try:
        print(f"triad: {message}", file=sys.stderr)
    except BrokenPipeError:
        pass
    _flush_or_drop(sys.stderr)
    return code


def _flush_or_drop(stream) -> None:
    """Flush a stream; if its reader went away, point it at os.devnull, so
    that what it still buffers is dropped at exit with no message."""
    try:
        stream.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
