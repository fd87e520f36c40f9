"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload pa-main --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Set-up writes the workload's input with
`triad gen` from the seed and caches it under perfbench/.cache by family,
parameters and seed, so generation falls outside every metric. The run
then starts the workload's command in fresh child processes, one at a
time, until --seconds have passed, and a few set-up-only children after
that so set-up time is a median of several. Each child imports the
repository's `src` through an absolute path.

Every command runs between two runs of a fixed reference command
(calibrate.py), and `wall_rel` is the command's wall time over the mean of
its two neighbours'. The host is shared: its speed drifts by a third or
more within minutes, which moves wall times of one command between runs far
more than any bound could allow, while the ratio to a reference timed in
the same seconds stays within a few per cent.

With --trace 0 the result carries the end-to-end metrics, medians over the
children. With --trace 1 it carries the per-layer metrics of one more,
traced child, whose spans are written to perfbench/.cache/traces; idle
layers read 0. Every child's output is checked; a failed check, a crash or
an output that differs between children of the same seed counts as a
failed operation and never stops the run.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, gen_args, input_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 100

END_TO_END = {
    "wall_rel": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "stored_peak_per_m": "ratio",
}

PER_LAYER = {
    "edgelist.scan_s": "s",
    "stream.passes": "count",
    "stream.edges": "count",
    "stream.read_s": "s",
    "stream.read_us_per_edge": "us",
    "estimator.stats_s": "s",
    **{f"estimator.stage{k}.pass_s": "s" for k in range(6)},
    **{f"sampling.stage{k}.observe_us_per_edge": "us" for k in range(6)},
    "estimator.between_s": "s",
    "estimator.r": "count",
    "estimator.ell": "count",
    "estimator.s": "count",
    "estimator.stored_peak": "count",
    "estimator.peak_over_mkappa_t": "ratio",
    "estimator.exact_fallbacks": "count",
    "estimator.space_aborts": "count",
    "assignment.calls": "count",
    "assignment.memo_size": "count",
    "assignment.assigned_frac": "ratio",
    "graph.load_s": "s",
    "graph.triangles_s": "s",
    "graph.degeneracy_s": "s",
    "graph.edge_degrees_s": "s",
    "ideal.sizing_pass_s": "s",
    "ideal.pass1_s": "s",
    "ideal.pass2_s": "s",
    "ideal.pass3_s": "s",
    "ideal.between_s": "s",
    "ideal.instances": "count",
    "ideal.oracle_queries": "count",
    "ideal.closed_frac": "ratio",
    "estimator.rel_error": "ratio",
    "ideal.rel_error": "ratio",
    "trace.overhead_s": "s",
    "trace.untraced_s": "s",
    "command.wall_s": "s",
    "reference.wall_s": "s",
}

# what calibrate.py prints when it has done all its work
REFERENCE_CHECKSUM = 146212


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    # numpy's BLAS would otherwise start a thread pool in every child
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def prepare_input(workload: str, seed: int) -> Path:
    """The workload's edge list for this seed, generated once and cached."""
    final = CACHE / "inputs" / input_name(workload, seed)
    path = final / "graph.el"
    if (final / "graph.el.json").is_file():
        return path
    staging = final.with_name(final.name + f".tmp{os.getpid()}")
    staging.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-m", "triad", *gen_args(workload, seed, str(staging / "graph.el"))]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    staging.rename(final)
    return path


def run_child(workload: str, path: Path, seed: int, traced: bool, setup_only: bool) -> dict:
    """Run one command in a fresh process; failures come back as data."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(path), str(seed),
           "1" if traced else "0", "1" if setup_only else "0"]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failures": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        return {"failures": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return {"failures": ["printed no result"]}
    result = json.loads(lines[-1])
    if not Path(result["triad_file"]).resolve().is_relative_to(SRC):
        result["failures"].append(f"imported triad from {result['triad_file']}, not {SRC}")
    return result


def run_reference() -> float:
    """Wall time of one run of the fixed reference command."""
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["checksum"] != REFERENCE_CHECKSUM:
        raise RuntimeError(f"reference command printed checksum {result['checksum']}")
    return result["wall_s"]


def measure(workload: str, path: Path, seed: int, seconds: float, traced: bool):
    """Closed loop with one client: children back to back for `seconds`,
    each between two runs of the reference command."""
    # one untimed child first, so the page cache and the disk are warm
    warmup = run_child(workload, path, seed, traced=False, setup_only=False)
    full: list[dict] = []
    refs = [run_reference()]
    started = time.monotonic()
    while not full or time.monotonic() - started < seconds:
        full.append(run_child(workload, path, seed, traced=False, setup_only=False))
        refs.append(run_reference())
    setups = [r for r in full if r.get("setup_s") is not None]
    extra = [run_child(workload, path, seed, traced=False, setup_only=True)
             for _ in range(max(0, SETUP_SAMPLES - len(setups)))]
    traced_run = run_child(workload, path, seed, traced=True, setup_only=False) if traced else None
    return warmup, full, refs, extra, traced_run


def count_failures(runs: list[dict], reference_output) -> int:
    failed = 0
    for run in runs:
        if "output" in run and run["output"] != reference_output:
            run["failures"].append("output differs from the first run of this seed")
        if run["failures"]:
            failed += 1
            print(f"failed: {run['failures']}", file=sys.stderr)
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "triad" / "__init__.py").is_file():
        print(f"perfbench: no triad package under {SRC}", file=sys.stderr)
        return 2
    path = prepare_input(args.workload, args.seed)
    warmup, full, refs, extra, traced_run = measure(
        args.workload, path, args.seed, args.seconds, bool(args.trace))
    runs = [warmup] + full + extra + ([traced_run] if traced_run else [])
    done = [r for r in full if r.get("wall_s") is not None]
    wall_rel = [r["wall_s"] / ((refs[i] + refs[i + 1]) / 2)
                for i, r in enumerate(full) if r.get("wall_s") is not None]
    if not done:
        print(f"perfbench: every run failed: {full[0]['failures']}", file=sys.stderr)
        return 1
    failed = count_failures(runs, done[0].get("output"))

    if args.trace:
        if traced_run.get("wall_s") is None:
            print(f"perfbench: traced run failed: {traced_run['failures']}", file=sys.stderr)
            return 1
        layers = dict.fromkeys(PER_LAYER, 0.0)
        unknown = set(traced_run["layers"]) - set(layers)
        if unknown:
            raise KeyError(f"child reported unknown layer metrics {sorted(unknown)}")
        layers.update(traced_run["layers"])
        layers["command.wall_s"] = statistics.median(r["wall_s"] for r in done)
        layers["reference.wall_s"] = statistics.median(refs)
        layers["trace.overhead_s"] = (
            traced_run["wall_s"] - statistics.median(r["wall_s"] for r in done))
        trace_dir = CACHE / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"layers": layers, "spans": traced_run["spans"]}, fh)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_rel": statistics.median(wall_rel),
            "setup_s": statistics.median(
                r["setup_s"] for r in full + extra if r.get("setup_s") is not None),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
            "stored_peak_per_m": statistics.median(r["stored_peak_per_m"] for r in done),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    print(json.dumps({"env": {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": done[0]["numpy"],
        "workload": args.workload,
        "seed": args.seed,
        "commands": len(full),
        "setup_only": len(extra),
        "wall_s": [r["wall_s"] for r in done],
        "reference_wall_s": refs,
    }}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
