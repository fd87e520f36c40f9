"""Smoke runs of the experiment scripts at toy sizes, as subprocesses, and
their agreement with `triad bench` on the same manifest rows."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "space_scaling": ("scripts/space_scaling.py", "--sizes", "50", "--scale", "0.05"),
    "accuracy_trials": ("scripts/accuracy_trials.py", "--size", "50", "--trials", "1",
                        "--repetitions", "1"),
}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_runs(name, tmp_path):
    script, *args = SCRIPTS[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / script), *args],
                         capture_output=True, text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()


def run(args, cwd):
    """`python *args` in `cwd`, with this checkout's `src` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          cwd=cwd)


def table_rows(stdout: str) -> list[list[str]]:
    """The whitespace-split lines of a script's table that start with a number."""
    return [line.split() for line in stdout.splitlines() if line[:6].strip().isdigit()]


def bench_rows(rows: list[dict], tmp_path) -> list[dict]:
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(rows))
    res = run(["-m", "triad", "bench", str(manifest), "--fixed-clock"], tmp_path)
    assert res.returncode == 0, res.stderr
    return list(csv.DictReader(res.stdout.splitlines()))


CONFIG = {"epsilon": 0.2, "repetitions": 3, "scale": 0.002}


def test_accuracy_trials_match_bench(tmp_path):
    res = run([str(ROOT / "scripts/accuracy_trials.py"), "--family", "book", "--size", "200",
               "--trials", "3", "--repetitions", "3", "--scale", "0.002", "--seed", "4"],
              tmp_path)
    assert res.returncode == 0, res.stderr
    bench = bench_rows([{"family": "book", "params": {"k": 200}, "config": CONFIG,
                         "trials": 3, "seed": 4}], tmp_path)
    # trial, estimate, rel_err, r, ell, peak
    assert [(t[1], t[3], t[4], t[5]) for t in table_rows(res.stdout)] == [
        (f"{float(b['estimate']):.2f}", b["r"], b["ell"], b["stored_edges_peak"])
        for b in bench]
    # sampled, not the exact fallback, on more than one stream order
    assert len({b["estimate"] for b in bench}) > 1


def test_space_scaling_matches_bench(tmp_path):
    res = run([str(ROOT / "scripts/space_scaling.py"), "--sizes", "200", "400",
               "--repetitions", "3", "--scale", "0.002", "--seed", "4"], tmp_path)
    assert res.returncode == 0, res.stderr
    bench = bench_rows([{"family": "book", "params": {"k": k}, "config": CONFIG, "seed": 4}
                        for k in (200, 400)], tmp_path)
    # k, m, T, r, ell, peak
    assert [tuple(t[1:6]) for t in table_rows(res.stdout)] == [
        (b["m"], b["T_exact"], b["r"], b["ell"], b["stored_edges_peak"]) for b in bench]


def test_accuracy_trials_lb_defaults_sample(tmp_path):
    # the lb arm's default gadget and scale keep r below m, so the trial
    # samples instead of counting exactly
    res = run([str(ROOT / "scripts/accuracy_trials.py"), "--family", "lb", "--trials", "1",
               "--repetitions", "1"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "m=161600 T=64000" in res.stderr
    [trial] = table_rows(res.stdout)
    assert "exact-fallback" not in trial
    assert int(trial[3]) < 161600


def test_accuracy_trials_refused_size_is_one_line(tmp_path):
    res = run([str(ROOT / "scripts/accuracy_trials.py"), "--family", "lb", "--size", "998",
               "--trials", "1"], tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.splitlines() == [
        "accuracy_trials.py: error: block count must be a positive multiple of 3, got 998"]
