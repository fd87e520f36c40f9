"""A fixed reference command, timed next to each workload command.

    python3 perfbench/calibrate.py

It imports nothing from the repository, so its cost never changes with the
code under test. What it does resembles the workloads: a seeded random graph
in Python dicts and sets, a triangle count over them, reservoir sampling
driven by random draws, and many small numpy draws and compares, one call
per edge, as the samplers make them. It prints its own wall time,
measured like a workload command's, as the last line of stdout.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import random  # noqa: E402

import numpy as np  # noqa: E402

N = 6000
DEGREE = 8
RESERVOIR = 2000
LANES = 2000


def main() -> None:
    rng = random.Random(12345)
    adj: dict[int, set[int]] = {v: set() for v in range(N)}
    edges = []
    for v in range(1, N):
        for u in rng.sample(range(max(0, v - 50), v), min(DEGREE, v)):
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v))
    triangles = sum(len(adj[u] & adj[v]) for u, v in edges) // 3
    reservoir: list = []
    for i, edge in enumerate(edges * 3):
        if i < RESERVOIR:
            reservoir.append(edge)
        else:
            j = rng.randrange(i + 1)
            if j < RESERVOIR:
                reservoir[j] = edge
    gen = np.random.default_rng(12345)
    hits = 0
    for i in range(1, len(edges) // 2):
        hits += np.flatnonzero(gen.random(LANES) < 1.0 / i).size
    arr = np.array(edges, dtype=np.int64)
    degrees = np.bincount(arr.ravel(), minlength=N)
    checksum = int(degrees.sum()) + triangles + len(reservoir) + hits
    print(json.dumps({"wall_s": time.perf_counter() - STARTED, "checksum": checksum}))


if __name__ == "__main__":
    main()
