"""The benchmark's workloads, their inputs and their closed-form truths.

Each workload is a batch job run as a closed loop with one client: the next
command starts when the previous one has finished.

pa-main      `estimate --mode main` on a shuffled, file-backed pa(5000, 4)
             stream. The sampled regime the paper is about: stage-0 uniform
             sampling and the per-anchor neighbour banks do most of the
             work, file reads come second, and the exact oracles are idle.
lb-exact     `triad exact` on the lower-bound NO gadget (p = q = 40,
             N = 150, one shared block; m = 161,600). The exact oracles do
             all the work, and T = p^2 q checks the output independently.
wheel-ideal  `estimate --mode ideal` on wheel(25001). The same layers used
             differently: weighted reservoirs instead of uniform ones, an
             in-memory stream instead of a file, and the graph only loaded.

Inputs are written by `triad gen`, so the command under test only ever
receives an edge-list file and its truth sidecar. The workload seed drives
the generator, the stream order and every sampler, except that pa-main
always reads the one PA graph `triad gen` writes by default (seed 0): T,
and with it the sample sizes and the whole cost, differs by several per
cent between PA seeds, which would swamp the run-to-run comparison.

The inputs are sized so that one command takes about two seconds on a
shared 2-vCPU x86 host, and a 30-second run holds ten or more of them:
their median then moves little between runs.
"""

from __future__ import annotations

WORKLOADS = {
    "pa-main": {
        "family": "pa",
        "params": {"n": 5000, "attach": 4},
        "graph_seed": 0,
        "mode": "main",
        "epsilon": 0.2,
        "scale": 0.005,
        "repetitions": 1,
    },
    "lb-exact": {
        "family": "lb",
        "params": {"p": 40, "q": 40, "N": 150, "kind": "no", "shared": 1},
        "mode": "exact",
    },
    "wheel-ideal": {
        "family": "wheel",
        "params": {"n": 25001},
        "mode": "ideal",
        "epsilon": 0.25,
    },
}

# The ten keys every main-mode report carries; ideal mode adds one more.
REPORT_KEYS = (
    "estimate", "passes", "stored_edges_peak", "r", "ell", "s",
    "assignment_calls", "memo_size", "seed", "config",
)
IDEAL_EXTRA_KEYS = ("oracle_queries",)

MAIN_PASSES_PER_REPETITION = 6
IDEAL_PASSES = 3

# An estimate further than this factor from the truth counts as wrong. It
# is a sanity band, wide enough that sampling noise never reaches it.
ESTIMATE_BAND = 2.0


def graph_seed(workload: str, seed: int) -> int:
    return WORKLOADS[workload].get("graph_seed", seed)


def input_name(workload: str, seed: int) -> str:
    spec = WORKLOADS[workload]
    params = "-".join(f"{k}{v}" for k, v in sorted(spec["params"].items()))
    return f"{spec['family']}-{params}-seed{graph_seed(workload, seed)}"


def gen_args(workload: str, seed: int, out: str) -> list[str]:
    """Arguments for `python -m triad` that write the workload's input."""
    spec = WORKLOADS[workload]
    args = ["--quiet", "--seed", str(graph_seed(workload, seed)), "gen", spec["family"]]
    for key, value in spec["params"].items():
        args += [f"--{key}", str(value)]
    return args + ["--out", out]


def closed_form(workload: str) -> dict:
    """Truth that follows from the generator's parameters alone.

    pa: every vertex after the first `attach` adds exactly `attach` edges,
        and creation order bounds the degeneracy by `attach`.
    lb: A and B have p vertices each and every block q; A x B is complete,
        N/3 blocks join A and N/3 join B, `shared` of them join both, and
        the other blocks stay isolated, so they count towards n but are
        absent from the edge list. An A or B vertex has degree p + q N / 3,
        a block vertex p per side it joins.
    wheel: hub 0 joined to an (n-1)-cycle; every edge degree is 3.
    """
    spec = WORKLOADS[workload]
    params = spec["params"]
    if spec["family"] == "pa":
        n, attach = params["n"], params["attach"]
        return {"m": (n - attach) * attach, "kappa_max": attach}
    if spec["family"] == "lb":
        p, q, blocks, shared = params["p"], params["q"], params["N"], params["shared"]
        ones = blocks // 3
        side_degree = p + q * ones
        d_e = (p * p * side_degree
               + 2 * (ones - shared) * q * p * p
               + shared * q * (2 * p) * (2 * p))
        return {
            "n": 2 * p + blocks * q,
            "endpoints": 2 * p + (2 * ones - shared) * q,
            "m": p * p + 2 * ones * p * q,
            "T": shared * p * p * q,
            "kappa_min": p,
            "kappa_max": 2 * p,
            "d_E": d_e,
        }
    n = params["n"]
    return {"n": n, "m": 2 * (n - 1), "T": n - 1, "kappa": 3, "d_E": 6 * (n - 1)}
