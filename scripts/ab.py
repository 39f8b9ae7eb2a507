"""In-process A/B timing of two ``corgi`` source trees on a perfbench job list.

    python scripts/ab.py SRC_A SRC_B --workload compare_deep --pairs 30

copies the ``corgi`` package of each SRC directory (the directory that holds
``corgi``) into a temporary directory as ``corgi_a`` and ``corgi_b``. The
package imports itself relatively, so both copies load into one process.
The process pins itself to one CPU (``--cpu``, default the last one it may
use) and runs the workload's job list once per copy per pair, one job at a
time: each job runs in both copies back to back, and which copy goes first
alternates from job to job and pair to pair. One untimed list per copy goes
first. A job list is one perfbench pass at the workload's shape and input
seed 0: the ``run_reference`` calls, then each policy's run with its
divergence and JSON round trip, or ``analyze_model``. The job lists
``compare_wide_cli`` and ``compare_deep_cli`` are one job each
(``compare``): ``cli.cmd_compare`` in process, model setup included, at
that workload's shape, input seed 0 and policy list. The job's bits are its
stdout (the JSON report); its stderr (the table) is discarded.

It prints one JSON line: for the whole list (``pass``), the reference calls
(``reference``) and each run, the median and quartiles of the per-pair
ratio B/A, and whether both copies gave the same bits (every reference
latent, every step checksum and noise prediction, the ablation maps, the
compare report).

Same-host drift cancels within a pair, so a few percent resolve in tens of
pairs. Copy A is imported first, and load order alone moved the ratio by
up to 1.3%, with a sign and a size that varied between runs (compare_wide's
A/A read 0.987, 0.990 and 1.001). So run every comparison in both orders,
each time with an A/A control: one directory passed twice.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

# spelled out rather than read from perfbench, so both trees run the same
# jobs; the shapes and job lists of perfbench/workloads.py
WORKLOADS = {
    "compare_wide": (
        dict(blocks=12, dim=64, ffn_dim=256, heads=4, text_tokens=16, image_tokens=64, steps=20),
        ("none", "corgi", "corgi_plus"),
        2,
    ),
    "compare_deep": (
        dict(blocks=48, dim=16, ffn_dim=32, heads=2, text_tokens=4, image_tokens=12, steps=60),
        ("none", "corgi", "corgi_plus", "per_step_naive", "parity", "random"),
        4,
    ),
    "ablate_small": (
        dict(blocks=8, dim=32, ffn_dim=128, heads=4, text_tokens=8, image_tokens=64, steps=20),
        (),
        4,
    ),
}
# the corgi compare command at a compare workload's shape and policy list
CLI_WORKLOADS = {f"{w}_cli": w for w in ("compare_wide", "compare_deep")}


def load_copy(src: str, name: str, root: Path):
    """Import the ``corgi`` package under ``src`` as ``name``."""
    shutil.copytree(Path(src) / "corgi", root / name, ignore=shutil.ignore_patterns("__pycache__"))
    return {mod: importlib.import_module(f"{name}.{mod}") for mod in ("analysis", "cli", "model", "runtime")}


def job_list(pkg, workload: str) -> list:
    """The workload's pass for one copy, as (label, job) pairs; a job takes
    the pass's state (the last reference trajectory) and returns the bytes
    that stand for its output's bits."""
    shape, policies, repeats = WORKLOADS[CLI_WORKLOADS.get(workload, workload)]
    cli, model, runtime, analysis = pkg["cli"], pkg["model"], pkg["runtime"], pkg["analysis"]
    cfg = {**cli.DEFAULTS, **shape, "seed": 0}
    if workload in CLI_WORKLOADS:
        def compare(state: dict) -> bytes:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                cli.cmd_compare(None, {**cfg, "policies": ",".join(policies)})
            return out.getvalue().encode()

        return [("compare", compare)]
    m, x = cli.setup(cfg)

    def reference(state: dict) -> bytes:
        state["ref"] = None  # so that no call runs while an earlier trajectory is alive
        state["ref"] = model.run_reference(m, x)
        return b"".join(a.tobytes() for a in state["ref"].latents)

    def ablate(state: dict) -> bytes:
        return b"".join(a.tobytes() for a in analysis.analyze_model(m, x).token_cosine)

    def run(policy: str):
        def job(state: dict) -> bytes:
            trace = runtime.run_with_policy(m, x, None, cli.policy_config(cfg, policy))
            analysis.divergence(trace, state["ref"])
            runtime.Trace.from_json(trace.to_json())
            return "".join(r.checksum for r in trace.steps).encode() + b"".join(
                a.tobytes() for a in trace.noise_preds
            )

        return job

    jobs = [("reference", reference)] * repeats
    return jobs + ([(f"run:{p}", run(p)) for p in policies] if policies else [("ablate", ablate)])


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a")
    parser.add_argument("src_b")
    parser.add_argument(
        "--workload", choices=sorted([*WORKLOADS, *CLI_WORKLOADS]), default="compare_deep"
    )
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        lists = [job_list(load_copy(src, name, Path(tmp)), args.workload)
                 for src, name in ((args.src_a, "corgi_a"), (args.src_b, "corgi_b"))]
        states = [{}, {}]
        for jobs, state in zip(lists, states):  # untimed: first calls pay one-off costs
            for _, job in jobs:
                job(state)
        ratios: dict[str, list[float]] = {}
        digests = [hashlib.sha256(), hashlib.sha256()]
        for pair in range(args.pairs):
            seconds = [{}, {}]
            for j in range(len(lists[0])):
                for i in (0, 1) if (pair + j) % 2 == 0 else (1, 0):
                    label, job = lists[i][j]
                    start = perf_counter()
                    out = job(states[i])
                    seconds[i][label] = seconds[i].get(label, 0.0) + perf_counter() - start
                    digests[i].update(out)
            for t in seconds:
                t["pass"] = sum(t.values())
            for label, a in seconds[0].items():
                ratios.setdefault(label, []).append(seconds[1][label] / a)

    print(json.dumps({
        "workload": args.workload,
        "a": args.src_a,
        "b": args.src_b,
        "pairs": args.pairs,
        "cpu": args.cpu,
        "ratio_b_over_a": {label: quartiles(r) for label, r in ratios.items()},
        "same_bits": digests[0].digest() == digests[1].digest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
