"""Paired wall-clock speedup of every policy over ``none`` at one model size.

    python scripts/speedups.py SRC --size tiny --pairs 30

imports the ``corgi`` package from SRC (the directory that holds
``corgi``), pins the process to one CPU (``--cpu``, default the last one it
may use) and builds the size's model and initial noise at seed 0, as the CLI
does. Each row is one job run back to back with ``none`` (``run_with_policy``
under the none policy), once per pair, with the order alternating from row
to row and pair to pair: one row per policy other than none, at the CLI's
default policy settings, and one for ``run_reference``. The ``aa`` row runs
``none`` against itself, as the control. Each job runs once untimed first.

It prints one JSON line: per row, the median and quartiles of the per-pair
ratio ``none / job`` (above 1 when the job is faster than ``none``), the
sample count and the policy's FLOP speedup (``Trace.cost.speedup``; null
for ``run_reference``), and the median seconds of ``none``. Same-host drift
cancels within a pair; the spread of ``aa`` around 1 is the resolution.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from ab import quartiles  # scripts/ab.py, beside this script

# CLI flag names; tiny is the CLI defaults
SIZES = {
    "tiny": dict(blocks=8, dim=32, ffn_dim=64, heads=4, text_tokens=4, image_tokens=16, steps=12),
    "mid": dict(blocks=16, dim=64, ffn_dim=256, heads=4, text_tokens=16, image_tokens=128, steps=25),
    "large": dict(blocks=28, dim=128, ffn_dim=512, heads=8, text_tokens=32, image_tokens=256, steps=50),
}
DEFAULT_PAIRS = {"tiny": 30, "mid": 10, "large": 3}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src")
    parser.add_argument("--size", choices=sorted(SIZES), default="tiny")
    parser.add_argument("--pairs", type=int, help="default: 30 at tiny, 10 at mid, 3 at large")
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    args = parser.parse_args(argv)
    pairs = DEFAULT_PAIRS[args.size] if args.pairs is None else args.pairs
    os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, args.src)
    import corgi
    from corgi import PolicyKind, run_reference, run_with_policy
    from corgi.cli import DEFAULTS, policy_config, setup

    if Path(corgi.__file__).resolve().parent != Path(args.src).resolve() / "corgi":
        parser.error(f"imported corgi from {corgi.__file__}, not from {args.src}")
    cfg = {**DEFAULTS, **SIZES[args.size], "seed": 0}
    model, x = setup(cfg)

    def policy(p: PolicyKind):
        return lambda: run_with_policy(model, x, None, policy_config(cfg, p))

    none = policy(PolicyKind.NONE)
    jobs = {p.value: policy(p) for p in PolicyKind if p != PolicyKind.NONE}
    jobs["run_reference"] = lambda: run_reference(model, x)
    jobs["aa"] = none
    flop_speedup = {}
    for label, job in jobs.items():  # untimed: first calls pay one-off costs
        out = job()
        flop_speedup[label] = None if label == "run_reference" else out.cost.speedup
    del out

    ratios: dict[str, list[float]] = {label: [] for label in jobs}
    none_s = []
    for pair in range(pairs):
        for j, (label, job) in enumerate(jobs.items()):
            seconds = {}
            for name, fn in (("none", none), ("job", job))[:: 1 if (pair + j) % 2 == 0 else -1]:
                start = perf_counter()
                fn()
                seconds[name] = perf_counter() - start
            ratios[label].append(seconds["none"] / seconds["job"])
            none_s.append(seconds["none"])

    print(json.dumps({
        "size": args.size,
        "src": args.src,
        "pairs": pairs,
        "cpu": args.cpu,
        "none_s": round(float(np.median(none_s)), 5),
        "none_over_job": {
            label: {**quartiles(r), "n": len(r), "flop_speedup": flop_speedup[label]}
            for label, r in ratios.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
