"""Write perfbench/goldens.json: the stored cosines the benchmark checks.

For every workload and every input seed in 0..INPUT_SEED_PERIOD-1 this runs
one untimed pass and keeps each policy's final-output cosine against the
reference (compare workloads) or each block's mean ablation cosine
(ablate_small). Run it from the repository root only when the expected
outputs change on purpose:

    python3 perfbench/make_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def main() -> int:
    goldens = {}
    for name, workload in workloads.WORKLOADS.items():
        goldens[name] = {}
        for seed in range(workloads.INPUT_SEED_PERIOD):
            bench = workloads.Bench(workload, seed, goldens=None)
            bench.run_pass()
            if bench.failed:
                print(f"{name} seed {seed}: {bench.errors}", file=sys.stderr)
                return 1
            goldens[name][str(seed)] = bench.observed
            print(f"{name} seed {seed}: {bench.observed}", flush=True)
    with open(workloads.GOLDENS_PATH, "w") as f:
        json.dump(goldens, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
