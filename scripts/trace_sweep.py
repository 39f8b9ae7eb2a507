"""Print a digest of every run in a fixed configuration sweep.

    python scripts/trace_sweep.py SRC_DIR

imports ``corgi`` from SRC_DIR (the directory that holds the ``corgi``
package) and runs 576 ``run_with_policy`` configurations through the CLI's
own ``DEFAULTS``/``setup``/``policy_config``: 6 policies x warmup {default, 0}
x residual x refresh_saliency x parity, at 3 model shapes x 2 seeds. Each run
prints one line, its config and then the sha256 of ``Trace.to_json()`` with
``created_at`` blanked. After the runs come the digests of ``run_reference``
(plain, and with each single block pruned) and of ``analyze_model`` for every
shape and seed.

Two checkouts give comparable output, so

    diff <(python scripts/trace_sweep.py OLD/src) <(python scripts/trace_sweep.py src)

lists exactly the runs whose bytes changed. The sweep takes about 30 s on
one core of a 2-vCPU x86 VM.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys

SHAPES = (
    {},  # the CLI defaults: 8 blocks, d=32, 4+16 tokens, 12 steps
    {"blocks": 4, "dim": 16, "ffn_dim": 32, "heads": 2, "text_tokens": 3, "image_tokens": 8, "steps": 10},
    {"blocks": 6, "dim": 24, "ffn_dim": 48, "heads": 3, "text_tokens": 5, "image_tokens": 12, "steps": 9},
)
SEEDS = (0, 3)
# spelled out rather than read from corgi, so every checkout sweeps the same runs
POLICIES = ("none", "corgi", "corgi_plus", "per_step_naive", "parity", "random")
KNOBS = {
    "warmup": (None, 0),
    "residual": ("compute", "reuse"),
    "refresh_saliency": (False, True),
    "parity": ("even", "odd"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _trajectory_digest(traj) -> str:
    return _sha(b"".join(m.tobytes() for m in traj.noise_preds + traj.latents))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, argv[0])
    from corgi import analysis, cli, model, runtime

    for (n, shape), seed in itertools.product(enumerate(SHAPES), SEEDS):
        base = {**cli.DEFAULTS, **shape, "seed": seed}
        m, x = cli.setup(base)
        label = f"shape={n} seed={seed}"
        for policy, values in itertools.product(POLICIES, itertools.product(*KNOBS.values())):
            knobs = dict(zip(KNOBS, values))
            trace = runtime.run_with_policy(m, x, None, cli.policy_config({**base, **knobs}, policy))
            trace.created_at = ""
            knob_text = " ".join(f"{k}={v}" for k, v in knobs.items())
            print(f"run {label} policy={policy} {knob_text} {_sha(trace.to_json().encode())}")
        print(f"reference {label} pruned=- {_trajectory_digest(model.run_reference(m, x))}")
        for b in range(m.config.num_blocks):
            traj = model.run_reference(m, x, pruned_blocks={b})
            print(f"reference {label} pruned={b} {_trajectory_digest(traj)}")
        report = json.dumps(analysis.analyze_model(m, x).to_dict())
        print(f"analyze {label} {_sha(report.encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
