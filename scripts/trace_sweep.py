"""Print a digest of every run in a fixed configuration sweep.

    python scripts/trace_sweep.py SRC_DIR

imports ``corgi`` from SRC_DIR (the directory that holds the ``corgi``
package) and runs 960 ``run_with_policy`` configurations through the CLI's
own ``DEFAULTS``/``setup``/``policy_config``: 6 policies x warmup {default, 0}
x residual x refresh_saliency x parity, at 5 model shapes x 2 seeds. The
last two shapes' sequences (16 and 24 tokens) are multiples of the 8-row
matmul tile, so their full products go to the gemm unpadded, as every
perfbench workload's do: the projections in place, and the head views of
the scores (2 and 4 heads, the head counts of the perfbench workloads) after
one plain copy. The other shapes' sequences (20, 11, 17) take the padded
copy. Each run
prints one line: its config, the sha256 of ``Trace.to_json()`` with
``created_at`` blanked, a decision digest and an array digest. The decision
digest covers the same JSON without the numbers a kernel change moves in
their low-order bits (each step's ``noise_pred`` and ``checksum``,
``final_output``) and without the format tag ``schema``, and with each
boundary's contribution scores replaced by their ascending ranking, which is
all a policy reads from them. So it covers the config echo, every step's
role, cached blocks and modes, the rankings, the salient sets and the cost.
The array digest is the sha256 of the raw float64 bytes of every step's
``noise_pred`` and of ``final_output``; it does not depend on how a trace
encodes its arrays, so it compares the numbers of two checkouts whose trace
formats differ.
After the runs come the digests of ``run_reference`` (plain, and with each
single block pruned), of ``analyze_model`` and of ``corgi compare``'s JSON
for all six policies (``cmd_compare`` run in process, with its stdout
captured) for every shape and seed.

Two checkouts give comparable output, so

    diff <(python scripts/trace_sweep.py OLD/src) <(python scripts/trace_sweep.py src)

lists exactly the runs whose bytes changed; comparing only the decision
column (the second-last) of the ``run`` lines lists the runs whose cache
decisions changed, and the last column the runs whose arrays changed.
The sweep takes about 10 s on one core of a 2-vCPU x86 VM.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys

SHAPES = (
    {},  # the CLI defaults: 8 blocks, d=32, 4+16 tokens, 12 steps
    {"blocks": 4, "dim": 16, "ffn_dim": 32, "heads": 2, "text_tokens": 3, "image_tokens": 8, "steps": 10},
    {"blocks": 6, "dim": 24, "ffn_dim": 48, "heads": 3, "text_tokens": 5, "image_tokens": 12, "steps": 9},
    {"blocks": 4, "dim": 16, "ffn_dim": 32, "heads": 2, "text_tokens": 4, "image_tokens": 12, "steps": 8},
    {"blocks": 4, "dim": 32, "ffn_dim": 64, "heads": 4, "text_tokens": 8, "image_tokens": 16, "steps": 6},
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


def _decision_digest(trace) -> str:
    d = trace.to_dict()
    del d["schema"], d["final_output"]
    d["steps"] = [{k: v for k, v in r.items() if k not in ("noise_pred", "checksum")} for r in d["steps"]]
    d["contributions"] = [
        {**c, "scores": sorted(range(len(c["scores"])), key=c["scores"].__getitem__)}
        for c in d["contributions"]
    ]
    return _sha(json.dumps(d).encode())


def _array_digest(trace) -> str:
    return _sha(b"".join(a.tobytes() for a in trace.noise_preds + [trace.final_output]))


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
            digests = (
                f"{_sha(trace.to_json().encode())} {_decision_digest(trace)} {_array_digest(trace)}"
            )
            print(f"run {label} policy={policy} {knob_text} {digests}")
        print(f"reference {label} pruned=- {_trajectory_digest(model.run_reference(m, x))}")
        for b in range(m.config.num_blocks):
            traj = model.run_reference(m, x, pruned_blocks={b})
            print(f"reference {label} pruned={b} {_trajectory_digest(traj)}")
        report = json.dumps(analysis.analyze_model(m, x).to_dict())
        print(f"analyze {label} {_sha(report.encode())}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):  # the table, then the JSON
            cli.cmd_compare(None, {**base, "policies": ",".join(POLICIES)})
        text = out.getvalue()
        print(f"compare {label} {_sha(text[text.index('{'):].encode())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
