"""Workload definitions, one timed pass of each, and the output checks.

A pass is the workload's job list, run once by one caller that waits for
every call to return (a closed loop with one client). Jobs call the public
library API through module attributes, the way ``corgi compare``,
``corgi run -o`` and ``corgi ablate`` do, so an installed tracer sees them.

Each run (``run_reference``, ``run_with_policy``, ``analyze_model``) is one
operation; it fails when it raises or when any check on its output fails.
The checks hold under reordered float sums: they compare a run with another
run of the same code, or with a stored cosine to a tolerance, never with a
stored checksum.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from corgi import analysis, cli, model as corgi_model, policy as corgi_policy, runtime

GOLDENS_PATH = Path(__file__).resolve().parent / "goldens.json"
# Inputs repeat with this period in --seed, so every input has a stored value.
INPUT_SEED_PERIOD = 32
# Allowed drift of a final-output (or ablation-map) cosine from its stored
# value; reordered float64 sums move it by far less.
COSINE_TOL = 1e-6

BASELINES = ("per_step_naive", "parity", "random")
ALL_POLICIES = ("none", "corgi", "corgi_plus") + BASELINES
KERNEL_SPANS = ("numerics.matmul", "numerics.matmul_nt", "model.ffn_forward")

# Spans that every run exercises through the full-compute block.
_BLOCK_SPANS = (
    "numerics.matmul", "numerics.matmul_nt", "numerics.ensure_matrix", "numerics.softmax_rows",
    "model.attention_rows", "model.ffn_forward", "model.block_forward", "model.run_reference",
)
_COMPARE_SPANS = _BLOCK_SPANS + (
    "runtime.run_with_policy", "runtime.execute_block_cached", "runtime.execute_block_corgi_plus",
    "runtime.partial_attention", "runtime.masked_merge", "runtime.state_checksum",
    "runtime.Trace.to_json", "runtime.Trace.from_json", "policy.select_cached",
    "contribution.contribution_scores", "saliency.identify_salient", "saliency.kmeans_1d_two",
    "analysis.divergence",
)


@dataclass(frozen=True)
class Workload:
    """Model shape (CLI flag names), job list and the spans it must fire.

    A pass starts with ``reference_repeats`` calls of ``run_reference``; more
    than one gives ``reference_s`` enough samples to be steady on a shared
    host. A workload without policies then runs ``analyze_model`` instead.
    """

    name: str
    shape: dict
    policies: tuple[str, ...]
    expected_spans: tuple[str, ...]
    reference_repeats: int

    def flags(self, input_seed: int) -> dict:
        cfg = dict(cli.DEFAULTS)
        cfg.update(self.shape, seed=input_seed)
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare_wide",
            dict(blocks=12, dim=64, ffn_dim=256, heads=4, text_tokens=16, image_tokens=64, steps=20),
            ("none", "corgi", "corgi_plus"),
            _COMPARE_SPANS,
            reference_repeats=2,
        ),
        Workload(
            "compare_deep",
            dict(blocks=48, dim=16, ffn_dim=32, heads=2, text_tokens=4, image_tokens=12, steps=60),
            ALL_POLICIES,
            _COMPARE_SPANS + ("policy.baseline_directives",),
            reference_repeats=4,
        ),
        Workload(
            "ablate_small",
            dict(blocks=8, dim=32, ffn_dim=128, heads=4, text_tokens=8, image_tokens=64, steps=20),
            (),
            _BLOCK_SPANS + ("analysis.block_ablation", "analysis.adjacent_step_cka"),
            reference_repeats=4,
        ),
    )
}


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as f:
        return json.load(f)


def retained_bytes(traj) -> int:
    """Bytes of array memory a ReferenceTrajectory keeps alive (views once)."""
    bases: dict[int, int] = {}

    def add(a) -> None:
        if isinstance(a, np.ndarray):
            base = a if a.base is None else a.base
            bases[id(base)] = base.nbytes

    for a in list(traj.noise_preds) + list(traj.latents):
        add(a)
    for step in getattr(traj, "block_outputs", ()):
        for outs in step:
            for a in vars(outs).values():
                add(a)
    return sum(bases.values())


def expected_cached(policy: str, rcfg, total_steps: int, num_blocks: int) -> list[int]:
    """Cached-block count per step that the schedule prescribes."""
    if policy == "none":
        return [0] * total_steps
    if policy in ("corgi", "corgi_plus"):
        roles = corgi_policy.plan_steps(total_steps, rcfg.warmup, rcfg.interval)
        return [
            corgi_policy.cached_count(r.offset, rcfg.gamma, rcfg.delta, num_blocks)
            if r.kind == corgi_policy.INTRA else 0
            for r in roles
        ]
    if policy == "parity":
        rem = 0 if rcfg.parity == "even" else 1
        per_step = sum(1 for b in range(num_blocks) if b % 2 == rem)
    else:
        per_step = num_blocks // 2
    return [0 if s < rcfg.warmup else per_step for s in range(total_steps)]


class Bench:
    """One workload at one input seed: model, passes, checks and counts.

    With ``goldens=None`` the stored-value checks are skipped and the values
    are collected in ``observed`` instead (used to write ``goldens.json``).
    """

    def __init__(self, workload: Workload, seed: int, goldens: dict | None):
        self.workload = workload
        self.input_seed = seed % INPUT_SEED_PERIOD
        self.cfg = workload.flags(self.input_seed)
        self.golden = None if goldens is None else goldens[workload.name][str(self.input_seed)]
        self.observed: dict = {}
        self.model, self.x = cli.setup(self.cfg)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_pass: dict[str, object] = {}
        self.facts: dict[str, float] = {}
        self.before_op = None  # called untimed before every operation

    # -- bookkeeping ----------------------------------------------------------

    def _op(self, seg: dict, tracer, label: str, fn, *args):
        """Run one operation as a timed job; None if it raised."""
        self.attempted += 1
        if self.before_op is not None:
            self.before_op()
        try:
            return self._timed(seg, tracer, label, fn, *args)
        except Exception as e:  # a failing run is counted, the loop goes on
            self._fail(label, f"raised {type(e).__name__}: {e}")
            return None

    @staticmethod
    def _timed(seg: dict, tracer, label: str, fn, *args):
        with tracer.job(label) if tracer is not None else nullcontext():
            start = perf_counter()
            out = fn(*args)
            elapsed = perf_counter() - start
        seg.setdefault(label, []).append(elapsed)
        return out

    def _fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 50:
            self.errors.append(f"{label}: {message}")

    def _judge(self, label: str, problems: list[str]) -> None:
        if problems:
            self._fail(label, "; ".join(problems))

    def check(self, label: str, problems: list[str]) -> None:
        """Count a check made outside a pass as one operation of its own."""
        self.attempted += 1
        self._judge(label, problems)

    def _same_as_first(self, key: str, fingerprint) -> bool:
        return self.first_pass.setdefault(key, fingerprint) == fingerprint

    def _cosine_ok(self, key, value: float, problems: list[str], label: str) -> None:
        if not math.isfinite(value):
            problems.append(f"{label} is not finite")
        elif self.golden is None:
            self.observed[key] = value
        elif abs(value - self.golden[key]) > COSINE_TOL:
            problems.append(f"{label} {value!r} is not within {COSINE_TOL} of {self.golden[key]!r}")

    # -- passes ---------------------------------------------------------------

    def run_pass(self, tracer=None) -> dict[str, list[float]]:
        """One pass of the job list; returns the seconds of each call per job label."""
        seg: dict[str, list[float]] = {}
        for _ in range(self.workload.reference_repeats):
            ref = None  # so that no call runs while an earlier trajectory is alive
            ref = self._op(seg, tracer, "reference", corgi_model.run_reference, self.model, self.x)
            if ref is None:
                continue
            mc = self.model.config
            problems = []
            if len(ref.noise_preds) != mc.total_steps or not np.isfinite(ref.final_output).all():
                problems.append("reference trajectory is incomplete or not finite")
            if not self._same_as_first("reference", hashlib.sha256(ref.final_output.tobytes()).hexdigest()):
                problems.append("final output differs from the first pass")
            self._judge("reference", problems)
            self.facts["retained_mb"] = retained_bytes(ref) / 2**20
        if not self.workload.policies:
            report = self._op(seg, tracer, "ablate", analysis.analyze_model, self.model, self.x)
            if report is not None and ref is not None:
                self._judge("ablate", self._check_ablation(report, ref))
        else:
            self._compare(seg, tracer, ref)
        return seg

    def _compare(self, seg: dict, tracer, ref) -> None:
        mc = self.model.config
        computed = total = 0
        for p in self.workload.policies:
            label = f"run:{p}"
            trace = self._op(seg, tracer, label, runtime.run_with_policy, self.model, self.x, None,
                             cli.policy_config(self.cfg, p))
            if trace is None:
                continue
            if ref is None:
                self._fail(label, "no reference to check against")
                continue
            try:
                div = self._timed(seg, tracer, f"divergence:{p}", analysis.divergence, trace, ref)
                text = self._timed(seg, tracer, f"trace_io:{p}", trace.to_json)
                back = self._timed(seg, tracer, f"trace_io:{p}", runtime.Trace.from_json, text)
            except Exception as e:  # counted against this run, the loop goes on
                self._fail(label, f"divergence or JSON round trip raised {type(e).__name__}: {e}")
                continue

            problems = []
            if back != trace:
                problems.append("trace changed in a JSON round trip")
            if not self._same_as_first(label, [r.checksum for r in trace.steps]):
                problems.append("per-step checksums differ from the first pass")
            rcfg = cli.policy_config(self.cfg, p).resolved(mc.total_steps, mc.num_blocks, mc.text_tokens)
            want = expected_cached(p, rcfg, mc.total_steps, mc.num_blocks)
            mode = "cached_partial" if p == "corgi_plus" else "cached"
            got = [(len(r.cached), r.modes.count(mode), r.modes.count("full")) for r in trace.steps]
            if got != [(n, n, mc.num_blocks - n) for n in want]:
                problems.append(f"per-step modes {got} do not match the schedule {want}")
            if p == "none":
                same = all(np.array_equal(a, b) for a, b in zip(trace.noise_preds, ref.noise_preds))
                if not (trace.equivalent_to_reference and same
                        and np.array_equal(trace.final_output, ref.final_output)):
                    problems.append("none is not bit-equal to run_reference")
            self._cosine_ok(p, div.final_cosine, problems, "final-output cosine")
            self._judge(label, problems)

            computed += trace.cost.blocks_computed
            total += trace.cost.blocks_total
            self.facts[f"flop_speedup.{p}"] = trace.cost.speedup
            self.facts[f"flops_actual.{p}"] = trace.cost.flops_actual
        if total:
            self.facts["cache_reuse_ratio"] = 1.0 - computed / total

    def _check_ablation(self, report, ref) -> list[str]:
        mc = self.model.config
        problems = []
        maps = report.token_cosine
        if len(maps) != mc.num_blocks:
            problems.append(f"{len(maps)} ablation maps for {mc.num_blocks} blocks")
        for b, m in enumerate(maps):
            if m.shape != (mc.total_steps, mc.image_tokens):
                problems.append(f"block {b} map has shape {m.shape}")
            elif not (np.isfinite(m).all() and m.min() >= -1.0 and m.max() <= 1.0):
                problems.append(f"block {b} map has values outside [-1, 1]")
        if report.adjacent_cka != analysis.adjacent_step_cka(ref):
            problems.append("adjacent-step series differs from the reference's")
        if problems:
            return problems
        digest = hashlib.sha256(b"".join(m.tobytes() for m in maps)).hexdigest()
        if not self._same_as_first("ablate", digest):
            problems.append("ablation maps differ from the first pass")
        for b, value in enumerate(report.mean_cosine.mean(axis=1).tolist()):
            self._cosine_ok(str(b), value, problems, f"block {b} mean ablation cosine")
        return problems


def job_totals(seg: dict[str, list[float]]) -> dict[str, float]:
    """End-to-end seconds of one pass, keyed by metric name.

    ``reference_s`` is left out: its samples are the single calls, which
    ``reference_calls`` gives.
    """
    out = {"pass_s": sum(map(sum, seg.values()))}
    for label, calls in seg.items():
        kind, _, policy = label.partition(":")
        if kind == "ablate":
            out["ablate_s"] = sum(calls)
        elif kind == "run":
            out[f"run_s.{policy}"] = sum(calls)
        elif kind in ("trace_io", "divergence"):
            out[f"{kind}_s"] = out.get(f"{kind}_s", 0.0) + sum(calls)
    if all(f"run_s.{b}" in out for b in BASELINES):
        out["run_s.baselines"] = sum(out[f"run_s.{b}"] for b in BASELINES)
    return out


def reference_calls(seg: dict[str, list[float]]) -> list[float]:
    """Seconds of each ``run_reference`` call in one pass."""
    return seg.get("reference", [])
