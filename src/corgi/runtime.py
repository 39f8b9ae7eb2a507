"""Policy-agnostic cached execution engine for the toy DiT.

:func:`run_with_policy` drives a schedule object from :mod:`corgi.policy`
through the denoising loop. At each step it asks the schedule which blocks
to serve from the cache, runs every block, and hands the step's block
outputs back; all policy state lives in the schedule. The cache holds, per
block, the :class:`BlockOutputs` of its last full computation at step t-hat.

Cache semantics follow the additive block decomposition: a cached block
reuses its stored ATTN and FFN outputs while the residual stream is
recomputed from the current hidden state,

    out = h_t + attn_cached + ffn_cached            (compute-residual, default)

with the ablation variant that replays the entire stored block output,

    out = h_that + attn_cached + ffn_cached         (reuse-residual)

When the schedule carries a salient refresh (corgi_plus), a cached block
instead recomputes attention rows for its salient set only and merges them
into the cached ATTN output through a binary mask; the FFN term stays cached
and the residual is always fresh.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .cost import (
    MODE_CACHED,
    MODE_CACHED_PARTIAL,
    MODE_FULL,
    CostReport,
    build_cost_report,
)
from .model import (
    BlockOutputs,
    Block,
    Matrix,
    Model,
    attention_rows,
    block_forward,
    denoise_step_mean,
    initial_hidden,
    predict_noise,
    state_checksum,
)
from .policy import RESIDUAL_CHOICES, CorgiConfig, make_schedule
from .saliency import SalientTokenSet, salient_rows


def execute_block_cached(
    h: Matrix, block: Block, entry: BlockOutputs, strategy: str
) -> BlockOutputs:
    """Run one cached block; the cross map is echoed stale from the entry."""
    if h.shape != entry.block_out.shape:
        raise ValueError("hidden state shape does not match cache entry")
    if strategy not in RESIDUAL_CHOICES:
        raise ValueError(f"residual must be one of {RESIDUAL_CHOICES}, got {strategy!r}")
    out = entry.block_out if strategy == "reuse" else (h + entry.attn_out) + entry.ffn_out
    return BlockOutputs(
        attn_out=entry.attn_out,
        ffn_out=entry.ffn_out,
        block_out=out,
        cross_map=entry.cross_map,
    )


def partial_attention(block: Block, h: Matrix, s: SalientTokenSet, text_tokens: int) -> Matrix:
    """ATTN output rows for the salient tokens only.

    Keys/values come from the full current hidden state; only queries, scores
    and the output projection are restricted, so each returned row is
    bit-equal to the same row of a full attention evaluation.
    """
    rows = salient_rows(s, text_tokens)
    if rows.size == 0:
        return np.zeros((0, h.shape[1]))
    out, _ = attention_rows(block, h, rows)
    return out


def masked_merge(new_rows: Matrix, cached: Matrix, mask: np.ndarray) -> Matrix:
    """Row-wise merge: mask 1 takes the fresh row, mask 0 keeps the cache.

    new_rows carries exactly the popcount(mask) masked rows, in ascending row
    order.
    """
    cached = np.asarray(cached, dtype=np.float64)
    mask = np.asarray(mask)
    if mask.ndim != 1 or mask.shape[0] != cached.shape[0]:
        raise ValueError("mask length does not match cached rows")
    rows = np.flatnonzero(mask)
    new_rows = np.asarray(new_rows, dtype=np.float64)
    if new_rows.shape[0] != rows.size:
        raise ValueError(f"expected {rows.size} update rows, got {new_rows.shape[0]}")
    out = cached.copy()
    out[rows] = new_rows
    return out


def execute_block_corgi_plus(
    h: Matrix,
    block: Block,
    entry: BlockOutputs,
    s: SalientTokenSet,
    mask: np.ndarray,
    text_tokens: int,
) -> BlockOutputs:
    """Cached block with salient-row attention refresh.

    attn term = masked merge of fresh salient rows into the cached ATTN
    output; FFN stays cached; the residual stream is always recomputed.
    """
    fresh = partial_attention(block, h, s, text_tokens)
    merged = masked_merge(fresh, entry.attn_out, mask)
    out = (h + merged) + entry.ffn_out
    return BlockOutputs(
        attn_out=merged,
        ffn_out=entry.ffn_out,
        block_out=out,
        cross_map=entry.cross_map,
    )


TRACE_SCHEMA = "corgi-trace/2"


def _encode_array(a: Matrix) -> dict:
    """An array as its shape and the base64 of its little-endian float64
    bytes: bit-exact, and far cheaper than decimal text."""
    raw = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "f64le": base64.b64encode(raw).decode("ascii")}


def _decode_array(d: dict) -> Matrix:
    """Inverse of :func:`_encode_array`: an owned, writable, C-contiguous
    native float64 array."""
    shape = tuple(d["shape"])
    raw = base64.b64decode(d["f64le"], validate=True)
    want = 8 * math.prod(shape)
    if len(raw) != want:
        raise ValueError(f"array of shape {list(shape)} needs {want} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


@dataclass
class StepRecord:
    """One step of a policy run: directive, per-block modes, outputs."""

    step: int
    role: str
    cached: tuple[int, ...]
    modes: tuple[str, ...]
    checksum: str
    noise_pred: Matrix

    def to_dict(self) -> dict:
        return {**vars(self), "noise_pred": _encode_array(self.noise_pred)}

    @classmethod
    def from_dict(cls, d: dict) -> "StepRecord":
        return cls(**{
            **d,
            "cached": tuple(d["cached"]),
            "modes": tuple(d["modes"]),
            "noise_pred": _decode_array(d["noise_pred"]),
        })


@dataclass
class Trace:
    """Serializable record of one policy run.

    JSON keys follow the fields of Trace, StepRecord and CostReport in
    declaration order; only arrays and nested records are converted.
    """

    schema: str
    created_at: str
    config: dict
    steps: list[StepRecord]
    contributions: list[dict]
    saliency: list[dict] | None
    final_output: Matrix
    cost: CostReport
    equivalent_to_reference: bool

    @property
    def noise_preds(self) -> list[Matrix]:
        return [r.noise_pred for r in self.steps]

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "steps": [r.to_dict() for r in self.steps],
            "final_output": _encode_array(self.final_output),
            "cost": asdict(self.cost),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Trace":
        if d.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"trace schema {d.get('schema')!r} is not supported; expected {TRACE_SCHEMA!r}"
            )
        return cls(**{
            **d,
            "steps": [StepRecord.from_dict(r) for r in d["steps"]],
            "final_output": _decode_array(d["final_output"]),
            "cost": CostReport(**d["cost"]),
        })

    def __eq__(self, other) -> bool:
        return isinstance(other, Trace) and self.to_dict() == other.to_dict()

    def to_json(self) -> str:
        """Serialize with full float round-trip precision."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))


def cost_report(trace: Trace) -> CostReport:
    """Analytic cost of a trace, computed from its step records and its
    salient-set picks alone."""
    model = trace.config["model"]
    if len(trace.steps) != model["total_steps"]:
        raise ValueError(
            f"incomplete trace: {len(trace.steps)} of {model['total_steps']} steps"
        )
    # each pick holds from its step until the block's next pick (entries come
    # in step order, so a later pick overwrites an earlier one)
    salient_sizes = {}
    for entry in trace.saliency or ():
        size = len(entry["text"]) + len(entry["image"])
        for step in range(entry["step"], len(trace.steps)):
            salient_sizes[(step, entry["block"])] = size
    return build_cost_report(
        [list(r.modes) for r in trace.steps],
        model["text_tokens"] + model["image_tokens"],
        model["hidden_dim"],
        model["ffn_dim"],
        model["image_tokens"],
        salient_sizes,
    )


def config_echo(model: Model, rcfg: CorgiConfig) -> dict:
    mc = model.config
    return {
        "model": asdict(mc),
        "beta_start": float(model.schedule.betas[0]),
        "beta_end": float(model.schedule.betas[-1]),
        "model_seed": model.seed,
        **asdict(rcfg),
        "policy": rcfg.policy.value,
    }


def run_with_policy(
    model: Model,
    x_init: Matrix,
    text_embed: Matrix | None,
    config: CorgiConfig,
) -> Trace:
    """Execute T denoising steps under a caching policy and emit a Trace.

    The policy's schedule (:func:`corgi.policy.make_schedule`) names the
    blocks to serve from the cache at each step and observes the step's
    block outputs afterwards. Every other block is computed in full and
    refreshes its cache entry. A directive that lands on a never-filled
    entry (only possible at step 0 with warmup=0) falls back to full
    computation. Cached blocks run through :func:`execute_block_corgi_plus`
    when the schedule carries a salient refresh, else through
    :func:`execute_block_cached` with the configured residual strategy.
    """
    mc = model.config
    rcfg = config.resolved(mc.total_steps, mc.num_blocks, mc.text_tokens)
    if text_embed is None:
        text_embed = model.text_embed
    x = np.asarray(x_init, dtype=np.float64)
    if x.shape != (mc.image_tokens, mc.hidden_dim):
        raise ValueError(
            f"x_init shape {x.shape} != ({mc.image_tokens}, {mc.hidden_dim})"
        )

    schedule = make_schedule(rcfg, mc)
    cache: list[BlockOutputs | None] = [None] * mc.num_blocks
    records: list[StepRecord] = []

    for s in range(mc.total_steps):
        directive = schedule.directive(s)
        refresh = schedule.refresh
        h = initial_hidden(model, x, s, text_embed)
        modes: list[str] = []
        step_outputs: list[BlockOutputs] = []
        for b, block in enumerate(model.blocks):
            entry = cache[b]
            if b in directive and entry is not None:
                if refresh is None:
                    outs = execute_block_cached(h, block, entry, rcfg.residual)
                    mode = MODE_CACHED
                else:
                    outs = execute_block_corgi_plus(h, block, entry, *refresh[b], mc.text_tokens)
                    mode = MODE_CACHED_PARTIAL
            else:
                outs = cache[b] = block_forward(block, h, mc.text_tokens)
                mode = MODE_FULL
            modes.append(mode)
            step_outputs.append(outs)
            h = outs.block_out

        eps = predict_noise(model, h)
        if not np.isfinite(eps).all():
            raise FloatingPointError(f"non-finite noise prediction at step {s}")
        x = denoise_step_mean(x, eps, mc.total_steps - s, model.schedule)
        records.append(
            StepRecord(
                step=s,
                role=schedule.label(s),
                cached=tuple(b for b, m in enumerate(modes) if m != MODE_FULL),
                modes=tuple(modes),
                checksum=state_checksum(h),
                noise_pred=eps,
            )
        )
        schedule.observe(s, step_outputs)

    trace = Trace(
        schema=TRACE_SCHEMA,
        created_at=datetime.now(timezone.utc).isoformat(),
        config=config_echo(model, rcfg),
        steps=records,
        contributions=schedule.contributions,
        saliency=schedule.saliency,
        final_output=x,
        cost=None,
        equivalent_to_reference=all(len(r.cached) == 0 for r in records),
    )
    trace.cost = cost_report(trace)
    return trace
