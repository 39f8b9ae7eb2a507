"""Policy-agnostic cached execution engine for the toy DiT.

:func:`denoise` is the one denoising loop. It drives a schedule object from
:mod:`corgi.policy`: :func:`run_with_policy` runs it under any policy, and
:func:`corgi.model.run_reference` under none, over the blocks it does not
prune. Before each step the loop asks the schedule for the step's plan
(which blocks to serve from the cache, among other things), runs every
block, and hands the step's block outputs back; all policy state lives in
the schedule. The cache holds, per block, the :class:`BlockOutputs` of its
last full computation at step t-hat. A run of the none policy, which never
serves the cache, keeps no cache at all.

Cache semantics follow the additive block decomposition: a cached block
reuses its stored ATTN and FFN outputs while the residual stream is
recomputed from the current hidden state,

    out = h_t + attn_cached + ffn_cached            (compute-residual, default)

with the ablation variant that replays the entire stored block output,

    out = h_that + attn_cached + ffn_cached         (reuse-residual)

When the plan carries a salient refresh (corgi_plus), a cached block
instead recomputes attention rows for its salient set only and merges them
into the cached ATTN output through a binary mask; the FFN term stays cached
and the residual is always fresh.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone

import numpy as np

from .cost import (
    MODE_CACHED,
    MODE_CACHED_PARTIAL,
    MODE_FULL,
    MODES,
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
    check_run_inputs,
    denoise_step_mean,
    initial_hidden,
    predict_noise,
    state_checksum,
)
from .policy import CorgiConfig, make_schedule
from .saliency import SalientTokenSet, salient_rows


def execute_block_cached(
    h: Matrix, entry: BlockOutputs, strategy: str
) -> BlockOutputs:
    """Run one cached block from its cache entry alone; it forms no cross map.

    Unchecked: the engine passes an L x d state and a strategy that
    :meth:`CorgiConfig.resolved` validated.
    """
    out = entry.block_out if strategy == "reuse" else (h + entry.attn_out) + entry.ffn_out
    return BlockOutputs(
        attn_out=entry.attn_out,
        ffn_out=entry.ffn_out,
        block_out=out,
    )


def partial_attention(block: Block, h: Matrix, s: SalientTokenSet, text_tokens: int) -> Matrix:
    """ATTN output rows for the salient tokens only.

    Keys/values come from the full current hidden state; only queries, scores
    and the output projection are restricted, so each returned row is
    bit-equal to the same row of a full attention evaluation. The set's
    indices are checked against h's token counts (:func:`salient_rows`); h
    itself is not: non-finite rows of h propagate into non-finite output rows.
    """
    out, _ = attention_rows(block, h, salient_rows(s, text_tokens, h.shape[0] - text_tokens))
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
    output; FFN stays cached; the residual stream is always recomputed. It
    forms no cross map.
    """
    fresh = partial_attention(block, h, s, text_tokens)
    merged = masked_merge(fresh, entry.attn_out, mask)
    out = (h + merged) + entry.ffn_out
    return BlockOutputs(
        attn_out=merged,
        ffn_out=entry.ffn_out,
        block_out=out,
    )


TRACE_SCHEMA = "corgi-trace/3"


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


def _field_values(record) -> dict:
    """A dataclass record's fields by name, in declaration order; properties
    are not fields."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


@dataclass
class StepRecord:
    """One step of a policy run: its role, per-block modes and outputs. The
    cached blocks derive from the modes."""

    step: int
    role: str
    modes: tuple[str, ...]
    checksum: str
    noise_pred: Matrix

    @property
    def cached(self) -> tuple[int, ...]:
        """The blocks served from the cache: every block whose mode is not full."""
        return tuple(b for b, m in enumerate(self.modes) if m != MODE_FULL)

    def to_dict(self) -> dict:
        return {**_field_values(self), "noise_pred": _encode_array(self.noise_pred)}

    @classmethod
    def from_dict(cls, d: dict) -> "StepRecord":
        return cls(**{
            **d,
            "modes": tuple(d["modes"]),
            "noise_pred": _decode_array(d["noise_pred"]),
        })


@dataclass
class Trace:
    """Serializable record of one policy run: what it decided and produced.

    JSON keys follow the fields of Trace and StepRecord in declaration order;
    only arrays and nested records are converted. ``cost``,
    ``equivalent_to_reference`` and each step's ``cached`` are derived from
    the modes, the salient-set picks and the config echo each time they are
    read, and are not stored.
    """

    schema: str
    created_at: str
    config: dict
    steps: list[StepRecord]
    contributions: list[dict]
    saliency: list[dict] | None
    final_output: Matrix

    @property
    def noise_preds(self) -> list[Matrix]:
        return [r.noise_pred for r in self.steps]

    @property
    def equivalent_to_reference(self) -> bool:
        """No step served a block from the cache."""
        return not any(r.cached for r in self.steps)

    @property
    def cost(self) -> CostReport:
        """Analytic cost of the run, from its step modes and its salient-set
        picks alone. It is computed each time it is read, so it follows any
        edit of those fields."""
        model = self.config["model"]
        return build_cost_report(
            [r.modes for r in self.steps],
            model["text_tokens"] + model["image_tokens"],
            model["hidden_dim"], model["ffn_dim"], model["image_tokens"],
            [(e["step"], e["block"], len(e["text"]) + len(e["image"]))
             for e in self.saliency or ()],
        )

    def to_dict(self) -> dict:
        return {
            **_field_values(self),
            "steps": [r.to_dict() for r in self.steps],
            "final_output": _encode_array(self.final_output),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Trace":
        """Load a trace. Rejects any schema but :data:`TRACE_SCHEMA`, and a
        step count, a step's mode count, a mode or a salient-set pick that
        does not fit the config echo: the derived attributes read them. Picks
        must come in step order, name a step and a block of the config, hold
        a valid salient set for its token counts (:func:`salient_rows`), and
        every cached_partial block needs a pick in force."""
        if d.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"trace schema {d.get('schema')!r} is not supported; expected {TRACE_SCHEMA!r}"
            )
        trace = cls(**{
            **d,
            "steps": [StepRecord.from_dict(r) for r in d["steps"]],
            "final_output": _decode_array(d["final_output"]),
        })
        mc = trace.config["model"]
        steps, blocks = mc["total_steps"], mc["num_blocks"]
        if len(trace.steps) != steps:
            raise ValueError(f"trace has {len(trace.steps)} steps, its config {steps}")
        first, last = {}, 0  # block -> step of its first pick; the latest pick's step
        for e in trace.saliency or ():
            step, block = e["step"], e["block"]
            if not (0 <= step < steps and 0 <= block < blocks):
                raise ValueError(f"pick at step {step}, block {block} is outside its config's "
                                 f"{steps} steps of {blocks} blocks")
            if step < last:
                raise ValueError(f"pick at step {step} comes after a pick at step {last}")
            picked = SalientTokenSet(tuple(e["text"]), tuple(e["image"]))
            salient_rows(picked, mc["text_tokens"], mc["image_tokens"])
            first.setdefault(block, step)
            last = step
        for s, r in enumerate(trace.steps):
            if len(r.modes) != blocks:
                raise ValueError(f"step {r.step} has {len(r.modes)} modes, "
                                 f"its config {blocks} blocks")
            unknown = set(r.modes).difference(MODES)
            if unknown:
                raise ValueError(f"step {r.step} has unknown modes {sorted(unknown)}")
            if MODE_CACHED_PARTIAL in r.modes and any(
                m == MODE_CACHED_PARTIAL and first.get(b, steps) > s for b, m in enumerate(r.modes)
            ):
                raise ValueError(f"step {r.step} has a cached_partial block with no pick in force")
        return trace

    def __eq__(self, other) -> bool:
        return isinstance(other, Trace) and self.to_dict() == other.to_dict()

    def to_json(self) -> str:
        """Serialize with full float round-trip precision."""
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))


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


def denoise(model: Model, x: Matrix, text_embed: Matrix, rcfg: CorgiConfig, record) -> tuple:
    """The denoising loop, the one every run goes through: a run of any
    policy, and :func:`corgi.model.run_reference` as a run of the none
    policy over the blocks it keeps.

    The policy's schedule (:func:`corgi.policy.make_schedule`) plans each
    step once, before its first block: the step's role, the blocks to serve
    from the cache, the salient refresh in force and whether the step's
    cross maps are read. It observes the step's block outputs afterwards.
    Every other block is computed in full and refreshes its cache entry. A
    planned block whose entry was never filled (only possible at step 0 with
    warmup=0) falls back to full computation. Cached blocks run through
    :func:`execute_block_corgi_plus` when the plan carries a salient refresh,
    else through :func:`execute_block_cached` with the configured residual
    strategy.
    Full blocks form their cross maps only at the steps whose plan says the
    observation reads them; elsewhere, and on every cached block, the map is
    None.
    A run whose policy never serves the cache (:attr:`CorgiConfig.serves_cache`)
    keeps no cache entry and hands its schedule an empty list of outputs, so
    a block's outputs are freed as soon as the next block has read them.

    After each step's latent update it calls ``record(step, role, modes,
    h, eps, x)`` with the step's role, the per-block modes, the final hidden
    state, the noise prediction and the new latent. Returns the final latent
    and the schedule, for what it gathered.

    Unchecked: the entry points pass arrays that
    :func:`corgi.model.check_run_inputs` checked and a config that
    :meth:`CorgiConfig.resolved` validated.
    """
    mc = model.config
    schedule = make_schedule(rcfg, mc)
    keeps = rcfg.serves_cache
    cache: list[BlockOutputs | None] = [None] * len(model.blocks)

    for s in range(mc.total_steps):
        role, cached, refresh, with_cross_map = schedule.plan(s)
        h = initial_hidden(model, x, s, text_embed)
        modes, outputs = [], []
        for b, block in enumerate(model.blocks):
            if b in cached and cache[b] is not None:
                if refresh is None:
                    outs = execute_block_cached(h, cache[b], rcfg.residual)
                    modes.append(MODE_CACHED)
                else:
                    outs = execute_block_corgi_plus(h, block, cache[b], *refresh[b], mc.text_tokens)
                    modes.append(MODE_CACHED_PARTIAL)
            else:
                outs = block_forward(block, h, mc.text_tokens, with_cross_map)
                modes.append(MODE_FULL)
                if keeps:
                    cache[b] = outs
            if keeps:
                outputs.append(outs)
            # unkept, the block's outputs are freed here, before the next block
            # allocates, and before the state the block read, the order in
            # which `block_forward(...).block_out` frees them; the other order
            # timed 1.5-3.5% slower at the compare_wide shape (scripts/ab.py,
            # one pinned vCPU)
            block_out = outs.block_out
            del outs
            h = block_out

        eps = predict_noise(model, h)
        if not np.isfinite(eps).all():
            raise FloatingPointError(f"non-finite noise prediction at step {s}")
        x = denoise_step_mean(x, eps, mc.total_steps - s, model.schedule)
        record(s, role, modes, h, eps, x)
        schedule.observe(s, outputs)
    return x, schedule


def run_with_policy(
    model: Model,
    x_init: Matrix,
    text_embed: Matrix | None,
    config: CorgiConfig,
) -> Trace:
    """Execute T denoising steps under a caching policy and emit a Trace.

    The steps run through :func:`denoise`; each step's record keeps its
    role, modes, noise prediction and the checksum of its final hidden
    state. The config and the arrays are checked here, once, before step 0.
    """
    mc = model.config
    rcfg = config.resolved(mc.total_steps, mc.num_blocks, mc.text_tokens)
    x, text_embed = check_run_inputs(model, x_init, text_embed)
    records: list[StepRecord] = []

    def record(step: int, role: str, modes: list[str], h: Matrix, eps: Matrix, x: Matrix) -> None:
        records.append(StepRecord(step, role, tuple(modes), state_checksum(h), eps))

    x, schedule = denoise(model, x, text_embed, rcfg, record)
    return Trace(
        schema=TRACE_SCHEMA,
        created_at=datetime.now(timezone.utc).isoformat(),
        config=config_echo(model, rcfg),
        steps=records,
        contributions=schedule.contributions,
        saliency=schedule.saliency,
        final_output=x,
    )
