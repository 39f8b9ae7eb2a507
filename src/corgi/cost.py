"""Analytic FLOP cost model for full, cached and partially-updated blocks.

Counts are deterministic integers from the formulas below (L tokens, width d,
FFN width d_ff, s = number of salient tokens); the formulas are the normative
cost definition. Wall-clock time is measured by the benchmark in
``perfbench/`` (see ``perfbench/README.md``), not here.

    full ATTN        4*L*d^2 + 2*L^2*d        (q/k/v/o projections + scores/apply)
    full FFN         2*L*d*d_ff
    cached block     L*d                      (residual additions only)
    cached+partial   2*L*d^2 + 2*s*d^2 + 2*s*L*d + L*d
                     (K/V on all L rows; Q, output projection and scores/apply
                      on the s salient rows; residual additions)
"""

from __future__ import annotations

from dataclasses import dataclass, field

MODE_FULL = "full"
MODE_CACHED = "cached"
MODE_CACHED_PARTIAL = "cached_partial"


def flops_attn_full(seq_len: int, dim: int) -> int:
    return 4 * seq_len * dim * dim + 2 * seq_len * seq_len * dim


def flops_ffn_full(seq_len: int, dim: int, ffn_dim: int) -> int:
    return 2 * seq_len * dim * ffn_dim


def flops_block(
    seq_len: int,
    dim: int,
    ffn_dim: int,
    mode: str,
    salient: int = 0,
) -> int:
    """FLOPs of one block execution in the given mode.

    The head count does not change the totals: head splits repartition the
    same products.
    """
    if mode == MODE_FULL:
        return flops_attn_full(seq_len, dim) + flops_ffn_full(seq_len, dim, ffn_dim)
    if mode == MODE_CACHED:
        return seq_len * dim
    if mode == MODE_CACHED_PARTIAL:
        return (
            2 * seq_len * dim * dim
            + 2 * salient * dim * dim
            + 2 * salient * seq_len * dim
            + seq_len * dim
        )
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class CostReport:
    """FLOP totals plus the zero-cost-cached block-execution counts.

    speedup = flops_full / flops_actual; block_speedup treats every cached
    or partially-updated block as free and is exact in its integer counts.
    """

    flops_full: int
    flops_actual: int
    speedup: float
    blocks_total: int
    blocks_computed: int
    block_speedup: float
    per_step: list[dict] = field(default_factory=list)


def build_cost_report(
    step_modes: list[list[str]],
    seq_len: int,
    dim: int,
    ffn_dim: int,
    salient_sizes: dict[tuple[int, int], int] | None = None,
) -> CostReport:
    """Aggregate per-(step, block) modes into a CostReport.

    salient_sizes maps (step, block index) -> |S_i|, the size of the salient
    set a cached_partial execution refreshed.
    """
    salient_sizes = salient_sizes or {}
    full_block = flops_block(seq_len, dim, ffn_dim, MODE_FULL)
    per_step = []
    actual = 0
    computed = 0
    for step, modes in enumerate(step_modes):
        step_flops = 0
        counts = {MODE_FULL: 0, MODE_CACHED: 0, MODE_CACHED_PARTIAL: 0}
        for b, mode in enumerate(modes):
            step_flops += flops_block(
                seq_len, dim, ffn_dim, mode, salient=salient_sizes.get((step, b), 0)
            )
            counts[mode] += 1
        computed += counts[MODE_FULL]
        actual += step_flops
        per_step.append(
            {
                "step": step,
                "flops": step_flops,
                "full": counts[MODE_FULL],
                "cached": counts[MODE_CACHED],
                "cached_partial": counts[MODE_CACHED_PARTIAL],
            }
        )
    num_blocks = len(step_modes[0]) if step_modes else 0
    total_blocks = len(step_modes) * num_blocks
    flops_full = total_blocks * full_block
    return CostReport(
        flops_full=flops_full,
        flops_actual=actual,
        speedup=flops_full / actual if actual else 1.0,
        blocks_total=total_blocks,
        blocks_computed=computed,
        block_speedup=total_blocks / computed if computed else float("inf"),
        per_step=per_step,
    )
