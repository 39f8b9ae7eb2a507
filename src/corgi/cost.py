"""Analytic MAC cost model for full, cached and partially-updated blocks.

Counts are deterministic integers from the formulas below (L tokens, L_img
of them image tokens, width d, FFN width d_ff, s = number of salient tokens);
the formulas are the normative cost definition. The unit is one
multiply-accumulate (MAC): a d x d projection of L rows costs L*d^2, half the
conventional FLOP count; a residual addition counts one per element. Ratios
such as ``speedup`` do not depend on the unit. The names ``flops_*`` stay as
they are because they are trace JSON keys. Wall-clock time is measured by
the benchmark in ``perfbench/`` (see ``perfbench/README.md``), not here.

    full ATTN        4*L*d^2 + 2*L^2*d        (q/k/v/o projections + scores/apply)
    full FFN         2*L*d*d_ff
    cached block     L*d                      (residual additions only)
    cached+partial   2*L*d^2 + 2*s*d^2 + 2*s*L*d + L*d
                     (K/V on all L rows; Q, output projection and scores/apply
                      on the s salient rows; residual additions)
    eps head         L_img*d^2 per step, whatever the block modes
                     (the noise prediction projects the image rows)

A run's total is the sum over steps of its blocks' costs plus the head term,
so the matmul MACs a run executes equal ``flops_actual`` minus the L*d
residual additions of each cached or cached_partial block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MODE_FULL = "full"
MODE_CACHED = "cached"
MODE_CACHED_PARTIAL = "cached_partial"
_MODES = (MODE_FULL, MODE_CACHED, MODE_CACHED_PARTIAL)


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
    """MACs of one block execution in the given mode.

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
    """MAC totals plus the zero-cost-cached block-execution counts.

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
    image_tokens: int,
    salient_sizes: dict[tuple[int, int], int] | None = None,
) -> CostReport:
    """Aggregate per-(step, block) modes, plus each step's eps head, into a
    CostReport.

    salient_sizes maps (step, block index) -> |S_i|, the size of the salient
    set a cached_partial execution refreshed. Full and cached blocks cost
    the same at every step, so a step charges them as count x constant and
    sums :func:`flops_block` over its cached_partial blocks only.
    """
    salient_sizes = salient_sizes or {}
    full_block = flops_block(seq_len, dim, ffn_dim, MODE_FULL)
    cached_block = flops_block(seq_len, dim, ffn_dim, MODE_CACHED)
    head = image_tokens * dim * dim
    per_step = []
    actual = 0
    computed = 0
    for step, modes in enumerate(step_modes):
        full, cached = modes.count(MODE_FULL), modes.count(MODE_CACHED)
        # only a partial block's cost varies, with its salient-set size
        partial = [b for b, mode in enumerate(modes) if mode == MODE_CACHED_PARTIAL]
        if full + cached + len(partial) != len(modes):
            unknown = next(m for m in modes if m not in _MODES)
            raise ValueError(f"unknown mode {unknown!r}")
        step_flops = head + full * full_block + cached * cached_block
        for b in partial:
            step_flops += flops_block(
                seq_len, dim, ffn_dim, MODE_CACHED_PARTIAL, salient=salient_sizes.get((step, b), 0)
            )
        computed += full
        actual += step_flops
        per_step.append(
            {
                "step": step,
                "flops": step_flops,
                "full": full,
                "cached": cached,
                "cached_partial": len(partial),
            }
        )
    num_blocks = len(step_modes[0]) if step_modes else 0
    total_blocks = len(step_modes) * num_blocks
    flops_full = total_blocks * full_block + len(step_modes) * head
    return CostReport(
        flops_full=flops_full,
        flops_actual=actual,
        speedup=flops_full / actual if actual else 1.0,
        blocks_total=total_blocks,
        blocks_computed=computed,
        block_speedup=total_blocks / computed if computed else float("inf"),
        per_step=per_step,
    )
