"""Analytic MAC cost model for full, cached and partially-updated blocks.

Counts are deterministic integers from the formulas below (L tokens, L_img
of them image tokens, width d, FFN width d_ff, s = number of salient tokens);
the formulas are the normative cost definition. The unit is one
multiply-accumulate (MAC): a d x d projection of L rows costs L*d^2, half the
conventional FLOP count; a residual addition counts one per element. Ratios
such as ``speedup`` do not depend on the unit. The names ``flops_*`` stay as
they are because they are ``corgi compare`` row keys, and the benchmark reads
``flops_actual``. Wall-clock time is measured by the benchmark in
``perfbench/`` (see ``perfbench/README.md``), not here.

    full ATTN        4*L*d^2 + 2*L^2*d        (q/k/v/o projections + scores/apply)
    full FFN         2*L*d*d_ff
    cached block     L*d                      (residual additions only)
    cached+partial   2*L*d^2 + 2*s*d^2 + 2*s*L*d + L*d
                     (K/V on all L rows; Q, output projection and scores/apply
                      on the s salient rows; residual additions)
    eps head         L_img*d^2 per step, whatever the block modes
                     (the noise prediction projects the image rows)

A run's total is one pass over its steps: each block's cost in its mode, with
the size of that block's salient set in force, plus the head term. So the
matmul MACs a run executes equal ``flops_actual`` minus the L*d
residual additions of each cached or cached_partial block.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

MODE_FULL = "full"
MODE_CACHED = "cached"
MODE_CACHED_PARTIAL = "cached_partial"
MODES = (MODE_FULL, MODE_CACHED, MODE_CACHED_PARTIAL)


def flops_block(seq_len: int, dim: int, ffn_dim: int, mode: str, salient: int = 0) -> int:
    """MACs of one block execution in the given mode.

    The head count does not change the totals: head splits repartition the
    same products.
    """
    if mode == MODE_FULL:
        # attention (q/k/v/o projections, scores and apply) plus the FFN
        return 4 * seq_len * dim * dim + 2 * seq_len * seq_len * dim + 2 * seq_len * dim * ffn_dim
    if mode == MODE_CACHED:
        return seq_len * dim
    if mode == MODE_CACHED_PARTIAL:
        return (2 * seq_len * dim * dim + 2 * salient * dim * dim
                + 2 * salient * seq_len * dim + seq_len * dim)
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


def build_cost_report(
    step_modes: Sequence[Sequence[str]],
    seq_len: int,
    dim: int,
    ffn_dim: int,
    image_tokens: int,
    picks: Iterable[tuple[int, int, int]] = (),
) -> CostReport:
    """Charge every (step, block) through :func:`flops_block`, and each step's
    eps head, in one pass into a CostReport.

    picks are (step, block index, |S|) triples in step order, one per
    salient-set pick; a pick holds from its step until that block's next
    pick. A cached_partial block is charged the size of its pick in force
    (0 with none).
    """
    head = image_tokens * dim * dim
    pending = iter(picks)
    pick = next(pending, None)
    in_force: dict[int, int] = {}
    actual = computed = 0
    for step, modes in enumerate(step_modes):
        while pick is not None and pick[0] <= step:
            in_force[pick[1]] = pick[2]
            pick = next(pending, None)
        actual += head + sum(
            flops_block(seq_len, dim, ffn_dim, mode, in_force.get(b, 0))
            for b, mode in enumerate(modes)
        )
        computed += modes.count(MODE_FULL)
    total_blocks = sum(map(len, step_modes))
    full_block = flops_block(seq_len, dim, ffn_dim, MODE_FULL)
    flops_full = total_blocks * full_block + len(step_modes) * head
    return CostReport(
        flops_full=flops_full,
        flops_actual=actual,
        speedup=flops_full / actual if actual else 1.0,
        blocks_total=total_blocks,
        blocks_computed=computed,
        block_speedup=total_blocks / computed if computed else float("inf"),
    )
