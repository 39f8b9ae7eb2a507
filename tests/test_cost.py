from dataclasses import asdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corgi import CorgiConfig, PolicyKind, run_with_policy
from corgi.cost import (
    MODE_CACHED,
    MODE_CACHED_PARTIAL,
    MODE_FULL,
    build_cost_report,
    flops_block,
)

from helpers import tiny_setups, toy_setup


def test_full_block_hand_value():
    # L=8, d=4, d_ff=8: attention 4*8*16 + 2*64*4 = 1024, FFN 2*8*4*8 = 512
    assert flops_block(8, 4, 8, MODE_FULL) == 1024 + 512
    # the attention and the FFN terms separately: d_ff moves only the FFN
    assert flops_block(8, 4, 0, MODE_FULL) == 1024
    assert flops_block(8, 4, 16, MODE_FULL) - flops_block(8, 4, 8, MODE_FULL) == 512


def test_cached_is_residual_additions_only():
    assert flops_block(8, 4, 8, MODE_CACHED) == 32
    for dims in ((8, 4, 8), (20, 32, 64), (64, 16, 128)):
        assert flops_block(*dims, MODE_CACHED) < flops_block(*dims, MODE_FULL)


def test_cached_partial_formula():
    # K/V on all L rows, Q and output projection on the s salient rows
    L, d, s = 10, 8, 3
    want = 2 * L * d * d + 2 * s * d * d + 2 * s * L * d + L * d
    assert flops_block(L, d, 16, MODE_CACHED_PARTIAL, salient=s) == want


def test_cached_partial_never_exceeds_full():
    for L, d, d_ff in ((6, 8, 16), (20, 32, 64), (40, 16, 64)):
        full = flops_block(L, d, d_ff, MODE_FULL)
        for s in range(L + 1):
            assert flops_block(L, d, d_ff, MODE_CACHED_PARTIAL, salient=s) <= full


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        flops_block(4, 4, 4, "turbo")


def test_report_full_policy_totals():
    modes = [[MODE_FULL] * 4 for _ in range(3)]
    report = build_cost_report(modes, seq_len=8, dim=4, ffn_dim=8, image_tokens=6)
    # 12 full blocks plus three steps of the 6 x 4 x 4 eps head
    assert report.flops_full == report.flops_actual == 12 * 1536 + 3 * 6 * 16
    assert report.speedup == 1.0
    assert report.blocks_computed == report.blocks_total == 12


def test_report_worked_schedule():
    # warmup 2, interval 5, gamma 3, delta 1 on 8 blocks and 12 steps
    cached_per_step = [0, 0, 0, 3, 4, 5, 6, 0, 3, 4, 5, 6]
    modes = [
        [MODE_CACHED] * c + [MODE_FULL] * (8 - c) for c in cached_per_step
    ]
    report = build_cost_report(modes, seq_len=20, dim=32, ffn_dim=64, image_tokens=16)
    assert report.blocks_total == 96
    assert report.blocks_computed == 60
    assert report.block_speedup == 96 / 60
    assert report.flops_actual < report.flops_full
    assert report.flops_full == 96 * flops_block(20, 32, 64, MODE_FULL) + 12 * 16 * 32 * 32
    assert report.flops_actual == sum(
        (8 - c) * flops_block(20, 32, 64, MODE_FULL) + c * flops_block(20, 32, 64, MODE_CACHED)
        + 16 * 32 * 32
        for c in cached_per_step
    )


def test_report_partial_uses_salient_sizes():
    modes = [[MODE_CACHED_PARTIAL, MODE_FULL]]
    small = build_cost_report(modes, 10, 8, 16, 6, picks=[(0, 0, 1)])
    big = build_cost_report(modes, 10, 8, 16, 6, picks=[(0, 0, 9)])
    assert small.flops_actual < big.flops_actual


def test_a_pick_holds_until_the_blocks_next_pick():
    # block 0 picks 2 tokens at step 0 and 5 at step 2, block 1 picks 3 at
    # step 1; the partial blocks of steps 1-3 are charged the pick in force
    P, F = MODE_CACHED_PARTIAL, MODE_FULL
    modes = [[F, F], [P, F], [P, P], [P, P]]
    report = build_cost_report(modes, 10, 8, 16, 6, picks=[(0, 0, 2), (1, 1, 3), (2, 0, 5)])

    def part(s):
        return flops_block(10, 8, 16, P, salient=s)

    full = flops_block(10, 8, 16, F)
    charged = [2 * full, part(2) + full, part(5) + part(3), part(5) + part(3)]
    assert report.flops_actual == sum(charged) + 4 * 6 * 8 * 8


def _per_block_report(trace):
    """The cost report summed one flops_block call per (step, block)."""
    mc = trace.config["model"]
    L, d, d_ff = mc["text_tokens"] + mc["image_tokens"], mc["hidden_dim"], mc["ffn_dim"]
    head = mc["image_tokens"] * d * d
    sizes = {}
    for e in trace.saliency or ():
        for step in range(e["step"], len(trace.steps)):
            sizes[(step, e["block"])] = len(e["text"]) + len(e["image"])
    actual = sum(
        head + sum(
            flops_block(L, d, d_ff, m, salient=sizes.get((r.step, b), 0)) for b, m in enumerate(r.modes)
        )
        for r in trace.steps
    )
    total = len(trace.steps) * len(trace.steps[0].modes)
    computed = sum(r.modes.count(MODE_FULL) for r in trace.steps)
    full = total * flops_block(L, d, d_ff, MODE_FULL) + len(trace.steps) * head
    return dict(flops_full=full, flops_actual=actual, speedup=full / actual, blocks_total=total,
                blocks_computed=computed, block_speedup=total / computed)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(tiny_setups(), st.sampled_from((2, 5)))
@example(toy_setup(0), 2)  # CLI defaults: re-picks whose sizes differ
@pytest.mark.parametrize("refresh", [False, True])
@pytest.mark.parametrize("policy", list(PolicyKind))
def test_report_equals_the_per_block_sum(policy, refresh, setup, interval):
    # the report must equal one flops_block call per (step, block) with the
    # pick in force, field for field, for every pick pattern; interval 2
    # re-picks under refresh_saliency
    model, x = setup
    for warmup in (None, 0):
        cfg = CorgiConfig(
            policy=policy, refresh_saliency=refresh, warmup=warmup, interval=interval,
        )
        trace = run_with_policy(model, x, None, cfg)
        assert asdict(trace.cost) == _per_block_report(trace)


def test_report_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'turbo'"):
        build_cost_report([[MODE_FULL, "turbo"]], 8, 4, 8, 6)
