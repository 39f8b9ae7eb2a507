import pytest

from corgi.cost import (
    MODE_CACHED,
    MODE_CACHED_PARTIAL,
    MODE_FULL,
    build_cost_report,
    flops_attn_full,
    flops_block,
    flops_ffn_full,
)


def test_full_block_hand_value():
    # L=8, d=4, d_ff=8: 4*8*16 + 2*64*4 + 2*8*4*8 = 512 + 512 + 512
    assert flops_attn_full(8, 4) == 1024
    assert flops_ffn_full(8, 4, 8) == 512
    assert flops_block(8, 4, 8, MODE_FULL) == 1536


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
    assert [row["cached"] for row in report.per_step] == cached_per_step
    assert sum(row["flops"] for row in report.per_step) == report.flops_actual


def test_report_partial_uses_salient_sizes():
    modes = [[MODE_CACHED_PARTIAL, MODE_FULL]]
    small = build_cost_report(modes, 10, 8, 16, 6, salient_sizes={(0, 0): 1})
    big = build_cost_report(modes, 10, 8, 16, 6, salient_sizes={(0, 0): 9})
    assert small.flops_actual < big.flops_actual
