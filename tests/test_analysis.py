import numpy as np
import pytest

from corgi import (
    CorgiConfig,
    PolicyKind,
    adjacent_step_cka,
    analyze_model,
    block_ablation,
    cost_report,
    divergence,
    run_reference,
    run_with_policy,
)
from corgi.model import ReferenceTrajectory

from helpers import toy_setup


def test_divergence_of_equivalent_run_is_zero():
    model, x = toy_setup(0, num_blocks=4, total_steps=6, hidden_dim=16, ffn_dim=32, num_heads=2)
    ref = run_reference(model, x)
    trace = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.NONE))
    rep = divergence(trace, ref)
    assert rep.per_step_mse == [0.0] * 6
    assert rep.per_step_cosine == [1.0] * 6
    assert rep.final_mse == 0.0 and rep.final_cosine == 1.0

    frozen = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.CORGI, gamma=0, delta=0))
    assert divergence(frozen, ref).final_mse == 0.0


def test_divergence_positive_for_cached_run():
    model, x = toy_setup(1, num_blocks=4, total_steps=8, hidden_dim=16, ffn_dim=32, num_heads=2)
    ref = run_reference(model, x)
    trace = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.CORGI, warmup=2, interval=3, gamma=2))
    rep = divergence(trace, ref)
    assert rep.final_mse > 0.0
    assert all(-1.0 <= c <= 1.0 for c in rep.per_step_cosine)


def test_divergence_step_count_mismatch():
    model, x = toy_setup(2, num_blocks=2, total_steps=4, hidden_dim=16, ffn_dim=16, num_heads=2)
    ref = run_reference(model, x)
    other, x2 = toy_setup(2, num_blocks=2, total_steps=5, hidden_dim=16, ffn_dim=16, num_heads=2)
    trace = run_with_policy(other, x2, None, CorgiConfig(policy=PolicyKind.NONE))
    with pytest.raises(ValueError, match="step counts"):
        divergence(trace, ref)


def test_ablation_of_inert_block_is_identity():
    model, x = toy_setup(3, num_blocks=3, total_steps=5, hidden_dim=16, ffn_dim=16, num_heads=2)
    blk = model.blocks[1]
    blk.wo = np.zeros_like(blk.wo)
    blk.w2 = np.zeros_like(blk.w2)
    cos = block_ablation(model, x, None, 1)
    assert cos.shape == (5, model.config.image_tokens)
    assert np.allclose(cos, 1.0, atol=1e-12)


def test_ablation_matches_independent_rerun():
    model, x = toy_setup(4, num_blocks=4, total_steps=5, hidden_dim=16, ffn_dim=32, num_heads=2)
    for b in range(4):
        got = block_ablation(model, x, None, b)
        full = run_reference(model, x)
        pruned = run_reference(model, x, pruned_blocks={b})
        for s in range(5):
            for v in range(model.config.image_tokens):
                p = pruned.noise_preds[s][v]
                q = full.noise_preds[s][v]
                want = float(p @ q / (np.linalg.norm(p) * np.linalg.norm(q)))
                assert got[s, v] == pytest.approx(want, abs=1e-12)


def test_ablation_index_out_of_range():
    model, x = toy_setup(5, num_blocks=2, total_steps=3, hidden_dim=16, ffn_dim=16, num_heads=2)
    with pytest.raises(ValueError, match="out of range"):
        block_ablation(model, x, None, 2)


def test_adjacent_cka_constant_preds():
    traj = ReferenceTrajectory()
    traj.noise_preds = [np.ones((3, 2))] * 4
    assert adjacent_step_cka(traj) == [1.0, 1.0, 1.0]


def test_adjacent_cka_range_and_length():
    model, x = toy_setup(6, num_blocks=3, total_steps=7, hidden_dim=16, ffn_dim=16, num_heads=2)
    series = adjacent_step_cka(run_reference(model, x))
    assert len(series) == 6
    assert all(0.0 <= v <= 1.0 for v in series)


def test_adjacent_cka_needs_two_steps():
    traj = ReferenceTrajectory()
    traj.noise_preds = [np.ones((2, 2))]
    with pytest.raises(ValueError, match="at least 2"):
        adjacent_step_cka(traj)


def test_analyze_model_report_shapes():
    model, x = toy_setup(7, num_blocks=4, total_steps=8, hidden_dim=16, ffn_dim=32, num_heads=2)
    report = analyze_model(model, x)
    assert len(report.token_cosine) == 4
    assert all(m.shape == (8, model.config.image_tokens) for m in report.token_cosine)
    assert report.mean_cosine.shape == (4, 8)
    assert len(report.adjacent_cka) == 7
    d = report.to_dict()
    assert d["schema"] == "corgi-ablation/1"


def test_cost_report_matches_trace_and_rejects_truncation():
    model, x = toy_setup(8)
    trace = run_with_policy(
        model, x, None,
        CorgiConfig(policy=PolicyKind.CORGI, warmup=2, interval=5, gamma=3, delta=1),
    )
    recomputed = cost_report(trace)
    assert recomputed == trace.cost
    assert recomputed.blocks_computed == 60

    none = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.NONE))
    assert cost_report(none).speedup == 1.0

    trace.steps = trace.steps[:-1]
    with pytest.raises(ValueError, match="incomplete trace"):
        cost_report(trace)


def test_salient_protection_improves_on_plain_caching_for_most_seeds():
    # paired directional experiment: refreshing salient attention rows should
    # usually land closer to the reference than fully cached attention
    wins = 0
    for seed in range(20):
        model, x = toy_setup(seed)
        ref = run_reference(model, x)
        base = dict(warmup=2, interval=5, gamma=3, delta=1, top_c=2)
        plain = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.CORGI, **base))
        plus = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.CORGI_PLUS, **base))
        if divergence(plus, ref).final_mse <= divergence(plain, ref).final_mse:
            wins += 1
    assert wins > 10, f"salient protection helped in only {wins}/20 seeds"
