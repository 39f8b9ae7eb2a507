import numpy as np
import pytest

from corgi import ModelConfig, SeededRng, build_model, block_forward, run_reference
from corgi.model import Block, attention_rows, build_schedule, denoise_step_mean

from helpers import toy_setup


def test_schedule_single_step():
    s = build_schedule(1, 0.02, 0.02)
    assert s.betas.tolist() == [0.02]
    assert s.alphas.tolist() == [0.98]
    assert s.alpha_bars.tolist() == [0.98]


def test_schedule_two_steps_product():
    s = build_schedule(2, 0.1, 0.2)
    assert s.alpha_bars[-1] == pytest.approx(0.72, rel=1e-12)


def test_schedule_alpha_bar_strictly_decreasing():
    s = build_schedule(25, 1e-4, 0.05)
    assert np.all(np.diff(s.alpha_bars) < 0)
    assert np.all((s.betas > 0) & (s.betas < 1))


def test_schedule_rejects_bad_params():
    with pytest.raises(ValueError):
        build_schedule(0, 0.1, 0.2)
    with pytest.raises(ValueError):
        build_schedule(4, 0.0, 0.2)
    with pytest.raises(ValueError):
        build_schedule(4, 0.3, 0.2)


def test_build_model_deterministic():
    cfg = ModelConfig(num_blocks=2, hidden_dim=8, ffn_dim=16, num_heads=2)
    a = build_model(cfg, 42)
    b = build_model(cfg, 42)
    assert np.array_equal(a.blocks[1].w1, b.blocks[1].w1)
    assert np.array_equal(a.text_embed, b.text_embed)
    c = build_model(cfg, 43)
    assert not np.array_equal(a.blocks[0].wq, c.blocks[0].wq)


def test_build_model_shapes():
    cfg = ModelConfig(num_blocks=2, hidden_dim=8, ffn_dim=12, num_heads=2)
    m = build_model(cfg, 0)
    assert len(m.blocks) == 2
    for blk in m.blocks:
        assert blk.wq.shape == blk.wk.shape == blk.wv.shape == blk.wo.shape == (8, 8)
        assert blk.w1.shape == (8, 12)
        assert blk.w2.shape == (12, 8)
    assert m.text_embed.shape == (cfg.text_tokens, 8)
    assert m.step_bias.shape == (cfg.total_steps, 8)


def test_invalid_config_names_the_invariant():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(hidden_dim=10, num_heads=4).validate()
    with pytest.raises(ValueError, match="num_blocks"):
        ModelConfig(num_blocks=0).validate()
    with pytest.raises(ValueError, match="text_tokens"):
        ModelConfig(text_tokens=0).validate()


def _toy_block(d=8, d_ff=16, heads=2, seed=0):
    rng = SeededRng(seed)
    s = 1.0 / np.sqrt(d)
    return Block(
        wq=rng.standard_normal(d, d) * s,
        wk=rng.standard_normal(d, d) * s,
        wv=rng.standard_normal(d, d) * s,
        wo=rng.standard_normal(d, d) * s,
        w1=rng.standard_normal(d, d_ff) * s,
        w2=rng.standard_normal(d_ff, d) * s,
        attn_gain=np.ones(d),
        attn_bias=np.zeros(d),
        ffn_gain=np.ones(d),
        ffn_bias=np.zeros(d),
        num_heads=heads,
    )


def test_block_with_zero_projections_is_identity():
    blk = _toy_block()
    blk.wo = np.zeros_like(blk.wo)
    blk.w2 = np.zeros_like(blk.w2)
    h = SeededRng(5).standard_normal(6, 8)
    outs = block_forward(blk, h, text_tokens=2)
    assert np.array_equal(outs.attn_out, np.zeros_like(h))
    assert np.array_equal(outs.ffn_out, np.zeros_like(h))
    assert np.array_equal(outs.block_out, h)


def test_block_forward_matches_hand_evaluation():
    # one token, one head, one channel: every matrix is a scalar
    wq, wk, wv, wo, w1, w2 = 0.5, -0.3, 0.8, 1.1, 0.7, -0.6
    g_a, b_a, g_f, b_f = 1.2, 0.4, 0.9, -0.2
    blk = Block(
        wq=np.array([[wq]]),
        wk=np.array([[wk]]),
        wv=np.array([[wv]]),
        wo=np.array([[wo]]),
        w1=np.array([[w1]]),
        w2=np.array([[w2]]),
        attn_gain=np.array([g_a]),
        attn_bias=np.array([b_a]),
        ffn_gain=np.array([g_f]),
        ffn_bias=np.array([b_f]),
        num_heads=1,
    )
    h = 1.7
    # single-row layernorm collapses to the bias (zero variance)
    attn = b_a * wv * wo  # softmax over one logit is 1
    z = h + attn

    def gelu(x):
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))

    ffn = gelu(b_f * w1) * w2
    outs = block_forward(blk, np.array([[h]]), text_tokens=1)
    assert outs.attn_out[0, 0] == pytest.approx(attn, rel=1e-12)
    assert outs.ffn_out[0, 0] == pytest.approx(ffn, rel=1e-12)
    assert outs.block_out[0, 0] == pytest.approx(h + attn + ffn, rel=1e-12)
    assert np.array_equal(attention_rows(blk, np.array([[h]]))[1], [[[1.0]]])


def test_block_decomposition_is_exact():
    model, x = toy_setup(1, num_blocks=2)
    h = np.concatenate([model.text_embed, x], axis=0)
    outs = block_forward(model.blocks[0], h, model.config.text_tokens)
    assert np.array_equal(outs.block_out, (h + outs.attn_out) + outs.ffn_out)


def test_joint_attention_rows_and_cross_map():
    model, x = toy_setup(2, num_blocks=1)
    cfg = model.config
    blk = model.blocks[0]
    h = np.concatenate([model.text_embed, x], axis=0)
    outs = block_forward(blk, h, cfg.text_tokens)
    probs = attention_rows(blk, h)[1]
    assert probs.shape == (cfg.num_heads, cfg.seq_len, cfg.seq_len)
    assert np.abs(probs.sum(axis=2) - 1.0).max() < 1e-9
    # the cross map is the image x text slice of the head average, summed
    # head by head from zero as a per-head loop would
    joint = np.zeros((cfg.seq_len, cfg.seq_len))
    for p in probs:
        joint += p
    joint /= cfg.num_heads
    assert np.array_equal(outs.cross_map, joint[cfg.text_tokens :, : cfg.text_tokens])
    assert np.all(outs.cross_map.sum(axis=1) <= 1.0 + 1e-12)


def test_uniform_heads_average_to_single_head():
    # zero queries/keys make every head uniform, so the head average equals
    # any individual head's map
    blk = _toy_block(d=8, heads=4)
    blk.wq = np.zeros_like(blk.wq)
    blk.wk = np.zeros_like(blk.wk)
    h = SeededRng(9).standard_normal(5, 8)
    probs = attention_rows(blk, h)[1]
    assert probs.shape == (4, 5, 5)
    assert np.allclose(probs, 1.0 / 5.0, atol=1e-15)
    assert np.allclose(block_forward(blk, h, text_tokens=2).cross_map, 1.0 / 5.0, atol=1e-15)


def test_denoise_zero_eps():
    s = build_schedule(1, 0.19, 0.19)
    x = np.array([[2.0]])
    out = denoise_step_mean(x, np.zeros_like(x), 1, s)
    assert out[0, 0] == pytest.approx(2.0 / np.sqrt(0.81), rel=1e-15)


def test_denoise_worked_value():
    # alpha = alpha_bar = 0.81 at the only step
    s = build_schedule(1, 0.19, 0.19)
    out = denoise_step_mean(np.array([[1.0]]), np.array([[1.0]]), 1, s)
    expected = (1.0 - 0.19 / np.sqrt(0.19)) / 0.9
    assert out[0, 0] == pytest.approx(expected, rel=1e-12)
    assert out[0, 0] == pytest.approx(0.62679, abs=5e-6)


def test_denoise_affine_in_eps():
    s = build_schedule(4, 0.05, 0.2)
    rng = SeededRng(3)
    x = rng.standard_normal(3, 2)
    e = rng.standard_normal(3, 2)
    t = 3
    alpha = s.alphas[t - 1]
    bar = s.alpha_bars[t - 1]
    got = denoise_step_mean(x, e, t, s) - denoise_step_mean(x, np.zeros_like(e), t, s)
    want = -((1.0 - alpha) / (np.sqrt(alpha) * np.sqrt(1.0 - bar))) * e
    assert np.allclose(got, want, atol=1e-12)


def test_denoise_step_out_of_range():
    s = build_schedule(3, 0.1, 0.2)
    x = np.zeros((1, 1))
    with pytest.raises(ValueError):
        denoise_step_mean(x, x, 0, s)
    with pytest.raises(ValueError):
        denoise_step_mean(x, x, 4, s)


def test_run_reference_bookkeeping():
    model, x = toy_setup(4, num_blocks=4, total_steps=6, hidden_dim=16, ffn_dim=24, num_heads=2)
    traj = run_reference(model, x)
    assert len(traj.noise_preds) == 6
    assert len(traj.latents) == 6

    single, x1 = toy_setup(4, num_blocks=3, total_steps=1, hidden_dim=16, ffn_dim=24, num_heads=2)
    t1 = run_reference(single, x1)
    assert len(t1.noise_preds) == 1


def test_run_reference_deterministic():
    model, x = toy_setup(5, num_blocks=3, total_steps=4, hidden_dim=16, ffn_dim=16, num_heads=2)
    a = run_reference(model, x)
    b = run_reference(model, x)
    assert all(np.array_equal(p, q) for p, q in zip(a.noise_preds, b.noise_preds))
    assert np.array_equal(a.final_output, b.final_output)
