import base64
import json
import math
import sys
import weakref
from dataclasses import asdict

import numpy as np
import pytest

import corgi.runtime
from corgi import (
    CorgiConfig,
    ModelConfig,
    PolicyKind,
    SalientTokenSet,
    SeededRng,
    Trace,
    analyze_model,
    block_forward,
    build_model,
    masked_merge,
    partial_attention,
    run_reference,
    run_with_policy,
)
from corgi.contribution import rank_ascending
from corgi.cost import flops_block
from corgi.model import Block, BlockOutputs, attention_rows, ffn_forward
from corgi.numerics import softmax_rows
from corgi.policy import select_cached
from corgi.runtime import execute_block_cached, execute_block_corgi_plus
from corgi.saliency import build_mask
from helpers import bit_identical_to_reference, toy_setup


def _entry(attn, ffn, h_cached):
    attn = np.asarray(attn, dtype=np.float64)
    ffn = np.asarray(ffn, dtype=np.float64)
    h_cached = np.asarray(h_cached, dtype=np.float64)
    return BlockOutputs(
        attn_out=attn,
        ffn_out=ffn,
        block_out=(h_cached + attn) + ffn,
    )


def test_cached_zero_outputs_pass_hidden_state_through():
    model, x = toy_setup(0, num_blocks=1)
    h = np.concatenate([model.text_embed, x], axis=0)
    entry = _entry(np.zeros_like(h), np.zeros_like(h), np.zeros_like(h))
    out = execute_block_cached(h, entry, "compute")
    assert np.array_equal(out.block_out, h)


def test_cached_hand_scalars():
    entry = _entry([[0.3]], [[0.1]], [[1.0]])
    h = np.array([[2.0]])
    compute = execute_block_cached(h, entry, "compute")
    assert compute.block_out[0, 0] == pytest.approx(2.4, abs=1e-15)
    reuse = execute_block_cached(h, entry, "reuse")
    assert reuse.block_out[0, 0] == pytest.approx(1.4, abs=1e-15)
    # reuse ignores the current hidden state entirely
    other = execute_block_cached(np.array([[7.0]]), entry, "reuse")
    assert other.block_out[0, 0] == reuse.block_out[0, 0]


def test_compute_residual_adds_exactly_the_cached_terms():
    model, x = toy_setup(13, num_blocks=1)
    cfg = model.config
    h0 = np.concatenate([model.text_embed, x], axis=0)
    outs = block_forward(model.blocks[0], h0, cfg.text_tokens)
    entry = _entry(outs.attn_out, outs.ffn_out, h0)
    h1 = h0 * 0.9 - 0.3
    got = execute_block_cached(h1, entry, "compute")
    assert np.array_equal(got.block_out, (h1 + entry.attn_out) + entry.ffn_out)
    assert np.array_equal(got.attn_out, entry.attn_out)
    assert np.array_equal(got.ffn_out, entry.ffn_out)


def test_cost_depends_only_on_directives_and_dims():
    a_model, a_x = toy_setup(20)
    b_model, b_x = toy_setup(21)
    cfg = CorgiConfig(policy=PolicyKind.CORGI, warmup=2, interval=4, gamma=2, delta=2)
    a = run_with_policy(a_model, a_x, None, cfg)
    b = run_with_policy(b_model, b_x, None, cfg)
    assert a.cost == b.cost


def test_partial_attention_full_set_matches_full():
    model, x = toy_setup(3, num_blocks=1)
    cfg = model.config
    h = np.concatenate([model.text_embed, x], axis=0)
    full = block_forward(model.blocks[0], h, cfg.text_tokens)
    s = SalientTokenSet(
        text_indices=tuple(range(cfg.text_tokens)),
        image_indices=tuple(range(cfg.image_tokens)),
    )
    rows = partial_attention(model.blocks[0], h, s, cfg.text_tokens)
    assert np.array_equal(rows, full.attn_out)


def test_partial_attention_single_row_bit_equal():
    model, x = toy_setup(4, num_blocks=1)
    cfg = model.config
    h = np.concatenate([model.text_embed, x], axis=0)
    full = block_forward(model.blocks[0], h, cfg.text_tokens)
    s = SalientTokenSet(text_indices=(), image_indices=(3,))
    rows = partial_attention(model.blocks[0], h, s, cfg.text_tokens)
    assert np.array_equal(rows[0], full.attn_out[cfg.text_tokens + 3])


def test_partial_attention_random_subsets_bit_equal():
    model, x = toy_setup(5, num_blocks=1, text_tokens=2, image_tokens=4,
                         hidden_dim=16, ffn_dim=16, num_heads=2)
    cfg = model.config
    h = np.concatenate([model.text_embed, x], axis=0)
    full = block_forward(model.blocks[0], h, cfg.text_tokens)
    rng = SeededRng(55)
    for _ in range(10):
        keys = rng.standard_normal(1, cfg.seq_len)[0]
        chosen = [i for i, k in enumerate(keys) if k > 0]
        s = SalientTokenSet(
            text_indices=tuple(i for i in chosen if i < cfg.text_tokens),
            image_indices=tuple(i - cfg.text_tokens for i in chosen if i >= cfg.text_tokens),
        )
        rows = partial_attention(model.blocks[0], h, s, cfg.text_tokens)
        assert np.array_equal(rows, full.attn_out[sorted(chosen)])


def test_partial_attention_empty_set_is_noop():
    model, x = toy_setup(0, num_blocks=1)
    h = np.concatenate([model.text_embed, x], axis=0)
    s = SalientTokenSet(text_indices=(), image_indices=())
    assert partial_attention(model.blocks[0], h, s, model.config.text_tokens).shape == (0, 32)


def test_a_text_index_that_names_an_image_row_is_rejected():
    # at the CLI defaults (4 text tokens) text index 5 is joint row 5, an
    # image row, which the corgi_plus block would refresh as if it were text
    model, x = toy_setup(0, num_blocks=1)
    cfg = model.config
    h = np.concatenate([model.text_embed, x], axis=0)
    entry = block_forward(model.blocks[0], h, cfg.text_tokens)
    s = SalientTokenSet(text_indices=(5,), image_indices=())
    mask = np.zeros(cfg.seq_len, dtype=np.int8)
    mask[5] = 1
    with pytest.raises(ValueError, match="text index 5 out of range"):
        partial_attention(model.blocks[0], h, s, cfg.text_tokens)
    with pytest.raises(ValueError, match="text index 5 out of range"):
        execute_block_corgi_plus(h, model.blocks[0], entry, s, mask, cfg.text_tokens)


def test_an_image_index_past_the_image_tokens_is_rejected():
    # at the CLI defaults (4 + 16 tokens) image index 16 is joint row 20, one
    # past the sequence
    model, x = toy_setup(0, num_blocks=1)
    cfg = model.config
    block = model.blocks[0]
    h = np.concatenate([model.text_embed, x], axis=0)
    entry = block_forward(block, h, cfg.text_tokens)
    s = SalientTokenSet(text_indices=(0,), image_indices=(16,))
    mask = np.zeros(cfg.seq_len, dtype=np.int8)
    mask[0] = 1
    message = "image index 16 out of range for 16 image tokens"
    with pytest.raises(ValueError, match=message):
        partial_attention(block, h, s, cfg.text_tokens)
    with pytest.raises(ValueError, match=message):
        build_mask(s, cfg.text_tokens, cfg.image_tokens)
    with pytest.raises(ValueError, match=message):
        execute_block_corgi_plus(h, block, entry, s, mask, cfg.text_tokens)
    last = SalientTokenSet(text_indices=(0,), image_indices=(15,))
    assert build_mask(last, cfg.text_tokens, cfg.image_tokens)[-1] == 1
    assert partial_attention(block, h, last, cfg.text_tokens).shape == (2, cfg.hidden_dim)


def test_masked_merge_semantics():
    cached = np.array([[10.0, 10.0], [20.0, 20.0]])
    fresh = np.array([[1.0, 1.0]])
    out = masked_merge(fresh, cached, np.array([1, 0]))
    assert out.tolist() == [[1.0, 1.0], [20.0, 20.0]]
    both = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert masked_merge(both, cached, np.array([1, 1])).tolist() == both.tolist()
    assert masked_merge(np.zeros((0, 2)), cached, np.array([0, 0])).tolist() == cached.tolist()


def test_masked_merge_rejects_bad_mask():
    cached = np.zeros((3, 2))
    with pytest.raises(ValueError, match="mask length"):
        masked_merge(np.zeros((1, 2)), cached, np.array([1, 0]))
    with pytest.raises(ValueError, match="expected 1 update rows, got 2"):
        masked_merge(np.zeros((2, 2)), cached, np.array([1, 0, 0]))
    with pytest.raises(ValueError, match="expected 1 update rows, got 3"):
        masked_merge(np.zeros((3, 2)), cached, np.array([1, 0, 0]))  # all rows


def test_corgi_plus_block_empty_set_equals_plain_cached():
    model, x = toy_setup(6, num_blocks=1)
    cfg = model.config
    h = np.concatenate([model.text_embed, x], axis=0)
    outs = block_forward(model.blocks[0], h, cfg.text_tokens)
    entry = _entry(outs.attn_out, outs.ffn_out, h)
    s = SalientTokenSet(text_indices=(), image_indices=())
    mask = build_mask(s, cfg.text_tokens, cfg.image_tokens)
    got = execute_block_corgi_plus(h + 0.5, model.blocks[0], entry, s, mask, cfg.text_tokens)
    want = execute_block_cached(h + 0.5, entry, "compute")
    assert np.array_equal(got.block_out, want.block_out)


def test_corgi_plus_block_full_set_refreshes_attention():
    model, x = toy_setup(7, num_blocks=1)
    cfg = model.config
    h0 = np.concatenate([model.text_embed, x], axis=0)
    stale = block_forward(model.blocks[0], h0, cfg.text_tokens)
    entry = _entry(stale.attn_out, stale.ffn_out, h0)
    h1 = h0 * 1.1 + 0.2
    fresh = block_forward(model.blocks[0], h1, cfg.text_tokens)
    s = SalientTokenSet(
        text_indices=tuple(range(cfg.text_tokens)),
        image_indices=tuple(range(cfg.image_tokens)),
    )
    mask = build_mask(s, cfg.text_tokens, cfg.image_tokens)
    got = execute_block_corgi_plus(h1, model.blocks[0], entry, s, mask, cfg.text_tokens)
    assert np.array_equal(got.attn_out, fresh.attn_out)
    assert np.array_equal(got.ffn_out, stale.ffn_out)  # FFN stays cached


def test_corgi_plus_block_keeps_unselected_rows_cached():
    # the call never writes to its cache entry, so refreshed salient rows live
    # only in the step that computed them
    model, x = toy_setup(8, num_blocks=1)
    cfg = model.config
    h0 = np.concatenate([model.text_embed, x], axis=0)
    stale = block_forward(model.blocks[0], h0, cfg.text_tokens)
    entry = _entry(stale.attn_out, stale.ffn_out, h0)
    before = (entry.attn_out.copy(), entry.ffn_out.copy())
    s = SalientTokenSet(text_indices=(0,), image_indices=(1, 2))
    mask = build_mask(s, cfg.text_tokens, cfg.image_tokens)
    got = execute_block_corgi_plus(h0 + 1.0, model.blocks[0], entry, s, mask, cfg.text_tokens)
    for row in range(cfg.seq_len):
        if mask[row] == 0:
            assert np.array_equal(got.attn_out[row], stale.attn_out[row])
    assert not np.array_equal(got.attn_out, stale.attn_out)  # salient rows refreshed
    assert np.array_equal(entry.attn_out, before[0])
    assert np.array_equal(entry.ffn_out, before[1])


def test_noop_policies_are_bit_identical_to_reference():
    model, x = toy_setup(0)
    ref = run_reference(model, x)
    for cfg in (
        CorgiConfig(policy=PolicyKind.NONE),
        CorgiConfig(policy=PolicyKind.CORGI, gamma=0, delta=0),
        CorgiConfig(policy=PolicyKind.CORGI, interval=1),
    ):
        trace = run_with_policy(model, x, None, cfg)
        assert bit_identical_to_reference(trace, ref)
        assert trace.equivalent_to_reference


def test_worked_schedule_cached_counts():
    model, x = toy_setup(1)
    cfg = CorgiConfig(policy=PolicyKind.CORGI, warmup=2, interval=5, gamma=3, delta=1)
    trace = run_with_policy(model, x, None, cfg)
    assert [len(r.cached) for r in trace.steps] == [0, 0, 0, 3, 4, 5, 6, 0, 3, 4, 5, 6]
    assert [r.modes.count("full") for r in trace.steps] == [8, 8, 8, 5, 4, 3, 2, 8, 5, 4, 3, 2]
    assert trace.cost.blocks_computed == 60
    assert trace.cost.blocks_total == 96
    assert not trace.equivalent_to_reference


def test_boundary_and_warmup_steps_never_cache():
    model, x = toy_setup(2)
    trace = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.CORGI))
    for rec in trace.steps:
        if rec.role in ("warmup", "boundary"):
            assert rec.cached == ()
            assert all(m == "full" for m in rec.modes)


def test_intra_caches_lowest_contribution_prefix():
    model, x = toy_setup(3)
    cfg = CorgiConfig(policy=PolicyKind.CORGI, warmup=2, interval=5, gamma=3, delta=1)
    trace = run_with_policy(model, x, None, cfg)
    boundary_scores = {c["step"]: c["scores"] for c in trace.contributions}
    assert set(boundary_scores) == {2, 7}
    ranking = rank_ascending(boundary_scores[2])
    intra1 = trace.steps[3]
    assert set(intra1.cached) == select_cached(ranking, 3)
    # nested growth within the interval
    for a, b in zip(trace.steps[3:7], trace.steps[4:7]):
        assert set(a.cached) <= set(b.cached)


def test_determinism_of_traces():
    model, x = toy_setup(4)
    cfg = CorgiConfig(policy=PolicyKind.CORGI_PLUS, top_c=2)
    a = run_with_policy(model, x, None, cfg)
    b = run_with_policy(model, x, None, cfg)
    a_dict, b_dict = a.to_dict(), b.to_dict()
    a_dict.pop("created_at"), b_dict.pop("created_at")
    assert a_dict == b_dict


def test_residual_strategies_differ_under_parity():
    model, x = toy_setup(5)
    ref = run_reference(model, x)
    compute = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.PARITY))
    reuse = run_with_policy(
        model, x, None, CorgiConfig(policy=PolicyKind.PARITY, residual="reuse")
    )
    assert not np.array_equal(compute.final_output, reuse.final_output)
    assert not bit_identical_to_reference(compute, ref)


def test_parity_caches_even_or_odd_blocks():
    model, x = toy_setup(6)
    even = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.PARITY))
    assert set(even.steps[-1].cached) == {0, 2, 4, 6}
    odd = run_with_policy(
        model, x, None, CorgiConfig(policy=PolicyKind.PARITY, parity="odd")
    )
    assert set(odd.steps[-1].cached) == {1, 3, 5, 7}


def test_naive_baseline_caches_half_each_step():
    model, x = toy_setup(7)
    trace = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.PER_STEP_NAIVE))
    warmup = trace.config["warmup"]
    for rec in trace.steps:
        assert len(rec.cached) == (0 if rec.step < warmup else 4)


def test_random_baseline_is_seeded_and_varies():
    model, x = toy_setup(8)
    a = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.RANDOM, seed=1))
    b = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.RANDOM, seed=1))
    assert [r.cached for r in a.steps] == [r.cached for r in b.steps]
    c = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.RANDOM, seed=2))
    assert [r.cached for r in a.steps] != [r.cached for r in c.steps]
    post = [r for r in a.steps if r.step >= a.config["warmup"]]
    assert all(len(r.cached) == 4 for r in post)
    assert len({r.cached for r in post}) > 1  # fresh sample per step


def test_zero_warmup_baseline_falls_back_to_full_at_step_zero():
    model, x = toy_setup(9)
    trace = run_with_policy(
        model, x, None, CorgiConfig(policy=PolicyKind.PARITY, warmup=0)
    )
    assert trace.steps[0].cached == ()
    assert all(m == "full" for m in trace.steps[0].modes)
    assert set(trace.steps[1].cached) == {0, 2, 4, 6}


def test_corgi_plus_records_saliency_and_partial_modes():
    model, x = toy_setup(10)
    trace = run_with_policy(
        model, x, None, CorgiConfig(policy=PolicyKind.CORGI_PLUS, top_c=2)
    )
    assert trace.saliency is not None and len(trace.saliency) == 8
    for entry in trace.saliency:
        assert 1 <= len(entry["text"]) <= 2
        assert len(entry["image"]) >= 1
    intra_modes = {m for r in trace.steps if r.role.startswith("intra") for m in r.modes}
    assert "cached_partial" in intra_modes
    assert "cached" not in intra_modes


def test_refreshed_saliency_is_charged_at_the_sizes_each_step_used(monkeypatch):
    # a spy records the salient-set size of every partial refresh the engine
    # executes; the trace's cost must charge exactly those sizes
    import corgi.runtime as runtime

    used = []

    def spy(h, block, entry, s, mask, text_tokens):
        used.append(len(s.text_indices) + len(s.image_indices))
        return execute_block_corgi_plus(h, block, entry, s, mask, text_tokens)

    monkeypatch.setattr(runtime, "execute_block_corgi_plus", spy)
    model, x = toy_setup(0, total_steps=20)
    cfg = CorgiConfig(policy=PolicyKind.CORGI_PLUS, interval=3, top_c=2, refresh_saliency=True)
    trace = run_with_policy(model, x, None, cfg)
    mc = model.config
    sizes = iter(used)
    want = sum(
        flops_block(mc.seq_len, mc.hidden_dim, mc.ffn_dim, mode,
                    salient=next(sizes) if mode == "cached_partial" else 0)
        for r in trace.steps
        for mode in r.modes
    ) + mc.total_steps * mc.image_tokens * mc.hidden_dim ** 2  # the eps head
    assert next(sizes, None) is None
    assert trace.cost.flops_actual == want
    boundaries = [r.step for r in trace.steps if r.role == "boundary"]
    assert [e["step"] for e in trace.saliency] == [s for s in boundaries for _ in range(mc.num_blocks)]


def test_salient_writeback_is_unobservable_with_static_sets(monkeypatch):
    # the merged rows are recomputed fresh at every partial step, so writing
    # them back into the cache entry only matters if the salient set changes
    # between intervals; the engine no longer writes back, so the write is
    # injected around its partial-refresh call
    import corgi.runtime as runtime

    def with_writeback(h, block, entry, s, mask, text_tokens):
        outs = execute_block_corgi_plus(h, block, entry, s, mask, text_tokens)
        entry.attn_out = outs.attn_out
        return outs

    model, x = toy_setup(11)
    cfg = CorgiConfig(policy=PolicyKind.CORGI_PLUS, top_c=2)
    a = run_with_policy(model, x, None, cfg)
    monkeypatch.setattr(runtime, "execute_block_corgi_plus", with_writeback)
    b = run_with_policy(model, x, None, cfg)
    assert any("cached_partial" in r.modes for r in b.steps)
    assert np.array_equal(a.final_output, b.final_output)


def test_model_config_mismatch_rejected_before_step_zero():
    model, x = toy_setup(12)
    with pytest.raises(ValueError, match="gamma"):
        run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.CORGI, gamma=99))
    with pytest.raises(ValueError, match="x_init"):
        run_with_policy(model, x[:3], None, CorgiConfig())


def _run(**fields):
    return lambda model, x: run_with_policy(model, x, None, CorgiConfig(**fields))


# values the CLI's typed flags never produce, but the library API used to let
# through: a float failed at the first intra step, a numpy integer at
# Trace.to_json, a bool or a truthy string ran on silently
_MISTYPED = {
    "gamma-float": (_run(gamma=2.5), "gamma"),
    "warmup-int64": (_run(warmup=np.int64(2)), "warmup"),
    "gamma-bool": (_run(gamma=True), "gamma"),
    "top_c-str": (_run(top_c="2"), "top_c"),
    "seed-int64": (_run(policy=PolicyKind.RANDOM, seed=np.int64(1)), "seed"),
    "refresh_saliency-str": (_run(policy=PolicyKind.CORGI_PLUS, refresh_saliency="false"),
                             "refresh_saliency"),
    "num_blocks-int64": (lambda model, x: build_model(ModelConfig(num_blocks=np.int64(4)), 0),
                         "num_blocks"),
    "num_blocks-bool": (lambda model, x: build_model(ModelConfig(num_blocks=True), 0),
                        "num_blocks"),
    "model-seed-int64": (lambda model, x: build_model(ModelConfig(), seed=np.int64(1)), "seed"),
}


@pytest.mark.parametrize("case", sorted(_MISTYPED))
def test_a_mistyped_config_value_is_rejected_by_name_before_any_block_runs(monkeypatch, case):
    import corgi.model as model_module
    import corgi.runtime as runtime

    call, field = _MISTYPED[case]
    model, x = toy_setup(0)
    real, calls = model_module.block_forward, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (model_module, runtime):
        monkeypatch.setattr(module, "block_forward", counting)
    with pytest.raises(ValueError, match=f"^{field} must be"):
        call(model, x)
    assert calls == []


_ENTRY_POINTS = {
    "run_with_policy": lambda model, x, text: run_with_policy(model, x, text, CorgiConfig()),
    "run_reference": run_reference,
    "analyze_model": analyze_model,
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("defect", ["nan-x_init", "inf-x_init", "2row-text_embed", "nan-text_embed"])
def test_run_entry_points_reject_bad_arrays_by_name(entry, defect):
    # the kernels below the entry points do not check their inputs, so a bad
    # array has to be stopped here, before the first block
    model, x = toy_setup(13)
    x, text = x.copy(), model.text_embed.copy()
    if defect == "nan-x_init":
        x[2, 3] = np.nan
    elif defect == "inf-x_init":
        x[0, 0] = -np.inf
    elif defect == "2row-text_embed":
        text = text[:2]
    else:
        text[1, 0] = np.nan
    with pytest.raises(ValueError, match=defect.split("-")[-1]):
        _ENTRY_POINTS[entry](model, x, text)


def test_a_run_checks_its_arrays_a_fixed_number_of_times(monkeypatch):
    # arrays are checked at the entry point, not per block, head or step
    import corgi.numerics as numerics

    real, calls = numerics.ensure_matrix, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "corgi" and getattr(module, "ensure_matrix", None) is real:
            monkeypatch.setattr(module, "ensure_matrix", counting)
    counts = []
    for shape in ({"num_blocks": 2, "num_heads": 1, "total_steps": 3},
                  {"num_blocks": 5, "num_heads": 4, "total_steps": 7}):
        model, x = toy_setup(14, **shape)
        calls.clear()
        run_reference(model, x)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_executed_macs_match_the_cost_model(monkeypatch):
    # count the multiply-accumulates of every matmul the model module runs;
    # a full block must execute exactly its "full" cost, a partial refresh its
    # "cached_partial" cost minus the L*d residual additions (no matmul), and
    # a whole run its flops_actual minus those additions of every cached or
    # cached_partial block
    import corgi.model as model_module

    macs = []
    matmul, matmul_nt = model_module.matmul, model_module.matmul_nt

    # leading axes are batch axes, broadcast between a and b: every row of a,
    # in every batch item, is one k-long dot product per output column
    def batch(a, b):
        return math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))

    def counting_matmul(a, b):
        macs.append(batch(a, b) * a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b)

    def counting_matmul_nt(a, b):
        macs.append(batch(a, b) * a.shape[-2] * a.shape[-1] * b.shape[-2])
        return matmul_nt(a, b)

    monkeypatch.setattr(model_module, "matmul", counting_matmul)
    monkeypatch.setattr(model_module, "matmul_nt", counting_matmul_nt)
    for heads in (1, 2, 4):
        model, x = toy_setup(12, num_heads=heads, hidden_dim=16, ffn_dim=24)
        mc = model.config
        L, d = mc.seq_len, mc.hidden_dim
        h = np.concatenate([model.text_embed, x], axis=0)
        macs.clear()
        entry = block_forward(model.blocks[0], h, mc.text_tokens)
        assert sum(macs) == flops_block(L, d, mc.ffn_dim, "full")
        for text, image in (((0,), (3,)), ((1, 2), (0, 5, 9)), (tuple(range(4)), tuple(range(16)))):
            s = SalientTokenSet(text_indices=text, image_indices=image)
            mask = build_mask(s, mc.text_tokens, mc.image_tokens)
            macs.clear()
            execute_block_corgi_plus(h * 0.9, model.blocks[0], entry, s, mask, mc.text_tokens)
            want = flops_block(L, d, mc.ffn_dim, "cached_partial", salient=len(text) + len(image))
            assert sum(macs) == want - L * d

    model, x = toy_setup(12, hidden_dim=16, ffn_dim=24)
    L, d = model.config.seq_len, model.config.hidden_dim
    for kind in PolicyKind:
        for refresh in (False, True) if kind == PolicyKind.CORGI_PLUS else (False,):
            macs.clear()
            trace = run_with_policy(
                model, x, None, CorgiConfig(policy=kind, top_c=2, refresh_saliency=refresh)
            )
            skipped = sum(m != "full" for r in trace.steps for m in r.modes)
            assert (skipped == 0) == (kind == PolicyKind.NONE)
            assert sum(macs) == trace.cost.flops_actual - L * d * skipped


def test_trace_json_keys_follow_the_record_fields():
    # the JSON layout is the dataclass field order; a reordered field would
    # silently change the format
    model, x = toy_setup(13)
    trace = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.CORGI_PLUS, top_c=2))
    d = json.loads(trace.to_json())
    assert list(d) == [
        "schema", "created_at", "config", "steps", "contributions", "saliency", "final_output",
    ]
    assert list(d["steps"][0]) == ["step", "role", "modes", "checksum", "noise_pred"]
    assert list(d["steps"][0]["noise_pred"]) == ["shape", "f64le"]
    assert list(d["final_output"]) == ["shape", "f64le"]
    d["comment"] = "not a field"
    with pytest.raises(TypeError, match="comment"):
        Trace.from_json(json.dumps(d))


def _tiny_trace():
    model, x = toy_setup(5, num_blocks=2, total_steps=3, hidden_dim=8, ffn_dim=8, num_heads=2)
    return run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.CORGI))


def test_trace_arrays_round_trip_bit_for_bit():
    extremes = np.array([[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308]])
    strided = np.arange(24, dtype=np.float64).reshape(4, 6) / 7.0
    for final, step_pred in ((extremes, extremes.T), (strided.T, strided[::2, 1::3])):
        assert not step_pred.flags.c_contiguous
        trace = _tiny_trace()
        trace.final_output, trace.steps[0].noise_pred = final, step_pred
        back = Trace.from_json(trace.to_json())
        assert back == trace
        for got, want in ((back.final_output, final), (back.steps[0].noise_pred, step_pred)):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.owndata and got.flags.writeable and got.flags.c_contiguous


def test_trace_rejects_malformed_array_payloads():
    d = json.loads(_tiny_trace().to_json())
    payload = d["final_output"]
    short = base64.b64encode(base64.b64decode(payload["f64le"])[:-8]).decode("ascii")
    # a stray character that a lenient decoder would skip; a shape that
    # reshape alone would accept
    stray = payload["f64le"][:4] + "!" + payload["f64le"][4:]
    for bad in ({**payload, "f64le": short}, {**payload, "f64le": stray},
                {**payload, "shape": [payload["shape"][0] + 1, payload["shape"][1]]},
                {**payload, "shape": [-1]}):
        with pytest.raises(ValueError):
            Trace.from_dict({**d, "final_output": bad})
    step = {**d["steps"][0], "noise_pred": {**payload, "f64le": short}}
    with pytest.raises(ValueError):
        Trace.from_dict({**d, "steps": [step, *d["steps"][1:]]})


def test_trace_rejects_other_schemas():
    trace = _tiny_trace()
    d = json.loads(trace.to_json())
    # a corgi-trace/2 file also stored each step's cached blocks, the cost
    # and equivalent_to_reference; a corgi-trace/1 file stored its arrays as
    # nested float lists besides
    v2 = {
        **d,
        "schema": "corgi-trace/2",
        "steps": [{**r, "cached": list(s.cached)} for r, s in zip(d["steps"], trace.steps)],
        "cost": {**asdict(trace.cost), "per_step": []},
        "equivalent_to_reference": trace.equivalent_to_reference,
    }
    v1 = {
        **v2,
        "schema": "corgi-trace/1",
        "steps": [{**r, "noise_pred": p.tolist()} for r, p in zip(v2["steps"], trace.noise_preds)],
        "final_output": trace.final_output.tolist(),
    }
    for schema, doc in (("corgi-trace/1", v1), ("corgi-trace/2", v2),
                        ("corgi-trace/4", {**d, "schema": "corgi-trace/4"})):
        with pytest.raises(ValueError, match=f"'{schema}'.*'corgi-trace/3'"):
            Trace.from_json(json.dumps(doc))
    without = {k: v for k, v in d.items() if k != "schema"}
    with pytest.raises(ValueError, match="None.*'corgi-trace/3'"):
        Trace.from_dict(without)


def test_a_hand_edited_trace_that_contradicts_its_modes_does_not_load():
    # a corgi trace at the CLI defaults, edited to claim a one-MAC cost, to
    # be equivalent to the reference and to cache nothing at step 5, while
    # six of step 5's modes read cached; a corgi-trace/2 loader took it
    import corgi.cli as cli

    model, x = cli.setup(cli.DEFAULTS)
    trace = run_with_policy(model, x, None, cli.policy_config(cli.DEFAULTS, "corgi"))
    d = json.loads(trace.to_json())
    assert d["steps"][5]["modes"].count("cached") == 6
    steps = [*d["steps"][:5], {**d["steps"][5], "cached": []}, *d["steps"][6:]]
    edited = {
        **d, "steps": steps, "cost": {**asdict(trace.cost), "flops_actual": 1},
        "equivalent_to_reference": True,
    }
    with pytest.raises(TypeError):
        Trace.from_json(json.dumps(edited))
    with pytest.raises(ValueError, match="'corgi-trace/2'"):
        Trace.from_json(json.dumps({**edited, "schema": "corgi-trace/2"}))
    assert len(trace.steps[5].cached) == 6 and not trace.equivalent_to_reference


def test_a_trace_whose_steps_or_modes_do_not_fit_its_config_echo_does_not_load():
    d = json.loads(_tiny_trace().to_json())  # 3 steps of 2 blocks
    steps = d["steps"]

    def with_modes(step, modes):
        return {**d, "steps": [{**r, "modes": modes} if r["step"] == step else r for r in steps]}

    for doc, message in (
        ({**d, "steps": steps[:-1]}, "trace has 2 steps, its config 3"),
        ({**d, "steps": [*steps, steps[-1]]}, "trace has 4 steps, its config 3"),
        (with_modes(1, ["full"]), "step 1 has 1 modes, its config 2 blocks"),
        (with_modes(1, ["full", "cached", "full"]), "step 1 has 3 modes, its config 2 blocks"),
        (with_modes(2, ["turbo", "full"]), r"step 2 has unknown modes \['turbo'\]"),
        (with_modes(0, ["skip", "turbo"]), r"step 0 has unknown modes \['skip', 'turbo'\]"),
    ):
        with pytest.raises(ValueError, match=message):
            Trace.from_json(json.dumps(doc))


def test_a_corgi_plus_trace_whose_picks_do_not_fit_its_config_echo_does_not_load():
    # a corgi_plus trace at the CLI defaults; unchecked, a trace without its
    # picks loaded and charged its partial blocks at s = 0 (speedup 1.548 in
    # place of 1.423), and a pick naming block 99 loaded too
    import corgi.cli as cli

    model, x = cli.setup(cli.DEFAULTS)
    trace = run_with_policy(model, x, None, cli.policy_config(cli.DEFAULTS, "corgi_plus"))
    d = json.loads(trace.to_json())
    picks = d["saliency"]
    first = picks[0]
    mc = d["config"]["model"]
    assert Trace.from_json(trace.to_json()).cost == trace.cost

    def with_picks(*changed):
        return {**d, "saliency": [*changed, *picks[len(changed):]]}

    for doc, message in (
        ({**d, "saliency": None}, "step 3 has a cached_partial block with no pick in force"),
        ({**d, "saliency": picks[1:]}, "step 6 has a cached_partial block with no pick in force"),
        (with_picks({**first, "block": 99, "image": list(range(500))}),
         "pick at step 2, block 99 is outside its config's 12 steps of 8 blocks"),
        (with_picks({**first, "block": -1}), "pick at step 2, block -1 is outside"),
        (with_picks({**first, "step": 12}), "pick at step 12, block 0 is outside"),
        ({**d, "saliency": [*picks, {**first, "step": 1}]},
         "pick at step 1 comes after a pick at step 2"),
        (with_picks({**first, "image": [mc["image_tokens"]]}),
         f"image index {mc['image_tokens']} out of range"),
        (with_picks({**first, "text": [mc["text_tokens"]]}),
         f"text index {mc['text_tokens']} out of range"),
        (with_picks({**first, "image": [3, 1]}), "image indices .* are not ascending"),
        (with_picks({**first, "text": [0.5]}), "text indices .* are not all integers"),
    ):
        with pytest.raises(ValueError, match=message):
            Trace.from_json(json.dumps(doc))


def _read_only(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


def test_hot_paths_never_write_to_their_inputs():
    # the hot paths work in place on their own temporaries only; under
    # residual=reuse a block's input h is a cache entry's block_out, so a
    # write to an input would corrupt the cache (here: raise ValueError)
    model, x = toy_setup(14)
    mc = model.config
    block = Block(**{
        k: _read_only(v) if isinstance(v, np.ndarray) else v for k, v in vars(model.blocks[0]).items()
    })
    h = _read_only(np.concatenate([model.text_embed, x], axis=0))
    want = block_forward(model.blocks[0], np.array(h), mc.text_tokens)
    entry = BlockOutputs(**{k: _read_only(v) for k, v in vars(want).items()})

    got = block_forward(block, h, mc.text_tokens)
    assert all(np.array_equal(getattr(got, k), v) for k, v in vars(want).items())
    attention_rows(block, h)
    attention_rows(block, h, np.array([1, 5, 7]))
    ffn_forward(block, h)
    softmax_rows(h)
    for residual in ("compute", "reuse"):
        execute_block_cached(h, entry, residual)
    s = SalientTokenSet(text_indices=(0, 2), image_indices=(1, 4, 9))
    mask = _read_only(build_mask(s, mc.text_tokens, mc.image_tokens))
    execute_block_corgi_plus(h, block, entry, s, mask, mc.text_tokens)


@pytest.mark.parametrize("run", ["none", "reference", "pruned reference"])
def test_a_none_run_keeps_no_block_outputs_from_an_earlier_step(monkeypatch, run):
    # none never serves the cache, so once a block's successor has read its
    # output, nothing of it may stay alive: not as a cache entry, not in the
    # step's list of outputs, not in a loop variable
    model, x = toy_setup(0, num_blocks=3, total_steps=5)
    computed, alive_at_plan = [], []
    real_forward, real_make = corgi.runtime.block_forward, corgi.runtime.make_schedule

    def forward(*args, **kwargs):
        outs = real_forward(*args, **kwargs)
        computed.append(weakref.ref(outs))
        return outs

    def make_schedule(*args):
        schedule = real_make(*args)
        plan = schedule.plan

        def counting_plan(step):
            alive_at_plan.append(sum(ref() is not None for ref in computed))
            return plan(step)

        schedule.plan = counting_plan
        return schedule

    monkeypatch.setattr(corgi.runtime, "block_forward", forward)
    monkeypatch.setattr(corgi.runtime, "make_schedule", make_schedule)
    if run == "none":
        run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.NONE))
    else:
        run_reference(model, x, pruned_blocks={1} if run == "pruned reference" else frozenset())
    assert len(computed) == 5 * (2 if run == "pruned reference" else 3)
    assert alive_at_plan == [0] * 5
