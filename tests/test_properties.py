"""Bit-exactness invariants over random tiny configurations."""

import itertools
import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import corgi.model
import corgi.numerics
import corgi.policy
import corgi.runtime
from corgi import (
    CorgiConfig,
    PolicyKind,
    SeededRng,
    Trace,
    analyze_model,
    build_model,
    kmeans_1d_two,
    plan_steps,
    run_reference,
    run_with_policy,
)
from corgi.analysis import _row_cosines
from corgi.model import _gelu, _layernorm, attention_rows, block_forward
from corgi.numerics import _row_tiled, matmul, matmul_nt, softmax_rows
from corgi.saliency import KMeansResult

from helpers import bit_identical_to_reference, tiny_setups, toy_setup

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(tiny_setups())
def test_noop_schedules_are_bit_identical_to_reference(setup):
    model, x = setup
    ref = run_reference(model, x)
    for cfg in (
        CorgiConfig(policy=PolicyKind.NONE),
        CorgiConfig(policy=PolicyKind.CORGI, gamma=0, delta=0),
        CorgiConfig(policy=PolicyKind.CORGI, interval=1),
    ):
        trace = run_with_policy(model, x, None, cfg)
        assert bit_identical_to_reference(trace, ref)
        assert trace.equivalent_to_reference


@PROPERTY_SETTINGS
@given(tiny_setups(), st.data())
def test_pruned_block_equals_model_without_it(setup, data):
    model, x = setup
    b = data.draw(st.integers(0, model.config.num_blocks - 1))
    pruned = run_reference(model, x, pruned_blocks={b})
    removed = replace(
        model,
        config=replace(model.config, num_blocks=model.config.num_blocks - 1),
        blocks=model.blocks[:b] + model.blocks[b + 1 :],
    )
    want = run_reference(removed, x)
    assert all(np.array_equal(p, q) for p, q in zip(pruned.noise_preds, want.noise_preds))
    assert np.array_equal(pruned.final_output, want.final_output)


@PROPERTY_SETTINGS
@given(tiny_setups())
def test_traces_round_trip_and_repeat_byte_for_byte(setup):
    model, x = setup
    for policy in PolicyKind:
        cfg = CorgiConfig(policy=policy)
        t = run_with_policy(model, x, None, cfg)
        assert Trace.from_json(t.to_json()) == t
        again = run_with_policy(model, x, None, cfg)
        t.created_at = again.created_at = ""
        assert again.to_json() == t.to_json()


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(tiny_setups())
def test_a_trace_stores_no_derived_value_and_derives_the_same_after_loading(setup):
    # the cost, equivalent_to_reference and each step's cached blocks are
    # read from the modes, the picks and the config echo; a document that
    # carries any of them back is not a corgi-trace/3 document
    model, x = setup
    for policy, warmup, refresh in itertools.product(PolicyKind, (None, 0), (False, True)):
        t = run_with_policy(model, x, None, CorgiConfig(
            policy=policy, warmup=warmup, refresh_saliency=refresh,
        ))
        text = t.to_json()
        back = Trace.from_json(text)
        assert back.cost == t.cost
        assert back.equivalent_to_reference == t.equivalent_to_reference
        assert [r.cached for r in back.steps] == [r.cached for r in t.steps]
        d = json.loads(text)
        assert "cost" not in d and "equivalent_to_reference" not in d
        assert not any("cached" in r for r in d["steps"])
        first = {**d["steps"][0], "cached": list(t.steps[0].cached)}
        for key, doc in (
            ("cost", {**d, "cost": asdict(t.cost)}),
            ("equivalent_to_reference", {**d, "equivalent_to_reference": t.equivalent_to_reference}),
            ("cached", {**d, "steps": [first, *d["steps"][1:]]}),
        ):
            with pytest.raises(TypeError, match=key):
                Trace.from_json(json.dumps(doc))


@PROPERTY_SETTINGS
@given(tiny_setups(), st.integers(1, 3))
def test_cost_never_increases_as_gamma_or_delta_grows(setup, interval):
    model, x = setup
    blocks = model.config.num_blocks

    def flops(policy, **knobs):
        cfg = CorgiConfig(policy=policy, interval=interval, **knobs)
        return run_with_policy(model, x, None, cfg).cost.flops_actual

    for policy in (PolicyKind.CORGI, PolicyKind.CORGI_PLUS):
        by_gamma = [flops(policy, gamma=g) for g in range(blocks + 1)]
        by_delta = [flops(policy, gamma=0, delta=d) for d in range(blocks + 1)]
        for series in (by_gamma, by_delta):
            assert all(b <= a for a, b in zip(series, series[1:])), series


def _baseline_call_is_complete(kind, step, warmup, num_blocks, ranking=None, parity="even",
                                rng=None):
    if kind in (PolicyKind.CORGI, PolicyKind.CORGI_PLUS) or parity not in ("even", "odd"):
        return False
    if kind == PolicyKind.RANDOM:
        return isinstance(rng, SeededRng)
    return kind != PolicyKind.PER_STEP_NAIVE or step < warmup or ranking is not None


def _mask_call_in_range(s, text_tokens, image_tokens):
    return all(0 <= u < text_tokens for u in s.text_indices) and all(
        0 <= v < image_tokens for v in s.image_indices
    )


def _denoise_call_in_range(x_t, eps, t, schedule):
    return 1 <= t <= len(schedule) and x_t.dtype == eps.dtype == np.float64 and x_t.shape == eps.shape


# The helpers below the entry points that no longer check their inputs, each
# at the module that calls it, with the precondition its callers guarantee.
_HELPER_PRECONDITIONS = {
    (corgi.policy, "baseline_directives"): _baseline_call_is_complete,
    (corgi.policy, "select_cached"): lambda ranking, count: 0 <= count <= len(ranking),
    (corgi.policy, "contribution_scores"): lambda prev, cur: len(prev) == len(cur),
    (corgi.policy, "rank_ascending"): lambda scores: bool(np.isfinite(scores).all()),
    (corgi.policy, "build_mask"): _mask_call_in_range,
    (corgi.runtime, "denoise_step_mean"): _denoise_call_in_range,
    (corgi.model, "denoise_step_mean"): _denoise_call_in_range,
    (corgi.model, "build_schedule"): lambda total_steps, beta_start=1e-4, beta_end=0.02: (
        total_steps >= 1 and 0.0 < beta_start <= beta_end < 1.0
    ),
    (corgi.numerics, "normal_stream"): lambda seed, counter, n: n >= 1,
}


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(tiny_setups(), st.data())
def test_unchecked_helpers_only_get_what_they_assume(setup, data):
    # every policy and variant, a pruned reference run and the ablation, with
    # each helper's removed input check asserted on every call it gets
    model, x = setup
    mc = model.config
    called = set()

    def spy(module, name, precondition):
        real = getattr(module, name)

        def checked(*args, **kwargs):
            assert precondition(*args, **kwargs), (name, args, kwargs)
            called.add(name)
            return real(*args, **kwargs)

        return checked

    with pytest.MonkeyPatch.context() as mp:
        for (module, name), precondition in _HELPER_PRECONDITIONS.items():
            mp.setattr(module, name, spy(module, name, precondition))
        model = build_model(mc, model.seed)  # under the spies on its helpers
        for policy, warmup, refresh, residual, parity in itertools.product(
            PolicyKind, (None, 0), (False, True), ("compute", "reuse"), ("even", "odd")
        ):
            run_with_policy(model, x, None, CorgiConfig(
                policy=policy, warmup=warmup, refresh_saliency=refresh, residual=residual,
                parity=parity,
            ))
        run_reference(model, x, pruned_blocks={data.draw(st.integers(0, mc.num_blocks - 1))})
        if mc.total_steps > 1:  # the adjacent-step series needs two steps
            analyze_model(model, x)
    # warmup=0 makes step 0 a boundary and step 1 an intra step, so every
    # helper fires; select_cached needs that second step
    want = {name for _, name in _HELPER_PRECONDITIONS}
    assert called == (want if mc.total_steps > 1 else want - {"select_cached"})


def _pick_steps(rcfg, total_steps):
    """Steps at which corgi_plus picks salient sets: its first boundary, or
    every boundary with refresh_saliency."""
    if rcfg.policy != PolicyKind.CORGI_PLUS:
        return []
    boundaries = [
        s for s, role in enumerate(plan_steps(total_steps, rcfg.warmup, rcfg.interval))
        if role.kind == "boundary"
    ]
    return boundaries if rcfg.refresh_saliency else boundaries[:1]


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(tiny_setups())
def test_cross_maps_are_formed_only_where_a_pick_reads_them(setup):
    # every full block's call is logged with the step it ran at (the number
    # of denoising updates before it) and whether it formed a cross map;
    # every cached block's output is logged too, and none carries a map
    model, x = setup
    mc = model.config
    formed = []
    cached_maps = []
    steps = [0]

    def spy_forward(*args, **kwargs):
        outs = real_forward(*args, **kwargs)
        formed.append((steps[0], outs.cross_map is not None))
        return outs

    def spy_cached(real):
        def cached(*args):
            outs = real(*args)
            cached_maps.append(outs.cross_map)
            return outs

        return cached

    def spy_denoise(*args):
        steps[0] += 1
        return real_denoise(*args)

    real_forward, real_denoise = corgi.model.block_forward, corgi.model.denoise_step_mean
    with pytest.MonkeyPatch.context() as mp:
        for module in (corgi.model, corgi.runtime):
            mp.setattr(module, "block_forward", spy_forward)
            mp.setattr(module, "denoise_step_mean", spy_denoise)
        for name in ("execute_block_cached", "execute_block_corgi_plus"):
            mp.setattr(corgi.runtime, name, spy_cached(getattr(corgi.runtime, name)))
        for policy, warmup, refresh in itertools.product(PolicyKind, (None, 0), (False, True)):
            formed.clear()
            cached_maps.clear()
            steps[0] = 0
            cfg = CorgiConfig(policy=policy, warmup=warmup, refresh_saliency=refresh)
            trace = run_with_policy(model, x, None, cfg)
            picks = _pick_steps(cfg.resolved(mc.total_steps, mc.num_blocks, mc.text_tokens), mc.total_steps)
            assert sorted({s for s, made in formed if made}) == picks
            # a pick step computes every block in full, and each forms its map
            assert sum(made for _, made in formed) == len(picks) * mc.num_blocks
            assert sorted({e["step"] for e in trace.saliency or ()}) == picks
            assert len(cached_maps) == sum(len(r.cached) for r in trace.steps)
            assert all(m is None for m in cached_maps)
        formed.clear()
        run_reference(model, x)
        run_reference(model, x, pruned_blocks={0})
        if mc.total_steps > 1:
            analyze_model(model, x)
        assert formed and not any(made for _, made in formed)


class _RecordingSchedule:
    """A schedule behind a proxy that logs every member read from it, and
    each plan and observe call with its step."""

    def __init__(self, inner, log):
        self._inner, self._log = inner, log

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if name not in ("plan", "observe"):
            self._log.append((name,))
            return value

        def call(step, *args):
            self._log.append((name, step))
            return value(step, *args)

        return call


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(tiny_setups())
def test_the_engine_asks_a_schedule_one_plan_and_one_observe_per_step(setup):
    model, x = setup
    log = []
    real = corgi.runtime.make_schedule
    loop = [(name, s) for s in range(model.config.total_steps) for name in ("plan", "observe")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corgi.runtime, "make_schedule", lambda *a: _RecordingSchedule(real(*a), log))
        for policy, warmup, refresh in itertools.product(PolicyKind, (None, 0), (False, True)):
            log.clear()
            run_with_policy(model, x, None, CorgiConfig(
                policy=policy, warmup=warmup, refresh_saliency=refresh,
            ))
            assert log[: len(loop)] == loop
            # after the loop, only the records the trace takes
            assert sorted(log[len(loop) :]) == [("contributions",), ("saliency",)]


@st.composite
def row_subset_products(draw):
    """Operands of a random shape plus a sorted subset of a's rows."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 64)))
    k, m = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    rng = SeededRng(draw(st.integers(min_value=0, max_value=2**64 - 1)))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return (
        rng.standard_normal(n, k),
        rng.standard_normal(k, m),
        rng.standard_normal(m, k),
        np.array(sorted(rows), dtype=np.intp),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(row_subset_products())
@example((np.ones((1, 3)), np.ones((3, 2)), np.ones((2, 3)), np.array([0])))
@example((
    SeededRng(1).standard_normal(8, 33), np.ones((33, 2)), np.ones((2, 33)), np.array([0, 5]),
))
def test_row_subset_products_are_bit_equal_to_rows_of_the_full_product(operands):
    # partial attention computes only the salient rows and merges them into
    # rows of a full computation, so the kernels must not depend on n; a @ a.T
    # is checked too, because numpy runs syrk, not gemm, on one matrix times
    # its own transpose
    a, b, c, rows = operands
    assert np.array_equal(matmul(a[rows], b), matmul(a, b)[rows])
    assert np.array_equal(matmul_nt(a[rows], c), matmul_nt(a, c)[rows])
    assert np.array_equal(matmul_nt(a[rows], a), matmul_nt(a, a)[rows])


def _padded_product(a, b):
    """a @ b as a stack of (8, k) @ (k, m) gemms on a fresh zero-padded copy
    of a, tile by tile: what _row_tiled computes when it copies a."""
    *lead, n, k = a.shape
    tiles = np.zeros((*lead, n + -n % 8, k))
    tiles[..., :n, :] = a
    out = np.empty((*lead, tiles.shape[-2], b.shape[-1]))
    for i in range(0, tiles.shape[-2], 8):
        out[..., i : i + 8, :] = np.matmul(tiles[..., i : i + 8, :], b)
    return out[..., :n, :]


@st.composite
def aligned_products(draw):
    """An operand a with a multiple of 8 rows and optional batch axes, laid
    out as a fresh array, as a C-contiguous view into a larger one, as a
    non-contiguous head view (heads x n x dh out of an n x (heads * dh)
    projection), or as sharing memory with b (b = a's own transpose); b is
    fresh, or a view of a pre-built weight stack as a block's qkv is."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n, k, m = 8 * draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = SeededRng(draw(st.integers(min_value=0, max_value=2**64 - 1)))
    layout = draw(st.sampled_from(["fresh", "view", "heads", "shared"]))
    batch = math.prod(lead)
    if layout == "shared":
        a = rng.standard_normal(batch * n, k).reshape(*lead, n, k)
        return a, a.swapaxes(-1, -2)
    if layout == "heads":
        heads = draw(st.integers(2, 4))
        a = rng.standard_normal(n, heads * k).reshape(n, heads, k).transpose(1, 0, 2)
        lead = (heads,)
    else:
        big = rng.standard_normal(batch * (n + 16), k).reshape(*lead, n + 16, k)
        a = big[..., 8 : 8 + n, :] if layout == "view" and not lead else np.ascontiguousarray(big[..., :n, :])
    b_lead = lead if draw(st.booleans()) else ()
    if draw(st.booleans()):  # trailing items of a stack, as the partial path's K/V weights
        stack = rng.standard_normal((math.prod(b_lead) + 1) * k, m).reshape(-1, k, m)
        return a, stack[1:].reshape(*b_lead, k, m)
    return a, rng.standard_normal(math.prod(b_lead) * k, m).reshape(*b_lead, k, m)


# 8 x 33 times its own transpose: numpy runs syrk on that, whose bits differ
# from gemm's under OpenBLAS's SkylakeX kernel
_SYRK_A = SeededRng(1).standard_normal(8, 33)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(aligned_products())
@example((np.ones((8, 3)), np.ones((3, 2))))
@example((np.arange(48.0).reshape(8, 2, 3).transpose(1, 0, 2), np.ones((2, 3, 4))))
@example((_SYRK_A, _SYRK_A.T))
def test_uncopied_tiles_are_bit_equal_to_padded_tiles(operands):
    # _row_tiled hands an a with a multiple of 8 rows to the gemm without
    # padding: in place when it is C-contiguous, else after one plain copy
    # (a head view); that must give the padded copy's bits, and an a that
    # shares b's memory must still be padded (numpy would run syrk on it)
    a, b = operands
    assert a.shape[-2] % 8 == 0
    assert np.array_equal(_row_tiled(a, b), _padded_product(a, b))


@st.composite
def stacked_projections(draw):
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 80)))
    d = draw(st.integers(1, 48))
    rng = SeededRng(draw(st.integers(min_value=0, max_value=2**64 - 1)))
    return rng.standard_normal(n, d), [rng.standard_normal(d, d) for _ in range(3)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stacked_projections())
@example((SeededRng(2).standard_normal(1, 21), [SeededRng(i).standard_normal(21, 21) for i in range(3)]))
def test_stacked_projections_are_bit_equal_to_lone_products(operands):
    # attention projects Q, K and V in one call with the weights stacked as
    # batch items, so each item must be bit-equal to the product with that
    # weight alone; the example is a width (21) at which the column blocks of
    # a fused x @ [wq|wk|wv] are not, under OpenBLAS's SkylakeX kernel
    x, ws = operands
    alone = [matmul(x, w) for w in ws]
    assert all(np.array_equal(p, q) for p, q in zip(matmul(x, np.stack(ws)), alone))
    assert all(np.array_equal(p, q) for p, q in zip(matmul(x, np.stack(ws[1:])), alone[1:]))


def _per_head_attention(block, h, rows):
    """Straight-line attention, one head at a time with 2-D products:
    (attn_rows, probs) as attention_rows must return them."""
    x = _layernorm(h, block.attn_gain, block.attn_bias)
    q = matmul(x if rows is None else x[rows], block.qkv[0])
    k = matmul(x, block.qkv[1])
    v = matmul(x, block.qkv[2])
    dh = h.shape[1] // block.num_heads
    outs, probs = [], []
    for i in range(block.num_heads):
        sl = slice(i * dh, (i + 1) * dh)
        logits = matmul_nt(q[:, sl], k[:, sl])
        logits *= 1.0 / math.sqrt(dh)
        probs.append(softmax_rows(logits))
        outs.append(matmul(probs[-1], v[:, sl]))
    return matmul(np.concatenate(outs, axis=1), block.wo), np.stack(probs)


@st.composite
def attention_inputs(draw):
    """A block, its hidden state (C-ordered, strided or read-only) and a
    sorted subset of query rows; seq lengths aligned to 8 and not."""
    heads, dh = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    seq = draw(st.one_of(st.sampled_from([8, 16, 24, 32]), st.integers(2, 40)))
    text = draw(st.integers(1, seq - 1))
    model, _ = toy_setup(
        draw(st.integers(min_value=0, max_value=2**64 - 1)), num_blocks=1,
        hidden_dim=heads * dh, num_heads=heads, text_tokens=text, image_tokens=seq - text,
    )
    h = SeededRng(draw(st.integers(0, 2**32))).standard_normal(seq, heads * dh)
    layout = draw(st.sampled_from(["c", "strided", "read_only"]))
    if layout == "strided":
        wide = np.zeros((seq, 2 * heads * dh))
        wide[:, ::2] = h
        h = wide[:, ::2]
    elif layout == "read_only":
        h.setflags(write=False)
    rows = draw(st.lists(st.integers(0, seq - 1), min_size=1, unique=True))
    return model.blocks[0], h, text, np.array(sorted(rows), dtype=np.intp)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(attention_inputs())
@example((toy_setup(5, num_blocks=1, num_heads=8, text_tokens=1, image_tokens=1)[0].blocks[0],
          SeededRng(5).standard_normal(2, 32), 1, np.array([1])))
def test_head_batched_attention_is_bit_equal_to_a_per_head_loop(inputs):
    # the last example has one image and one text token at 8 heads: a cross
    # map of one cell, whose head sum np.add.reduce would order pairwise
    block, h, text, rows = inputs
    out, probs = attention_rows(block, h)
    want_out, want_probs = _per_head_attention(block, h, None)
    assert np.array_equal(out, want_out) and np.array_equal(probs, want_probs)
    part, part_probs = attention_rows(block, h, rows)
    want_part, want_part_probs = _per_head_attention(block, h, rows)
    assert np.array_equal(part, want_part) and np.array_equal(part_probs, want_part_probs)
    assert np.array_equal(part, out[rows])
    joint = 0
    for p in want_probs:
        joint = joint + p
    cross = (joint / block.num_heads)[text:, :text]
    assert np.array_equal(block_forward(block, h, text).cross_map, cross)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(attention_inputs())
def test_block_forward_without_the_cross_map_is_bit_equal(inputs):
    block, h, text, _ = inputs
    with_map = block_forward(block, h, text)
    bare = block_forward(block, h, text, with_cross_map=False)
    assert with_map.cross_map is not None and bare.cross_map is None
    for name in ("attn_out", "ffn_out", "block_out"):
        assert np.array_equal(getattr(bare, name), getattr(with_map, name)), name


# Textbook forms of the hot-path helpers, as np.mean/np.var/np.max/np.sum
# formulas; the helpers spell the same reductions as direct ufunc calls and
# must agree with these bit for bit.
def _textbook_layernorm(x, gain, bias):
    mu = np.mean(x, axis=1, keepdims=True)
    var = np.var(x, axis=1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-6) * gain + bias


def _textbook_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * (x * x * x))))


def _textbook_softmax(a):
    e = np.exp(a - np.max(a, axis=1, keepdims=True))
    return e / np.sum(e, axis=1, keepdims=True)


def _textbook_kmeans(values):
    order = np.argsort(values, kind="stable")
    sv = values[order]

    def split_sse(k):
        low, high = sv[:k], sv[k:]
        return float(np.sum((low - low.mean()) ** 2) + np.sum((high - high.mean()) ** 2))

    best_k, best_sse = sv.size - 1, np.inf
    if sv[0] != sv[-1]:
        best_k = 1
        for k in range(1, sv.size):
            sse = split_sse(k)
            if sse <= best_sse:
                best_k, best_sse = k, sse
    return KMeansResult(high_indices=tuple(sorted(int(i) for i in order[best_k:])))


def _same_bits(a, b):
    # stricter than np.array_equal on the values: -0.0 and NaN payloads count
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ordinary, tiny (subnormals included) and huge magnitudes up to the largest
# finite float, mixed in one array
_VALUES = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(-1e-300, 1e-300),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def helper_operands(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    return (
        draw(arrays(np.float64, (rows, cols), elements=_VALUES)),
        draw(arrays(np.float64, (cols,), elements=_VALUES)),
        draw(arrays(np.float64, (cols,), elements=_VALUES)),
        draw(arrays(np.float64, draw(st.integers(2, 24)), elements=_VALUES)),
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(helper_operands())
@example((np.ones((1, 1)), np.ones(1), np.zeros(1), np.array([0.5, 0.5])))
def test_hot_path_helpers_are_bit_equal_to_their_textbook_formulas(operands):
    x, gain, bias, column = operands
    with np.errstate(all="ignore"):  # huge inputs overflow alike on both sides
        assert _same_bits(_layernorm(x, gain, bias), _textbook_layernorm(x, gain, bias))
        assert _same_bits(_gelu(x), _textbook_gelu(x))
        assert _same_bits(softmax_rows(x), _textbook_softmax(x))
        y = x.copy()
        assert _same_bits(softmax_rows(y, out=y), _textbook_softmax(x))
        assert kmeans_1d_two(column) == _textbook_kmeans(column)


def _scalar_cosine(a, b):
    # the scalar cosine of one row pair, the reference the batched
    # analysis._row_cosines must match bit for bit
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if np.array_equal(a, b):
        return 1.0
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


_ROW_EDITS = ("same", "zero_a", "zero_b", "both_zero", "negated")


def _lay_out(x, layout):
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "strided":  # every other column of a wider array
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]
    return x


@st.composite
def row_pairs(draw):
    n, d = draw(st.integers(1, 70)), draw(st.integers(1, 130))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**64 - 1)))
    # each row gets its own magnitude between 1e-150 and 1e150
    a, b = rng.standard_normal((2, n, d)) * 10.0 ** rng.uniform(-150.0, 150.0, (2, n, 1))
    for row, edit in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(_ROW_EDITS)))):
        if edit == "same":
            b[row] = a[row]
        elif edit == "negated":
            b[row] = -a[row]
        if edit in ("zero_a", "both_zero"):
            a[row] = 0.0
        if edit in ("zero_b", "both_zero"):
            b[row] = 0.0
    layouts = st.sampled_from(["c", "fortran", "strided"])
    return _lay_out(a, draw(layouts)), _lay_out(b, draw(layouts))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(row_pairs())
@example((np.zeros((2, 3)), np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])))
@example((np.array([[1.0, -2.0], [3.0, 4.0]]), np.array([[-1.0, 2.0], [3.0, 4.0]])))
def test_row_cosines_are_bit_equal_to_the_scalar_formula(pair):
    # matmul runs each (1, d) @ (d, 1) product of a stack through the same
    # BLAS ddot as np.dot and np.linalg.norm on a unit-stride vector, so the
    # batched cosines must not move a bit; strided and Fortran-ordered inputs
    # check that the helper, like the scalar form, sums unit-stride copies
    a, b = pair
    got = _row_cosines(a, b)
    with np.errstate(all="ignore"):  # tiny norms underflow alike on both sides
        want = np.array([_scalar_cosine(p, q) for p, q in zip(a, b)])
    assert _same_bits(got, want)
