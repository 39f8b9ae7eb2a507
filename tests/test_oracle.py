"""Whole cached runs against a straight-line oracle.

:func:`reference_oracle` is the full-compute run written out one step and
one block at a time, with the identity in place of each pruned block.
:func:`oracle_run` re-derives each of the six policies from its definition,
one step and one block at a time. It is built from the block kernels
(``block_forward``, ``partial_attention``), the model helpers, ``cka``,
``identify_salient``, the seeded RNG and ``CorgiConfig.resolved``, and
shares nothing with ``run_with_policy`` or the schedule objects. A fault in
the engine's bookkeeping (which blocks it caches, which residual it forms,
which rows it refreshes, when it re-ranks or re-picks) therefore shows up
as a difference in bits, a step mode or a pick.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corgi import (
    CorgiConfig,
    PolicyKind,
    SeededRng,
    Trace,
    block_forward,
    cka,
    derive_seed,
    identify_salient,
    partial_attention,
    run_reference,
    run_with_policy,
)
from corgi.model import denoise_step_mean, initial_hidden, predict_noise

from helpers import toy_setup


def _by_contribution(older, newer):
    """Scores 1 - cka(newer_b, older_b) and the blocks in ascending score
    order, ties to the lower index."""
    scores = [1.0 - cka(n, o) for o, n in zip(older, newer)]
    return scores, sorted(range(len(scores)), key=lambda b: (scores[b], b))


def reference_oracle(model, x, pruned):
    """The noise predictions and latents of the full-compute run whose
    blocks in ``pruned`` pass their hidden state through unchanged."""
    mc = model.config
    noise_preds, latents = [], []
    for s in range(mc.total_steps):
        h = initial_hidden(model, x, s, model.text_embed)
        for b, block in enumerate(model.blocks):
            if b not in pruned:
                h = block_forward(block, h, mc.text_tokens, with_cross_map=False).block_out
        eps = predict_noise(model, h)
        x = denoise_step_mean(x, eps, mc.total_steps - s, model.schedule)
        noise_preds.append(eps)
        latents.append(x)
    return noise_preds, latents


def oracle_run(model, x, config):
    """The run ``run_with_policy(model, x, None, config)`` must give: its
    noise predictions, final latent, step modes, boundary contributions and
    salient picks, as plain lists."""
    mc = model.config
    num_steps, num_blocks, text = mc.total_steps, mc.num_blocks, mc.text_tokens
    c = config.resolved(num_steps, num_blocks, text)
    policy, warmup = c.policy, c.warmup
    interval = policy in (PolicyKind.CORGI, PolicyKind.CORGI_PLUS)
    rng = SeededRng(derive_seed(c.seed, "policy-random"))
    half = num_blocks // 2

    cache = [None] * num_blocks  # each block's last full BlockOutputs
    history = []  # every step's block outputs
    ranking = list(range(num_blocks))
    last_boundary = None
    picks = None  # per block, the salient set in force
    out = dict(noise_preds=[], modes=[], contributions=[], saliency=[])

    for s in range(num_steps):
        if policy == PolicyKind.NONE:
            role, cached = "step", set()
        elif s < warmup:
            role, cached = "warmup", set()
        elif interval:
            j = (s - warmup) % c.interval
            role = f"intra:{j}" if j else "boundary"
            # the nested prefix min(gamma + (j - 1) delta, B) of the ranking
            cached = set(ranking[: min(c.gamma + (j - 1) * c.delta, num_blocks)]) if j else set()
        else:
            role = "step"
            if policy == PolicyKind.PARITY:
                cached = {b for b in range(num_blocks) if b % 2 == (c.parity == "odd")}
            elif policy == PolicyKind.RANDOM:
                keys = rng.standard_normal(1, num_blocks)[0]
                cached = set(sorted(range(num_blocks), key=lambda b: (keys[b], b))[:half])
            else:  # per_step_naive: ranked between the two previous steps
                order = _by_contribution(*history[-2:])[1] if s >= 2 else range(num_blocks)
                cached = set(order[:half])

        h = initial_hidden(model, x, s, model.text_embed)
        outputs, modes = [], []
        for b, block in enumerate(model.blocks):
            entry = cache[b]
            if b not in cached or entry is None:  # a never-filled entry computes
                entry = cache[b] = block_forward(block, h, text)
                h, mode = entry.block_out, "full"
            elif policy == PolicyKind.CORGI_PLUS:
                ss = picks[b]
                attn = entry.attn_out.copy()
                attn[list(ss.text_indices) + [text + v for v in ss.image_indices]] = (
                    partial_attention(block, h, ss, text)
                )
                h, mode = h + attn + entry.ffn_out, "cached_partial"
            elif c.residual == "reuse":
                h, mode = entry.block_out, "cached"
            else:
                h, mode = h + entry.attn_out + entry.ffn_out, "cached"
            outputs.append(h)
            modes.append(mode)

        eps = predict_noise(model, h)
        x = denoise_step_mean(x, eps, num_steps - s, model.schedule)
        history.append(outputs)
        out["noise_preds"].append(eps)
        out["modes"].append(tuple(modes))

        if role == "boundary":
            # against the previous boundary, else the last warm-up step,
            # else (no warm-up) itself
            if last_boundary is None:
                last_boundary = history[warmup - 1] if warmup else outputs
            scores, ranking = _by_contribution(last_boundary, outputs)
            out["contributions"].append(scores)
            last_boundary = outputs
            if policy == PolicyKind.CORGI_PLUS and (picks is None or c.refresh_saliency):
                picks = [identify_salient(e.cross_map, c.top_c) for e in cache]
                out["saliency"] += [
                    {"text": list(ss.text_indices), "image": list(ss.image_indices)}
                    for ss in picks
                ]
    out["final_output"] = x
    return out


@st.composite
def models(draw):
    """A small random model and its initial noise."""
    dim = draw(st.sampled_from([4, 8]))
    return toy_setup(
        draw(st.integers(0, 2**32 - 1)),
        num_blocks=draw(st.integers(1, 5)),
        total_steps=draw(st.integers(1, 8)),
        hidden_dim=dim,
        ffn_dim=draw(st.sampled_from([4, 8])),
        num_heads=draw(st.sampled_from([h for h in (1, 2, 4) if dim % h == 0])),
        text_tokens=draw(st.integers(1, 4)),
        image_tokens=draw(st.integers(1, 5)),
    )


@st.composite
def runs(draw, policy):
    """A small random model, its initial noise and a config of the policy."""
    model, x = draw(models())
    mc = model.config
    config = CorgiConfig(
        policy=policy,
        warmup=draw(st.none() | st.integers(0, mc.total_steps)),
        interval=draw(st.integers(1, 4)),
        gamma=draw(st.none() | st.integers(0, mc.num_blocks)),
        delta=draw(st.integers(0, 2)),
        top_c=draw(st.none() | st.integers(1, mc.text_tokens + 1)),
        seed=draw(st.integers(0, 2**32 - 1)),
        residual=draw(st.sampled_from(["compute", "reuse"])),
        refresh_saliency=draw(st.booleans()),
        parity=draw(st.sampled_from(["even", "odd"])),
    )
    return model, x, config


@pytest.mark.parametrize("policy", list(PolicyKind))
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_cached_run_equals_the_straight_line_oracle(policy, data):
    model, x, config = data.draw(runs(policy))
    trace = run_with_policy(model, x, None, config)
    want = oracle_run(model, x, config)
    assert [r.modes for r in trace.steps] == want["modes"]
    assert trace.contributions == want["contributions"]
    assert (trace.saliency or []) == want["saliency"]
    pairs = zip(trace.noise_preds, want["noise_preds"], strict=True)
    assert all(np.array_equal(p, q) for p, q in pairs)
    assert np.array_equal(trace.final_output, want["final_output"])
    assert Trace.from_json(trace.to_json()) == trace


@st.composite
def pruned_runs(draw):
    """A small random model, its initial noise and a set of blocks to prune:
    none, one, all of them, or any subset."""
    model, x = draw(models())
    index = st.integers(0, model.config.num_blocks - 1)
    pruned = draw(
        st.just(frozenset())
        | index.map(lambda b: frozenset({b}))
        | st.just(frozenset(range(model.config.num_blocks)))
        | st.frozensets(index)
    )
    return model, x, pruned


def _bit_equal(got, want):
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pruned_runs())
def test_the_reference_and_the_none_run_equal_the_straight_line_loop(args):
    model, x, pruned = args
    noise_preds, latents = reference_oracle(model, x, frozenset())
    ref = run_reference(model, x)
    assert _bit_equal(ref.noise_preds, noise_preds) and _bit_equal(ref.latents, latents)
    trace = run_with_policy(model, x, None, CorgiConfig(policy=PolicyKind.NONE))
    assert _bit_equal(trace.noise_preds, noise_preds)
    assert np.array_equal(trace.final_output, latents[-1])

    noise_preds, latents = reference_oracle(model, x, pruned)
    ref = run_reference(model, x, pruned_blocks=pruned)
    assert _bit_equal(ref.noise_preds, noise_preds) and _bit_equal(ref.latents, latents)
