"""Bit-exactness invariants over random tiny configurations."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corgi import CorgiConfig, PolicyKind, SeededRng, Trace, run_reference, run_with_policy
from corgi.numerics import matmul, matmul_nt

from helpers import bit_identical_to_reference, toy_setup

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def tiny_setups(draw):
    hidden_dim = draw(st.sampled_from([4, 8]))
    model, x = toy_setup(
        draw(st.integers(min_value=0, max_value=2**64 - 1)),
        num_blocks=draw(st.integers(1, 4)),
        total_steps=draw(st.integers(1, 6)),
        hidden_dim=hidden_dim,
        ffn_dim=draw(st.sampled_from([4, 8])),
        num_heads=draw(st.sampled_from([h for h in (1, 2, 4, 8) if hidden_dim % h == 0])),
        text_tokens=draw(st.integers(1, 4)),
        image_tokens=draw(st.integers(1, 4)),
    )
    return model, x


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
