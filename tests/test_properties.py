"""Bit-exactness invariants over random tiny configurations."""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corgi import (
    CorgiConfig,
    PolicyKind,
    SeededRng,
    Trace,
    kmeans_1d_two,
    run_reference,
    run_with_policy,
)
from corgi.analysis import _row_cosines
from corgi.model import _gelu, _layernorm
from corgi.numerics import matmul, matmul_nt, softmax_rows
from corgi.saliency import KMeansResult

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
