"""Bit-exactness invariants over random tiny configurations."""

import math
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
from corgi.model import _gelu, _layernorm, attention_rows, block_forward
from corgi.numerics import _row_tiled, matmul, matmul_nt, softmax_rows
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
    out as a fresh array, as a C-contiguous view into a larger one, or as
    sharing memory with b (b = a's own transpose)."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    n, k, m = 8 * draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = SeededRng(draw(st.integers(min_value=0, max_value=2**64 - 1)))
    layout = draw(st.sampled_from(["fresh", "view", "shared"]))
    batch = math.prod(lead)
    if layout == "shared":
        a = rng.standard_normal(batch * n, k).reshape(*lead, n, k)
        return a, a.swapaxes(-1, -2)
    big = rng.standard_normal(batch * (n + 16), k).reshape(*lead, n + 16, k)
    a = big[..., 8 : 8 + n, :] if layout == "view" and not lead else np.ascontiguousarray(big[..., :n, :])
    b_lead = lead if draw(st.booleans()) else ()
    return a, rng.standard_normal(math.prod(b_lead) * k, m).reshape(*b_lead, k, m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(aligned_products())
@example((np.ones((8, 3)), np.ones((3, 2))))
def test_uncopied_tiles_are_bit_equal_to_padded_tiles(operands):
    # _row_tiled multiplies a's own memory when a is C-contiguous with a
    # multiple of 8 rows; that must give the padded copy's bits, and an a that
    # shares b's memory must still be copied (numpy would run syrk on it)
    a, b = operands
    assert a.flags.c_contiguous and a.shape[-2] % 8 == 0
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
    q = matmul(x if rows is None else x[rows], block.wq)
    k = matmul(x, block.wk)
    v = matmul(x, block.wv)
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
