"""Deterministic dense-matrix kernels and a counter-based seeded RNG.

Everything downstream (weights, initial noise, schedules, policies) is built
on these primitives, so two properties are non-negotiable here:

* all arithmetic is 64-bit float, and
* random streams are pure functions of (seed, counter).

Every matrix product of the model and the engine goes through :func:`matmul`
/ :func:`matmul_nt` instead of ``@``, because the partial-attention engine
needs row stability: ``matmul(A[rows], B)`` must be bit-equal to
``matmul(A, B)[rows]``. Plain ``@`` does not give that. BLAS gemm picks its
kernel, blocking and accumulation order from the operand shape, so the same
row can come out with different low-order bits when the row count changes.
Only the similarity in :mod:`corgi.contribution` multiplies its Gram
matrices with plain ``@``: they need no row stability, and neither the
MAC-counting test nor the cost model counts them.

Both functions run one fixed-tile gemm (:func:`_row_tiled`): the rows of
``A`` are zero-padded to a multiple of ``_TILE`` and multiplied as a stack of
``(_TILE, k)`` tiles against ``B``. Every tile is the same gemm shape with the
same ``B``, so each row is computed the same way whatever the row count and
wherever the row sits, and the padding rows (zeros) touch no real row. The
restricted and the full product therefore agree bit for bit, at close to
plain-gemm speed. This rests on the gemm computing every row of a tile in the
same order whatever its position in the tile. OpenBLAS does, at one thread
and at two; ``tests/test_properties.py`` checks the row property over random
shapes and row subsets, and ``tests/test_cli.py`` checks that a trace does
not depend on the BLAS thread count.

Leading axes of ``A`` and ``B`` are batch axes, broadcast as by
``np.matmul``: the attention projects Q, K and V with the three weights
stacked as one ``B``, and runs every head's scores and apply as one call.
Each batch item is tiled on its own, so an item comes out bit-equal to the
2-D product of its operands. That holds only while numpy hands every
``(_TILE, k) @ (k, m)`` item to BLAS, which it does when the item is
BLAS-compatible: unit stride along one axis of each operand, and the other
stride at least that axis's length. Otherwise numpy sums the item in its own
loop, in a different order. The tiles are always C-contiguous, and the
weights and the head views of a projection (a column slice of a
C-contiguous array) meet that rule.

An ``A`` with a multiple of ``_TILE`` rows that shares no memory with
``B`` is not padded: its rows already are the tiles. A C-contiguous one is
reshaped to tiles in place, a non-contiguous one (a head view of a
projection) is made contiguous with one plain copy, and the product comes
back with no trailing slice. Every other ``A`` is copied into a zero-padded
buffer. The tiles hold the same values either way, so every path gives the
same bits. The memory check is the syrk guard. Given ``matmul_nt(A, A)``,
numpy would see one matrix times its own transpose and run syrk, which
computes the rows of a tile unlike gemm; the padded copy makes the two
operands distinct.

The hot paths here and in :mod:`corgi.model`, :mod:`corgi.saliency` and
:mod:`corgi.contribution` spell their reductions as ``np.add.reduce`` /
``np.maximum.reduce`` calls. ``np.sum``, ``np.max``, ``np.mean`` and
``np.var`` run the very same reductions underneath (``np.mean`` then divides
by the count, ``np.var`` centres on that mean, squares and sums again), so
the results are bit-equal; only the Python wrappers, which cost more than
the arithmetic at this lab's small shapes, are skipped. The same code works
in place to save temporaries, under one rule: a function writes only to
arrays it allocated itself (or got fresh from :func:`matmul`), never to an
argument, because callers pass cache entries' arrays back in as inputs.

The kernels here (:func:`matmul`, :func:`matmul_nt`, :func:`softmax_rows`)
do not validate their inputs, and neither do the per-block steps built on
them in :mod:`corgi.model` and :mod:`corgi.runtime`, nor the one denoising
loop (:func:`corgi.runtime.denoise`), nor the non-exported helpers that the
loop, the schedules and :func:`corgi.model.build_model` call
(:func:`normal_stream` here, and ``build_schedule``, ``denoise_step_mean``,
``select_cached``, ``baseline_directives``, ``contribution_scores``,
``rank_ascending`` and ``build_mask``). Each helper's docstring states the
precondition its callers guarantee.
:func:`corgi.runtime.run_with_policy` and :func:`corgi.model.run_reference`
check a run's config and arrays once, at entry, ``build_model`` checks the
model's dimensions, and every other value of the run is computed from
those; a check per call would repeat that work once per head, block, step
or pick. Called directly on a non-finite input, a kernel returns non-finite
entries, as numpy would.

Seven checks still run inside a run, all in exports whose errors tests
pin. At every block, :func:`corgi.model.block_forward` checks its arrays,
and at every refreshed block :func:`corgi.runtime.masked_merge` checks its
rows. At every pick, :func:`corgi.saliency.identify_salient` checks its
cross map, :func:`corgi.saliency.top_c_text` checks ``c``,
:func:`corgi.saliency.kmeans_1d_two` re-checks each selected column (its
size and finiteness), and each :class:`corgi.saliency.SalientTokenSet`
checks every index it holds (integers, ascending, distinct, >= 0) when it is
made. ``block_forward``, ``masked_merge``, ``identify_salient`` and
``kmeans_1d_two`` are also spans the benchmark expects to fire, so the
engine cannot call an unchecked private core in their place until the
benchmark names it (ROADMAP items 1 and 6). The seventh is two comparisons
at every refreshed block and every mask, one at each end of a salient set:
:func:`corgi.saliency.salient_rows` rejects a text index at or past the
text tokens, which would name an image row, and an image index at or past
the image tokens, which would name a row past the sequence (each sorted
tuple's last entry). The schedules score contributions
through ``contribution_scores``, whose unchecked core reuses each
snapshot's Gram norms; :func:`corgi.contribution.cka` keeps its checks as
the export. The per-step finiteness check on the noise prediction is the
engine's own guard, not an input check, and stays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Matrix = np.ndarray

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SEED_SALT = 0x8A5CD789635D2DFF
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> _SH30)) * _M1
    z = (z ^ (z >> _SH27)) * _M2
    return z ^ (z >> _SH31)


def _stream_base(seed: int) -> np.uint64:
    word = np.array([(seed ^ _SEED_SALT) & _MASK64], dtype=np.uint64)
    return _mix64(word)[0]


def derive_seed(seed: int, tag: str) -> int:
    """Derive an independent 64-bit sub-seed from (seed, tag).

    Distinct tags give statistically independent streams for the same user
    seed (weights vs. initial noise vs. policy sampling).
    """
    h = 0xCBF29CE484222325
    for byte in tag.encode("utf-8"):  # FNV-1a fold of the tag
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    word = np.array([(seed ^ h) & _MASK64], dtype=np.uint64)
    return int(_mix64(word)[0])


def normal_stream(seed: int, counter: int, n: int) -> np.ndarray:
    """n standard-normal draws as a pure function of (seed, counter).

    Counter words counter..counter+2*ceil(n/2)-1 are hashed to uniforms in
    (0, 1] and passed through the Box-Muller transform. The transform is
    fixed; the stream is bit-reproducible for a given (seed, counter).
    Unchecked: n >= 1, because :meth:`SeededRng.standard_normal`, the one
    caller, rejects an empty shape first.
    """
    pairs = (n + 1) // 2
    base = _stream_base(seed)
    idx = np.arange(counter, counter + 2 * pairs, dtype=np.uint64)
    words = _mix64(base + (idx + np.uint64(1)) * _GAMMA)
    u = ((words >> _SH11).astype(np.float64) + 1.0) * 2.0**-53  # (0, 1]
    u1, u2 = u[:pairs], u[pairs:]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


@dataclass
class SeededRng:
    """Counter-based random stream.

    Output is a pure function of (seed, counter); drawing advances the
    counter by the exact number of words consumed, so two instances with
    equal state produce equal streams on any platform.
    """

    seed: int
    counter: int = 0

    def standard_normal(self, rows: int, cols: int) -> Matrix:
        if rows < 1 or cols < 1:
            raise ValueError("empty shape")
        n = rows * cols
        out = normal_stream(self.seed, self.counter, n)
        self.counter += 2 * ((n + 1) // 2)
        return out.reshape(rows, cols)


def ensure_matrix(m, name: str = "matrix") -> Matrix:
    """Coerce to a nonempty finite 2-D float64 array or raise ValueError."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def check_int(value, name: str) -> None:
    """Raise ValueError naming ``name`` unless value is a Python int.

    Bools, floats, strings and numpy integers are refused alike: config
    values and seeds are echoed into trace JSON, which takes no numpy scalar.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


_TILE = 8


def _row_tiled(a: Matrix, b: Matrix) -> Matrix:
    """a @ b as a stack of fixed (_TILE, k) @ (k, m) gemms over any leading
    batch axes: an aligned a goes to the gemm as it is or after one plain
    copy, any other a is zero-padded (see the module docstring)."""
    shape = a.shape
    n, k = shape[-2:]
    if b.ndim > 2:
        b = b[..., None, :, :]  # one b per batch item, shared by its tiles
    if n % _TILE == 0 and not np.may_share_memory(a, b):
        if not a.flags.c_contiguous:
            a = np.ascontiguousarray(a)
        out = np.matmul(a.reshape(*shape[:-2], -1, _TILE, k), b)
        return out.reshape(*out.shape[:-3], n, out.shape[-1])
    tiles = np.zeros((*shape[:-2], n + -n % _TILE, k))
    tiles[..., :n, :] = a
    out = np.matmul(tiles.reshape(*shape[:-2], -1, _TILE, k), b)
    return out.reshape(*out.shape[:-3], -1, out.shape[-1])[..., :n, :]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b over the last two axes, row-stable (see module docstring)."""
    return _row_tiled(a, b)


def matmul_nt(a: Matrix, b: Matrix) -> Matrix:
    """a @ b.T over the last two axes, row-stable; used for attention scores."""
    return _row_tiled(a, b.swapaxes(-1, -2))


def softmax_rows(m: Matrix, out: Matrix | None = None) -> Matrix:
    """Row-wise exp-normalization with max subtraction for stability.

    ``m`` must be a 2-D float64 array; it is not checked (see the module
    docstring), and a non-finite entry gives a non-finite row. The result
    goes to ``out`` when given (``m`` itself, for a caller that owns it).
    """
    e = np.subtract(m, np.maximum.reduce(m, axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def frobenius_norm(m: Matrix) -> float:
    """Square root of the sum of squared entries; ValueError if that sum is
    not finite (a non-finite entry, or squares that overflow)."""
    with np.errstate(over="ignore"):
        total = float(np.add.reduce(m * m, axis=None))
    if not math.isfinite(total):
        raise ValueError("norm input contains non-finite entries")
    return math.sqrt(total)
