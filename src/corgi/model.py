"""Toy multi-modal diffusion transformer and its deterministic denoising loop.

The model is a stack of transformer blocks running joint self-attention over a
concatenated token sequence (text tokens at rows [0, text_tokens), image
tokens at rows [text_tokens, text_tokens + image_tokens)) with the additive
decomposition

    block_out = h + attn_out + ffn_out,

pre-normalization living *inside* the ATTN/FFN terms so the three addends are
exactly the quantities the caching engine stores and reuses. A full-compute
run (:func:`run_reference`) is the oracle every cached run is compared to.

:func:`attention_rows` returns each head's attention probabilities, as one
heads x rows x seq array. The head-averaged map exists only as the
image-query x text-key slice that :func:`block_forward` keeps as
``cross_map``, the one part of it that CorGi+'s salient-token pick reads; the
full L x L average is never formed.

The layernorm, GELU and residual sums are written as one ufunc or
``np.add.reduce`` call per step, in the textbook formula's order, so they
are bit-equal to the ``np.mean``/``np.var`` formulas at a fraction of the
per-call cost (see :mod:`corgi.numerics`). They work in place only on arrays
they allocated themselves: under ``residual=reuse`` the hidden state handed
to a block is a cache entry's ``block_out``, which must not change.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    Matrix,
    SeededRng,
    derive_seed,
    ensure_matrix,
    matmul,
    matmul_nt,
    softmax_rows,
)

_NORM_EPS = 1e-6
_GELU_SCALE = np.sqrt(2.0 / np.pi)


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the toy DiT and its denoising run."""

    num_blocks: int = 8
    hidden_dim: int = 32
    ffn_dim: int = 64
    num_heads: int = 4
    text_tokens: int = 4
    image_tokens: int = 16
    total_steps: int = 12

    def validate(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        if self.text_tokens < 1:
            raise ValueError("text_tokens must be >= 1")
        if self.image_tokens < 1:
            raise ValueError("image_tokens must be >= 1")
        if self.hidden_dim < 1 or self.ffn_dim < 1 or self.num_heads < 1:
            raise ValueError("hidden_dim, ffn_dim and num_heads must be >= 1")
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError("hidden_dim must be divisible by num_heads")

    @property
    def seq_len(self) -> int:
        return self.text_tokens + self.image_tokens


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise variances beta_t with alpha_t = 1 - beta_t and the
    running product alpha_bar_t (index t-1 holds step t, 1-based)."""

    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    def __len__(self) -> int:
        return len(self.betas)


def build_schedule(total_steps: int, beta_start: float = 1e-4, beta_end: float = 0.02) -> NoiseSchedule:
    """Linear beta schedule over total_steps with exact alpha products."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    betas = np.linspace(beta_start, beta_end, total_steps, dtype=np.float64)
    alphas = 1.0 - betas
    return NoiseSchedule(betas=betas, alphas=alphas, alpha_bars=np.cumprod(alphas))


@dataclass
class Block:
    """Weights of one transformer block; prenorm parameters included."""

    wq: Matrix
    wk: Matrix
    wv: Matrix
    wo: Matrix
    w1: Matrix
    w2: Matrix
    attn_gain: np.ndarray
    attn_bias: np.ndarray
    ffn_gain: np.ndarray
    ffn_bias: np.ndarray
    num_heads: int


@dataclass
class BlockOutputs:
    """Everything one block computation produces.

    block_out = input + attn_out + ffn_out holds exactly for full forwards;
    cross_map is the image-query x text-key submatrix of the head-averaged
    joint-attention map, the only part of that map any caller reads.
    """

    attn_out: Matrix
    ffn_out: Matrix
    block_out: Matrix
    cross_map: Matrix


@dataclass
class Model:
    config: ModelConfig
    seed: int
    blocks: list[Block]
    text_embed: Matrix
    step_bias: Matrix
    eps_head: Matrix
    schedule: NoiseSchedule


def build_model(config: ModelConfig, seed: int) -> Model:
    """Build a toy DiT with all weights drawn from seeded counter streams.

    Weight matrices are standard normal scaled by 1/sqrt(hidden_dim); prenorm
    gains/biases sit at identity plus the same scale of noise; the noise
    schedule is :func:`build_schedule`'s default. Bit-reproducible for a fixed
    (config, seed).
    """
    config.validate()
    d, d_ff, heads = config.hidden_dim, config.ffn_dim, config.num_heads
    scale = 1.0 / np.sqrt(d)

    blocks = []
    for b in range(config.num_blocks):
        rng = SeededRng(derive_seed(seed, f"block{b}"))
        blocks.append(
            Block(
                wq=rng.standard_normal(d, d) * scale,
                wk=rng.standard_normal(d, d) * scale,
                wv=rng.standard_normal(d, d) * scale,
                wo=rng.standard_normal(d, d) * scale,
                w1=rng.standard_normal(d, d_ff) * scale,
                w2=rng.standard_normal(d_ff, d) * scale,
                attn_gain=1.0 + rng.standard_normal(1, d)[0] * scale,
                attn_bias=rng.standard_normal(1, d)[0] * scale,
                ffn_gain=1.0 + rng.standard_normal(1, d)[0] * scale,
                ffn_bias=rng.standard_normal(1, d)[0] * scale,
                num_heads=heads,
            )
        )

    text_rng = SeededRng(derive_seed(seed, "text"))
    bias_rng = SeededRng(derive_seed(seed, "step-bias"))
    head_rng = SeededRng(derive_seed(seed, "eps-head"))
    return Model(
        config=config,
        seed=seed,
        blocks=blocks,
        text_embed=text_rng.standard_normal(config.text_tokens, d),
        step_bias=bias_rng.standard_normal(config.total_steps, d),
        eps_head=head_rng.standard_normal(d, d) * scale,
        schedule=build_schedule(config.total_steps),
    )


def _layernorm(x: Matrix, gain: np.ndarray, bias: np.ndarray) -> Matrix:
    # (x - mean) / sqrt(var + eps) * gain + bias, centring once: np.var
    # would compute the same mean a second time
    d = x.shape[1]
    y = x - np.add.reduce(x, axis=1, keepdims=True) / d
    scale = np.add.reduce(y * y, axis=1, keepdims=True) / d
    scale += _NORM_EPS
    np.sqrt(scale, out=scale)
    y /= scale
    y *= gain
    y += bias
    return y


def _gelu(x: Matrix) -> Matrix:
    # tanh approximation; exact choice is irrelevant, determinism is not.
    # 0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * (x * x * x)))), one
    # operation at a time in that order; the cube is x * x * x because
    # np.power takes about 17x as long.
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_SCALE
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5 * x
    return t


def attention_rows(block: Block, h: Matrix, rows: np.ndarray | None = None) -> tuple[Matrix, Matrix]:
    """ATTN output for the given query rows (all rows when rows is None).

    Keys and values are always projected from the full current hidden state;
    restricting `rows` restricts only the query side. Every product here puts
    the query rows on the left of :func:`matmul`/:func:`matmul_nt`, which
    multiply fixed 8-row tiles, so a row's Q projection, scores, softmax,
    apply and output projection come out the same whichever rows are
    computed with it. The returned rows are therefore bit-equal to the
    corresponding rows of the full computation.

    The projections run as one call with the weights stacked as batch items
    (Q, K and V on the full path, K and V on the restricted one), and all
    heads' scores, softmax and apply as one head-batched call each. A batch
    item is the very gemm a lone product would run, so no bit moves. A fused
    ``x @ [wq|wk|wv]`` would not do: under OpenBLAS's SkylakeX kernel its
    column blocks differ from the lone products in the low bits at every
    hidden_dim from 17 to 64 that is not 0 or 7 mod 8.

    Returns (attn_rows, probs): probs is heads x rows x seq, each head's
    attention probabilities.
    """
    x = _layernorm(h, block.attn_gain, block.attn_bias)
    seq, d = h.shape
    heads = block.num_heads
    dh = d // heads
    if rows is None:
        q, k, v = matmul(x, np.array((block.wq, block.wk, block.wv)))
    else:
        k, v = matmul(x, np.array((block.wk, block.wv)))
        q = matmul(x[rows], block.wq)
    n = q.shape[0]
    # heads x tokens x dh views of the projections
    q = q.reshape(n, heads, dh).transpose(1, 0, 2)
    k = k.reshape(seq, heads, dh).transpose(1, 0, 2)
    v = v.reshape(seq, heads, dh).transpose(1, 0, 2)

    logits = matmul_nt(q, k)
    logits *= 1.0 / math.sqrt(dh)
    # in place: a second heads x n x seq buffer costs more in page faults
    # than the softmax costs in arithmetic
    logits = logits.reshape(heads * n, seq)
    probs = softmax_rows(logits, out=logits).reshape(heads, n, seq)
    head_outs = matmul(probs, v).transpose(1, 0, 2).reshape(n, d)
    return matmul(head_outs, block.wo), probs


def ffn_forward(block: Block, z: Matrix) -> Matrix:
    """FFN term on top of the post-attention state z = h + attn_out."""
    y = _layernorm(z, block.ffn_gain, block.ffn_bias)
    return matmul(_gelu(matmul(y, block.w1)), block.w2)


def block_forward(block: Block, h: Matrix, text_tokens: int) -> BlockOutputs:
    """Full computation of one block on hidden state h ((L_text+L_img) x d).

    Only the shape of h is checked; non-finite rows of h propagate into
    non-finite outputs (a run checks its inputs once, at entry).
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != block.wq.shape[0]:
        raise ValueError(f"hidden state shape {h.shape} does not match block")
    attn_out, probs = attention_rows(block, h)
    # the head average of the image x text slice, summed head by head from 0
    # (np.add.reduce sums a lone cell's heads pairwise) into a fresh array
    cross_map = sum(probs[:, text_tokens:, :text_tokens]) / block.num_heads
    # freed before the FFN allocates: kept alive under the FFN's temporaries,
    # the heads x L x L array made glibc trim and regrow the heap every block
    # (about 10x the page faults of a run_reference at ablate_small's shape)
    del probs
    block_out = h + attn_out  # the post-attention state, then the output
    ffn_out = ffn_forward(block, block_out)
    block_out += ffn_out
    return BlockOutputs(attn_out=attn_out, ffn_out=ffn_out, block_out=block_out, cross_map=cross_map)


def denoise_step_mean(x_t: Matrix, eps: Matrix, t: int, schedule: NoiseSchedule) -> Matrix:
    """Posterior mean of the denoising step (variance term zeroed):

        x_{t-1} = (x_t - (1 - alpha_t)/sqrt(1 - alpha_bar_t) * eps) / sqrt(alpha_t)
    """
    if not 1 <= t <= len(schedule):
        raise ValueError(f"step {t} out of range 1..{len(schedule)}")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x_t.shape != eps.shape:
        raise ValueError("x_t and eps shapes differ")
    alpha = schedule.alphas[t - 1]
    alpha_bar = schedule.alpha_bars[t - 1]
    return (x_t - (1.0 - alpha) / np.sqrt(1.0 - alpha_bar) * eps) / np.sqrt(alpha)


def check_run_inputs(
    model: Model, x_init: Matrix, text_embed: Matrix | None
) -> tuple[Matrix, Matrix | None]:
    """A run's arrays as float64, checked once at its entry point: x_init
    must be a finite image_tokens x hidden_dim latent and text_embed, when
    given, a finite text_tokens x hidden_dim embedding."""
    cfg = model.config

    def check(name: str, m: Matrix, rows: int) -> Matrix:
        a = np.asarray(m, dtype=np.float64)
        if a.shape != (rows, cfg.hidden_dim):
            raise ValueError(f"{name} shape {a.shape} != ({rows}, {cfg.hidden_dim})")
        return ensure_matrix(a, name)

    x = check("x_init", x_init, cfg.image_tokens)
    if text_embed is not None:
        text_embed = check("text_embed", text_embed, cfg.text_tokens)
    return x, text_embed


def initial_hidden(model: Model, x: Matrix, step: int, text_embed: Matrix | None = None) -> Matrix:
    """Joint hidden state for one step: [text; latent] plus the step bias."""
    if text_embed is None:
        text_embed = model.text_embed
    return np.concatenate([text_embed, x], axis=0) + model.step_bias[step]


def predict_noise(model: Model, h_final: Matrix) -> Matrix:
    """Noise prediction: image-token slice projected by the fixed head."""
    return matmul(h_final[model.config.text_tokens :], model.eps_head)


def state_checksum(m: Matrix) -> str:
    """sha256 hex digest of the row-major float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(m, dtype=np.float64).tobytes()).hexdigest()


@dataclass
class ReferenceTrajectory:
    """Full-compute run record: the oracle cached runs are measured against."""

    noise_preds: list[Matrix] = field(default_factory=list)
    latents: list[Matrix] = field(default_factory=list)

    @property
    def final_output(self) -> Matrix:
        return self.latents[-1]


def run_reference(
    model: Model,
    x_init: Matrix,
    text_embed: Matrix | None = None,
    pruned_blocks: frozenset[int] | set[int] = frozenset(),
) -> ReferenceTrajectory:
    """Run the full denoising loop computing every block at every step.

    pruned_blocks replaces the named blocks with the identity (out = h), which
    is the block-ablation probe; the default runs the intact model. The
    arrays are checked here, once (:func:`check_run_inputs`).
    """
    cfg = model.config
    x, text_embed = check_run_inputs(model, x_init, text_embed)
    for b in pruned_blocks:
        if not 0 <= b < cfg.num_blocks:
            raise ValueError(f"pruned block {b} out of range")

    traj = ReferenceTrajectory()
    for step in range(cfg.total_steps):
        h = initial_hidden(model, x, step, text_embed)
        for b, block in enumerate(model.blocks):
            if b not in pruned_blocks:
                h = block_forward(block, h, cfg.text_tokens).block_out
        eps = predict_noise(model, h)
        if not np.isfinite(eps).all():
            raise FloatingPointError(f"non-finite noise prediction at step {step}")
        x = denoise_step_mean(x, eps, cfg.total_steps - step, model.schedule)
        traj.noise_preds.append(eps)
        traj.latents.append(x)
    return traj
