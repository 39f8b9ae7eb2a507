"""Consistency metrics and block-level analysis procedures.

Divergence compares a cached run against the full-compute reference
step-by-step (MSE and cosine over the predicted noise). Block ablation reruns
the model with one block replaced by the identity and maps, per step and per
image token, how far the prediction drifts. The adjacent-step similarity
series quantifies how little the predicted noise moves between consecutive
denoising steps.

Both cosines go through one row-wise helper that is bit-equal to the scalar
formula ``dot(a, b) / (norm(a) * norm(b))`` on each row pair: numpy's
``matmul`` sends every ``(1, d) @ (d, 1)`` product of a stack to the same
BLAS ``ddot`` that ``np.dot`` and ``np.linalg.norm`` call on a 1-D vector, so
the per-row sums are added in the same order. The operands are made
C-contiguous first because ``ddot`` sums a unit-stride vector in a different
order than a strided one; the scalar formula always saw unit-stride rows. A
sum reordered by ``einsum``, ``(a * b).sum(axis=1)`` or
``np.linalg.norm(..., axis=1)`` would move the low-order bits of the maps.

That equality holds under OpenBLAS's SkylakeX, Haswell and Sandybridge
kernels; CI checks the last two besides the runner's native one. It fails
under the Prescott kernel (``OPENBLAS_CORETYPE=Prescott``, which reports
itself as ``Katmai``), where
``test_row_cosines_are_bit_equal_to_the_scalar_formula`` fails, so CI leaves
that kernel out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contribution import cka
from .model import Matrix, Model, ReferenceTrajectory, run_reference
from .runtime import Trace


def _row_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of every row pair of two equal-shape 2-D arrays: 0 where either
    row is all zeros, and exactly 1 where the rows are value-identical."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    dot = np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
    na = np.sqrt(np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0])
    nb = np.sqrt(np.matmul(b[:, None, :], b[:, :, None])[:, 0, 0])
    with np.errstate(divide="ignore", invalid="ignore"):  # zero rows are set below
        cos = np.clip(dot / (na * nb), -1.0, 1.0)
    cos[(na == 0.0) | (nb == 0.0)] = 0.0
    cos[(a == b).all(axis=1)] = 1.0
    return cos


def _check_same_shapes(got: list[Matrix], want: list[Matrix]) -> None:
    if len(got) != len(want):
        raise ValueError(f"step counts differ: {len(got)} vs {len(want)}")
    for g, w in zip(got, want):
        if g.shape != w.shape:
            raise ValueError(f"noise shapes differ: {g.shape} vs {w.shape}")


@dataclass
class DivergenceReport:
    """Per-step and final-output distance of a cached run from the reference."""

    per_step_mse: list[float]
    per_step_cosine: list[float]
    final_mse: float
    final_cosine: float


def divergence(trace: Trace, reference: ReferenceTrajectory) -> DivergenceReport:
    """MSE and cosine of the predicted noise at every step, plus the final
    latent; zero MSE at a step means the step is value-identical."""
    _check_same_shapes(trace.noise_preds, reference.noise_preds)
    pairs = [
        *zip(trace.noise_preds, reference.noise_preds),
        (trace.final_output, reference.final_output),
    ]
    mse = [float(np.mean((got - want) ** 2)) for got, want in pairs]
    cos = [float(_row_cosines(got.reshape(1, -1), want.reshape(1, -1))[0]) for got, want in pairs]
    return DivergenceReport(mse[:-1], cos[:-1], final_mse=mse[-1], final_cosine=cos[-1])


def block_ablation(
    model: Model,
    x_init: Matrix,
    text_embed: Matrix | None,
    block_index: int,
    reference: ReferenceTrajectory | None = None,
) -> np.ndarray:
    """Token-wise cosine map of pruning one block: shape (steps, image_tokens).

    Entry (s, v) is the cosine between the pruned and intact models' predicted
    noise for image token v at step s. Pass a precomputed reference to amortize
    it across blocks.
    """
    if not 0 <= block_index < model.config.num_blocks:
        raise ValueError(f"block index {block_index} out of range")
    if reference is None:
        reference = run_reference(model, x_init, text_embed)
    pruned = run_reference(model, x_init, text_embed, pruned_blocks={block_index})
    _check_same_shapes(pruned.noise_preds, reference.noise_preds)
    return np.array([_row_cosines(p, r) for p, r in zip(pruned.noise_preds, reference.noise_preds)])


def adjacent_step_cka(reference: ReferenceTrajectory) -> list[float]:
    """Similarity between predicted-noise matrices of consecutive steps."""
    preds = reference.noise_preds
    if len(preds) < 2:
        raise ValueError("need at least 2 steps")
    return [cka(preds[t], preds[t - 1]) for t in range(1, len(preds))]


@dataclass
class AnalysisReport:
    """Ablation maps for every block plus the adjacent-step similarity series."""

    token_cosine: list[np.ndarray] = field(default_factory=list)  # per block, (T, L_img)
    adjacent_cka: list[float] = field(default_factory=list)

    @property
    def mean_cosine(self) -> np.ndarray:
        """Per-(block, step) mean over image tokens."""
        return np.array([m.mean(axis=1) for m in self.token_cosine])

    def to_dict(self) -> dict:
        return {
            "schema": "corgi-ablation/1",
            "token_cosine": [m.tolist() for m in self.token_cosine],
            "mean_cosine": self.mean_cosine.tolist(),
            "adjacent_cka": self.adjacent_cka,
        }


def analyze_model(model: Model, x_init: Matrix, text_embed: Matrix | None = None) -> AnalysisReport:
    """Run block ablation for every block and the adjacent-step series."""
    reference = run_reference(model, x_init, text_embed)
    maps = [
        block_ablation(model, x_init, text_embed, b, reference=reference)
        for b in range(model.config.num_blocks)
    ]
    return AnalysisReport(token_cosine=maps, adjacent_cka=adjacent_step_cka(reference))
