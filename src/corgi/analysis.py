"""Consistency metrics and block-level analysis procedures.

Divergence compares a cached run against the full-compute reference
step-by-step (MSE and cosine over the predicted noise). Block ablation reruns
the model with one block replaced by the identity and maps, per step and per
image token, how far the prediction drifts. The adjacent-step similarity
series quantifies how little the predicted noise moves between consecutive
denoising steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contribution import cka
from .model import Matrix, Model, ReferenceTrajectory, run_reference
from .runtime import Trace


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine over flattened values; value-identical inputs are exactly 1."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if np.array_equal(a, b):
        return 1.0
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


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
    preds = trace.noise_preds
    if len(preds) != len(reference.noise_preds):
        raise ValueError(
            f"step counts differ: {len(preds)} vs {len(reference.noise_preds)}"
        )
    mse, cos = [], []
    for got, want in zip(preds, reference.noise_preds):
        if got.shape != want.shape:
            raise ValueError(f"noise shapes differ: {got.shape} vs {want.shape}")
        mse.append(float(np.mean((got - want) ** 2)))
        cos.append(_cosine(got, want))
    final = trace.final_output
    return DivergenceReport(
        per_step_mse=mse,
        per_step_cosine=cos,
        final_mse=float(np.mean((final - reference.final_output) ** 2)),
        final_cosine=_cosine(final, reference.final_output),
    )


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
    return np.array([
        [_cosine(p, r) for p, r in zip(p_step, r_step, strict=True)]
        for p_step, r_step in zip(pruned.noise_preds, reference.noise_preds, strict=True)
    ])


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
