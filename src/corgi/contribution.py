"""Representation similarity and the per-block contribution score.

The similarity is computed exactly as

    similarity(X, Y) = ||Y^T X||_F^2 / (||X^T X||_F * ||Y^T Y||_F)

with no feature centering. A block's contribution is 1 - similarity between its
outputs at the boundary steps of consecutive intervals: values near 0 mean
the representation barely moved, making the block a caching candidate.
"""

from __future__ import annotations

import numpy as np

from .numerics import Matrix, ensure_matrix, frobenius_norm


class FeatureSnapshot(list):
    """One step's block outputs (block index -> L x d feature matrix), with
    each block's Gram norm ||X^T X||_F kept once a scoring has computed it.

    A run scores most snapshots twice, first as the newer side and then as
    the older one, so keeping the norm saves one of each scoring's Gram
    products.
    """

    def __init__(self, outputs):
        super().__init__(outputs)
        self.gram_norms: list[float | None] = [None] * len(self)


def _gram_norm(snapshot: FeatureSnapshot, b: int) -> float:
    norm = snapshot.gram_norms[b]
    if norm is None:
        x = snapshot[b]
        norm = snapshot.gram_norms[b] = frobenius_norm(x.T @ x)
    return norm


def _similarity(xs: FeatureSnapshot, ys: FeatureSnapshot, b: int) -> float:
    """Similarity of block b's matrices, unchecked: a Gram norm is computed
    only for a pair that is not value-identical, and once per snapshot. The
    caller runs it under ``np.errstate(over="ignore")``, so that an
    overflowed Gram product surfaces as frobenius_norm's ValueError."""
    x, y = xs[b], ys[b]
    if (x == y).all():  # equal values; covers the both-zero case too
        return 1.0
    nx = _gram_norm(xs, b)
    ny = _gram_norm(ys, b)
    if nx == 0.0 and ny == 0.0:
        return 1.0
    if nx == 0.0 or ny == 0.0:
        return 0.0
    g = y.T @ x
    numerator = float(np.add.reduce(g * g, axis=None))
    return min(1.0, max(0.0, numerator / (nx * ny)))


def cka(x: Matrix, y: Matrix) -> float:
    """Similarity in [0, 1]; 1 for identical (up to scale) representations.

    Degenerate norms: both inputs zero -> 1.0 (nothing changed), exactly one
    zero -> 0.0 (maximal change). Value-identical inputs return exactly 1
    (the formula's real-arithmetic value, short-circuited past rounding).
    A Gram norm that overflows float64 raises ValueError: the ratio cannot be
    formed, and 0.0 would rank the block as changed as much as a block can.
    (Their product cannot overflow: each is at most sqrt(DBL_MAX), and
    sqrt(DBL_MAX) ** 2 rounds below DBL_MAX.)
    """
    x = ensure_matrix(x, "x")
    y = ensure_matrix(y, "y")
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    with np.errstate(over="ignore"):
        return _similarity(FeatureSnapshot([x]), FeatureSnapshot([y]), 0)


def contribution_scores(prev: FeatureSnapshot, cur: FeatureSnapshot) -> np.ndarray:
    """Per-block score 1 - similarity(cur_i, prev_i), in [0, 1], bit-equal to
    ``1 - cka(cur_i, prev_i)`` and raising where that raises.

    A Gram norm comes from its snapshot where an earlier scoring stored it.
    Unchecked: the schedules pass two steps' block outputs of one run, one
    finite L x d float64 matrix per block, so the snapshots have equal
    lengths and shapes.
    """
    with np.errstate(over="ignore"):
        return np.array([1.0 - _similarity(cur, prev, b) for b in range(len(cur))])


def rank_ascending(scores) -> list[int]:
    """Block indices by ascending contribution; ties keep lower index first.

    Unchecked: the scores come from :func:`contribution_scores`, so each is
    1 - cka, finite and in [0, 1].
    """
    return [int(i) for i in np.argsort(scores, kind="stable")]
