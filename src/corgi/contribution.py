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

FeatureSnapshot = list[Matrix]  # block index -> L x d feature matrix


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
    if (x == y).all():  # equal values; covers the both-zero case too
        return 1.0
    # an overflowed Gram product is left to frobenius_norm's ValueError
    # rather than surfacing first as a RuntimeWarning
    with np.errstate(over="ignore"):
        nx = frobenius_norm(x.T @ x)
        ny = frobenius_norm(y.T @ y)
        g = y.T @ x
    if nx == 0.0 and ny == 0.0:
        return 1.0
    if nx == 0.0 or ny == 0.0:
        return 0.0
    numerator = float(np.add.reduce(g * g, axis=None))
    return min(1.0, max(0.0, numerator / (nx * ny)))


def contribution_scores(prev: FeatureSnapshot, cur: FeatureSnapshot) -> np.ndarray:
    """Per-block score 1 - similarity(cur_i, prev_i), in [0, 1].

    Unchecked: the schedules pass two steps' block outputs of one run, one
    per block, so the snapshots have equal lengths; :func:`cka` still checks
    each pair.
    """
    return np.array([1.0 - cka(c, p) for p, c in zip(prev, cur)])


def rank_ascending(scores) -> list[int]:
    """Block indices by ascending contribution; ties keep lower index first.

    Unchecked: the scores come from :func:`contribution_scores`, so each is
    1 - cka, finite and in [0, 1].
    """
    return [int(i) for i in np.argsort(scores, kind="stable")]
