"""Salient-token identification from cross-attention maps.

Pipeline, per block: each text token gets a saliency score (the maximum
attention any image token pays it), the top-c text tokens are kept, and for
each kept text token the image tokens in the high cluster of an exact 1-D
2-means split of its attention column join the set. Token masks lay the set
out in the joint sequence order (text rows first, then image rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Matrix, ensure_matrix


@dataclass(frozen=True)
class KMeansResult:
    """Exact 2-means partition of a 1-D value set.

    The high cluster is the side with the larger centroid (upper side on
    ties). low_centroid is None when the input has a single value.
    """

    low_centroid: float | None
    high_centroid: float
    high_indices: tuple[int, ...]


@dataclass(frozen=True)
class SalientTokenSet:
    """Per-block salient tokens: text indices plus their high-cluster image
    indices, both in ascending order."""

    text_indices: tuple[int, ...]
    image_indices: tuple[int, ...]


def saliency_scores(cross_map: Matrix) -> np.ndarray:
    """Per-text-token score: column-wise maximum of the cross-attention map."""
    a = ensure_matrix(cross_map, "cross_map")
    return np.max(a, axis=0)


def top_c_text(scores, c: int) -> tuple[int, ...]:
    """Indices of the c largest scores, ties to the lower index, ascending."""
    if c < 1:
        raise ValueError("c must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")  # stable: equal scores keep index order
    return tuple(sorted(int(i) for i in order[: min(c, len(scores))]))


def kmeans_1d_two(values) -> KMeansResult:
    """Exact optimal 2-means of 1-D values by scanning sorted split points.

    Optimal 1-D clusters are contiguous in sorted order, so scanning every
    split is exhaustive. Ties between splits take the smaller high cluster;
    a single value forms the high cluster by itself.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if values.size == 0:
        raise ValueError("need at least one value")
    if values.size == 1:
        return KMeansResult(
            low_centroid=None,
            high_centroid=float(values[0]),
            high_indices=(0,),
        )
    order = np.argsort(values, kind="stable")
    sv = values[order]
    n = sv.size

    def split_sse(k: int) -> float:
        # sum((low - low.mean()) ** 2) + sum((high - high.mean()) ** 2)
        # through the same add.reduce calls, without the wrappers
        low = sv[:k] - np.add.reduce(sv[:k]) / k
        high = sv[k:] - np.add.reduce(sv[k:]) / (n - k)
        return float(np.add.reduce(low * low) + np.add.reduce(high * high))

    if sv[0] == sv[-1]:  # all equal: every split ties, smallest high side wins
        best_k = n - 1
    else:
        best_k, best_sse = 1, np.inf
        for k in range(1, n):
            sse = split_sse(k)
            if sse <= best_sse:  # <= prefers larger k: smaller high cluster
                best_k, best_sse = k, sse

    low, high = sv[:best_k], sv[best_k:]
    return KMeansResult(
        low_centroid=float(low.mean()),
        high_centroid=float(high.mean()),
        high_indices=tuple(sorted(int(i) for i in order[best_k:])),
    )


def identify_salient(cross_map: Matrix, c: int) -> SalientTokenSet:
    """Compose scoring, top-c selection and per-column clustering.

    Selected text tokens contribute the high cluster of their attention
    column; the image set is the union over selected columns.
    """
    a = ensure_matrix(cross_map, "cross_map")
    text = top_c_text(saliency_scores(a), c)
    image: set[int] = set()
    for u in text:
        image.update(kmeans_1d_two(a[:, u]).high_indices)
    return SalientTokenSet(text_indices=text, image_indices=tuple(sorted(image)))


def build_mask(s: SalientTokenSet, text_tokens: int, image_tokens: int) -> np.ndarray:
    """Binary mask over the joint sequence: text rows first, then image rows."""
    mask = np.zeros(text_tokens + image_tokens, dtype=np.int8)
    for u in s.text_indices:
        if not 0 <= u < text_tokens:
            raise ValueError(f"text index {u} out of range 0..{text_tokens - 1}")
        mask[u] = 1
    for v in s.image_indices:
        if not 0 <= v < image_tokens:
            raise ValueError(f"image index {v} out of range 0..{image_tokens - 1}")
        mask[text_tokens + v] = 1
    return mask
