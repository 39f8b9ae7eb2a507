"""Salient-token identification from cross-attention maps.

Pipeline, per block: each text token gets a saliency score (the maximum
attention any image token pays it), the top-c text tokens are kept, and for
each kept text token the image tokens in the high cluster of an exact 1-D
2-means split of its attention column join the set. Its joint-sequence rows
and mask put text rows first, then image rows (:func:`salient_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Matrix, ensure_matrix


@dataclass(frozen=True)
class KMeansResult:
    """High cluster of an exact 2-means partition of a 1-D value set: the
    indices, ascending, on the side with the larger centroid (upper side on
    ties)."""

    high_indices: tuple[int, ...]


@dataclass(frozen=True)
class SalientTokenSet:
    """Per-block salient tokens: text indices plus their high-cluster image
    indices, both in ascending order.

    Each tuple must hold non-negative integers (not bools), strictly
    ascending; ValueError otherwise. Whether they lie below the token counts
    is checked where they become rows (:func:`salient_rows`).
    """

    text_indices: tuple[int, ...]
    image_indices: tuple[int, ...]

    def __post_init__(self):
        for name, idx in (("text", self.text_indices), ("image", self.image_indices)):
            if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in idx):
                raise ValueError(f"{name} indices {idx!r} are not all integers")
            if idx and (idx[0] < 0 or any(a >= b for a, b in zip(idx, idx[1:]))):
                raise ValueError(f"{name} indices {idx!r} are not ascending, distinct and >= 0")


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
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
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

    return KMeansResult(high_indices=tuple(sorted(int(i) for i in order[best_k:])))


def identify_salient(cross_map: Matrix, c: int) -> SalientTokenSet:
    """Compose scoring, top-c selection and per-column clustering.

    Selected text tokens contribute the high cluster of their attention
    column; the image set is the union over selected columns.
    """
    text = top_c_text(saliency_scores(cross_map), c)  # saliency_scores validates cross_map
    a = np.asarray(cross_map, dtype=np.float64)
    image: set[int] = set()
    for u in text:
        image.update(kmeans_1d_two(a[:, u]).high_indices)
    return SalientTokenSet(text_indices=text, image_indices=tuple(sorted(image)))


def salient_rows(s: SalientTokenSet, text_tokens: int, image_tokens: int) -> np.ndarray:
    """Joint-sequence row indices of a salient set, ascending: text rows
    first, then image rows, each in the set's own ascending order. A text
    index of text_tokens or more would name an image row and an image index
    of image_tokens or more a row past the sequence, so each raises
    ValueError (one comparison per tuple: its last entry is its largest)."""
    if s.text_indices and s.text_indices[-1] >= text_tokens:
        last = s.text_indices[-1]
        raise ValueError(f"text index {last} out of range for {text_tokens} text tokens")
    if s.image_indices and s.image_indices[-1] >= image_tokens:
        last = s.image_indices[-1]
        raise ValueError(f"image index {last} out of range for {image_tokens} image tokens")
    rows = list(s.text_indices) + [text_tokens + v for v in s.image_indices]
    return np.array(rows, dtype=np.intp)


def build_mask(s: SalientTokenSet, text_tokens: int, image_tokens: int) -> np.ndarray:
    """Binary mask over the joint sequence: 1 on the :func:`salient_rows`,
    which check the set's indices against both token counts."""
    mask = np.zeros(text_tokens + image_tokens, dtype=np.int8)
    mask[salient_rows(s, text_tokens, image_tokens)] = 1
    return mask
