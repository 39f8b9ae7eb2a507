import numpy as np
import pytest

from corgi import SalientTokenSet, SeededRng, identify_salient, kmeans_1d_two
from corgi.saliency import build_mask, salient_rows, saliency_scores, top_c_text


def test_scores_are_column_maxima():
    a = np.array([[0.5, 0.1, 0.4], [0.2, 0.7, 0.1]])
    assert saliency_scores(a).tolist() == [0.5, 0.7, 0.4]


def test_scores_single_image_token():
    a = np.array([[0.3, 0.6, 0.1]])
    assert saliency_scores(a).tolist() == [0.3, 0.6, 0.1]


def test_scores_uniform_map():
    a = np.full((4, 3), 0.25)
    assert saliency_scores(a).tolist() == [0.25, 0.25, 0.25]


def test_scores_reject_empty():
    with pytest.raises(ValueError):
        saliency_scores(np.zeros((0, 3)))


def test_top_c_selection():
    assert top_c_text([0.5, 0.7, 0.4], 2) == (0, 1)
    assert top_c_text([0.5, 0.7, 0.4], 3) == (0, 1, 2)
    assert top_c_text([0.5, 0.7, 0.4], 99) == (0, 1, 2)


def test_top_c_tie_break_lower_index():
    assert top_c_text([0.5, 0.5, 0.5], 2) == (0, 1)


def test_top_c_requires_positive_c():
    with pytest.raises(ValueError):
        top_c_text([0.5], 0)


def brute_force_two_partition(values):
    """Minimal-SSE 2-partition by exhaustive subset enumeration."""

    def sse(vals):
        m = sum(vals) / len(vals)
        return sum((v - m) ** 2 for v in vals)

    n = len(values)
    best_sse, best_high = np.inf, None
    for bits in range(1, 2**n - 1):
        low = [values[i] for i in range(n) if not (bits >> i) & 1]
        high = [values[i] for i in range(n) if (bits >> i) & 1]
        total = sse(low) + sse(high)
        if total < best_sse:
            best_sse, best_high = total, frozenset(
                i for i in range(n) if (bits >> i) & 1
            )
    return best_sse, best_high


def test_kmeans_separated_clusters():
    res = kmeans_1d_two([0.9, 0.85, 0.1, 0.15])
    assert set(res.high_indices) == {0, 1}


def test_kmeans_two_values():
    res = kmeans_1d_two([1.0, 0.0])
    assert res.high_indices == (0,)


def test_kmeans_single_value():
    res = kmeans_1d_two([0.4])
    assert res.high_indices == (0,)


def test_kmeans_all_equal_takes_smallest_high_side():
    res = kmeans_1d_two([0.3, 0.3, 0.3, 0.3])
    assert len(res.high_indices) == 1


@pytest.mark.parametrize("values", [
    [0.2, np.nan, 0.9, 0.1],
    [np.inf, 1.0, 0.5],
    [-np.inf],
])
def test_kmeans_rejects_non_finite_values(values):
    with pytest.raises(ValueError, match="finite"):
        kmeans_1d_two(values)


def test_kmeans_matches_exhaustive_search():
    rng = SeededRng(7)

    def sse_of(values, high):
        def sse(vals):
            m = sum(vals) / len(vals)
            return sum((v - m) ** 2 for v in vals)

        low = [v for i, v in enumerate(values) if i not in high]
        hi = [v for i, v in enumerate(values) if i in high]
        return sse(low) + sse(hi)

    for trial in range(30):
        n = 2 + trial % 9
        values = list(rng.standard_normal(1, n)[0])
        best_sse, _ = brute_force_two_partition(values)
        res = kmeans_1d_two(values)
        assert sse_of(values, set(res.high_indices)) == best_sse


def test_identify_salient_hand_case():
    a = np.array([[0.9, 0.1], [0.1, 0.1]])
    s = identify_salient(a, c=1)
    assert s.text_indices == (0,)
    assert s.image_indices == (0,)


def test_identify_salient_checks_the_map_once(monkeypatch):
    import corgi.saliency as saliency

    calls = []
    original = saliency.ensure_matrix

    def spy(m, name="matrix"):
        calls.append(name)
        return original(m, name)

    monkeypatch.setattr(saliency, "ensure_matrix", spy)
    identify_salient(np.array([[0.9, 0.1], [0.1, 0.1]]), c=1)
    assert calls == ["cross_map"]


@pytest.mark.parametrize("bad, message", [
    (np.zeros(3), "cross_map must be 2-D"),
    (np.zeros((0, 3)), "cross_map is empty"),
    (np.array([[0.5, np.nan]]), "cross_map contains non-finite entries"),
])
def test_identify_salient_rejects_bad_maps(bad, message):
    with pytest.raises(ValueError, match=message):
        identify_salient(bad, c=1)


def test_identify_salient_argmax_always_included():
    rng = SeededRng(19)
    for _ in range(25):
        a = np.abs(rng.standard_normal(6, 4))
        a /= a.sum()
        s = identify_salient(a, c=2)
        for u in s.text_indices:
            assert int(np.argmax(a[:, u])) in s.image_indices


def test_identify_salient_uniform_columns_cover_all():
    a = np.full((5, 3), 0.2)
    s = identify_salient(a, c=3)
    assert s.text_indices == (0, 1, 2)
    # every all-equal column contributes its tie-break high element
    assert s.image_indices == (4,)


def test_identify_salient_permutation_consistent():
    rng = SeededRng(29)
    a = np.abs(rng.standard_normal(5, 4)) + 0.01
    perm = [2, 0, 3, 1]
    s = identify_salient(a, c=2)
    sp = identify_salient(a[:, perm], c=2)
    relabeled = tuple(sorted(perm.index(u) for u in s.text_indices))
    assert sp.text_indices == relabeled
    assert sp.image_indices == s.image_indices


def test_build_mask_placement():
    s = SalientTokenSet(text_indices=(0,), image_indices=(1,))
    assert build_mask(s, 2, 2).tolist() == [1, 0, 0, 1]


def test_build_mask_empty_and_popcount():
    empty = SalientTokenSet(text_indices=(), image_indices=())
    assert build_mask(empty, 3, 4).tolist() == [0] * 7
    s = SalientTokenSet(text_indices=(0, 2), image_indices=(0, 3))
    mask = build_mask(s, 3, 4)
    assert int(mask.sum()) == 4


@pytest.mark.parametrize("text, image, message", [
    ((), (-1,), "image indices"),  # would name the last text row
    ((1, 0), (), "text indices"),
    ((), (2, 2), "image indices"),
    ((0.0,), (), "not all integers"),
    ((True,), (), "not all integers"),  # would name row 1
    ((), ("1",), "not all integers"),
])
def test_salient_set_rejects_bad_indices(text, image, message):
    with pytest.raises(ValueError, match=message):
        SalientTokenSet(text_indices=text, image_indices=image)


def test_salient_set_takes_numpy_integers():
    s = SalientTokenSet(text_indices=(np.int64(1),), image_indices=(np.intp(0), np.intp(2)))
    assert salient_rows(s, 3, 3).tolist() == [1, 3, 5]


def test_a_text_index_past_the_text_tokens_is_rejected():
    # text index 5 at four text tokens would name image row 1
    s = SalientTokenSet(text_indices=(0, 5), image_indices=())
    with pytest.raises(ValueError, match="text index 5 out of range for 4 text tokens"):
        salient_rows(s, 4, 16)
    with pytest.raises(ValueError, match="text index 5"):
        build_mask(s, 4, 16)
    assert salient_rows(s, 6, 16).tolist() == [0, 5]
