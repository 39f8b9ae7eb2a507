import warnings

import numpy as np
import pytest

from corgi import SeededRng, cka
from corgi.contribution import contribution_scores, rank_ascending


def straight_line_similarity(x, y):
    """Independent re-evaluation of the similarity ratio."""
    num = np.linalg.norm(y.T @ x, "fro") ** 2
    den = np.linalg.norm(x.T @ x, "fro") * np.linalg.norm(y.T @ y, "fro")
    return num / den


def test_identical_inputs_are_one():
    x = SeededRng(1).standard_normal(5, 3)
    assert cka(x, x.copy()) == 1.0


def test_orthogonal_inputs_are_zero():
    assert cka(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])) == 0.0


def test_hand_value_half():
    x = np.array([[1.0], [0.0]])
    y = np.array([[1.0], [1.0]])
    assert cka(x, y) == 0.5


def test_degenerate_norms():
    z = np.zeros((3, 2))
    x = np.ones((3, 2))
    assert cka(z, z.copy()) == 1.0
    assert cka(z, x) == 0.0
    assert cka(x, z) == 0.0


def test_gram_matrix_overflow_rejected():
    # finite inputs whose Gram matrices overflow: the norm's finiteness scan
    # on each Gram matrix is what raises
    x = np.full((2, 2), 1e200)
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        cka(x, 0.5 * x)


def test_gram_matrix_overflow_raises_the_documented_error():
    # with no errstate around the call, numpy's overflow warning must not
    # reach the caller in place of the ValueError, even as an error
    x = np.full((2, 2), 1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="non-finite"):
            cka(x, 0.5 * x)


def test_squared_gram_overflow_rejected():
    # x.T @ x is finite (entries 2e160) but its squared sum is not; the true
    # similarity of x and 0.5 * x is 1, and the 0.0 this used to return would
    # rank the block as changed as much as a block can be
    x = np.full((2, 2), 1e80)
    with pytest.raises(ValueError, match="non-finite"):
        cka(x, 0.5 * x)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="shape"):
        cka(np.ones((2, 2)), np.ones((3, 2)))


def test_properties_on_random_pairs():
    rng = SeededRng(11)
    for trial in range(40):
        n = 2 + trial % 14
        x = rng.standard_normal(n, 5)
        y = rng.standard_normal(n, 5)
        v = cka(x, y)
        assert 0.0 <= v <= 1.0
        assert abs(v - cka(y, x)) < 1e-12
        assert abs(v - straight_line_similarity(x, y)) < 1e-12
        # scale invariance
        assert abs(cka(37.5 * x, 1e-3 * y) - v) < 1e-9
        # right-orthogonal invariance
        q, _ = np.linalg.qr(rng.standard_normal(5, 5))
        r, _ = np.linalg.qr(rng.standard_normal(5, 5))
        assert abs(cka(x @ q, y @ r) - v) < 1e-9


def test_scores_zero_when_unchanged():
    snap = [SeededRng(2).standard_normal(4, 3) for _ in range(3)]
    scores = contribution_scores(snap, [m.copy() for m in snap])
    assert scores.tolist() == [0.0, 0.0, 0.0]


def test_orthogonal_block_scores_one():
    prev = [np.array([[1.0], [0.0]]), np.ones((2, 1))]
    cur = [np.array([[0.0], [1.0]]), np.ones((2, 1))]
    scores = contribution_scores(prev, cur)
    assert scores[0] == 1.0
    assert scores[1] == 0.0


def test_scores_match_straight_line_oracle():
    rng = SeededRng(31)
    prev = [rng.standard_normal(6, 4) for _ in range(4)]
    cur = [rng.standard_normal(6, 4) for _ in range(4)]
    scores = contribution_scores(prev, cur)
    for i in range(4):
        assert abs(scores[i] - (1.0 - straight_line_similarity(cur[i], prev[i]))) < 1e-12
        assert 0.0 <= scores[i] <= 1.0


def test_scores_block_count_mismatch():
    with pytest.raises(ValueError, match="block counts"):
        contribution_scores([np.ones((2, 2))], [np.ones((2, 2))] * 2)


def test_rank_ascending_basic():
    assert rank_ascending([0.3, 0.1, 0.2]) == [1, 2, 0]
    assert rank_ascending([0.5] * 4) == [0, 1, 2, 3]


def test_rank_matches_selection_sort():
    rng = SeededRng(41)
    scores = list(rng.standard_normal(1, 8)[0] ** 2)
    got = rank_ascending(scores)

    remaining = list(range(8))
    expect = []
    while remaining:  # selection sort with lowest-index tie-break
        best = remaining[0]
        for i in remaining[1:]:
            if scores[i] < scores[best]:
                best = i
        expect.append(best)
        remaining.remove(best)
    assert got == expect
