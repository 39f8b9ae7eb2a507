import math

import numpy as np
import pytest

from corgi import SeededRng, frobenius_norm, softmax_rows
from corgi.numerics import matmul, matmul_nt, normal_stream


def test_same_seed_same_stream():
    a = SeededRng(3).standard_normal(5, 7)
    b = SeededRng(3).standard_normal(5, 7)
    assert np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = SeededRng(1).standard_normal(4, 4)
    b = SeededRng(2).standard_normal(4, 4)
    assert not np.array_equal(a, b)


def test_counter_advance_and_resume():
    rng = SeededRng(5)
    first = rng.standard_normal(3, 3)
    assert rng.counter == 10  # 9 values -> 5 Box-Muller pairs
    second = rng.standard_normal(3, 3)
    resumed = SeededRng(5, 10).standard_normal(3, 3)
    assert np.array_equal(second, resumed)
    assert not np.array_equal(first, second)


def test_stream_is_pure_function():
    assert np.array_equal(normal_stream(11, 40, 9), normal_stream(11, 40, 9))


def test_law_of_large_numbers():
    draws = SeededRng(7).standard_normal(100000, 1)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.05


def test_empty_shape_rejected():
    with pytest.raises(ValueError, match="empty shape"):
        SeededRng(0).standard_normal(0, 3)
    with pytest.raises(ValueError, match="empty shape"):
        SeededRng(0).standard_normal(3, 0)


def test_softmax_symmetry():
    out = softmax_rows(np.array([[0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-15)


def test_softmax_hand_value():
    out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
    assert abs(out[0, 0] - 2.0 / 3.0) < 1e-12
    assert abs(out[0, 1] - 1.0 / 3.0) < 1e-12


def test_softmax_large_logits_stable():
    out = softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(out).all()
    assert out[0, 0] > 1.0 - 1e-12
    assert out[0, 1] < 1e-12


def test_softmax_rows_sum_to_one():
    rng = SeededRng(13)
    for _ in range(20):
        m = rng.standard_normal(6, 9) * 10.0
        out = softmax_rows(m)
        assert np.all(out > 0.0) and np.all(out <= 1.0)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def test_frobenius_values():
    assert frobenius_norm(np.array([[3.0, 4.0]])) == 5.0
    assert frobenius_norm(np.zeros((3, 2))) == 0.0
    assert frobenius_norm(np.ones((2, 2))) == 2.0


def test_frobenius_scaling():
    rng = SeededRng(17)
    m = rng.standard_normal(5, 5)
    base = frobenius_norm(m)
    for c in (-1000.0, -2.5, 0.5, 999.0):
        assert frobenius_norm(c * m) == pytest.approx(abs(c) * base, rel=1e-12)


def test_nonfinite_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        softmax_rows(np.array([[1.0, np.nan]]))


def test_matmul_row_subset_is_bit_stable():
    # load-bearing property: the attention engine computes partial rows with
    # the same helpers and expects them bit-equal to rows of the full product
    rng = SeededRng(23)
    for _ in range(30):
        a = rng.standard_normal(11, 8)
        b = rng.standard_normal(8, 6)
        full = matmul(a, b)
        rows = np.array([0, 3, 7, 10])
        assert np.array_equal(matmul(a[rows], b), full[rows])
        scores = matmul_nt(a, a)
        assert np.array_equal(matmul_nt(a[rows], a), scores[rows])
        single = np.array([5])
        assert np.array_equal(matmul(a[single], b), full[single])
