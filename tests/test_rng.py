import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmrec.rng import check_seed, stream


def test_same_key_same_stream():
    a = stream(42, "init", "user_emb").normal((4, 3))
    b = stream(42, "init", "user_emb").normal((4, 3))
    assert np.array_equal(a, b)


def test_different_keys_diverge():
    base = stream(42, "init", "user_emb").normal((4, 3))
    assert not np.array_equal(base, stream(42, "init", "item_emb").normal((4, 3)))
    assert not np.array_equal(base, stream(43, "init", "user_emb").normal((4, 3)))
    assert not np.array_equal(base, stream(42, "init", "user_emb", 1).normal((4, 3)))


def test_uniform_range_and_moments():
    u = stream(7, "t").uniform((20000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.01


def test_normal_moments_and_std_scaling():
    z = stream(7, "n").normal((20000,))
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03
    scaled = stream(7, "n").normal((20000,), std=0.1)
    assert np.allclose(scaled, 0.1 * z)


def test_randbelow_bounds_and_coverage():
    rng = stream(3, "rb")
    draws = [rng.randbelow(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    assert min(draws) >= 0 and max(draws) < 7


def test_randbelow_one_is_zero():
    assert stream(0, "x").randbelow(1) == 0


def test_permutation_is_a_permutation():
    perm = stream(9, "p").permutation(100)
    assert sorted(perm.tolist()) == list(range(100))


def test_permutation_empty():
    assert stream(9, "p").permutation(0).size == 0


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        stream(1, -5)


def test_check_seed_rejects_out_of_range():
    assert check_seed(2**64 - 1) == 2**64 - 1
    with pytest.raises(ValueError):
        check_seed(-1)
    with pytest.raises(ValueError):
        check_seed(2**64)


# ---------------------------------------------- consecutive permutations

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), a=st.integers(0, 40), b=st.integers(0, 40))
def test_consecutive_permutations_sort_one_raw_draw(seed, a, b):
    """The per_user_random split and its oracle rest on this: a stream's
    consecutive permutations are stable sorts of consecutive raw words by
    their top 53 bits."""
    s = stream(seed, "split")
    first, second = s.permutation(a), s.permutation(b)
    keys = stream(seed, "split").raw(a + b) >> np.uint64(11)
    assert np.array_equal(first, np.argsort(keys[:a], kind="stable"))
    assert np.array_equal(second, np.argsort(keys[a:], kind="stable"))
