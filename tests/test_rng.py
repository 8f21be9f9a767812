import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import mmrec.rng
from mmrec.rng import check_seed, stream, stream_words


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


# ------------------------------------------------------- bulk stream words

SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# SeedSequence takes each int as one uint32 word below 2**32 and two from
# there, so these seeds and tags give 3 to 5 entropy words, either side of
# its pool of 4
SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)
TAGS = st.sampled_from(["split", "epoch", "", "ünï", 0, 7, 2**32, 2**64 - 1])
COUNTS = st.lists(st.integers(0, 40), max_size=24)


def check_stream_words(seed, tag, counts):
    words, owner = stream_words(seed, tag, counts)
    assert words.dtype == np.uint64
    assert np.array_equal(words, np.concatenate([np.zeros(0, dtype=np.uint64)] + [
        stream(seed, tag, i).raw(int(c)) for i, c in enumerate(counts) if c
    ]))
    assert np.array_equal(owner, np.repeat(np.arange(len(counts)), counts))


@SETTINGS
@given(seed=SEEDS, tag=TAGS, counts=COUNTS)
def test_stream_words_match_each_stream(seed, tag, counts):
    check_stream_words(seed, tag, counts)


@SETTINGS
@given(seed=SEEDS, tag=TAGS, counts=COUNTS, block=st.integers(1, 9))
def test_stream_words_blocks_split_streams_anywhere(seed, tag, counts, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mmrec.rng, "_BULK_ROWS", block)
        check_stream_words(seed, tag, counts)


@SETTINGS
@given(seed=SEEDS, counts=COUNTS)
def test_stream_words_sort_to_each_streams_permutation(seed, counts):
    words, owner = stream_words(seed, "split", counts)
    first = np.cumsum(counts, dtype=np.int64) - counts
    expected = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        first[i] + stream(seed, "split", i).permutation(c) for i, c in enumerate(counts)
    ])
    assert np.array_equal(np.lexsort((words >> np.uint64(11), owner)), expected)


def test_stream_words_long_stream_rotates_by_zero():
    """XSL-RR rotates by the state's top 6 bits, so a rotation of 0 comes
    about once in 64 words; this stream has one in its first 300."""
    seed, tag, counts = 2, "split", [3, 0, 300, 1]
    generator = np.random.PCG64(np.random.SeedSequence([seed, mmrec.rng._key_part(tag), 2]))
    rotations = []
    for _ in range(300):
        generator.random_raw()
        rotations.append(generator.state["state"]["state"] >> 122)
    assert 0 in rotations
    check_stream_words(seed, tag, counts)


def test_stream_words_more_than_one_block():
    counts = [0, 17000, 1, 20000, 3000]
    assert sum(counts) > 2 * mmrec.rng._BULK_ROWS
    check_stream_words(12345, "split", counts)


def test_stream_words_empty():
    for counts in ([], [0, 0, 0]):
        words, owner = stream_words(3, "split", counts)
        assert words.size == 0 and owner.size == 0


def test_stream_words_refuses_indices_from_2_32():
    # SeedSequence would take index 2**32 as two words; a zero-stride view
    # gives that many streams without allocating them
    counts = np.broadcast_to(np.int64(0), (2**32 + 1,))
    with pytest.raises(ValueError, match="at most 2\\*\\*32 streams"):
        stream_words(5, "split", counts)


def test_stream_words_refuses_bad_arguments():
    with pytest.raises(ValueError):
        stream_words(5, "split", [1, -1])
    with pytest.raises(ValueError):
        stream_words(5, "split", [[1, 2]])
    with pytest.raises(ValueError):
        stream_words(2**64, "split", [1])
