"""Deterministic random streams.

Every stochastic choice in the library draws from a :class:`Stream` obtained
through :func:`stream`. A stream is keyed by a 64-bit unsigned seed plus a
purpose key (a tag string and optional integer indices, e.g.
``stream(seed, "split", user_index)``), mixed through ``numpy.random.
SeedSequence`` into a PCG64 bit generator.

Only the raw 64-bit PCG64 output is consumed. Uniform doubles, normals,
bounded integers and permutations are derived here with fixed algorithms
(bit shift, Box-Muller, masked rejection, random-keys sort) rather than
through ``numpy.random.Generator`` methods, so identical ``(seed, key)``
pairs reproduce bit-for-bit across platforms and numpy releases.

Every draw goes through the stream's word buffer. ``randbelow`` refills it
a block of words at a time and does its masked rejection on Python ints,
which is several times cheaper per call than a numpy draw of one word;
``raw`` hands out buffered words before drawing new ones. So any mix of
calls sees exactly the word sequence of the generator, in order, whether or
not words were buffered ahead.

:func:`stream_words` derives the first words of many indexed streams
``stream(seed, tag, i)`` in one vectorized pass. It gives the same words as
opening each stream and calling ``raw``; :func:`stream` stays the reference.

Stream keys used across the library:

======================  =====================================================
``("split", u)``        per-user interaction shuffle in the data split, all
                        users' words derived at once by ``stream_words``
``("split",)``          global shuffle for the ``global_random`` split
``("init", name)``      parameter tensor initialisation, keyed by tensor name
``("epoch", e)``        batch shuffling and negative sampling in epoch ``e``
``("synthetic", ...)``  toy-data generators in demos and tests
======================  =====================================================
"""

from __future__ import annotations

import hashlib

import numpy as np

_INV_2_53 = float(2.0**-53)
_TWO_PI = 2.0 * np.pi
_BLOCK_WORDS = 512  # words buffered per refill in randbelow

# numpy.random.SeedSequence's hash and mix constants, and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_LIMB = np.uint64(_M32)
_BULK_ROWS = 16384  # words derived per block in stream_words


def _key_part(part: int | str) -> int:
    if isinstance(part, str):
        return int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "little")
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream key integers must be non-negative, got {part}")
        return int(part)
    raise TypeError(f"stream key parts must be int or str, got {type(part).__name__}")


def check_seed(seed: int) -> int:
    """Validate a user-supplied seed as a 64-bit unsigned integer."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed}")
    return seed


class Stream:
    """A single deterministic random stream over PCG64 raw output."""

    def __init__(self, seed_sequence: np.random.SeedSequence):
        self._bg = np.random.PCG64(seed_sequence)
        # words drawn from the generator but not yet handed out, next word last
        self._words: list[int] = []

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit words as uint64."""
        words = self._words
        if not words or n <= 0:
            return np.atleast_1d(np.asarray(self._bg.random_raw(n), dtype=np.uint64))
        k = min(n, len(words))
        head = np.array(words[:-k - 1:-1], dtype=np.uint64)
        del words[-k:]
        return np.concatenate([head, self._bg.random_raw(n - k)])

    def uniform(self, shape: int | tuple[int, ...] = ()) -> np.ndarray | float:
        """Uniform float64 in [0, 1): top 53 bits of each raw word."""
        size = int(np.prod(shape)) if shape != () else 1
        vals = (self.raw(size) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        if shape == ():
            return float(vals[0])
        return vals.reshape(shape)

    def normal(self, shape: int | tuple[int, ...] = (), std: float = 1.0) -> np.ndarray | float:
        """Normal(0, std^2) float64 via Box-Muller on raw uniforms."""
        size = int(np.prod(shape)) if shape != () else 1
        pairs = (size + 1) // 2
        # u1 in (0, 1] so log is finite; u2 in [0, 1)
        u1 = ((self.raw(pairs) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (self.raw(pairs) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(_TWO_PI * u2), r * np.sin(_TWO_PI * u2)])[:size]
        z *= std
        if shape == ():
            return float(z[0])
        return z.reshape(shape)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by masked rejection on raw words."""
        n = int(n)
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        mask = (1 << (n - 1).bit_length()) - 1
        words = self._words
        while True:
            if not words:
                words.extend(self._bg.random_raw(_BLOCK_WORDS)[::-1].tolist())
            r = words.pop() & mask
            if r < n:
                return r

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n) by sorting random keys (stable)."""
        keys = self.uniform((n,)) if n else np.empty(0)
        return np.argsort(keys, kind="stable")


def stream(seed: int, *key: int | str) -> Stream:
    """Open the deterministic stream identified by ``(seed, key)``."""
    entropy = [check_seed(seed)] + [_key_part(p) for p in key]
    return Stream(np.random.SeedSequence(entropy))


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's coercion of a non-negative int: 32-bit words, low first."""
    return [value >> shift & _M32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _hasher(hash_const: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays, with its running constant."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    return hashmix


def _seed_sequence_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(8, uint32)`` for many entropies
    of one length at once: ``entropy[j]`` holds word ``j`` of every lane.
    The hash constants do not depend on the data, so the lanes run in
    lockstep."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    return [output(pool[i % _POOL_WORDS]) for i in range(8)]


def _carry(acc: np.ndarray) -> np.ndarray:
    """Normalize ``(4, n)`` limb sums to 32-bit limbs, dropping bits >= 2**128."""
    for r in range(3):
        acc[r + 1] += acc[r] >> np.uint64(32)
    return acc & _LIMB


def _limbs(values: list[int]) -> np.ndarray:
    """Python ints below 2**128 as ``(4, n)`` uint64 of 32-bit limbs, low first."""
    return np.array([[v >> (32 * r) & _M32 for v in values] for r in range(4)], dtype=np.uint64)


def _pcg_lanes(entropy: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(t, inc)`` limbs of the PCG64 seeded from each lane's SeedSequence,
    where the generator's state before its word ``k`` is
    ``MULT**(k + 2) * t + inc * sum(MULT**j for j < k + 2)``."""
    words = [w.astype(np.uint64) for w in _seed_sequence_state(entropy)]
    # generate_state(4, uint64) read as (initstate high, low, initseq high, low)
    init_state = np.stack([words[2], words[3], words[0], words[1]])
    init_seq = np.stack([words[6], words[7], words[4], words[5]])
    low_bit = np.vstack([np.ones_like(init_seq[:1]), init_seq[:3] >> np.uint64(31)])
    inc = (init_seq << np.uint64(1) | low_bit) & _LIMB
    # numpy seeds with state = 0, step, state += initstate, step
    return _carry(inc + init_state), inc


def stream_words(
    seed: int, tag: int | str, counts: np.ndarray | list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``counts[i]`` raw words of ``stream(seed, tag, i)`` for
    every ``i``, concatenated in index order (uint64), and the ``i`` that
    owns each word (int64).

    Gives the same words as ``Stream.raw`` without opening a generator per
    stream. SeedSequence is mixed for every index in lockstep in uint32
    arithmetic. Word ``k`` of each PCG64 comes from its seeded state jumped
    ahead by tables of multiplier powers, in 32-bit limbs held in uint64,
    ``_BULK_ROWS`` words at a time so that scratch memory stays bounded.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError("counts must be a 1-D array of word counts")
    n = len(counts)
    # SeedSequence takes an index from 2**32 up as two words, so its lanes
    # would no longer mix in lockstep
    if n > 2**32:
        raise ValueError(f"stream_words takes at most 2**32 streams, got {n}")
    if n and counts.min() < 0:
        raise ValueError("word counts must be non-negative")
    total = int(counts.sum())
    words = np.empty(total, dtype=np.uint64)
    owner = np.repeat(np.arange(n), counts)
    if not total:
        return words, owner
    prefix = _uint32_words(check_seed(seed)) + _uint32_words(_key_part(tag))
    entropy = [np.full(n, w, dtype=np.uint32) for w in prefix] + [np.arange(n, dtype=np.uint32)]
    t, inc = _pcg_lanes(entropy)

    # row k: MULT**(k + 2) and sum(MULT**j for j < k + 2), as in _pcg_lanes
    powers, sums = [_PCG_MULT**2 % 2**128], [1 + _PCG_MULT]
    for _ in range(1, int(counts.max())):
        sums.append((sums[-1] + powers[-1]) % 2**128)
        powers.append(powers[-1] * _PCG_MULT % 2**128)
    tables = ((_limbs(powers), t), (_limbs(sums), inc))
    first = np.cumsum(counts) - counts
    for lo in range(0, total, _BULK_ROWS):
        rows = owner[lo:lo + _BULK_ROWS]
        k = np.arange(lo, lo + len(rows)) - first[rows]
        state = np.zeros((4, len(rows)), dtype=np.uint64)
        for table, lane in tables:
            a, b = table[:, k], lane[:, rows]
            for i in range(4):
                # a[i] * b lands on limbs i..3: low halves there, high halves one up
                prod = a[i] * b[:4 - i]
                state[i:] += prod & _LIMB
                state[i + 1:] += prod[:3 - i] >> np.uint64(32)
        state = _carry(state)
        # XSL-RR: xor the two 64-bit halves, rotate right by the top 6 bits
        x = (state[3] << np.uint64(32) | state[2]) ^ (state[1] << np.uint64(32) | state[0])
        rot = state[3] >> np.uint64(26)
        words[lo:lo + len(rows)] = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
    return words, owner
