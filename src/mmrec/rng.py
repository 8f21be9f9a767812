"""Deterministic random streams.

Every stochastic choice in the library draws from a :class:`Stream` obtained
through :func:`stream`. A stream is keyed by a 64-bit unsigned seed plus a
purpose key (a tag string and optional integer indices, e.g.
``stream(seed, "epoch", 3)``), mixed through ``numpy.random.
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

Stream keys used across the library:

======================  =====================================================
``("split",)``          the data split: one shuffle of all rows
                        (``global_random``), or one per user, drawn in turn
                        in user index order (``per_user_random``)
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
        """Random permutation of range(n) by sorting random keys (stable):
        the top 53 bits of ``n`` words, the bits of :meth:`uniform`."""
        # as int64, which numpy sorts faster than uint64 or float64
        return np.argsort((self.raw(n) >> np.uint64(11)).view(np.int64), kind="stable")


def stream(seed: int, *key: int | str) -> Stream:
    """Open the deterministic stream identified by ``(seed, key)``."""
    entropy = [check_seed(seed)] + [_key_part(p) for p in key]
    return Stream(np.random.SeedSequence(entropy))
