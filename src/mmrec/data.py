"""Interaction ingestion, k-core filtering, ID remapping and splitting.

The raw input is a UTF-8 TSV with a header naming at least ``userID`` and
``itemID`` columns; ``rating`` and ``timestamp`` columns are optional. The
pipeline is pure and deterministic: parse -> dedupe -> k-core -> id maps ->
split, ending in a :class:`Dataset` whose train/valid/test splits are stored
CSR-style (row offsets plus sorted column indices).

Interactions travel through the pipeline as one columnar
:class:`Interactions` table: the sorted distinct raw user and item IDs, an
int64 code per row into each (so code order is the lexicographic order of
the raw IDs), a float64 rating (NaN where absent) and an int64 timestamp
with a presence mask. Every stage takes such a table and works on whole
columns; :meth:`Interactions.from_records` builds one from
:class:`InteractionRecord` objects in memory. The rules:

- parsing takes its lines from :mod:`mmrec.fileio` under mmrec's one line
  rule, and the first line kept is the header. An empty rating or
  timestamp field is absent. Ratings go through ``float`` and must be
  finite; timestamps go through ``int`` and must fit in int64. One bulk
  check per rule (field count, empty ID, rating, timestamp, in that order)
  finds its first bad row and that row's message; the earliest line raises
  :class:`MalformedLine` with its 1-based number in the input and its
  first failed check's message. So does a file that is not UTF-8.
  :func:`read_interactions` reads a file's bytes into one buffer and
  :func:`parse_interactions` encodes a stream's text once; both enter one
  bytes parser: it finds the fields by their tab offsets within the kept
  lines, reads numbers and ID keys as 8-byte words of the buffer, and
  factorizes each ID column with one exact sort of its rows' key words,
  decoding only the distinct IDs;
- dedupe keeps one row per (user, item) pair, the one with the greatest
  ``float(timestamp)``; a missing timestamp compares lowest and the later
  input position wins a tie. The result is sorted by raw (user, item) IDs;
- the k-core keeps the largest subset in which every user and item has at
  least k rows, in input order;
- dense user and item indices are assigned in lexicographic order of the
  raw ID strings.

:func:`load_dataset` refuses, raising :class:`MalformedDataset`, a file
that is not UTF-8, a ``meta`` without integer sizes, and a pair or map
file with a wrong field count, a non-integer index or an index outside
the sizes in ``meta``, naming the file and the earliest bad line. It
reads each file's bytes through the same reader, line rule and parser, so
a raw ID may hold a lone ``\\r``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Iterable, TextIO

import numpy as np

from .errors import (
    EmptyDataset,
    MalformedDataset,
    MalformedHeader,
    MalformedLine,
    MissingTimestamps,
)
from .fileio import PAD, at_line, atomic_write, line_spans, read_meta, read_padded, write_meta
from .rng import check_seed, stream

SPLIT_STRATEGIES = ("per_user_random", "global_random", "temporal_leave_last")
_INT64 = np.iinfo(np.int64)
_TRAIN, _VALID, _TEST = 0, 1, 2


@dataclass(frozen=True)
class InteractionRecord:
    raw_user_id: str
    raw_item_id: str
    rating: float | None = None
    timestamp: int | None = None


@dataclass(frozen=True, eq=False)
class Interactions:
    """Columnar interaction table, one row per interaction.

    ``users`` and ``items`` are int64 codes into the sorted distinct raw IDs
    ``user_ids`` and ``item_ids`` (object arrays of ``str``). A subset made
    by :meth:`take` keeps the full ID arrays, so not every ID needs a row.
    """

    user_ids: np.ndarray
    item_ids: np.ndarray
    users: np.ndarray
    items: np.ndarray
    rating: np.ndarray  # float64, NaN where absent
    timestamp: np.ndarray  # int64, 0 where absent
    has_timestamp: np.ndarray  # bool

    @classmethod
    def from_records(cls, records: Iterable[InteractionRecord]) -> "Interactions":
        records = list(records)
        # np.unique on object arrays compares the str objects themselves
        users = np.array([r.raw_user_id for r in records], dtype=object)
        items = np.array([r.raw_item_id for r in records], dtype=object)
        user_ids, users = np.unique(users, return_inverse=True)
        item_ids, items = np.unique(items, return_inverse=True)
        return cls(
            user_ids,
            item_ids,
            users,
            items,
            np.array([np.nan if r.rating is None else r.rating for r in records], dtype=np.float64),
            np.array([r.timestamp or 0 for r in records], dtype=np.int64),
            np.array([r.timestamp is not None for r in records], dtype=bool),
        )

    def take(self, rows: np.ndarray) -> "Interactions":
        """The table's ``rows``, in that order."""
        return replace(
            self,
            users=self.users[rows],
            items=self.items[rows],
            rating=self.rating[rows],
            timestamp=self.timestamp[rows],
            has_timestamp=self.has_timestamp[rows],
        )

    def __len__(self) -> int:
        return int(self.users.shape[0])


@dataclass(frozen=True)
class FilterParams:
    """Minimum interaction count applied to both users and items."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


def check_ratios(ratios) -> tuple[float, ...]:
    """The ratios as a tuple; ValueError unless three, non-negative, summing to 1, train above 0."""
    ratios = tuple(ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError("ratios must be three non-negative numbers")
    if not abs(sum(ratios) - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    if ratios[0] <= 0:
        raise ValueError("train ratio must be positive")
    return ratios


@dataclass(frozen=True)
class SplitSpec:
    strategy: str
    ratios: tuple[float, float, float]
    seed: int

    def __post_init__(self):
        if self.strategy not in SPLIT_STRATEGIES:
            raise ValueError(f"unknown split strategy {self.strategy!r}")
        check_ratios(self.ratios)
        check_seed(self.seed)


class InteractionSet:
    """Sparse user -> item adjacency: row offsets plus sorted column indices."""

    def __init__(self, n_rows: int, n_cols: int, indptr: np.ndarray, indices: np.ndarray):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)

    @classmethod
    def from_arrays(
        cls, rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
    ) -> "InteractionSet":
        """The pairs ``(rows[j], cols[j])``, sorted; duplicates are kept.
        ValueError for a column outside ``[0, n_cols)``, or if the sort keys
        ``row * n_cols + col`` may pass int64."""
        if int(n_rows) * int(n_cols) > _INT64.max:
            raise ValueError(f"{n_rows} x {n_cols} pairs do not fit in int64 keys")
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if np.any((cols < 0) | (cols >= n_cols)):
            raise ValueError(f"column index outside [0, {n_cols})")
        keys = np.sort(rows * n_cols + cols)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(n_rows, n_cols, indptr, keys % n_cols)

    def row(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        rows = np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr))
        return rows, self.indices.copy()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, InteractionSet)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass
class Dataset:
    n_users: int
    n_items: int
    user_map: dict[str, int]
    item_map: dict[str, int]
    train: InteractionSet
    valid: InteractionSet
    test: InteractionSet


# ------------------------------------------------------------------ parsing

# _LOW[c] keeps the low c bytes of a 64-bit word and _HIGH[c] its high c bytes
_LOW = np.array([(1 << 8 * c) - 1 for c in range(9)], dtype=np.uint64)
_HIGH = ~_LOW[::-1]
_ZEROS = np.uint64(0x3030303030303030)  # "00000000"
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_SIXES = np.uint64(0x0606060606060606)


def _sorted_groups(words: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts the rows by their key words, most significant
    word first, and whether each sorted row's key differs from the one
    before it."""
    # least significant word first; only the later sorts must be stable
    order = np.argsort(words[-1])
    for w in words[-2::-1]:
        order = order[np.argsort(w[order], kind="stable")]
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for w in words:
        w = w[order]
        new[1:] |= w[1:] != w[:-1]
    return order, new


class _Fields:
    """Lines of a ``PAD``-padded UTF-8 buffer split into fields in bulk, as
    byte spans.

    ``lines`` are (start, end, 0-based line number) arrays of the lines to
    split, a tail of what :func:`mmrec.fileio.line_spans` gives; spans are
    offsets in ``buf``. The rows are those lines up to the first one without
    ``n_cols`` fields; ``errors`` holds that line's (row, message) pair, if
    there is one, and ``line_index`` gives each row's line number. Row
    ``r``'s field ``c`` spans ``bounds[r, c] + 1`` to ``bounds[r, c + 1]``:
    the first bound is one before the line's start, then come the tabs and
    the line's end.
    """

    def __init__(self, buf: bytes | bytearray, lines: tuple[np.ndarray, ...], n_cols: int):
        starts, ends, self.line_index = lines
        self.bytes = b = np.frombuffer(buf, dtype=np.uint8)
        # entry i is buf bytes [i, i + 8) as one big-endian number: an
        # unaligned strided view, no copy
        self._words = np.ndarray((b.size - 7,), ">u8", buf, 0, (1,))
        lo = int(starts[0]) if starts.size else b.size
        tabs = np.flatnonzero(b[lo:] == 9)
        tabs += lo
        # no tab lies between one line's end and the next line's start
        n_tabs = np.diff(np.searchsorted(tabs, ends), prepend=0)
        bad = np.flatnonzero(n_tabs != n_cols - 1)[:1]
        self.errors = [(int(r), f"expected {n_cols} fields, got {n_tabs[r] + 1}") for r in bad]
        n = int(bad[0]) if bad.size else starts.size
        # the rows before the first bad one hold n_cols - 1 tabs each, and
        # skipped lines hold none, so the rows' tabs are the first ones
        self.bounds = np.empty((n, n_cols + 1), dtype=np.int64)
        self.bounds[:, 0] = starts[:n] - 1
        self.bounds[:, 1:-1] = tabs[: n * (n_cols - 1)].reshape(n, n_cols - 1)
        self.bounds[:, -1] = ends[:n]

    def __len__(self) -> int:
        return self.bounds.shape[0]

    def span(self, col: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row's field ``col`` as (start, end) offsets."""
        return self.bounds[:, col] + 1, self.bounds[:, col + 1]

    def load(self, pos: np.ndarray) -> np.ndarray:
        """Bytes ``[pos, pos + 8)`` for each ``pos``, as big-endian uint64.
        A ``pos`` off the buffer is moved onto it, so callers mask every
        byte outside their field."""
        return self._words[np.clip(pos, 0, self._words.size - 1)].astype(np.uint64)

    def key_words(self, col: int) -> tuple[list[np.ndarray], np.ndarray]:
        """Field ``col``'s keys as word arrays, most significant first, and
        each row's byte length.

        A field's key is its UTF-8 bytes, zero-padded, then its length, read
        as big-endian 64-bit words: keys sort in code-point order, and the
        length tells "a" from "a\\0".
        """
        start, end = self.span(col)
        length = end - start
        width = int(length.max(initial=0))
        len_bytes = max(1, -(-width.bit_length() // 8))
        words = [
            self.load(start + 8 * k) & _HIGH[np.clip(length - 8 * k, 0, 8)]
            for k in range((width + len_bytes + 7) // 8)
        ]
        # the length fills the low bytes of the last word, after every text
        words[-1] |= length.astype(np.uint64)
        return words, length

    def column(self, col: int) -> tuple[list[str], np.ndarray]:
        """Field ``col``'s distinct texts in code-point order, and each row's
        index into them: one exact sort of the rows' key words."""
        words, length = self.key_words(col)
        order, new = _sorted_groups(words)
        codes = np.empty(order.size, dtype=np.int64)
        codes[order] = np.cumsum(new) - 1
        first = order[new]
        keys = np.stack([w[first] for w in words], axis=1)
        del words, order, new
        return _decode(keys, length[first]), codes


def _decode(keys: np.ndarray, length: np.ndarray) -> list[str]:
    """The texts whose key words are the rows of ``keys`` and whose byte
    lengths are ``length``, in one decode."""
    # each key's bytes in text order; a tab ends each text, over the first
    # byte of padding or of the length
    b = keys.astype(">u8").view(np.uint8)
    b[np.arange(b.shape[0]), length] = ord("\t")
    text = b[np.arange(b.shape[1]) <= length[:, None]].tobytes()
    return text.decode("utf-8", "surrogatepass").split("\t")[:-1]


def _fits_int64(value: int) -> bool:
    return _INT64.min <= value <= _INT64.max


def _digit_values(d: np.ndarray) -> np.ndarray:
    """The number each word spells, read big-endian as eight decimal
    digits, one byte each (0 to 9)."""
    # digit pairs in 16-bit lanes, then fours in 32-bit lanes, then eight
    d = (d >> np.uint64(8) & np.uint64(0x00FF00FF00FF00FF)) * np.uint64(10) + (
        d & np.uint64(0x00FF00FF00FF00FF)
    )
    d = (d >> np.uint64(16) & np.uint64(0x0000FFFF0000FFFF)) * np.uint64(100) + (
        d & np.uint64(0x0000FFFF0000FFFF)
    )
    return (d >> np.uint64(32)) * np.uint64(10000) + (d & np.uint64(0xFFFFFFFF))


def _decimal_ints(fields: _Fields, col: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Field ``col`` as (int64 values, presence) when every non-empty field
    is an optional ``-`` and 1 to 18 ASCII digits, else None."""
    start, end = fields.span(col)
    present = end > start
    negative = present & (fields.bytes[start] == ord("-"))
    n_digits = end - start - negative
    del start
    if np.any(present & ((n_digits < 1) | (n_digits > 18))):
        return None
    values = np.zeros(n_digits.size, dtype=np.int64)
    # eight digits per word, counted back from the units digit: xor with
    # "0" turns a digit into its value, and the bytes before a field's
    # first digit are masked to 0
    for k in range((int(n_digits.max(initial=0)) + 7) // 8):
        d = fields.load(end - 8 * (k + 1))
        d ^= _ZEROS
        d &= _LOW[np.clip(n_digits - 8 * k, 0, 8)]
        # a byte was a digit when it and the byte 6 above it are below 16
        if np.any(d & _HIGH_NIBBLES) or np.any((d + _SIXES) & _HIGH_NIBBLES):
            return None
        values += _digit_values(d).astype(np.int64) * 10 ** (8 * k)
    return np.where(negative, -values, values), present


def _distinct_numbers(
    fields: _Fields, col: int, convert, valid, missing, messages: tuple[str, str]
) -> tuple[np.ndarray, list[tuple[int, str]]]:
    """Field ``col`` through ``convert``, once per distinct text: each row's
    value (``missing``, which sets the dtype, where empty), and the first row
    whose text raises ValueError (``messages[0]``) or gives a value that is
    not ``valid`` (``messages[1]``), as a list of at most one (row, message)."""
    texts, codes = fields.column(col)
    values = np.full(len(texts), missing)
    errors: list[str | None] = [None] * len(texts)
    for j, text in enumerate(texts):
        if text:
            try:
                value = convert(text)
            except ValueError:
                errors[j] = messages[0].format(text)
                continue
            if valid(value):
                values[j] = value
            else:
                errors[j] = messages[1].format(text)
    bad = np.array([e is not None for e in errors], dtype=bool)
    return values[codes], [(int(r), errors[codes[r]]) for r in np.flatnonzero(bad[codes])[:1]]


def _int_column(
    fields: _Fields, col: int, messages: tuple[str, str]
) -> tuple[np.ndarray, np.ndarray, list[tuple[int, str]]]:
    """Field ``col`` through Python's ``int``: int64 values (0 where empty),
    presence, and the first row that is not an integer (``messages[0]``) or
    not in int64 (``messages[1]``), as in :func:`_distinct_numbers`."""
    parsed = _decimal_ints(fields, col)
    if parsed is not None:
        return *parsed, []
    values, errors = _distinct_numbers(fields, col, int, _fits_int64, np.int64(0), messages)
    start, end = fields.span(col)
    return values, end > start, errors


def _parse(buf: bytes | bytearray) -> Interactions:
    """:func:`parse_interactions` of the bytes between ``PAD`` bytes on
    each side of ``buf``; the first kept line is the header."""
    starts, ends, index = line_spans(buf)
    if not starts.size:
        raise MalformedHeader("empty input, no header line")
    columns = buf[starts[0]:ends[0]].decode("utf-8", "surrogatepass").split("\t")
    if "userID" not in columns or "itemID" not in columns:
        raise MalformedHeader(f"header must name userID and itemID, got {columns}")
    fields = _Fields(buf, (starts[1:], ends[1:], index[1:]), len(columns))
    del starts, ends  # free them before the columns are built

    # each check adds its first bad row and message; for one row they are
    # listed in the order the checks run
    errors = list(fields.errors)
    user_ids, users = fields.column(columns.index("userID"))
    item_ids, items = fields.column(columns.index("itemID"))
    for ids, codes in ((user_ids, users), (item_ids, items)):
        if ids and ids[0] == "":  # the empty ID sorts first
            errors += [(int(r), "empty user or item ID") for r in np.flatnonzero(codes == 0)[:1]]
    rating = np.full(len(fields), np.nan)
    if "rating" in columns:
        messages = ("bad rating {!r}", "non-finite rating {!r}")
        col = columns.index("rating")
        rating, found = _distinct_numbers(fields, col, float, math.isfinite, np.nan, messages)
        errors += found
    timestamp, has_timestamp = np.zeros(len(fields), dtype=np.int64), np.zeros(len(fields), dtype=bool)
    if "timestamp" in columns:
        messages = ("bad timestamp {!r}", "timestamp {!r} outside int64")
        timestamp, has_timestamp, found = _int_column(fields, columns.index("timestamp"), messages)
        errors += found

    if errors:
        row, message = min(errors, key=lambda error: error[0])
        raise MalformedLine(int(fields.line_index[row]) + 1, message)
    return Interactions(
        np.array(user_ids, dtype=object),
        np.array(item_ids, dtype=object),
        users,
        items,
        rating,
        timestamp,
        has_timestamp,
    )


def parse_interactions(source: TextIO) -> Interactions:
    """Parse a TSV text stream into a table, preserving order.

    Raises MalformedHeader if userID or itemID is absent, MalformedLine for
    the first row with a wrong field count, an empty ID, a rating that is
    not a finite float, or a timestamp that is not an int64 integer. Line
    numbers are 1-based and count every line. The header is the first line
    kept under the line rule of :mod:`mmrec.fileio`.
    """
    pad = bytes(PAD)
    return _parse(b"".join((pad, source.read().encode("utf-8", "surrogatepass"), pad)))


def read_interactions(path: str | os.PathLike) -> Interactions:
    """:func:`parse_interactions` of a file's bytes, read into one buffer.
    Bytes that are not UTF-8 raise MalformedLine."""
    return _parse(read_padded(path, MalformedLine))


# ------------------------------------------------------------ the pipeline

def dedupe_interactions(table: Interactions) -> Interactions:
    """One row per (user, item) pair, sorted by raw IDs.

    The kept row is the one with the greatest ``float(timestamp)``; missing
    timestamps compare lowest, and ties fall to the later input position.
    Its int64 pair keys need ``len(user_ids) * len(item_ids)`` to fit.
    """
    # one int64 code per (user, item) pair, ordered like the raw ID pairs
    pair = table.users * len(table.item_ids) + table.items
    stamp = np.where(table.has_timestamp, table.timestamp.astype(np.float64), -np.inf)
    # each pair's rows in one run, in no particular order within it; keep the
    # run's latest stamp, and of the rows at it the one latest in the input
    order = np.argsort(pair)
    pair, stamp = pair[order], stamp[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = pair[1:] != pair[:-1]
    first, run = np.flatnonzero(new), np.cumsum(new) - 1
    latest = stamp == np.maximum.reduceat(stamp, first)[run]
    return table.take(np.maximum.reduceat(np.where(latest, order, -1), first))


def k_core_filter(table: Interactions, params: FilterParams) -> Interactions:
    """Largest subset where every user and item keeps >= k interactions.

    Drops every row of an under-threshold user or item, round after round,
    until a round drops nothing; the fixpoint is unique, so the peeling
    order does not matter. Kept rows stay in input order; may be empty.
    """
    rows = np.arange(len(table))
    while rows.size:
        users, items = table.users[rows], table.items[rows]
        keep = (np.bincount(users)[users] >= params.k) & (np.bincount(items)[items] >= params.k)
        if keep.all():
            break
        rows = rows[keep]
    return table.take(rows)


def _dense_map(ids: np.ndarray, codes: np.ndarray) -> dict[str, int]:
    present = ids[np.unique(codes)]
    return dict(zip(present.tolist(), range(len(present))))


def build_id_maps(table: Interactions) -> tuple[dict[str, int], dict[str, int]]:
    """Dense indices assigned in lexicographic order of the raw ID strings."""
    if not len(table):
        raise EmptyDataset("no interactions survive filtering")
    return _dense_map(table.user_ids, table.users), _dense_map(table.item_ids, table.items)


def _split_counts(n: np.ndarray, ratios: tuple[float, float, float]) -> tuple[np.ndarray, np.ndarray]:
    """(n_test, n_valid) per user under the floor rule with the small-user guard."""
    _, r_valid, r_test = ratios
    n_test = np.floor(r_test * n).astype(np.int64)
    n_valid = np.floor(r_valid * n).astype(np.int64)
    if r_test > 0:
        n_test = np.maximum(1, n_test)
    if r_valid > 0:
        n_valid = np.maximum(1, n_valid)
    # never leave a user without a train interaction; shrink valid before test
    over = n_test + n_valid >= n
    n_valid = np.where(over, np.minimum(n_valid, np.maximum(0, n - 1 - n_test)), n_valid)
    n_test = np.where(over, np.minimum(n_test, n - 1 - n_valid), n_test)
    small = n < 3
    return np.where(small, 0, n_test), np.where(small, 0, n_valid)


def _dense_codes(ids: np.ndarray, codes: np.ndarray, id_map: dict[str, int]) -> np.ndarray:
    present = np.unique(codes)
    lookup = np.zeros(len(ids), dtype=np.int64)
    lookup[present] = np.fromiter(map(id_map.__getitem__, ids[present]), np.int64, len(present))
    return lookup[codes]


def split(table: Interactions, maps: tuple[dict[str, int], dict[str, int]], spec: SplitSpec) -> Dataset:
    """Partition filtered interactions into a train/valid/test Dataset.

    ``per_user_random`` opens the stream ``(seed, "split")`` once and, for
    each user in index order, shuffles the user's items (in item order) with
    the next ``Stream.permutation`` of it, then holds out the first of them.
    All users' words come from one ``raw`` draw. So a user's held-out items
    depend on the seed and on how many rows every earlier user has, not on
    the user alone;
    ``temporal_leave_last`` holds out each user's latest items, ordered by
    (timestamp, item); ``global_random`` shuffles all rows with the stream
    ``(seed, "split")`` and cuts by the ratios, then moves every pair of a
    user left without a train pair back to train. Its int64 sort keys need
    ``n * max(n, n_items)`` to fit, for ``n`` rows, as
    :func:`mmrec.trainer.make_batches` needs ``n_users * n_items``.
    """
    user_map, item_map = maps
    n_users, n_items = len(user_map), len(item_map)
    users = _dense_codes(table.user_ids, table.users, user_map)
    items = _dense_codes(table.item_ids, table.items, item_map)
    n = len(users)

    if spec.strategy == "global_random":
        position = np.empty(n, dtype=np.int64)
        position[stream(spec.seed, "split").permutation(n)] = np.arange(n)
        b_train = int(math.floor(spec.ratios[0] * n))
        b_valid = int(math.floor((spec.ratios[0] + spec.ratios[1]) * n))
        part = np.where(position < b_train, _TRAIN, np.where(position < b_valid, _VALID, _TEST))
        trained = np.bincount(users[part == _TRAIN], minlength=n_users) > 0
        part[~trained[users]] = _TRAIN
    else:
        counts = np.bincount(users, minlength=n_users)
        starts = np.cumsum(counts) - counts
        if spec.strategy == "per_user_random":
            # rows with equal keys are the same pair, so their order is moot
            order = np.argsort(users * n_items + items)
            # each user's sorted rows in shuffled order; held-out items first.
            # Stream.permutation is a stable sort of words, so one permutation
            # of all n rows, ranked within each user's run of rows, is every
            # user's permutation drawn in turn
            rank = np.empty(n, dtype=np.int64)
            rank[stream(spec.seed, "split").permutation(n)] = np.arange(n)
            rows = order[np.argsort(users[order] * n + rank)]
            # free the ranks before the split's output arrays are allocated:
            # held to the end of split, they sat below those arrays in the
            # heap and raised the peak RSS of the training after it by ~5 MB
            del rank
            held = np.empty(n, dtype=np.int64)
            held[rows] = np.arange(n) - starts[users[rows]]
        else:
            if not table.has_timestamp.all():
                u = int(users[~table.has_timestamp].min())
                raise MissingTimestamps(f"user index {u} has interactions without timestamps")
            # dense ranks, so that no key product can overflow
            stamps, stamp_rank = np.unique(table.timestamp, return_inverse=True)
            _, user_time = np.unique(users * len(stamps) + stamp_rank, return_inverse=True)
            order = np.argsort(user_time * n_items + items)
            held = np.empty(n, dtype=np.int64)
            # counted back from each user's latest item
            held[order] = starts[users[order]] + counts[users[order]] - 1 - np.arange(n)
        n_test, n_valid = _split_counts(counts, spec.ratios)
        part = np.where(
            held < n_test[users], _TEST, np.where(held < (n_test + n_valid)[users], _VALID, _TRAIN)
        )

    train, valid, test = (
        InteractionSet.from_arrays(users[part == p], items[part == p], n_users, n_items)
        for p in (_TRAIN, _VALID, _TEST)
    )
    return Dataset(n_users, n_items, user_map, item_map, train, valid, test)


def preprocess(table: Interactions, filter_params: FilterParams, spec: SplitSpec) -> Dataset:
    """dedupe -> k-core -> id maps -> split, in one call."""
    deduped = dedupe_interactions(table)
    filtered = k_core_filter(deduped, filter_params)
    maps = build_id_maps(filtered)
    return split(filtered, maps, spec)


# ------------------------------------------------------------- persistence

def _write_tsv(path: str, line: str, values: list) -> None:
    """``line``, a %-format of two tab-separated fields, once per two
    ``values`` in turn: every line in one format call and one write."""
    with atomic_write(path) as fh:
        fh.write((line * (len(values) // 2)) % tuple(values))


def _read_tsv(path: str) -> _Fields:
    """The two fields of each line of a dataset file, under the line rule.
    :func:`_read_indices` reports bad lines."""
    buf = read_padded(path, at_line(MalformedDataset, path))
    return _Fields(buf, line_spans(buf), 2)


def _read_indices(path: str, fields: _Fields, col: int, what: str, bound: int) -> np.ndarray:
    """Field ``col`` as integers in ``[0, bound)``, or MalformedDataset
    naming the first bad line, one without two fields included."""
    bad = f"bad {what} index {{!r}}"
    values, present, found = _int_column(fields, col, (bad, bad))
    errors = fields.errors + found
    errors += [(int(r), bad.format("")) for r in np.flatnonzero(~present)[:1]]
    outside = np.flatnonzero((values < 0) | (values >= bound))[:1]
    errors += [(int(r), f"{what} index {values[r]} outside [0, {bound})") for r in outside]
    if errors:
        row, message = min(errors, key=lambda error: error[0])
        raise at_line(MalformedDataset, path)(fields.line_index[row] + 1, message)
    return values


def _read_pairs(path: str, n_rows: int, n_cols: int) -> InteractionSet:
    fields = _read_tsv(path)
    return InteractionSet.from_arrays(
        _read_indices(path, fields, 0, "user", n_rows),
        _read_indices(path, fields, 1, "item", n_cols),
        n_rows,
        n_cols,
    )


def _read_map(path: str, size: int, what: str) -> dict[str, int]:
    fields = _read_tsv(path)
    dense = _read_indices(path, fields, 1, what, size)
    ids, codes = fields.column(0)
    if len(ids) != size or not np.array_equal(dense, np.arange(size)):
        raise MalformedDataset(f"{path}: expected {size} distinct IDs indexed 0..{size - 1} in order")
    return dict(zip(map(ids.__getitem__, codes.tolist()), range(size)))


def save_dataset(dataset: Dataset, spec: SplitSpec, out_dir: str | os.PathLike) -> None:
    """Serialize a Dataset to a directory; a pure function of its inputs."""
    os.makedirs(out_dir, exist_ok=True)
    out = os.fspath(out_dir)
    write_meta(os.path.join(out, "meta"), {
        "n_users": dataset.n_users, "n_items": dataset.n_items, "strategy": spec.strategy,
        "ratios": ",".join(repr(float(r)) for r in spec.ratios), "seed": spec.seed,
    })
    for name, id_map in (("umap.tsv", dataset.user_map), ("imap.tsv", dataset.item_map)):
        # in index order, whatever order the dict was filled in
        rows = sorted(id_map.items(), key=lambda item: item[1])
        _write_tsv(os.path.join(out, name), "%s\t%d\n", [field for row in rows for field in row])
    for name in ("train", "valid", "test"):
        pairs = np.column_stack(getattr(dataset, name).pair_arrays())
        _write_tsv(os.path.join(out, f"{name}.tsv"), "%d\t%d\n", pairs.ravel().tolist())


def load_dataset(in_dir: str | os.PathLike) -> Dataset:
    src = os.fspath(in_dir)
    meta_path = os.path.join(src, "meta")
    try:
        meta = read_meta(meta_path)
        n_users, n_items = int(meta["n_users"]), int(meta["n_items"])
    except UnicodeError as exc:
        raise MalformedDataset(str(exc)) from None
    except (KeyError, ValueError):
        raise MalformedDataset(f"{meta_path}: needs integer n_users and n_items")
    return Dataset(
        n_users=n_users,
        n_items=n_items,
        user_map=_read_map(os.path.join(src, "umap.tsv"), n_users, "user"),
        item_map=_read_map(os.path.join(src, "imap.tsv"), n_items, "item"),
        train=_read_pairs(os.path.join(src, "train.tsv"), n_users, n_items),
        valid=_read_pairs(os.path.join(src, "valid.tsv"), n_users, n_items),
        test=_read_pairs(os.path.join(src, "test.tsv"), n_users, n_items),
    )
