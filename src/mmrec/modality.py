"""Per-modality item feature tables: loading, alignment and fusion.

Feature matrices arrive precomputed in the MMF1 binary format (magic
``MMF1``, uint32-LE rows, uint32-LE cols, float32-LE row-major values) with
a companion UTF-8 ID file, one raw item ID per line in row order. A variant
magic ``MMF8`` stores float64 values with the same layout and is used for
model checkpoints.

Canonical modality order is text < image < audio < video; every operation
that depends on modality order applies it internally.

Feature files stay float32 in memory; :func:`align_features` widens them to
float64 a bounded block of rows at a time, straight into its destination.
An experiment aligns every modality into column blocks of one shared
float64 table laid out in canonical order, so concat fusion of those tables
is that table itself and costs no copy (see :func:`fuse`).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllMissing,
    BadMagic,
    DimensionMismatch,
    EmptyList,
    NonFiniteValue,
)
from .fileio import at_line, atomic_write, read_lines

MODALITIES = ("text", "image", "audio", "video")
_MODALITY_RANK = {name: rank for rank, name in enumerate(MODALITIES)}
_MAGIC_DTYPE = {b"MMF1": np.dtype("<f4"), b"MMF8": np.dtype("<f8")}
FUSION_METHODS = ("concat", "sum", "mean")
IMPUTATION_POLICIES = ("zeros", "mean")
_BLOCK_ROWS = 256  # rows widened at a time: 8 MB of float64 scratch at 4096-d


@dataclass
class FeatureMatrix:
    """Dense feature rows keyed by raw item IDs, as read from disk."""

    values: np.ndarray
    row_ids: list[str]

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass
class ModalityTable:
    """Features of one modality aligned to dense item indices."""

    kind: str
    features: np.ndarray
    present_mask: np.ndarray

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_items(self) -> int:
        return self.features.shape[0]


def write_matrix(path: str | os.PathLike, values: np.ndarray, magic: bytes = b"MMF1") -> None:
    """Write a 2-D matrix in the MMF binary layout."""
    dtype = _MAGIC_DTYPE[magic]
    values = np.ascontiguousarray(values, dtype=dtype)
    rows, cols = values.shape
    with atomic_write(path, binary=True) as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", rows, cols))
        fh.write(values.tobytes())


def _parse_header(fh, path: str | os.PathLike, magic: bytes) -> tuple[int, int]:
    """Check the magic and the header of an open MMF file against the file's
    size, before anything of the payload's size is allocated."""
    got = fh.read(4)
    if got != magic:
        raise BadMagic(f"{os.fspath(path)}: expected {magic!r}, found {got!r}")
    header = fh.read(8)
    if len(header) != 8:
        raise DimensionMismatch(f"{os.fspath(path)}: truncated header")
    rows, cols = struct.unpack("<II", header)
    size = rows * cols * _MAGIC_DTYPE[magic].itemsize
    stored = os.fstat(fh.fileno()).st_size - fh.tell()
    if stored < size:
        raise DimensionMismatch(
            f"{os.fspath(path)}: truncated payload, {stored} bytes for a {rows}x{cols} header"
        )
    if stored > size:
        raise DimensionMismatch(f"{os.fspath(path)}: trailing bytes after the {rows}x{cols} payload")
    return rows, cols


def _read_payload(fh, path: str | os.PathLike, rows: int, cols: int, magic: bytes) -> np.ndarray:
    values = np.empty((rows, cols), dtype=_MAGIC_DTYPE[magic])
    if fh.readinto(memoryview(values).cast("B")) != values.nbytes:
        raise DimensionMismatch(f"{os.fspath(path)}: truncated payload")
    return values


def read_header(path: str | os.PathLike) -> tuple[int, int]:
    """The (rows, cols) of an MMF1 feature file, checked as
    :func:`load_feature_matrix` checks it."""
    with open(path, "rb") as fh:
        return _parse_header(fh, path, b"MMF1")


def read_matrix(path: str | os.PathLike, magic: bytes = b"MMF1") -> np.ndarray:
    """Read an MMF matrix; a header that disagrees with the file's size
    raises DimensionMismatch before anything is allocated."""
    with open(path, "rb") as fh:
        rows, cols = _parse_header(fh, path, magic)
        return _read_payload(fh, path, rows, cols, magic)


def load_feature_matrix(matrix_path: str | os.PathLike, ids_path: str | os.PathLike) -> FeatureMatrix:
    """Read an MMF1 matrix plus its ID file, keeping the float32 values.

    The ID file is read by :func:`mmrec.fileio.read_lines`, under its line
    rule: lines end at ``\\n``, their trailing ``\\r`` are stripped, and a
    line is skipped only when that leaves it empty, so an ID of blanks is
    kept. The ID count is checked against the header before the payload is
    read; a byte that is not UTF-8 raises DimensionMismatch with its line.
    NaN/Inf values are rejected.
    """
    with open(matrix_path, "rb") as fh:
        rows, cols = _parse_header(fh, matrix_path, b"MMF1")
        row_ids = [line for _, line in read_lines(ids_path, at_line(DimensionMismatch, ids_path))]
        if len(row_ids) != rows:
            raise DimensionMismatch(f"{len(row_ids)} IDs for {rows} feature rows")
        if len(set(row_ids)) != len(row_ids):
            raise DimensionMismatch("duplicate item IDs in feature ID file")
        values = _read_payload(fh, matrix_path, rows, cols, b"MMF1")
    # min and max propagate NaN, so this finds NaN/Inf without a mask the size of the matrix
    if not (np.isfinite(values.min(initial=0.0)) and np.isfinite(values.max(initial=0.0))):
        bad = np.argwhere(~np.isfinite(values))
        raise NonFiniteValue(int(bad[0, 0]), int(bad[0, 1]))
    return FeatureMatrix(values=values, row_ids=row_ids)


def _blocked_sum(source: np.ndarray, rows: np.ndarray, prepare=None, summed: bool = True):
    """Widen ``source[rows]`` to float64 a block of rows at a time, hand each
    block to ``prepare(start, block)``, which may change it in place, and
    return the column sums of the prepared rows (None if not ``summed``).

    The sums are byte-identical to ``np.add.reduce(..., axis=0)`` over the
    whole prepared matrix. For two or more columns numpy adds rows one after
    another, so each block is reduced with the running sum carried in as the
    row above it. A single column is summed pairwise, so it is widened and
    reduced as one block.
    """
    n, dim = rows.size, source.shape[1]
    block_rows = n if dim == 1 else min(n, _BLOCK_ROWS)
    buf = np.empty((block_rows + 1, dim))  # row 0 holds the carry
    total = None
    for start in range(0, n, block_rows):
        chunk = rows[start : start + block_rows]
        block = buf[1 : chunk.size + 1]
        block[...] = source[chunk]
        if prepare is not None:
            prepare(start, block)
        if not summed:
            continue
        if total is None:
            total = np.add.reduce(block, axis=0)
        else:
            buf[0] = total
            np.add.reduce(buf[: chunk.size + 1], axis=0, out=total)
    return total


def align_features(
    fm: FeatureMatrix,
    item_map: dict[str, int],
    kind: str,
    policy: str = "zeros",
    standardize: bool = False,
    out: np.ndarray | None = None,
) -> ModalityTable:
    """Reorder feature rows to dense item indices, imputing missing items.

    Rows whose raw ID is not in ``item_map`` are dropped. Items without a
    feature row get an all-zero vector (``zeros`` policy) or the element-wise
    mean over present rows (``mean`` policy). With ``standardize`` on, each
    column is shifted to zero mean and scaled to unit variance over the
    present rows before imputation; constant columns are only centred.

    The float64 table is written into ``out`` (an ``(n_items, dim)`` array,
    typically a column block of a wider table) or into a fresh array. Rows
    are widened from ``fm.values`` in blocks, so no gathered copy of the
    present rows is made; means and deviations are byte-identical to
    ``present.mean(axis=0)`` and ``present.std(axis=0)`` over that copy.
    """
    if kind not in _MODALITY_RANK:
        raise ValueError(f"unknown modality {kind!r}")
    if policy not in IMPUTATION_POLICIES:
        raise ValueError(f"unknown imputation policy {policy!r}")
    n_items = len(item_map)
    dim = fm.dim
    if out is not None and out.shape != (n_items, dim):
        raise DimensionMismatch(f"{kind} table needs {(n_items, dim)}, destination is {out.shape}")

    dense_rows = []
    source_rows = []
    for row, raw_id in enumerate(fm.row_ids):
        dense = item_map.get(raw_id)
        if dense is not None:
            dense_rows.append(dense)
            source_rows.append(row)
    if not dense_rows:
        raise AllMissing(f"no retained item has {kind} features")
    dense_rows = np.array(dense_rows, dtype=np.intp)
    source_rows = np.array(source_rows, dtype=np.intp)
    n_present = source_rows.size

    if standardize:
        mu = _blocked_sum(fm.values, source_rows) / n_present

        def centred_square(start, block):
            block -= mu
            np.square(block, out=block)

        sigma = np.sqrt(_blocked_sum(fm.values, source_rows, centred_square) / n_present)
        sigma[sigma == 0.0] = 1.0

    features = np.empty((n_items, dim)) if out is None else out

    def scatter(start, block):
        if standardize:
            block -= mu
            block /= sigma
        features[dense_rows[start : start + block.shape[0]]] = block

    total = _blocked_sum(fm.values, source_rows, scatter, summed=policy == "mean")
    fill = total / n_present if policy == "mean" else np.zeros(dim)

    mask = np.zeros(n_items, dtype=bool)
    mask[dense_rows] = True
    features[~mask] = fill
    return ModalityTable(kind=kind, features=features, present_mask=mask)


def _shared_table(ordered: list[ModalityTable]) -> np.ndarray | None:
    """The read-only table whose column blocks are exactly ``ordered``'s
    features, in order and filling its width; None if there is none."""
    base = ordered[0].features.base
    if (
        not isinstance(base, np.ndarray)
        or base.ndim != 2
        or base.dtype != np.float64
        or base.flags.writeable
        or base.shape != (ordered[0].n_items, sum(t.dim for t in ordered))
    ):
        return None
    address = base.ctypes.data
    for t in ordered:
        f = t.features
        if f.base is not base or f.strides != base.strides or f.ctypes.data != address:
            return None
        address += f.shape[1] * base.itemsize
    return base


def fuse(tables: list[ModalityTable], method: str = "concat") -> np.ndarray:
    """Combine modality tables into one item feature matrix.

    Tables are sorted into canonical modality order first, so concatenation
    cannot depend on caller ordering; sum and mean require equal widths.
    Concat of the column blocks of one read-only shared table (as
    ``experiment.load_modality_tables`` builds) returns that table itself,
    not a copy.
    """
    if not tables:
        raise EmptyList("fusion needs at least one modality table")
    if method not in FUSION_METHODS:
        raise ValueError(f"unknown fusion method {method!r}")
    ordered = sorted(tables, key=lambda t: _MODALITY_RANK[t.kind])
    n_items = ordered[0].n_items
    if any(t.n_items != n_items for t in ordered):
        raise DimensionMismatch("modality tables cover different item counts")
    if method == "concat":
        shared = _shared_table(ordered)
        return shared if shared is not None else np.hstack([t.features for t in ordered])
    dims = {t.dim for t in ordered}
    if len(dims) != 1:
        raise DimensionMismatch(f"{method} fusion needs equal dims, got {sorted(dims)}")
    stacked = np.stack([t.features for t in ordered])
    total = stacked.sum(axis=0)
    return total / len(ordered) if method == "mean" else total
