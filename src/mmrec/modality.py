"""Per-modality item feature tables: loading, alignment and fusion.

Feature matrices arrive precomputed in the MMF1 binary format (magic
``MMF1``, uint32-LE rows, uint32-LE cols, float32-LE row-major values) with
a companion UTF-8 ID file, one raw item ID per line in row order. A variant
magic ``MMF8`` stores float64 values with the same layout and is used for
model checkpoints.

Canonical modality order is text < image < audio < video; every operation
that depends on modality order applies it internally.
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
    DimMismatch,
    EmptyList,
    NonFiniteValue,
)
from .fileio import atomic_write

MODALITIES = ("text", "image", "audio", "video")
_MODALITY_RANK = {name: rank for rank, name in enumerate(MODALITIES)}
_MAGIC_DTYPE = {b"MMF1": np.dtype("<f4"), b"MMF8": np.dtype("<f8")}
FUSION_METHODS = ("concat", "sum", "mean")
IMPUTATION_POLICIES = ("zeros", "mean")


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


def read_matrix(path: str | os.PathLike, magic: bytes = b"MMF1") -> np.ndarray:
    """Read an MMF matrix; a header that disagrees with the file's size
    raises DimensionMismatch before anything is allocated."""
    with open(path, "rb") as fh:
        got = fh.read(4)
        if got != magic:
            raise BadMagic(f"{os.fspath(path)}: expected {magic!r}, found {got!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise DimensionMismatch(f"{os.fspath(path)}: truncated header")
        rows, cols = struct.unpack("<II", header)
        dtype = _MAGIC_DTYPE[magic]
        size = rows * cols * dtype.itemsize
        stored = os.fstat(fh.fileno()).st_size - fh.tell()
        if stored < size:
            raise DimensionMismatch(
                f"{os.fspath(path)}: truncated payload, {stored} bytes for a {rows}x{cols} header"
            )
        if stored > size:
            raise DimensionMismatch(f"{os.fspath(path)}: trailing bytes after the {rows}x{cols} payload")
        values = np.empty((rows, cols), dtype=dtype)
        if fh.readinto(memoryview(values).cast("B")) != size:
            raise DimensionMismatch(f"{os.fspath(path)}: truncated payload")
    return values


def load_feature_matrix(matrix_path: str | os.PathLike, ids_path: str | os.PathLike) -> FeatureMatrix:
    """Read an MMF1 matrix plus its ID file; rejects NaN/Inf values."""
    values = read_matrix(matrix_path, b"MMF1")
    with open(ids_path, encoding="utf-8") as fh:
        row_ids = [line.rstrip("\n") for line in fh if line.strip()]
    if len(row_ids) != values.shape[0]:
        raise DimensionMismatch(
            f"{len(row_ids)} IDs for {values.shape[0]} feature rows"
        )
    if len(set(row_ids)) != len(row_ids):
        raise DimensionMismatch("duplicate item IDs in feature ID file")
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values))
        raise NonFiniteValue(int(bad[0, 0]), int(bad[0, 1]))
    return FeatureMatrix(values=values.astype(np.float64), row_ids=row_ids)


def align_features(
    fm: FeatureMatrix,
    item_map: dict[str, int],
    kind: str,
    policy: str = "zeros",
    standardize: bool = False,
) -> ModalityTable:
    """Reorder feature rows to dense item indices, imputing missing items.

    Rows whose raw ID is not in ``item_map`` are dropped. Items without a
    feature row get an all-zero vector (``zeros`` policy) or the element-wise
    mean over present rows (``mean`` policy). With ``standardize`` on, each
    column is shifted to zero mean and scaled to unit variance over the
    present rows before imputation; constant columns are only centred.
    """
    if kind not in _MODALITY_RANK:
        raise ValueError(f"unknown modality {kind!r}")
    if policy not in IMPUTATION_POLICIES:
        raise ValueError(f"unknown imputation policy {policy!r}")
    n_items = len(item_map)
    dim = fm.dim
    source = fm.values

    dense_rows = []
    source_rows = []
    for row, raw_id in enumerate(fm.row_ids):
        dense = item_map.get(raw_id)
        if dense is not None:
            dense_rows.append(dense)
            source_rows.append(row)
    if not dense_rows:
        raise AllMissing(f"no retained item has {kind} features")

    present = source[source_rows]
    if standardize:
        mu = present.mean(axis=0)
        sigma = present.std(axis=0)
        sigma[sigma == 0.0] = 1.0
        present = (present - mu) / sigma

    if policy == "mean":
        fill = present.mean(axis=0)
    else:
        fill = np.zeros(dim)

    features = np.empty((n_items, dim))
    mask = np.zeros(n_items, dtype=bool)
    features[dense_rows] = present
    mask[dense_rows] = True
    features[~mask] = fill
    return ModalityTable(kind=kind, features=features, present_mask=mask)


def fuse(tables: list[ModalityTable], method: str = "concat") -> np.ndarray:
    """Combine modality tables into one item feature matrix.

    Tables are sorted into canonical modality order first, so concatenation
    cannot depend on caller ordering; sum and mean require equal widths.
    """
    if not tables:
        raise EmptyList("fusion needs at least one modality table")
    if method not in FUSION_METHODS:
        raise ValueError(f"unknown fusion method {method!r}")
    ordered = sorted(tables, key=lambda t: _MODALITY_RANK[t.kind])
    n_items = ordered[0].n_items
    if any(t.n_items != n_items for t in ordered):
        raise DimMismatch("modality tables cover different item counts")
    if method == "concat":
        return np.hstack([t.features for t in ordered])
    dims = {t.dim for t in ordered}
    if len(dims) != 1:
        raise DimMismatch(f"{method} fusion needs equal dims, got {sorted(dims)}")
    stacked = np.stack([t.features for t in ordered])
    total = stacked.sum(axis=0)
    return total / len(ordered) if method == "mean" else total
