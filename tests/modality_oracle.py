"""Reference copy of feature loading, alignment and fusion before blocking.

Here the whole float32 matrix is widened to float64 on load, the present
rows are gathered into one temporary, the mean imputation comes from
``present.mean(axis=0)``, and concat fusion always copies with
``np.hstack``. The blocked versions in ``mmrec.modality`` must
give byte-identical tables and fused matrices; the tests compare bytes.
"""

from __future__ import annotations

import numpy as np

from mmrec.errors import AllMissing, DimensionMismatch, EmptyList, NonFiniteValue
from mmrec.modality import (
    _MODALITY_RANK,
    FUSION_METHODS,
    IMPUTATION_POLICIES,
    FeatureMatrix,
    ModalityTable,
    read_matrix,
)


def load_feature_matrix(matrix_path, ids_path) -> FeatureMatrix:
    values = read_matrix(matrix_path, b"MMF1")
    with open(ids_path, encoding="utf-8") as fh:
        row_ids = [line.rstrip("\n") for line in fh if line.strip()]
    if len(row_ids) != values.shape[0]:
        raise DimensionMismatch(f"{len(row_ids)} IDs for {values.shape[0]} feature rows")
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
) -> ModalityTable:
    if kind not in _MODALITY_RANK:
        raise ValueError(f"unknown modality {kind!r}")
    if policy not in IMPUTATION_POLICIES:
        raise ValueError(f"unknown imputation policy {policy!r}")
    n_items = len(item_map)
    dim = fm.dim
    source = fm.values.astype(np.float64)

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
    if not tables:
        raise EmptyList("fusion needs at least one modality table")
    if method not in FUSION_METHODS:
        raise ValueError(f"unknown fusion method {method!r}")
    ordered = sorted(tables, key=lambda t: _MODALITY_RANK[t.kind])
    n_items = ordered[0].n_items
    if any(t.n_items != n_items for t in ordered):
        raise DimensionMismatch("modality tables cover different item counts")
    if method == "concat":
        return np.hstack([t.features for t in ordered])
    dims = {t.dim for t in ordered}
    if len(dims) != 1:
        raise DimensionMismatch(f"{method} fusion needs equal dims, got {sorted(dims)}")
    stacked = np.stack([t.features for t in ordered])
    total = stacked.sum(axis=0)
    return total / len(ordered) if method == "mean" else total
