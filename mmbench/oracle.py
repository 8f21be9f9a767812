"""Independent numpy reference for the outputs the benchmark checks.

Nothing here imports ``mmrec``: the k-core, the dataset and checkpoint
readers, feature alignment, graph propagation and the full-sort metrics are
written again from the protocol, so a defect in the program cannot hide in
the check.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import scipy.sparse as sp

METRICS = ("recall", "precision", "ndcg", "map")
_CHUNK = 2048


def k_core_pairs(users: np.ndarray, items: np.ndarray, k: int):
    """Vectorized k-core over distinct (user, item) pairs.

    Each round drops every pair whose user or item has fewer than ``k``
    pairs left; returns the kept pairs and the number of peeling rounds.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    rounds = 0
    while users.size:
        u_deg = np.bincount(users)[users]
        i_deg = np.bincount(items)[items]
        keep = (u_deg >= k) & (i_deg >= k)
        if keep.all():
            break
        users, items = users[keep], items[keep]
        rounds += 1
    return users, items, rounds


# ---------------------------------------------------------------- readers

def read_mmf(path: str, magic: bytes) -> np.ndarray:
    dtype = np.dtype("<f4") if magic == b"MMF1" else np.dtype("<f8")
    with open(path, "rb") as fh:
        if fh.read(4) != magic:
            raise ValueError(f"{path}: not an {magic.decode()} file")
        rows, cols = struct.unpack("<II", fh.read(8))
        values = np.frombuffer(fh.read(), dtype=dtype)
    if values.size != rows * cols:
        raise ValueError(f"{path}: payload holds {values.size} values, header says {rows}x{cols}")
    return values.reshape(rows, cols).astype(np.float64)


def _read_kv(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                key, _, value = line.partition(":")
                out[key.strip()] = value.strip()
    return out


def _read_csr(path: str, n_rows: int, n_cols: int) -> sp.csr_matrix:
    pairs = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
    if pairs.size == 0:
        return sp.csr_matrix((n_rows, n_cols))
    ones = np.ones(len(pairs))
    return sp.csr_matrix((ones, (pairs[:, 0], pairs[:, 1])), shape=(n_rows, n_cols))


def read_dataset(path: str) -> dict:
    meta = _read_kv(os.path.join(path, "meta"))
    n_users, n_items = int(meta["n_users"]), int(meta["n_items"])
    with open(os.path.join(path, "imap.tsv"), encoding="utf-8") as fh:
        item_map = {raw: int(dense) for raw, dense in (l.rstrip("\n").split("\t") for l in fh if l.strip())}
    splits = {
        name: _read_csr(os.path.join(path, f"{name}.tsv"), n_users, n_items)
        for name in ("train", "valid", "test")
    }
    return {"n_users": n_users, "n_items": n_items, "item_map": item_map, **splits}


def read_checkpoint(path: str) -> dict:
    meta = _read_kv(os.path.join(path, "meta"))
    tensors = {
        name: read_mmf(os.path.join(path, f"{name}.mmf8"), b"MMF8")
        for name in meta["tensors"].split(",")
    }
    return {"meta": meta, "tensors": tensors}


# --------------------------------------------------------------- features

def fused_features(feature_files: dict[str, tuple[str, str]], item_map: dict[str, int]) -> np.ndarray:
    """Mean-imputed per-modality features, concatenated text before image."""
    n_items = len(item_map)
    blocks = []
    for modality in ("text", "image", "audio", "video"):
        if modality not in feature_files:
            continue
        matrix_path, ids_path = feature_files[modality]
        values = read_mmf(matrix_path, b"MMF1")
        with open(ids_path, encoding="utf-8") as fh:
            row_ids = [line.rstrip("\n") for line in fh if line.strip()]
        dense = np.array([item_map.get(r, -1) for r in row_ids])
        known = dense >= 0
        block = np.empty((n_items, values.shape[1]))
        block[:] = values[known].mean(axis=0)
        block[dense[known]] = values[known]
        blocks.append(block)
    return np.hstack(blocks)


def _normalized_adjacency(train: sp.csr_matrix) -> sp.csr_matrix:
    n_u, n_i = train.shape
    coo = train.tocoo()
    deg = np.concatenate([np.bincount(coo.row, minlength=n_u), np.bincount(coo.col, minlength=n_i)])
    scale = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1)), 0.0)
    w = scale[coo.row] * scale[n_u + coo.col]
    upper = sp.csr_matrix((w, (coo.row, n_u + coo.col)), shape=(n_u + n_i, n_u + n_i))
    return (upper + upper.T).tocsr()


def representations(ckpt: dict, dataset: dict, fused: np.ndarray | None):
    """(user rows, item rows) whose inner products are the model's scores."""
    t, meta = ckpt["tensors"], ckpt["meta"]
    kind = meta["kind"]
    if kind == "mf_bpr":
        return t["user_emb"], t["item_emb"]
    if kind == "graph_mm":
        e = np.vstack([t["user_emb"], t["item_emb"] + fused @ t["mod_proj"]])
        adj = _normalized_adjacency(dataset["train"])
        layers = int(meta["n_layers"])
        total, acc = e.copy(), e
        for _ in range(layers):
            acc = adj @ acc
            total += acc
        total /= layers + 1
        n_u = dataset["n_users"]
        return total[:n_u], total[n_u:]
    raise ValueError(f"oracle does not cover model kind {kind!r}")


# ---------------------------------------------------------------- ranking

def ranked_lists(user_rep, item_rep, train: sp.csr_matrix, users: np.ndarray, k: int) -> np.ndarray:
    """Top-``k`` item lists, train items excluded, ordered by (-score, item);
    short lists are padded with -1."""
    out = np.full((users.size, k), -1, dtype=np.int64)
    for start in range(0, users.size, _CHUNK):
        chunk = users[start:start + _CHUNK]
        scores = user_rep[chunk] @ item_rep.T
        seen = train[chunk].tocoo()
        scores[seen.row, seen.col] = -np.inf
        kk = min(k, scores.shape[1])
        thresh = -np.partition(-scores, kk - 1, axis=1)[:, kk - 1]
        rows, cols = np.nonzero((scores >= thresh[:, None]) & np.isfinite(scores))
        order = np.lexsort((cols, -scores[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        first = np.searchsorted(rows, np.arange(chunk.size))
        rank = np.arange(rows.size) - first[rows]
        take = rank < k
        out[start + rows[take], rank[take]] = cols[take]
    return out


def metric_table(lists: np.ndarray, truth: sp.csr_matrix, users: np.ndarray, cutoffs) -> dict:
    """Mean Recall, Precision, NDCG and MAP per cutoff over ``users``."""
    truth = truth[users].tocsr()
    truth.sort_indices()
    n_true = np.diff(truth.indptr)
    flat = truth.indices + truth.shape[1] * np.repeat(np.arange(users.size), n_true)
    keys = lists + truth.shape[1] * np.arange(users.size)[:, None]
    pos = np.clip(np.searchsorted(flat, keys), 0, flat.size - 1)
    hits = ((flat[pos] == keys) & (lists >= 0)).astype(np.float64)
    ranks = np.arange(1, lists.shape[1] + 1, dtype=np.float64)
    gains = 1.0 / np.log2(ranks + 1.0)
    cum_hits = np.cumsum(hits, axis=1)
    cum_gain = np.cumsum(hits * gains, axis=1)
    cum_prec = np.cumsum(hits * cum_hits / ranks, axis=1)
    ideal = np.concatenate([[0.0], np.cumsum(gains)])
    values = {m: {} for m in METRICS}
    for k in cutoffs:
        denom = np.minimum(n_true, k)
        values["recall"][k] = float(np.mean(cum_hits[:, k - 1] / n_true))
        values["precision"][k] = float(np.mean(cum_hits[:, k - 1] / k))
        values["ndcg"][k] = float(np.mean(cum_gain[:, k - 1] / ideal[denom]))
        values["map"][k] = float(np.mean(cum_prec[:, k - 1] / denom))
    return values
