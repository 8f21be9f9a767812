"""Seeded input generator for the mmrec benchmark workloads.

Every input is drawn from ``numpy.random.Generator`` seeded by the workload
name and the ``--seed`` value, never from ``mmrec.rng``, so a change to the
program's random streams cannot change what the benchmark feeds it. The
program receives only files: raw interaction TSVs, MMF1 feature matrices
with their ID files, config files and, for ``ingest-eval``, an ``mf_bpr``
checkpoint in the plain MMF8 layout.

Shapes (``SHAPES``) follow the Amazon-Baby data of the MMRec paper
(arXiv 2302.03497) and the CI-sized synthetic workload of the ROADMAP.
``tiny=True`` shrinks every count for the harness self-tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

from oracle import k_core_pairs

GENERATOR_VERSION = 7
# the cutoffs every pass asks for, and the metric of the in-fit validation
TOPK = (5, 10, 20, 50)
STOP_METRIC = "recall@20"

SHAPES = {
    "baby-graph": {
        "users": 19445, "items": 7050, "mean_deg": 8.27, "short_share": 0.01,
        "item_skew": 0.75, "features": {"text": 384, "image": 4096},
        "feature_cover": 0.95, "batch_size": 16384,
    },
    "ci-mf-grid": {
        "users": 5000, "items": 3000, "mean_deg": 41.0, "short_share": 0.0,
        "item_skew": 0.6, "features": {}, "batch_size": 2048,
    },
    "ingest-eval": {
        # Baby's 160k core pairs and items over fewer users, so the
        # evaluation stays short next to the preprocess
        "users": 10000, "items": 7050, "mean_deg": 16.1, "short_share": 0.01,
        "item_skew": 0.75, "features": {},
        # long tail peeled by the 5-core, and the share of duplicated lines
        "tail_users": 255000, "tail_items": 40000, "fringe_users": 3000,
        "dup_share": 0.10,
    },
}

TINY = {
    "users": 240, "items": 120, "tail_users": 900, "tail_items": 300,
    "fringe_users": 40, "features": {"text": 12, "image": 20},
}


def shape_of(workload: str, tiny: bool = False) -> dict:
    shape = dict(SHAPES[workload])
    if tiny:
        for key in ("users", "items", "tail_users", "tail_items", "fringe_users"):
            if key in shape:
                shape[key] = TINY[key]
        if shape["features"]:
            shape["features"] = TINY["features"]
        if workload == "ci-mf-grid":
            shape["mean_deg"] = 12.0
        shape["batch_size"] = 32  # enough loss calls for percentiles
    return shape


def generator_for(workload: str, seed: int, purpose: str) -> np.random.Generator:
    tag = hashlib.sha256(f"{workload}/{purpose}".encode()).digest()[:8]
    return np.random.default_rng([int(seed), int.from_bytes(tag, "little")])


def _raw_ids(rng: np.random.Generator, n: int, prefix: str, width: int) -> np.ndarray:
    """``n`` distinct Amazon-like raw IDs in random lexicographic order."""
    alphabet = np.frombuffer(b"0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ", dtype=np.uint8)
    codes = alphabet[rng.integers(0, 36, size=(n, width))]
    while True:
        ids = codes.view(f"S{width}").ravel()
        _, first = np.unique(ids, return_index=True)
        if first.size == n:
            break
        repeat = np.setdiff1d(np.arange(n), first)
        codes[repeat] = alphabet[rng.integers(0, 36, size=(repeat.size, width))]
    return np.char.add(prefix, ids.astype(f"U{width}")).astype(object)


def _core_pairs(rng: np.random.Generator, shape: dict) -> tuple[np.ndarray, np.ndarray]:
    """User-item pairs with per-user degrees of at least 5 (a small share
    of users gets 4, so the 5-core has something to peel) and item
    popularity falling off as a power law."""
    n_users, n_items = shape["users"], shape["items"]
    extra = shape["mean_deg"] - 5.0
    deg = 4 + rng.geometric(1.0 / (1.0 + extra), size=n_users)
    deg[rng.random(n_users) < shape["short_share"]] = 4
    deg = np.minimum(deg, n_items // 2)

    weights = 1.0 / (np.arange(n_items) + 8.0) ** shape["item_skew"]
    weights = weights[rng.permutation(n_items)]
    weights /= weights.sum()

    draws = (deg * 1.3 + 4).astype(np.int64)
    users = np.repeat(np.arange(n_users), draws)
    items = rng.choice(n_items, size=users.size, p=weights)
    # keep the first occurrence of each pair, then the first deg[u] per user
    _, first = np.unique(users * n_items + items, return_index=True)
    first.sort()
    users, items = users[first], items[first]
    starts = np.searchsorted(users, np.arange(n_users))
    rank = np.arange(users.size) - starts[users]
    keep = rank < deg[users]
    return users[keep], items[keep]


def _tail_pairs(rng: np.random.Generator, shape: dict, n_core_items: int):
    """Long tail for ``ingest-eval``: users with 1-4 interactions, items few
    users touch, and fringe users whose fifth item is a tail item, so the
    5-core peels over several rounds."""
    n_tail_users, n_tail_items = shape["tail_users"], shape["tail_items"]
    deg = rng.integers(1, 5, size=n_tail_users)
    users = np.repeat(np.arange(n_tail_users), deg)
    on_tail = rng.random(users.size) < 0.35
    items = np.where(
        on_tail,
        n_core_items + rng.integers(0, n_tail_items, size=users.size),
        rng.integers(0, n_core_items, size=users.size),
    )
    n_fringe = shape["fringe_users"]
    f_users = np.repeat(np.arange(n_fringe), 5)
    f_items = rng.integers(0, n_core_items, size=f_users.size)
    f_items[4::5] = n_core_items + rng.integers(0, n_tail_items, size=n_fringe)
    return (users, items), (f_users, f_items)


def _write_interactions(path: str, user_ids, item_ids, ratings, stamps) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("userID\titemID\trating\ttimestamp\n")
        fh.writelines(
            f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in zip(user_ids, item_ids, ratings, stamps)
        )


def write_mmf(path: str, values: np.ndarray, magic: bytes) -> None:
    """The MMF layout: magic, uint32-LE rows and cols, row-major LE values."""
    dtype = "<f4" if magic == b"MMF1" else "<f8"
    values = np.ascontiguousarray(values, dtype=dtype)
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<II", *values.shape))
        fh.write(values.tobytes())


def _fitted_embeddings(rng, raw_users, raw_items, d: int):
    """Embeddings that rank each user's own items high, as a trained model
    would, indexed like the program's dataset (raw IDs in sorted order).

    Train items then crowd the top of every list unless they are masked,
    and test items score hits, so the metric check has something to see.
    """
    users, u_idx = np.unique(raw_users, return_inverse=True)
    items, i_idx = np.unique(raw_items, return_inverse=True)
    item_emb = 0.1 * rng.standard_normal((items.size, d))
    taste = np.zeros((users.size, d))
    np.add.at(taste, u_idx, item_emb[i_idx])
    taste /= np.bincount(u_idx, minlength=users.size)[:, None]
    user_emb = 4.0 * taste + 0.05 * rng.standard_normal((users.size, d))
    return item_emb, user_emb


def _write_config(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _features(rng, out_dir: str, item_ids: np.ndarray, shape: dict) -> list[str]:
    lines = []
    n = len(item_ids)
    for modality, dim in sorted(shape["features"].items()):
        covered = item_ids[rng.random(n) < shape["feature_cover"]]
        # feature files also list products the interaction data lacks
        unknown = [f"X{modality[0].upper()}{j:07d}" for j in range(max(1, n // 100))]
        row_ids = np.concatenate([covered, np.array(unknown, dtype=object)])
        row_ids = row_ids[rng.permutation(len(row_ids))]
        values = rng.standard_normal((len(row_ids), dim), dtype=np.float32)
        if modality == "image":
            np.maximum(values, 0.0, out=values)  # CNN activations are non-negative
        write_mmf(os.path.join(out_dir, f"{modality}.mmf1"), values, b"MMF1")
        with open(os.path.join(out_dir, f"{modality}.ids"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(row_ids) + "\n")
        lines.append(f"features.{modality}: {modality}.mmf1,{modality}.ids")
    return lines


def make_inputs(workload: str, seed: int, out_dir: str, tiny: bool = False) -> dict:
    """Write every input of ``workload`` for ``seed`` into ``out_dir`` and
    return a description of them (also written as ``inputs.json``)."""
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}")
    shape = shape_of(workload, tiny)
    os.makedirs(out_dir, exist_ok=True)
    rng = generator_for(workload, seed, "interactions")

    users, items = _core_pairs(rng, shape)
    n_users, n_items = shape["users"], shape["items"]
    if workload == "ingest-eval":
        (t_users, t_items), (f_users, f_items) = _tail_pairs(rng, shape, n_items)
        users = np.concatenate([users, n_users + t_users, n_users + shape["tail_users"] + f_users])
        items = np.concatenate([items, t_items, f_items])
        # repeat pairs inside a user's own list would not be duplicates of a
        # different line, so drop them before adding the deliberate copies
        _, first = np.unique(users * (n_items + shape["tail_items"]) + items, return_index=True)
        first.sort()
        users, items = users[first], items[first]
        n_users += shape["tail_users"] + shape["fringe_users"]
        n_items += shape["tail_items"]
        n_dup = int(round(users.size * shape["dup_share"] / (1.0 - shape["dup_share"])))
        dup = rng.integers(0, users.size, size=n_dup)
        users = np.concatenate([users, users[dup]])
        items = np.concatenate([items, items[dup]])

    order = rng.permutation(users.size)
    users, items = users[order], items[order]
    stamps = rng.integers(1_300_000_000, 1_420_000_000, size=users.size)
    ratings = rng.integers(1, 6, size=users.size)
    user_ids = _raw_ids(rng, n_users, "A", 13)
    item_ids = _raw_ids(rng, n_items, "B0", 8)
    _write_interactions(
        os.path.join(out_dir, "interactions.tsv"), user_ids[users], item_ids[items], ratings, stamps
    )

    info = {
        "workload": workload, "seed": int(seed), "tiny": tiny, "version": GENERATOR_VERSION,
        "raw_lines": int(users.size),
    }
    # the k-core the program must reproduce, from the benchmark's own code
    uniq = np.unique(users * n_items + items)
    core_u, core_i, rounds = k_core_pairs(uniq // n_items, uniq % n_items, 5)
    info.update({
        "distinct_pairs": int(uniq.size), "kcore_rounds": rounds,
        "kcore_users": int(np.unique(core_u).size), "kcore_items": int(np.unique(core_i).size),
        "kcore_pairs": int(core_u.size),
    })

    frng = generator_for(workload, seed, "features")
    config_seed = int(seed) % 2**63
    info["topk"] = ",".join(map(str, TOPK))
    topk = f"topk: [{', '.join(map(str, TOPK))}]"
    if workload == "baby-graph":
        feature_lines = _features(frng, out_dir, item_ids, shape)
        _write_config(os.path.join(out_dir, "train.cfg"), [
            "interactions: interactions.tsv", "k: 5", "split: per_user_random",
            "ratios: [0.8, 0.1, 0.1]", f"seed: {config_seed}", "imputation: mean",
            "fusion: concat", *feature_lines, "model: graph_mm", "d: 64", "n_layers: 2",
            # one epoch without in-fit validation: the valid and test
            # reports already time two full-sort passes of this shape
            f"batch_size: {shape['batch_size']}", "max_epochs: 1", "eval_interval: 2", topk,
        ])
        info["fit_evals"] = 0
    elif workload == "ci-mf-grid":
        info["grid_combos"] = 2
        _write_config(os.path.join(out_dir, "grid.cfg"), [
            "interactions: interactions.tsv", "k: 5", "split: per_user_random",
            "ratios: [0.8, 0.1, 0.1]", f"seed: {config_seed}", "model: mf_bpr", "d: 64",
            f"batch_size: {shape['batch_size']}", "learning_rate: [0.001, 0.005]",
            "max_epochs: 3", "eval_interval: 3", topk, f"stop_metric: {STOP_METRIC}",
        ])
        info["fit_evals"] = 1
        info["stop_metric"] = STOP_METRIC
    else:
        ckpt = os.path.join(out_dir, "checkpoint")
        os.makedirs(ckpt, exist_ok=True)
        n_u, n_i, d = info["kcore_users"], info["kcore_items"], 64
        with open(os.path.join(ckpt, "meta"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(
                f"kind: mf_bpr\nn_users: {n_u}\nn_items: {n_i}\nd: {d}\nd_p: \nn_layers: \n"
                f"lambda_reg: 0.0\nseed: {config_seed}\ntensors: item_emb,user_emb\n"
            )
        item_emb, user_emb = _fitted_embeddings(frng, user_ids[core_u], item_ids[core_i], d)
        write_mmf(os.path.join(ckpt, "user_emb.mmf8"), user_emb, b"MMF8")
        write_mmf(os.path.join(ckpt, "item_emb.mmf8"), item_emb, b"MMF8")
        info["split_seed"] = config_seed

    with open(os.path.join(out_dir, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, sort_keys=True)
    return info


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(make_inputs(args.workload, args.seed, args.out, False), sort_keys=True))
