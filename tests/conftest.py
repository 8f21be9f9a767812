"""Shared fixtures and oracles for the test suite."""

import numpy as np
import pytest

from mmrec.data import (
    Dataset,
    FilterParams,
    InteractionRecord,
    Interactions,
    InteractionSet,
    SplitSpec,
    preprocess,
)
from mmrec.evaluation import full_sort_predict, mask_trained, top_k
from mmrec.modality import ModalityTable, fuse
from mmrec.models import ModelInputs


def all_scores(state, inputs=ModelInputs()) -> np.ndarray:
    """The full n_users x n_items score matrix, as one full_sort_predict call."""
    return full_sort_predict(state, np.arange(state.n_users), inputs)


def topk_lists(state, dataset: Dataset, target: str, k: int, inputs=ModelInputs()):
    """(user, top-k item indices) for each user with ground truth in
    ``target``, in user-index order, ranked as one chunk through the
    evaluator's public helpers."""
    users = np.flatnonzero(np.diff(getattr(dataset, target).indptr) > 0)
    trained = np.zeros((dataset.n_users, dataset.n_items), dtype=bool)
    trained[dataset.train.pair_arrays()] = True
    scores = full_sort_predict(state, users, inputs)
    lists = top_k(mask_trained(scores, np.nonzero(trained[users])), k)
    return [(int(u), row[row >= 0]) for u, row in zip(users, lists)]


def brute_force_k_core(edges: set[tuple[str, str]], k: int) -> set[tuple[str, str]]:
    """Independent oracle: repeatedly delete any under-threshold entity."""
    edges = set(edges)
    while True:
        users = {}
        items = {}
        for u, i in edges:
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        bad_users = {u for u, deg in users.items() if deg < k}
        bad_items = {i for i, deg in items.items() if deg < k}
        if not bad_users and not bad_items:
            return edges
        edges = {(u, i) for u, i in edges if u not in bad_users and i not in bad_items}


def random_bipartite_records(rng, n_users, n_items, p) -> list[InteractionRecord]:
    return [
        InteractionRecord(f"u{u}", f"i{i}")
        for u in range(n_users)
        for i in range(n_items)
        if rng.random() < p
    ]


def make_interaction_set(pairs, n_users, n_items) -> InteractionSet:
    """An ``InteractionSet`` from an iterable of (row, column) pairs."""
    arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    return InteractionSet.from_arrays(arr[:, 0], arr[:, 1], n_users, n_items)


def block_indicator_tables(dataset: Dataset, block_of_raw) -> list[ModalityTable]:
    """Two modalities carrying the same one-hot block indicator per item."""
    n = dataset.n_items
    blocks = np.zeros(n, dtype=int)
    for raw, dense in dataset.item_map.items():
        blocks[dense] = block_of_raw(raw)
    ind = np.zeros((n, 2))
    ind[np.arange(n), blocks] = 1.0
    ones = np.ones(n, dtype=bool)
    return [
        ModalityTable("text", ind.copy(), ones.copy()),
        ModalityTable("image", ind.copy(), ones.copy()),
    ]


def synthetic_block_dataset(
    data_seed: int = 7,
    split_seed: int = 11,
    n_users: int = 200,
    n_items: int = 100,
    per_user: int = 20,
    skew: float = 1.8,
    own_block_odds: float = 3.0,
):
    """Two latent blocks with skewed item popularity and 3:1 own-block odds.

    Returns (dataset, fused block-indicator features from two modalities).
    """
    rng = np.random.default_rng(data_seed)
    half = n_items // 2
    popularity = 1.0 / (np.arange(n_items) % half + 1.0) ** skew
    item_block = (np.arange(n_items) >= half).astype(int)
    records = []
    for u in range(n_users):
        weights = popularity * np.where(item_block == (u % 2), own_block_odds, 1.0)
        weights = weights / weights.sum()
        items = rng.choice(n_items, size=per_user, replace=False, p=weights)
        records.extend(InteractionRecord(f"u{u:03d}", f"i{i:03d}") for i in items)
    dataset = preprocess(
        Interactions.from_records(records),
        FilterParams(k=1),
        SplitSpec("per_user_random", (0.8, 0.1, 0.1), split_seed),
    )
    tables = block_indicator_tables(dataset, lambda raw: int(raw[1:]) // half)
    return dataset, fuse(tables, "concat")


@pytest.fixture(scope="session")
def tiny_dataset() -> Dataset:
    """6 users x 8 items, dense enough that every user has all three splits."""
    rng = np.random.default_rng(5)
    records = [
        InteractionRecord(f"u{u}", f"i{i}")
        for u in range(6)
        for i in range(8)
        if rng.random() < 0.8
    ]
    return preprocess(
        Interactions.from_records(records),
        FilterParams(k=1),
        SplitSpec("per_user_random", (0.6, 0.2, 0.2), 13),
    )
