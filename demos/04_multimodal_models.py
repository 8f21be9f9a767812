"""Compare the three model kinds on the same split, with and without features.

The feature-aware models receive the ground-truth block indicator through
two modalities, an oracle signal the id-only factorization has to infer
from interactions alone.
"""

import numpy as np

from mmrec import (
    FilterParams,
    InteractionRecord,
    Interactions,
    SplitSpec,
    TrainConfig,
    evaluate,
    fit,
    fuse,
    model_inputs,
    preprocess,
)
from mmrec.modality import ModalityTable

# Same block construction as demo 03.
rng = np.random.default_rng(7)
n_users, n_items, half = 200, 100, 50
popularity = 1.0 / (np.arange(n_items) % half + 1.0) ** 1.8
item_block = (np.arange(n_items) >= half).astype(int)
records = []
for u in range(n_users):
    weights = popularity * np.where(item_block == (u % 2), 3.0, 1.0)
    for i in rng.choice(n_items, size=20, replace=False, p=weights / weights.sum()):
        records.append(InteractionRecord(f"u{u:03d}", f"i{i:03d}"))
dataset = preprocess(
    Interactions.from_records(records),
    FilterParams(k=1),
    SplitSpec("per_user_random", (0.8, 0.1, 0.1), 11),
)

# One-hot block indicators, served twice (as a text table and an image
# table) and fused by concatenation into a 4-wide item feature matrix.
blocks = np.zeros(dataset.n_items, dtype=int)
for raw, dense in dataset.item_map.items():
    blocks[dense] = int(raw[1:]) // half
indicator = np.zeros((dataset.n_items, 2))
indicator[np.arange(dataset.n_items), blocks] = 1.0
present = np.ones(dataset.n_items, dtype=bool)
tables = [
    ModalityTable("text", indicator.copy(), present.copy()),
    ModalityTable("image", indicator.copy(), present.copy()),
]
fused = fuse(tables, "concat")
print(f"fused feature matrix: {fused.shape[0]} items x {fused.shape[1]} dims")

cfg = TrainConfig(
    learning_rate=0.05,
    batch_size=4096,
    max_epochs=50,
    patience=10,
    eval_interval=5,
    stop_metric="recall@20",
    seed=3,
)

runs = [
    ("mf_bpr", dict(d=8)),
    ("vbpr_mm", dict(d=8, d_p=4)),
    ("graph_mm", dict(d=8, n_layers=2)),
]
print(f"{'model':10s} {'recall@20':>10s} {'ndcg@10':>10s} {'epochs':>7s}")
for kind, dims in runs:
    # the fused features for the kinds that read them, and the train graph for graph_mm
    inputs = model_inputs(kind, dataset, tables, "concat")
    state, log = fit(kind, dataset, cfg, inputs=inputs, **dims)
    report = evaluate(state, dataset, "test", (10, 20), inputs)
    print(f"{kind:10s} {report.get('recall', 20):>10.4f} "
          f"{report.get('ndcg', 10):>10.4f} {len(log.epoch_losses):>7d}")
