"""Train a BPR matrix factorization model on synthetic block data.

Users belong to one of two taste blocks and mostly interact inside it, with
popularity-skewed item choice. A trained ranker should clearly beat the
analytic random-ranking baseline.
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
    preprocess,
)

# ---------------------------------------------------------------- make data
rng = np.random.default_rng(7)
n_users, n_items, per_user = 200, 100, 20
half = n_items // 2
popularity = 1.0 / (np.arange(n_items) % half + 1.0) ** 1.8
item_block = (np.arange(n_items) >= half).astype(int)

records = []
for u in range(n_users):
    weights = popularity * np.where(item_block == (u % 2), 3.0, 1.0)
    weights = weights / weights.sum()
    for i in rng.choice(n_items, size=per_user, replace=False, p=weights):
        records.append(InteractionRecord(f"u{u:03d}", f"i{i:03d}"))

dataset = preprocess(
    Interactions.from_records(records),
    FilterParams(k=1),
    SplitSpec("per_user_random", (0.8, 0.1, 0.1), 11),
)
print(f"{dataset.n_users} users x {dataset.n_items} items, "
      f"{dataset.train.nnz}/{dataset.valid.nnz}/{dataset.test.nnz} train/valid/test")

# -------------------------------------------------------------------- train
cfg = TrainConfig(
    learning_rate=0.05,
    batch_size=4096,
    max_epochs=50,
    patience=10,
    eval_interval=5,
    stop_metric="recall@20",
    seed=3,
)
state, log = fit("mf_bpr", dataset, cfg, d=8)
print(f"trained {len(log.epoch_losses)} epochs ({log.stop_reason}), "
      f"loss {log.epoch_losses[0]:.4f} -> {log.epoch_losses[-1]:.4f}, "
      f"best validation at epoch {log.best_epoch}")

# ----------------------------------------------------------------- evaluate
report = evaluate(state, dataset, "test", (5, 10, 20))
for metric in ("recall", "precision", "ndcg", "map"):
    values = "  ".join(f"@{k} {report.get(metric, k):.4f}" for k in report.cutoffs)
    print(f"{metric:9s} {values}")

# Random ranking puts each held-out item in the top-K with probability
# K / (catalog size - masked train items), so the baseline is exact.
k = 20
users = [u for u in range(dataset.n_users) if len(dataset.test.row(u))]
baseline = float(np.mean([
    min(1.0, k / (dataset.n_items - len(dataset.train.row(u)))) for u in users
]))
print(f"recall@20 {report.get('recall', 20):.4f} vs random baseline {baseline:.4f} "
      f"({report.get('recall', 20) / baseline:.1f}x)")
