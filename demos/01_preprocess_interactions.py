"""Walk through the raw-data pipeline: parse, dedupe, k-core, split, save.

Writes a small Amazon-style interactions TSV, pushes it through every
preprocessing stage, and prints what each stage changes.
"""

import io
from pathlib import Path

from mmrec import (
    FilterParams,
    SplitSpec,
    build_id_maps,
    dedupe_interactions,
    k_core_filter,
    load_dataset,
    parse_interactions,
    save_dataset,
    split,
)

out_dir = Path("demo_output/preprocess")
out_dir.mkdir(parents=True, exist_ok=True)

# A raw log: tab-separated, header first. u3/i9 appears twice with different
# timestamps; u9 and i9 interact too rarely to survive 2-core filtering.
raw = """userID\titemID\trating\ttimestamp
u1\ti1\t5.0\t100
u1\ti2\t4.0\t110
u2\ti1\t3.0\t120
u2\ti2\t\t130
u3\ti1\t4.5\t140
u3\ti2\t2.0\t150
u3\ti9\t1.0\t160
u3\ti9\t5.0\t200
u9\ti9\t1.0\t170
"""

# Interactions travel as one columnar table: sorted distinct raw IDs and an
# int64 code per row into them, plus rating and timestamp columns.
table = parse_interactions(io.StringIO(raw))
print(f"parsed {len(table)} rows; users {table.user_ids.tolist()}, items {table.item_ids.tolist()}")

deduped = dedupe_interactions(table)
kept = list(zip(deduped.user_ids[deduped.users], deduped.item_ids[deduped.items])).index(("u3", "i9"))
print(f"dedupe kept {len(deduped)} rows; (u3, i9) resolved to timestamp {deduped.timestamp[kept]}")

filtered = k_core_filter(deduped, FilterParams(k=2))
dropped = set(deduped.user_ids[deduped.users]) - set(filtered.user_ids[filtered.users])
print(f"2-core keeps {len(filtered)} rows (dropped {', '.join(sorted(dropped))} and their items)")

maps = build_id_maps(filtered)
print(f"dense ids: users {maps[0]}, items {maps[1]}")

spec = SplitSpec(strategy="per_user_random", ratios=(0.8, 0.1, 0.1), seed=42)
dataset = split(filtered, maps, spec)
# every surviving user has just two interactions here, and users with fewer
# than three contribute to train only, so valid and test stay empty
print(f"split sizes: train {dataset.train.nnz}, valid {dataset.valid.nnz}, test {dataset.test.nnz}")
for u in range(dataset.n_users):
    print(f"  user {u}: train items {dataset.train.row(u).tolist()}")

# The on-disk form is a plain directory of TSVs plus a meta file, and is a
# pure function of (table, spec): rerunning produces identical bytes.
save_dataset(dataset, spec, out_dir / "dataset")
reloaded = load_dataset(out_dir / "dataset")
print(f"round trip ok: {reloaded.train == dataset.train}")
print(f"dataset written to {out_dir / 'dataset'}")
