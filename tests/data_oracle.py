"""Record-at-a-time reference for the columnar data pipeline.

These are the per-row parse, dedupe, k-core and split that ``mmrec.data``
used before it became columnar, kept as an oracle in the way the scalar
``*_at_k`` functions back the vectorized evaluator. Each walks Python
``InteractionRecord`` objects one at a time and states its rule directly;
the property tests compare the columnar stages against them with exact
equality. The one rule added here is the int64 bound on timestamps, which
the columnar table needs. :func:`records` and :func:`pairs` are how the
tests read a table and an ``InteractionSet`` back as Python values.
"""

from __future__ import annotations

import math

import numpy as np

from mmrec.data import Dataset, InteractionRecord, Interactions, InteractionSet, SplitSpec
from mmrec.errors import EmptyDataset, MalformedHeader, MalformedLine, MissingTimestamps
from mmrec.rng import stream

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def records(table: Interactions) -> list[InteractionRecord]:
    """The table's rows as records, in row order."""
    rows = zip(table.users, table.items, table.rating.tolist(), table.timestamp, table.has_timestamp)
    return [
        InteractionRecord(
            table.user_ids[u], table.item_ids[i], None if math.isnan(r) else r, int(t) if has else None
        )
        for u, i, r, t, has in rows
    ]


def pairs(iset: InteractionSet) -> list[tuple[int, int]]:
    """The set's (row, column) pairs in row order."""
    rows, cols = iset.pair_arrays()
    return list(zip(rows.tolist(), cols.tolist()))


def parse(source) -> list[InteractionRecord]:
    # a line ends at \n, its trailing \r are dropped, and a line left empty
    # is skipped; the first line kept is the header
    lines = [(line_no, line.rstrip("\r\n")) for line_no, line in enumerate(source, start=1)]
    lines = [(line_no, line) for line_no, line in lines if line]
    if not lines:
        raise MalformedHeader("empty input, no header line")
    columns = lines[0][1].split("\t")
    try:
        user_col = columns.index("userID")
        item_col = columns.index("itemID")
    except ValueError:
        raise MalformedHeader(f"header must name userID and itemID, got {columns}")
    rating_col = columns.index("rating") if "rating" in columns else None
    ts_col = columns.index("timestamp") if "timestamp" in columns else None

    records = []
    for line_no, line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(columns):
            raise MalformedLine(line_no, f"expected {len(columns)} fields, got {len(fields)}")
        user, item = fields[user_col], fields[item_col]
        if not user or not item:
            raise MalformedLine(line_no, "empty user or item ID")
        rating = None
        if rating_col is not None and fields[rating_col] != "":
            try:
                rating = float(fields[rating_col])
            except ValueError:
                raise MalformedLine(line_no, f"bad rating {fields[rating_col]!r}")
            if not math.isfinite(rating):
                raise MalformedLine(line_no, f"non-finite rating {fields[rating_col]!r}")
        timestamp = None
        if ts_col is not None and fields[ts_col] != "":
            try:
                timestamp = int(fields[ts_col])
            except ValueError:
                raise MalformedLine(line_no, f"bad timestamp {fields[ts_col]!r}")
            if not INT64_MIN <= timestamp <= INT64_MAX:
                raise MalformedLine(line_no, f"timestamp {fields[ts_col]!r} outside int64")
        records.append(InteractionRecord(user, item, rating, timestamp))
    return records


def dedupe(records) -> list[InteractionRecord]:
    """Greatest float(timestamp) wins, missing lowest, later position on ties."""
    best = {}
    for pos, rec in enumerate(records):
        ts = -math.inf if rec.timestamp is None else float(rec.timestamp)
        key = (rec.raw_user_id, rec.raw_item_id)
        kept = best.get(key)
        if kept is None or (ts, pos) > kept[:2]:
            best[key] = (ts, pos, rec)
    return [best[key][2] for key in sorted(best)]


def k_core(records, k: int) -> list[InteractionRecord]:
    """Work-queue peeling over dicts of neighbour lists."""
    user_items: dict[str, list[str]] = {}
    item_users: dict[str, list[str]] = {}
    for rec in records:
        user_items.setdefault(rec.raw_user_id, []).append(rec.raw_item_id)
        item_users.setdefault(rec.raw_item_id, []).append(rec.raw_user_id)

    user_deg = {u: len(v) for u, v in user_items.items()}
    item_deg = {i: len(v) for i, v in item_users.items()}
    dead_users: set[str] = set()
    dead_items: set[str] = set()
    queue = [("u", u) for u, d in user_deg.items() if d < k]
    queue += [("i", i) for i, d in item_deg.items() if d < k]
    while queue:
        side, node = queue.pop()
        if side == "u":
            if node in dead_users:
                continue
            dead_users.add(node)
            for i in user_items[node]:
                if i not in dead_items:
                    item_deg[i] -= 1
                    if item_deg[i] < k:
                        queue.append(("i", i))
        else:
            if node in dead_items:
                continue
            dead_items.add(node)
            for u in item_users[node]:
                if u not in dead_users:
                    user_deg[u] -= 1
                    if user_deg[u] < k:
                        queue.append(("u", u))
    return [
        rec for rec in records
        if rec.raw_user_id not in dead_users and rec.raw_item_id not in dead_items
    ]


def id_maps(records) -> tuple[dict[str, int], dict[str, int]]:
    if not records:
        raise EmptyDataset("no interactions survive filtering")
    users = sorted({rec.raw_user_id for rec in records})
    items = sorted({rec.raw_item_id for rec in records})
    return {u: n for n, u in enumerate(users)}, {i: n for n, i in enumerate(items)}


def split_counts(n: int, ratios) -> tuple[int, int]:
    if n < 3:
        return 0, 0
    _, r_valid, r_test = ratios
    n_test = int(math.floor(r_test * n))
    n_valid = int(math.floor(r_valid * n))
    if r_test > 0:
        n_test = max(1, n_test)
    if r_valid > 0:
        n_valid = max(1, n_valid)
    if n_test + n_valid >= n:
        n_valid = min(n_valid, max(0, n - 1 - n_test))
        n_test = min(n_test, n - 1 - n_valid)
    return n_test, n_valid


def interaction_set(pairs, n_rows: int, n_cols: int) -> InteractionSet:
    arr = np.asarray(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.add.at(indptr, arr[:, 0] + 1, 1)
    return InteractionSet(n_rows, n_cols, np.cumsum(indptr), arr[:, 1])


def split(records, maps, spec: SplitSpec) -> Dataset:
    user_map, item_map = maps
    n_users, n_items = len(user_map), len(item_map)
    by_user: list[list[tuple[int, int | None]]] = [[] for _ in range(n_users)]
    for rec in records:
        by_user[user_map[rec.raw_user_id]].append((item_map[rec.raw_item_id], rec.timestamp))

    train, valid, test = [], [], []
    if spec.strategy == "per_user_random":
        shuffle = stream(spec.seed, "split")
        for u in range(n_users):
            items = np.asarray(sorted(i for i, _ in by_user[u]), dtype=np.int64)
            n = len(items)
            n_test, n_valid = split_counts(n, spec.ratios)
            shuffled = items[shuffle.permutation(n)]
            test += [(u, int(i)) for i in shuffled[:n_test]]
            valid += [(u, int(i)) for i in shuffled[n_test:n_test + n_valid]]
            train += [(u, int(i)) for i in shuffled[n_test + n_valid:]]
    elif spec.strategy == "temporal_leave_last":
        for u in range(n_users):
            if any(ts is None for _, ts in by_user[u]):
                raise MissingTimestamps(f"user index {u} has interactions without timestamps")
            items = [i for i, _ in sorted(by_user[u], key=lambda it: (it[1], it[0]))]
            n = len(items)
            n_test, n_valid = split_counts(n, spec.ratios)
            test += [(u, i) for i in items[n - n_test:]]
            valid += [(u, i) for i in items[n - n_test - n_valid:n - n_test]]
            train += [(u, i) for i in items[:n - n_test - n_valid]]
    else:
        pairs = [(user_map[r.raw_user_id], item_map[r.raw_item_id]) for r in records]
        shuffled = [pairs[p] for p in stream(spec.seed, "split").permutation(len(pairs))]
        n = len(shuffled)
        b_train = int(math.floor(spec.ratios[0] * n))
        b_valid = int(math.floor((spec.ratios[0] + spec.ratios[1]) * n))
        train, valid, test = shuffled[:b_train], shuffled[b_train:b_valid], shuffled[b_valid:]
        orphans = set(range(n_users)) - {u for u, _ in train}
        if orphans:
            train += [(u, i) for u, i in valid + test if u in orphans]
            valid = [(u, i) for u, i in valid if u not in orphans]
            test = [(u, i) for u, i in test if u not in orphans]

    return Dataset(
        n_users, n_items, user_map, item_map,
        interaction_set(train, n_users, n_items),
        interaction_set(valid, n_users, n_items),
        interaction_set(test, n_users, n_items),
    )
