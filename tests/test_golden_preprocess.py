"""Golden pin of `mmrec preprocess`: sha256 of every dataset file written.

The input is generated from a fixed numpy seed and carries what the data
layer has to get right byte for byte: duplicate (user, item) lines resolved
by timestamp (including tied and missing timestamps), an empty rating
field, a blank line, raw IDs whose lexicographic order is not their numeric
order, and a tail that the 5-core peels over several rounds. Any change to
these digests changes what `mmrec preprocess` writes and must be stated as
a decision, not taken as a side effect.
"""

import hashlib

import numpy as np
import pytest

from mmrec.cli import main

FILES = ("meta", "umap.tsv", "imap.tsv", "train.tsv", "valid.tsv", "test.tsv")

GOLDEN = {
    "global_random": {
        "meta": "1550367aaf43542c9c66847c4c81c5ae665a8fe13933a406d41cb0ae730ba536",
        "umap.tsv": "42db09421ce5ee2480fa100978cf05761ab9c09d74459ad13277ed719ada6d60",
        "imap.tsv": "5e3d893c8b1ed9e2c5aa63cee9ad07ed71c72d7a7c814c94c8d3e814d0f51711",
        "train.tsv": "951f1e5166f78ea1bd1a663de90391f5299912354fd8bb726ba7ed9361988280",
        "valid.tsv": "6c434c94e25bb57363fac09a932bb1870aa5db8862d8ba34b99dd484361efb0e",
        "test.tsv": "58ec218353207dec76155620efc7ba2a23824f49ddaf2f795da9a51eeb659de0",
    },
    "per_user_random": {
        "meta": "6b7657335a199bc6eb1f24401ecb0d105b5e4fd06492b72bfc1f2985787538f1",
        "umap.tsv": "42db09421ce5ee2480fa100978cf05761ab9c09d74459ad13277ed719ada6d60",
        "imap.tsv": "5e3d893c8b1ed9e2c5aa63cee9ad07ed71c72d7a7c814c94c8d3e814d0f51711",
        "train.tsv": "5a1a05416bc19b6a8d8d67f2e7c60a590b541582b5b9458f647810d2284a635a",
        "valid.tsv": "8e1fe054fb5b5f612f87a8f2528bfc9daa486e70a6ffbac20eb00e809a726624",
        "test.tsv": "915db79a6217bdcf390b2901dee7a384df33ba11f1a2b2ca090d6ca2d9c85f11",
    },
    "temporal_leave_last": {
        "meta": "076cdd0a52b4c3c635a6bf9101fddb5b6902980141993dca12f2cb810ede79e7",
        "umap.tsv": "42db09421ce5ee2480fa100978cf05761ab9c09d74459ad13277ed719ada6d60",
        "imap.tsv": "5e3d893c8b1ed9e2c5aa63cee9ad07ed71c72d7a7c814c94c8d3e814d0f51711",
        "train.tsv": "c4b76fb2036ca7ffbc2be505d89bf13e5f7de55fa5e6b683a8b69cbfd582cae6",
        "valid.tsv": "284e7397bc91e1053fe806beba5c71df51f51e6b3d9a4b35c7fb337c43d05d7f",
        "test.tsv": "7828f5cf06cfd14937332868ca4deb098093c11addd91b1296a643611d100f8f",
    },
}


def write_golden_input(path) -> int:
    """Write the generated interactions file; returns the 5-core's peeling rounds."""
    rng = np.random.default_rng(20241018)
    rows = []
    # core: 60 users over 40 items, 6-14 items each, timestamps drawn from
    # a narrow range so a user's items often tie
    for u in range(60):
        for i in rng.choice(40, size=int(rng.integers(6, 15)), replace=False):
            rating, stamp = int(rng.integers(1, 6)), int(rng.integers(100, 130))
            rows.append([f"u{u}", f"i{i}", str(rating), str(stamp)])
    # a chain the 5-core peels one link per round or two: weak users
    # (degree 2, the first one without timestamps) hold tail item t0 above
    # the threshold; once they go, t0 goes, then the fringe users whose
    # fifth item t0 was, then tail item t1 that they held up, and so on
    for link in range(4):
        for w in range(4):
            stamp = "" if (link, w) == (0, 0) else str(200 + w)
            rows.append([f"w{link}_{w}", f"t{link}", "3", stamp])
            rows.append([f"w{link}_{w}", f"i{w}", "3", stamp])
        for f in range(3):
            fringe = f"f{link}_{f}"
            tails = [f"t{link}", f"t{link + 1}"] if link < 3 else [f"t{link}"]
            core = rng.choice(40, size=5 - len(tails), replace=False)
            for item in tails + [f"i{i}" for i in core]:
                rows.append([fringe, item, "4", str(300 + f)])
    # duplicates: a later copy with a greater, an equal or a missing
    # timestamp (missing never wins over a stamped copy)
    n_core = len(rows)
    for idx in rng.choice(n_core, size=n_core // 5, replace=False):
        user, item, rating, ts = rows[idx]
        kind = int(rng.integers(0, 3))
        new_ts = str(int(ts or 0) + int(rng.integers(1, 40))) if kind == 0 else ts if kind == 1 else ""
        rows.append([user, item, "" if kind == 1 else rating, new_ts])
    order = rng.permutation(len(rows))
    lines = ["\t".join(rows[j]) + "\n" for j in order]
    lines.insert(len(lines) // 2, "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("userID\titemID\trating\ttimestamp\n")
        fh.writelines(lines)

    # the number of rounds in which a full sweep still removes something
    edges, rounds = {(r[0], r[1]) for r in rows}, 0
    while True:
        kept = brute_force_one_round(edges, 5)
        if kept == edges:
            return rounds
        edges, rounds = kept, rounds + 1


def brute_force_one_round(edges, k):
    users, items = {}, {}
    for u, i in edges:
        users[u] = users.get(u, 0) + 1
        items[i] = items.get(i, 0) + 1
    return {(u, i) for u, i in edges if users[u] >= k and items[i] >= k}


@pytest.fixture(scope="module")
def golden_input(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "interactions.tsv"
    rounds = write_golden_input(path)
    return path, rounds


def test_input_peels_over_several_rounds(golden_input):
    _, rounds = golden_input
    assert rounds >= 4


@pytest.mark.parametrize("strategy", sorted(GOLDEN))
def test_preprocess_digests(golden_input, tmp_path, strategy, capsys):
    path, _ = golden_input
    out = tmp_path / "ds"
    code = main([
        "preprocess", "--interactions", str(path), "--k", "5", "--split", strategy,
        "--ratios", "0.7,0.15,0.15", "--seed", "77", "--out", str(out),
    ])
    assert code == 0, capsys.readouterr().err
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES}
    assert got == GOLDEN[strategy]
