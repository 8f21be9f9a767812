import io

import numpy as np
import pytest

from mmrec.data import (
    Dataset,
    FilterParams,
    InteractionRecord,
    Interactions,
    SplitSpec,
    build_id_maps,
    dedupe_interactions,
    k_core_filter,
    load_dataset,
    parse_interactions,
    save_dataset,
    split,
)
from mmrec.errors import (
    EmptyDataset,
    MalformedHeader,
    MalformedLine,
    MissingTimestamps,
)

from conftest import brute_force_k_core, make_interaction_set, random_bipartite_records
from data_oracle import pairs, records

table = Interactions.from_records


def parse(text: str):
    return records(parse_interactions(io.StringIO(text)))


class TestParse:
    def test_minimal(self):
        recs = parse("userID\titemID\nu1\ti1\n")
        assert recs == [InteractionRecord("u1", "i1", None, None)]

    def test_header_only(self):
        assert parse("userID\titemID\n") == []

    def test_full_columns(self):
        recs = parse("userID\titemID\trating\ttimestamp\nu1\ti1\t4.5\t99\n")
        assert recs == [InteractionRecord("u1", "i1", 4.5, 99)]

    def test_reordered_and_extra_columns(self):
        recs = parse("timestamp\titemID\tuserID\textra\n7\tiA\tuA\tx\n")
        assert recs == [InteractionRecord("uA", "iA", None, 7)]

    def test_empty_optional_fields(self):
        recs = parse("userID\titemID\trating\nu1\ti1\t\n")
        assert recs[0].rating is None

    def test_missing_required_column(self):
        with pytest.raises(MalformedHeader):
            parse("user\titemID\nu\ti\n")

    def test_empty_input(self):
        with pytest.raises(MalformedHeader, match="empty input"):
            parse("")

    def test_non_numeric_rating(self):
        with pytest.raises(MalformedLine) as err:
            parse("userID\titemID\trating\ttimestamp\nu1\ti1\tfive\t0\n")
        assert err.value.line_no == 2

    def test_non_integer_timestamp(self):
        with pytest.raises(MalformedLine):
            parse("userID\titemID\ttimestamp\nu1\ti1\t1.5\n")

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine) as err:
            parse("userID\titemID\nu1\ti1\nu2\n")
        assert err.value.line_no == 3

    def test_empty_id(self):
        with pytest.raises(MalformedLine):
            parse("userID\titemID\n\ti1\n")

    def test_order_preserved(self):
        recs = parse("userID\titemID\nu2\ti2\nu1\ti1\n")
        assert [r.raw_user_id for r in recs] == ["u2", "u1"]


class TestDedupe:
    def test_max_timestamp_kept(self):
        recs = [
            InteractionRecord("u1", "i1", None, 5),
            InteractionRecord("u1", "i1", None, 9),
        ]
        assert records(dedupe_interactions(table(recs))) == [InteractionRecord("u1", "i1", None, 9)]

    def test_last_occurrence_wins_without_timestamps(self):
        recs = [
            InteractionRecord("u1", "i1", 1.0, None),
            InteractionRecord("u1", "i1", 2.0, None),
        ]
        assert records(dedupe_interactions(table(recs))) == [InteractionRecord("u1", "i1", 2.0, None)]

    def test_output_sorted_by_raw_ids(self):
        recs = [
            InteractionRecord("u2", "i1", None, 1),
            InteractionRecord("u1", "i1", None, 1),
        ]
        out = records(dedupe_interactions(table(recs)))
        assert [r.raw_user_id for r in out] == ["u1", "u2"]

    def test_timestamp_beats_missing(self):
        recs = [
            InteractionRecord("u", "i", None, 3),
            InteractionRecord("u", "i", None, None),
        ]
        assert records(dedupe_interactions(table(recs)))[0].timestamp == 3


class TestKCore:
    def test_spec_example_square_survives(self):
        edges = [("u1", "i1"), ("u1", "i2"), ("u2", "i1"), ("u2", "i2"), ("u3", "i3")]
        recs = [InteractionRecord(u, i) for u, i in edges]
        out = records(k_core_filter(table(recs), FilterParams(k=2)))
        assert {(r.raw_user_id, r.raw_item_id) for r in out} == set(edges[:4])

    def test_spec_example_cascade_to_empty(self):
        edges = [("u1", "i1"), ("u1", "i2"), ("u2", "i1"), ("u3", "i2"), ("u3", "i3")]
        recs = [InteractionRecord(u, i) for u, i in edges]
        assert len(k_core_filter(table(recs), FilterParams(k=2))) == 0

    def test_k1_is_identity(self):
        rng = np.random.default_rng(0)
        recs = random_bipartite_records(rng, 10, 10, 0.3)
        assert records(k_core_filter(table(recs), FilterParams(k=1))) == recs

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(40):
            p = rng.uniform(0.1, 0.4)
            recs = random_bipartite_records(rng, 20, 20, p)
            k = int(rng.integers(2, 4))
            core = records(k_core_filter(table(recs), FilterParams(k=k)))
            got = {(r.raw_user_id, r.raw_item_id) for r in core}
            want = brute_force_k_core({(r.raw_user_id, r.raw_item_id) for r in recs}, k)
            assert got == want

    def test_degrees_meet_threshold(self):
        rng = np.random.default_rng(2)
        recs = random_bipartite_records(rng, 25, 25, 0.2)
        out = records(k_core_filter(table(recs), FilterParams(k=3)))
        users, items = {}, {}
        for r in out:
            users[r.raw_user_id] = users.get(r.raw_user_id, 0) + 1
            items[r.raw_item_id] = items.get(r.raw_item_id, 0) + 1
        assert all(d >= 3 for d in users.values())
        assert all(d >= 3 for d in items.values())

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        recs = random_bipartite_records(rng, 30, 30, 0.25)
        cores = [records(k_core_filter(table(recs), FilterParams(k=k))) for k in (1, 2, 3, 4, 5)]
        for k in (1, 2, 3, 4):
            bigger = {(r.raw_user_id, r.raw_item_id) for r in cores[k - 1]}
            smaller = {(r.raw_user_id, r.raw_item_id) for r in cores[k]}
            assert smaller <= bigger

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            FilterParams(k=0)


class TestIdMaps:
    def test_lexicographic(self):
        recs = [InteractionRecord("b", "y"), InteractionRecord("a", "z")]
        user_map, item_map = build_id_maps(table(recs))
        assert user_map == {"a": 0, "b": 1}
        assert item_map == {"y": 0, "z": 1}

    def test_single_pair(self):
        user_map, item_map = build_id_maps(table([InteractionRecord("u", "i")]))
        assert user_map == {"u": 0} and item_map == {"i": 0}

    def test_empty_raises(self):
        with pytest.raises(EmptyDataset):
            build_id_maps(table([]))


def user_records(n: int, user: str = "u1") -> list[InteractionRecord]:
    return [InteractionRecord(user, f"i{j:02d}", None, j) for j in range(n)]


def split_of(recs, spec):
    return split(table(recs), build_id_maps(table(recs)), spec)


def assert_partition(ds: Dataset, n_records: int):
    splits = [set(pairs(ds.train)), set(pairs(ds.valid)), set(pairs(ds.test))]
    assert sum(len(s) for s in splits) == n_records
    assert not (splits[0] & splits[1]) and not (splits[0] & splits[2]) and not (splits[1] & splits[2])
    for u in range(ds.n_users):
        assert len(ds.train.row(u)) >= 1
    for iset in (ds.train, ds.valid, ds.test):
        for u in range(ds.n_users):
            row = iset.row(u)
            assert np.all(np.diff(row) > 0)


class TestSplit:
    spec = SplitSpec("per_user_random", (0.8, 0.1, 0.1), 42)

    def test_floor_rule_ten_interactions(self):
        ds = split_of(user_records(10), self.spec)
        assert (ds.train.nnz, ds.valid.nnz, ds.test.nnz) == (8, 1, 1)

    def test_small_user_guard(self):
        ds = split_of(user_records(2), self.spec)
        assert (ds.train.nnz, ds.valid.nnz, ds.test.nnz) == (2, 0, 0)

    def test_all_train_ratio(self):
        ds = split_of(user_records(10), SplitSpec("per_user_random", (1.0, 0.0, 0.0), 1))
        assert (ds.train.nnz, ds.valid.nnz, ds.test.nnz) == (10, 0, 0)

    def test_forced_minimum_heldout(self):
        # floor(0.1 * 5) = 0 but ratios are positive and n >= 3
        ds = split_of(user_records(5), self.spec)
        assert ds.valid.nnz == 1 and ds.test.nnz == 1 and ds.train.nnz == 3

    def test_extreme_test_ratio_keeps_a_train_item(self):
        ds = split_of(user_records(3), SplitSpec("per_user_random", (0.005, 0.005, 0.99), 1))
        assert ds.train.nnz >= 1

    def test_partition_and_sorted_rows(self):
        rng = np.random.default_rng(8)
        recs = random_bipartite_records(rng, 12, 15, 0.5)
        ds = split_of(recs, self.spec)
        assert_partition(ds, len(recs))

    def test_determinism(self):
        rng = np.random.default_rng(9)
        recs = random_bipartite_records(rng, 10, 12, 0.5)
        a = split_of(recs, self.spec)
        b = split_of(recs, self.spec)
        for name in ("train", "valid", "test"):
            assert getattr(a, name) == getattr(b, name)

    def test_seed_changes_membership(self):
        recs = user_records(12)
        a = split_of(recs, SplitSpec("per_user_random", (0.8, 0.1, 0.1), 1))
        b = split_of(recs, SplitSpec("per_user_random", (0.8, 0.1, 0.1), 2))
        assert set(pairs(a.test)) != set(pairs(b.test)) or set(pairs(a.valid)) != set(pairs(b.valid))

    def test_temporal_takes_last(self):
        recs = user_records(10)
        ds = split_of(recs, SplitSpec("temporal_leave_last", (0.8, 0.1, 0.1), 0))
        # items carry timestamps equal to their index, so the last two are held out
        assert set(pairs(ds.test)) == {(0, 9)}
        assert set(pairs(ds.valid)) == {(0, 8)}

    def test_temporal_requires_timestamps(self):
        recs = [InteractionRecord("u", f"i{j}", None, None) for j in range(5)]
        with pytest.raises(MissingTimestamps):
            split_of(recs, SplitSpec("temporal_leave_last", (0.8, 0.1, 0.1), 0))

    def test_global_random_partition_and_train_guarantee(self):
        rng = np.random.default_rng(10)
        recs = random_bipartite_records(rng, 15, 15, 0.3)
        ds = split_of(recs, SplitSpec("global_random", (0.6, 0.2, 0.2), 5))
        assert_partition(ds, len(recs))

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            SplitSpec("per_user_random", (0.5, 0.2, 0.2), 0)
        with pytest.raises(ValueError):
            SplitSpec("per_user_random", (0.0, 0.5, 0.5), 0)
        with pytest.raises(ValueError):
            SplitSpec("sideways", (0.8, 0.1, 0.1), 0)


class TestSerialization:
    def test_round_trip(self, tmp_path, tiny_dataset):
        spec = SplitSpec("per_user_random", (0.6, 0.2, 0.2), 13)
        save_dataset(tiny_dataset, spec, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert loaded.n_users == tiny_dataset.n_users
        assert loaded.user_map == tiny_dataset.user_map
        assert loaded.item_map == tiny_dataset.item_map
        for name in ("train", "valid", "test"):
            assert getattr(loaded, name) == getattr(tiny_dataset, name)

    def test_serialized_bytes_deterministic(self, tmp_path):
        rng = np.random.default_rng(11)
        recs = random_bipartite_records(rng, 10, 10, 0.5)
        spec = SplitSpec("per_user_random", (0.8, 0.1, 0.1), 3)
        for sub in ("a", "b"):
            save_dataset(split_of(recs, spec), spec, tmp_path / sub)
        for name in ("meta", "umap.tsv", "imap.tsv", "train.tsv", "valid.tsv", "test.tsv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_interaction_set_pairs_sorted():
    iset = make_interaction_set([(1, 3), (0, 2), (1, 1)], 2, 4)
    assert pairs(iset) == [(0, 2), (1, 1), (1, 3)]
    assert iset.row(1).tolist() == [1, 3]
    assert iset.nnz == 3
