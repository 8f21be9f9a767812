"""The columnar data pipeline against the record-at-a-time oracle.

Every stage must give exactly what ``data_oracle`` gives on the same input:
the same records, maps and splits, or the same exception class, message and
line number.
"""

import io
import os
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import data_oracle as oracle
import mmrec.data
from mmrec.data import (
    Dataset,
    FilterParams,
    InteractionRecord,
    Interactions,
    InteractionSet,
    SplitSpec,
    build_id_maps,
    dedupe_interactions,
    k_core_filter,
    load_dataset,
    parse_interactions,
    preprocess,
    read_interactions,
    save_dataset,
    split,
)
from mmrec.errors import MalformedHeader, MalformedLine, MmrecError
from mmrec.rng import Stream

from conftest import brute_force_k_core

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# IDs collide often, sort in code-point order and hold characters that a
# careless splitter or a fixed-width numpy string would mangle
ID_CHARS = "abéZ0 \x00 \x85\r"
RATINGS = ["", "1", "4.5", " 2 ", "-0.0", "1_0", "٣", "nan", "inf", "-inf", "1e400", "x"]
STAMPS = [
    "", "0", "5", "-3", " 7", "+4", "٣", "1.5", "x", str(2**53), str(2**53 + 1),
    str(2**63 - 1), str(2**63), str(-(2**63)), str(-(2**63) - 1), "1:0", "?",
]
GOOD_STAMPS = [None, 0, 1, 2, 3, 2**53, 2**53 + 1, 2**63 - 1, -(2**63)]

table = Interactions.from_records


def parse_records(source) -> list[InteractionRecord]:
    return oracle.records(parse_interactions(source))


def outcome(fn, *args):
    """What a call gives: its value, or its error as (class, message, line)."""
    try:
        return "ok", fn(*args)
    except MmrecError as exc:
        return "error", (type(exc), str(exc), getattr(exc, "line_no", None))


def same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    assert got[1] == want[1]


@st.composite
def tsv_texts(draw, valid_numbers=False):
    columns = ["userID", "itemID"]
    columns += [name for name in ("rating", "timestamp", "extra") if draw(st.booleans())]
    columns = draw(st.permutations(columns))
    # up to 12 characters, so that IDs cross the parser's 8-byte key words
    ids = st.text(ID_CHARS, min_size=0 if not valid_numbers else 1, max_size=12)
    if valid_numbers:
        ids = ids.filter(lambda s: not s.endswith("\r"))
    values = {
        "userID": ids,
        "itemID": ids,
        "rating": st.sampled_from(RATINGS[:7] if valid_numbers else RATINGS),
        "timestamp": st.sampled_from(STAMPS[:7] + STAMPS[9:12] if valid_numbers else STAMPS),
        "extra": st.text("xy", max_size=2),
    }
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["row"] * 8 + ([] if valid_numbers else ["blank", "short", "long"])))
        fields = [draw(values[c]) for c in columns]
        if kind == "blank":
            lines.append("")
            continue
        if kind == "short":
            fields = fields[:-1]
        elif kind == "long":
            fields.append("z")
        lines.append("\t".join(fields))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    # lines the line rule skips may come before the header too
    lead = "".join(draw(st.lists(st.sampled_from(["\n", "\r\n", "\r\r\n"]), max_size=2)))
    text = lead + "\t".join(columns) + ending + "".join(line + ending for line in lines)
    if lines and draw(st.booleans()):
        text = text[: -len(ending)]  # last line without its terminator
    return text


# ------------------------------------------------------------------ parsing

@SETTINGS
@given(tsv_texts())
def test_parse_matches_oracle(text):
    want = outcome(oracle.parse, io.StringIO(text))
    same_outcome(outcome(parse_records, io.StringIO(text)), want)


@SETTINGS
@given(tsv_texts(valid_numbers=True))
def test_parse_of_valid_input_gives_records(text):
    kind, records = outcome(parse_records, io.StringIO(text))
    assert kind == "ok", records
    assert records == oracle.parse(io.StringIO(text))


def test_undecodable_bytes_are_a_malformed_line(tmp_path):
    # past the reader's first buffer, after \r\n line ends; a lone \r
    # ends no line
    path = tmp_path / "x.tsv"
    path.write_bytes(b"userID\titemID\r\n" + b"u\ti\r\n" * 5000 + b"v\ti\r" + b"w\t\xff\n")
    with pytest.raises(MalformedLine, match="not UTF-8: byte 0xff") as err:
        read_interactions(path)
    assert err.value.line_no == 5002


@pytest.mark.parametrize("text, line_no, message", [
    ("userID\titemID\ttimestamp\nu\ti\t1\nu\ti\t" + str(2**63) + "\n", 3, "outside int64"),
    ("userID\titemID\ttimestamp\nu\ti\t" + str(-(2**63) - 1) + "\n", 2, "outside int64"),
    # bytes just above "9", which a digit test by the high nibble alone lets through
    ("userID\titemID\ttimestamp\nu\ti\t12\nu\ti\t1:\n", 3, "bad timestamp '1:'"),
    ("userID\titemID\ttimestamp\nu\ti\t?0000000001\n", 2, "bad timestamp '[?]0000000001'"),
    ("userID\titemID\trating\nu\ti\t1\n\nu\t\tx\n", 4, "empty user or item ID"),
    ("userID\titemID\trating\nu\ti\tinf\nu\ti\tx\n", 2, "non-finite rating 'inf'"),
    ("userID\titemID\trating\nu\ti\t1\nu\ti\tx\tz\n", 3, "expected 3 fields, got 4"),
    # lines left empty once their trailing \r are dropped are skipped, and counted
    ("userID\titemID\trating\n\r\n\r\r\nu\ti\tx\n", 4, "bad rating 'x'"),
])
def test_first_malformed_line_is_reported(text, line_no, message):
    with pytest.raises(MalformedLine, match=message) as err:
        parse_interactions(io.StringIO(text))
    assert err.value.line_no == line_no


def test_many_ids_factorize_in_code_point_order():
    # enough rows that numpy's sorts leave their small-array paths, IDs that
    # share their first 8 bytes so the later words decide, trailing NULs,
    # and IDs over 255 bytes long
    rng = np.random.default_rng(4)
    prefixes = ["", "sharedpx", "sharedp", "é" * 5, "L" * 300]
    ids = [
        prefixes[rng.integers(len(prefixes))]
        + "".join("ab\x00é"[j] for j in rng.integers(0, 4, size=n))
        for n in rng.integers(1, 12, size=3000)
    ]
    stamps = [str(v) for v in rng.integers(-(2**62), 2**62, size=3000)]
    text = "userID\titemID\ttimestamp\n" + "".join(
        f"{u}\t{i}\t{t}\n" for u, i, t in zip(ids, reversed(ids), stamps)
    )
    table = parse_interactions(io.StringIO(text))
    assert table.user_ids.tolist() == sorted(set(ids))
    assert table.user_ids[table.users].tolist() == ids
    assert table.item_ids[table.items].tolist() == ids[::-1]
    assert table.timestamp.tolist() == [int(t) for t in stamps]


def parse_file(path) -> list[InteractionRecord]:
    return oracle.records(read_interactions(path))


def parse_both_ways(tmp_path, text: str):
    """The outcome of parsing ``text`` from a stream and from a file, after
    checking that both equal the oracle's; ``text`` ends lines at ``\\n``."""
    want = outcome(oracle.parse, io.StringIO(text))
    path = tmp_path / "x.tsv"
    path.write_bytes(text.encode())
    same_outcome(outcome(parse_records, io.StringIO(text)), want)
    same_outcome(outcome(parse_file, path), want)
    return want


def check_ids(tmp_path, ids: list[str]) -> None:
    """``ids`` as users and, reversed, as items: both readers give the
    oracle's records and the IDs in code-point order."""
    text = "userID\titemID\n" + "".join(f"{u}\t{i}\n" for u, i in zip(ids, reversed(ids)))
    kind, _ = parse_both_ways(tmp_path, text)
    assert kind == "ok"
    for got in (parse_interactions(io.StringIO(text)), read_interactions(tmp_path / "x.tsv")):
        assert got.user_ids.tolist() == sorted(set(ids)) == got.item_ids.tolist()


@pytest.mark.parametrize("n_bytes", [1, 7, 8, 9, 15, 16, 17, 255, 256, 262])
def test_ids_at_word_boundaries(tmp_path, n_bytes):
    # IDs of n_bytes that differ only in their last byte, and their
    # neighbours one byte shorter and longer; at 262 the longest IDs leave
    # one byte of their last word free, and their length needs two
    stem = ("0123456789abcdef" * 17)[: n_bytes - 1]
    ids = [stem + last for last in "az\x00\x7f"] + [stem, stem + "a\x00", stem + "a\x01", "~" + stem]
    check_ids(tmp_path, [i for i in ids if i] * 2)


def test_an_id_of_no_bytes_is_an_empty_id(tmp_path):
    kind, (cls, message, line_no) = parse_both_ways(tmp_path, "userID\titemID\nu\ti\n\tj\n")
    assert (kind, cls, message, line_no) == ("error", MalformedLine, "line 3: empty user or item ID", 3)


def test_a_character_across_a_word_boundary_sorts_by_code_point(tmp_path):
    # é and the emoji start at byte 7 and end in the second word
    check_ids(tmp_path, ["abcdefg" + c + tail for c in "zé\U0001F600\x7f" for tail in ("", "x", "é")])


def test_trailing_nuls_make_distinct_ids(tmp_path):
    check_ids(tmp_path, ["a" + "\x00" * k for k in range(18)] + ["\x00", "\x00a", "a\x01"])


@pytest.mark.parametrize("shared", [8, 16])
def test_ids_sharing_their_first_words(tmp_path, shared):
    stem = "sharedprefix1234"[:shared]
    check_ids(tmp_path, [stem + tail for tail in ("", "b", "a", "ab", "a" * 9, "\x00", "é")] + [stem[:-1]])


def test_a_byte_order_mark_stays_in_the_header(tmp_path):
    text = "\ufeffuserID\titemID\nu\ti\n"
    want = re.escape(repr(["\ufeffuserID", "itemID"]))
    with pytest.raises(MalformedHeader, match=want):
        parse_interactions(io.StringIO(text))
    path = tmp_path / "x.tsv"
    path.write_bytes(text.encode())
    with pytest.raises(MalformedHeader, match=want):
        read_interactions(path)


@pytest.mark.parametrize("st_size", [0, 5, 10**6])
def test_a_file_whose_size_changed_is_read_whole(tmp_path, monkeypatch, st_size):
    # a size from fstat below or above what a read finds, as for a file
    # that is still written or one that is not a regular file
    text = "userID\titemID\ttimestamp\n" + "".join(f"u{k}\ti{k % 7}\t{k}\n" for k in range(300))
    path = tmp_path / "x.tsv"
    path.write_bytes(text.encode())
    want = parse_file(path)
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=st_size))
    assert parse_file(path) == want == oracle.parse(io.StringIO(text))

def test_timestamp_bounds_are_int64():
    text = f"userID\titemID\ttimestamp\nu\ti\t{2**63 - 1}\nv\ti\t{-(2**63)}\n"
    assert [r.timestamp for r in parse_records(io.StringIO(text))] == [2**63 - 1, -(2**63)]


# ------------------------------------------------------------ the pipeline

records_lists = st.lists(
    st.builds(
        InteractionRecord,
        # a lone \r inside an ID must survive save_dataset and load_dataset
        st.sampled_from(["u0", "u1", "u10", "u2", "é", "U", "u\r1"]),
        st.sampled_from(["i0", "i1", "i10", "i2", "I", "i\x00"]),
        st.sampled_from([None, 1.0, 2.5]),
        st.sampled_from(GOOD_STAMPS),
    ),
    max_size=60,
)


@SETTINGS
@given(records_lists)
def test_dedupe_matches_oracle(records):
    assert oracle.records(dedupe_interactions(table(records))) == oracle.dedupe(records)


def test_dedupe_ties_above_2_53_fall_to_the_later_row():
    # 2**53 + 1 rounds to 2**53 as a float, so the two rows tie
    records = [InteractionRecord("u", "i", 1.0, 2**53 + 1), InteractionRecord("u", "i", 2.0, 2**53)]
    assert oracle.records(dedupe_interactions(table(records))) == [records[1]]


@SETTINGS
@given(records_lists, st.integers(1, 4))
def test_k_core_matches_oracle_and_brute_force(records, k):
    got = k_core_filter(table(records), FilterParams(k=k))
    assert oracle.records(got) == oracle.k_core(records, k)
    deduped = dedupe_interactions(table(records))
    core = oracle.records(k_core_filter(deduped, FilterParams(k=k)))
    edges = {(r.raw_user_id, r.raw_item_id) for r in oracle.records(deduped)}
    assert {(r.raw_user_id, r.raw_item_id) for r in core} == brute_force_k_core(edges, k)


@SETTINGS
@given(
    records_lists,
    st.sampled_from(["per_user_random", "global_random", "temporal_leave_last"]),
    st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (0.6, 0.0, 0.4), (1.0, 0.0, 0.0)]),
    st.integers(0, 2**64 - 1),
    st.booleans(),
)
def test_split_matches_oracle(records, strategy, ratios, seed, stamp_all):
    if stamp_all:  # else a temporal split mostly meets a missing timestamp
        records = [replace(r, timestamp=r.timestamp or 0) for r in records]
    spec = SplitSpec(strategy, ratios, seed)
    maps = outcome(build_id_maps, table(records))
    same_outcome(maps, outcome(oracle.id_maps, records))
    if maps[0] == "ok":
        want = outcome(oracle.split, records, maps[1], spec)
        same_outcome(outcome(split, table(records), maps[1], spec), want)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(records_lists, st.sampled_from(["per_user_random", "global_random"]))
def test_saved_dataset_loads_back(tmp_path, records, strategy):
    spec = SplitSpec(strategy, (0.6, 0.2, 0.2), 5)
    result = outcome(preprocess, table(records), FilterParams(k=1), spec)
    if result[0] == "ok":
        save_dataset(result[1], spec, tmp_path / "ds")
        assert load_dataset(tmp_path / "ds") == result[1]


def test_a_map_file_loads_in_file_order(tmp_path):
    # any distinct IDs indexed 0..n-1 in order form a valid map file, not
    # only the code-point order that preprocess writes; dicts filled out of
    # index order are still written in index order
    pairs = InteractionSet.from_arrays(np.array([0, 1, 2]), np.array([2, 1, 0]), 3, 3)
    dataset = Dataset(3, 3, {"a" * 9: 1, "zz": 0, "é": 2}, {"x": 1, "w": 2, "x\x00": 0}, pairs, pairs, pairs)
    save_dataset(dataset, SplitSpec("per_user_random", (0.6, 0.2, 0.2), 5), tmp_path / "ds")
    assert (tmp_path / "ds" / "umap.tsv").read_text("utf-8") == "zz\t0\naaaaaaaaa\t1\né\t2\n"
    assert (tmp_path / "ds" / "imap.tsv").read_bytes() == b"x\x00\t0\nx\t1\nw\t2\n"
    loaded = load_dataset(tmp_path / "ds")
    assert loaded == dataset
    assert list(loaded.user_map.items()) == [("zz", 0), ("a" * 9, 1), ("é", 2)]
    assert list(loaded.item_map.items()) == [("x\x00", 0), ("x", 1), ("w", 2)]


# ------------------------------------------------------------ the table

def test_table_from_records_reads_back_as_the_records():
    records = [
        InteractionRecord("b", "x", None, 7),
        InteractionRecord("a", "y", 4.5, None),
        InteractionRecord("b", "y", 1.0, 2),
    ]
    rows = table(records)
    assert len(rows) == 3
    assert oracle.records(rows) == records
    assert rows.user_ids.tolist() == ["a", "b"] and rows.users.tolist() == [1, 0, 1]
    assert oracle.records(rows.take(np.array([2, 0]))) == [records[2], records[0]]


def test_interaction_set_from_arrays_sorts_and_keeps_duplicates():
    iset = InteractionSet.from_arrays(np.array([1, 0, 1, 1]), np.array([3, 2, 1, 3]), 3, 4)
    assert iset.indptr.tolist() == [0, 1, 4, 4]
    assert iset.indices.tolist() == [2, 1, 3, 3]


# ------------------------------------------------- the one-key sorts

@SETTINGS
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_interaction_set_from_arrays_matches_oracle(n_rows, n_cols, data):
    # n_cols = 1 included, and duplicates wherever a pair is drawn twice
    drawn = data.draw(st.lists(st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1))))
    rows, cols = np.array(drawn, dtype=np.int64).reshape(-1, 2).T
    got = InteractionSet.from_arrays(rows, cols, n_rows, n_cols)
    assert got == oracle.interaction_set(drawn, n_rows, n_cols)


def test_interaction_set_from_empty_arrays():
    got = InteractionSet.from_arrays(np.array([], dtype=np.int64), [], 3, 1)
    assert got.indptr.tolist() == [0, 0, 0, 0] and got.nnz == 0


def test_interaction_set_keys_must_fit_in_int64():
    # a wrapped key would sort and split back silently wrong
    with pytest.raises(ValueError, match="int64"):
        InteractionSet.from_arrays(np.array([2]), np.array([0]), 3, 2**62)
    with pytest.raises(ValueError, match="int64"):
        InteractionSet.from_arrays(np.array([1]), np.array([0]), 2, 2**62)
    top = InteractionSet.from_arrays(np.array([0, 0]), np.array([2**62 - 1, 5]), 1, 2**62)
    assert top.indices.tolist() == [5, 2**62 - 1]


@pytest.mark.parametrize("col", [-1, 3])
def test_interaction_set_refuses_a_column_outside_its_width(col):
    # its key would fall among the next or previous row's keys
    with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
        InteractionSet.from_arrays(np.array([0, 1]), np.array([col, 2]), 2, 3)


def many_records(seed: int, n: int, stamps: list) -> list[InteractionRecord]:
    """``n`` records over 30 users and 20 items, so most pairs repeat."""
    rng = np.random.default_rng(seed)
    picks = zip(rng.integers(0, 30, n), rng.integers(0, 20, n), rng.integers(0, len(stamps), n))
    return [InteractionRecord(f"u{u}", f"i{i}", 1.0, stamps[t]) for u, i, t in picks]


@pytest.mark.parametrize("seed", range(4))
def test_dedupe_of_many_repeats_matches_oracle(seed):
    # about 7 rows per pair, tied at the greatest stamp in many of them,
    # with missing and present stamps mixed in one pair
    records = many_records(seed, 4000, [None, None, -1, 0, 1, 1, 2**53, 2**53 + 1])
    assert oracle.records(dedupe_interactions(table(records))) == oracle.dedupe(records)


def test_dedupe_of_an_empty_table():
    assert len(dedupe_interactions(table([]))) == 0


@pytest.mark.parametrize("seed", range(4))
def test_temporal_split_of_tied_and_extreme_stamps_matches_oracle(seed):
    # raw stamps this far apart overflow any product key built from them
    extremes = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**62, 2**63 - 2, 2**63 - 1]
    records = oracle.records(dedupe_interactions(table(many_records(seed, 3000, extremes))))
    spec = SplitSpec("temporal_leave_last", (0.5, 0.25, 0.25), 0)
    maps = oracle.id_maps(records)
    assert split(table(records), maps, spec) == oracle.split(records, maps, spec)


class TiedStream(Stream):
    """A stream whose words keep 2 of their top 53 bits, so nearly every
    permutation meets words that tie there and differ in their low bits."""

    def raw(self, n: int) -> np.ndarray:
        return super().raw(n) & np.uint64(0xC000_0000_0000_07FF)


@pytest.mark.parametrize("seed", range(4))
def test_per_user_split_of_tied_words_matches_oracle(monkeypatch, seed):
    def tied_stream(seed, *key):
        return TiedStream(np.random.SeedSequence(seed))

    monkeypatch.setattr(mmrec.data, "stream", tied_stream)
    monkeypatch.setattr(oracle, "stream", tied_stream)
    records = oracle.records(dedupe_interactions(table(many_records(seed, 500, [None]))))
    spec = SplitSpec("per_user_random", (0.5, 0.25, 0.25), seed)
    maps = oracle.id_maps(records)
    assert split(table(records), maps, spec) == oracle.split(records, maps, spec)


# ------------------------------------------------------------ the writer

def test_saved_pairs_are_the_bytes_of_one_format_per_line(tmp_path):
    edges = [0, 9, 10, 99, 100, 10**6]
    pairs = np.array([(u, i) for u in edges for i in edges], dtype=np.int64)
    n = 10**6 + 1
    sets = [InteractionSet.from_arrays(*part.T, n, n) for part in (pairs[::2], pairs[1::2], pairs[:0])]
    # save_dataset writes the maps it is given; only the pair files are read
    save_dataset(Dataset(n, n, {}, {}, *sets), SplitSpec("global_random", (1, 0, 0), 0), tmp_path)
    for name, iset in zip(("train", "valid", "test"), sets):
        rows, cols = iset.pair_arrays()
        want = "".join(map("{}\t{}\n".format, rows.tolist(), cols.tolist()))
        assert (tmp_path / f"{name}.tsv").read_bytes() == want.encode()
    assert (tmp_path / "test.tsv").read_bytes() == b""


def test_a_zero_valid_ratio_writes_an_empty_valid_file(tmp_path):
    records = many_records(0, 300, [None])
    spec = SplitSpec("per_user_random", (0.8, 0.0, 0.2), 3)
    save_dataset(preprocess(table(records), FilterParams(k=1), spec), spec, tmp_path)
    assert (tmp_path / "valid.tsv").read_bytes() == b""
    assert (tmp_path / "train.tsv").read_bytes() and (tmp_path / "test.tsv").read_bytes()
