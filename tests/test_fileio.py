"""Artifacts are written whole or not at all."""

import io
import os
import re
from pathlib import Path

import numpy as np
import pytest

from mmrec.data import load_dataset, parse_interactions, read_interactions
from mmrec.errors import MalformedHeader, MalformedLine, MmrecError
from mmrec.evaluation import MetricReport
from mmrec.experiment import parse_config
from mmrec.fileio import atomic_write, read_meta, write_meta
from mmrec.modality import load_feature_matrix, read_matrix, write_matrix
from mmrec.trainer import TrainLog, write_train_log


def test_clean_write_replaces_the_file(tmp_path):
    path = tmp_path / "summary.tsv"
    path.write_text("old\n")
    with atomic_write(path) as fh:
        fh.write("new\r\n")
    assert path.read_bytes() == b"new\r\n"
    assert os.listdir(tmp_path) == ["summary.tsv"]


@pytest.mark.parametrize("binary", [False, True])
def test_exception_mid_write_keeps_the_previous_file(tmp_path, binary):
    path = tmp_path / "summary.tsv"
    path.write_bytes(b"previous\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path, binary=binary) as fh:
            fh.write(b"partial" if binary else "partial")
            fh.flush()
            raise RuntimeError("killed mid-write")
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["summary.tsv"]


def test_exception_mid_write_leaves_no_new_file(tmp_path):
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(tmp_path / "meta") as fh:
            fh.write("kind: mf_bpr\n")
            raise KeyboardInterrupt
    assert os.listdir(tmp_path) == []


def test_train_log_failing_mid_write_keeps_the_previous_log(tmp_path):
    path = tmp_path / "train_log.tsv"
    write_train_log(TrainLog("recall@20", epoch_losses=[0.5]), path)
    before = path.read_bytes()
    # the epoch-2 evaluation lacks the stop metric's cutoff: the writer has
    # written two rows when the lookup fails
    report = MetricReport(cutoffs=(5,), values={"recall": {5: 0.1}}, n_evaluated=3)
    log = TrainLog("recall@20", epoch_losses=[0.4, 0.3], evaluations=[(2, report)])
    with pytest.raises(KeyError):
        write_train_log(log, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["train_log.tsv"]


def test_matrix_write_is_replaced_whole(tmp_path):
    path = tmp_path / "user_emb.mmf8"
    write_matrix(path, np.ones((2, 3)), magic=b"MMF8")
    write_matrix(path, np.zeros((4, 1)), magic=b"MMF8")
    assert np.array_equal(read_matrix(path, magic=b"MMF8"), np.zeros((4, 1)))
    assert os.listdir(tmp_path) == ["user_emb.mmf8"]


# ------------------------------------------------------ the one line rule

# Each case is one row with an ID, bytes before it and bytes after it, and
# what every reader reads from it under the rule: the row's ID, or the line
# of a byte that is not UTF-8. Every reader puts the ID in a row of its own
# format and leaves the bytes around it as they are.
LINE_CASES = {
    "lone-cr-in-a-line": (b"", b"u\ri", b"\n", ["u\ri"]),
    "crlf-blank-lines": (b"\r\n", b"1", b"\r\n\r\n", ["1"]),
    "cr-only-file": (b"", b"a\rb", b"\r\r", ["a\rb"]),
    "bad-byte-after-lone-cr": (b"\r\n", b"a\r\xff", b"\n", 2),
}
HEADER = b"userID\titemID\n"  # the first line an interaction file keeps


def _interactions(tmp_path, text: bytes, from_file: bool):
    if not from_file:
        return parse_interactions(io.StringIO(text.decode("utf-8")))
    (tmp_path / "x.tsv").write_bytes(text)
    return read_interactions(tmp_path / "x.tsv")


def read_interactions_file(tmp_path, lead, raw, tail):
    table = _interactions(tmp_path, lead + HEADER + raw + b"\tx" + tail, from_file=True)
    return table.user_ids[table.users].tolist()


def parse_interactions_stream(tmp_path, lead, raw, tail):
    table = _interactions(tmp_path, lead + HEADER + raw + b"\tx" + tail, from_file=False)
    return table.user_ids[table.users].tolist()


def _dataset(tmp_path, umap: bytes, train: bytes, n_users: int):
    write_meta(tmp_path / "meta", {"n_users": n_users, "n_items": 1})
    for name, body in (("umap", umap), ("imap", b"i\t0\n"), ("train", train), ("valid", b""), ("test", b"")):
        (tmp_path / f"{name}.tsv").write_bytes(body)
    return load_dataset(tmp_path)


def load_dataset_map(tmp_path, lead, raw, tail):
    return list(_dataset(tmp_path, lead + raw + b"\t0" + tail, b"", 1).user_map)


def load_dataset_pairs(tmp_path, lead, raw, tail):
    dataset = _dataset(tmp_path, b"u0\t0\nu1\t1\n", lead + raw + b"\t0" + tail, 2)
    return [str(user) for user in dataset.train.pair_arrays()[0].tolist()]


def load_feature_ids(tmp_path, lead, raw, tail):
    write_matrix(tmp_path / "f.mmf", np.zeros((1, 2), dtype=np.float32))
    (tmp_path / "f_ids.txt").write_bytes(lead + raw + tail)
    return load_feature_matrix(tmp_path / "f.mmf", tmp_path / "f_ids.txt").row_ids


def parse_config_file(tmp_path, lead, raw, tail):
    (tmp_path / "x.cfg").write_bytes(lead + b'interactions: "' + raw + b'"' + tail)
    return [Path(parse_config(tmp_path / "x.cfg")["interactions"]).name]


def read_meta_file(tmp_path, lead, raw, tail):
    (tmp_path / "meta").write_bytes(lead + b"id: " + raw + tail)
    return [read_meta(tmp_path / "meta")["id"]]


LINE_READERS = [
    read_interactions_file, parse_interactions_stream, load_dataset_map, load_dataset_pairs,
    load_feature_ids, parse_config_file, read_meta_file,
]


def _applies(reader, case: str) -> bool:
    _, raw, _, want = LINE_CASES[case]
    if reader is parse_interactions_stream:  # a text stream holds no undecodable byte
        return not isinstance(want, int)
    if reader is load_dataset_pairs:  # a \r inside an index is no index
        return b"\r" not in raw or isinstance(want, int)
    return True


@pytest.mark.parametrize("reader, case", [
    pytest.param(reader, case, id=f"{reader.__name__}-{case}")
    for reader in LINE_READERS for case in LINE_CASES if _applies(reader, case)
])
def test_one_line_rule(tmp_path, reader, case):
    lead, raw, tail, want = LINE_CASES[case]
    try:
        got = reader(tmp_path, lead, raw, tail)
    except (MmrecError, UnicodeError) as exc:
        found = re.search(r"line (\d+): not UTF-8", str(exc))
        assert found, exc
        got = int(found.group(1)) - (reader is read_interactions_file)  # its header is a line
    assert got == want


FROM_FILE = pytest.mark.parametrize("from_file", [True, False], ids=["file", "stream"])


@FROM_FILE
@pytest.mark.parametrize("blank", [b"\n", b"\r\n", b"\r\r\n\n"])
def test_lines_skipped_before_an_interaction_header(tmp_path, from_file, blank):
    table = _interactions(tmp_path, blank + HEADER + b"u\ti\n", from_file)
    assert table.user_ids[table.users].tolist() == ["u"]
    # a bad row reports its line in the file, skipped lines counted
    with pytest.raises(MalformedLine, match="expected 2 fields, got 3") as err:
        _interactions(tmp_path, blank + HEADER + b"u\ti\nu\ti\tx\n", from_file)
    assert err.value.line_no == blank.count(b"\n") + 3


@FROM_FILE
@pytest.mark.parametrize("text", [b"", b"\n", b"\r\n\r\r\n\n", b"\r"])
def test_an_interaction_input_of_skipped_lines_has_no_header(tmp_path, from_file, text):
    with pytest.raises(MalformedHeader) as err:
        _interactions(tmp_path, text, from_file)
    assert str(err.value) == "empty input, no header line"
