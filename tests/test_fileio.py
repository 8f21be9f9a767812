"""Artifacts are written whole or not at all."""

import os

import numpy as np
import pytest

from mmrec.evaluation import MetricReport
from mmrec.fileio import atomic_write
from mmrec.modality import read_matrix, write_matrix
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
    write_train_log(TrainLog(epoch_losses=[0.5]), path)
    before = path.read_bytes()
    # the epoch-2 evaluation lacks the stop metric's cutoff: the writer has
    # written two rows when the lookup fails
    report = MetricReport(cutoffs=(5,), values={"recall": {5: 0.1}}, n_evaluated=3)
    log = TrainLog(epoch_losses=[0.4, 0.3], evaluations=[(2, report)])
    with pytest.raises(KeyError):
        write_train_log(log, path, stop_metric="recall@20")
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["train_log.tsv"]


def test_matrix_write_is_replaced_whole(tmp_path):
    path = tmp_path / "user_emb.mmf8"
    write_matrix(path, np.ones((2, 3)), magic=b"MMF8")
    write_matrix(path, np.zeros((4, 1)), magic=b"MMF8")
    assert np.array_equal(read_matrix(path, magic=b"MMF8"), np.zeros((4, 1)))
    assert os.listdir(tmp_path) == ["user_emb.mmf8"]
