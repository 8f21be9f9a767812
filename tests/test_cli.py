import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import mmrec
import mmrec.cli
from mmrec.cli import main
from mmrec.data import Dataset, SplitSpec, load_dataset, save_dataset
from mmrec.errors import MalformedDataset, MissingFeatures
from mmrec.modality import write_matrix
from mmrec.models import init_params, save_checkpoint

from conftest import make_interaction_set
from test_experiment import write_toy_workspace


def run(argv):
    return main([str(a) for a in argv])


class TestPreprocess:
    def test_with_flags(self, tmp_path, capsys):
        write_toy_workspace(tmp_path)
        code = run([
            "preprocess",
            "--interactions", tmp_path / "interactions.tsv",
            "--k", "1",
            "--split", "per_user_random",
            "--ratios", "0.8,0.1,0.1",
            "--seed", "9",
            "--out", tmp_path / "ds",
        ])
        assert code == 0
        ds = load_dataset(tmp_path / "ds")
        assert ds.n_users == 20 and ds.train.nnz > 0
        assert "users" in capsys.readouterr().out

    def test_with_config(self, tmp_path):
        config = write_toy_workspace(tmp_path)
        assert run(["preprocess", "--config", config, "--out", tmp_path / "ds"]) == 0
        assert (tmp_path / "ds" / "meta").exists()

    def test_missing_interactions_is_config_error(self, tmp_path):
        assert run(["preprocess", "--out", tmp_path / "ds"]) == 2

    def test_unreadable_file_is_hard_error(self, tmp_path):
        code = run(["preprocess", "--interactions", tmp_path / "nope.tsv", "--out", tmp_path / "d"])
        assert code == 1

    def test_bad_config_exit_2(self, tmp_path):
        config = write_toy_workspace(tmp_path, extra_lines=["learnig_rate: 0.1"])
        assert run(["preprocess", "--config", config, "--out", tmp_path / "ds"]) == 2


class TestTrain:
    def test_train_writes_artifacts(self, tmp_path, capsys):
        config = write_toy_workspace(tmp_path)
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 0
        assert (tmp_path / "out" / "checkpoint" / "meta").exists()
        assert (tmp_path / "out" / "train_log.tsv").exists()
        assert (tmp_path / "out" / "valid_report.tsv").exists()
        assert (tmp_path / "out" / "test_report.tsv").exists()

    def test_train_rejects_grid_config(self, tmp_path):
        config = write_toy_workspace(tmp_path, extra_lines=["reg: [0.0, 0.1]"])
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 2

    def test_multimodal_train(self, tmp_path):
        config = write_toy_workspace(tmp_path, extra_lines=["model: vbpr_mm"])
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 0

    def test_feature_header_larger_than_file(self, tmp_path, capsys):
        config = write_toy_workspace(tmp_path, extra_lines=["model: vbpr_mm"])
        (tmp_path / "image.mmf").write_bytes(b"MMF1" + struct.pack("<II", 2**32 - 1, 2**32 - 1) + bytes(16))
        assert run(["train", "--config", config, "--out", tmp_path / "out"]) == 1
        assert "image.mmf: truncated payload" in capsys.readouterr().err


class TestGrid:
    def test_grid_end_to_end(self, tmp_path, capsys):
        config = write_toy_workspace(tmp_path, extra_lines=["reg: [0.0, 0.1]"])
        assert run(["grid", "--config", config, "--out", tmp_path / "out"]) == 0
        out = capsys.readouterr().out
        assert "2 combinations" in out
        assert (tmp_path / "out" / "summary.tsv").exists()
        assert (tmp_path / "out" / "combo_001" / "checkpoint" / "meta").exists()

    def test_grid_where_every_combination_fails(self, tmp_path, capsys):
        # sum fusion needs equal widths, so both combinations fail at fusion
        config = write_toy_workspace(tmp_path, extra_lines=["model: vbpr_mm", "fusion: [sum, mean]"])
        write_matrix(tmp_path / "image.mmf", np.ones((12, 4), dtype=np.float32))
        assert run(["grid", "--config", config, "--out", tmp_path / "out"]) == 1
        captured = capsys.readouterr()
        assert "2 failed" in captured.out
        assert captured.err == "no combination finished successfully\n"

    def test_grid_jobs_flag(self, tmp_path):
        config = write_toy_workspace(tmp_path, extra_lines=["reg: [0.0, 0.1]"])
        assert run(["grid", "--config", config, "--out", tmp_path / "out", "--jobs", "2"]) == 0


class TestEval:
    def test_eval_prints_report(self, tmp_path, capsys):
        config = write_toy_workspace(tmp_path)
        run(["train", "--config", config, "--out", tmp_path / "out"])
        capsys.readouterr()
        code = run([
            "eval",
            "--checkpoint", tmp_path / "out" / "checkpoint",
            "--data", tmp_path / "out" / "dataset",
            "--split", "test",
            "--topk", "5,10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("metric\tk\tvalue")
        assert "recall\t5\t" in out and "n_evaluated\t" in out

    def test_eval_writes_report_file(self, tmp_path, capsys):
        config = write_toy_workspace(tmp_path)
        run(["train", "--config", config, "--out", tmp_path / "out"])
        code = run([
            "eval",
            "--checkpoint", tmp_path / "out" / "checkpoint",
            "--data", tmp_path / "out" / "dataset",
            "--out", tmp_path / "report",
        ])
        assert code == 0
        assert (tmp_path / "report" / "report.tsv").exists()

    def test_multimodal_eval_needs_config(self, tmp_path, capsys):
        config = write_toy_workspace(tmp_path, extra_lines=["model: vbpr_mm"])
        run(["train", "--config", config, "--out", tmp_path / "out"])
        capsys.readouterr()
        args = [
            "eval",
            "--checkpoint", tmp_path / "out" / "checkpoint",
            "--data", tmp_path / "out" / "dataset",
        ]
        assert run(args) == 1  # missing feature config is a hard error
        assert run(args + ["--config", config]) == 0
        out = capsys.readouterr().out
        assert "ndcg\t10\t" in out

    def test_multimodal_eval_with_a_config_without_features(self, tmp_path, capsys):
        config = write_toy_workspace(tmp_path / "trained", extra_lines=["model: vbpr_mm"])
        run(["train", "--config", config, "--out", tmp_path / "out"])
        bare = write_toy_workspace(tmp_path / "bare", modalities=())
        capsys.readouterr()
        argv = [
            "eval",
            "--checkpoint", tmp_path / "out" / "checkpoint",
            "--data", tmp_path / "out" / "dataset",
            "--config", bare,
        ]
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "features" in captured.err
        args = mmrec.cli._build_parser().parse_args([str(a) for a in argv])
        with pytest.raises(MissingFeatures):
            mmrec.cli._COMMANDS["eval"](args)

    @pytest.mark.parametrize("kind", ["vbpr_mm", "graph_mm"])
    def test_eval_refuses_features_of_another_width(self, tmp_path, capsys, kind):
        config = write_toy_workspace(tmp_path / "trained", extra_lines=[f"model: {kind}"])
        run(["train", "--config", config, "--out", tmp_path / "out"])
        wider = write_toy_workspace(tmp_path / "wider", extra_lines=[f"model: {kind}"], feature_dim=4)
        capsys.readouterr()
        code = run([
            "eval",
            "--checkpoint", tmp_path / "out" / "checkpoint",
            "--data", tmp_path / "out" / "dataset",
            "--config", wider,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: fused features have shape (12, 8), {kind} expects 6 columns\n"

    @pytest.mark.parametrize("kind", ["mf_bpr", "vbpr_mm", "graph_mm"])
    def test_eval_matches_train_report(self, tmp_path, capsys, kind):
        config = write_toy_workspace(tmp_path, extra_lines=[f"model: {kind}"])
        run(["train", "--config", config, "--out", tmp_path / "out"])
        capsys.readouterr()
        run([
            "eval",
            "--checkpoint", tmp_path / "out" / "checkpoint",
            "--data", tmp_path / "out" / "dataset",
            "--split", "test",
            "--topk", "5,10",
            *([] if kind == "mf_bpr" else ["--config", config]),
        ])
        printed = capsys.readouterr().out
        stored = (tmp_path / "out" / "test_report.tsv").read_text()
        assert printed == stored

    def test_graph_eval_builds_the_adjacency_once_through_the_runner(self, tmp_path, capsys, monkeypatch):
        config = write_toy_workspace(tmp_path, extra_lines=["model: graph_mm"])
        run(["train", "--config", config, "--out", tmp_path / "out"])
        calls = []
        build = mmrec.models.build_adjacency

        def counted(train):
            calls.append(1)
            return build(train)

        monkeypatch.setattr(mmrec.experiment, "build_adjacency", counted)
        code = run([
            "eval",
            "--checkpoint", tmp_path / "out" / "checkpoint",
            "--data", tmp_path / "out" / "dataset",
            "--config", config,
        ])
        assert code == 0
        assert len(calls) == 1

    def test_eval_refuses_checkpoint_of_another_size(self, tmp_path, capsys):
        save_checkpoint(init_params("mf_bpr", 20, 15, 4, seed=1), tmp_path / "ckpt")
        split = lambda pairs: make_interaction_set(pairs, 5, 4)
        dataset = Dataset(
            5, 4, {f"u{u}": u for u in range(5)}, {f"i{i}": i for i in range(4)},
            split({(u, u % 4) for u in range(5)}),
            split(set()),
            split({(u, (u + 1) % 4) for u in range(5)}),
        )
        save_dataset(dataset, SplitSpec("per_user_random", (0.8, 0.1, 0.1), 1), tmp_path / "ds")
        code = run(["eval", "--checkpoint", tmp_path / "ckpt", "--data", tmp_path / "ds"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "20 users and 15 items" in captured.err

    def test_eval_of_checkpoint_tensor_larger_than_file(self, tmp_path, capsys):
        TestEvalRefusesCorruptDataset().write(tmp_path)
        tensor = tmp_path / "ckpt" / "item_emb.mmf8"
        tensor.write_bytes(b"MMF8" + struct.pack("<II", 200000, 100000) + tensor.read_bytes()[12:])
        code = run(["eval", "--checkpoint", tmp_path / "ckpt", "--data", tmp_path / "ds"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "item_emb.mmf8: truncated payload" in captured.err

    def test_eval_refuses_non_finite_checkpoint(self, tmp_path, capsys):
        TestEvalRefusesCorruptDataset().write(tmp_path)
        write_matrix(tmp_path / "ckpt" / "user_emb.mmf8", np.full((5, 4), np.nan), magic=b"MMF8")
        code = run(["eval", "--checkpoint", tmp_path / "ckpt", "--data", tmp_path / "ds"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "user_emb holds NaN or Inf values" in captured.err

    def test_eval_of_checkpoint_without_seed_is_an_error(self, tmp_path, capsys):
        config = write_toy_workspace(tmp_path)
        run(["train", "--config", config, "--out", tmp_path / "out"])
        meta = tmp_path / "out" / "checkpoint" / "meta"
        meta.write_text("".join(
            line for line in meta.read_text().splitlines(keepends=True) if not line.startswith("seed:")
        ))
        capsys.readouterr()
        code = run(["eval", "--checkpoint", tmp_path / "out" / "checkpoint",
                    "--data", tmp_path / "out" / "dataset"])
        assert code == 1
        assert "'seed'" in capsys.readouterr().err


class TestEvalRefusesCorruptDataset:
    """A damaged pair file is a typed error with exit code 1, never a traceback
    or a silent load."""

    def write(self, root):
        save_checkpoint(init_params("mf_bpr", 5, 4, 4, seed=1), root / "ckpt")
        split = lambda pairs: make_interaction_set(pairs, 5, 4)
        dataset = Dataset(
            5, 4, {f"u{u}": u for u in range(5)}, {f"i{i}": i for i in range(4)},
            split({(u, u % 4) for u in range(5)}),
            split(set()),
            split({(u, (u + 1) % 4) for u in range(5)}),
        )
        save_dataset(dataset, SplitSpec("per_user_random", (0.8, 0.1, 0.1), 1), root / "ds")

    def eval_with_test_line(self, root, capsys, line):
        self.write(root)
        test = root / "ds" / "test.tsv"
        test.write_text(test.read_text() + line, encoding="utf-8")
        capsys.readouterr()
        code = run(["eval", "--checkpoint", root / "ckpt", "--data", root / "ds"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        with pytest.raises(MalformedDataset):
            load_dataset(root / "ds")
        return captured.err

    def test_user_index_beyond_n_users(self, tmp_path, capsys):
        err = self.eval_with_test_line(tmp_path, capsys, "5\t0\n")
        assert "test.tsv: line 6: user index 5 outside [0, 5)" in err

    def test_item_index_beyond_n_items(self, tmp_path, capsys):
        err = self.eval_with_test_line(tmp_path, capsys, "0\t4\n")
        assert "test.tsv: line 6: item index 4 outside [0, 4)" in err

    def test_three_field_line(self, tmp_path, capsys):
        err = self.eval_with_test_line(tmp_path, capsys, "0\t1\t2\n")
        assert "test.tsv: line 6: expected 2 fields, got 3" in err

    def test_non_integer_index(self, tmp_path, capsys):
        err = self.eval_with_test_line(tmp_path, capsys, "0\tx\n")
        assert "test.tsv: line 6: bad item index 'x'" in err

    def test_undecodable_byte(self, tmp_path, capsys):
        self.write(tmp_path)
        test = tmp_path / "ds" / "test.tsv"
        test.write_bytes(test.read_bytes() + b"0\t\xff\n")
        capsys.readouterr()
        assert run(["eval", "--checkpoint", tmp_path / "ckpt", "--data", tmp_path / "ds"]) == 1
        assert "test.tsv: line 6: not UTF-8: byte 0xff" in capsys.readouterr().err

    def test_undecodable_meta(self, tmp_path, capsys):
        self.write(tmp_path)
        meta = tmp_path / "ds" / "meta"
        meta.write_bytes(meta.read_bytes().replace(b"strategy: ", b"strategy: \xff"))
        capsys.readouterr()
        assert run(["eval", "--checkpoint", tmp_path / "ckpt", "--data", tmp_path / "ds"]) == 1
        assert "meta: line 3: not UTF-8: byte 0xff" in capsys.readouterr().err
        with pytest.raises(MalformedDataset, match="meta: line 3"):
            load_dataset(tmp_path / "ds")

    def test_earliest_bad_line_is_reported(self, tmp_path):
        # the field-count check of line 7 does not outrank the range check of line 1
        self.write(tmp_path)
        test = tmp_path / "ds" / "test.tsv"
        test.write_text("9\t0\n" + test.read_text() + "0\t1\t2\n", encoding="utf-8")
        with pytest.raises(MalformedDataset, match=r"test.tsv: line 1: user index 9 outside \[0, 5\)"):
            load_dataset(tmp_path / "ds")

    def test_meta_without_sizes(self, tmp_path, capsys):
        self.write(tmp_path)
        meta = tmp_path / "ds" / "meta"
        meta.write_text(meta.read_text().replace("n_items", "n_things"), encoding="utf-8")
        capsys.readouterr()
        assert run(["eval", "--checkpoint", tmp_path / "ckpt", "--data", tmp_path / "ds"]) == 1
        assert "needs integer n_users and n_items" in capsys.readouterr().err

    def test_map_out_of_order(self, tmp_path, capsys):
        self.write(tmp_path)
        (tmp_path / "ds" / "imap.tsv").write_text("i0\t0\ni1\t2\ni2\t1\ni3\t3\n", encoding="utf-8")
        with pytest.raises(MalformedDataset, match="imap.tsv"):
            load_dataset(tmp_path / "ds")


class TestBadValuesExit2:
    """A bad flag or config value is a configuration error: exit 2 before any
    data is read and before the output directory is made."""

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--k", "0"],
        ["preprocess", "--ratios", "0.5,0.5"],
        ["preprocess", "--seed", "-1"],
        ["eval", "--topk", "0"],
    ])
    def test_bad_flag(self, tmp_path, capsys, argv):
        # no input exists, so reading one would exit 1
        inputs = {
            "preprocess": ["--interactions", tmp_path / "none.tsv"],
            "eval": ["--checkpoint", tmp_path / "none", "--data", tmp_path / "none"],
        }
        assert run(argv + inputs[argv[0]] + ["--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line", [
        "topk: [0, 5]",
        "adam_beta1: 1.5",
        "k: 0",
        "learning_rate: [0.05, 0.0]",
        "max_epochs: -1",
    ])
    def test_bad_config_value(self, tmp_path, capsys, line):
        config = write_toy_workspace(tmp_path, extra_lines=[line])
        assert run(["grid", "--config", config, "--out", tmp_path / "out"]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_selection_cutoff_outside_topk(self, tmp_path, capsys, command):
        # the stop metric selects the best epoch and the best grid row
        config = write_toy_workspace(tmp_path, extra_lines=["stop_metric: recall@20"])
        # reading the missing interactions file would exit 1
        (tmp_path / "interactions.tsv").unlink()
        assert run([command, "--config", config, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: stop_metric: cutoff 20 not in topk (5, 10)\n"
        assert not (tmp_path / "out").exists()


class TestEntryPoint:
    """``python -m mmrec`` runs the same ``main`` and exits with its code."""

    def mmrec(self, *argv):
        src = os.path.dirname(os.path.dirname(mmrec.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-m", "mmrec", *map(str, argv)], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_preprocess(self, tmp_path):
        write_toy_workspace(tmp_path)
        done = self.mmrec("preprocess", "--interactions", tmp_path / "interactions.tsv", "--k", "1",
                          "--out", tmp_path / "ds")
        assert done.returncode == 0, done.stderr
        assert load_dataset(tmp_path / "ds").n_users == 20

    def test_bad_flag_exits_2(self, tmp_path):
        done = self.mmrec("preprocess", "--interactions", tmp_path / "none.tsv", "--ratios", "0.8,0.2",
                          "--out", tmp_path / "ds")
        assert done.returncode == 2
        assert done.stderr == "config error: ratios: ratios must be three non-negative numbers\n"
