import os

import numpy as np
import pytest

import mmrec.experiment
import mmrec.models
import mmrec.trainer
from mmrec.errors import EmptySplit, MissingFeatures, ParseError, TypeMismatch, UnknownKey
from mmrec.evaluation import METRICS
from mmrec.experiment import (
    ExperimentConfig,
    _KEY_SPECS,
    _prepare_inputs,
    expand_grid,
    model_inputs,
    parse_config,
    run_experiment,
)
from mmrec.modality import fuse, write_matrix
from mmrec.models import MODEL_KINDS, build_adjacency


def write_toy_workspace(root, n_users=20, n_items=12, modalities=("text", "image"),
                        extra_lines=(), feature_dim=3, seed=0):
    """Interactions TSV + MMF1 feature files + a config file under ``root``."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    lines = ["userID\titemID"]
    for u in range(n_users):
        items = rng.choice(n_items, size=6, replace=False)
        lines += [f"u{u:02d}\ti{i:02d}" for i in items]
    (root / "interactions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    feature_keys = []
    for modality in modalities:
        values = rng.normal(size=(n_items, feature_dim)).astype(np.float32)
        write_matrix(root / f"{modality}.mmf", values)
        (root / f"{modality}_ids.txt").write_text(
            "".join(f"i{i:02d}\n" for i in range(n_items)), encoding="utf-8"
        )
        feature_keys.append(f"features.{modality}: {modality}.mmf,{modality}_ids.txt")

    base_lines = [
        "interactions: interactions.tsv",
        "k: 1",
        "seed: 77",
        "d: 4",
        "d_p: 3",
        "max_epochs: 2",
        "batch_size: 32",
        "learning_rate: 0.05",
        "topk: [5, 10]",
        "stop_metric: recall@5",
        *feature_keys,
    ]
    overridden = {line.split(":")[0].strip() for line in extra_lines if ":" in line}
    config_lines = ["# toy experiment"]
    config_lines += [l for l in base_lines if l.split(":")[0].strip() not in overridden]
    config_lines += list(extra_lines)
    (root / "config.txt").write_text("\n".join(config_lines) + "\n", encoding="utf-8")
    return root / "config.txt"


class TestParseConfig:
    def test_scalar_and_axis(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=["reg: [0.0, 0.1]"])
        config = parse_config(path)
        assert config["learning_rate"] == 0.05
        assert config.grid == {"reg": [0.0, 0.1]}

    def test_list_on_tunable_key_declares_axis(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=["n_layers: [0, 1]"])
        assert parse_config(path).grid["n_layers"] == [0, 1]

    def test_unknown_key(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=["learnig_rate: 0.01"])
        with pytest.raises(UnknownKey):
            parse_config(path)

    def test_list_on_scalar_only_key(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=["max_epochs: [1, 2]"])
        with pytest.raises(TypeMismatch):
            parse_config(path)

    def test_type_mismatch(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=["patience: soon"])
        with pytest.raises(TypeMismatch):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_toy_workspace(tmp_path)
        path.write_text(path.read_text() + "k: 2\nk: 3\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_config(path)

    def test_missing_colon(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=["just words"])
        with pytest.raises(ParseError):
            parse_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=["", "# note", "  "])
        parse_config(path)

    def test_quoted_string_value(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=['optimizer: "sgd"'])
        assert parse_config(path)["optimizer"] == "sgd"

    def test_defaults_applied(self, tmp_path):
        path = write_toy_workspace(tmp_path)
        config = parse_config(path)
        assert config["patience"] == 10
        assert config["fusion"] == "concat"
        assert config["ratios"] == (0.8, 0.1, 0.1)

    def test_paths_resolved_relative_to_config(self, tmp_path):
        path = write_toy_workspace(tmp_path / "nested")
        config = parse_config(path)
        assert os.path.isabs(config["interactions"])
        assert os.path.exists(config["interactions"])
        matrix_path, ids_path = config["features.text"]
        assert os.path.exists(matrix_path) and os.path.exists(ids_path)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        path = write_toy_workspace(tmp_path)
        monkeypatch.setenv("MMREC_SEED", "123456")
        assert parse_config(path)["seed"] == 123456

    def test_env_seed_must_be_integer(self, tmp_path, monkeypatch):
        path = write_toy_workspace(tmp_path)
        monkeypatch.setenv("MMREC_SEED", "abc")
        with pytest.raises(TypeMismatch):
            parse_config(path)

    @pytest.mark.parametrize("line, env_seed", [("seed: -1", None), ("seed: 5", "-1")])
    def test_bad_seed_is_blamed_on_seed(self, tmp_path, monkeypatch, line, env_seed):
        path = write_toy_workspace(tmp_path, extra_lines=[line])
        monkeypatch.delenv("MMREC_SEED", raising=False)
        if env_seed is not None:
            monkeypatch.setenv("MMREC_SEED", env_seed)
        with pytest.raises(TypeMismatch) as err:
            parse_config(path)
        assert err.value.key == "seed"

    def test_bad_ratio_sum(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=["ratios: [0.5, 0.1, 0.1]"])
        with pytest.raises(TypeMismatch):
            parse_config(path)

    def test_readme_example_parses_to_the_defaults(self, tmp_path, monkeypatch):
        # the README's example config spells out every key but two modalities, at its default value
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [line.split(":")[0] for line in block.splitlines() if line and not line.startswith("#")]
        assert sorted(keys) == sorted(set(_KEY_SPECS) - {"features.audio", "features.video"})
        (tmp_path / "example.cfg").write_text(block, encoding="utf-8")
        (tmp_path / "minimal.cfg").write_text("interactions: interactions.tsv\n", encoding="utf-8")
        monkeypatch.delenv("MMREC_SEED", raising=False)
        example = parse_config(tmp_path / "example.cfg")
        paths = {key: example[key] for key in ("features.text", "features.image")}
        assert example.grid == {}
        assert example.values == {**parse_config(tmp_path / "minimal.cfg").values, **paths}


class TestExpandGrid:
    def config_with(self, grid):
        return ExperimentConfig(values={}, grid=grid)

    def test_order_rightmost_fastest(self):
        combos = expand_grid(self.config_with({"learning_rate": [0.1, 0.01], "reg": [0, 1]}))
        assert combos == [
            {"learning_rate": 0.1, "reg": 0},
            {"learning_rate": 0.1, "reg": 1},
            {"learning_rate": 0.01, "reg": 0},
            {"learning_rate": 0.01, "reg": 1},
        ]

    def test_no_axes_single_combo(self):
        assert expand_grid(self.config_with({})) == [{}]

    def test_count_is_product_of_lengths(self):
        rng = np.random.default_rng(0)
        keys = ["batch_size", "d", "d_p", "fusion", "learning_rate", "n_layers", "reg"]
        for _ in range(25):
            n_axes = int(rng.integers(1, 5))
            grid = {}
            for key in rng.choice(keys, size=n_axes, replace=False):
                grid[str(key)] = list(range(int(rng.integers(1, 6))))
            combos = expand_grid(self.config_with(grid))
            expected = int(np.prod([len(v) for v in grid.values()]))
            assert len(combos) == expected
            assert len({tuple(sorted(c.items())) for c in combos}) == expected

    def test_axes_sorted_by_key(self):
        combos = expand_grid(self.config_with({"reg": [1, 2], "d": [3]}))
        assert combos == [{"d": 3, "reg": 1}, {"d": 3, "reg": 2}]


class TestRunExperiment:
    def test_single_combo_report(self, tmp_path):
        config = parse_config(write_toy_workspace(tmp_path))
        report = run_experiment(config, out_dir=tmp_path / "out")
        assert len(report.results) == 1
        assert report.best_index == 0
        result = report.results[0]
        assert result.error is None
        assert result.valid_report is not None and result.test_report is not None
        assert (tmp_path / "out" / "summary.tsv").exists()
        assert (tmp_path / "out" / "combo_000" / "checkpoint" / "meta").exists()

    def test_graph_run_builds_the_adjacency_once(self, tmp_path, monkeypatch):
        calls = []
        build = mmrec.models.build_adjacency

        def counted(train):
            calls.append(1)
            return build(train)

        monkeypatch.setattr(mmrec.experiment, "build_adjacency", counted)
        monkeypatch.setattr(mmrec.trainer, "build_adjacency", counted)
        config = parse_config(write_toy_workspace(tmp_path, extra_lines=["model: graph_mm"]))
        report = run_experiment(config, out_dir=tmp_path / "out")
        assert report.results[0].error is None
        assert report.results[0].test_report is not None
        assert len(calls) == 1

    @pytest.mark.parametrize("with_tables", [False, True])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_model_inputs_hold_the_fused_tables_and_the_graph_of_graph_kinds(self, tmp_path, kind, with_tables):
        dataset, tables, _ = _prepare_inputs(parse_config(write_toy_workspace(tmp_path)))
        tables = tables if with_tables else []
        inputs = model_inputs(kind, dataset, tables, "concat")
        # fused whenever there are tables, mf_bpr included
        assert (inputs.fused is not None) == with_tables
        if with_tables:
            assert np.array_equal(inputs.fused, fuse(tables, "concat"))
        assert (inputs.adjacency is not None) == (kind == "graph_mm")
        if kind == "graph_mm":
            assert np.array_equal(inputs.adjacency.toarray(), build_adjacency(dataset.train).toarray())

    def test_grid_rows_and_best(self, tmp_path):
        config = parse_config(
            write_toy_workspace(tmp_path, extra_lines=["learning_rate: [0.05, 0.01]", "reg: [0.0, 0.1]"])
        )
        report = run_experiment(config, out_dir=tmp_path / "out")
        assert len(report.results) == 4
        values = [r.valid_report.get("recall", 5) for r in report.results]
        assert report.best_index == int(np.argmax(values))
        lines = (tmp_path / "out" / "summary.tsv").read_text().splitlines()
        assert len(lines) == 1 + 4 + 1
        assert lines[-1] == f"# best: {report.best_index}"

    def test_topk_is_sorted_and_deduplicated(self, tmp_path):
        config = parse_config(write_toy_workspace(tmp_path, extra_lines=["topk: [10, 5, 5]"]))
        assert config["topk"] == (5, 10)
        run_experiment(config, out_dir=tmp_path / "out")
        header = (tmp_path / "out" / "summary.tsv").read_text().splitlines()[0].split("\t")
        metrics = [f"{s}_{m}@{k}" for s in ("valid", "test") for m in METRICS for k in (5, 10)]
        assert header == metrics + ["best_epoch", "wall_time", "error"]

    def test_byte_identical_reruns(self, tmp_path):
        path = write_toy_workspace(tmp_path, extra_lines=["fusion: [concat, sum, mean]"])
        for sub in ("r1", "r2"):
            run_experiment(parse_config(path), out_dir=tmp_path / sub)
        a, b = tmp_path / "r1", tmp_path / "r2"
        for rel_dir, _, files in os.walk(a):
            for name in files:
                if name == "timings.tsv":
                    continue
                rel = os.path.relpath(os.path.join(rel_dir, name), a)
                assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_seed_isolation(self, tmp_path):
        full = run_experiment(
            parse_config(write_toy_workspace(tmp_path / "w1", extra_lines=["reg: [0.0, 0.1]"]))
        )
        solo = run_experiment(
            parse_config(write_toy_workspace(tmp_path / "w2", extra_lines=["reg: [0.1]"]))
        )
        lone = solo.results[0]
        same = full.results[1]
        assert same.combo["reg"] == lone.combo["reg"] == 0.1
        for metric in ("recall", "ndcg"):
            for k in (5, 10):
                assert same.valid_report.get(metric, k) == lone.valid_report.get(metric, k)
                assert same.test_report.get(metric, k) == lone.test_report.get(metric, k)

    def test_noop_axis_gives_identical_metrics(self, tmp_path):
        # n_layers is unused by mf_bpr, so both rows must agree
        config = parse_config(write_toy_workspace(tmp_path, extra_lines=["n_layers: [0, 2]"]))
        report = run_experiment(config)
        a, b = report.results
        for k in (5, 10):
            assert a.valid_report.get("recall", k) == b.valid_report.get("recall", k)
            assert a.test_report.get("ndcg", k) == b.test_report.get("ndcg", k)

    def test_fail_soft_records_error(self, tmp_path):
        # d_p axis value 0 is caught by config validation, so break one combo
        # with an out-of-range n_layers for a graph model instead: use a
        # missing-feature failure by pointing the model at graph_mm without
        # features in one fusion... simplest: monkey-free approach uses d axis
        # with a huge value that still works; so instead corrupt one modality
        # dimension for sum fusion.
        path = write_toy_workspace(
            tmp_path, modalities=("text",), extra_lines=["fusion: [concat, sum]"]
        )
        # second modality with a different dim: sum fails, concat succeeds
        rng = np.random.default_rng(1)
        write_matrix(tmp_path / "image.mmf", rng.normal(size=(12, 5)).astype(np.float32))
        (tmp_path / "image_ids.txt").write_text(
            "".join(f"i{i:02d}\n" for i in range(12)), encoding="utf-8"
        )
        text = (tmp_path / "config.txt").read_text()
        (tmp_path / "config.txt").write_text(
            text + "features.image: image.mmf,image_ids.txt\n", encoding="utf-8"
        )
        report = run_experiment(parse_config(tmp_path / "config.txt"), out_dir=tmp_path / "out")
        by_combo = {r.combo["fusion"]: r for r in report.results}
        assert by_combo["concat"].error is None
        assert by_combo["sum"].error is not None and "DimensionMismatch" in by_combo["sum"].error
        assert report.best_index == report.results.index(by_combo["concat"])
        summary = (tmp_path / "out" / "summary.tsv").read_text()
        assert "DimensionMismatch" in summary

    def test_fail_fast_raises(self, tmp_path):
        path = write_toy_workspace(
            tmp_path, modalities=("text",), extra_lines=["fusion: [sum]", "fail_fast: true", "model: vbpr_mm"]
        )
        rng = np.random.default_rng(1)
        write_matrix(tmp_path / "image.mmf", rng.normal(size=(12, 5)).astype(np.float32))
        (tmp_path / "image_ids.txt").write_text(
            "".join(f"i{i:02d}\n" for i in range(12)), encoding="utf-8"
        )
        text = (tmp_path / "config.txt").read_text()
        (tmp_path / "config.txt").write_text(
            text + "features.image: image.mmf,image_ids.txt\n", encoding="utf-8"
        )
        with pytest.raises(Exception):
            run_experiment(parse_config(tmp_path / "config.txt"))

    def test_multimodal_model_requires_features(self, tmp_path):
        config = parse_config(
            write_toy_workspace(tmp_path, modalities=(), extra_lines=["model: vbpr_mm"])
        )
        with pytest.raises(MissingFeatures):
            run_experiment(config)

    def test_requires_validation_split(self, tmp_path):
        config = parse_config(
            write_toy_workspace(tmp_path, extra_lines=["ratios: [0.9, 0.0, 0.1]"])
        )
        with pytest.raises(EmptySplit):
            run_experiment(config)


class TestWriteReport:
    def test_best_line_recomputable_from_file(self, tmp_path):
        config = parse_config(
            write_toy_workspace(tmp_path, extra_lines=["learning_rate: [0.05, 0.01, 0.2]"])
        )
        report = run_experiment(config, out_dir=tmp_path / "out")
        lines = (tmp_path / "out" / "summary.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        col = header.index("valid_recall@5")
        values = [float(line.split("\t")[col]) for line in lines[1:-1]]
        assert lines[-1] == f"# best: {int(np.argmax(values))}"

    def test_wall_time_column_zero_filled(self, tmp_path):
        config = parse_config(write_toy_workspace(tmp_path))
        report = run_experiment(config, out_dir=tmp_path / "out")
        assert report.results[0].wall_time > 0  # measured in memory
        lines = (tmp_path / "out" / "summary.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        col = header.index("wall_time")
        assert lines[1].split("\t")[col] == "0.000000"
        timings = (tmp_path / "out" / "timings.tsv").read_text().splitlines()
        assert float(timings[1].split("\t")[1]) > 0

    def test_column_layout(self, tmp_path):
        config = parse_config(write_toy_workspace(tmp_path, extra_lines=["reg: [0.0, 0.1]"]))
        report = run_experiment(config, out_dir=tmp_path / "out")
        header = (tmp_path / "out" / "summary.tsv").read_text().splitlines()[0].split("\t")
        assert header[0] == "reg"
        assert "valid_recall@5" in header and "test_map@10" in header
        assert header[-3:] == ["best_epoch", "wall_time", "error"]
