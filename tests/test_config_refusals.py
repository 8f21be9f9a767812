"""Every refused config line or flag value: its error type, the key it is
blamed on, and exit code 2 from ``mmrec``."""

import numpy as np
import pytest

import mmrec.cli
from mmrec.data import FilterParams, SplitSpec
from mmrec.errors import ParseError, TypeMismatch, UnknownKey
from mmrec.models import FEATURE_KINDS
from mmrec.rng import check_seed
from mmrec.trainer import TrainConfig

from test_experiment import write_toy_workspace

# (config line, error, key); an unknown key is its own name, and a grammar
# error (key None) names the line instead. The empty line stands for a
# config without an interactions line.
CONFIG_REFUSALS = [
    ("reg: abc", TypeMismatch, "reg"),
    ("k: five", TypeMismatch, "k"),
    ("standardize: false", UnknownKey, "standardize"),
    ("selection_metric: recall@20", UnknownKey, "selection_metric"),
    ("stop_metric: hits@5", TypeMismatch, "stop_metric"),
    ("stop_metric: recall", TypeMismatch, "stop_metric"),
    ("features.text: text.mmf", TypeMismatch, "features.text"),
    ("fusion: product", TypeMismatch, "fusion"),
    ("optimizer: nope", TypeMismatch, "optimizer"),
    ("split: sideways", TypeMismatch, "split"),
    ("split: global_random", TypeMismatch, "split"),
    ("fail_fast: false", UnknownKey, "fail_fast"),
    ("model: mf bpr", ParseError, None),
    ("k:", ParseError, None),
    ("reg: [0.1, 0.2", ParseError, None),
    ("just words", ParseError, None),
    ("learnig_rate: 0.1", UnknownKey, "learnig_rate"),
    ("ratios: [0.8, 0.2]", TypeMismatch, "ratios"),
    ("ratios: [0.8, 0.1, x]", TypeMismatch, "ratios"),
    ("ratios: [0.5, 0.6, -0.1]", TypeMismatch, "ratios"),
    ("ratios: [0.5, 0.1, 0.1]", TypeMismatch, "ratios"),
    ("ratios: [0.0, 0.5, 0.5]", TypeMismatch, "ratios"),
    ("ratios: [nan, 0.5, 0.5]", TypeMismatch, "ratios"),
    ("reg: []", TypeMismatch, "reg"),
    ("max_epochs: [1, 2]", TypeMismatch, "max_epochs"),
    ("ratios: 0.8", TypeMismatch, "ratios"),
    ("topk: 5", TypeMismatch, "topk"),
    ("topk: [0, 5]", TypeMismatch, "topk"),
    ("topk: [5, x]", TypeMismatch, "topk"),
    ("d: 0", TypeMismatch, "d"),
    ("d_p: [4, 0]", TypeMismatch, "d_p"),
    ("n_layers: -1", TypeMismatch, "n_layers"),
    ("reg: -0.1", TypeMismatch, "reg"),
    ("reg: nan", TypeMismatch, "reg"),
    ("stop_metric: recall@20", TypeMismatch, "stop_metric"),
    ("k: 0", TypeMismatch, "k"),
    ("seed: -1", TypeMismatch, "seed"),
    ("learning_rate: [0.05, 0.0]", TypeMismatch, "learning_rate"),
    ("learning_rate: nan", TypeMismatch, "learning_rate"),
    ("learning_rate: inf", TypeMismatch, "learning_rate"),
    ("learning_rate: -inf", TypeMismatch, "learning_rate"),
    ("reg: inf", TypeMismatch, "reg"),
    ("adam_beta1: 0.9", UnknownKey, "adam_beta1"),
    ("adam_beta2: 0.999", UnknownKey, "adam_beta2"),
    ("adam_eps: 1e-8", UnknownKey, "adam_eps"),
    ("batch_size: 0", TypeMismatch, "batch_size"),
    ("patience: 0", TypeMismatch, "patience"),
    ("eval_interval: 0", TypeMismatch, "eval_interval"),
    ("max_epochs: -1", TypeMismatch, "max_epochs"),
    ("", TypeMismatch, "interactions"),
]

# (flags, error, key); the flags of a command that would read a missing input
FLAG_REFUSALS = [
    (["preprocess", "--ratios", "0.8,0.1,x"], TypeMismatch, "ratios"),
    (["preprocess", "--ratios", "0.8,0.2"], TypeMismatch, "ratios"),
    (["preprocess", "--ratios", "0.5,0.6,-0.1"], TypeMismatch, "ratios"),
    (["preprocess", "--split", "sideways"], TypeMismatch, "split"),
    (["preprocess", "--split", "global_random"], TypeMismatch, "split"),
    (["preprocess", "--k", "0"], TypeMismatch, "k"),
    (["preprocess", "--k", "x"], TypeMismatch, "k"),
    (["preprocess", "--seed", "-1"], TypeMismatch, "seed"),
    (["eval", "--topk", "0"], TypeMismatch, "topk"),
    (["eval", "--topk", "5,x"], TypeMismatch, "topk"),
]


def refusal(argv, capsys):
    """The ConfigError that refuses ``argv``, after checking that ``mmrec``
    exits 2 on it with a config error message."""
    argv = [str(a) for a in argv]
    assert mmrec.cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    args = mmrec.cli._build_parser().parse_args(argv)
    with pytest.raises(mmrec.cli.ConfigError) as err:
        mmrec.cli._COMMANDS[args.command](args)
    return err.value


def config_argv(tmp_path, line):
    path = write_toy_workspace(tmp_path, extra_lines=[line] if line else [])
    if not line:
        path.write_text(path.read_text().replace("interactions: interactions.tsv\n", ""))
    return ["grid", "--config", path, "--out", tmp_path / "out"]


def flag_argv(tmp_path, flags):
    inputs = {
        "preprocess": ["--interactions", tmp_path / "none.tsv", "--out", tmp_path / "out"],
        "eval": ["--checkpoint", tmp_path / "none", "--data", tmp_path / "none"],
    }
    return flags + inputs[flags[0]]


@pytest.mark.parametrize("line, error, key", CONFIG_REFUSALS)
def test_config_line_is_refused_on_its_key(tmp_path, capsys, line, error, key):
    argv = config_argv(tmp_path, line)
    exc = refusal(argv, capsys)
    assert type(exc) is error
    if error is TypeMismatch:
        assert exc.key == key
    elif error is UnknownKey:
        assert exc.name == key
    else:
        assert exc.line_no == len(argv[2].read_text().splitlines())
    assert not (tmp_path / "out").exists()


# (model kind, a grid axis it does not read): every value would train the same model
UNREAD_AXES = [
    ("mf_bpr", "d_p: [3, 5]"),
    ("graph_mm", "d_p: [3, 5]"),
    ("mf_bpr", "n_layers: [1, 3]"),
    ("vbpr_mm", "n_layers: [1, 3]"),
    ("mf_bpr", "fusion: [concat, sum]"),
]


@pytest.mark.parametrize("kind, line", UNREAD_AXES, ids=[f"{kind}-{line.split(':')[0]}" for kind, line in UNREAD_AXES])
def test_axis_the_kind_does_not_read_is_refused_on_its_key(tmp_path, capsys, kind, line):
    path = write_toy_workspace(tmp_path, extra_lines=[f"model: {kind}", line])
    # reading the missing interactions file would exit 1
    (tmp_path / "interactions.tsv").unlink()
    exc = refusal(["grid", "--config", path, "--out", tmp_path / "out"], capsys)
    key = line.split(":")[0]
    assert type(exc) is TypeMismatch and exc.key == key
    assert str(exc) == f"{key}: model {kind} does not read {key}, so it cannot be a grid axis"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", FEATURE_KINDS)
def test_feature_kind_without_features_is_refused_before_any_read(tmp_path, capsys, kind):
    path = write_toy_workspace(tmp_path, modalities=(), extra_lines=[f"model: {kind}"])
    # reading the missing interactions file would exit 1
    (tmp_path / "interactions.tsv").unlink()
    exc = refusal(["grid", "--config", path, "--out", tmp_path / "out"], capsys)
    assert type(exc) is TypeMismatch and exc.key == "model"
    assert str(exc) == f"model: model {kind} needs features.<modality> entries"
    assert not (tmp_path / "out").exists()


def test_an_unread_axis_is_blamed_on_its_bound_first(tmp_path, capsys):
    path = write_toy_workspace(tmp_path, extra_lines=["model: mf_bpr", "d_p: [4, 0]"])
    exc = refusal(["grid", "--config", path, "--out", tmp_path / "out"], capsys)
    assert str(exc) == "d_p: d_p must be finite and positive, got 0"


@pytest.mark.parametrize("name, value", [
    ("batch_size", 2.5), ("max_epochs", 2.0), ("patience", "3"), ("eval_interval", 1.5),
])
def test_train_config_refuses_a_count_that_is_not_an_integer(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= "):
        TrainConfig(**{name: value})
    # numpy integers are integers
    assert getattr(TrainConfig(**{name: np.int64(3)}), name) == 3


# (build from a value of the field, field): a seed or k that is not an integer is refused, not truncated
INTEGER_FIELDS = [
    (check_seed, "seed"),
    (lambda seed: TrainConfig(seed=seed), "seed"),
    (lambda seed: SplitSpec("per_user_random", (0.8, 0.1, 0.1), seed), "seed"),
    (FilterParams, "k"),
]


@pytest.mark.parametrize("build, name", INTEGER_FIELDS, ids=["check_seed", "TrainConfig", "SplitSpec", "FilterParams"])
@pytest.mark.parametrize("value", [2.9, 1.5, 3.0, "12"])
def test_seed_and_k_refuse_a_value_that_is_not_an_integer(build, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        build(value)
    # numpy integers are integers
    build(np.int64(3))
    build(np.uint64(3))


def test_split_spec_refuses_a_removed_strategy():
    with pytest.raises(ValueError, match="^unknown split strategy 'global_random'$"):
        SplitSpec("global_random", (0.8, 0.1, 0.1), 0)


def test_undecodable_config_names_its_line(tmp_path, capsys):
    argv = config_argv(tmp_path, "model: mf_bpr")
    argv[2].write_bytes(argv[2].read_bytes().replace(b"mf_bpr", b"mf_\xffbpr"))
    exc = refusal(argv, capsys)
    assert type(exc) is ParseError
    assert exc.line_no == len(argv[2].read_bytes().splitlines())
    assert str(exc).endswith("not UTF-8: byte 0xff (invalid start byte)")


@pytest.mark.parametrize("flags, error, key", FLAG_REFUSALS, ids=[" ".join(f) for f, _, _ in FLAG_REFUSALS])
def test_flag_is_refused_on_its_key(tmp_path, capsys, flags, error, key):
    exc = refusal(flag_argv(tmp_path, flags), capsys)
    assert type(exc) is error and exc.key == key
    assert not (tmp_path / "out").exists()


# (config line, flags) that give one key the same value
TWINS = [
    ("ratios: [0.8, 0.2]", ["preprocess", "--ratios", "0.8,0.2"]),
    ("ratios: [0.8, 0.1, x]", ["preprocess", "--ratios", "0.8,0.1,x"]),
    ("ratios: [0.5, 0.6, -0.1]", ["preprocess", "--ratios", "0.5,0.6,-0.1"]),
    ("split: sideways", ["preprocess", "--split", "sideways"]),
    ("k: x", ["preprocess", "--k", "x"]),
    ("k: 0", ["preprocess", "--k", "0"]),
    ("seed: -1", ["preprocess", "--seed", "-1"]),
    ("topk: [0]", ["eval", "--topk", "0"]),
    ("topk: [5, x]", ["eval", "--topk", "5,x"]),
]


@pytest.mark.parametrize("line, flags", TWINS, ids=[line for line, _ in TWINS])
def test_flag_and_config_line_give_one_message(tmp_path, capsys, line, flags):
    assert mmrec.cli.main([str(a) for a in config_argv(tmp_path, line)]) == 2
    from_config = capsys.readouterr().err
    assert mmrec.cli.main([str(a) for a in flag_argv(tmp_path, flags)]) == 2
    assert capsys.readouterr().err == from_config


def test_env_seed_and_config_line_give_one_message(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MMREC_SEED", raising=False)
    assert mmrec.cli.main([str(a) for a in config_argv(tmp_path, "seed: abc")]) == 2
    from_config = capsys.readouterr().err
    monkeypatch.setenv("MMREC_SEED", "abc")
    assert mmrec.cli.main([str(a) for a in config_argv(tmp_path, "seed: 5")]) == 2
    assert capsys.readouterr().err == from_config == "config error: seed: expected integer, got 'abc'\n"
