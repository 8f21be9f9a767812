"""Config files, hyperparameter grids and reproducible experiment runs.

A config file holds one ``key: value`` pair per line; a line whose first
non-blank character is ``#`` is a comment, and there are no trailing
comments. Values are integers, decimals, quoted strings, bare tokens or
bracketed lists ``[a, b, c]``. A list on a tunable key (learning_rate, reg,
d, d_p, n_layers, fusion, batch_size) that the model kind reads
(``models.KIND_READS``) declares a grid axis; the grid is the Cartesian
product of all axes, ordered with axes sorted by key name and the rightmost
axis varying fastest. The training keys and their defaults are
``TrainConfig``'s fields; the default cutoffs are
``evaluation.DEFAULT_CUTOFFS``, and ``topk`` is sorted and deduplicated.

Each key has one converter, shared by config files, ``MMREC_SEED`` and the
``mmrec`` flags that name a key; ``ratios`` and ``topk`` convert each item
and hand the tuple to their rule's owner. Values are checked before any
data is read, and a refused value raises ``TypeMismatch`` on its own key:
each owner's rule (k-core, seed, ratios, cutoffs, each ``TrainConfig``
field alone), the model bounds, then an axis that the kind does not read,
a kind that reads features without a ``features.*`` line (on ``model``),
and a stop metric whose cutoff is not in ``topk``: the one validation
metric, which picks best epochs and grid rows.

Raw data is preprocessed once, and feature files are read only for the
kinds that read features; every combination then trains and evaluates
against the same frozen split, with all random streams re-derived from the
config seed, so each combination reproduces independently of the others.
The environment variable ``MMREC_SEED`` overrides the config seed.

Combinations run one after another in one process: a thread pool was
measured slower than that under the interpreter lock and BLAS contention.
Every artifact is written through :func:`mmrec.fileio.atomic_write`.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (FilterParams, SplitSpec, SPLIT_STRATEGIES, check_ratios, preprocess, read_interactions,
                   save_dataset)
from .errors import (
    EmptySplit,
    ParseError,
    TypeMismatch,
    UnknownKey,
)
from .evaluation import (
    DEFAULT_CUTOFFS,
    METRICS,
    MetricReport,
    Ranking,
    check_cutoffs,
    evaluate,
    parse_metric_spec,
    write_metric_report,
)
from .fileio import atomic_write, read_lines
from .modality import (
    FUSION_METHODS,
    IMPUTATION_POLICIES,
    MODALITIES,
    align_features,
    fuse,
    load_feature_matrix,
    read_header,
)
from .models import (FEATURE_KINDS, GRAPH_KINDS, KIND_READS, MODEL_KINDS, ModelInputs, build_adjacency,
                     check_hyperparameters, save_checkpoint)
from .rng import check_seed
from .trainer import TrainConfig, fit, write_train_log

GRID_KEYS = ("batch_size", "d", "d_p", "fusion", "learning_rate", "n_layers", "reg")
_LIST_KEYS = ("ratios", "topk")
# the config keys of the model hyperparameters -> their names in mmrec.models
_MODEL_KEYS = {"d": "d", "d_p": "d_p", "n_layers": "n_layers", "reg": "lambda_reg"}


def _token(parse, expected: str):
    """A converter of one token through ``parse``; a token that ``parse``
    refuses (ValueError or KeyError) is reported as not ``expected``."""
    def convert(token: str):
        try:
            return parse(token)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}, got {token!r}") from None
    return convert


def _member(allowed: tuple[str, ...]):
    return _token({name: name for name in allowed}.__getitem__, f"one of {allowed}")


def _finite(token: str) -> float:
    value = float(token)
    if not np.isfinite(value):
        raise ValueError(token)
    return value


_integer, _number = _token(int, "integer"), _token(_finite, "finite number")


def _path_pair(token: str) -> tuple[str, str]:
    parts = tuple(p.strip() for p in token.split(","))
    if len(parts) != 2 or not all(parts):
        raise ValueError("expected <matrix_path>,<ids_path>")
    return parts


# key -> (converter, default); None means "must be provided when needed". The
# training keys are TrainConfig's fields, converted by their defaults' types;
# TrainConfig checks each of them, the optimizer and stop metric included.
_KEY_SPECS: dict[str, tuple] = {
    "interactions": (str, None),
    "k": (_integer, 5),
    "split": (_member(SPLIT_STRATEGIES), "per_user_random"),
    "ratios": (lambda tokens: check_ratios(map(_number, tokens)), (0.8, 0.1, 0.1)),
    "imputation": (_member(IMPUTATION_POLICIES), "zeros"),
    "fusion": (_member(FUSION_METHODS), "concat"),
    "model": (_member(MODEL_KINDS), "mf_bpr"),
    "d": (_integer, 64),
    "d_p": (_integer, 64),
    "n_layers": (_integer, 2),
    "reg": (_number, 0.0),
    **{f.name: ({int: _integer, float: _number, str: str}[type(f.default)], f.default)
       for f in fields(TrainConfig)},
    "topk": (lambda tokens: check_cutoffs(map(_integer, tokens)), DEFAULT_CUTOFFS),
    **{f"features.{m}": (_path_pair, None) for m in MODALITIES},
}


def _convert(key: str, value: str | list[str]):
    """The value of ``key`` from one token, or from the tokens of a list
    key; a refused value raises TypeMismatch on ``key``. Config files,
    ``MMREC_SEED`` and the command-line flags all convert through here."""
    listed = key in _LIST_KEYS
    if isinstance(value, list) != listed:
        raise TypeMismatch(key, "expected a bracketed list" if listed else "this key is scalar-only")
    return _checked(key, _KEY_SPECS[key][0], value)


@dataclass
class ExperimentConfig:
    values: dict[str, object]
    grid: dict[str, list]

    def __getitem__(self, key: str):
        return self.values[key]

    def feature_paths(self) -> dict[str, tuple[str, str]]:
        pairs = {modality: self.values.get(f"features.{modality}") for modality in MODALITIES}
        return {modality: pair for modality, pair in pairs.items() if pair is not None}

    def with_combo(self, combo: dict[str, object]) -> "ExperimentConfig":
        return replace(self, values={**self.values, **combo}, grid={})


def _unquote(token: str, line_no: int) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] in "\"'" and token[-1] == token[0]:
        return token[1:-1]
    if any(ch.isspace() for ch in token):
        raise ParseError(line_no, f"unquoted value contains whitespace: {token!r}")
    return token


def parse_config(path: str | os.PathLike) -> ExperimentConfig:
    """Parse a config file; unknown keys, duplicates and refused values raise."""
    base_dir = Path(path).parent.resolve()
    values: dict[str, object] = {k: default for k, (_, default) in _KEY_SPECS.items()}
    grid: dict[str, list] = {}
    seen: set[str] = set()

    for line_no, raw_line in read_lines(path, ParseError):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(line_no, "expected 'key: value'")
        key, _, value_text = line.partition(":")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _KEY_SPECS:
            raise UnknownKey(key)
        if key in seen:
            raise ParseError(line_no, f"duplicate key {key!r}")
        seen.add(key)
        if not value_text:
            raise ParseError(line_no, f"missing value for {key!r}")

        if value_text.startswith("["):
            if not value_text.endswith("]"):
                raise ParseError(line_no, "unterminated list")
            inner = value_text[1:-1]
            tokens = [_unquote(t, line_no) for t in inner.split(",")] if inner.strip() else []
            if key in GRID_KEYS:
                if not tokens:
                    raise TypeMismatch(key, "a grid axis needs at least one value")
                grid[key] = [_convert(key, t) for t in tokens]
            else:
                values[key] = _convert(key, tokens)
        else:
            values[key] = _convert(key, _unquote(value_text, line_no))

    env_seed = os.environ.get("MMREC_SEED")
    if env_seed is not None:
        values["seed"] = _convert("seed", env_seed)
    config = ExperimentConfig(values=values, grid=grid)
    # paths are relative to the config file's directory
    if values["interactions"] is not None:
        values["interactions"] = str(base_dir / values["interactions"])
    for modality, pair in config.feature_paths().items():
        values[f"features.{modality}"] = tuple(str(base_dir / p) for p in pair)
    _validate(config)
    return config


def _validate(config: ExperimentConfig) -> None:
    """Each rule over the values, checked under the key it refuses."""
    v = config.values
    for key, name in _MODEL_KEYS.items():
        for x in config.grid.get(key, [v[key]]):
            _checked(key, check_hyperparameters, **{name: x})
    unread = sorted(config.grid.keys() & (set().union(*KIND_READS.values()) - KIND_READS[v["model"]]))
    if unread:
        raise TypeMismatch(unread[0], f"model {v['model']} does not read {unread[0]}, so it cannot be a grid axis")
    if v["model"] in FEATURE_KINDS and not config.feature_paths():
        raise TypeMismatch("model", f"model {v['model']} needs features.<modality> entries")
    _data_params(v)
    for f in fields(TrainConfig):
        for x in config.grid.get(f.name, [v[f.name]]):
            _checked(f.name, TrainConfig, **{f.name: x})
    stop_k = parse_metric_spec(v["stop_metric"])[1]
    if stop_k not in v["topk"]:
        raise TypeMismatch("stop_metric", f"cutoff {stop_k} not in topk {v['topk']}")


def _checked(key: str, build, *args, **kwargs):
    """``build(...)``, with a ValueError it raises as TypeMismatch on ``key``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise TypeMismatch(key, str(exc)) from None


def _data_params(values: dict[str, object]) -> tuple[FilterParams, SplitSpec]:
    """The k-core and split parameters of a config's values."""
    _checked("seed", check_seed, values["seed"])
    spec = SplitSpec(values["split"], values["ratios"], values["seed"])
    return _checked("k", FilterParams, values["k"]), spec


def expand_grid(config: ExperimentConfig) -> list[dict[str, object]]:
    """All axis assignments: axes sorted by key name, rightmost fastest;
    a config without axes expands to one empty assignment."""
    if not config.grid:
        return [{}]
    keys = sorted(config.grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(config.grid[k] for k in keys))]


@dataclass
class RunResult:
    combo: dict[str, object]
    valid_report: MetricReport | None
    test_report: MetricReport | None
    best_epoch: int | None
    stop_reason: str | None
    wall_time: float
    error: str | None = None


@dataclass
class SummaryReport:
    grid_keys: list[str]
    cutoffs: tuple[int, ...]
    results: list[RunResult]
    best_index: int


def _prepare_inputs(config: ExperimentConfig):
    """Check the config; parse, filter and split the raw data once; load modality tables if the
    kind reads features. Returns the dataset, the tables (none otherwise) and the split spec."""
    _validate(config)
    if config.values.get("interactions") is None:
        raise TypeMismatch("interactions", "no interactions file configured")
    filter_params, spec = _data_params(config.values)
    dataset = preprocess(read_interactions(config["interactions"]), filter_params, spec)
    tables = load_modality_tables(config, dataset.item_map) if config["model"] in FEATURE_KINDS else []
    return dataset, tables, spec


def load_modality_tables(config: ExperimentConfig, item_map: dict[str, int]) -> list:
    """Align every configured modality into one shared read-only float64
    table, one column block per modality in canonical order, so that
    ``fuse(tables, "concat")`` is that table without a copy."""
    paths = sorted(config.feature_paths().items())
    dims = {modality: read_header(matrix_path)[1] for modality, (matrix_path, _) in paths}
    order = sorted(dims, key=MODALITIES.index)
    starts = dict(zip(order, itertools.accumulate((dims[m] for m in order), initial=0)))
    shared = np.empty((len(item_map), sum(dims.values())))
    tables = []
    for modality, (matrix_path, ids_path) in paths:
        start = starts[modality]
        table = align_features(
            load_feature_matrix(matrix_path, ids_path),
            item_map,
            kind=modality,
            policy=config["imputation"],
            out=shared[:, start : start + dims[modality]],
        )
        table.features.flags.writeable = False
        tables.append(table)
    shared.flags.writeable = False
    return tables


def model_inputs(kind: str, dataset, tables, fusion: str) -> ModelInputs:
    """What a ``kind`` model reads besides its tensors: the tables fused by
    ``fusion`` if ``kind`` reads features and there are any, and the train
    adjacency if ``kind`` reads it."""
    fused = fuse(tables, fusion) if tables and kind in FEATURE_KINDS else None
    return ModelInputs(fused, build_adjacency(dataset.train) if kind in GRAPH_KINDS else None)


def run_single(config: ExperimentConfig, dataset, tables, out_dir: str | None = None):
    """Train and evaluate one concrete (scalar) configuration."""
    v = config.values
    inputs = model_inputs(v["model"], dataset, tables, v["fusion"])
    cutoffs = v["topk"]
    # one ranking of the trained model, as wide as any cutoff, serves its last validation and both reports
    ranking = Ranking(dataset.n_users, min(cutoffs[-1], dataset.n_items))
    state, log = fit(
        v["model"],
        dataset,
        TrainConfig(**{f.name: v[f.name] for f in fields(TrainConfig)}),
        **{name: v[key] for key, name in _MODEL_KEYS.items()},
        inputs=inputs,
        ranking=ranking,
    )
    valid_report, test_report = (
        evaluate(state, dataset, target, cutoffs, inputs, ranking=ranking)
        if getattr(dataset, target).nnz else None for target in ("valid", "test")
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_checkpoint(state, os.path.join(out_dir, "checkpoint"))
        write_train_log(log, os.path.join(out_dir, "train_log.tsv"))
        for target, report in (("valid", valid_report), ("test", test_report)):
            if report is not None:
                write_metric_report(report, os.path.join(out_dir, f"{target}_report.tsv"))
    return state, log, valid_report, test_report


def run_experiment(config: ExperimentConfig, out_dir: str | os.PathLike | None = None) -> SummaryReport:
    """Run every grid combination against one frozen split, in grid order.

    Each combination re-derives all random streams from the config seed, so
    its row is independent of which other combinations run, or in what
    order. The best row has the highest validation stop metric; a failing
    combination is recorded in its row with its error, and the grid goes on.
    """
    dataset, tables, spec = _prepare_inputs(config)
    if dataset.valid.nnz == 0:
        raise EmptySplit("grid selection needs a non-empty validation split")
    combos = expand_grid(config)
    stop_name, stop_k = parse_metric_spec(config["stop_metric"])

    out = None if out_dir is None else os.fspath(out_dir)
    if out is not None:
        os.makedirs(out, exist_ok=True)
        save_dataset(dataset, spec, os.path.join(out, "dataset"))

    results = []
    for idx, combo in enumerate(combos):
        concrete = config.with_combo(combo)
        combo_dir = None if out is None else os.path.join(out, f"combo_{idx:03d}")
        started = time.perf_counter()
        try:
            _, log, valid_report, test_report = run_single(concrete, dataset, tables, combo_dir)
            result = RunResult(combo, valid_report, test_report, log.best_epoch, log.stop_reason, 0.0)
        except Exception as exc:
            result = RunResult(combo, None, None, None, None, 0.0, error=f"{type(exc).__name__}: {exc}")
        result.wall_time = time.perf_counter() - started
        results.append(result)

    # a failed combination has no valid report
    best_index, best_value = -1, -np.inf
    for idx, result in enumerate(results):
        value = -np.inf if result.valid_report is None else result.valid_report.get(stop_name, stop_k)
        if value > best_value:
            best_index, best_value = idx, value

    report = SummaryReport(
        grid_keys=sorted(config.grid),
        cutoffs=config["topk"],
        results=results,
        best_index=best_index,
    )
    if out is not None:
        write_report(report, os.path.join(out, "summary.tsv"))
        _write_timings(report, os.path.join(out, "timings.tsv"))
    return report


def write_report(report: SummaryReport, path: str | os.PathLike) -> None:
    """Summary TSV: grid keys, valid_/test_ metric columns per cutoff,
    best_epoch, error, then a final `# best: <row>` line.

    The file is byte-reproducible across identical invocations; measured
    seconds go to the timings.tsv sidecar only.
    """
    def fmt(value) -> str:
        if isinstance(value, float):
            return repr(value)
        return str(value)

    columns = list(report.grid_keys)
    for split in ("valid", "test"):
        for metric in METRICS:
            for k in report.cutoffs:
                columns.append(f"{split}_{metric}@{k}")
    columns += ["best_epoch", "error"]

    lines = ["\t".join(columns)]
    for result in report.results:
        cells = [fmt(result.combo[key]) for key in report.grid_keys]
        for rep in (result.valid_report, result.test_report):
            for metric in METRICS:
                for k in report.cutoffs:
                    cells.append("nan" if rep is None else f"{rep.get(metric, k):.6f}")
        cells.append("-1" if result.best_epoch is None else str(result.best_epoch))
        cells.append("" if result.error is None else result.error.replace("\t", " ").replace("\n", " "))
        lines.append("\t".join(cells))
    lines.append(f"# best: {report.best_index}")
    with atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


def _write_timings(report: SummaryReport, path: str | os.PathLike) -> None:
    with atomic_write(path) as fh:
        fh.write("combo\twall_seconds\n")
        for idx, result in enumerate(report.results):
            fh.write(f"{idx}\t{result.wall_time:.6f}\n")
