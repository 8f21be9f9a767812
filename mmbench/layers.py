"""Which ``mmrec`` names the benchmark wraps, and the metrics it derives.

Each wrapper sits where the program looks the name up, so a call the
program makes through ``mmrec.trainer.evaluate`` is seen exactly like one
made through ``mmrec.cli.evaluate``. Span names are
``<defining module>.<function>``; layer metrics are
``<module>.<quantity>``.
"""

from __future__ import annotations

import math
import os

import numpy as np

import mmrec.cli
import mmrec.data
import mmrec.evaluation
import mmrec.experiment
import mmrec.models
import mmrec.rng
import mmrec.trainer

from tracing import self_times

# calls whose first occurrence ends set-up
SETUP_ENDS = ("trainer.fit", "evaluation.evaluate")
EVAL_CHUNK = 512  # users per scoring chunk in mmrec.evaluation today
MODULES = ("data", "modality", "models", "trainer", "rng", "evaluation", "experiment", "cli")


# ------------------------------------------------------------------ hooks

def _fit_leave(span, args, kwargs, result):
    _, log = result
    dataset = args[1] if len(args) > 1 else kwargs["dataset"]
    span["epochs"] = len(log.epoch_losses)
    span["pairs"] = span["epochs"] * dataset.train.nnz


def _evaluate_leave(span, args, kwargs, report):
    target = args[2] if len(args) > 2 else kwargs.get("target")
    span["report"] = {
        "target": target,
        "cutoffs": list(report.cutoffs),
        "values": {m: {str(k): v for k, v in per_k.items()} for m, per_k in report.values.items()},
        "n": report.n_evaluated,
    }


def _run_single_enter(span, local, args, kwargs):
    out_dir = args[3] if len(args) > 3 else kwargs.get("out_dir")
    name = os.path.basename(os.fspath(out_dir)) if out_dir else ""
    local.combo = int(name[6:]) if name.startswith("combo_") else None


def _count_result(key):
    def leave(span, args, kwargs, result):
        span[key] = len(result)
    return leave


def _feature_bytes(span, args, kwargs, result):
    span["bytes"] = int(result.values.nbytes)


def _positives(span, args, kwargs, result):
    span["positives"] = int(sum(len(batch) for batch in result))


# ---------------------------------------------------------------- install

def install(tracer, traced: bool) -> None:
    """Wrap the once-per-phase calls; with ``traced``, every layer too."""
    cli, data, ev, exp, models, trainer = (
        mmrec.cli, mmrec.data, mmrec.evaluation, mmrec.experiment, mmrec.models, mmrec.trainer,
    )
    spans = [
        (exp, "fit", "trainer.fit", None, _fit_leave),
        (trainer, "evaluate", "evaluation.evaluate", None, _evaluate_leave),
        (exp, "evaluate", "evaluation.evaluate", None, _evaluate_leave),
        (cli, "evaluate", "evaluation.evaluate", None, _evaluate_leave),
        (exp, "run_single", "experiment.run_single", _run_single_enter, None),
        (cli, "run_single", "experiment.run_single", _run_single_enter, None),
    ]
    aggregates = []
    if traced:
        spans += [
            (cli, "parse_config", "experiment.parse_config", None, None),
            (cli, "read_interactions", "data.read_interactions", None, _count_result("records")),
            (exp, "read_interactions", "data.read_interactions", None, _count_result("records")),
            (cli, "preprocess", "data.preprocess", None, None),
            (exp, "preprocess", "data.preprocess", None, None),
            (data, "dedupe_interactions", "data.dedupe_interactions", None, None),
            (data, "k_core_filter", "data.k_core_filter", None, _count_result("records")),
            (data, "build_id_maps", "data.build_id_maps", None, None),
            (data, "split", "data.split", None, None),
            (cli, "save_dataset", "data.save_dataset", None, None),
            (exp, "save_dataset", "data.save_dataset", None, None),
            (cli, "load_dataset", "data.load_dataset", None, None),
            (cli, "load_modality_tables", "experiment.load_modality_tables", None, None),
            (exp, "load_modality_tables", "experiment.load_modality_tables", None, None),
            (exp, "load_feature_matrix", "modality.load_feature_matrix", None, _feature_bytes),
            (exp, "align_features", "modality.align_features", None, None),
            (exp, "fuse", "modality.fuse", None, None),
            (cli, "fuse", "modality.fuse", None, None),
            (trainer, "init_params", "models.init_params", None, None),
            (trainer, "calculate_loss", "models.calculate_loss", None, None),
            (models, "propagate_mean", "models.propagate_mean", None, None),
            (ev, "full_sort_predict", "models.full_sort_predict", None, None),
            (trainer, "build_adjacency", "models.build_adjacency", None, None),
            (exp, "build_adjacency", "models.build_adjacency", None, None),
            (cli, "build_adjacency", "models.build_adjacency", None, None),
            (exp, "save_checkpoint", "models.save_checkpoint", None, None),
            (cli, "load_checkpoint", "models.load_checkpoint", None, None),
            (trainer, "make_batches", "trainer.make_batches", None, _positives),
            (trainer, "adam_step", "trainer.adam_step", None, None),
            (trainer, "sgd_step", "trainer.sgd_step", None, None),
            (cli, "run_experiment", "experiment.run_experiment", None, None),
            (exp, "write_report", "experiment.write_report", None, None),
            (exp, "write_train_log", "trainer.write_train_log", None, None),
            (exp, "write_metric_report", "evaluation.write_metric_report", None, None),
            (cli, "write_metric_report", "evaluation.write_metric_report", None, None),
        ]
        aggregates = [
            (data, "stream", "rng.stream", None),
            (models, "stream", "rng.stream", None),
            (trainer, "stream", "rng.stream", None),
            (mmrec.rng.Stream, "raw", "rng.raw", 1),
            (mmrec.rng.Stream, "randbelow", "rng.randbelow", None),
            (ev, "mask_trained", "evaluation.mask_trained", None),
            (ev, "top_k", "evaluation.top_k", None),
        ]
    for owner, attr, name, enter, leave in spans:
        tracer.install(owner, attr, name, enter=enter, leave=leave)
    for owner, attr, name, words_arg in aggregates:
        tracer.install_aggregate(owner, attr, name, words_arg)


# ---------------------------------------------------------------- metrics

def first_start(spans: list[dict], names, default: float) -> float:
    starts = [s["start"] for s in spans if s["name"] in names]
    return min(starts) if starts else default


def phase_summary(spans: list[dict]) -> dict:
    """Training and evaluation totals plus every report, from phase spans.

    A report made inside ``fit`` (the in-fit validation) is marked
    ``in_fit``, as it asks for other cutoffs than the final reports.
    """
    eval_time: dict = {}
    reports = []
    eval_users = eval_s = 0.0
    fit_ids = {s["id"] for s in spans if s["name"] == "trainer.fit"}
    for s in spans:
        # a call that raised has no report; its command's exit code says so
        if s["name"] == "evaluation.evaluate" and "report" in s:
            dur = s["end"] - s["start"]
            eval_time[s["parent"]] = eval_time.get(s["parent"], 0.0) + dur
            eval_users += s["report"]["n"]
            eval_s += dur
            reports.append({**s["report"], "combo": s["combo"], "in_fit": s["parent"] in fit_ids})
    fits = [s for s in spans if s["name"] == "trainer.fit" and "pairs" in s]
    return {
        "train_pairs": sum(s["pairs"] for s in fits),
        "train_s": sum(s["end"] - s["start"] - eval_time.get(s["id"], 0.0) for s in fits),
        "fit_calls": len(fits),
        "eval_users": eval_users,
        "eval_s": eval_s,
        "reports": reports,
    }


def _ancestors(span, by_id):
    parent = by_id.get(span["parent"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent"])


def layer_metrics(tracer, t0: float, t1: float, jobs: int) -> dict:
    """Every per-layer metric of a traced pass, plus its time accounting."""
    spans = tracer.spans
    by_id = {s["id"]: s for s in spans}
    agg = tracer.aggregates()
    accounting = self_times(spans, tracer.charged(), t0, t1)
    self_s = accounting["self"]

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return float(sum(s["end"] - s["start"] for s in named(*names)))

    def agg_stat(name, field):
        return agg.get(name, [0, 0.0, 0, 0.0])[field]

    loss_ms = np.array([(s["end"] - s["start"]) * 1e3 for s in named("models.calculate_loss")])
    prop = named("models.propagate_mean")
    prop_eval = [s for s in prop if any(a["name"] == "evaluation.evaluate" for a in _ancestors(s, by_id))]
    evals = [s for s in named("evaluation.evaluate") if "report" in s]
    grids = named("experiment.run_experiment")
    grid_combos = [s for s in named("experiment.run_single")
                   if any(a["name"] == "experiment.run_experiment" for a in _ancestors(s, by_id))]
    negatives = sum(s.get("positives", 0) for s in named("trainer.make_batches"))
    draws = agg_stat("rng.randbelow", 0)

    m = {
        "data.read_s": total("data.read_interactions"),
        "data.dedupe_s": total("data.dedupe_interactions"),
        "data.kcore_s": total("data.k_core_filter"),
        "data.id_maps_s": total("data.build_id_maps"),
        "data.split_s": total("data.split"),
        "data.save_s": total("data.save_dataset"),
        "data.load_s": total("data.load_dataset"),
        "data.records_in": sum(s.get("records", 0) for s in named("data.read_interactions")),
        "data.records_kept": sum(s.get("records", 0) for s in named("data.k_core_filter")),
        "modality.load_s": total("modality.load_feature_matrix"),
        "modality.feature_mb": sum(s.get("bytes", 0) for s in named("modality.load_feature_matrix")) / 2**20,
        "modality.align_s": total("modality.align_features"),
        "modality.fuse_s": total("modality.fuse"),
        "models.loss_s": total("models.calculate_loss"),
        "models.loss_calls": len(loss_ms),
        "models.loss_p50_ms": float(np.percentile(loss_ms, 50)) if len(loss_ms) >= 100 else 0.0,
        "models.loss_p90_ms": float(np.percentile(loss_ms, 90)) if len(loss_ms) >= 100 else 0.0,
        "models.propagate_s": total("models.propagate_mean"),
        "models.propagate_calls": len(prop),
        "models.propagate_train_calls": len(prop) - len(prop_eval),
        "models.propagate_eval_calls": len(prop_eval),
        "models.predict_s": total("models.full_sort_predict"),
        "models.predict_calls": len(named("models.full_sort_predict")),
        "models.adjacency_s": total("models.build_adjacency"),
        "models.adjacency_calls": len(named("models.build_adjacency")),
        "models.checkpoint_s": total("models.save_checkpoint", "models.load_checkpoint"),
        "trainer.sample_s": total("trainer.make_batches"),
        "trainer.optimizer_s": total("trainer.adam_step", "trainer.sgd_step"),
        "trainer.optimizer_calls": len(named("trainer.adam_step", "trainer.sgd_step")),
        "trainer.fit_self_s": float(sum(self_s[s["id"]] for s in named("trainer.fit"))),
        "trainer.epochs": sum(s.get("epochs", 0) for s in named("trainer.fit")),
        "trainer.neg_accept_ratio": negatives / draws if draws else 0.0,
        "rng.streams": agg_stat("rng.stream", 0),
        "rng.raw_calls": agg_stat("rng.raw", 0),
        "rng.raw_words": agg_stat("rng.raw", 2),
        "evaluation.evaluate_s": total("evaluation.evaluate"),
        "evaluation.evaluate_calls": len(evals),
        "evaluation.users": sum(s["report"]["n"] for s in evals),
        "evaluation.rank_s": agg_stat("evaluation.mask_trained", 1) + agg_stat("evaluation.top_k", 1),
        "evaluation.self_s": float(sum(self_s[s["id"]] for s in evals)),
        "experiment.run_single_s": total("experiment.run_single"),
        "experiment.combos": len(grid_combos),
        "experiment.parallel_efficiency": (
            sum(s["end"] - s["start"] for s in grid_combos) / (jobs * total("experiment.run_experiment"))
            if grids else 0.0
        ),
        "experiment.write_s": total(
            "experiment.write_report", "trainer.write_train_log", "evaluation.write_metric_report"
        ),
        "cli.preprocess_s": total("cli.preprocess"),
        "cli.eval_s": total("cli.eval"),
    }

    layer_self = {mod: 0.0 for mod in MODULES}
    for s in spans:
        layer_self[s["name"].split(".")[0]] += self_s[s["id"]]
    for name, stat in agg.items():
        layer_self[name.split(".")[0]] += stat[3]
    for mod in MODULES:
        m[f"{mod}.layer_self_s"] = layer_self[mod]
    m["trace.remainder_s"] = accounting["remainder"]
    m["trace.overlap_s"] = accounting["overlap"]
    m["trace.total_s"] = t1 - t0

    # counts that follow from the code as read today, for the baseline note
    counts = []
    for s in evals:
        inside = sum(1 for p in prop_eval if any(a is s for a in _ancestors(p, by_id)))
        counts.append({"target": s["report"]["target"], "users": s["report"]["n"],
                       "propagate_calls": inside,
                       "chunks": math.ceil(s["report"]["n"] / EVAL_CHUNK)})
    adjacency_per_run = [
        sum(1 for a in named("models.build_adjacency") if any(x is r for x in _ancestors(a, by_id)))
        for r in named("experiment.run_single")
    ]
    return {"metrics": m, "evaluate_passes": counts, "adjacency_per_run_single": adjacency_per_run}
