"""Output checks of one measured pass, and the per-layer report.

A pass is made of units: each CLI command, and each grid combination.
A unit fails when its command exits non-zero, its summary row carries an
error, or one of its outputs fails a check:

* every metric at every cutoff the pass asked for (the config's or
  ``--topk``'s cutoffs for the final reports, the stop metric's cutoff for
  the in-fit validation) is reported, by ``evaluate`` at full precision and
  in the 6-decimal report files and ``summary.tsv`` rows, and agrees with
  the numpy oracle (``oracle.py``) to 1e-9, or to the files' rounding; a
  missing or unasked evaluation, metric or cutoff fails;
* on ``ingest-eval``, the user, item and pair counts that
  ``mmrec preprocess`` prints equal the benchmark's own k-core;
* ``summary.tsv`` and the report files are byte-identical across every pass
  of the same seed and program source.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import numpy as np

import child
import oracle

TOL = 1e-9
FILE_TOL = 5e-7 + TOL  # report files round to 6 decimals


class Reference:
    """Oracle metrics per (checkpoint, target).

    Ranked lists depend on the checkpoint and the train split only, so they
    are computed once per checkpoint for every user with ground truth in
    either split, and each target reads its users' rows.
    """

    def __init__(self, dataset: dict, k_max: int, fused=None):
        self.dataset = dataset
        self.fused = fused
        self.k_max = k_max
        self._lists: dict = {}
        has_truth = (np.diff(dataset["valid"].indptr) > 0) | (np.diff(dataset["test"].indptr) > 0)
        self.users = np.flatnonzero(has_truth)

    def metrics(self, ckpt_dir: str, target: str, cutoffs) -> tuple[dict, int]:
        if max(cutoffs) > self.k_max:
            raise ValueError(f"oracle ranks the top {self.k_max} only, asked for {max(cutoffs)}")
        if ckpt_dir not in self._lists:
            ckpt = oracle.read_checkpoint(ckpt_dir)
            user_rep, item_rep = oracle.representations(ckpt, self.dataset, self.fused)
            self._lists[ckpt_dir] = oracle.ranked_lists(
                user_rep, item_rep, self.dataset["train"], self.users, self.k_max
            )
        truth = self.dataset[target]
        users = np.flatnonzero(np.diff(truth.indptr) > 0)
        lists = self._lists[ckpt_dir][np.searchsorted(self.users, users)]
        return oracle.metric_table(lists, truth, users, tuple(sorted(set(cutoffs)))), int(users.size)


def _compare(expected: dict, got: dict, tol: float, where: str) -> list[str]:
    """Every requested metric@k must be reported and agree with the oracle;
    a reported value that was not asked for fails too."""
    bad = []
    for metric, per_k in expected.items():
        for k, want in per_k.items():
            value = got.get(metric, {}).get(str(k))
            if value is None:
                bad.append(f"{where} {metric}@{k} missing")
            elif not abs(float(value) - want) <= tol:
                bad.append(f"{where} {metric}@{k}: program {value} oracle {want!r}")
    bad += [f"{where} {metric}@{k} was not asked for" for metric, per_k in got.items() for k in per_k
            if int(k) not in expected.get(metric, {})]
    return bad


def _report_file(path: str) -> tuple[dict, int]:
    values: dict = {}
    n = -1
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 2:
                continue
            if parts[0] == "n_evaluated":
                n = int(parts[1])
            else:
                values.setdefault(parts[0], {})[parts[1]] = float(parts[2])
    return values, n


def _requests(info: dict) -> tuple[tuple[int, ...], list[tuple[str, tuple[int, ...], bool]]]:
    """The cutoffs of the final reports, and the (target, cutoffs, in_fit)
    evaluations one model of this workload's pass asks for, from the inputs."""
    topk = tuple(int(k) for k in info["topk"].split(","))
    if info["workload"] == "ingest-eval":
        return topk, [("test", topk, False)]
    fit = []
    if info["fit_evals"]:
        fit = [("valid", (int(info["stop_metric"].split("@")[1]),), True)] * info["fit_evals"]
    return topk, fit + [("valid", topk, False), ("test", topk, False)]


def _check_reports(ref: Reference, ckpt_dir: str, reports: list[dict], files: dict[str, str],
                   info: dict) -> list[str]:
    """Check one model's in-memory reports and report files against what
    the pass asked for: a missing or unasked evaluation, cutoff or metric
    fails, as does a value that disagrees with the oracle."""
    topk, wanted = _requests(info)
    bad = []
    for target, cutoffs, in_fit in dict.fromkeys(wanted):
        what = f"in-fit {target}" if in_fit else target
        mine = [r for r in reports if r["target"] == target and r["in_fit"] == in_fit]
        if len(mine) != wanted.count((target, cutoffs, in_fit)):
            bad.append(f"{len(mine)} {what} evaluations, asked for {wanted.count((target, cutoffs, in_fit))}")
        expected, n = ref.metrics(ckpt_dir, target, cutoffs)
        for rep in mine:
            if rep["n"] != n:
                bad.append(f"{what} evaluated {rep['n']} users, oracle {n}")
            bad += _compare(expected, rep["values"], TOL, what)
    asked = {(target, in_fit) for target, _, in_fit in wanted}
    bad += [f"unasked {r['target']} evaluation" for r in reports if (r["target"], r["in_fit"]) not in asked]
    for target, path in files.items():
        if not os.path.exists(path):
            bad.append(f"missing {os.path.basename(path)}")
            continue
        values, n_file = _report_file(path)
        expected, n = ref.metrics(ckpt_dir, target, topk)
        if n_file != n:
            bad.append(f"{os.path.basename(path)} n_evaluated {n_file}, oracle {n}")
        bad += _compare(expected, values, FILE_TOL, os.path.basename(path))
    return bad


def _feature_files(config_path: str) -> dict[str, tuple[str, str]]:
    base = os.path.dirname(config_path)
    out = {}
    with open(config_path, encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            if key.startswith("features."):
                matrix, ids = (os.path.join(base, p.strip()) for p in value.split(","))
                out[key[len("features."):]] = (matrix, ids)
    return out


def _digests(record_path: str, work: str, files: list[str]) -> list[str]:
    """Compare artifact digests with the first pass of this seed and source."""
    now = {}
    for rel in files:
        with open(os.path.join(work, rel), "rb") as fh:
            now[rel] = hashlib.sha256(fh.read()).hexdigest()
    try:
        with open(record_path, encoding="utf-8") as fh:
            first = json.load(fh)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(record_path), exist_ok=True)
        with open(record_path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(now, fh, indent=1, sort_keys=True)
        os.replace(record_path + ".tmp", record_path)
        return []
    return [f"{rel} differs from an earlier pass of this seed" for rel in files if first.get(rel) != now[rel]]


def check_pass(workload: str, inputs: str, work: str, result: dict, info: dict, record_path: str) -> dict:
    """Check one full pass; returns attempted and failed unit counts and a log."""
    units: dict[str, list[str]] = {}
    planned = [name for name, _ in child.commands(workload, inputs, work, info)]
    ran = {c["command"]: c for c in result["commands"]}
    for name in planned:
        cmd = ran.get(name)
        if cmd is None:
            units[name] = ["did not run"]
        elif cmd["exit"] != 0:
            units[name] = [f"exit {cmd['exit']}: {cmd['stderr'].strip()}"]
        else:
            units[name] = []
    if any(units.values()):
        return _verdict(units)

    try:
        _check_outputs(workload, inputs, work, result, info, record_path, units, ran)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        units[planned[-1]].append(f"outputs unreadable: {type(exc).__name__}: {exc}")
    return _verdict(units)


def _check_outputs(workload, inputs, work, result, info, record_path, units, ran) -> None:
    topk, _ = _requests(info)
    k_max = max(topk)
    if workload == "baby-graph":
        out = os.path.join(work, "train")
        dataset = oracle.read_dataset(os.path.join(out, "dataset"))
        fused = oracle.fused_features(_feature_files(os.path.join(inputs, "train.cfg")), dataset["item_map"])
        ref = Reference(dataset, k_max, fused)
        files = {t: os.path.join(out, f"{t}_report.tsv") for t in ("valid", "test")}
        units["train"] += _check_reports(ref, os.path.join(out, "checkpoint"), result["reports"], files, info)
        if not units["train"]:
            units["train"] += _digests(record_path, out, ["valid_report.tsv", "test_report.tsv"])

    elif workload == "ci-mf-grid":
        out = os.path.join(work, "grid")
        ref = Reference(oracle.read_dataset(os.path.join(out, "dataset")), k_max)
        with open(os.path.join(out, "summary.tsv"), encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]
        header, rows = rows[0], rows[1:]
        for idx in range(len(rows), info["grid_combos"]):
            units[f"combo {idx}"] = ["no summary row"]
        for idx, row in enumerate(rows):
            cells = dict(zip(header, row))
            problems = [f"error column: {cells['error']}"] if cells.get("error") else []
            if not problems:
                mine = [r for r in result["reports"] if r["combo"] == idx]
                ckpt = os.path.join(out, f"combo_{idx:03d}", "checkpoint")
                problems += _check_reports(ref, ckpt, mine, {}, info)
                for target in ("valid", "test"):
                    expected, _ = ref.metrics(ckpt, target, topk)
                    got: dict = {}
                    for col, value in cells.items():
                        m = re.fullmatch(rf"{target}_(\w+)@(\d+)", col)
                        if m:
                            got.setdefault(m.group(1), {})[m.group(2)] = float(value)
                    problems += _compare(expected, got, FILE_TOL, f"summary row {idx} {target}")
            units[f"combo {idx}"] = problems
        if not any(units.values()):
            units["grid"] += _digests(record_path, out, ["summary.tsv"])

    else:
        match = re.search(r"(\d+) users, (\d+) items, (\d+)/(\d+)/(\d+) train/valid/test",
                          ran["preprocess"]["stdout"])
        if match is None:
            units["preprocess"].append("no counts in preprocess output")
        else:
            n_u, n_i, *sizes = (int(g) for g in match.groups())
            want = (info["kcore_users"], info["kcore_items"], info["kcore_pairs"])
            if (n_u, n_i, sum(sizes)) != want:
                units["preprocess"].append(f"preprocess kept {n_u}/{n_i}/{sum(sizes)} users/items/pairs, "
                                           f"the benchmark's k-core {want[0]}/{want[1]}/{want[2]}")
        ref = Reference(oracle.read_dataset(os.path.join(work, "dataset")), k_max)
        files = {"test": os.path.join(work, "eval", "report.tsv")}
        ckpt = os.path.join(inputs, "checkpoint")
        units["eval"] += _check_reports(ref, ckpt, result["reports"], files, info)
        if not any(units.values()):
            units["eval"] += _digests(record_path, work, [os.path.join("eval", "report.tsv")])


def _verdict(units: dict[str, list[str]]) -> dict:
    log = [f"{name}: ok" if not problems else f"{name}: FAILED {'; '.join(problems[:5])}"
           for name, problems in units.items()]
    return {"attempted": len(units), "failed": sum(1 for p in units.values() if p), "log": log}


# ------------------------------------------------------------ layer table

def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("pairs_per_s"):
        return "pairs/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_efficiency")):
        return "ratio"
    return "count"


def print_layer_table(metrics: dict, layer: dict) -> None:
    print("per-layer metrics (traced pass)")
    for name in sorted(metrics):
        print(f"  {name:<34} {metrics[name]:>14.6g} {layer_unit(name)}")
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".layer_self_s"))
    accounted = self_sum + metrics["trace.remainder_s"] - metrics["trace.overlap_s"]
    print(f"  accounting: layer self {self_sum:.3f} s + untraced remainder "
          f"{metrics['trace.remainder_s']:.3f} s - parallel overlap {metrics['trace.overlap_s']:.3f} s "
          f"= {accounted:.3f} s; traced total_s {metrics['trace.total_s']:.3f} s")
    print(f"  tracing overhead: traced total_s {metrics['trace.total_s']:.3f} s - untraced total_s "
          f"{metrics['trace.untraced_total_s']:.3f} s = {metrics['trace.overhead_s']:.3f} s")
    for p in layer["evaluate_passes"]:
        print(f"  evaluate {p['target']}: {p['users']} users, {p['propagate_calls']} propagate calls, "
              f"ceil(users/512) = {p['chunks']}")
    if layer["adjacency_per_run_single"]:
        print(f"  build_adjacency calls per run_single: {layer['adjacency_per_run_single']}")
