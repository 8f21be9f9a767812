"""Self-tests of the benchmark harness at a tiny size.

Run from the repository root:  python3 -m pytest -q mmbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402

WORKLOADS = ("baby-graph", "ci-mf-grid", "ingest-eval")


def tree_bytes(path: str) -> dict[str, bytes]:
    out = {}
    for base, _, files in os.walk(path):
        for name in files:
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


def tiny_pass(tmp_path, workload: str, seed: int, trace: int, name: str = "work", *extra: str):
    inputs = str(tmp_path / f"in-{workload}-{seed}")
    if not os.path.exists(inputs):
        gen.make_inputs(workload, seed, inputs, tiny=True)
    work = str(tmp_path / f"{name}-{workload}-{trace}")
    os.makedirs(work, exist_ok=True)
    result = os.path.join(work, "result.json")
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--root", ROOT, "--workload", workload,
         "--inputs", inputs, "--work", work, "--trace", str(trace), "--result", result, *extra],
        check=True, timeout=300,
    )
    with open(result, encoding="utf-8") as fh:
        res = json.load(fh)
    with open(os.path.join(inputs, "inputs.json"), encoding="utf-8") as fh:
        info = json.load(fh)
    return inputs, work, res, info


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    gen.make_inputs(workload, 7, str(tmp_path / "a"), tiny=True)
    gen.make_inputs(workload, 7, str(tmp_path / "b"), tiny=True)
    gen.make_inputs(workload, 8, str(tmp_path / "c"), tiny=True)
    a, b, c = (tree_bytes(str(tmp_path / x)) for x in "abc")
    assert a == b
    assert a["interactions.tsv"] != c["interactions.tsv"]


def test_vectorized_k_core_matches_peeling_by_hand():
    # a 2x2 block survives the 2-core; the pendant chain is peeled away
    users = [0, 0, 1, 1, 2, 3]
    items = [0, 1, 0, 1, 1, 2]
    u, i, rounds = oracle.k_core_pairs(users, items, 2)
    assert sorted(zip(u.tolist(), i.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert rounds >= 1


def test_checks_pass_and_oracle_flags_a_perturbed_metric(tmp_path):
    inputs, work, res, info = tiny_pass(tmp_path, "ci-mf-grid", 3, 0)
    record = str(tmp_path / "digests.json")
    verdict = checks.check_pass("ci-mf-grid", inputs, work, res, info, record)
    assert verdict["failed"] == 0, verdict["log"]
    assert verdict["attempted"] == 3  # the grid command and its two combinations

    report = next(r for r in res["reports"] if r["combo"] == 1 and r["target"] == "test")
    report["values"]["ndcg"]["10"] += 1e-7
    verdict = checks.check_pass("ci-mf-grid", inputs, work, res, info, record)
    assert verdict["failed"] == 1
    assert any("combo 1: FAILED" in line and "ndcg@10" in line for line in verdict["log"])
    report["values"]["ndcg"]["10"] -= 1e-7

    # a cutoff the config asked for that the program did not report
    del report["values"]["map"]["50"]
    verdict = checks.check_pass("ci-mf-grid", inputs, work, res, info, record)
    assert any("combo 1: FAILED" in line and "map@50 missing" in line for line in verdict["log"])


def test_a_missing_in_fit_validation_or_summary_column_is_caught(tmp_path):
    inputs, work, res, info = tiny_pass(tmp_path, "ci-mf-grid", 3, 0)
    record = str(tmp_path / "digests.json")
    in_fit = [r for r in res["reports"] if r["in_fit"]]
    assert sorted(r["cutoffs"] for r in in_fit) == [[20], [20]]  # one per combination, at recall@20
    res["reports"].remove(in_fit[0])
    verdict = checks.check_pass("ci-mf-grid", inputs, work, res, info, record)
    assert any("0 in-fit valid evaluations, asked for 1" in line for line in verdict["log"])
    res["reports"].append(in_fit[0])

    summary = os.path.join(work, "grid", "summary.tsv")
    with open(summary, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    drop = rows[0].index("test_recall@20")
    with open(summary, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(r[:drop] + r[drop + 1:] if len(r) > drop else r) + "\n" for r in rows)
    verdict = checks.check_pass("ci-mf-grid", inputs, work, res, info, record)
    assert verdict["failed"] == 2  # both rows lost the column
    assert all("recall@20 missing" in line for line in verdict["log"] if "FAILED" in line)


def test_setup_probe_stops_at_the_first_fit(tmp_path):
    _, _, full, _ = tiny_pass(tmp_path, "ci-mf-grid", 6, 0, "full")
    _, _, probe, _ = tiny_pass(tmp_path, "ci-mf-grid", 6, 0, "probe", "--setup-only")
    assert full["fit_calls"] == 2 and probe["fit_calls"] == 0
    assert probe["commands"] == []  # the grid command was cut short
    assert 0 < probe["setup_s"] < full["total_s"]


def test_repeated_pass_is_byte_identical_and_a_changed_file_is_caught(tmp_path):
    record = str(tmp_path / "digests.json")
    for name in ("first", "second"):
        inputs, work, res, info = tiny_pass(tmp_path, "ingest-eval", 4, 0, name)
        verdict = checks.check_pass("ingest-eval", inputs, work, res, info, record)
        assert verdict["failed"] == 0, verdict["log"]
    report = os.path.join(work, "eval", "report.tsv")
    with open(report, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(report, "a", encoding="utf-8") as fh:
        fh.write("\n")
    verdict = checks.check_pass("ingest-eval", inputs, work, res, info, record)
    assert verdict["failed"] == 1

    # a report row deleted: the oracle check fails before the byte check
    with open(report, "w", encoding="utf-8") as fh:
        fh.writelines(line for line in lines if not line.startswith("ndcg\t20\t"))
    verdict = checks.check_pass("ingest-eval", inputs, work, res, info, str(tmp_path / "fresh.json"))
    assert verdict["failed"] == 1
    assert any("report.tsv ndcg@20 missing" in line for line in verdict["log"])


def test_traced_passes_report_every_layer_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    nonzero: set[str] = set()
    for workload in WORKLOADS:
        inputs, work, res, info = tiny_pass(tmp_path, workload, 5, 1)
        verdict = checks.check_pass(workload, inputs, work, res, info, str(tmp_path / f"{workload}.json"))
        assert verdict["failed"] == 0, verdict["log"]
        layer = res["layers"]["metrics"]
        # layer self times, the untraced remainder and the parallel overlap
        # account for the traced wall time
        self_sum = sum(v for k, v in layer.items() if k.endswith(".layer_self_s"))
        assert self_sum + layer["trace.remainder_s"] - layer["trace.overlap_s"] == pytest.approx(
            layer["trace.total_s"], abs=1e-6
        )
        assert os.path.exists(os.path.join(work, "spans.tsv"))
        nonzero |= {k for k, v in layer.items() if v}
        if res["train_s"]:
            nonzero.add("trainer.pairs_per_s")
    # the overhead is measured against untraced passes by run.py
    missing = [n for n in names if n not in nonzero and not n.startswith("trace.")]
    assert not missing
