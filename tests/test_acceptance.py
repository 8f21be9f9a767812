"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import math
import os
import time

import numpy as np

from mmrec.data import FilterParams, Interactions, k_core_filter
from mmrec.evaluation import evaluate
from mmrec.experiment import ExperimentConfig, expand_grid, parse_config, run_experiment
from mmrec.models import (
    ModelInputs,
    ModelState,
    TripleBatch,
    build_adjacency,
    calculate_loss,
    init_params,
)
from mmrec.trainer import TrainConfig, fit

from conftest import (
    all_scores,
    brute_force_k_core,
    make_interaction_set,
    random_bipartite_records,
    synthetic_block_dataset,
    topk_lists,
)
from data_oracle import records as table_records
from test_experiment import write_toy_workspace


def report(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}  criterion {criterion}: {label}{suffix}")
    assert ok, f"criterion {criterion}: {label}{suffix}"


def test_criterion_1_kcore_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for _ in range(100):
        n_users = int(rng.integers(2, 31))
        n_items = int(rng.integers(2, 31))
        p = float(rng.uniform(0.1, 0.4))
        k = int(rng.choice([2, 3]))
        records = random_bipartite_records(rng, n_users, n_items, p)
        core = table_records(k_core_filter(Interactions.from_records(records), FilterParams(k=k)))
        got = {(r.raw_user_id, r.raw_item_id) for r in core}
        want = brute_force_k_core({(r.raw_user_id, r.raw_item_id) for r in records}, k)
        assert got == want
    elapsed = time.perf_counter() - started
    report(1, "k-core peeling equals brute-force oracle on 100 random graphs",
           elapsed < 1.0, f"{elapsed:.2f}s")


def _naive_user_metrics(scores, train_row, gt, k):
    masked = set(train_row)
    order = sorted((i for i in range(len(scores)) if i not in masked),
                   key=lambda i: (-scores[i], i))[:k]
    hits = [i for i in order if i in gt]
    recall = len(hits) / len(gt)
    precision = len(hits) / k
    dcg = sum(1.0 / math.log2(p + 2) for p, i in enumerate(order) if i in gt)
    idcg = sum(1.0 / math.log2(p + 2) for p in range(min(len(gt), k)))
    ap, nh = 0.0, 0
    for p, i in enumerate(order, start=1):
        if i in gt:
            nh += 1
            ap += nh / p
    return recall, precision, dcg / idcg, ap / min(len(gt), k)


def test_criterion_2_metric_oracle_equivalence():
    from mmrec.data import Dataset

    rng = np.random.default_rng(202)
    cutoffs = (5, 10, 20)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n_users = int(rng.integers(3, 51))
        n_items = 200
        train, test = set(), set()
        for u in range(n_users):
            items = rng.choice(n_items, size=12, replace=False)
            train |= {(u, int(i)) for i in items[:8]}
            if rng.random() < 0.9:
                test |= {(u, int(i)) for i in items[8:]}
        if not test:
            test = {(0, int(i)) for i in range(190, 194)}
        ds = Dataset(
            n_users, n_items,
            {f"u{i}": i for i in range(n_users)}, {f"i{j}": j for j in range(n_items)},
            make_interaction_set(train, n_users, n_items),
            make_interaction_set([], n_users, n_items),
            make_interaction_set(test, n_users, n_items),
        )
        state = init_params("mf_bpr", n_users, n_items, 5, seed=int(rng.integers(1 << 30)))
        got = evaluate(state, ds, "test", cutoffs)

        scores = all_scores(state)
        sums = {m: {k: 0.0 for k in cutoffs} for m in ("recall", "precision", "ndcg", "map")}
        n_eval = 0
        for u in range(n_users):
            gt = set(ds.test.row(u).tolist())
            if not gt:
                continue
            n_eval += 1
            for k in cutoffs:
                r, p, n, a = _naive_user_metrics(scores[u], ds.train.row(u).tolist(), gt, k)
                sums["recall"][k] += r
                sums["precision"][k] += p
                sums["ndcg"][k] += n
                sums["map"][k] += a
        for metric in sums:
            for k in cutoffs:
                diff = abs(got.get(metric, k) - sums[metric][k] / n_eval)
                worst = max(worst, diff)
                assert diff <= 1e-9
    elapsed = time.perf_counter() - started
    report(2, "ranking metrics match a naive per-user oracle within 1e-9",
           elapsed < 5.0, f"max diff {worst:.1e}, {elapsed:.2f}s")


def _tiny_instance(rng, kind, n_layers):
    n_u = int(rng.integers(3, 9))
    n_i = int(rng.integers(3, 9))
    d = int(rng.integers(2, 5))
    d_p = int(rng.integers(1, 4))
    d_f = int(rng.integers(2, 5))
    pairs = {(u, int(i)) for u in range(n_u) for i in rng.integers(0, n_i, 2)}
    # keep at least one non-interacted item per user so negatives exist
    pairs = {(u, i) for u, i in pairs if i != n_i - 1}
    pairs |= {(u, int(rng.integers(0, n_i - 1))) for u in range(n_u)}
    train = make_interaction_set(pairs, n_u, n_i)
    fused = rng.normal(size=(n_i, d_f))
    adjacency = build_adjacency(train) if kind == "graph_mm" else None
    state = init_params(
        kind, n_u, n_i, d,
        seed=int(rng.integers(1 << 30)),
        d_p=d_p, d_fused=d_f, n_layers=n_layers,
        lambda_reg=float(rng.choice([0.0, 0.3])),
    )
    triples = []
    for _ in range(8):
        u = int(rng.integers(n_u))
        row = set(train.row(u).tolist())
        pos = int(rng.choice(sorted(row)))
        neg = int(rng.choice(sorted(set(range(n_i)) - row)))
        triples.append((u, pos, neg))
    arr = np.array(triples)
    return state, TripleBatch(arr[:, 0], arr[:, 1], arr[:, 2]), \
        ModelInputs(fused if kind != "mf_bpr" else None, adjacency)


def test_criterion_3_gradient_checks():
    rng = np.random.default_rng(303)
    h = 1e-5
    started = time.perf_counter()
    n_instances = 0
    worst = 0.0
    for kind, n_layers in (("mf_bpr", None), ("vbpr_mm", None), ("graph_mm", 1), ("graph_mm", 2)):
        for _ in range(6):
            n_instances += 1
            state, batch, inputs = _tiny_instance(rng, kind, n_layers)
            _, grads = calculate_loss(state, batch, inputs)
            for name, tensor in state.tensors.items():
                fd = np.zeros_like(tensor)
                it = np.nditer(tensor, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = tensor[idx]
                    tensor[idx] = orig + h
                    up, _ = calculate_loss(state, batch, inputs)
                    tensor[idx] = orig - h
                    down, _ = calculate_loss(state, batch, inputs)
                    tensor[idx] = orig
                    fd[idx] = (up - down) / (2 * h)
                denom = np.maximum(1e-6, np.abs(grads[name]) + np.abs(fd))
                rel = float(np.max(np.abs(grads[name] - fd) / denom))
                worst = max(worst, rel)
                assert rel < 1e-4, f"{kind} L={n_layers} tensor {name}: rel err {rel:.2e}"
    elapsed = time.perf_counter() - started
    report(3, "analytic gradients match central finite differences (1e-4)",
           n_instances >= 20 and elapsed < 10.0,
           f"{n_instances} instances, worst rel {worst:.1e}, {elapsed:.2f}s")


def test_criterion_4_reduction_identities():
    rng = np.random.default_rng(404)
    n_u, n_i, d = 7, 9, 4
    fused = rng.normal(size=(n_i, 5))
    pairs = {(u, int(i)) for u in range(n_u) for i in rng.integers(0, n_i, 3)}
    adjacency = build_adjacency(make_interaction_set(pairs, n_u, n_i))

    vbpr = init_params("vbpr_mm", n_u, n_i, d, seed=1, d_p=3, d_fused=5)
    vbpr.tensors["proj"][:] = 0.0
    graph = init_params("graph_mm", n_u, n_i, d, seed=2, d_fused=5, n_layers=0)
    graph.tensors["mod_proj"][:] = 0.0

    gap = 0.0
    for state in (vbpr, graph):
        mf = ModelState(
            "mf_bpr", n_u, n_i, d,
            {"user_emb": state.tensors["user_emb"], "item_emb": state.tensors["item_emb"]},
        )
        diff = np.max(np.abs(
            all_scores(state, ModelInputs(fused, adjacency if state.kind == "graph_mm" else None))
            - all_scores(mf)
        ))
        gap = max(gap, float(diff))
        assert diff < 1e-12
    report(4, "vbpr(proj=0) and graph(L=0, mod_proj=0) reduce to mf_bpr scores",
           True, f"max |diff| {gap:.1e}")


def _grid_workspace(tmp_path, name):
    return write_toy_workspace(
        tmp_path / name,
        n_users=16,
        n_items=10,
        modalities=("text", "image"),
        extra_lines=["reg: [0.0, 0.1]", "max_epochs: 3", "model: vbpr_mm", "eval_interval: 1"],
        seed=31,
    )


def test_criterion_5_reproducibility(tmp_path):
    from mmrec.cli import main

    config_a = _grid_workspace(tmp_path, "w")
    out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
    for out in (out_a, out_b):
        code = main(["grid", "--config", str(config_a), "--out", str(out), "--jobs", "1"])
        assert code == 0

    compared = 0
    for dirpath, _, files in os.walk(out_a):
        for fname in files:
            if fname == "timings.tsv":
                continue  # measured wall seconds, outside the contract
            rel = os.path.relpath(os.path.join(dirpath, fname), out_a)
            a_bytes = (out_a / rel).read_bytes()
            b_bytes = (out_b / rel).read_bytes()
            assert a_bytes == b_bytes, f"{rel} differs between identical runs"
            compared += 1
    names = {os.path.basename(p) for p in (
        "summary.tsv", "train_log.tsv", "meta", "user_emb.mmf8"
    )}
    seen = {f for _, _, fs in os.walk(out_a) for f in fs}
    assert names <= seen
    report(5, "identical grid invocations are byte-identical (summary, logs, checkpoints)",
           compared >= 10, f"{compared} files compared")


def test_criterion_6_masking_soundness():
    dataset, fused = synthetic_block_dataset(data_seed=5, split_seed=6)
    cfg = TrainConfig(learning_rate=0.05, batch_size=2048, max_epochs=5,
                      eval_interval=5, stop_metric="recall@20", seed=8)
    state, _ = fit("vbpr_mm", dataset, cfg, d=8, d_p=4, inputs=ModelInputs(fused))
    checked = 0
    for u, topk in topk_lists(state, dataset, "test", 50, ModelInputs(fused)):
        overlap = set(topk.tolist()) & set(dataset.train.row(u).tolist())
        assert not overlap, f"user {u} leaked train items {overlap}"
        checked += 1
    report(6, "no train item appears in any top-50 list", checked > 0,
           f"{checked} users checked")


def test_criterion_7_learning_sanity():
    """On block data the feature model's edge over mf is small next to the
    spread between splits (one split's verdict can flip), so the ndcg claim
    is the mean paired difference over eight split seeds; mf must beat
    random on every one of them."""
    started = time.perf_counter()
    cfg = TrainConfig(learning_rate=0.05, batch_size=4096, max_epochs=50, patience=10,
                      eval_interval=5, stop_metric="recall@20", seed=3)
    k = 20
    ratios, gains = [], []
    for split_seed in range(32, 40):
        dataset, fused = synthetic_block_dataset(data_seed=22, split_seed=split_seed)
        mf_state, _ = fit("mf_bpr", dataset, cfg, d=8)
        mf = evaluate(mf_state, dataset, "test", (10, k))
        users = [u for u in range(dataset.n_users) if len(dataset.test.row(u))]
        baseline = float(np.mean([
            min(1.0, k / (dataset.n_items - len(dataset.train.row(u)))) for u in users
        ]))
        ratios.append(mf.get("recall", k) / baseline)
        assert ratios[-1] >= 3.0, f"split seed {split_seed}: recall ratio only {ratios[-1]:.2f}x"

        vb_state, _ = fit("vbpr_mm", dataset, cfg, d=8, d_p=4, inputs=ModelInputs(fused))
        vb = evaluate(vb_state, dataset, "test", (10, k), ModelInputs(fused))
        gains.append(vb.get("ndcg", 10) - mf.get("ndcg", 10))
        print(f"split seed {split_seed}: mf recall@{k} {ratios[-1]:.2f}x random, "
              f"ndcg@10 mf {mf.get('ndcg', 10):.4f} vbpr {vb.get('ndcg', 10):.4f} "
              f"({gains[-1]:+.4f})")
    mean_gain = float(np.mean(gains))
    assert mean_gain >= 0.0, f"vbpr ndcg@10 is {mean_gain:+.4f} below mf on average"
    elapsed = time.perf_counter() - started
    report(7, "block-data sanity on 8 splits: mf recall 3x random, mean vbpr ndcg gain >= 0",
           elapsed < 120.0,
           f"min {min(ratios):.2f}x baseline, mean ndcg gain {mean_gain:+.4f}, {elapsed:.0f}s")


def test_criterion_8_four_modalities_all_fusions(tmp_path):
    config_path = write_toy_workspace(
        tmp_path,
        n_users=16,
        n_items=10,
        modalities=("text", "image", "audio", "video"),
        feature_dim=3,  # equal dims so sum and mean apply
        extra_lines=["fusion: [concat, sum, mean]", "model: vbpr_mm", "max_epochs: 2"],
        seed=17,
    )
    report_obj = run_experiment(parse_config(config_path), out_dir=tmp_path / "out")
    assert len(report_obj.results) == 3
    assert [r.combo["fusion"] for r in report_obj.results] == ["concat", "sum", "mean"]
    assert all(r.error is None for r in report_obj.results)
    assert all(r.test_report is not None for r in report_obj.results)
    assert (tmp_path / "out" / "summary.tsv").exists()
    report(8, "grid run fuses four modalities via concat, sum and mean end-to-end",
           True, "3 fusion combos trained and evaluated")


def test_criterion_9_grid_mechanics(tmp_path):
    rng = np.random.default_rng(909)
    keys = ["batch_size", "d", "d_p", "fusion", "learning_rate", "n_layers", "reg"]
    for _ in range(30):
        axes = {}
        for key in rng.choice(keys, size=int(rng.integers(1, 5)), replace=False):
            axes[str(key)] = list(range(int(rng.integers(1, 5))))
        combos = expand_grid(ExperimentConfig(values={}, grid=axes))
        assert len(combos) == int(np.prod([len(v) for v in axes.values()]))

    config_path = write_toy_workspace(
        tmp_path, extra_lines=["learning_rate: [0.2, 0.05, 0.01]", "max_epochs: 3"]
    )
    summary = run_experiment(parse_config(config_path), out_dir=tmp_path / "out")
    lines = (tmp_path / "out" / "summary.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    col = header.index("valid_recall@5")
    values = [float(line.split("\t")[col]) for line in lines[1:-1]]
    recomputed = int(np.argmax(values))
    assert lines[-1] == f"# best: {recomputed}"
    assert summary.best_index == recomputed
    report(9, "combo count = product of axis lengths; best row recomputable from file",
           True, f"best row {recomputed}")
