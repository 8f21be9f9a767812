import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import mmrec.evaluation
import mmrec.experiment
import mmrec.models

from mmrec.data import Dataset
from mmrec.errors import DimensionMismatch, EmptySplit, MissingAdjacency, MissingFeatures
from mmrec.evaluation import (
    METRICS,
    MetricReport,
    Ranking,
    evaluate,
    format_metric_report,
    mask_trained,
    parse_metric_spec,
    top_k,
    write_metric_report,
)
from mmrec.experiment import parse_config, run_single
from mmrec.models import (
    FEATURE_KINDS, GRAPH_KINDS, ModelInputs, ModelState, build_adjacency, encode, full_sort_predict,
    init_params,
)

from conftest import all_scores, make_interaction_set, synthetic_block_dataset, topk_lists
from eval_oracle import EmptyGroundTruth, map_at_k, ndcg_at_k, precision_at_k, recall_at_k


# ------------------------------------------------------------------ oracles

def naive_topk(scores, train_row, k):
    """Brute-force full argsort with explicit tie handling; -inf and NaN
    scores are never listed."""
    order = sorted(
        (i for i in range(len(scores)) if i not in set(train_row) and scores[i] > -np.inf),
        key=lambda i: (-scores[i], i),
    )
    return order[:k]


def naive_metrics(topk, gt, k):
    listed = list(topk[:k])
    hits = [i for i in listed if i in gt]
    recall = len(hits) / len(gt)
    precision = len(hits) / k
    dcg = sum(1.0 / math.log2(p + 2) for p, i in enumerate(listed) if i in gt)
    idcg = sum(1.0 / math.log2(p + 2) for p in range(min(len(gt), k)))
    ndcg = dcg / idcg
    ap, nh = 0.0, 0
    for p, i in enumerate(listed, start=1):
        if i in gt:
            nh += 1
            ap += nh / p
    ap /= min(len(gt), k)
    return recall, precision, ndcg, ap


def mask_row(scores, train_row):
    """One user's scores as a one-row chunk, its train items masked."""
    items = np.asarray(train_row, dtype=np.int64)
    return mask_trained(np.array([scores], dtype=np.float64), (np.zeros_like(items), items))


def rank_row(chunk, k):
    """The top-k list of a one-row chunk, without its -1 padding."""
    row = top_k(chunk, k)[0]
    return row[row >= 0]


class TestMask:
    def test_basic_substitution(self):
        [out] = mask_row([0.3, 0.9, 0.5], [1])
        assert out[0] == 0.3 and out[2] == 0.5 and np.isneginf(out[1])

    def test_empty_train_row(self):
        row = np.array([0.1, 0.2])
        assert np.array_equal(mask_row(row, []), [row])

    def test_all_masked(self):
        assert np.isneginf(mask_row([0.1, 0.2], [0, 1])).all()


class TestTopK:
    def test_tie_goes_to_lower_index(self):
        assert top_k(np.array([[0.5, 0.9, 0.5]]), 2).tolist() == [[1, 0]]

    def test_k_larger_than_catalog(self):
        out = top_k(np.array([[0.1, 0.3, 0.2]]), 10)
        assert out.tolist() == [[1, 2, 0]]

    def test_masked_items_never_returned(self):
        assert rank_row(mask_row([0.9, 0.8, 0.7, 0.6], [0, 1]), 4).tolist() == [2, 3]

    def test_nan_scores_never_list_a_masked_item(self):
        assert rank_row(mask_row([np.nan, 1.0, 2.0, 0.5], [2]), 4).tolist() == [1, 3]

    def test_matches_argsort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            scores = rng.normal(size=200)
            if rng.random() < 0.5:  # inject ties
                scores = np.round(scores, 1)
            if rng.random() < 0.5:  # inject NaN, +inf and -inf, up to past K
                for value in (np.nan, np.inf, -np.inf):
                    scores[rng.choice(200, size=rng.integers(0, 70), replace=False)] = value
            train_row = rng.choice(200, size=rng.integers(0, 40), replace=False)
            k = int(rng.integers(1, 60))
            chunk = mask_row(scores, train_row)
            got = rank_row(chunk, k)
            assert got.tolist() == naive_topk(scores, train_row, k)
            # a shorter list is a prefix of a longer one
            lists = top_k(chunk, k)
            for shorter in range(1, k + 1):
                assert np.array_equal(lists[:, :shorter], top_k(chunk, shorter))

    def test_matches_argsort_oracle_where_the_group_bound_engages(self):
        # catalogs of at least 16 * (k + 1) items, so top_k bounds each row's
        # K-th best score by its K-th largest group maximum (group = item mod
        # n_items // 16), plus catalogs no wider than k
        rng = np.random.default_rng(4)
        for case in range(120):
            k = int(rng.integers(1, 81))
            if case % 6 == 5:
                n_items = int(rng.integers(1, k + 1))
            else:
                n_items = int(rng.integers(16 * (k + 1), 3001))
            groups = max(n_items // 16, 1)
            items = np.arange(n_items)
            grouped = items < 16 * groups
            chunk = rng.normal(size=(5, n_items))
            chunk[0] = np.round(chunk[0], 1)  # ties across groups and at the floor
            chunk[1, rng.random(n_items) < 0.02] = np.inf
            chunk[2] = chunk[2, 0]  # a fully tied row
            # a row with fewer than k groups holding an unmasked item
            live = rng.choice(groups, size=int(rng.integers(0, min(k, groups))), replace=False)
            chunk[3, grouped & ~np.isin(items % groups, live)] = -np.inf
            chunk[4] = np.round(chunk[4], 2)
            chunk[4, rng.random(n_items) < 0.3] = -np.inf
            # whole NaN columns, among them every column of some groups
            dead = rng.choice(groups, size=int(rng.integers(0, groups)), replace=False)
            chunk[:, grouped & np.isin(items % groups, dead)] = np.nan
            chunk[:, rng.random(n_items) < 0.05] = np.nan
            lists = top_k(chunk, k)
            assert lists.shape == (5, min(k, n_items))
            for row, scores in zip(lists, chunk):
                expected = naive_topk(scores, [], k)
                assert row.tolist() == expected + [-1] * (len(row) - len(expected))

    def test_peak_memory_is_below_a_fifth_of_the_chunk(self):
        # an evaluation chunk at Baby shape; a whole-chunk copy would break this
        rng = np.random.default_rng(5)
        chunk = rng.normal(size=(512, 64)) @ rng.normal(size=(6791, 64)).T
        chunk[np.repeat(np.arange(512), 10), rng.integers(0, 6791, size=5120)] = -np.inf
        tracemalloc.start()
        try:
            top_k(chunk, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < chunk.nbytes / 5

    def test_strictly_increasing_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=50)
        base = top_k(scores[None], 50)
        for transform in (lambda x: 3 * x + 1, np.tanh, lambda x: x**3):
            assert np.array_equal(top_k(transform(scores)[None], 50), base)


class TestMetricValues:
    def test_recall_full_hit(self):
        assert recall_at_k(np.array([3, 1]), {3}, 2) == 1.0

    def test_recall_precision_counts(self):
        topk = np.array([10, 11, 12, 13, 14, 15, 16, 17, 18, 19])
        gt = {10, 12, 99}
        assert recall_at_k(topk, gt, 10) == pytest.approx(2 / 3)
        assert precision_at_k(topk, gt, 10) == pytest.approx(0.2)

    def test_no_hits_zero(self):
        topk = np.array([1, 2])
        assert recall_at_k(topk, {9}, 2) == 0.0
        assert precision_at_k(topk, {9}, 2) == 0.0
        assert ndcg_at_k(topk, {9}, 2) == 0.0
        assert map_at_k(topk, {9}, 2) == 0.0

    def test_precision_keeps_k_denominator_for_short_lists(self):
        assert precision_at_k(np.array([5]), {5}, 10) == pytest.approx(0.1)

    def test_ndcg_single_hit_position_two(self):
        value = ndcg_at_k(np.array([2, 5, 9]), {5}, 3)
        assert value == pytest.approx(1.0 / math.log2(3.0), abs=1e-9)
        assert value == pytest.approx(0.630930, abs=1e-6)

    def test_ndcg_ideal_is_one(self):
        assert ndcg_at_k(np.array([4, 7, 1]), {4, 7}, 3) == pytest.approx(1.0)

    def test_map_hand_computed(self):
        value = map_at_k(np.array([0, 99, 1, 98]), {0, 1}, 4)
        assert value == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)
        assert value == pytest.approx(0.833333, abs=1e-6)

    def test_map_first_position(self):
        assert map_at_k(np.array([5, 6]), {5}, 2) == 1.0

    def test_empty_ground_truth(self):
        for fn in (recall_at_k, precision_at_k, ndcg_at_k, map_at_k):
            with pytest.raises(EmptyGroundTruth):
                fn(np.array([1]), set(), 1)

    def test_identity_cross_check(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            topk = rng.permutation(30)[:10]
            gt = set(rng.choice(30, size=5, replace=False).tolist())
            k = 10
            hits = len(set(topk.tolist()) & gt)
            assert precision_at_k(topk, gt, k) * k == pytest.approx(hits)
            assert recall_at_k(topk, gt, k) * len(gt) == pytest.approx(hits)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=100)
        gt = set(rng.choice(100, size=6, replace=False).tolist())
        [ranked] = top_k(scores[None], 100)
        for lo, hi in [(5, 10), (10, 20), (20, 50)]:
            assert recall_at_k(ranked, gt, hi) >= recall_at_k(ranked, gt, lo)
            assert ndcg_at_k(ranked, gt, hi) >= ndcg_at_k(ranked, gt, lo) - 1e-12


def manual_dataset(n_users, n_items, train_pairs, test_pairs, valid_pairs=()):
    return Dataset(
        n_users,
        n_items,
        {f"u{i}": i for i in range(n_users)},
        {f"i{j}": j for j in range(n_items)},
        make_interaction_set(train_pairs, n_users, n_items),
        make_interaction_set(valid_pairs, n_users, n_items),
        make_interaction_set(test_pairs, n_users, n_items),
    )


class TestEvaluate:
    def make(self, rng, n_users=12, n_items=40):
        train, test = set(), set()
        for u in range(n_users):
            items = rng.choice(n_items, size=8, replace=False)
            train |= {(u, int(i)) for i in items[:5]}
            test |= {(u, int(i)) for i in items[5:]}
        ds = manual_dataset(n_users, n_items, train, test)
        state = init_params("mf_bpr", n_users, n_items, 4, seed=int(rng.integers(1 << 30)))
        return ds, state

    def test_perfect_model_scores_one_everywhere(self):
        rng = np.random.default_rng(4)
        ds, state = self.make(rng)
        # craft scores: test items highest, train items masked anyway
        scores = np.zeros((ds.n_users, ds.n_items))
        for u in range(ds.n_users):
            scores[u, ds.test.row(u)] = 10.0
        state.tensors["user_emb"] = np.eye(ds.n_users)
        state.tensors["item_emb"] = scores.T.copy()
        state.d = ds.n_users
        report = evaluate(state, ds, "test", (5, 10))
        for metric in ("recall", "precision", "ndcg", "map"):
            if metric == "precision":
                continue  # bounded by |GT|/K, not 1
            assert report.get(metric, 5) == pytest.approx(1.0)

    def test_uniform_zero_scores_tie_break(self):
        # 100 items, one GT item per user, train rows kept out of the low indices
        n_users, n_items = 50, 100
        train = {(u, i) for u in range(n_users) for i in range(80, 85)}
        test = {(u, u) for u in range(n_users)}  # GT item index == user index
        ds = manual_dataset(n_users, n_items, train, test)
        state = init_params("mf_bpr", n_users, n_items, 2, seed=0)
        state.tensors["user_emb"][:] = 0.0  # all scores exactly zero
        report = evaluate(state, ds, "test", (20,))
        expected = np.mean([1.0 if u < 20 else 0.0 for u in range(n_users)])
        assert report.get("recall", 20) == pytest.approx(expected)

    def test_matches_naive_implementation(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            n_users = int(rng.integers(5, 30))
            n_items = int(rng.integers(30, 120))
            train, test = set(), set()
            for u in range(n_users):
                items = rng.choice(n_items, size=10, replace=False)
                train |= {(u, int(i)) for i in items[:6]}
                if rng.random() < 0.9:
                    test |= {(u, int(i)) for i in items[6:]}
            if not test:
                continue
            ds = manual_dataset(n_users, n_items, train, test)
            state = init_params("mf_bpr", n_users, n_items, 6, seed=int(rng.integers(1 << 30)))
            cutoffs = (5, 10, 20)
            report = evaluate(state, ds, "test", cutoffs)

            scores = all_scores(state)
            sums = {m: {k: 0.0 for k in cutoffs} for m in ("recall", "precision", "ndcg", "map")}
            n_eval = 0
            for u in range(n_users):
                gt = set(ds.test.row(u).tolist())
                if not gt:
                    continue
                n_eval += 1
                ranked = naive_topk(scores[u], ds.train.row(u).tolist(), max(cutoffs))
                for k in cutoffs:
                    r, p, n, a = naive_metrics(ranked, gt, k)
                    sums["recall"][k] += r
                    sums["precision"][k] += p
                    sums["ndcg"][k] += n
                    sums["map"][k] += a
            assert report.n_evaluated == n_eval
            for metric in sums:
                for k in cutoffs:
                    assert report.get(metric, k) == pytest.approx(sums[metric][k] / n_eval, abs=1e-9)

    def test_no_train_item_in_any_topk(self):
        rng = np.random.default_rng(6)
        ds, state = self.make(rng)
        for u, topk in topk_lists(state, ds, "test", 50):
            assert not (set(topk.tolist()) & set(ds.train.row(u).tolist()))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(7)
        ds, state = self.make(rng)
        report = evaluate(state, ds, "test", (20, 5, 10, 5))
        assert report.cutoffs == (5, 10, 20)  # sorted, each cutoff once
        for metric in ("recall", "precision", "ndcg", "map"):
            for k in report.cutoffs:
                assert 0.0 <= report.get(metric, k) <= 1.0

    def test_empty_split(self):
        ds = manual_dataset(3, 5, {(u, 0) for u in range(3)}, set())
        state = init_params("mf_bpr", 3, 5, 2, seed=0)
        with pytest.raises(EmptySplit):
            evaluate(state, ds, "test", (5,))

    def test_other_heldout_split_not_masked(self):
        # valid items stay scoreable when evaluating test
        train = {(0, 0)}
        ds = Dataset(
            1, 4,
            {"u0": 0}, {f"i{j}": j for j in range(4)},
            make_interaction_set(train, 1, 4),
            make_interaction_set({(0, 1)}, 1, 4),
            make_interaction_set({(0, 2)}, 1, 4),
        )
        state = init_params("mf_bpr", 1, 4, 2, seed=0)
        state.tensors["user_emb"][0] = [1.0, 0.0]
        state.tensors["item_emb"][:] = [[5.0, 0], [4.0, 0], [3.0, 0], [2.0, 0]]
        [(_, topk)] = topk_lists(state, ds, "test", 3)
        assert topk.tolist() == [1, 2, 3]  # valid item 1 present, train item 0 absent


def test_report_file_format(tmp_path):
    report = MetricReport(
        (5, 10),
        {m: {5: 0.5, 10: 0.25} for m in ("recall", "precision", "ndcg", "map")},
        7,
    )
    path = tmp_path / "report.tsv"
    write_metric_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "metric\tk\tvalue"
    assert lines[1] == "recall\t5\t0.500000"
    assert lines[-1] == "n_evaluated\t7"
    assert len(lines) == 1 + 8 + 1
    assert format_metric_report(report) == path.read_text()


def test_parse_metric_spec():
    assert parse_metric_spec("recall@20") == ("recall", 20)
    assert parse_metric_spec("NDCG@5") == ("ndcg", 5)
    for bad in ("recall", "recall@", "hits@5", "recall@0", "recall@x"):
        with pytest.raises(ValueError):
            parse_metric_spec(bad)


# --------------------------------------------- chunked evaluator vs oracle

SCALAR_METRICS = {"recall": recall_at_k, "precision": precision_at_k, "ndcg": ndcg_at_k, "map": map_at_k}


def oracle_report(state, ds, cutoffs):
    """Per-user one-row top_k(mask_trained(...)) scored by the scalar *_at_k
    functions and summed in user order, as a loop over users would. A
    repeated cutoff is scored once, as the evaluator reports it once."""
    cutoffs = tuple(dict.fromkeys(cutoffs))
    scores = all_scores(state)
    sums = {m: {k: 0.0 for k in cutoffs} for m in METRICS}
    n_eval = 0
    for u in range(ds.n_users):
        gt = set(ds.test.row(u).tolist())
        if not gt:
            continue
        n_eval += 1
        ranked = rank_row(mask_row(scores[u], ds.train.row(u)), max(cutoffs))
        assert ranked.tolist() == naive_topk(scores[u], ds.train.row(u).tolist(), max(cutoffs))
        for metric, fn in SCALAR_METRICS.items():
            for k in cutoffs:
                sums[metric][k] += fn(ranked, gt, k)
    return n_eval, {m: {k: sums[m][k] / n_eval for k in cutoffs} for m in METRICS}


def integer_state(user_emb, item_emb):
    """A mf_bpr state whose scores are small integers, so ties abound."""
    n_users, n_items, d = len(user_emb), len(item_emb), user_emb.shape[1]
    tensors = {"user_emb": user_emb.astype(np.float64), "item_emb": item_emb.astype(np.float64)}
    return ModelState("mf_bpr", n_users, n_items, d, tensors)


def dataset_from_masks(train, test):
    n_users, n_items = train.shape
    pairs = lambda mask: {(int(u), int(i)) for u, i in zip(*np.nonzero(mask))}
    return manual_dataset(n_users, n_items, pairs(train), pairs(test))


def assert_matches_oracle(state, ds, cutoffs):
    n_eval, expected = oracle_report(state, ds, cutoffs)
    report = evaluate(state, ds, "test", cutoffs)
    assert report.n_evaluated == n_eval
    assert report.values == expected  # exact: same lists, same arithmetic, same order
    lists = [(u, topk.tolist()) for u, topk in topk_lists(state, ds, "test", max(cutoffs))]
    scores = all_scores(state)
    assert lists == [
        (u, naive_topk(scores[u], ds.train.row(u).tolist(), max(cutoffs)))
        for u in range(ds.n_users) if ds.test.row(u).size
    ]


@st.composite
def tied_instances(draw, max_users):
    n_users = draw(st.integers(1, max_users))
    n_items = draw(st.integers(1, 25))
    d = draw(st.integers(1, 3))
    small = st.integers(-2, 2)
    user_emb = draw(arrays(np.int64, (n_users, d), elements=small))
    item_emb = draw(arrays(np.int64, (n_items, d), elements=small))
    # dense train rows leave fewer than K items unmasked, or none at all
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    coins = draw(arrays(np.float64, (n_users, n_items), elements=st.floats(0, 1)))
    train = coins < density
    test = draw(arrays(np.bool_, (n_users, n_items))) & ~train
    cutoffs = draw(st.lists(st.integers(1, n_items + 5), min_size=1, max_size=4, unique=True))
    return integer_state(user_emb, item_emb), train, test, tuple(cutoffs)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tied_instances(max_users=30))
def test_chunked_evaluator_equals_scalar_oracle(instance):
    state, train, test, cutoffs = instance
    assume(test.any())
    assert_matches_oracle(state, dataset_from_masks(train, test), cutoffs)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32 - 1), st.integers(513, 1300))
def test_chunked_evaluator_equals_oracle_across_chunk_boundaries(seed, n_users):
    rng = np.random.default_rng(seed)
    n_items = int(rng.integers(5, 40))
    state = integer_state(rng.integers(-2, 3, (n_users, 2)), rng.integers(-2, 3, (n_items, 2)))
    train = rng.random((n_users, n_items)) < rng.choice([0.2, 0.9])
    test = (rng.random((n_users, n_items)) < 0.15) & ~train
    assume(np.count_nonzero(test.any(axis=1)) > 512)
    assert_matches_oracle(state, dataset_from_masks(train, test), (1, 5, 10, n_items + 3))


def test_graph_model_is_propagated_once_per_evaluation(monkeypatch):
    rng = np.random.default_rng(8)
    n_users, n_items = 1100, 30
    picks = [rng.choice(n_items, 4, replace=False) for _ in range(n_users)]
    train = {(u, int(i)) for u, items in enumerate(picks) for i in items[:3]}
    test = {(u, int(items[3])) for u, items in enumerate(picks)}
    ds = manual_dataset(n_users, n_items, train, test)
    fused = rng.normal(size=(n_items, 4))
    state = init_params("graph_mm", n_users, n_items, 4, seed=3, d_fused=4, n_layers=2)
    calls = []
    propagate = mmrec.models.propagate_mean

    def counted(*args):
        calls.append(1)
        return propagate(*args)

    monkeypatch.setattr(mmrec.models, "propagate_mean", counted)
    report = evaluate(state, ds, "test", (5, 20), ModelInputs(fused, build_adjacency(ds.train)))
    assert report.n_evaluated > 2 * 512  # three chunks
    assert len(calls) == 1


class TestChunkedMaskAndTopK:
    def test_mask_scatters_a_chunk_index(self):
        scores = np.arange(6.0).reshape(2, 3)
        out = mask_trained(scores, (np.array([0, 1, 1]), np.array([2, 0, 1])))
        assert np.isneginf(out).tolist() == [[False, False, True], [True, True, False]]
        assert out[0, :2].tolist() == [0.0, 1.0] and out[1, 2] == 5.0  # the rest untouched

    def test_mask_in_place(self):
        scores = np.zeros((1, 2))
        assert mask_trained(scores, (np.array([0]), np.array([1]))) is scores
        assert np.isneginf(scores[0, 1])

    def test_short_rows_padded_with_minus_one(self):
        chunk = np.array([[1.0, -np.inf, 3.0], [-np.inf, -np.inf, -np.inf], [2.0, 2.0, 2.0]])
        assert top_k(chunk, 2).tolist() == [[2, 0], [-1, -1], [0, 1]]
        assert top_k(chunk, 5).tolist() == [[2, 0, -1], [-1, -1, -1], [0, 1, 2]]


# ------------------------------------------------ a ranking shared by reports

def users_of(split):
    return set(np.flatnonzero(np.diff(split.indptr)).tolist())


@pytest.mark.parametrize("kind", ["mf_bpr", "vbpr_mm", "graph_mm"])
def test_reports_sharing_a_ranking_equal_cold_reports(kind):
    ds, fused = synthetic_block_dataset()
    assert users_of(ds.test) <= users_of(ds.valid)  # so the test report ranks no one
    inputs = ModelInputs(fused if kind in FEATURE_KINDS else None,
                         build_adjacency(ds.train) if kind in GRAPH_KINDS else None)
    state = init_params(kind, ds.n_users, ds.n_items, 4, seed=2, d_p=3, d_fused=4, n_layers=2)
    ranking = Ranking(ds.n_users, 50)
    # valid, then test from the shared lists, and a prefix of them
    calls = [("valid", (5, 20, 50)), ("test", (5, 20, 50)), ("test", (10,))]
    shared = [evaluate(state, ds, target, cutoffs, inputs, ranking=ranking) for target, cutoffs in calls]
    cold = [evaluate(state, ds, target, cutoffs, inputs) for target, cutoffs in calls]
    assert shared == cold


@pytest.mark.parametrize("n_users_off, width", [(0, 19), (-1, 20), (1, 20), (0, 101)])
def test_a_ranking_that_does_not_fit_is_refused(n_users_off, width):
    ds, _ = synthetic_block_dataset()
    state = init_params("mf_bpr", ds.n_users, ds.n_items, 4, seed=2)
    ranking = Ranking(ds.n_users + n_users_off, width)
    with pytest.raises(ValueError, match="does not fit"):
        evaluate(state, ds, "valid", (5, 20), ranking=ranking)
    assert not ranking.ranked.any()


def partly_validated_dataset(valid_every):
    """1100 users over 30 items; every ``valid_every``-th user has no valid
    item, unless ``valid_every`` is 1."""
    rng = np.random.default_rng(9)
    n_users, n_items = 1100, 30
    picks = [rng.choice(n_items, 5, replace=False) for _ in range(n_users)]
    train = {(u, int(i)) for u, items in enumerate(picks) for i in items[:3]}
    valid = {(u, int(items[3])) for u, items in enumerate(picks) if valid_every == 1 or u % valid_every}
    test = {(u, int(items[4])) for u, items in enumerate(picks)}
    return manual_dataset(n_users, n_items, train, test, valid)


def counted_chunks(monkeypatch):
    """The user chunks that ``evaluate`` scores, appended as it scores them."""
    ranked = []
    predict = mmrec.evaluation.full_sort_predict

    def counted(rep, users, **kwargs):
        ranked.append(users.copy())
        return predict(rep, users, **kwargs)

    monkeypatch.setattr(mmrec.evaluation, "full_sort_predict", counted)
    return ranked


@pytest.mark.parametrize("valid_every", [1, 10])
def test_test_report_ranks_only_users_missing_from_the_ranking(valid_every, monkeypatch):
    ds = partly_validated_dataset(valid_every)
    state = init_params("mf_bpr", ds.n_users, ds.n_items, 4, seed=3)
    ranking = Ranking(ds.n_users, ds.n_items)
    ranked = counted_chunks(monkeypatch)
    evaluate(state, ds, "valid", ranking=ranking)
    assert len(ranked) == math.ceil(len(users_of(ds.valid)) / 512)
    del ranked[:]
    report = evaluate(state, ds, "test", ranking=ranking)
    missing = sorted(users_of(ds.test) - users_of(ds.valid))
    assert len(ranked) == (0 if valid_every == 1 else 1)
    assert sorted(u for chunk in ranked for u in chunk.tolist()) == missing
    assert report == evaluate(state, ds, "test")


def test_a_fully_ranked_report_encodes_nothing(monkeypatch):
    ds = partly_validated_dataset(1)
    fused = np.random.default_rng(5).normal(size=(ds.n_items, 4))
    inputs = ModelInputs(fused, build_adjacency(ds.train))
    state = init_params("graph_mm", ds.n_users, ds.n_items, 4, seed=3, d_fused=4, n_layers=2)
    ranking = Ranking(ds.n_users, ds.n_items)
    evaluate(state, ds, "valid", inputs=inputs, ranking=ranking)
    calls = []

    def counted(name, fn):
        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(mmrec.evaluation, "encode", counted("encode", mmrec.evaluation.encode))
    monkeypatch.setattr(mmrec.models, "propagate_mean", counted("propagate_mean", mmrec.models.propagate_mean))
    report = evaluate(state, ds, "test", inputs=inputs, ranking=ranking)
    assert calls == []
    monkeypatch.undo()
    assert report == evaluate(state, ds, "test", inputs=inputs)


@pytest.mark.parametrize("kind, inputs, error", [
    ("vbpr_mm", {"fused": None}, MissingFeatures),
    ("graph_mm", {"fused": None}, MissingFeatures),
    ("graph_mm", {"adjacency": None}, MissingAdjacency),
    ("vbpr_mm", {"fused": np.zeros((30, 3))}, DimensionMismatch),
    ("graph_mm", {"fused": np.zeros((29, 4))}, MissingFeatures),
])
def test_a_fully_ranked_report_still_checks_its_inputs(kind, inputs, error):
    ds = partly_validated_dataset(1)
    given = {"fused": np.ones((ds.n_items, 4)), "adjacency": build_adjacency(ds.train)}
    state = init_params(kind, ds.n_users, ds.n_items, 4, seed=3, d_p=3, d_fused=4, n_layers=2)
    ranking = Ranking(ds.n_users, ds.n_items)
    evaluate(state, ds, "valid", inputs=ModelInputs(**given), ranking=ranking)
    assert ranking.ranked.all()
    with pytest.raises(error):
        evaluate(state, ds, "test", inputs=ModelInputs(**{**given, **inputs}), ranking=ranking)


@pytest.mark.parametrize("n_users", [512, 76])
def test_scores_written_into_a_buffer_equal_fresh_scores(n_users):
    rep = encode(init_params("mf_bpr", 1100, 300, 64, seed=4))
    users = np.arange(1100)[-n_users:]
    buffer = np.full((512, 300), np.nan)
    scores = full_sort_predict(rep, users, out=buffer)
    assert scores.base is buffer and scores.shape == (n_users, 300)
    assert scores.tobytes() == buffer[:n_users].tobytes() == full_sort_predict(rep, users).tobytes()
    assert np.isnan(buffer[n_users:]).all()


def marked_reports(monkeypatch, ranked):
    """Where each final report's chunks start in ``ranked``, by target; fit's
    in-fit validation goes through mmrec.trainer, so it is not marked."""
    starts = {}
    report_evaluate = mmrec.experiment.evaluate

    def marked(state, dataset, target, *args, **kwargs):
        starts[target] = len(ranked)
        return report_evaluate(state, dataset, target, *args, **kwargs)

    monkeypatch.setattr(mmrec.experiment, "evaluate", marked)
    return starts


def single_run_config(tmp_path, monkeypatch, *lines):
    (tmp_path / "run.cfg").write_text("\n".join(["interactions: unused.tsv", *lines]) + "\n", encoding="utf-8")
    monkeypatch.delenv("MMREC_SEED", raising=False)
    return parse_config(tmp_path / "run.cfg")


def test_run_single_ranks_each_user_once_for_both_reports(tmp_path, monkeypatch):
    ds = partly_validated_dataset(10)
    config = single_run_config(tmp_path, monkeypatch, "max_epochs: 1", "eval_interval: 1")
    ranked = counted_chunks(monkeypatch)
    starts = marked_reports(monkeypatch, ranked)
    _, _, valid_report, test_report = run_single(config, ds, [], str(tmp_path / "shared"))
    fit_chunks = ranked[:starts["valid"]]
    valid_chunks, test_chunks = ranked[starts["valid"]:starts["test"]], ranked[starts["test"]:]
    # fit's last validation ranked the valid users once, for both reports
    assert len(fit_chunks) == 2 and valid_chunks == [] and len(test_chunks) == 1
    assert sorted(np.concatenate(fit_chunks).tolist()) == sorted(users_of(ds.valid))
    assert sorted(np.concatenate(test_chunks).tolist()) == sorted(users_of(ds.test) - users_of(ds.valid))
    assert (valid_report.n_evaluated, test_report.n_evaluated) == (990, 1100)
    fit = mmrec.experiment.fit
    # a run whose fit gets no ranking ranks each report afresh, into the same files
    monkeypatch.setattr(mmrec.experiment, "fit", lambda *args, ranking, **kwargs: fit(*args, **kwargs))
    run_single(config, ds, [], str(tmp_path / "cold"))
    for name in ("valid_report.tsv", "test_report.tsv", "train_log.tsv"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


def test_evaluate_keeps_nothing_once_it_returns():
    ds = partly_validated_dataset(1)
    # a first call on another model, so numpy's own lazy set-up is not counted
    evaluate(init_params("mf_bpr", ds.n_users, ds.n_items, 4, seed=1), ds, "valid")
    state = init_params("mf_bpr", ds.n_users, ds.n_items, 4, seed=2)
    tracemalloc.start()
    try:
        report = evaluate(state, ds, "valid")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert report.n_evaluated == ds.n_users
    # a list table would be n_users * n_items * 8 bytes (264 kB)
    assert held < 8_000


def test_metric_peak_memory_is_below_a_score_chunk_with_hundreds_of_truth_items():
    # 600 users over 1000 items, each with 400 test items: comparing every
    # truth item with its user's list, or holding int64 keys and positions
    # of a chunk's truth entries, breaks this bound
    rng = np.random.default_rng(11)
    n_users, n_items = 600, 1000
    picks = [rng.choice(n_items, 402, replace=False) for _ in range(n_users)]
    train = {(u, int(i)) for u, items in enumerate(picks) for i in items[:2]}
    test = {(u, int(i)) for u, items in enumerate(picks) for i in items[2:]}
    ds = manual_dataset(n_users, n_items, train, test)
    state = init_params("mf_bpr", n_users, n_items, 4, seed=3)
    ranking = Ranking(n_users, 50)
    first = evaluate(state, ds, "test", ranking=ranking)
    assert ranking.ranked.all()
    tracemalloc.start()
    try:
        report = evaluate(state, ds, "test", ranking=ranking)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == first
    assert peak < 512 * n_items * 8
