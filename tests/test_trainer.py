import numpy as np
import pytest

from mmrec.errors import MissingAdjacency, NoNegativeAvailable, NonFiniteGradient
from mmrec.evaluation import Ranking, evaluate
from mmrec.models import ModelInputs, ModelState, init_params
from mmrec.trainer import (
    OptimizerState,
    TrainConfig,
    adam_step,
    fit,
    make_batches,
    sgd_step,
    write_train_log,
)

from conftest import make_interaction_set, synthetic_block_dataset
from data_oracle import pairs


def negatives(train, epochs, seed):
    return np.concatenate([
        b.neg_items for e in range(epochs) for b in make_batches(train, 4096, e, seed)
    ])


class TestSampleNegative:
    """make_batches draws each negative uniformly outside its user's row."""

    def test_single_candidate(self):
        train = make_interaction_set([(0, 0), (0, 2)], 1, 3)
        assert negatives(train, 10, 0).tolist() == [1] * 20

    def test_no_negative_available(self):
        train = make_interaction_set([(0, 0), (0, 1), (0, 2)], 1, 3)
        with pytest.raises(NoNegativeAvailable):
            make_batches(train, 4, 0, 0)

    def test_uniform_over_candidates(self):
        train = make_interaction_set([(u, 0) for u in range(2000)], 2000, 5)
        draws = negatives(train, 5, 1)
        assert len(draws) == 10000
        assert 0 not in draws
        for item in (1, 2, 3, 4):
            freq = np.mean(draws == item)
            assert abs(freq - 0.25) < 0.02


def toy_train(n_users=5, n_items=8, seed=0):
    rng = np.random.default_rng(seed)
    pairs = {(u, int(i)) for u in range(n_users) for i in rng.integers(0, n_items, 4)}
    return make_interaction_set(pairs, n_users, n_items)


class TestMakeBatches:
    def test_chunk_sizes(self):
        train = make_interaction_set([(0, i) for i in range(10)], 1, 12)
        batches = make_batches(train, 4, 0, 7)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_every_pair_once_per_epoch(self):
        train = toy_train()
        batches = make_batches(train, 6, 3, 7)
        seen = [(int(u), int(i)) for b in batches for u, i in zip(b.users, b.pos_items)]
        assert sorted(seen) == sorted(pairs(train))

    def test_deterministic_including_negatives(self):
        train = toy_train()
        a = make_batches(train, 4, 2, 9)
        b = make_batches(train, 4, 2, 9)
        for x, y in zip(a, b):
            assert np.array_equal(x.users, y.users)
            assert np.array_equal(x.pos_items, y.pos_items)
            assert np.array_equal(x.neg_items, y.neg_items)

    def test_epochs_shuffle_differently(self):
        train = make_interaction_set([(u, i) for u in range(10) for i in range(10)], 10, 11)
        a = make_batches(train, 100, 0, 9)[0]
        b = make_batches(train, 100, 1, 9)[0]
        assert not np.array_equal(a.pos_items, b.pos_items)

    def test_negatives_avoid_train_row(self):
        train = toy_train(seed=4)
        for epoch in range(3):
            for batch in make_batches(train, 5, epoch, 11):
                for u, j in zip(batch.users, batch.neg_items):
                    assert int(j) not in set(train.row(int(u)).tolist())


class TestAdam:
    def cfg(self, **kw):
        return TrainConfig(learning_rate=kw.pop("learning_rate", 0.001), **kw)

    def test_first_step_bias_corrected(self):
        state = init_params("mf_bpr", 1, 1, 1, seed=0)
        state.tensors["user_emb"][:] = 1.0
        opt = OptimizerState.zeros(state)
        grads = {"user_emb": np.full((1, 1), 0.5), "item_emb": np.zeros((1, 1))}
        adam_step(state, grads, opt, self.cfg())
        expected_delta = 0.001 * 0.5 / (0.5 + 1e-8)
        assert state.tensors["user_emb"][0, 0] == pytest.approx(1.0 - expected_delta, abs=1e-15)
        assert opt.t == 1

    def test_zero_gradient_no_change(self):
        state = init_params("mf_bpr", 2, 2, 2, seed=1)
        before = {k: v.copy() for k, v in state.tensors.items()}
        opt = OptimizerState.zeros(state)
        grads = {k: np.zeros_like(v) for k, v in state.tensors.items()}
        adam_step(state, grads, opt, self.cfg())
        for name in before:
            assert np.array_equal(state.tensors[name], before[name])

    def test_first_step_magnitude_scale_invariant(self):
        lr = 0.001
        for g in (0.5, 50.0):
            state = init_params("mf_bpr", 1, 1, 1, seed=0)
            state.tensors["user_emb"][:] = 0.0
            opt = OptimizerState.zeros(state)
            adam_step(state, {"user_emb": np.full((1, 1), g)}, opt, self.cfg())
            assert abs(state.tensors["user_emb"][0, 0]) == pytest.approx(lr, rel=1e-6)

    def test_missing_tensor_untouched(self):
        state = init_params("mf_bpr", 2, 2, 2, seed=1)
        before = state.tensors["item_emb"].copy()
        opt = OptimizerState.zeros(state)
        adam_step(state, {"user_emb": np.ones((2, 2))}, opt, self.cfg())
        assert np.array_equal(state.tensors["item_emb"], before)
        assert not np.array_equal(state.tensors["user_emb"], before)

    def test_non_finite_gradient_rejected(self):
        state = init_params("mf_bpr", 1, 1, 1, seed=0)
        opt = OptimizerState.zeros(state)
        with pytest.raises(NonFiniteGradient):
            adam_step(state, {"user_emb": np.array([[np.nan]])}, opt, self.cfg())

    def test_t_increments_once_per_step(self):
        state = init_params("mf_bpr", 1, 1, 1, seed=0)
        opt = OptimizerState.zeros(state)
        g = {"user_emb": np.ones((1, 1))}
        for expected_t in (1, 2, 3):
            adam_step(state, g, opt, self.cfg())
            assert opt.t == expected_t

    def test_sgd_step(self):
        state = init_params("mf_bpr", 1, 1, 1, seed=0)
        state.tensors["user_emb"][:] = 1.0
        sgd_step(state, {"user_emb": np.full((1, 1), 2.0)}, self.cfg(learning_rate=0.1))
        assert state.tensors["user_emb"][0, 0] == pytest.approx(0.8)


@pytest.fixture(scope="module")
def block_data():
    return synthetic_block_dataset(data_seed=22, split_seed=32)


class TestFit:
    def test_zero_epochs_returns_initial(self, block_data):
        dataset, _ = block_data
        cfg = TrainConfig(max_epochs=0, seed=5)
        state, log = fit("mf_bpr", dataset, cfg, d=4)
        fresh = init_params("mf_bpr", dataset.n_users, dataset.n_items, 4, seed=5)
        assert np.array_equal(state.tensors["user_emb"], fresh.tensors["user_emb"])
        assert log.epoch_losses == []
        assert log.stop_reason == "max_epochs"

    def test_patience_stops_at_second_evaluation(self, block_data, monkeypatch):
        dataset, _ = block_data
        # force a never-improving validation metric after the first evaluation
        import mmrec.trainer as trainer_mod

        values = iter([0.9] + [0.1] * 50)
        real_evaluate = trainer_mod.evaluate

        def fake_evaluate(state, ds, target, cutoffs, inputs, **kwargs):
            report = real_evaluate(state, ds, target, cutoffs, inputs)
            forced = next(values)
            for k in report.cutoffs:
                report.values["recall"][k] = forced
            return report

        monkeypatch.setattr(trainer_mod, "evaluate", fake_evaluate)
        cfg = TrainConfig(max_epochs=30, patience=1, eval_interval=1, batch_size=4096, seed=5)
        _, log = fit("mf_bpr", dataset, cfg, d=4)
        assert log.stop_reason == "early_stop"
        assert len(log.evaluations) == 2
        assert log.best_epoch == 1

    def test_last_validation_that_is_not_the_best_leaves_the_ranking_empty(self, block_data, monkeypatch):
        import mmrec.trainer as trainer_mod

        dataset, _ = block_data
        values = iter([0.9, 0.1])
        shared = []
        real_evaluate = trainer_mod.evaluate

        def fake_evaluate(state, ds, target, cutoffs, inputs, ranking=None):
            report = real_evaluate(state, ds, target, cutoffs, inputs, ranking=ranking)
            shared.append(None if ranking is None else int(ranking.ranked.sum()))
            report.values["recall"][cutoffs[0]] = next(values)
            return report

        monkeypatch.setattr(trainer_mod, "evaluate", fake_evaluate)
        # validations at epochs 2 and 4; epoch 5 is not one
        cfg = TrainConfig(max_epochs=5, eval_interval=2, batch_size=4096, seed=5)
        ranking = Ranking(dataset.n_users, 50)
        state, log = fit("mf_bpr", dataset, cfg, d=4, ranking=ranking)
        users_with_valid = int(np.count_nonzero(np.diff(dataset.valid.indptr)))
        # only the last validation ranked into it, then its lists were dropped
        assert shared == [None, users_with_valid]
        assert log.best_epoch == 2 and not ranking.ranked.any()
        for target in ("valid", "test"):
            assert evaluate(state, dataset, target, ranking=ranking) == evaluate(state, dataset, target)

    def test_loss_decreases_on_separable_data(self, block_data):
        dataset, _ = block_data
        cfg = TrainConfig(max_epochs=20, batch_size=1024, learning_rate=0.05, seed=5,
                          eval_interval=100)
        _, log = fit("mf_bpr", dataset, cfg, d=8)
        assert log.epoch_losses[-1] < log.epoch_losses[0]

    def test_best_checkpoint_matches_best_eval(self, block_data, tmp_path):
        dataset, _ = block_data
        cfg = TrainConfig(max_epochs=10, batch_size=2048, learning_rate=0.05,
                          eval_interval=2, seed=6)
        state, log = fit("mf_bpr", dataset, cfg, d=4)
        values = [rep.get("recall", 20) for _, rep in log.evaluations]
        best_epoch, _ = log.evaluations[int(np.argmax(values))]
        assert log.best_epoch == best_epoch

    def test_determinism_byte_identical(self, block_data, tmp_path):
        from mmrec.models import save_checkpoint

        dataset, _ = block_data
        cfg = TrainConfig(max_epochs=5, batch_size=2048, learning_rate=0.05, seed=7)
        for sub in ("a", "b"):
            state, log = fit("mf_bpr", dataset, cfg, d=4)
            save_checkpoint(state, tmp_path / sub / "ckpt")
            write_train_log(log, tmp_path / sub / "log.tsv")
        for rel in ("ckpt/user_emb.mmf8", "ckpt/item_emb.mmf8", "ckpt/meta", "log.tsv"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_graph_model_without_the_graph_is_refused_at_the_first_batch(self, block_data, monkeypatch):
        import mmrec.trainer as trainer_mod

        dataset, fused = block_data
        losses = []
        real_loss = trainer_mod.calculate_loss

        def counted(*args):
            losses.append(1)
            return real_loss(*args)

        monkeypatch.setattr(trainer_mod, "calculate_loss", counted)
        with pytest.raises(MissingAdjacency, match="graph_mm needs the train adjacency"):
            fit("graph_mm", dataset, TrainConfig(max_epochs=1, seed=1), d=4, n_layers=1,
                inputs=ModelInputs(fused))
        assert losses == [1]

    def test_empty_train_split_is_refused(self):
        from mmrec.data import Dataset

        empty = make_interaction_set([], 2, 3)
        ds = Dataset(2, 3, {"u0": 0, "u1": 1}, {f"i{j}": j for j in range(3)}, empty, empty,
                     make_interaction_set([(0, 1)], 2, 3))
        with pytest.raises(ValueError, match="train split is empty"):
            fit("mf_bpr", ds, TrainConfig(max_epochs=1, seed=1), d=2)

    def test_no_validation_runs_to_max_epochs(self):
        # dataset with empty valid split
        from mmrec.data import Dataset

        train = make_interaction_set([(u, i) for u in range(4) for i in range(4)], 4, 5)
        empty = make_interaction_set([], 4, 5)
        test = make_interaction_set([(0, 4)], 4, 5)
        ds = Dataset(4, 5, {f"u{i}": i for i in range(4)}, {f"i{j}": j for j in range(5)},
                     train, empty, test)
        cfg = TrainConfig(max_epochs=3, batch_size=8, seed=1)
        state, log = fit("mf_bpr", ds, cfg, d=2)
        assert len(log.epoch_losses) == 3
        assert log.stop_reason == "max_epochs"
        assert log.best_epoch is None

    def test_without_a_validation_pick_the_final_state_is_not_copied(self, block_data, monkeypatch):
        dataset, _ = block_data
        copies = []
        real_copy = ModelState.copy

        def counted(self):
            copies.append(1)
            return real_copy(self)

        monkeypatch.setattr(ModelState, "copy", counted)
        cfg = TrainConfig(max_epochs=2, eval_interval=5, batch_size=4096, seed=1)
        _, log = fit("mf_bpr", dataset, cfg, d=2)
        assert log.evaluations == [] and copies == []

    def test_negative_lambda_reg_is_refused_before_the_first_batch(self, block_data, monkeypatch):
        import mmrec.trainer as trainer_mod

        dataset, _ = block_data
        batches = []
        monkeypatch.setattr(trainer_mod, "make_batches", lambda *args: batches.append(args) or [])
        with pytest.raises(ValueError, match="lambda_reg"):
            fit("mf_bpr", dataset, TrainConfig(max_epochs=1, seed=1), d=2, lambda_reg=-0.1)
        assert batches == []

    def test_narrower_ranking_is_refused_before_the_first_batch(self, block_data, monkeypatch):
        import mmrec.trainer as trainer_mod

        dataset, _ = block_data
        # the stop cutoff is capped at the catalog: a ranking of every item serves any K
        cfg = TrainConfig(max_epochs=1, batch_size=4096, stop_metric=f"recall@{dataset.n_items + 5}", seed=1)
        ranking = Ranking(dataset.n_users, dataset.n_items)
        fit("mf_bpr", dataset, cfg, d=2, ranking=ranking)
        assert ranking.ranked.any()
        batches = []
        monkeypatch.setattr(trainer_mod, "make_batches", lambda *args: batches.append(args) or [])
        with pytest.raises(ValueError, match="ranking of width 19 is narrower than recall@20"):
            fit("mf_bpr", dataset, TrainConfig(max_epochs=1, seed=1), d=2, ranking=Ranking(dataset.n_users, 19))
        assert batches == []

    def test_train_log_names_the_metric_fit_stopped_on(self, block_data, tmp_path):
        dataset, _ = block_data
        cfg = TrainConfig(max_epochs=2, batch_size=4096, stop_metric="ndcg@10", seed=1)
        _, log = fit("mf_bpr", dataset, cfg, d=2)
        write_train_log(log, tmp_path / "log.tsv")
        rows = [line.split("\t") for line in (tmp_path / "log.tsv").read_text().splitlines() if line[0] == "e"]
        assert log.stop_metric == "ndcg@10" and len(rows) == 2
        assert rows == [["eval", str(epoch), "ndcg@10", f"{report.get('ndcg', 10):.6f}"]
                        for epoch, report in log.evaluations]


def test_write_train_log_format(tmp_path):
    from mmrec.evaluation import MetricReport
    from mmrec.trainer import TrainLog

    log = TrainLog(
        "recall@20",
        epoch_losses=[0.7, 0.6],
        evaluations=[(2, MetricReport((20,), {m: {20: 0.5} for m in ("recall", "precision", "ndcg", "map")}, 3))],
        best_epoch=2,
    )
    path = tmp_path / "log.tsv"
    write_train_log(log, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "1\t0.700000"
    assert lines[1] == "2\t0.600000"
    assert lines[2] == "eval\t2\trecall@20\t0.500000"
