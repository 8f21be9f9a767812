import math

import numpy as np
import pytest
import scipy.sparse as sp

from mmrec.errors import (
    DimensionMismatch,
    EmptyBatch,
    IndexOutOfRange,
    MalformedCheckpoint,
    MissingAdjacency,
    MissingFeatures,
)
from mmrec.evaluation import top_k
from mmrec.modality import write_matrix
from mmrec.models import (
    ModelInputs,
    ModelState,
    TripleBatch,
    _scatter_rows,
    build_adjacency,
    calculate_loss,
    encode,
    full_sort_predict,
    init_params,
    load_checkpoint,
    propagate_mean,
    save_checkpoint,
)

from conftest import all_scores, make_interaction_set


def random_instance(rng, kind, n_u=6, n_i=6, d=4, d_p=3, d_f=5, n_layers=None, lam=0.0, seed=0):
    """Random dataset + state + valid triples for gradient and score tests."""
    pairs = {(u, int(i)) for u in range(n_u) for i in rng.integers(0, n_i, size=3)}
    train = make_interaction_set(pairs, n_u, n_i)
    fused = rng.normal(size=(n_i, d_f))
    adjacency = build_adjacency(train) if kind == "graph_mm" else None
    state = init_params(
        kind, n_u, n_i, d, seed=seed, d_p=d_p, d_fused=d_f, n_layers=n_layers, lambda_reg=lam
    )
    triples = []
    for _ in range(10):
        u = int(rng.integers(n_u))
        row = set(train.row(u).tolist())
        pos = int(rng.choice(sorted(row)))
        neg = int(rng.integers(n_i))
        while neg in row:
            neg = int(rng.integers(n_i))
        triples.append((u, pos, neg))
    arr = np.array(triples)
    batch = TripleBatch(arr[:, 0], arr[:, 1], arr[:, 2])
    return train, ModelInputs(fused if kind != "mf_bpr" else None, adjacency), state, batch


def finite_difference_grads(state, batch, inputs, h=1e-5):
    fd = {}
    for name, tensor in state.tensors.items():
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            up, _ = calculate_loss(state, batch, inputs)
            tensor[idx] = orig - h
            down, _ = calculate_loss(state, batch, inputs)
            tensor[idx] = orig
            grad[idx] = (up - down) / (2 * h)
        fd[name] = grad
    return fd


def max_relative_error(analytic, numeric):
    worst = 0.0
    for name in analytic:
        denom = np.maximum(1e-6, np.abs(analytic[name]) + np.abs(numeric[name]))
        worst = max(worst, float(np.max(np.abs(analytic[name] - numeric[name]) / denom)))
    return worst


class TestInit:
    def test_deterministic(self):
        a = init_params("mf_bpr", 3, 5, 4, seed=7)
        b = init_params("mf_bpr", 3, 5, 4, seed=7)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_seed_changes_values(self):
        a = init_params("mf_bpr", 3, 5, 4, seed=7)
        b = init_params("mf_bpr", 3, 5, 4, seed=8)
        assert not np.array_equal(a.tensors["user_emb"], b.tensors["user_emb"])

    def test_shapes(self):
        state = init_params("vbpr_mm", 3, 5, 4, seed=1, d_p=2, d_fused=6)
        assert state.tensors["user_emb"].shape == (3, 4)
        assert state.tensors["item_emb"].shape == (5, 4)
        assert state.tensors["user_mod_emb"].shape == (3, 2)
        assert state.tensors["proj"].shape == (6, 2)

    def test_xavier_bound(self):
        state = init_params("graph_mm", 3, 5, 4, seed=1, d_fused=6, n_layers=1)
        bound = math.sqrt(6.0 / (6 + 4))
        proj = state.tensors["mod_proj"]
        assert np.all(np.abs(proj) <= bound)
        assert proj.std() > 0.1 * bound

    def test_bad_args(self):
        with pytest.raises(ValueError):
            init_params("mf_bpr", 3, 5, 0, seed=1)
        with pytest.raises(ValueError):
            init_params("vbpr_mm", 3, 5, 4, seed=1)  # no d_p / d_fused
        with pytest.raises(ValueError):
            init_params("nope", 3, 5, 4, seed=1)
        for n_users, n_items in ((0, 5), (3, 0)):
            with pytest.raises(ValueError, match="^entity counts must be positive$"):
                init_params("mf_bpr", n_users, n_items, 4, seed=1)
        # every kind bounds each hyperparameter given, whether it reads it or not
        for kind, name, value in [
            ("mf_bpr", "lambda_reg", -1.0), ("mf_bpr", "lambda_reg", math.nan), ("mf_bpr", "lambda_reg", math.inf),
            ("graph_mm", "lambda_reg", -0.5), ("mf_bpr", "d_p", 0), ("mf_bpr", "n_layers", -1),
            ("graph_mm", "d_p", -7), ("vbpr_mm", "n_layers", -1),
            # d, d_p and n_layers are integers, whatever the kind reads
            ("mf_bpr", "d", 2.5), ("vbpr_mm", "d_p", 1.5), ("mf_bpr", "d_p", 2.0), ("graph_mm", "n_layers", 1.5),
        ]:
            with pytest.raises(ValueError, match=name):
                init_params(kind, 3, 5, **{"d": 4, "seed": 1, "d_p": 2, "d_fused": 6, "n_layers": 1, name: value})
        # numpy integers are integers
        state = init_params("vbpr_mm", 3, 5, np.int64(4), seed=1, d_p=np.int32(2), d_fused=6)
        assert state.tensors["proj"].shape == (6, 2)


class TestScoreAll:
    """Every user's scores at once, through full_sort_predict."""

    def test_mf_dot_product(self):
        state = init_params("mf_bpr", 1, 2, 2, seed=0)
        state.tensors["user_emb"][0] = [1.0, 0.0]
        state.tensors["item_emb"][:] = [[1.0, 0.0], [0.0, 1.0]]
        assert all_scores(state).tolist() == [[1.0, 0.0]]

    def test_vbpr_zero_proj_reduces_to_mf(self):
        rng = np.random.default_rng(0)
        _, inputs, state, _ = random_instance(rng, "vbpr_mm")
        state.tensors["proj"][:] = 0.0
        mf = ModelState(
            "mf_bpr", state.n_users, state.n_items, state.d,
            {"user_emb": state.tensors["user_emb"], "item_emb": state.tensors["item_emb"]},
        )
        assert np.max(np.abs(all_scores(state, inputs) - all_scores(mf))) < 1e-12

    def test_graph_zero_layers_zero_proj_reduces_to_mf(self):
        rng = np.random.default_rng(1)
        _, inputs, state, _ = random_instance(rng, "graph_mm", n_layers=0)
        state.tensors["mod_proj"][:] = 0.0
        mf = ModelState(
            "mf_bpr", state.n_users, state.n_items, state.d,
            {"user_emb": state.tensors["user_emb"], "item_emb": state.tensors["item_emb"]},
        )
        assert np.max(np.abs(all_scores(state, inputs) - all_scores(mf))) < 1e-12

    def test_vbpr_scores_are_the_sum_of_block_products(self):
        # a non-zero projection: <U_u, V_i> + <M_u, f_i P>, one block at a time
        rng = np.random.default_rng(5)
        _, inputs, state, _ = random_instance(rng, "vbpr_mm", n_u=5, n_i=7, d=3, d_p=2, d_f=4)
        fused, t = inputs.fused, state.tensors
        assert np.any(t["proj"] != 0.0)
        rep = encode(state, inputs)
        assert np.array_equal(rep.tensors["user_emb"], np.hstack([t["user_emb"], t["user_mod_emb"]]))
        assert np.array_equal(rep.tensors["item_emb"], np.hstack([t["item_emb"], fused @ t["proj"]]))
        hand = np.array([
            [
                sum(t["user_emb"][u, k] * t["item_emb"][i, k] for k in range(3))
                + sum(
                    t["user_mod_emb"][u, k] * sum(fused[i, f] * t["proj"][f, k] for f in range(4))
                    for k in range(2)
                )
                for i in range(state.n_items)
            ]
            for u in range(state.n_users)
        ])
        for scores in (all_scores(state, inputs), all_scores(rep)):
            assert np.allclose(scores, hand, rtol=1e-12, atol=1e-12)

    def test_missing_features(self):
        state = init_params("vbpr_mm", 2, 2, 2, seed=0, d_p=2, d_fused=2)
        with pytest.raises(MissingFeatures):
            all_scores(state)

    @pytest.mark.parametrize("kind", ["vbpr_mm", "graph_mm"])
    def test_fused_width_must_fit_state(self, kind):
        # a 2-wide projection given 3-wide features: refused before any product
        state = init_params(kind, 2, 2, 2, seed=0, d_p=2, d_fused=2, n_layers=1)
        adj = build_adjacency(make_interaction_set({(0, 0), (1, 1)}, 2, 2))
        batch = TripleBatch(np.array([0]), np.array([0]), np.array([1]))
        for call in (
            lambda: encode(state, ModelInputs(np.zeros((2, 3)), adj)),
            lambda: calculate_loss(state, batch, ModelInputs(np.zeros((2, 3)), adj)),
        ):
            with pytest.raises(DimensionMismatch, match=r"shape \(2, 3\), .* expects 2 columns"):
                call()

    @pytest.mark.parametrize("kind", ["vbpr_mm", "graph_mm"])
    def test_fused_rows_must_cover_the_items(self, kind):
        state = init_params(kind, 2, 2, 2, seed=0, d_p=2, d_fused=2, n_layers=1)
        adj = build_adjacency(make_interaction_set({(0, 0), (1, 1)}, 2, 2))
        with pytest.raises(MissingFeatures, match="fused features cover 3 items, dataset has 2"):
            encode(state, ModelInputs(np.zeros((3, 2)), adj))

    def test_missing_adjacency(self):
        state = init_params("graph_mm", 2, 2, 2, seed=0, d_fused=2, n_layers=1)
        with pytest.raises(MissingAdjacency):
            all_scores(state, ModelInputs(np.zeros((2, 2))))

    def test_scale_free_ranking(self):
        rng = np.random.default_rng(2)
        _, _, state, _ = random_instance(rng, "mf_bpr", n_u=8, n_i=30)
        scores = all_scores(state)
        for c in (0.5, 2.0, 4.0):
            assert np.array_equal(top_k(scores, 30), top_k(c * scores, 30))


class TestAdjacency:
    def test_symmetric_and_normalized(self):
        train = make_interaction_set([(0, 0), (0, 1), (1, 0)], 2, 2)
        a = build_adjacency(train).toarray()
        assert np.allclose(a, a.T)
        # user 0 has degree 2, item 0 degree 2, item 1 degree 1, user 1 degree 1
        assert a[0, 2] == pytest.approx(1 / math.sqrt(2 * 2))
        assert a[0, 3] == pytest.approx(1 / math.sqrt(2 * 1))
        assert a[1, 2] == pytest.approx(1 / math.sqrt(1 * 2))

    def test_isolated_node_row_is_zero(self):
        train = make_interaction_set([(0, 0)], 2, 2)
        a = build_adjacency(train).toarray()
        assert np.all(a[1] == 0) and np.all(a[:, 1] == 0)
        assert np.all(a[3] == 0) and np.all(a[:, 3] == 0)

    def test_propagation_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            n_u, n_i = int(rng.integers(3, 10)), int(rng.integers(3, 10))
            pairs = {(u, int(i)) for u in range(n_u) for i in rng.integers(0, n_i, 2)}
            train = make_interaction_set(pairs, n_u, n_i)
            adj = build_adjacency(train)
            dense = adj.toarray()
            e0 = rng.normal(size=(n_u + n_i, 4))
            for layers in (0, 1, 2, 3):
                expected = sum(np.linalg.matrix_power(dense, l) @ e0 for l in range(layers + 1))
                expected /= layers + 1
                assert np.max(np.abs(propagate_mean(adj, e0, layers) - expected)) < 1e-10


class TestLoss:
    def test_equal_scores_give_ln2(self):
        state = init_params("mf_bpr", 2, 3, 2, seed=0)
        state.tensors["item_emb"][:] = 1.0  # all items identical => x_ui == x_uj
        batch = TripleBatch(np.array([0]), np.array([1]), np.array([2]))
        loss, _ = calculate_loss(state, batch)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_unit_gap_softplus(self):
        state = init_params("mf_bpr", 1, 2, 1, seed=0)
        state.tensors["user_emb"][0] = [1.0]
        state.tensors["item_emb"][:] = [[1.0], [0.0]]
        batch = TripleBatch(np.array([0]), np.array([0]), np.array([1]))
        loss, _ = calculate_loss(state, batch)
        assert loss == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-12)

    def test_zero_lambda_reg_reads_no_regularizer_row(self):
        # a touched row whose squared norm overflows: 0.0 * inf would be NaN
        state = init_params("mf_bpr", 1, 3, 2, seed=0)
        state.tensors["user_emb"][0] = 1e200
        state.tensors["item_emb"][:] = [[0.5, 0.25], [0.5, 0.25], [1.0, 1.0]]
        batch = TripleBatch(np.array([0]), np.array([0]), np.array([1]))
        loss, grads = calculate_loss(state, batch)
        assert loss == math.log(2.0)
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_empty_batch(self):
        state = init_params("mf_bpr", 2, 2, 2, seed=0)
        batch = TripleBatch(np.array([], int), np.array([], int), np.array([], int))
        with pytest.raises(EmptyBatch):
            calculate_loss(state, batch)

    def test_loss_positive_and_decreasing_in_gap(self):
        losses = []
        for gap in np.linspace(-3, 6, 10):
            state = init_params("mf_bpr", 1, 2, 1, seed=0)
            state.tensors["user_emb"][0] = [1.0]
            state.tensors["item_emb"][:] = [[gap], [0.0]]
            batch = TripleBatch(np.array([0]), np.array([0]), np.array([1]))
            loss, _ = calculate_loss(state, batch)
            losses.append(loss)
        assert all(l > 0 for l in losses)
        assert all(a > b for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize(
        "kind,n_layers,lam",
        [
            ("mf_bpr", None, 0.0),
            ("mf_bpr", None, 0.5),
            ("vbpr_mm", None, 0.0),
            ("vbpr_mm", None, 0.3),
            ("graph_mm", 0, 0.0),
            ("graph_mm", 1, 0.2),
            ("graph_mm", 2, 0.0),
        ],
    )
    def test_gradients_match_finite_differences(self, kind, n_layers, lam):
        rng = np.random.default_rng(hash((kind, n_layers, lam)) % 2**32)
        _, inputs, state, batch = random_instance(rng, kind, n_layers=n_layers, lam=lam)
        _, grads = calculate_loss(state, batch, inputs)
        numeric = finite_difference_grads(state, batch, inputs)
        assert max_relative_error(grads, numeric) < 1e-4


    def test_a_base_alone_scatters_to_the_csr_product_bit_for_bit(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(40, 8))
        base[::3] = 0.0
        base[1::3, ::2] = -0.0
        n = len(base)
        pick = sp.csr_matrix((np.ones(n), (np.arange(n), np.arange(n))), shape=(n, n))
        summed = _scatter_rows(n, [], base)
        assert summed is not base and summed.tobytes() == (pick @ base).tobytes()
        assert not np.signbit(summed[base == 0.0]).any()  # -0.0 + 0.0 is +0.0


class TestFullSortPredict:
    def test_matches_encoded_state(self):
        rng = np.random.default_rng(4)
        _, inputs, state, _ = random_instance(rng, "graph_mm", n_layers=2)
        assert np.array_equal(
            full_sort_predict(state, np.arange(state.n_users), inputs),
            full_sort_predict(encode(state, inputs), np.arange(state.n_users)),
        )

    def test_repeated_user_rows_identical(self):
        state = init_params("mf_bpr", 4, 5, 3, seed=2)
        out = full_sort_predict(state, [1, 1])
        assert np.array_equal(out[0], out[1])

    def test_empty_user_list(self):
        state = init_params("mf_bpr", 4, 5, 3, seed=2)
        assert full_sort_predict(state, []).shape == (0, 5)

    def test_index_out_of_range(self):
        state = init_params("mf_bpr", 4, 5, 3, seed=2)
        with pytest.raises(IndexOutOfRange):
            full_sort_predict(state, [4])
        with pytest.raises(IndexOutOfRange):
            full_sort_predict(state, [-1])


class TestCheckpoint:
    @pytest.mark.parametrize("kind,n_layers", [("mf_bpr", None), ("vbpr_mm", None), ("graph_mm", 2)])
    def test_round_trip_exact(self, tmp_path, kind, n_layers):
        state = init_params(
            kind, 4, 6, 3, seed=5, d_p=2, d_fused=4, n_layers=n_layers, lambda_reg=0.125
        )
        save_checkpoint(state, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.kind == kind
        assert loaded.d == state.d and loaded.d_p == state.d_p
        assert loaded.n_layers == state.n_layers
        assert loaded.lambda_reg == state.lambda_reg
        assert set(loaded.tensors) == set(state.tensors)
        for name in state.tensors:
            assert np.array_equal(loaded.tensors[name], state.tensors[name])

    @pytest.mark.parametrize("kind, d_p, n_layers", [("mf_bpr", "", ""), ("vbpr_mm", "2", ""), ("graph_mm", "", "1")])
    def test_meta_keeps_only_the_fields_the_kind_reads(self, tmp_path, kind, d_p, n_layers):
        save_checkpoint(init_params(kind, 4, 6, 3, seed=5, d_p=2, d_fused=4, n_layers=1), tmp_path)
        lines = (tmp_path / "meta").read_text().splitlines()
        assert f"d_p: {d_p}" in lines and f"n_layers: {n_layers}" in lines

    def test_load_drops_the_meta_the_kind_does_not_read(self, tmp_path):
        # as in a meta written before init_params dropped them
        save_checkpoint(init_params("mf_bpr", 3, 4, 2, seed=9), tmp_path / "old")
        meta = tmp_path / "old" / "meta"
        meta.write_text(meta.read_text().replace("d_p: \n", "d_p: 64\n").replace("n_layers: \n", "n_layers: 2\n"))
        loaded = load_checkpoint(tmp_path / "old")
        assert loaded.d_p is None and loaded.n_layers is None
        save_checkpoint(loaded, tmp_path / "new")
        lines = (tmp_path / "new" / "meta").read_text().splitlines()
        assert "d_p: " in lines and "n_layers: " in lines
        for name in ("user_emb.mmf8", "item_emb.mmf8"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()

    def test_serialized_bytes_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            save_checkpoint(init_params("mf_bpr", 3, 3, 2, seed=9), tmp_path / sub)
        for name in ("meta", "user_emb.mmf8", "item_emb.mmf8"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("key", ["kind", "n_users", "d_p", "seed", "tensors"])
    def test_meta_missing_key_is_typed(self, tmp_path, key):
        save_checkpoint(init_params("mf_bpr", 3, 4, 2, seed=9), tmp_path)
        meta = tmp_path / "meta"
        kept = [line for line in meta.read_text().splitlines() if not line.startswith(f"{key}:")]
        meta.write_text("\n".join(kept) + "\n")
        with pytest.raises(MalformedCheckpoint, match=key):
            load_checkpoint(tmp_path)

    def test_undecodable_meta_is_typed(self, tmp_path):
        save_checkpoint(init_params("mf_bpr", 3, 4, 2, seed=9), tmp_path)
        meta = tmp_path / "meta"
        meta.write_bytes(meta.read_bytes().replace(b"seed: 9", b"seed: 9\xff"))
        with pytest.raises(MalformedCheckpoint, match=r"meta: line 8: not UTF-8: byte 0xff"):
            load_checkpoint(tmp_path)

    def test_meta_bad_value_is_typed(self, tmp_path):
        save_checkpoint(init_params("mf_bpr", 3, 4, 2, seed=9), tmp_path)
        meta = tmp_path / "meta"
        meta.write_text(meta.read_text().replace("n_items: 4", "n_items: four"))
        with pytest.raises(MalformedCheckpoint):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("name,shape", [
        ("user_emb", (2, 2)), ("item_emb", (4, 3)), ("user_mod_emb", (3, 1)), ("proj", (5, 1)),
    ])
    def test_tensor_shape_disagreeing_with_meta_is_typed(self, tmp_path, name, shape):
        save_checkpoint(init_params("vbpr_mm", 3, 4, 2, seed=9, d_p=2, d_fused=5), tmp_path)
        write_matrix(tmp_path / f"{name}.mmf8", np.zeros(shape), magic=b"MMF8")
        with pytest.raises(MalformedCheckpoint, match=name):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_typed(self, tmp_path, bad):
        save_checkpoint(init_params("vbpr_mm", 3, 4, 2, seed=9, d_p=2, d_fused=5), tmp_path)
        proj = np.zeros((5, 2))
        proj[3, 1] = bad
        write_matrix(tmp_path / "proj.mmf8", proj, magic=b"MMF8")
        with pytest.raises(MalformedCheckpoint, match="proj holds NaN or Inf values"):
            load_checkpoint(tmp_path)

    def test_tensor_list_must_fit_the_kind(self, tmp_path):
        save_checkpoint(init_params("mf_bpr", 3, 4, 2, seed=9), tmp_path)
        meta = tmp_path / "meta"
        meta.write_text(meta.read_text().replace("kind: mf_bpr", "kind: graph_mm"))
        with pytest.raises(MalformedCheckpoint):
            load_checkpoint(tmp_path)

    def test_graph_checkpoint_needs_n_layers(self, tmp_path):
        save_checkpoint(init_params("graph_mm", 3, 4, 2, seed=9, d_fused=5, n_layers=2), tmp_path)
        meta = tmp_path / "meta"
        meta.write_text(meta.read_text().replace("n_layers: 2", "n_layers: "))
        with pytest.raises(MalformedCheckpoint, match="n_layers"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("kind,edits,tensor,match", [
        # an empty d_p must not skip the width check of user_mod_emb and proj
        pytest.param("vbpr_mm", {"d_p: 2": "d_p: "}, ("proj", (5, 3)), "d_p", id="vbpr-empty-d_p"),
        pytest.param("vbpr_mm", {"d_p: 2": "d_p: 0"}, None, "d_p", id="vbpr-zero-d_p"),
        # a negative layer count would divide the propagation by zero
        pytest.param("graph_mm", {"n_layers: 2": "n_layers: -1"}, None, "n_layers",
                     id="graph-negative-n_layers"),
        pytest.param("mf_bpr", {"d: 2": "d: 0"}, None, "positive", id="mf-zero-d"),
        # bounds hold whatever the kind reads, lambda_reg's included
        pytest.param("mf_bpr", {"d_p: \n": "d_p: 0\n"}, None, "d_p", id="mf-zero-d_p"),
        pytest.param("mf_bpr", {"n_layers: \n": "n_layers: -1\n"}, None, "n_layers", id="mf-negative-n_layers"),
        pytest.param("mf_bpr", {"lambda_reg: 0.0": "lambda_reg: -1"}, None, "lambda_reg", id="mf-negative-lambda"),
        pytest.param("vbpr_mm", {"lambda_reg: 0.0": "lambda_reg: -2"}, None, "lambda_reg", id="vbpr-negative-lambda"),
        pytest.param("mf_bpr", {"lambda_reg: 0.0": "lambda_reg: nan"}, None, "lambda_reg", id="mf-nan-lambda"),
        pytest.param("graph_mm", {"lambda_reg: 0.0": "lambda_reg: inf"}, None, "lambda_reg", id="graph-inf-lambda"),
    ])
    def test_meta_that_init_params_refuses_is_typed(self, tmp_path, kind, edits, tensor, match):
        save_checkpoint(init_params(kind, 3, 4, 2, seed=9, d_p=2, d_fused=5, n_layers=2), tmp_path)
        meta = tmp_path / "meta"
        text = meta.read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        meta.write_text(text)
        if tensor is not None:
            name, shape = tensor
            write_matrix(tmp_path / f"{name}.mmf8", np.zeros(shape), magic=b"MMF8")
        with pytest.raises(MalformedCheckpoint, match=match):
            load_checkpoint(tmp_path)
