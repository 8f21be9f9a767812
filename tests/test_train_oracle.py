"""The fast training loop against the reference copy in ``train_oracle``.

Random words, negatives, losses, gradients, optimizer steps and whole
``fit`` runs must equal the oracle's exactly: floats are compared by their
bytes, so even a changed summation order or a signed zero fails. Both sides
run on this machine, so nothing here pins BLAS-dependent digests.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import train_oracle as oracle
from mmrec.errors import NoNegativeAvailable
from mmrec.models import ModelInputs, TripleBatch, build_adjacency, calculate_loss, encode, init_params
from mmrec.rng import Stream, stream
from mmrec import trainer
from mmrec.trainer import OptimizerState, TrainConfig, adam_step, fit, make_batches, sgd_step

from conftest import make_interaction_set, synthetic_block_dataset

SETTINGS = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def same(a, b) -> bool:
    """Equal type, shape, dtype and bytes for arrays; ``==`` otherwise."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
        )
    return type(a) is type(b) and a == b


@contextmanager
def randbelow_counts():
    """Count ``randbelow`` calls on the library's and the oracle's streams."""
    counts = {"fast": 0, "oracle": 0}

    def counting(cls, key):
        original = cls.randbelow

        def wrapper(self, n):
            counts[key] += 1
            return original(self, n)
        return mock.patch.object(cls, "randbelow", wrapper)

    with counting(Stream, "fast"), counting(oracle.Stream, "oracle"):
        yield counts


# ------------------------------------------------------------------ streams

SHAPES = st.one_of(
    st.just(()), st.integers(0, 25), st.tuples(st.integers(0, 4), st.integers(0, 5))
)
BOUNDS = st.one_of(
    st.sampled_from([1, 2, 3, 7, 8, 9, 1000, 2**32, 2**32 + 1, 2**63, 2**64 - 1, 2**64]),
    st.integers(1, 2**64),
)
OPS = st.one_of(
    st.tuples(st.just("raw"), st.integers(0, 40)),
    st.tuples(st.just("uniform"), SHAPES),
    st.tuples(st.just("normal"), SHAPES),
    st.tuples(st.just("permutation"), st.integers(0, 30)),
    # enough draws in a row to run through several buffer refills
    st.tuples(st.just("randbelow"), BOUNDS, st.integers(1, 2500)),
)


def apply(rng, op):
    name, *args = op
    if name == "randbelow":
        n, times = args
        return [rng.randbelow(n) for _ in range(times)]
    return getattr(rng, name)(*args)


@SETTINGS
@given(seed=st.integers(0, 2**64 - 1), ops=st.lists(OPS, max_size=12))
def test_stream_interleavings_equal_the_oracle(seed, ops):
    fast, ref = stream(seed, "epoch", 3), oracle.stream(seed, "epoch", 3)
    for op in ops:
        got, want = apply(fast, op), apply(ref, op)
        assert same(got, want), op
    # and both streams end at the same word
    assert same(fast.raw(3), ref.raw(3))


def test_randbelow_rejects_a_non_positive_bound():
    rng = stream(1, "x")
    for n in (0, -3):
        with pytest.raises(ValueError):
            rng.randbelow(n)


# ---------------------------------------------------------------- sampling

@st.composite
def train_sets(draw, full_rows: bool = False):
    """Small train sets with every row kind the sampler meets: empty rows,
    random rows, rows with one free item and, on request, full rows."""
    n_items = draw(st.one_of(st.sampled_from([1, 2, 16]), st.integers(1, 40)))
    n_users = draw(st.integers(1, 10))
    kinds = ["empty", "random", "one_free"] + (["full"] if full_rows else [])
    pairs = []
    for u in range(n_users):
        kind = draw(st.sampled_from(kinds))
        if kind == "random":
            row = draw(st.sets(st.integers(0, n_items - 1), max_size=n_items - 1))
        elif kind == "one_free":
            free = draw(st.integers(0, n_items - 1))
            row = set(range(n_items)) - {free}
        elif kind == "full":
            row = set(range(n_items))
        else:
            row = set()
        pairs += [(u, i) for i in sorted(row)]
    return make_interaction_set(pairs, n_users, n_items)


def batches_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        same(x.users, y.users) and same(x.pos_items, y.pos_items) and same(x.neg_items, y.neg_items)
        for x, y in zip(a, b)
    )


@SETTINGS
@given(
    train=train_sets(),
    batch_size=st.integers(1, 50),
    epoch=st.integers(0, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_make_batches_equals_the_oracle(train, batch_size, epoch, seed):
    with randbelow_counts() as counts:
        got = make_batches(train, batch_size, epoch, seed)
        want = oracle.make_batches(train, batch_size, epoch, seed)
    assert batches_equal(got, want)
    # one draw per membership attempt, as the benchmark counts them
    assert counts["fast"] == counts["oracle"]
    rows = {u: set(train.row(u).tolist()) for u in range(train.n_rows)}
    for batch in got:
        assert not any(int(j) in rows[int(u)] for u, j in zip(batch.users, batch.neg_items))


@SETTINGS
@given(train=train_sets(full_rows=True), epoch=st.integers(0, 5), seed=st.integers(0, 2**32))
def test_no_negative_available_names_the_oracle_user(train, epoch, seed):
    try:
        want = oracle.make_batches(train, 7, epoch, seed)
    except NoNegativeAvailable as exc:
        with pytest.raises(NoNegativeAvailable) as got:
            make_batches(train, 7, epoch, seed)
        assert str(got.value) == str(exc)
    else:
        assert batches_equal(make_batches(train, 7, epoch, seed), want)


def test_sampler_on_a_power_of_two_catalogue_with_dense_rows():
    # 1024 items, rows holding about 80% of them: several rejections per positive
    rng = np.random.default_rng(4)
    pairs = [(u, i) for u in range(12) for i in range(1024) if rng.random() < 0.8]
    train = make_interaction_set(pairs, 12, 1024)
    with randbelow_counts() as counts:
        got = make_batches(train, 500, 1, 77)
        want = oracle.make_batches(train, 500, 1, 77)
    assert batches_equal(got, want)
    assert counts["fast"] == counts["oracle"] > 2 * train.nnz


# ------------------------------------------------------------- model maths

@pytest.fixture(scope="module")
def block_data():
    return synthetic_block_dataset(n_users=120, n_items=60, per_user=15)


def test_adjacency_equals_the_oracle(block_data):
    dataset, _ = block_data
    got, want = build_adjacency(dataset.train), oracle.build_adjacency(dataset.train)
    for attr in ("indptr", "indices", "data"):
        assert same(getattr(got, attr), getattr(want, attr))


def states_equal(got, want, fields=("lambda_reg", "d_p", "n_layers", "seed")) -> bool:
    fields = ("kind", "n_users", "n_items", "d") + fields
    return (
        all(same(getattr(got, f), getattr(want, f)) for f in fields)
        and list(got.tensors) == list(want.tensors)
        and all(same(got.tensors[k], want.tensors[k]) for k in want.tensors)
    )


@pytest.mark.parametrize("kind", ["mf_bpr", "vbpr_mm", "graph_mm"])
@pytest.mark.parametrize("n_layers", [0, 2])
def test_init_and_encode_equal_the_oracle(block_data, kind, n_layers):
    dataset, fused = block_data
    args = (kind, dataset.n_users, dataset.n_items, 8, 5)
    kwargs = dict(d_p=3, d_fused=fused.shape[1], n_layers=n_layers, lambda_reg=0.25)
    state, want = init_params(*args, **kwargs), oracle.init_params(*args, **kwargs)
    assert states_equal(state, want)
    # encode trained-looking parameters, not only the initial draw
    rng = np.random.default_rng(n_layers)
    for tensor in state.tensors.values():
        tensor += rng.normal(size=tensor.shape)
    adjacency = build_adjacency(dataset.train)
    fused = None if kind == "mf_bpr" else fused
    # an encoding is its representations; the oracle returns an mf_bpr state itself
    got, want = encode(state, ModelInputs(fused, adjacency)), oracle.encode(state, fused, adjacency)
    assert states_equal(got, want, fields=())


@pytest.mark.parametrize("kind", ["mf_bpr", "vbpr_mm", "graph_mm"])
@pytest.mark.parametrize("reg", [0.0, 0.1])
def test_loss_and_gradients_equal_the_oracle(block_data, kind, reg):
    dataset, fused = block_data
    state = init_params(kind, dataset.n_users, dataset.n_items, 8, 5, d_p=3,
                        d_fused=fused.shape[1], n_layers=2, lambda_reg=reg)
    adjacency = build_adjacency(dataset.train) if kind == "graph_mm" else None
    rng = np.random.default_rng(1)
    # repeated users and items, so every row sums several contributions
    batch = TripleBatch(rng.integers(0, 6, 400), rng.integers(0, 9, 400), rng.integers(0, 9, 400))
    loss, grads = calculate_loss(state, batch, ModelInputs(fused, adjacency))
    want_loss, want_grads = oracle.calculate_loss(state, batch, fused, adjacency)
    assert same(loss, want_loss)
    assert list(grads) == list(want_grads)
    for name in want_grads:
        assert same(grads[name], want_grads[name]), name


@pytest.mark.parametrize("block", [None, 8, 1])
def test_adam_and_sgd_steps_equal_the_oracle(monkeypatch, block):
    if block is not None:
        # several row blocks per tensor, and rows wider than a block
        monkeypatch.setattr(trainer, "_ADAM_BLOCK", block)
    rng = np.random.default_rng(2)
    cfg = TrainConfig(learning_rate=0.01)
    fast = init_params("vbpr_mm", 7, 5, 4, 3, d_p=2, d_fused=3)
    ref = fast.copy()
    opt, ref_opt = OptimizerState.zeros(fast), oracle.OptimizerState.zeros(ref)
    for step in range(6):
        # one tensor sits a step out now and then
        grads = {k: rng.normal(size=t.shape) for k, t in fast.tensors.items() if k != "proj" or step % 3}
        adam_step(fast, grads, opt, cfg)
        oracle.adam_step(ref, grads, ref_opt, cfg)
        for name in ref.tensors:
            assert same(fast.tensors[name], ref.tensors[name])
            assert same(opt.m[name], ref_opt.m[name]) and same(opt.v[name], ref_opt.v[name])
        assert opt.t == ref_opt.t
        sgd_step(fast, grads, cfg)
        oracle.sgd_step(ref, grads, cfg)


# -------------------------------------------------------------------- fit

@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("reg", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["mf_bpr", "vbpr_mm", "graph_mm"])
def test_fit_equals_the_oracle(block_data, kind, reg, optimizer):
    dataset, fused = block_data
    cfg = TrainConfig(learning_rate=0.05, batch_size=256, max_epochs=5, patience=2,
                      stop_metric="ndcg@10", optimizer=optimizer, seed=9)
    fused = None if kind == "mf_bpr" else fused
    adjacency = build_adjacency(dataset.train) if kind == "graph_mm" else None
    kwargs = dict(d=8, d_p=3, n_layers=2, lambda_reg=reg)
    state, log = fit(kind, dataset, cfg, inputs=ModelInputs(fused, adjacency), **kwargs)
    want_state, want_log = oracle.fit(kind, dataset, cfg, fused=fused, **kwargs)
    assert list(state.tensors) == list(want_state.tensors)
    for name in want_state.tensors:
        assert same(state.tensors[name], want_state.tensors[name]), name
    assert len(log.epoch_losses) == len(want_log.epoch_losses)
    assert all(same(a, b) for a, b in zip(log.epoch_losses, want_log.epoch_losses))
    assert [(e, r.values, r.n_evaluated) for e, r in log.evaluations] == [
        (e, r.values, r.n_evaluated) for e, r in want_log.evaluations
    ]
    assert (log.best_epoch, log.stop_reason) == (want_log.best_epoch, want_log.stop_reason)
