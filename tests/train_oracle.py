"""Reference copy of the training loop as it was before it was made fast.

The unbuffered ``Stream`` (one ``random_raw`` call per bounded draw), the
``searchsorted`` rejection sampler, the ``np.add.at`` gradient scatter, the
allocating Adam step and the ``fit`` loop that ties them together are kept
here as an oracle, in the way ``data_oracle`` backs the columnar data
pipeline. The fast versions in ``mmrec.rng``, ``mmrec.trainer`` and
``mmrec.models`` must give exactly the same words, negatives, gradients,
parameters, losses and reports; the tests compare them with exact equality.
Model initialisation, input checks, propagation and ``encode`` are copied
here as well, so that a change to the library's model code cannot move both
sides of a comparison at once; initialisation draws through this module's
``stream``. Only the ranking and metrics after ``encode`` come from the
library's ``evaluate``, which the tests check against ``tests/eval_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from mmrec.errors import (
    DimensionMismatch,
    EmptyBatch,
    MissingAdjacency,
    MissingFeatures,
    NoNegativeAvailable,
    NonFiniteGradient,
)
from mmrec.evaluation import evaluate, parse_metric_spec
from mmrec.models import ModelState, TripleBatch
from mmrec.rng import _key_part, check_seed
from mmrec.trainer import TrainLog

_INV_2_53 = float(2.0**-53)
_TWO_PI = 2.0 * np.pi


class Stream:
    """A single deterministic random stream over PCG64 raw output."""

    def __init__(self, seed_sequence: np.random.SeedSequence):
        self._bg = np.random.PCG64(seed_sequence)

    def raw(self, n: int) -> np.ndarray:
        out = self._bg.random_raw(n)
        return np.atleast_1d(np.asarray(out, dtype=np.uint64))

    def uniform(self, shape=()):
        size = int(np.prod(shape)) if shape != () else 1
        vals = (self.raw(size) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        if shape == ():
            return float(vals[0])
        return vals.reshape(shape)

    def normal(self, shape=(), std: float = 1.0):
        size = int(np.prod(shape)) if shape != () else 1
        pairs = (size + 1) // 2
        u1 = ((self.raw(pairs) >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (self.raw(pairs) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(_TWO_PI * u2), r * np.sin(_TWO_PI * u2)])[:size]
        z *= std
        if shape == ():
            return float(z[0])
        return z.reshape(shape)

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        mask = np.uint64((1 << int(n - 1).bit_length()) - 1) if n > 1 else np.uint64(0)
        while True:
            r = int(self.raw(1)[0] & mask)
            if r < n:
                return r

    def permutation(self, n: int) -> np.ndarray:
        keys = self.uniform((n,)) if n else np.empty(0)
        return np.argsort(keys, kind="stable")


def stream(seed: int, *key) -> Stream:
    entropy = [check_seed(seed)] + [_key_part(p) for p in key]
    return Stream(np.random.SeedSequence(entropy))


# ---------------------------------------------------------------- sampling

def sample_negative(train, user: int, rng: Stream) -> int:
    row = train.row(user)
    if len(row) >= train.n_cols:
        raise NoNegativeAvailable(f"user {user} interacts with every item")
    while True:
        candidate = rng.randbelow(train.n_cols)
        pos = np.searchsorted(row, candidate)
        if pos >= len(row) or row[pos] != candidate:
            return candidate


def make_batches(train, batch_size: int, epoch_index: int, seed: int) -> list[TripleBatch]:
    users, items = train.pair_arrays()
    rng = stream(seed, "epoch", epoch_index)
    perm = rng.permutation(len(users))
    users, items = users[perm], items[perm]
    negatives = np.fromiter(
        (sample_negative(train, int(u), rng) for u in users),
        dtype=np.int64,
        count=len(users),
    )
    return [
        TripleBatch(users[s:s + batch_size], items[s:s + batch_size], negatives[s:s + batch_size])
        for s in range(0, len(users), batch_size)
    ]


# ------------------------------------------------------------ model maths

EMB_INIT_STD = 0.1


def init_params(kind, n_users, n_items, d, seed, d_p=None, d_fused=None, n_layers=None,
                lambda_reg=0.0):
    if kind not in ("mf_bpr", "vbpr_mm", "graph_mm"):
        raise ValueError(f"unknown model kind {kind!r}")
    if d <= 0 or n_users <= 0 or n_items <= 0:
        raise ValueError("dimensions and entity counts must be positive")

    def normal(name, shape):
        return stream(seed, "init", name).normal(shape, std=EMB_INIT_STD)

    def xavier(name, fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        u = stream(seed, "init", name).uniform((fan_in, fan_out))
        return (2.0 * u - 1.0) * bound

    tensors = {
        "user_emb": normal("user_emb", (n_users, d)),
        "item_emb": normal("item_emb", (n_items, d)),
    }
    if kind == "vbpr_mm":
        if d_p is None or d_p <= 0 or d_fused is None or d_fused <= 0:
            raise ValueError("vbpr_mm needs positive d_p and d_fused")
        tensors["user_mod_emb"] = normal("user_mod_emb", (n_users, d_p))
        tensors["proj"] = xavier("proj", d_fused, d_p)
    elif kind == "graph_mm":
        if d_fused is None or d_fused <= 0:
            raise ValueError("graph_mm needs positive d_fused")
        if n_layers is None or n_layers < 0:
            raise ValueError("graph_mm needs n_layers >= 0")
        tensors["mod_proj"] = xavier("mod_proj", d_fused, d)

    return ModelState(
        kind=kind,
        n_users=n_users,
        n_items=n_items,
        d=d,
        tensors=tensors,
        lambda_reg=lambda_reg,
        d_p=d_p if kind == "vbpr_mm" else None,
        n_layers=n_layers if kind == "graph_mm" else None,
        seed=seed,
    )


def propagate_mean(adjacency, e0, n_layers):
    acc = e0
    total = e0.copy()
    for _ in range(n_layers):
        acc = adjacency @ acc
        total += acc
    return total / (n_layers + 1)


def _check_inputs(state, fused, adjacency):
    if state.kind in ("vbpr_mm", "graph_mm"):
        if fused is None:
            raise MissingFeatures(f"{state.kind} needs fused item features")
        if fused.shape[0] != state.n_items:
            raise MissingFeatures(
                f"fused features cover {fused.shape[0]} items, dataset has {state.n_items}"
            )
        width = state.tensors["proj" if state.kind == "vbpr_mm" else "mod_proj"].shape[0]
        if fused.shape[1:] != (width,):
            raise DimensionMismatch(
                f"fused features have shape {fused.shape}, {state.kind} expects {width} columns"
            )
    if state.kind == "graph_mm" and adjacency is None:
        raise MissingAdjacency("graph_mm needs the train adjacency")


def _final_embeddings(state, fused, adjacency):
    e0 = np.vstack([
        state.tensors["user_emb"],
        state.tensors["item_emb"] + fused @ state.tensors["mod_proj"],
    ])
    return propagate_mean(adjacency, e0, state.n_layers)


def encode(state, fused=None, adjacency=None):
    _check_inputs(state, fused, adjacency)
    if state.kind == "mf_bpr":
        return state
    u, v = state.tensors["user_emb"], state.tensors["item_emb"]
    if state.kind == "vbpr_mm":
        user_rep = np.hstack([u, state.tensors["user_mod_emb"]])
        item_rep = np.hstack([v, fused @ state.tensors["proj"]])
    else:
        ef = _final_embeddings(state, fused, adjacency)
        user_rep, item_rep = ef[: state.n_users], ef[state.n_users:]
    return ModelState(
        "mf_bpr", state.n_users, state.n_items, user_rep.shape[1],
        {"user_emb": user_rep, "item_emb": item_rep},
    )


def build_adjacency(train) -> sp.csr_matrix:
    n_u, n_i = train.n_rows, train.n_cols
    users, items = train.pair_arrays()
    deg = np.zeros(n_u + n_i)
    np.add.at(deg, users, 1.0)
    np.add.at(deg, n_u + items, 1.0)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    weights = inv_sqrt[users] * inv_sqrt[n_u + items]
    rows = np.concatenate([users, n_u + items])
    cols = np.concatenate([n_u + items, users])
    vals = np.concatenate([weights, weights])
    n = n_u + n_i
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def calculate_loss(state, batch, fused=None, adjacency=None):
    if len(batch) == 0:
        raise EmptyBatch("cannot compute a loss over zero triples")
    _check_inputs(state, fused, adjacency)
    users = np.asarray(batch.users, dtype=np.int64)
    pos = np.asarray(batch.pos_items, dtype=np.int64)
    neg = np.asarray(batch.neg_items, dtype=np.int64)
    b = len(users)
    lam = state.lambda_reg
    u_t, v_t = state.tensors["user_emb"], state.tensors["item_emb"]
    grads = {name: np.zeros_like(t) for name, t in state.tensors.items()}

    if state.kind == "graph_mm":
        n_u = state.n_users
        ef = _final_embeddings(state, fused, adjacency)
        s = np.einsum("td,td->t", ef[users], ef[n_u + pos] - ef[n_u + neg])
    elif state.kind == "vbpr_mm":
        p = state.tensors["proj"]
        m_t = state.tensors["user_mod_emb"]
        q_pos = fused[pos] @ p
        q_neg = fused[neg] @ p
        s = np.einsum("td,td->t", u_t[users], v_t[pos] - v_t[neg])
        s += np.einsum("td,td->t", m_t[users], q_pos - q_neg)
    else:
        s = np.einsum("td,td->t", u_t[users], v_t[pos] - v_t[neg])

    rank_loss = float(np.logaddexp(0.0, -s).mean())
    reg_rows = (
        np.einsum("td,td->t", u_t[users], u_t[users])
        + np.einsum("td,td->t", v_t[pos], v_t[pos])
        + np.einsum("td,td->t", v_t[neg], v_t[neg])
    )
    if state.kind == "vbpr_mm":
        m_rows = state.tensors["user_mod_emb"][users]
        reg_rows = reg_rows + np.einsum("td,td->t", m_rows, m_rows)
    loss = rank_loss + lam * float(reg_rows.mean())

    c = (-expit(-s) / b)[:, None]

    if state.kind == "graph_mm":
        g_final = np.zeros_like(ef)
        np.add.at(g_final, users, c * (ef[n_u + pos] - ef[n_u + neg]))
        np.add.at(g_final, n_u + pos, c * ef[users])
        np.add.at(g_final, n_u + neg, -c * ef[users])
        g0 = propagate_mean(adjacency, g_final, state.n_layers)
        grads["user_emb"] += g0[:n_u]
        grads["item_emb"] += g0[n_u:]
        grads["mod_proj"] += fused.T @ g0[n_u:]
    else:
        np.add.at(grads["user_emb"], users, c * (v_t[pos] - v_t[neg]))
        np.add.at(grads["item_emb"], pos, c * u_t[users])
        np.add.at(grads["item_emb"], neg, -c * u_t[users])
        if state.kind == "vbpr_mm":
            np.add.at(grads["user_mod_emb"], users, c * (q_pos - q_neg))
            dq = np.zeros((state.n_items, state.d_p))
            np.add.at(dq, pos, c * m_t[users])
            np.add.at(dq, neg, -c * m_t[users])
            grads["proj"] += fused.T @ dq

    if lam > 0:
        coef = 2.0 * lam / b
        np.add.at(grads["user_emb"], users, coef * u_t[users])
        np.add.at(grads["item_emb"], pos, coef * v_t[pos])
        np.add.at(grads["item_emb"], neg, coef * v_t[neg])
        if state.kind == "vbpr_mm":
            np.add.at(grads["user_mod_emb"], users, coef * m_t[users])

    return loss, grads


# -------------------------------------------------------------- optimizers

@dataclass
class OptimizerState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def zeros(cls, state) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(t) for k, t in state.tensors.items()},
            v={k: np.zeros_like(t) for k, t in state.tensors.items()},
        )


def _check_finite(grads) -> None:
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} contains NaN or Inf")


def adam_step(state, grads, opt: OptimizerState, cfg):
    _check_finite(grads)
    opt.t += 1
    # Adam's constants, written out here rather than imported from the code under test
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
    bias1 = 1.0 - b1**opt.t
    bias2 = 1.0 - b2**opt.t
    for name, theta in state.tensors.items():
        g = grads.get(name)
        if g is None:
            continue
        opt.m[name] = b1 * opt.m[name] + (1.0 - b1) * g
        opt.v[name] = b2 * opt.v[name] + (1.0 - b2) * g * g
        m_hat = opt.m[name] / bias1
        v_hat = opt.v[name] / bias2
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return state, opt


def sgd_step(state, grads, cfg):
    _check_finite(grads)
    for name, theta in state.tensors.items():
        g = grads.get(name)
        if g is not None:
            theta -= cfg.learning_rate * g
    return state


# -------------------------------------------------------------------- fit

def fit(kind, dataset, cfg, d, d_p=None, n_layers=None, lambda_reg=0.0, fused=None):
    if dataset.train.nnz == 0:
        raise ValueError("train split is empty")
    state = init_params(
        kind,
        dataset.n_users,
        dataset.n_items,
        d,
        cfg.seed,
        d_p=d_p,
        d_fused=None if fused is None else fused.shape[1],
        n_layers=n_layers,
        lambda_reg=lambda_reg,
    )
    adjacency = build_adjacency(dataset.train) if kind == "graph_mm" else None
    opt = OptimizerState.zeros(state)
    log = TrainLog(cfg.stop_metric)
    stop_name, stop_k = parse_metric_spec(cfg.stop_metric)
    has_validation = dataset.valid.nnz > 0

    best_state = None
    best_value = -np.inf
    evals_since_best = 0

    for epoch in range(1, cfg.max_epochs + 1):
        batch_losses = []
        for batch in make_batches(dataset.train, cfg.batch_size, epoch - 1, cfg.seed):
            loss, grads = calculate_loss(state, batch, fused, adjacency)
            batch_losses.append(loss)
            if cfg.optimizer == "adam":
                adam_step(state, grads, opt, cfg)
            else:
                sgd_step(state, grads, cfg)
        log.epoch_losses.append(float(np.mean(batch_losses)))

        if has_validation and epoch % cfg.eval_interval == 0:
            report = evaluate(encode(state, fused, adjacency), dataset, "valid", (stop_k,))
            log.evaluations.append((epoch, report))
            value = report.get(stop_name, stop_k)
            if value > best_value:
                best_value = value
                best_state = state.copy()
                log.best_epoch = epoch
                evals_since_best = 0
            else:
                evals_since_best += 1
                if evals_since_best >= cfg.patience:
                    log.stop_reason = "early_stop"
                    break

    if best_state is None:
        best_state = state.copy()
    return best_state, log
