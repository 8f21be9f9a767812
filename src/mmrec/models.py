"""Model contract and the three built-in recommenders.

Every model is a named-tensor :class:`ModelState` plus two operations:
``calculate_loss`` (pairwise BPR loss with exact analytic gradients) and
``full_sort_predict`` (scores for every item). Scoring goes through
``encode``, which reduces every kind to a pair of user and item
representations whose inner product is the score. Three kinds are provided:

* ``mf_bpr``     score(u, i) = <U_u, V_i>
* ``vbpr_mm``    score(u, i) = <U_u, V_i> + <M_u, P^T f_i> for fused item
                 features f_i and projection P
* ``graph_mm``   LightGCN-style propagation over the symmetric
                 degree-normalized train graph, starting from
                 E0 = [U ; V + f W], final embedding = mean of layers 0..L

All arithmetic is float64; the float32 feature files are widened on alignment.
Gradients are derived by hand and validated against finite differences in
the test suite, including differentiation through the graph propagation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import InteractionSet
from .errors import (
    DimensionMismatch,
    EmptyBatch,
    IndexOutOfRange,
    MalformedCheckpoint,
    MissingAdjacency,
    MissingFeatures,
)
from .fileio import atomic_write
from .modality import read_matrix, write_matrix
from .rng import stream

MODEL_KINDS = ("mf_bpr", "vbpr_mm", "graph_mm")

EMB_INIT_STD = 0.1


@dataclass
class TripleBatch:
    """(user, positive item, negative item) index triples."""

    users: np.ndarray
    pos_items: np.ndarray
    neg_items: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


@dataclass
class ModelState:
    kind: str
    n_users: int
    n_items: int
    d: int
    tensors: dict[str, np.ndarray]
    lambda_reg: float = 0.0
    d_p: int | None = None
    n_layers: int | None = None
    seed: int = 0

    def copy(self) -> "ModelState":
        return ModelState(
            kind=self.kind,
            n_users=self.n_users,
            n_items=self.n_items,
            d=self.d,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            lambda_reg=self.lambda_reg,
            d_p=self.d_p,
            n_layers=self.n_layers,
            seed=self.seed,
        )


def init_params(
    kind: str,
    n_users: int,
    n_items: int,
    d: int,
    seed: int,
    d_p: int | None = None,
    d_fused: int | None = None,
    n_layers: int | None = None,
    lambda_reg: float = 0.0,
) -> ModelState:
    """Draw fresh parameters, deterministically from (seed, tensor name).

    Embeddings are Normal(0, 0.1^2); projection matrices are Xavier-uniform
    with bound sqrt(6 / (fan_in + fan_out)).
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if d <= 0 or n_users <= 0 or n_items <= 0:
        raise ValueError("dimensions and entity counts must be positive")

    def normal(name: str, shape: tuple[int, int]) -> np.ndarray:
        return stream(seed, "init", name).normal(shape, std=EMB_INIT_STD)

    def xavier(name: str, fan_in: int, fan_out: int) -> np.ndarray:
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
        d_p=d_p,
        n_layers=n_layers if kind == "graph_mm" else None,
        seed=seed,
    )


def build_adjacency(train: InteractionSet) -> sp.csr_matrix:
    """Symmetric degree-normalized bipartite adjacency over user+item nodes.

    Entry (u, n_users + i) = 1 / sqrt(deg_u * deg_i) for each train edge;
    isolated nodes keep an all-zero row (normalization factor 0).
    """
    n_u, n_i = train.n_rows, train.n_cols
    users, items = train.pair_arrays()
    deg = np.bincount(np.concatenate([users, n_u + items]), minlength=n_u + n_i).astype(np.float64)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    weights = inv_sqrt[users] * inv_sqrt[n_u + items]
    rows = np.concatenate([users, n_u + items])
    cols = np.concatenate([n_u + items, users])
    vals = np.concatenate([weights, weights])
    n = n_u + n_i
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def propagate_mean(adjacency: sp.csr_matrix, e0: np.ndarray, n_layers: int) -> np.ndarray:
    """Mean of e0, A e0, ..., A^L e0. The operator is symmetric, so this
    doubles as the adjoint used in the backward pass."""
    acc = e0
    total = e0.copy()
    for _ in range(n_layers):
        acc = adjacency @ acc
        total += acc
    return total / (n_layers + 1)


def _check_inputs(state: ModelState, fused: np.ndarray | None, adjacency) -> None:
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


def _final_embeddings(state: ModelState, fused: np.ndarray, adjacency) -> np.ndarray:
    e0 = np.vstack([
        state.tensors["user_emb"],
        state.tensors["item_emb"] + fused @ state.tensors["mod_proj"],
    ])
    return propagate_mean(adjacency, e0, state.n_layers)


def encode(
    state: ModelState,
    fused: np.ndarray | None = None,
    adjacency: sp.csr_matrix | None = None,
) -> ModelState:
    """The model's final user and item representations as a plain ``mf_bpr``
    state, so that score(u, i) = <user_emb[u], item_emb[i]> for every kind.

    ``mf_bpr`` returns the state itself; ``vbpr_mm`` stacks ``[U, M]`` and
    ``[V, fP]``; ``graph_mm`` splits the propagated embeddings into user
    rows and item rows. Encode once and score many user chunks from it.
    """
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


def full_sort_predict(
    state: ModelState,
    users: np.ndarray | list[int],
    fused: np.ndarray | None = None,
    adjacency: sp.csr_matrix | None = None,
) -> np.ndarray:
    """Rows of the full score matrix for the requested users; pure.

    The state is encoded on every call; to score many user chunks, pass
    ``encode(state, fused, adjacency)`` instead, which needs no features.
    """
    users = np.asarray(users, dtype=np.int64)
    if users.size and (users.min() < 0 or users.max() >= state.n_users):
        raise IndexOutOfRange(f"user indices must lie in [0, {state.n_users})")
    rep = encode(state, fused, adjacency)
    return rep.tensors["user_emb"][users] @ rep.tensors["item_emb"].T


def calculate_loss(
    state: ModelState,
    batch: TripleBatch,
    fused: np.ndarray | None = None,
    adjacency: sp.csr_matrix | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean BPR loss over the batch plus analytic gradients.

    loss = mean_t softplus(-(x_ui - x_uj))
         + lambda_reg * mean_t sum of squared norms of the embedding rows
           the triple touches (user_emb[u], item_emb[i], item_emb[j], and
           user_mod_emb[u] for vbpr_mm).

    Projection matrices contribute to scores, and hence receive gradients,
    but are left out of the regularizer: it covers per-row embeddings only.
    """
    if len(batch) == 0:
        raise EmptyBatch("cannot compute a loss over zero triples")
    _check_inputs(state, fused, adjacency)
    users = np.asarray(batch.users, dtype=np.int64)
    pos = np.asarray(batch.pos_items, dtype=np.int64)
    neg = np.asarray(batch.neg_items, dtype=np.int64)
    b = len(users)
    lam = state.lambda_reg
    u_t, v_t = state.tensors["user_emb"], state.tensors["item_emb"]

    if state.kind == "graph_mm":
        n_u = state.n_users
        ef = _final_embeddings(state, fused, adjacency)
        s = np.einsum("td,td->t", ef[users], ef[n_u + pos] - ef[n_u + neg])
    else:
        # mf_bpr and vbpr_mm keep these batch rows for the gradient; graph_mm
        # gathers each where it is used, so none stays alive through the
        # propagation of its larger working set
        u_rows = u_t[users]
        v_diff = v_t[pos] - v_t[neg]
        s = np.einsum("td,td->t", u_rows, v_diff)
        if state.kind == "vbpr_mm":
            p = state.tensors["proj"]
            m_rows = state.tensors["user_mod_emb"][users]
            q_diff = fused[pos] @ p - fused[neg] @ p
            s += np.einsum("td,td->t", m_rows, q_diff)

    rank_loss = float(np.logaddexp(0.0, -s).mean())
    reg_rows = _sq_norms(u_t[users]) + _sq_norms(v_t[pos]) + _sq_norms(v_t[neg])
    if state.kind == "vbpr_mm":
        reg_rows = reg_rows + _sq_norms(m_rows)
    loss = rank_loss + lam * float(reg_rows.mean())

    # d loss / d s_t, including the 1/|B| of the mean
    c = (-expit(-s) / b)[:, None]

    # each embedding gradient is a row scatter of (rows, values) parts, added
    # in a fixed order: the rank term's parts first, then the regularizer's
    grads = {}
    if state.kind == "graph_mm":
        g_final = _scatter_rows(n_u + state.n_items, [
            (users, c * (ef[n_u + pos] - ef[n_u + neg])),
            (n_u + pos, c * ef[users]),
            (n_u + neg, -c * ef[users]),
        ])
        g0 = propagate_mean(adjacency, g_final, state.n_layers)
        # the dense pull-back comes first, the regularizer is added onto it
        user_base, item_base = g0[:n_u], g0[n_u:]
        user_parts, item_parts = [], []
        grads["mod_proj"] = fused.T @ item_base
    else:
        user_base = item_base = None
        user_parts = [(users, c * v_diff)]
        item_parts = [(pos, c * u_rows), (neg, -c * u_rows)]
        if state.kind == "vbpr_mm":
            mod_parts = [(users, c * q_diff)]
            dq = _scatter_rows(state.n_items, [(pos, c * m_rows), (neg, -c * m_rows)])
            grads["proj"] = fused.T @ dq

    if lam > 0:
        coef = 2.0 * lam / b
        user_parts.append((users, coef * u_t[users]))
        item_parts += [(pos, coef * v_t[pos]), (neg, coef * v_t[neg])]
        if state.kind == "vbpr_mm":
            mod_parts.append((users, coef * m_rows))

    grads["user_emb"] = _scatter_rows(state.n_users, user_parts, user_base)
    grads["item_emb"] = _scatter_rows(state.n_items, item_parts, item_base)
    if state.kind == "vbpr_mm":
        grads["user_mod_emb"] = _scatter_rows(state.n_users, mod_parts)
    return loss, {name: grads[name] for name in state.tensors}


def _sq_norms(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row."""
    return np.einsum("td,td->t", rows, rows)


def _scatter_rows(
    n_rows: int,
    parts: list[tuple[np.ndarray, np.ndarray]],
    base: np.ndarray | None = None,
) -> np.ndarray:
    """``(n_rows, d)`` row sums of ``(rows, values)`` parts, onto ``base``.

    Row ``r`` is ``base[r]`` (zero without a base) plus every ``values[t]``
    with ``rows[t] == r``, added one at a time in part order, then in ``t``
    order, so every element sums in a fixed sequence. The sum is the product
    of a 0/1 selection matrix in CSR form, whose rows keep their entries in
    that order, with the stacked values; a CSR product adds each row's
    entries in stored order, starting from zero.
    """
    if base is not None:
        parts = [(np.arange(n_rows), base)] + parts
    rows = np.concatenate([r for r, _ in parts])
    values = np.concatenate([v for _, v in parts])
    k = len(rows)
    pick = sp.csr_matrix((np.ones(k), (rows, np.arange(k))), shape=(n_rows, k))
    return pick @ values


# ------------------------------------------------------------- checkpoints

def save_checkpoint(state: ModelState, out_dir: str | os.PathLike) -> None:
    """Write each tensor as an MMF8 file plus a `meta` key-value file."""
    os.makedirs(out_dir, exist_ok=True)
    out = os.fspath(out_dir)
    with atomic_write(os.path.join(out, "meta")) as fh:
        fh.write(f"kind: {state.kind}\n")
        fh.write(f"n_users: {state.n_users}\n")
        fh.write(f"n_items: {state.n_items}\n")
        fh.write(f"d: {state.d}\n")
        fh.write(f"d_p: {'' if state.d_p is None else state.d_p}\n")
        fh.write(f"n_layers: {'' if state.n_layers is None else state.n_layers}\n")
        fh.write(f"lambda_reg: {state.lambda_reg!r}\n")
        fh.write(f"seed: {state.seed}\n")
        fh.write(f"tensors: {','.join(sorted(state.tensors))}\n")
    for name, tensor in state.tensors.items():
        write_matrix(os.path.join(out, f"{name}.mmf8"), tensor, magic=b"MMF8")


# (rows, columns) of each tensor as ModelState fields; None is not checked
_TENSOR_SHAPES = {
    "user_emb": ("n_users", "d"),
    "item_emb": ("n_items", "d"),
    "user_mod_emb": ("n_users", "d_p"),
    "proj": (None, "d_p"),
    "mod_proj": (None, "d"),
}
_KIND_TENSORS = {
    "mf_bpr": {"user_emb", "item_emb"},
    "vbpr_mm": {"user_emb", "item_emb", "user_mod_emb", "proj"},
    "graph_mm": {"user_emb", "item_emb", "mod_proj"},
}


def load_checkpoint(in_dir: str | os.PathLike) -> ModelState:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A `meta` file with a missing key or a bad value, a tensor list that does
    not fit the model kind, or a tensor whose shape disagrees with `meta`
    raises MalformedCheckpoint.
    """
    src = os.fspath(in_dir)
    meta: dict[str, str] = {}
    with open(os.path.join(src, "meta"), encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                key, _, value = line.partition(":")
                meta[key.strip()] = value.strip()
    try:
        state = ModelState(
            kind=meta["kind"],
            n_users=int(meta["n_users"]),
            n_items=int(meta["n_items"]),
            d=int(meta["d"]),
            tensors={},
            lambda_reg=float(meta["lambda_reg"]),
            d_p=int(meta["d_p"]) if meta["d_p"] else None,
            n_layers=int(meta["n_layers"]) if meta["n_layers"] else None,
            seed=int(meta["seed"]),
        )
        names = meta["tensors"].split(",")
    except KeyError as exc:
        raise MalformedCheckpoint(f"{src}: meta has no {exc.args[0]!r} key") from None
    except ValueError as exc:
        raise MalformedCheckpoint(f"{src}: bad meta value: {exc}") from None
    if state.kind not in _KIND_TENSORS or set(names) != _KIND_TENSORS[state.kind]:
        raise MalformedCheckpoint(f"{src}: {state.kind!r} checkpoint with tensors {names}")
    if state.kind == "graph_mm" and state.n_layers is None:
        raise MalformedCheckpoint(f"{src}: graph_mm checkpoint without n_layers")
    for name in names:
        tensor = read_matrix(os.path.join(src, f"{name}.mmf8"), magic=b"MMF8")
        expected = tuple(None if f is None else getattr(state, f) for f in _TENSOR_SHAPES[name])
        if any(want is not None and want != got for want, got in zip(expected, tensor.shape)):
            raise MalformedCheckpoint(
                f"{src}: {name} has shape {tensor.shape}, meta implies {expected}"
            )
        state.tensors[name] = tensor
    return state
