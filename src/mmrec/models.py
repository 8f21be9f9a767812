"""The model contract: one shared BPR head over a spec per model kind.

A model is a named-tensor :class:`ModelState`. Its kind is an entry of the
private ``_KINDS`` table, which supplies:

* a tensor spec: each tensor's row axis (``"users"``, ``"items"``, or None
  for a projection whose rows are the fused feature width) and the state
  field that gives its width; the meta fields the kind needs (``d_p``,
  ``n_layers``); and whether it reads the fused item features and the
  adjacency of its :class:`ModelInputs`;
* score blocks ``(user table, item table, projection or None)``: the score
  is the sum over blocks of <user row, item row>, where an item row is
  ``item_table[i]``, or ``item_table[i] @ projection`` when there is one;
* a pull-back from the blocks' row gradients to tensor gradients.

The shared head owns the rest. ``calculate_loss`` gathers each block's
``(u, i+, i-)`` rows, computes the score ``s``, the loss and ``c = dloss/ds``,
adds the regularizer rows of every tensor with a row axis and scatters the
row gradients. ``encode`` lays the blocks side by side as a plain ``mf_bpr``
state, which ``full_sort_predict`` and the evaluator score. ``init_params``,
the input checks and ``load_checkpoint`` read the same spec. The kinds:

* ``mf_bpr``    score(u, i) = <U_u, V_i>
* ``vbpr_mm``   score(u, i) = <U_u, V_i> + <M_u, P^T f_i> for fused features f_i
* ``graph_mm``  LightGCN-style: the mean of layers 0..L of propagation over the
                symmetric degree-normalized train graph, from E0 = [U ; V + f W]

All arithmetic is float64; the float32 feature files are widened on alignment.
Gradients are derived by hand and validated against finite differences in
the test suite, including differentiation through the graph propagation.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable

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
from .fileio import read_meta, write_meta
from .modality import read_matrix, write_matrix
from .rng import stream

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
        return replace(self, tensors={k: v.copy() for k, v in self.tensors.items()})


@dataclass(frozen=True, eq=False)
class ModelInputs:
    """What a model reads besides its tensors: fused item features, one row per item, and
    the train adjacency of :func:`build_adjacency`, as ``experiment.model_inputs`` builds them."""

    fused: np.ndarray | None = None
    adjacency: sp.csr_matrix | None = None


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
    return np.divide(total, n_layers + 1, out=total)


# ------------------------------------------------------------- model kinds
#
# A block is (user table, item table, item projection or None). Row parts
# are (rows, values) pairs; a block's parts are (user parts, item parts). A
# pull-back returns, per tensor, either its dense gradient (projections) or
# (base or None, row parts), onto which the head adds the regularizer rows;
# it may pop the blocks' parts from the list it is given.

def _mf_blocks(state, inputs):
    return [(state.tensors["user_emb"], state.tensors["item_emb"], None)]


def _mf_pull_back(state, inputs, parts):
    user_parts, item_parts = parts[0]
    return {"user_emb": (None, user_parts), "item_emb": (None, item_parts)}


def _vbpr_blocks(state, inputs):
    # mf_bpr's block plus a feature block, projected after the rows are gathered
    t = state.tensors
    return _mf_blocks(state, inputs) + [(t["user_mod_emb"], inputs.fused, t["proj"])]


def _vbpr_pull_back(state, inputs, parts):
    mod_parts, feature_parts = parts[1]
    return {
        **_mf_pull_back(state, inputs, parts),
        "user_mod_emb": (None, mod_parts),
        "proj": inputs.fused.T @ _scatter_rows(state.n_items, feature_parts),
    }


def _graph_blocks(state, inputs):
    e0 = np.vstack([
        state.tensors["user_emb"],
        state.tensors["item_emb"] + inputs.fused @ state.tensors["mod_proj"],
    ])
    ef = propagate_mean(inputs.adjacency, e0, state.n_layers)
    return [(ef[: state.n_users], ef[state.n_users:], None)]


def _graph_pull_back(state, inputs, parts):
    n_u = state.n_users
    # item nodes follow the user nodes; the block's parts are popped, so the
    # batch rows are freed before the propagation
    g_final = _scatter_rows(n_u + state.n_items, [
        (offset + rows, values) for offset, side in zip((0, n_u), parts.pop()) for rows, values in side
    ])
    g0 = propagate_mean(inputs.adjacency, g_final, state.n_layers)
    # the dense pull-back is the base; the regularizer rows are added onto it
    return {"user_emb": (g0[:n_u], []), "item_emb": (g0[n_u:], []), "mod_proj": inputs.fused.T @ g0[n_u:]}


@dataclass(frozen=True)
class _Kind:
    tensors: dict[str, tuple[str | None, str]]  # name -> (row axis, width field)
    meta: tuple[str, ...]
    features: bool
    graph: bool
    blocks: Callable
    pull_back: Callable


_EMBEDDINGS = {"user_emb": ("users", "d"), "item_emb": ("items", "d")}
_KINDS = {
    "mf_bpr": _Kind(_EMBEDDINGS, (), False, False, _mf_blocks, _mf_pull_back),
    "vbpr_mm": _Kind(
        {**_EMBEDDINGS, "user_mod_emb": ("users", "d_p"), "proj": (None, "d_p")},
        ("d_p",), True, False, _vbpr_blocks, _vbpr_pull_back,
    ),
    "graph_mm": _Kind(
        {**_EMBEDDINGS, "mod_proj": (None, "d")},
        ("n_layers",), True, True, _graph_blocks, _graph_pull_back,
    ),
}
MODEL_KINDS = tuple(_KINDS)
# the kinds that read fused item features, and those that read the train graph
FEATURE_KINDS = tuple(kind for kind, spec in _KINDS.items() if spec.features)
GRAPH_KINDS = tuple(kind for kind, spec in _KINDS.items() if spec.graph)
# the settings each kind reads beyond d and lambda_reg: its meta fields, and the fusion if it reads features
KIND_READS = {kind: frozenset(spec.meta) | ({"fusion"} if spec.features else set()) for kind, spec in _KINDS.items()}


# the model hyperparameter bounds that configs, init_params and checkpoints alike keep
HYPERPARAMETER_BOUNDS = {"d": 1, "d_p": 1, "n_layers": 0, "lambda_reg": 0}


def check_hyperparameters(**params) -> None:
    """Raise ValueError unless each hyperparameter is finite, >= its bound and, bar lambda_reg, integral."""
    for name, value in params.items():
        low = HYPERPARAMETER_BOUNDS[name]
        if name != "lambda_reg" and not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not low <= value < np.inf:  # NaN fails too
            raise ValueError(f"{name} must be finite and {'positive' if low else '>= 0'}, got {value}")


def _check_meta(state: ModelState, d_fused: int | None) -> ModelState:
    """``state`` without the meta its kind does not read; ValueError unless all it reads is given and all given is in bounds."""
    spec = _KINDS.get(state.kind)
    if spec is None:
        raise ValueError(f"unknown model kind {state.kind!r}")
    if state.n_users <= 0 or state.n_items <= 0:
        raise ValueError("entity counts must be positive")
    params = {name: getattr(state, name) for name in HYPERPARAMETER_BOUNDS}
    needs = [name for name in ("d", "lambda_reg", *spec.meta) if params[name] is None]
    if spec.features and (d_fused is None or d_fused <= 0):
        needs.append("positive d_fused")
    if needs:
        raise ValueError(f"{state.kind} needs {' and '.join(needs)}")
    check_hyperparameters(**{name: value for name, value in params.items() if value is not None})
    return replace(state, **{name: None for name in ("d_p", "n_layers") if name not in spec.meta})


def init_params(kind: str, n_users: int, n_items: int, d: int, seed: int, d_p: int | None = None,
                d_fused: int | None = None, n_layers: int | None = None,
                lambda_reg: float = 0.0) -> ModelState:
    """Draw fresh parameters, deterministically from (seed, tensor name).

    Embeddings are Normal(0, 0.1^2); projection matrices are Xavier-uniform
    with bound sqrt(6 / (fan_in + fan_out)). Any kind refuses, as ValueError,
    ``d`` or ``d_p`` < 1, ``n_layers`` < 0, any of those not an integer, and ``lambda_reg`` < 0, NaN
    or infinite. The state keeps ``d_p`` and ``n_layers`` only if the kind reads them.
    """
    state = _check_meta(ModelState(kind, n_users, n_items, d, {}, lambda_reg, d_p, n_layers, seed), d_fused)
    spec = _KINDS[kind]
    for name, shape in _shapes(state, d_fused).items():
        draws = stream(seed, "init", name)
        if spec.tensors[name][0] is None:
            state.tensors[name] = (2.0 * draws.uniform(shape) - 1.0) * np.sqrt(6.0 / sum(shape))
        else:
            state.tensors[name] = draws.normal(shape, std=EMB_INIT_STD)
    return state


def _shapes(state: ModelState, d_fused: int | None) -> dict[str, tuple[int, int]]:
    """Each tensor's shape, (size of its row axis, its width field); a projection has d_fused rows."""
    sizes = {"users": state.n_users, "items": state.n_items, None: d_fused, "d": state.d, "d_p": state.d_p}
    return {name: (sizes[axis], sizes[width]) for name, (axis, width) in _KINDS[state.kind].tensors.items()}


def _fused_width(state: ModelState) -> int:
    """Rows of the kind's projection: the fused feature width it expects."""
    name = next(n for n, (axis, _) in _KINDS[state.kind].tensors.items() if axis is None)
    return state.tensors[name].shape[0]


def _check_inputs(state: ModelState, inputs: ModelInputs) -> None:
    spec = _KINDS[state.kind]
    fused = inputs.fused
    if spec.features:
        if fused is None:
            raise MissingFeatures(f"{state.kind} needs fused item features")
        if fused.shape[0] != state.n_items:
            raise MissingFeatures(
                f"fused features cover {fused.shape[0]} items, dataset has {state.n_items}"
            )
        width = _fused_width(state)
        if fused.shape[1:] != (width,):
            raise DimensionMismatch(
                f"fused features have shape {fused.shape}, {state.kind} expects {width} columns"
            )
    if spec.graph and inputs.adjacency is None:
        raise MissingAdjacency(f"{state.kind} needs the train adjacency")


def _item_rows(table: np.ndarray, proj: np.ndarray | None, rows=None) -> np.ndarray:
    """A block's item representations, of every item or of ``rows``."""
    picked = table if rows is None else table[rows]
    return picked if proj is None else picked @ proj


def encode(state: ModelState, inputs: ModelInputs = ModelInputs()) -> ModelState:
    """The model's final user and item representations as a plain ``mf_bpr``
    state, so that score(u, i) = <user_emb[u], item_emb[i]> for every kind.

    The representations are the kind's score blocks side by side: ``mf_bpr``
    keeps its own tables, ``vbpr_mm`` stacks ``[U, M]`` and ``[V, fP]``, and
    ``graph_mm`` splits the propagated embeddings into user and item rows.
    ``inputs`` must hold what the kind reads. Encode once and score many user
    chunks from it.
    """
    _check_inputs(state, inputs)
    blocks = _KINDS[state.kind].blocks(state, inputs)
    users = [user_table for user_table, _, _ in blocks]
    items = [_item_rows(item_table, proj) for _, item_table, proj in blocks]
    # one block is used as it is, without a copy
    user_rep, item_rep = (parts[0] if len(parts) == 1 else np.hstack(parts) for parts in (users, items))
    return ModelState(
        "mf_bpr", state.n_users, state.n_items, user_rep.shape[1],
        {"user_emb": user_rep, "item_emb": item_rep},
    )


def full_sort_predict(state: ModelState, users: np.ndarray | list[int], inputs: ModelInputs = ModelInputs(),
                      out: np.ndarray | None = None) -> np.ndarray:
    """Rows of the full score matrix for the requested users; pure but for ``out``.

    The state is encoded on every call; to score many user chunks, pass
    ``encode(state, inputs)`` instead, which needs no inputs.
    With ``out``, a C-contiguous float64 buffer of at least ``len(users)``
    rows, the scores go into its first rows and that view is returned, with
    the same bytes as without ``out``, so one buffer serves every chunk.
    """
    users = np.asarray(users, dtype=np.int64)
    if users.size and (users.min() < 0 or users.max() >= state.n_users):
        raise IndexOutOfRange(f"user indices must lie in [0, {state.n_users})")
    rep = encode(state, inputs)
    return np.matmul(rep.tensors["user_emb"][users], rep.tensors["item_emb"].T,
                     out=None if out is None else out[:len(users)])


def calculate_loss(state: ModelState, batch: TripleBatch,
                   inputs: ModelInputs = ModelInputs()) -> tuple[float, dict[str, np.ndarray]]:
    """Mean BPR loss over the batch plus analytic gradients.

    loss = mean_t softplus(-(x_ui - x_uj))
         + lambda_reg * mean_t sum of squared norms of the embedding rows
           the triple touches: user rows at u, item rows at i and j.

    Projection matrices contribute to scores, and hence receive gradients,
    but are left out of the regularizer: it covers per-row embeddings only.
    ``lambda_reg`` is finite and >= 0; at 0 no regularizer row is gathered.
    """
    if len(batch) == 0:
        raise EmptyBatch("cannot compute a loss over zero triples")
    _check_inputs(state, inputs)
    spec = _KINDS[state.kind]
    users = np.asarray(batch.users, dtype=np.int64)
    pos = np.asarray(batch.pos_items, dtype=np.int64)
    neg = np.asarray(batch.neg_items, dtype=np.int64)
    b = len(users)
    lam = state.lambda_reg

    # per block: the batch's user rows and item row differences; the score
    # is the sum of the blocks' inner products, in block order
    rows = [
        (user_table[users], _item_rows(item_table, proj, pos) - _item_rows(item_table, proj, neg))
        for user_table, item_table, proj in spec.blocks(state, inputs)
    ]
    s = reduce(np.add, (_row_dots(u_rows, i_diff) for u_rows, i_diff in rows))

    # the regularized rows, which give both the loss term and the gradient parts:
    # each tensor with a row axis, at the batch's indices on it, in spec order; none at lambda_reg 0
    at = {"users": (users,), "items": (pos, neg)} if lam > 0 else {}
    reg = [(name, index) for name, (axis, _) in spec.tensors.items() for index in at.get(axis, ())]
    reg_rows = [_row_dots(values, values) for values in (state.tensors[name][index] for name, index in reg)]
    loss = float(np.logaddexp(0.0, -s).mean())
    loss += lam * float(reduce(np.add, reg_rows).mean()) if reg else 0.0

    # d loss / d s_t, including the 1/|B| of the mean
    c = (-expit(-s) / b)[:, None]

    # each block's row gradients replace its batch rows, so that a pull-back
    # that pops them frees both
    rows = [_row_parts(users, pos, neg, c, *block) for block in rows]
    # each row gradient is a scatter of parts, added in a fixed order: the
    # pull-back's parts first, then the regularizer's
    grads = spec.pull_back(state, inputs, rows)
    for name, index in reg:
        grads[name][1].append((index, 2.0 * lam / b * state.tensors[name][index]))
    n_rows = {"users": state.n_users, "items": state.n_items}
    for name, (axis, _) in spec.tensors.items():
        if axis is not None:
            base, parts = grads[name]
            grads[name] = _scatter_rows(n_rows[axis], parts, base)
    return loss, {name: grads[name] for name in state.tensors}


def _row_parts(users, pos, neg, c, u_rows, i_diff):
    """A block's row gradient parts, ``c * i_diff`` at the users and ``c * u_rows``
    and ``-c * u_rows`` at the positives and negatives. The gathered rows are
    scaled in place, as nothing else reads them, to the same floats."""
    i_diff *= c
    u_rows *= c
    return [(users, i_diff)], [(pos, u_rows), (neg, -u_rows)]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each row of ``a`` with the same row of ``b``."""
    return np.einsum("td,td->t", a, b)


def _scatter_rows(n_rows: int, parts: list[tuple[np.ndarray, np.ndarray]],
                  base: np.ndarray | None = None) -> np.ndarray:
    """``(n_rows, d)`` row sums of ``(rows, values)`` parts, onto ``base``.

    Row ``r`` is ``base[r]`` (zero without a base) plus every ``values[t]``
    with ``rows[t] == r``, added one at a time in part order, then in ``t``
    order, so every element sums in a fixed sequence. The sum is the product
    of a 0/1 selection matrix in CSR form, whose rows keep their entries in
    that order, with the stacked values; a CSR product adds each row's
    entries in stored order, starting from zero, so for a base alone it is
    ``0.0 + 1.0 * base``, which is ``base + 0.0``.
    """
    if base is not None and not parts:
        return base + 0.0
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
    keys = ("kind", "n_users", "n_items", "d", "d_p", "n_layers", "lambda_reg", "seed")
    write_meta(os.path.join(out, "meta"),
               {**{key: getattr(state, key) for key in keys}, "tensors": ",".join(sorted(state.tensors))})
    for name, tensor in state.tensors.items():
        write_matrix(os.path.join(out, f"{name}.mmf8"), tensor, magic=b"MMF8")


def load_checkpoint(in_dir: str | os.PathLike) -> ModelState:
    """Read a checkpoint written by :func:`save_checkpoint`, keeping the meta fields its kind reads.

    A `meta` file that is not UTF-8 or has a missing key or a bad value,
    meta that :func:`init_params` would refuse (a negative or non-finite ``lambda_reg``
    too), a tensor list that does not fit the model kind, or a tensor that
    holds NaN or Inf or whose shape disagrees with `meta` raises MalformedCheckpoint.
    """
    src = os.fspath(in_dir)
    try:
        meta = read_meta(os.path.join(src, "meta"))
        state = ModelState(
            kind=meta["kind"], n_users=int(meta["n_users"]), n_items=int(meta["n_items"]),
            d=int(meta["d"]), tensors={}, lambda_reg=float(meta["lambda_reg"]),
            d_p=int(meta["d_p"]) if meta["d_p"] else None,
            n_layers=int(meta["n_layers"]) if meta["n_layers"] else None, seed=int(meta["seed"]),
        )
        names = meta["tensors"].split(",")
    except UnicodeError as exc:
        raise MalformedCheckpoint(str(exc)) from None
    except KeyError as exc:
        raise MalformedCheckpoint(f"{src}: meta has no {exc.args[0]!r} key") from None
    except ValueError as exc:
        raise MalformedCheckpoint(f"{src}: bad meta value: {exc}") from None
    spec = _KINDS.get(state.kind)
    if spec is None or set(names) != set(spec.tensors):
        raise MalformedCheckpoint(f"{src}: {state.kind!r} checkpoint with tensors {names}")
    for name in names:
        tensor = read_matrix(os.path.join(src, f"{name}.mmf8"), magic=b"MMF8")
        # min and max propagate NaN, so this finds NaN/Inf without a mask the size of the tensor
        if not (np.isfinite(tensor.min(initial=0.0)) and np.isfinite(tensor.max(initial=0.0))):
            raise MalformedCheckpoint(f"{src}: {name} holds NaN or Inf values")
        state.tensors[name] = tensor
    d_fused = _fused_width(state) if spec.features else None
    try:
        state = _check_meta(state, d_fused)
    except ValueError as exc:
        raise MalformedCheckpoint(f"{src}: {exc}") from None
    shapes = _shapes(state, d_fused)
    for name in names:
        expected, got = shapes[name], state.tensors[name].shape
        if got != expected:
            raise MalformedCheckpoint(f"{src}: {name} has shape {got}, meta implies {expected}")
    return state
