"""Mini-batch BPR training with negative sampling, Adam and early stopping.

An epoch visits every train pair exactly once as a positive, in an order
shuffled per (seed, epoch); each positive is paired with one uniformly
sampled unobserved item. Validation runs every ``eval_interval`` epochs on
the stop metric, which the log records; the best parameters are returned.
Only the last scheduled validation ranks into a caller's ``ranking`` (at
least as wide as the stop cutoff), kept if it picks the returned parameters.
The loop is strictly sequential, so two runs with the same config and seed
produce byte-identical logs and checkpoints.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, InteractionSet
from .errors import NoNegativeAvailable, NonFiniteGradient
from .evaluation import MetricReport, Ranking, evaluate, parse_metric_spec
from .fileio import atomic_write
# build_adjacency is unused here but stays bound: mmbench/layers.py wraps it by name
from .models import ModelInputs, ModelState, TripleBatch, build_adjacency, calculate_loss, init_params
from .rng import check_seed, stream

OPTIMIZERS = ("adam", "sgd")
_ADAM_BLOCK = 1 << 15  # elements per in-place Adam pass, so its scratch stays in cache
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # torch.optim.Adam's defaults


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 2048
    max_epochs: int = 50
    patience: int = 10
    eval_interval: int = 1
    stop_metric: str = "recall@20"
    optimizer: str = "adam"
    seed: int = 2024

    def __post_init__(self):
        for name, low in (("batch_size", 1), ("max_epochs", 0), ("patience", 1), ("eval_interval", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not 0 < self.learning_rate < np.inf:  # NaN fails too
            raise ValueError("learning_rate must be positive and finite")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"expected one of {OPTIMIZERS}, got {self.optimizer!r}")
        parse_metric_spec(self.stop_metric)
        check_seed(self.seed)


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    # two work arrays of adam_step, a block of rows long, reused every step
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def zeros(cls, state: ModelState) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(t) for k, t in state.tensors.items()},
            v={k: np.zeros_like(t) for k, t in state.tensors.items()},
        )


@dataclass
class TrainLog:
    stop_metric: str
    epoch_losses: list[float] = field(default_factory=list)
    evaluations: list[tuple[int, MetricReport]] = field(default_factory=list)
    best_epoch: int | None = None
    stop_reason: str = "max_epochs"


def make_batches(
    train: InteractionSet,
    batch_size: int,
    epoch_index: int,
    seed: int,
) -> list[TripleBatch]:
    """Shuffled positives of one epoch, paired with sampled negatives.

    Each positive, in shuffled order, takes the first ``randbelow(n_items)``
    draw outside its user's train row, so negatives are uniform over the
    user's unobserved items; the row test is one set lookup of
    ``user * n_items + item``.
    """
    users, items = train.pair_arrays()
    rng = stream(seed, "epoch", epoch_index)
    perm = rng.permutation(len(users))
    users, items = users[perm], items[perm]
    n_items = train.n_cols
    full = np.diff(train.indptr)[users] >= n_items
    if full.any():
        raise NoNegativeAvailable(f"user {int(users[np.argmax(full)])} interacts with every item")
    train_keys = set((users * n_items + items).tolist())
    draw = rng.randbelow
    negatives = []
    for base in (users * n_items).tolist():
        j = draw(n_items)
        while base + j in train_keys:
            j = draw(n_items)
        negatives.append(j)
    negatives = np.array(negatives, dtype=np.int64)
    return [
        TripleBatch(users[s:s + batch_size], items[s:s + batch_size], negatives[s:s + batch_size])
        for s in range(0, len(users), batch_size)
    ]


def _check_finite(grads: dict[str, np.ndarray]) -> None:
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient for {name} contains NaN or Inf")


def adam_step(
    state: ModelState,
    grads: dict[str, np.ndarray],
    opt: OptimizerState,
    cfg: TrainConfig,
) -> tuple[ModelState, OptimizerState]:
    """One bias-corrected Adam update; tensors without gradients are left
    untouched. Mutates ``state`` and ``opt`` in place and returns them.

    Each tensor is updated in place, a block of rows at a time, through two
    small scratch arrays kept in ``opt``. The operation order is that of
    ``b1*m + (1-b1)*g``, ``b2*v + ((1-b2)*g)*g`` and
    ``(lr*m_hat) / (sqrt(v_hat) + eps)``, so the result is bit for bit that
    of the allocating expressions.
    """
    _check_finite(grads)
    opt.t += 1
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, cfg.learning_rate
    bias1 = 1.0 - b1**opt.t
    bias2 = 1.0 - b2**opt.t
    for name, theta in state.tensors.items():
        g = grads.get(name)
        if g is None:
            continue
        g = np.broadcast_to(g, theta.shape)
        m, v = opt.m[name], opt.v[name]
        row_size = max(1, theta[:1].size)
        rows = max(1, _ADAM_BLOCK // row_size)
        if opt.scratch is None or opt.scratch[0].size < rows * row_size:
            opt.scratch = (np.empty(rows * row_size), np.empty(rows * row_size))
        for r0 in range(0, len(theta), rows):
            block = slice(r0, r0 + rows)
            t_b, m_b, v_b, g_b = theta[block], m[block], v[block], g[block]
            step, denom = (buf[:t_b.size].reshape(t_b.shape) for buf in opt.scratch)
            np.multiply(1.0 - b1, g_b, out=step)
            m_b *= b1
            m_b += step
            np.multiply(1.0 - b2, g_b, out=step)
            step *= g_b
            v_b *= b2
            v_b += step
            np.divide(v_b, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            np.divide(m_b, bias1, out=step)
            step *= lr
            step /= denom
            t_b -= step
    return state, opt


def sgd_step(
    state: ModelState,
    grads: dict[str, np.ndarray],
    cfg: TrainConfig,
) -> ModelState:
    _check_finite(grads)
    for name, theta in state.tensors.items():
        g = grads.get(name)
        if g is not None:
            theta -= cfg.learning_rate * g
    return state


def fit(
    kind: str,
    dataset: Dataset,
    cfg: TrainConfig,
    d: int,
    d_p: int | None = None,
    n_layers: int | None = None,
    lambda_reg: float = 0.0,
    inputs: ModelInputs = ModelInputs(),
    ranking: Ranking | None = None,
) -> tuple[ModelState, TrainLog]:
    """Train one model, returning the best-validation parameters and a log.

    With an empty validation split there is nothing to select on: early
    stopping is disabled, training runs to max_epochs and the final
    parameters are returned. ``inputs`` must hold what ``kind`` reads, as
    ``experiment.model_inputs`` builds it; ``fit`` builds nothing itself.

    An empty ``ranking`` is ranked into at the last scheduled validation,
    epoch ``max_epochs - max_epochs % eval_interval``, and cleared again
    unless that epoch is the best: it holds lists of the returned parameters
    or none. A ranking narrower than the stop metric's K (capped at the
    catalog) raises ValueError before training.
    """
    if dataset.train.nnz == 0:
        raise ValueError("train split is empty")
    stop_name, stop_k = parse_metric_spec(cfg.stop_metric)
    if ranking is not None and ranking.lists.shape[1] < min(stop_k, dataset.n_items):
        raise ValueError(f"ranking of width {ranking.lists.shape[1]} is narrower than {cfg.stop_metric}")
    d_fused = None if inputs.fused is None else inputs.fused.shape[1]
    state = init_params(kind, dataset.n_users, dataset.n_items, d, cfg.seed, d_p=d_p,
                        d_fused=d_fused, n_layers=n_layers, lambda_reg=lambda_reg)
    opt = OptimizerState.zeros(state)
    log = TrainLog(cfg.stop_metric)
    has_validation = dataset.valid.nnz > 0
    last_eval = cfg.max_epochs - cfg.max_epochs % cfg.eval_interval

    best_state: ModelState | None = None
    best_value = -np.inf
    evals_since_best = 0

    for epoch in range(1, cfg.max_epochs + 1):
        batch_losses = []
        for batch in make_batches(dataset.train, cfg.batch_size, epoch - 1, cfg.seed):
            loss, grads = calculate_loss(state, batch, inputs)
            batch_losses.append(loss)
            if cfg.optimizer == "adam":
                adam_step(state, grads, opt, cfg)
            else:
                sgd_step(state, grads, cfg)
        log.epoch_losses.append(float(np.mean(batch_losses)))

        if has_validation and epoch % cfg.eval_interval == 0:
            shared = ranking if epoch == last_eval else None
            report = evaluate(state, dataset, "valid", (stop_k,), inputs, ranking=shared)
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

    if ranking is not None and log.best_epoch != last_eval:
        ranking.ranked[:] = False
    # without a validation pick, the final state is returned: nothing else holds it
    return state if best_state is None else best_state, log


def write_train_log(log: TrainLog, path: str | os.PathLike) -> None:
    """TSV log: `epoch \\t mean_loss` rows interleaved with
    `eval \\t epoch \\t metric \\t value` rows of the log's stop metric, in epoch order."""
    evals = dict((epoch, report) for epoch, report in log.evaluations)
    name, k = parse_metric_spec(log.stop_metric)
    with atomic_write(path) as fh:
        for idx, loss in enumerate(log.epoch_losses, start=1):
            fh.write(f"{idx}\t{loss:.6f}\n")
            if idx in evals:
                fh.write(f"eval\t{idx}\t{name}@{k}\t{evals[idx].get(name, k):.6f}\n")
