"""Full-sort ranking evaluation with Recall, Precision, NDCG and MAP.

Protocol: for every user with ground truth in the target split, score the
whole catalog, mask the user's train items (and only those), take the
top-K by descending score with ties broken by ascending item index, and
average each metric over the evaluated users in user-index order.

``evaluate`` is the one ranking path. It encodes the model (``models.encode``)
only when a target user lacks a list, then scores those users 512 at a time
into one score buffer per call, and masks and ranks them, through
``full_sort_predict``, ``mask_trained`` and ``top_k``; a caller that wants
per-user top-K lists reads ``ranking.lists``. Both ranking helpers take a 2-D
chunk of score rows: ``mask_trained`` masks the chunk's train items in place
in one scatter. ``top_k`` splits each row into groups of 16 items and takes
the K-th largest group maximum as a floor: K distinct items reach it, so it is
at most the row's K-th best score and no item below it can make the list. The
items strictly above the floor lie in fewer than K groups or in the last few
ungrouped items, so a row has fewer than 16 K of them; of the items tied at
the floor, only as many as can still fit in the list are kept, in item order.
Sorting these candidates by (-score, item) gives the exact list and tie rule
without partitioning the whole catalog. A chunk's hits are the (user, rank)
cells where its lists meet one reused boolean truth mask; a report's metrics
come from all its hits at once, each user's terms added in list order, and
are summed over users in order; the scalar one-list functions in
``tests/eval_oracle.py`` define the same values and are the reference the
tests compare against.

Only train items are masked, so a user's list does not depend on the target
split, and the validation and test reports of one trained model can share
one ranking. The caller owns it: ``run_single`` makes one ``Ranking``, which
``fit``'s last scheduled validation may fill and both reports read.
``evaluate`` ranks into it only the target users it does not hold yet, and
reads a prefix of its lists for a smaller K; a ranking with another user
count, or too narrow for the cutoffs, is refused with ``ValueError``. A
ranking is kept only while the model and the train split stay unchanged.
Without one, ``evaluate`` ranks afresh and keeps nothing once it returns.

A model whose user or item count differs from the dataset's is refused
with ``DatasetMismatch`` (``mmrec eval`` exits 1).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import Dataset, InteractionSet
from .errors import DatasetMismatch, EmptySplit
from .fileio import atomic_write
from .models import ModelInputs, ModelState, _check_inputs, encode, full_sort_predict

METRICS = ("recall", "precision", "ndcg", "map")
DEFAULT_CUTOFFS = (5, 10, 20, 50)
_EVAL_CHUNK = 512
# items per group in top_k's bound on the K-th best score
_GROUP = 16


def parse_metric_spec(spec: str) -> tuple[str, int]:
    """Parse 'recall@20' into ('recall', 20)."""
    name, _, k_text = spec.partition("@")
    name = name.strip().lower()
    if name not in METRICS or not k_text.strip().isdigit() or int(k_text) < 1:
        raise ValueError(f"bad metric spec {spec!r}, expected e.g. recall@20")
    return name, int(k_text)


def check_cutoffs(cutoffs) -> tuple[int, ...]:
    """The cutoffs as sorted distinct ints; ValueError if none, or one below 1."""
    checked = tuple(sorted({int(k) for k in cutoffs}))
    if not checked or checked[0] < 1:
        raise ValueError(f"cutoffs must be integers >= 1, got {list(checked)}")
    return checked


@dataclass
class MetricReport:
    cutoffs: tuple[int, ...]
    values: dict[str, dict[int, float]]
    n_evaluated: int

    def get(self, metric: str, k: int) -> float:
        return self.values[metric][k]


def mask_trained(scores: np.ndarray, train: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``scores``, a float64 chunk of rows, with the train items at the
    ``(rows, items)`` pair ``train`` set to -inf in place."""
    scores[train] = -np.inf
    return scores


def _floor(scores: np.ndarray, k: int) -> np.ndarray:
    """A lower bound on each row's K-th best score, never below the lowest
    finite float: the K-th largest of the row's group maxima (NaN ignored),
    where item j of the first ``_GROUP * g`` items is in group ``j mod g``.
    The K groups whose maxima reach it hold K distinct items that score at
    least as much, so no item below the bound can make the top K."""
    n_rows, n_items = scores.shape
    groups = n_items // _GROUP
    lowest = np.nextafter(-np.inf, 0.0)
    if groups <= k:
        return np.full(n_rows, lowest)
    maxima = np.fmax.reduce(scores[:, :_GROUP * groups].reshape(n_rows, _GROUP, groups), axis=1)
    maxima[np.isnan(maxima)] = -np.inf
    maxima.partition(groups - k, axis=1)
    return np.maximum(maxima[:, groups - k], lowest)


def top_k(masked_scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the K best non-masked items of each row of a chunk.

    Descending score; equal scores fall to the lower item index; masked
    (-inf) and NaN items never appear. The result is a (rows, min(k,
    n_items)) array; a row with fewer than k unmasked items is padded with
    -1 after its last item.

    Each row gets a floor at or below its K-th best score (``_floor``), so
    every listed item scores at least the floor. The items strictly above
    it lie in fewer than K groups or in the ungrouped tail of fewer than
    ``_GROUP`` items, so a row has fewer than ``_GROUP`` * K of them. Of the
    items tied at the floor only the first (width - number above) in item
    order are kept: every item above outranks them, and they outrank every
    later tied item. Sorting each row's kept candidates by (-score, item)
    then gives the same list as sorting the whole row.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    scores = np.asarray(masked_scores, dtype=np.float64)
    n_rows, n_items = scores.shape
    width = min(k, n_items)
    floor = _floor(scores, k)
    # row-major, so each row's candidates come in item order
    rows, items = np.divmod(np.flatnonzero(scores >= floor[:, None]), n_items)
    values = scores[rows, items]
    tied = values == floor[rows]
    above = np.bincount(rows[~tied], minlength=n_rows)
    tied_rows = rows[tied]
    tie_rank = np.arange(len(tied_rows)) - np.searchsorted(tied_rows, tied_rows)
    keep = ~tied
    keep[tied] = tie_rank < width - above[tied_rows]
    rows, items, values = rows[keep], items[keep], values[keep]
    column = np.arange(len(rows)) - np.searchsorted(rows, rows)
    # padding sorts after every candidate, whose score is at least the
    # lowest finite float, and keeps -1 as its item
    keys = np.full((n_rows, max(column.max(initial=-1) + 1, width)), np.inf)
    keys[rows, column] = -values
    candidates = np.full(keys.shape, -1, dtype=np.int64)
    candidates[rows, column] = items
    order = np.argsort(keys, axis=1, kind="stable")[:, :width]
    return np.take_along_axis(candidates, order, axis=1)


def _ideal_dcg(n_hits: int) -> float:
    return sum(1.0 / math.log2(pos + 1) for pos in range(1, n_hits + 1))


def _entries(matrix: InteractionSet, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in ``users``, column) of every stored entry of those rows."""
    starts = matrix.indptr[users]
    counts = matrix.indptr[users + 1] - starts
    firsts = np.cumsum(counts) - counts
    positions = np.arange(counts.sum()) + np.repeat(starts - firsts, counts)
    return np.repeat(np.arange(len(users)), counts), matrix.indices[positions]


class Ranking:
    """Top-K lists per user of one trained model over its train mask.

    Row u of the (n_users, width) int64 table ``lists`` holds user u's list
    once ``ranked[u]`` is set; ``evaluate`` ranks into it only the target
    users it lacks. The caller keeps a ranking only while the model and the
    train split stay unchanged: nothing checks that.
    """

    def __init__(self, n_users: int, width: int):
        self.lists = np.empty((n_users, width), dtype=np.int64)
        self.ranked = np.zeros(n_users, dtype=bool)


def _metric_values(users: np.ndarray, ranks: np.ndarray, n_truth: np.ndarray,
                   cutoffs: tuple[int, ...]) -> np.ndarray:
    """Per-user metric values, shape (len(n_truth), len(METRICS), len(cutoffs))
    in ``METRICS`` order, from a report's hits: hit i is at 1-based list
    position ``ranks[i]`` of user ``users[i]``, in user and then list order.
    ``np.bincount`` adds each user's terms in list order from 0.0, as the oracle does."""
    n_users = len(n_truth)
    hits_so_far = np.arange(1, len(users) + 1) - np.searchsorted(users, users)
    discounts = np.array([1.0 / math.log2(p + 1) for p in range(1, ranks.max(initial=0) + 1)])[ranks - 1]
    precisions = hits_so_far / ranks
    ideal = np.minimum(n_truth[:, None], np.array(cutoffs))
    lengths, inverse = np.unique(ideal, return_inverse=True)
    idcg = np.array([_ideal_dcg(int(n)) for n in lengths])[inverse].reshape(ideal.shape)
    values = np.empty((n_users, len(METRICS), len(cutoffs)))
    for j, k in enumerate(cutoffs):
        upto = ranks <= k
        hit_count = np.bincount(users[upto], minlength=n_users)
        values[:, 0, j] = hit_count / n_truth
        values[:, 1, j] = hit_count / k
        values[:, 2, j] = np.bincount(users[upto], discounts[upto], n_users) / idcg[:, j]
        values[:, 3, j] = np.bincount(users[upto], precisions[upto], n_users) / ideal[:, j]
    return values


def evaluate(
    state: ModelState,
    dataset: Dataset,
    target: str,
    cutoffs: tuple[int, ...] = DEFAULT_CUTOFFS,
    inputs: ModelInputs = ModelInputs(),
    ranking: Ranking | None = None,
) -> MetricReport:
    """Mean ranking metrics over users with ground truth in ``target``,
    read from ``ranking`` after ranking into it the users it lacks; without
    one, every such user is ranked afresh."""
    cutoffs = check_cutoffs(cutoffs)
    if target not in ("valid", "test"):
        raise ValueError(f"target split must be valid or test, got {target!r}")
    if (state.n_users, state.n_items) != (dataset.n_users, dataset.n_items):
        raise DatasetMismatch(
            f"model has {state.n_users} users and {state.n_items} items, "
            f"dataset has {dataset.n_users} and {dataset.n_items}"
        )
    width = min(cutoffs[-1], dataset.n_items)
    if ranking is None:
        ranking = Ranking(dataset.n_users, width)
    elif ranking.lists.shape[0] != dataset.n_users or not width <= ranking.lists.shape[1] <= dataset.n_items:
        raise ValueError(
            f"a ranking of shape {ranking.lists.shape} does not fit {dataset.n_users} users "
            f"and lists of {width} to {dataset.n_items} items"
        )
    split = getattr(dataset, target)
    n_truth = np.diff(split.indptr)
    users = np.flatnonzero(n_truth > 0)
    if users.size == 0:
        raise EmptySplit(f"no user has ground truth in the {target} split")
    _check_inputs(state, inputs)
    missing = users[~ranking.ranked[users]]
    if missing.size:
        rep = encode(state, inputs)
        scores = np.empty((min(_EVAL_CHUNK, len(missing)), dataset.n_items))
        for start in range(0, len(missing), _EVAL_CHUNK):
            chunk = missing[start:start + _EVAL_CHUNK]
            masked = mask_trained(full_sort_predict(rep, chunk, out=scores), _entries(dataset.train, chunk))
            ranking.lists[chunk] = top_k(masked, ranking.lists.shape[1])
            ranking.ranked[chunk] = True
    # one truth mask per call, set and cleared per chunk; a chunk's truth
    # entries are one slice of the split, as the users between its own hold none
    truth = np.zeros((min(_EVAL_CHUNK, len(users)), dataset.n_items), dtype=bool)
    hits = []
    for start in range(0, len(users), _EVAL_CHUNK):
        chunk = users[start:start + _EVAL_CHUNK]
        truth_rows = np.repeat(np.arange(len(chunk), dtype=np.int16), n_truth[chunk])
        entries = truth_rows, split.indices[split.indptr[chunk[0]]:split.indptr[chunk[-1] + 1]]
        truth[entries] = True
        lists = ranking.lists[chunk, :width]
        # a -1 pad reads the last item's cell, so it is masked out
        rows, ranks = np.nonzero(np.take_along_axis(truth[:len(chunk)], lists, axis=1) & (lists >= 0))
        truth[entries] = False
        hits.append((rows + start, ranks + 1))
    values = _metric_values(*map(np.concatenate, zip(*hits)), n_truth[users], cutoffs)
    n_evaluated = len(values)
    # summed in user order, as a running total would be
    sums = np.add.accumulate(values, axis=0)[-1]
    report = {
        m: {k: float(sums[i, j] / n_evaluated) for j, k in enumerate(cutoffs)}
        for i, m in enumerate(METRICS)
    }
    return MetricReport(cutoffs=cutoffs, values=report, n_evaluated=n_evaluated)


def write_metric_report(report: MetricReport, path: str | os.PathLike) -> None:
    with atomic_write(path) as fh:
        fh.write(format_metric_report(report))


def format_metric_report(report: MetricReport) -> str:
    lines = ["metric\tk\tvalue"]
    for metric in METRICS:
        for k in report.cutoffs:
            lines.append(f"{metric}\t{k}\t{report.get(metric, k):.6f}")
    lines.append(f"n_evaluated\t{report.n_evaluated}")
    return "\n".join(lines) + "\n"
