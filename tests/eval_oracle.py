"""Scalar reference metrics for the vectorized evaluator.

These are the one-list ``*_at_k`` functions that ``mmrec.evaluation``
scored users with before it ranked and scored 512 users at a time, kept as
an oracle in the way ``data_oracle`` backs the columnar data pipeline. The
evaluator computes each value with the same operations in the same order,
so the tests compare the two with exact equality.
"""

from __future__ import annotations

import math

import numpy as np


class EmptyGroundTruth(Exception):
    """A metric was asked of a list against an empty ground-truth set."""


def recall_at_k(topk: np.ndarray, ground_truth: set[int], k: int) -> float:
    if not ground_truth:
        raise EmptyGroundTruth
    hits = sum(1 for i in topk[:k] if int(i) in ground_truth)
    return hits / len(ground_truth)


def precision_at_k(topk: np.ndarray, ground_truth: set[int], k: int) -> float:
    """Hits over K; K stays in the denominator even for short lists."""
    if not ground_truth:
        raise EmptyGroundTruth
    hits = sum(1 for i in topk[:k] if int(i) in ground_truth)
    return hits / k


def ndcg_at_k(topk: np.ndarray, ground_truth: set[int], k: int) -> float:
    if not ground_truth:
        raise EmptyGroundTruth
    dcg = 0.0
    for pos, item in enumerate(topk[:k], start=1):
        if int(item) in ground_truth:
            dcg += 1.0 / math.log2(pos + 1)
    ideal = sum(1.0 / math.log2(pos + 1) for pos in range(1, min(len(ground_truth), k) + 1))
    return dcg / ideal


def map_at_k(topk: np.ndarray, ground_truth: set[int], k: int) -> float:
    """Average precision of one list, normalized by min(|GT|, K); the
    reported MAP is the mean of this over evaluated users."""
    if not ground_truth:
        raise EmptyGroundTruth
    hits = 0
    precision_sum = 0.0
    for pos, item in enumerate(topk[:k], start=1):
        if int(item) in ground_truth:
            hits += 1
            precision_sum += hits / pos
    return precision_sum / min(len(ground_truth), k)
