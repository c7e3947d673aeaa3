"""Ranking metrics on prediction arrays: AUC, cold-start AUC, MRR, nDCG@k.

A set of predictions is parallel 1-D arrays, one entry per prediction:
float64 scores, 0/1 labels, item ids and group ids (the user a
prediction belongs to). ``check_predictions`` is the entry check on
them; the metrics assume arrays it accepts.

AUC uses the rank-based Mann-Whitney form with midrank tie handling
(O(n log n)). ``group_by`` ranks every group's labels by score
descending, ties in input order, with one lexsort; MRR and nDCG reduce
that ranking per group. nDCG uses binary gain with the 1/log2(rank+1)
discount and an ideal DCG computed from the group's positive count. The
per-prediction versions of all of these live in the tests as oracles.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "Ranking",
    "UndefinedMetricError",
    "check_predictions",
    "auc",
    "cs_auc",
    "mrr",
    "ndcg_at_k",
    "group_by",
]


class UndefinedMetricError(ValueError):
    """The metric is not defined on the given inputs (e.g. single-class
    labels for AUC, or a group without positives for MRR/nDCG)."""


class Ranking(NamedTuple):
    """Labels ranked within groups: groups in ascending id order, each by
    score descending with ties in input order. Group g's labels start at
    ``starts[g]`` and run to the next group's start."""
    labels: np.ndarray
    starts: np.ndarray


def check_predictions(scores: np.ndarray, labels: np.ndarray, group_ids: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first prediction whose score is not
    finite or whose label is not 0 or 1."""
    bad = ~np.isfinite(scores) | ((labels != 0) & (labels != 1))
    if bad.any():
        i = int(np.argmax(bad))
        what = (f"score {scores[i]} is not finite" if not np.isfinite(scores[i])
                else f"label {labels[i]} is not 0 or 1")
        raise ValueError(f"prediction {i} (group {group_ids[i]}): {what}")


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Start index of each run of equal adjacent values."""
    new = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with tied scores sharing their average rank."""
    order = np.argsort(scores, kind="stable")
    starts = _run_starts(scores[order])
    ends = np.append(starts[1:], len(scores))
    ranks = np.empty(len(scores), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)  # mean of ranks starts+1..ends
    return ranks


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability that a random positive outscores a random negative,
    ties counting one half."""
    if len(scores) == 0:
        raise UndefinedMetricError("AUC of zero predictions")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC needs both classes, got {n_pos} positives / {n_neg} negatives")
    ranks = _midranks(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def cs_auc(scores: np.ndarray, labels: np.ndarray, item_ids: np.ndarray, cs_items) -> float:
    """AUC restricted to predictions on cold-start items."""
    cs = np.fromiter(cs_items, dtype=np.int64)
    if cs.size == 0:
        raise UndefinedMetricError("cold-start item set is empty")
    keep = np.isin(item_ids, cs)
    if not keep.any():
        raise UndefinedMetricError("no predictions fall on cold-start items")
    return auc(scores[keep], labels[keep])


def group_by(scores: np.ndarray, labels: np.ndarray, group_ids: np.ndarray) -> Ranking:
    """Rank each group's labels by score, for ``mrr`` and ``ndcg_at_k``."""
    order = np.lexsort((-scores, group_ids))
    return Ranking(labels[order], _run_starts(group_ids[order]))


def mrr(groups: Ranking) -> float:
    """Mean reciprocal rank of each group's first positive."""
    labels, starts = groups
    if len(starts) == 0:
        raise UndefinedMetricError("MRR of zero groups")
    n = len(labels)
    first = np.minimum.reduceat(np.where(labels == 1, np.arange(n), n), starts)
    if (first == n).any():
        raise UndefinedMetricError("MRR group without a positive")
    # summed one term at a time in group order; numpy's pairwise sum would move the last bits
    return sum((1.0 / (first - starts + 1)).tolist()) / len(starts)


def ndcg_at_k(groups: Ranking, k: int) -> float:
    """Mean nDCG@k with binary gains and 1/log2(rank+1) discount."""
    if k < 1:
        raise ValueError("k must be positive")
    labels, starts = groups
    if len(starts) == 0:
        raise UndefinedMetricError("nDCG of zero groups")
    n_pos = np.add.reduceat(labels, starts)
    if (n_pos == 0).any():
        raise UndefinedMetricError("nDCG group without a positive")
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    top = np.minimum(np.diff(starts, append=len(labels)), k)
    dcg = np.empty(len(starts))
    # one row sum per top-k length, so each group's DCG adds its terms in
    # the order a 1-D sum over that group's top k would
    for width in np.unique(top):
        rows = top == width
        dcg[rows] = (labels[starts[rows, None] + np.arange(width)] * discounts[:width]).sum(axis=1)
    ideal = np.array([discounts[:m].sum() for m in range(top.max() + 1)])
    return sum((dcg / ideal[np.minimum(n_pos, k).astype(np.intp)]).tolist()) / len(starts)
