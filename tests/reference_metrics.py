"""Per-prediction reference metrics: the oracle for ``gram.metrics``.

Each prediction is one ``ScoredLabel`` object; midranks come from a loop
over runs of tied scores, groups from a dict, and MRR and nDCG from a
loop over groups. The array metrics in the library must return the same
values from the same predictions.
"""

from dataclasses import dataclass

import numpy as np

from gram.dataset import batch_iter
from gram.metrics import UndefinedMetricError
from gram.model import batch_scores
from gram.training import EVAL_BATCH_SIZE, eval_encodings


@dataclass(frozen=True)
class ScoredLabel:
    score: float
    label: int
    item_id: int = -1
    group_id: int = -1

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
        if not np.isfinite(self.score):
            raise ValueError("score must be finite")


def pairs_of(scores, labels, item_ids=None, group_ids=None) -> list[ScoredLabel]:
    """One ScoredLabel per entry of the parallel prediction arrays."""
    n = len(scores)
    item_ids = [-1] * n if item_ids is None else item_ids
    group_ids = [-1] * n if group_ids is None else group_ids
    return [ScoredLabel(float(s), int(y), int(i), int(g))
            for s, y, i, g in zip(scores, labels, item_ids, group_ids)]


def _arrays(pairs):
    scores = np.array([p.score for p in pairs], dtype=np.float64)
    labels = np.array([p.label for p in pairs], dtype=np.int64)
    return scores, labels


def _midranks(scores: np.ndarray) -> np.ndarray:
    n = len(scores)
    idx = np.argsort(scores, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j < n and scores[idx[j]] == scores[idx[i]]:
            j += 1
        ranks[idx[i:j]] = 0.5 * (i + j + 1)  # average of 1-based ranks i+1..j
        i = j
    return ranks


def auc(pairs) -> float:
    scores, labels = _arrays(list(pairs))
    if len(scores) == 0:
        raise UndefinedMetricError("AUC of an empty list")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC needs both classes, got {n_pos} positives / {n_neg} negatives")
    ranks = _midranks(scores)
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def cs_auc(pairs, cs_items) -> float:
    cs = set(cs_items)
    if not cs:
        raise UndefinedMetricError("cold-start item set is empty")
    subset = [p for p in pairs if p.item_id in cs]
    if not subset:
        raise UndefinedMetricError("no predictions fall on cold-start items")
    return auc(subset)


def group_by(pairs) -> list[list[ScoredLabel]]:
    groups: dict[int, list[ScoredLabel]] = {}
    for p in pairs:
        groups.setdefault(p.group_id, []).append(p)
    return [groups[k] for k in sorted(groups)]


def _ranked_labels(group) -> np.ndarray:
    """Labels sorted by score descending; ties keep input order (stable)."""
    scores, labels = _arrays(group)
    order = np.argsort(-scores, kind="stable")
    return labels[order]


def mrr(groups) -> float:
    groups = list(groups)
    if not groups:
        raise UndefinedMetricError("MRR of zero groups")
    total = 0.0
    for g in groups:
        ranked = _ranked_labels(g)
        hits = np.flatnonzero(ranked == 1)
        if hits.size == 0:
            raise UndefinedMetricError("MRR group without a positive")
        total += 1.0 / (hits[0] + 1)
    return total / len(groups)


def ndcg_at_k(groups, k: int) -> float:
    if k < 1:
        raise ValueError("k must be positive")
    groups = list(groups)
    if not groups:
        raise UndefinedMetricError("nDCG of zero groups")
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    total = 0.0
    for g in groups:
        ranked = _ranked_labels(g)
        n_pos = int(ranked.sum())
        if n_pos == 0:
            raise UndefinedMetricError("nDCG group without a positive")
        top = ranked[:k]
        dcg = float((top * discounts[: len(top)]).sum())
        idcg = float(discounts[: min(n_pos, k)].sum())
        total += dcg / idcg
    return total / len(groups)


def evaluate(state, users, cs_items=None) -> dict:
    """``training.evaluate`` built from one ScoredLabel per prediction."""
    enc = eval_encodings(state)
    pairs = []
    base = 0
    for b in batch_iter(users, EVAL_BATCH_SIZE):
        rows = np.searchsorted(state.item_ids, b.items)
        probs, labels, item_ids, user_idx = batch_scores(b, rows, enc, state.cf)
        pairs.extend(
            ScoredLabel(float(s), int(y), item_id=int(i), group_id=base + int(u))
            for s, y, i, u in zip(probs, labels, item_ids, user_idx))
        base += len(b.users)
    out = {"auc": auc(pairs), "n_predictions": len(pairs)}
    if cs_items is not None:
        try:
            out["cs_auc"] = cs_auc(pairs, cs_items)
        except UndefinedMetricError:
            out["cs_auc"] = None
    groups = [g for g in group_by(pairs) if any(p.label == 1 for p in g)]
    if groups:
        out["mrr"] = mrr(groups)
        out["ndcg@5"] = ndcg_at_k(groups, 5)
        out["ndcg@10"] = ndcg_at_k(groups, 10)
    return out
