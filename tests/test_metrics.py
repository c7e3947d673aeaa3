"""Metric tests: hand-computed cases, a brute-force pairwise AUC oracle,
and the per-prediction metrics in ``reference_metrics`` as the oracle on
random inputs."""

import numpy as np
import pytest

import reference_metrics as R
from gram.metrics import (
    UndefinedMetricError,
    auc,
    check_predictions,
    cs_auc,
    group_by,
    mrr,
    ndcg_at_k,
)


def arr(values, dtype=np.float64):
    return np.asarray(values, dtype=dtype)


def grouped(scores, labels, groups):
    return group_by(arr(scores), arr(labels, np.int64), arr(groups, np.int64))


def pairwise_auc(scores, labels):
    """O(n^2) oracle: fraction of positive/negative pairs ordered
    correctly, ties counting one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_hand_case():
    assert auc(arr([0.9, 0.8, 0.7, 0.1]), arr([1, 0, 1, 0])) == pytest.approx(0.75)


def test_auc_perfect_separation():
    assert auc(arr([0.9, 0.8, 0.2, 0.1]), arr([1, 1, 0, 0])) == 1.0


def test_auc_all_ties():
    assert auc(arr([0.4] * 6), arr([1, 0, 1, 0, 0, 1])) == pytest.approx(0.5)


def test_auc_degenerate_labels():
    with pytest.raises(UndefinedMetricError):
        auc(arr([0.1, 0.2]), arr([1, 1]))
    with pytest.raises(UndefinedMetricError):
        auc(arr([0.1, 0.2]), arr([0, 0]))
    with pytest.raises(UndefinedMetricError):
        auc(arr([]), arr([]))


def test_auc_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 1)
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.sum() in (0, n):
            continue
        assert auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels))


def test_auc_monotone_transform_invariant():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(50)
    labels = (rng.random(50) < 0.4).astype(int)
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == pytest.approx(base)
    assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base)


def test_auc_label_flip_complement():
    rng = np.random.default_rng(2)
    scores = rng.standard_normal(31)  # continuous, so no ties
    labels = (rng.random(31) < 0.5).astype(int)
    assert auc(scores, labels) == pytest.approx(1.0 - auc(scores, 1 - labels))


def test_cs_auc_restriction():
    scores, labels, items = arr([0.9, 0.8, 0.7, 0.1]), arr([1, 0, 1, 0]), arr([1, 1, 2, 2], np.int64)
    assert cs_auc(scores, labels, items, {1, 2}) == pytest.approx(auc(scores, labels))
    # only items 1: 0.9 pos vs 0.8 neg
    assert cs_auc(scores, labels, items, {1}) == pytest.approx(1.0)
    with pytest.raises(UndefinedMetricError):
        cs_auc(scores, labels, items, set())
    with pytest.raises(UndefinedMetricError):
        cs_auc(scores, labels, items, {99})


def test_mrr_hand_cases():
    assert mrr(grouped([0.9, 0.5], [1, 0], [0, 0])) == 1.0
    assert mrr(grouped([0.9, 0.5, 0.1], [0, 1, 0], [0, 0, 0])) == 0.5
    both = grouped([0.9, 0.5, 0.9, 0.5, 0.1], [1, 0, 0, 1, 0], [0, 0, 1, 1, 1])
    assert mrr(both) == pytest.approx(0.75)


def test_mrr_requires_positive():
    no_pos = grouped([0.9, 0.5, 0.3], [1, 0, 0], [0, 1, 1])
    with pytest.raises(UndefinedMetricError, match="MRR group without a positive"):
        mrr(no_pos)
    with pytest.raises(UndefinedMetricError, match="nDCG group without a positive"):
        ndcg_at_k(no_pos, 5)
    empty = grouped([], [], [])
    with pytest.raises(UndefinedMetricError, match="MRR of zero groups"):
        mrr(empty)
    with pytest.raises(UndefinedMetricError, match="nDCG of zero groups"):
        ndcg_at_k(empty, 5)
    with pytest.raises(ValueError, match="k must be positive"):
        ndcg_at_k(grouped([0.9], [1], [0]), 0)


def test_ndcg_hand_cases():
    assert ndcg_at_k(grouped([0.9, 0.5], [1, 0], [0, 0]), 5) == pytest.approx(1.0)
    # positives at ranks 1 and 4 of five, two positives total
    g = grouped([0.9, 0.8, 0.7, 0.6, 0.5], [1, 0, 0, 1, 0], [0] * 5)
    expect = (1.0 + 1.0 / np.log2(5)) / (1.0 + 1.0 / np.log2(3))
    assert ndcg_at_k(g, 5) == pytest.approx(expect)


def test_group_by_ranks_groups_in_id_order_and_ties_in_input_order():
    g = grouped([0.2, 0.7, 0.5, 0.5, 0.9, 0.5], [0, 1, 1, 0, 1, 0], [7, 3, 7, 7, 3, 7])
    # group 3: 0.9 (1), 0.7 (1); group 7: tied 0.5s at inputs 2, 3, 5 keep that order, then 0.2
    assert g.labels.tolist() == [1, 1, 1, 0, 0, 0]
    assert g.starts.tolist() == [0, 2]


def test_ndcg_nondecreasing_in_k_single_positive_groups():
    # with one positive per group the ideal DCG is 1 for every k, so the
    # capped-at-k normalization is monotone (it is not for multi-positive
    # groups, where IDCG@k itself grows with k)
    rng = np.random.default_rng(3)
    scores, labels, ids = [], [], []
    for g in range(6):
        n = int(rng.integers(3, 12))
        y = np.zeros(n, dtype=int)
        y[rng.integers(0, n)] = 1
        scores += list(rng.standard_normal(n))
        labels += list(y)
        ids += [g] * n
    groups = grouped(scores, labels, ids)
    vals = [ndcg_at_k(groups, k) for k in (1, 2, 3, 5, 8, 13, 40)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_ndcg_mrr_bounds_random_groups():
    rng = np.random.default_rng(4)
    scores, labels, ids = [], [], []
    for g in range(8):
        n = int(rng.integers(2, 15))
        y = (rng.random(n) < 0.4).astype(int)
        y[int(rng.integers(0, n))] = 1
        scores += list(rng.standard_normal(n))
        labels += list(y)
        ids += [g] * n
    groups = grouped(scores, labels, ids)
    for k in (1, 3, 5, 10):
        assert 0.0 < ndcg_at_k(groups, k) <= 1.0
    assert 0.0 < mrr(groups) <= 1.0


def random_predictions(rng):
    """Scores drawn from 3-5 values (heavy ties), 0/1 labels, item ids, and
    group ids interleaved in input order; most draws give every group a
    positive."""
    n = int(rng.integers(2, 120))
    values = rng.random(int(rng.integers(3, 6)))
    scores = values[rng.integers(0, len(values), n)]
    labels = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.int64)
    item_ids = rng.integers(0, 12, n)
    group_ids = 3 * rng.integers(0, max(1, n // 4), n)
    if rng.random() < 0.9:
        for g in np.unique(group_ids):
            labels[rng.choice(np.flatnonzero(group_ids == g))] = 1
    return scores, labels, item_ids, group_ids


def agree(ours, oracle) -> bool:
    """Both return the same value, or both raise UndefinedMetricError.
    True when they returned a value."""
    try:
        expect = oracle()
    except UndefinedMetricError:
        with pytest.raises(UndefinedMetricError):
            ours()
        return False
    assert ours() == expect
    return True


def test_array_metrics_equal_the_per_prediction_oracle():
    rng = np.random.default_rng(5)
    defined = {"auc": 0, "cs_auc": 0, "mrr": 0, "ndcg": 0}
    for _ in range(300):
        scores, labels, item_ids, group_ids = random_predictions(rng)
        pairs = R.pairs_of(scores, labels, item_ids, group_ids)
        defined["auc"] += agree(lambda: auc(scores, labels), lambda: R.auc(pairs))
        cs = set(rng.choice(12, int(rng.integers(1, 6)), replace=False).tolist())
        defined["cs_auc"] += agree(lambda: cs_auc(scores, labels, item_ids, cs),
                                   lambda: R.cs_auc(pairs, cs))
        groups, ref_groups = group_by(scores, labels, group_ids), R.group_by(pairs)
        defined["mrr"] += agree(lambda: mrr(groups), lambda: R.mrr(ref_groups))
        for k in (1, 5, 10, 40):
            defined["ndcg"] += agree(lambda: ndcg_at_k(groups, k), lambda: R.ndcg_at_k(ref_groups, k))
    # most cases are defined, so the equalities above carry the test
    assert min(defined["auc"], defined["cs_auc"], defined["mrr"], defined["ndcg"] / 4) > 150, defined


def test_check_predictions_names_the_first_bad_prediction():
    scores = arr([0.5, 0.25, 0.75, 0.5])
    labels = arr([1, 0, 1, 0])
    groups = arr([4, 4, 9, 9], np.int64)
    check_predictions(scores, labels, groups)
    for bad in (np.nan, np.inf, -np.inf):
        s = scores.copy()
        s[2] = bad
        with pytest.raises(ValueError, match=r"prediction 2 \(group 9\): score .* is not finite"):
            check_predictions(s, labels, groups)
    y = labels.copy()
    y[1] = 2
    with pytest.raises(ValueError, match=r"prediction 1 \(group 4\): label 2\.0 is not 0 or 1"):
        check_predictions(scores, y, groups)
    s = scores.copy()
    s[3] = np.nan
    with pytest.raises(ValueError, match=r"prediction 1 \(group 4\): label"):
        check_predictions(s, y, groups)
