"""Dataset tests: boost ratios, the synthetic latent-skill generator,
cold-start splitting, batching, and file-format round-trips."""

import os
from fractions import Fraction

import numpy as np
import pytest

from gram import dataset as D
from gram.metrics import auc


def u(uid, pairs):
    return D.UserSequence(user_id=uid, interactions=tuple(pairs))


def dup_heavy_batch():
    """3 users, 12 interactions, 5 unique items."""
    return D.Batch(users=[
        u(0, [(0, 1), (1, 0), (2, 1), (0, 0)]),
        u(1, [(1, 1), (3, 0), (1, 1), (2, 0)]),
        u(2, [(4, 1), (0, 0), (4, 1), (3, 1)]),
    ])


def test_boost_ratio_three_users_five_items():
    b = dup_heavy_batch()
    assert b.n_interactions() == 12
    assert len(b.unique_items) == 5
    r = D.boost_ratio(b)
    assert r == Fraction(12, 5)
    assert float(r) == pytest.approx(2.4)


def test_boost_ratio_all_distinct_is_one():
    b = D.Batch(users=[u(0, [(0, 1), (1, 0)]), u(1, [(2, 1), (3, 1)])])
    assert D.boost_ratio(b) == 1


def test_boost_ratio_single_item_repeated():
    k = 7
    b = D.Batch(users=[u(0, [(5, 1)] * k)])
    assert D.boost_ratio(b) == k


def test_boost_ratio_empty_batch():
    with pytest.raises(ValueError):
        D.boost_ratio(D.Batch(users=[]))


def test_metadata_epoch_ratios():
    data_dir = os.path.join(os.path.dirname(__file__), "data")
    expected = {"spanish.json": 60.45, "toeic.json": 10096.9, "mind.json": 36.10}
    for fname, ratio in expected.items():
        stats = D.stats_from_metadata(os.path.join(data_dir, fname))
        assert D.epoch_boost_ratio(stats) == pytest.approx(ratio, abs=0.05)


def test_epoch_ratio_equals_whole_dataset_batch_ratio():
    d, _ = D.generate_synthetic(D.GenConfig(n_users=40, n_items=20), seed=3)
    stats = D.compute_stats(d)
    whole = D.Batch(users=d.users)
    # every item must occur for the two to coincide
    if len(whole.unique_items) == len(d.items):
        assert D.epoch_boost_ratio(stats) == pytest.approx(float(D.boost_ratio(whole)))
    else:
        assert float(D.boost_ratio(whole)) > D.epoch_boost_ratio(stats)


# ---------------------------------------------------------------------------
# Synthetic generator
# ---------------------------------------------------------------------------


def oracle_auc(d, latents):
    scores = [latents.response_prob(user.user_id, item)
              for user in d.users for item, _ in user.interactions]
    labels = [r for user in d.users for _, r in user.interactions]
    return auc(np.array(scores, dtype=np.float64), np.array(labels))


def test_generator_is_deterministic(tmp_path):
    cfg = D.GenConfig(n_users=30, n_items=15)
    d1, l1 = D.generate_synthetic(cfg, seed=11)
    d2, l2 = D.generate_synthetic(cfg, seed=11)
    assert d1 == d2
    assert np.array_equal(l1.user_ability, l2.user_ability)

    a, b = tmp_path / "a", tmp_path / "b"
    D.save_dataset(d1, a)
    D.save_dataset(d2, b)
    for name in (D.ITEMS_FILENAME, D.INTERACTIONS_FILENAME):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    d3, _ = D.generate_synthetic(cfg, seed=12)
    assert d1 != d3


def test_generator_respects_ranges():
    cfg = D.GenConfig(n_users=50, n_items=25, vocab_size=60, n_topics=5,
                      seq_len_range=(3, 9), token_len_range=(2, 6))
    d, latents = D.generate_synthetic(cfg, seed=0)
    assert len(d.items) == 25
    assert len(d.users) == 50
    for it in d.items:
        assert 2 <= len(it.tokens) <= 6
        assert all(0 <= t < 60 for t in it.tokens)
    for user in d.users:
        assert 3 <= len(user) <= 9
        assert all(r in (0, 1) for _, r in user.interactions)
    assert latents.item_topic.shape == (25,)
    assert latents.user_ability.shape == (50, 5)


def test_generator_config_validation():
    with pytest.raises(ValueError):
        D.GenConfig(n_topics=30, n_items=10).validate()
    with pytest.raises(ValueError):
        D.GenConfig(vocab_size=8, n_topics=7).validate()  # pools too small
    with pytest.raises(ValueError):
        D.GenConfig(seq_len_range=(1, 5)).validate()
    with pytest.raises(ValueError):
        D.GenConfig(noise=1.5).validate()


def test_full_noise_destroys_signal():
    cfg = D.GenConfig(n_users=200, n_items=40, noise=0.5)
    d, latents = D.generate_synthetic(cfg, seed=7)
    assert oracle_auc(d, latents) == pytest.approx(0.5, abs=0.03)


@pytest.mark.parametrize("dist", ["normal", "bimodal"])
def test_oracle_auc_high_when_ability_dominates(dist):
    cfg = D.GenConfig(n_users=200, n_items=40, noise=0.0, ability_dist=dist,
                      ability_std=3.0, difficulty_std=0.3)
    d, latents = D.generate_synthetic(cfg, seed=8)
    assert oracle_auc(d, latents) >= 0.9


def test_default_config_leaves_learning_headroom():
    # criterion: trained models must reach AUC 0.75, so the Bayes scorer on
    # the default config has to sit well above that
    d, latents = D.generate_synthetic(D.GenConfig(), seed=2024)
    assert oracle_auc(d, latents) >= 0.85


def test_default_config_every_item_occurs():
    d, _ = D.generate_synthetic(D.GenConfig(), seed=2024)
    seen = {item for user in d.users for item, _ in user.interactions}
    assert seen == {it.item_id for it in d.items}


def test_zipf_popularity_skews_occurrences():
    d, _ = D.generate_synthetic(D.GenConfig(zipf_exponent=1.0), seed=5)
    counts = np.zeros(80)
    for user in d.users:
        for item, _ in user.interactions:
            counts[item] += 1
    top = np.sort(counts)[::-1]
    # the most popular item should dwarf the median one
    assert top[0] > 4 * np.median(counts)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def test_cold_start_split_invariants():
    d, _ = D.generate_synthetic(D.GenConfig(n_users=100, n_items=30), seed=1)
    train, test, cs_items = D.cold_start_split(d, n_cs_items=5, seed=9)
    assert len(cs_items) == 5
    train_items = {item for user in train.users for item, _ in user.interactions}
    assert train_items.isdisjoint(cs_items)
    test_items = {item for user in test.users for item, _ in user.interactions}
    assert cs_items <= test_items
    assert all(len(user) >= 2 for user in train.users)
    assert len(train.users) + len(test.users) <= len(d.users)
    assert {u_.user_id for u_ in train.users}.isdisjoint({u_.user_id for u_ in test.users})


def test_cold_start_split_infeasible():
    d, _ = D.generate_synthetic(D.GenConfig(n_users=20, n_items=10), seed=1)
    with pytest.raises(ValueError):
        D.cold_start_split(d, n_cs_items=10, seed=0)


def test_split_users_fraction():
    users = [u(i, [(0, 1), (0, 0)]) for i in range(10)]
    a, b = D.split_users(users, 0.3, seed=4)
    assert len(b) == 3 and len(a) == 7
    assert {x.user_id for x in a} | {x.user_id for x in b} == set(range(10))


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def test_batch_iter_partitions_users():
    users = [u(i, [(0, 1), (1, 0)]) for i in range(10)]
    batches = list(D.batch_iter(users, 4, shuffle_seed=0))
    assert [len(b.users) for b in batches] == [4, 4, 2]
    seen = [x.user_id for b in batches for x in b.users]
    assert sorted(seen) == list(range(10))

    again = list(D.batch_iter(users, 4, shuffle_seed=0))
    assert [x.user_id for b in again for x in b.users] == seen
    other = list(D.batch_iter(users, 4, shuffle_seed=1))
    assert [x.user_id for b in other for x in b.users] != seen


def test_mean_boost_ratio_grows_with_batch_size():
    d, _ = D.generate_synthetic(D.GenConfig(n_users=120, n_items=30), seed=6)

    def mean_ratio(size):
        vals = []
        for seed in range(5):
            for b in D.batch_iter(d.users, size, shuffle_seed=seed):
                vals.append(float(D.boost_ratio(b)))
        return np.mean(vals)

    assert mean_ratio(8) >= mean_ratio(4)
    assert mean_ratio(4) >= 1.0


# ---------------------------------------------------------------------------
# Files and stats
# ---------------------------------------------------------------------------


def test_round_trip_identity(tmp_path):
    d, _ = D.generate_synthetic(D.GenConfig(n_users=25, n_items=12), seed=13)
    D.save_dataset(d, tmp_path)
    assert D.load_dataset(tmp_path) == d


def test_file_format_exact_layout(tmp_path):
    d = D.Dataset(
        items=[D.Item(0, (5, 6)), D.Item(1, (7,))],
        users=[u(0, [(0, 1), (1, 0)]), u(1, [(1, 1), (1, 1)])],
    )
    D.save_dataset(d, tmp_path)
    assert (tmp_path / D.ITEMS_FILENAME).read_text() == "0\t5 6\n1\t7\n"
    assert (tmp_path / D.INTERACTIONS_FILENAME).read_text() == "0\t0:1,1:0\n1\t1:1,1:1\n"


def test_malformed_files_raise(tmp_path):
    items = tmp_path / "items.tsv"
    items.write_text("0\t1 2\nnot-an-id\t3\n")
    with pytest.raises(ValueError, match="2"):
        D.load_items(items)
    inter = tmp_path / "inter.tsv"
    inter.write_text("0\t1:1,2:oops\n")
    with pytest.raises(ValueError, match="1"):
        D.load_interactions(inter)


def test_compute_stats_hand_case():
    d = D.Dataset(
        items=[D.Item(0, (1, 2, 3)), D.Item(1, (4,))],
        users=[u(0, [(0, 1), (1, 0), (0, 1)]), u(1, [(1, 1), (0, 0), (1, 0)])],
    )
    s = D.compute_stats(d)
    assert (s.n_users, s.n_items, s.n_interactions) == (2, 2, 6)
    assert s.avg_l_t == pytest.approx(2.0)
    assert s.avg_l_i == pytest.approx(3.0)
    assert s.epoch_boost_ratio == pytest.approx(3.0)
    blob = s.to_json()
    assert blob.index('"n_users"') < blob.index('"n_items"') < blob.index('"epoch_boost_ratio"')


def test_dataset_rejects_unknown_item_refs():
    with pytest.raises(ValueError):
        D.Dataset(items=[D.Item(0, (1,))], users=[u(0, [(3, 1), (0, 0)])])


def test_dataset_rejects_duplicate_item_ids():
    with pytest.raises(ValueError):
        D.Dataset(items=[D.Item(0, (1,)), D.Item(0, (2,))], users=[])
