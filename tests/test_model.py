"""Tests for the toy CE/CF architectures.

Covers hand-checkable special cases (zeroed weights, empty histories),
finite-difference gradient checks through both forwards, agreement of the
batched paths with the per-user reference in ``reference_cf``,
agreement of the fused encoder with the per-op one in ``reference_ce``,
and checkpoint round-trips.
"""

import json
import re

import numpy as np
import pytest

import reference_ce as RC
import reference_cf as R
from gram import autodiff as ad
from gram import model as M
from gram.autodiff import Tensor, backward, grad_check, sum_all, mul
from gram.dataset import Batch, Item, UserSequence


SMALL = M.ModelConfig(d=4, d_ff=6, l_ce=1, d_h=4, vocab_size=12, max_token_len=8)


def user(uid, pairs):
    """A ``UserSequence`` of (item, response) pairs."""
    return UserSequence(uid, [i for i, _ in pairs], [r for _, r in pairs])


def encode(seqs, ce):
    """``M.ce_encode`` of lists of token ids: rows 0..n-1 of their token table."""
    _, table = M.token_table([Item(k, tuple(toks)) for k, toks in enumerate(seqs)], ce.cfg)
    return M.ce_encode(np.arange(len(seqs)), table, ce)


def to_f32(params):
    """Cast a module's parameters to float32, as init_trainer does for an
    f32 run, and return the module."""
    params.bind(params.flat.astype(np.float32))
    return params


def small_params(seed=0, variant="recurrent", l_ce=1):
    cfg = M.ModelConfig(d=4, d_ff=6, l_ce=l_ce, d_h=4, vocab_size=12,
                        max_token_len=8, cf_variant=variant)
    return M.init_params(cfg, seed)


def get_param(params, name):
    if name.startswith("layer"):
        head, attr = name.split(".")
        return getattr(params.layers[int(head[5:])], attr)
    return getattr(params, name)


def set_param(params, name, value):
    if name.startswith("layer"):
        head, attr = name.split(".")
        setattr(params.layers[int(head[5:])], attr, value)
    else:
        setattr(params, name, value)


def swapped_forward(params, name, forward):
    """Scalar function of one parameter tensor: substitute, run, restore."""

    def f(x):
        old = get_param(params, name)
        set_param(params, name, x)
        try:
            return forward()
        finally:
            set_param(params, name, old)

    return f


def graph_nodes(loss):
    seen, todo = set(), [loss]
    while todo:
        t = todo.pop()
        if id(t) not in seen and not t.is_leaf():
            seen.add(id(t))
            todo.extend(t._parents)
    return len(seen)


# ---------------------------------------------------------------------------
# Content encoder
# ---------------------------------------------------------------------------


def zeroed_ce(cfg):
    """All-zero CE weights except an identity output projection."""
    ce, _ = M.init_params(cfg, seed=1)
    for name, t in ce.named().items():
        t.data[...] = 0.0
    ce.w_out.data[...] = np.eye(cfg.d)
    rng = np.random.default_rng(5)
    ce.token_embedding.data[...] = rng.standard_normal(ce.token_embedding.shape)
    return ce


def test_ce_zero_weights_single_token_is_embedding_row():
    ce = zeroed_ce(SMALL)
    out = encode([[3]], ce)
    assert np.allclose(out.data[0], ce.token_embedding.data[3])


def test_ce_duplicate_tokens_match_single_token():
    ce, _ = small_params(seed=2)
    one = encode([[5]], ce)
    two = encode([[5, 5]], ce)
    assert np.allclose(one.data, two.data, atol=1e-12)


def test_ce_permutation_invariant_without_positions():
    ce, _ = small_params(seed=3)
    a = encode([[1, 4, 7, 2]], ce)
    b = encode([[7, 2, 1, 4]], ce)
    assert np.allclose(a.data, b.data, atol=1e-12)


def test_ce_positional_encoding_breaks_permutation_invariance():
    cfg = M.ModelConfig(d=4, d_ff=6, l_ce=1, d_h=4, vocab_size=12,
                        max_token_len=8, positional_encoding=True)
    ce, _ = M.init_params(cfg, seed=3)
    a = encode([[1, 4, 7, 2]], ce)
    b = encode([[7, 2, 1, 4]], ce)
    assert not np.allclose(a.data, b.data)


def test_token_table_of_no_items_encodes_no_rows():
    ce, _ = small_params()
    item_ids, table = M.token_table([], SMALL)
    assert item_ids.size == table.ids.size == table.lengths.size == 0
    with pytest.raises(ValueError, match="no rows"):
        M.ce_encode(np.arange(0), table, ce)


def test_ce_rejects_an_empty_row():
    # token_table never builds one, since an Item has tokens
    ce, _ = small_params()
    with pytest.raises(ValueError, match="has no tokens"):
        Item(0, ())
    table = M.TokenTable(ids=np.array([1, 2]), starts=np.array([0, 2]), lengths=np.array([2, 0]))
    with pytest.raises(ValueError, match="row 1 has 0 tokens"):
        M.ce_encode(np.array([0, 1]), table, ce)


def test_token_table_truncates_at_max_token_len_and_sorts_by_item_id():
    ce, _ = small_params(seed=4)
    base = list(range(8))
    items = [Item(7, tuple(base + [9, 9])), Item(3, (4, 5)), Item(5, tuple(base))]
    item_ids, table = M.token_table(items, SMALL)
    assert item_ids.tolist() == [3, 5, 7]
    assert table.lengths.tolist() == [2, 8, 8] and table.starts.tolist() == [0, 2, 10]
    assert table.ids.tolist() == [4, 5] + base + base
    assert np.allclose(encode([base + [9, 9]], ce).data,
                       encode([base], ce).data)


def test_ce_rejects_a_row_longer_than_its_max_token_len():
    # a table built for a config that keeps more tokens than the encoder's
    ce, _ = small_params()
    long = M.ModelConfig(d=4, d_ff=6, l_ce=1, d_h=4, vocab_size=12, max_token_len=10)
    _, table = M.token_table([Item(0, (1, 2)), Item(1, tuple(range(10)))], long)
    M.ce_encode(np.array([0, 0]), table, ce)
    with pytest.raises(ValueError, match="row 1 has 10 tokens, outside 1..max_token_len 8"):
        M.ce_encode(np.array([0, 1]), table, ce)


def test_ce_gradient_vs_finite_differences():
    rng = np.random.default_rng(6)
    ce, _ = small_params(seed=6, l_ce=2)
    tokens = [0, 3, 3, 7]
    readout = Tensor(rng.standard_normal((1, SMALL.d)))

    def forward():
        return sum_all(mul(encode([tokens], ce), readout))

    for name in ce.named():
        f = swapped_forward(ce, name, forward)
        x = Tensor(get_param(ce, name).data.copy(), grad_enabled=True)
        err = grad_check(f, x)
        assert err <= 1e-5, f"{name}: {err:.2e}"


# mixed lengths: two of length 3 (one repeated), a 5, an exact 8, and a 10
# that truncates into the length-8 group
MIXED = [[1, 4, 7], [2, 2, 9, 0, 5], [1, 4, 7], [3, 1, 2, 6, 8, 0, 11, 5],
         [6, 5, 4], list(range(10))]


def rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("positions", [False, True])
def test_ce_batched_rows_match_single_item_calls(positions):
    cfg = M.ModelConfig(d=4, d_ff=6, l_ce=2, d_h=4, vocab_size=12,
                        max_token_len=8, positional_encoding=positions)
    ce, _ = M.init_params(cfg, seed=7)
    batched = encode(MIXED, ce).data
    assert batched.shape == (len(MIXED), cfg.d)
    for k, toks in enumerate(MIXED):
        assert rel_gap(batched[k], encode([toks], ce).data[0]) <= 1e-12, k
    assert rel_gap(batched[2], batched[0]) <= 1e-12   # a repeated item


def test_ce_batched_rows_follow_input_order():
    ce, _ = small_params(seed=8)
    forward = encode(MIXED, ce).data
    backward_order = encode(MIXED[::-1], ce).data
    assert rel_gap(backward_order[::-1], forward) <= 1e-12
    # rows of distinct items differ, so a wrong order cannot pass
    assert not np.allclose(forward[0], forward[1])


def test_ce_batched_gradients_equal_sum_of_per_item_gradients():
    rng = np.random.default_rng(9)
    ce, _ = small_params(seed=9, l_ce=2)
    readout = rng.standard_normal((len(MIXED), SMALL.d))
    gmap = backward(sum_all(mul(encode(MIXED, ce), Tensor(readout))))
    total = {name: np.zeros_like(t.data) for name, t in ce.named().items()}
    for k, toks in enumerate(MIXED):
        g_k = backward(sum_all(mul(encode([toks], ce), Tensor(readout[k:k + 1]))))
        for name, t in ce.named().items():
            total[name] += g_k[t].data
    for name, t in ce.named().items():
        assert rel_gap(gmap[t].data, total[name]) <= 1e-12, name


@pytest.mark.parametrize("positions", [False, True])
def test_ce_seeded_backward_equals_the_summed_product_bit_for_bit(positions):
    # backward(out, g) is the chain rule through sum(out * g), the form in
    # which a gram window backpropagates its dL/dh sums
    ce, _ = M.init_params(ce_config(positions=positions), seed=12)
    g = np.random.default_rng(12).standard_normal((len(MIXED), ce.cfg.d))
    kept = g.copy()
    seeded = backward(encode(MIXED, ce), g)
    summed = backward(sum_all(mul(encode(MIXED, ce), Tensor(g))))
    assert np.array_equal(g, kept)              # the seed is read, not written
    for name, t in ce.named().items():
        assert np.array_equal(seeded[t].data, summed[t].data), name


def test_ce_batched_call_saves_as_many_elements_as_per_item_calls():
    from gram.instrument import ActivationAccountant
    ce, _ = small_params(seed=10, l_ce=2)
    batched, per_item = ActivationAccountant(), ActivationAccountant()
    with ad.track_activations(batched):
        encode(MIXED, ce)
    with ad.track_activations(per_item):
        for toks in MIXED:
            encode([toks], ce)
    assert batched.current == per_item.current > 0


def ce_config(l_ce=2, positions=False):
    return M.ModelConfig(d=4, d_ff=6, l_ce=l_ce, d_h=4, vocab_size=12, max_token_len=8,
                         positional_encoding=positions)


@pytest.mark.parametrize("l_ce", [1, 2])
@pytest.mark.parametrize("positions", [False, True])
def test_ce_encode_matches_per_op_reference(l_ce, positions):
    # values and every parameter gradient, MIXED's truncation included
    ce, _ = M.init_params(ce_config(l_ce, positions), seed=11)
    readout = Tensor(np.random.default_rng(11).standard_normal((len(MIXED), 4)))
    fused, ref = encode(MIXED, ce), RC.ce_encode(MIXED, ce)
    assert rel_gap(fused.data, ref.data) <= 1e-12
    g_fused = backward(sum_all(mul(fused, readout)))
    g_ref = backward(sum_all(mul(ref, readout)))
    for name, t in ce.named().items():
        assert rel_gap(g_fused[t].data, g_ref[t].data) <= 1e-12, name


def test_ce_float32_outputs_and_gradients_stay_float32():
    ce = to_f32(M.init_params(ce_config(positions=True), seed=12)[0])
    out = encode(MIXED, ce)
    assert out.dtype == np.float32
    grads = backward(sum_all(out))
    assert all(grads[t].dtype == np.float32 for t in ce.named().values())


def test_ce_token_id_outside_the_vocabulary_raises():
    ce, _ = small_params()
    for bad in (-1, SMALL.vocab_size):
        with pytest.raises(IndexError):
            encode([[1, 2], [3, bad, 4]], ce)


def test_ce_overflowing_embedding_names_the_op_and_token_length():
    # only token 9 overflows; the one item holding it has 5 tokens
    ce, _ = small_params(seed=13)
    ce.token_embedding.data[9] = 1e200
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ad.NonFiniteError, match="ce_block .* token length 5"):
        encode(MIXED, ce)


def test_ce_saved_elements_are_pinned_and_below_the_per_op_graphs():
    # per layer ce_block keeps x and the probabilities: 4 elements per
    # token (30 tokens) plus sum(L^2) = 180; the output matmul keeps the
    # (6, 4) pooled rows. The per-op graphs keep x
    # three times, q, k, v, x1 and the relu output, the probabilities twice
    # and the relu output again.
    from gram.instrument import ActivationAccountant
    ce, _ = small_params(seed=10, l_ce=2)
    fused, per_op = ActivationAccountant(), ActivationAccountant()
    with ad.track_activations(fused):
        encode(MIXED, ce)
    with ad.track_activations(per_op):
        RC.ce_encode(MIXED, ce)
    assert fused.peak == 2 * (4 * 30 + 180) + 24 == 624
    assert per_op.peak == 3384


def test_ce_graph_size_does_not_grow_with_distinct_lengths():
    # one length, then MIXED's three truncated lengths, then eight: a
    # gather, two ce_blocks, segment_mean, the output matmul, and the
    # gather back to input order
    ce, _ = small_params(seed=14, l_ce=2)
    calls = ([[1, 2, 3]] * 4, MIXED, [list(range(n)) for n in range(8, 0, -1)])
    nodes = [graph_nodes(encode(seqs, ce)) for seqs in calls]
    assert nodes == [6, 6, 6]


# ---------------------------------------------------------------------------
# Collaborative filter
# ---------------------------------------------------------------------------


def random_history(rng, p, n):
    hist = []
    for _ in range(n):
        enc = Tensor(rng.standard_normal((1, p.cfg.d)))
        hist.append((enc, int(rng.integers(0, 2))))
    return hist


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_cf_predict_in_open_interval(variant):
    rng = np.random.default_rng(8)
    _, cf = small_params(seed=8, variant=variant)
    for n in (0, 1, 5):
        cand = Tensor(rng.standard_normal((1, cf.cfg.d)))
        prob = R.cf_predict(random_history(rng, cf, n), cand, cf).item()
        assert 0.0 < prob < 1.0


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_cf_empty_history_scores_half(variant):
    # recurrent: zero initial hidden state; attention: zero-initialized bias
    rng = np.random.default_rng(9)
    _, cf = small_params(seed=9, variant=variant)
    cand = Tensor(rng.standard_normal((1, cf.cfg.d)))
    assert R.cf_predict([], cand, cf).item() == pytest.approx(0.5)


def test_cf_recurrent_zero_cell_ignores_history():
    rng = np.random.default_rng(10)
    _, cf = small_params(seed=10)
    for name in ("w_ih", "w_hh", "b_ih", "b_hh", "resp_embedding"):
        get_param(cf, name).data[...] = 0.0
    cand = Tensor(rng.standard_normal((1, cf.cfg.d)))
    p0 = R.cf_predict([], cand, cf).item()
    p5 = R.cf_predict(random_history(rng, cf, 5), cand, cf).item()
    assert p0 == pytest.approx(p5)
    assert p0 == pytest.approx(0.5)


def test_cf_rejects_bad_response_and_long_history():
    rng = np.random.default_rng(11)
    _, cf = small_params(seed=11)
    cand = Tensor(rng.standard_normal((1, cf.cfg.d)))
    with pytest.raises(ValueError):
        R.cf_predict([(cand, 2)], cand, cf)
    too_long = random_history(rng, cf, cf.cfg.max_interactions + 1)
    with pytest.raises(ValueError):
        R.cf_predict(too_long, cand, cf)


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_cf_candidate_gradient_vs_finite_differences(variant):
    rng = np.random.default_rng(12)
    _, cf = small_params(seed=12, variant=variant)
    hist = random_history(rng, cf, 4)

    def f(x):
        return R.cf_predict(hist, x, cf)

    for _ in range(5):
        x = Tensor(rng.standard_normal((1, cf.cfg.d)), grad_enabled=True)
        assert grad_check(f, x) <= 1e-5


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_cf_parameter_gradients_vs_finite_differences(variant):
    rng = np.random.default_rng(13)
    _, cf = small_params(seed=13, variant=variant)
    hist = random_history(rng, cf, 3)
    cand = Tensor(rng.standard_normal((1, cf.cfg.d)))

    def forward():
        return R.cf_predict(hist, cand, cf)

    for name in cf.named():
        f = swapped_forward(cf, name, forward)
        x = Tensor(get_param(cf, name).data.copy(), grad_enabled=True)
        err = grad_check(f, x)
        assert err <= 1e-5, f"{name}: {err:.2e}"


def ce_param_count(cfg):
    """Closed-form CE parameter count from the config dims."""
    d, dff = cfg.d, cfg.d_ff
    per_layer = 4 * d * d + d * dff + dff * d
    return cfg.vocab_size * d + cfg.l_ce * per_layer + d * d


def cf_param_count(cfg):
    """Closed-form CF parameter count for the configured variant."""
    d, dh = cfg.d, cfg.d_h
    if cfg.cf_variant == "recurrent":
        return 2 * d + (2 * d) * 3 * dh + dh * 3 * dh + 3 * dh + 3 * dh + d * dh
    return 2 * d + 2 * ((2 * d) * dh) + (2 * d) * d + d * dh + dh + 1


def test_param_counts_match_closed_form():
    for variant in M.CF_VARIANTS:
        cfg = M.ModelConfig(d=16, d_ff=32, l_ce=2, d_h=12, vocab_size=50,
                            cf_variant=variant)
        ce, cf = M.init_params(cfg, seed=0)
        assert ce.flat.size == ce_param_count(cfg)
        assert cf.flat.size == cf_param_count(cfg)


def test_init_is_deterministic_and_seed_sensitive():
    a1, _ = small_params(seed=21)
    a2, _ = small_params(seed=21)
    b, _ = small_params(seed=22)
    assert np.array_equal(a1.token_embedding.data, a2.token_embedding.data)
    assert not np.array_equal(a1.token_embedding.data, b.token_embedding.data)


# ---------------------------------------------------------------------------
# Sequence losses
# ---------------------------------------------------------------------------


def leaf_encodings(rng, d, item_ids):
    return {i: Tensor(rng.standard_normal((1, d)), grad_enabled=True) for i in item_ids}


def batch_of(seqs):
    """(batch, rows) for the batched paths: a Batch of the raw (item,
    response) lists ``seqs``, read from an ``enc`` whose row i encodes
    item i."""
    batch = Batch([user(u, seq) for u, seq in enumerate(seqs)])
    return batch, batch.items


def test_sequence_loss_needs_two_interactions():
    _, cf = small_params(seed=14)
    enc = leaf_encodings(np.random.default_rng(0), cf.cfg.d, [1])
    with pytest.raises(ValueError):
        R.sequence_loss([(1, 0)], enc, cf)


def test_sequence_loss_missing_encoding():
    _, cf = small_params(seed=14)
    enc = leaf_encodings(np.random.default_rng(0), cf.cfg.d, [1])
    with pytest.raises(KeyError):
        R.sequence_loss([(1, 0), (2, 1)], enc, cf)


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_encoding_grad_accumulates_per_occurrence(variant):
    # duplicate item 7: its gradient must equal the sum of the gradients of
    # per-occurrence replicated leaves
    rng = np.random.default_rng(15)
    _, cf = small_params(seed=15, variant=variant)
    inter = [(7, 1), (3, 0), (7, 1), (3, 1), (7, 0)]
    enc = leaf_encodings(rng, cf.cfg.d, [7, 3])
    g = backward(R.sequence_loss(inter, enc, cf))

    rep_inter = [(n, r) for n, (_, r) in enumerate(inter)]
    rep_enc = {n: Tensor(enc[item].data.copy(), grad_enabled=True)
               for n, (item, _) in enumerate(inter)}
    g_rep = backward(R.sequence_loss(rep_inter, rep_enc, cf))

    for item in (7, 3):
        total = sum(g_rep[rep_enc[n]].data for n, (it, _) in enumerate(inter) if it == item)
        assert np.allclose(g[enc[item]].data, total, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_batch_loss_matches_per_user_sum(variant):
    rng = np.random.default_rng(16)
    _, cf = small_params(seed=16, variant=variant)
    items = list(range(6))
    users = []
    for length in (2, 5, 3):
        users.append([(int(rng.integers(0, 6)), int(rng.integers(0, 2)))
                      for _ in range(length)])
    enc = leaf_encodings(rng, cf.cfg.d, items)

    per_user = sum(R.sequence_loss(u, enc, cf).item() for u in users)
    rows = [enc[i] for i in items]
    loss, n_terms = M.batch_sequence_loss(*batch_of(users), ad.concat(rows, axis=0), cf)
    assert n_terms == sum(len(u) - 1 for u in users)
    assert loss.item() == pytest.approx(per_user, rel=1e-10)


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_batch_gradients_match_per_user(variant):
    rng = np.random.default_rng(17)
    _, cf = small_params(seed=17, variant=variant)
    items = [0, 1, 2, 3]
    users = [
        [(0, 1), (1, 0), (2, 1), (0, 0)],
        [(3, 0), (0, 1)],
        [(2, 1), (2, 0), (3, 1)],
    ]
    enc = leaf_encodings(rng, cf.cfg.d, items)

    grads_ref = {}
    for u in users:
        g = backward(R.sequence_loss(u, enc, cf))
        for t, gt in g.items():
            grads_ref[t] = grads_ref.get(t, 0) + gt.data

    enc2 = {i: Tensor(enc[i].data.copy(), grad_enabled=True) for i in items}
    rows = [enc2[i] for i in items]
    loss, _ = M.batch_sequence_loss(*batch_of(users), ad.concat(rows, axis=0), cf)
    g_batch = backward(loss)

    for i in items:
        assert np.allclose(g_batch[enc2[i]].data, grads_ref[enc[i]],
                           rtol=1e-9, atol=1e-12), f"item {i}"
    for name, t in cf.named().items():
        assert np.allclose(g_batch[t].data, grads_ref[t], rtol=1e-9, atol=1e-12), name


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_batch_scores_match_cf_predict(variant):
    # batched scoring must agree with the per-user reference at
    # every (user, position) slot, including after short users finish
    rng = np.random.default_rng(18)
    _, cf = small_params(seed=18, variant=variant)
    items = [0, 1, 2, 3, 4]
    users = [
        [(0, 1), (1, 0)],
        [(2, 1), (3, 0), (4, 1), (0, 0), (1, 1)],
        [(4, 0), (4, 1), (4, 0)],
    ]
    enc = leaf_encodings(rng, cf.cfg.d, items)
    rows = [enc[i] for i in items]
    probs, labels, item_ids, user_idx = M.batch_scores(
        *batch_of(users), ad.concat(rows, axis=0), cf)

    assert probs.shape == labels.shape == item_ids.shape == user_idx.shape
    assert len(probs) == sum(len(u) - 1 for u in users)
    # slots come prefix length first, so each user's positions ascend
    position = [0] * len(users)
    for prob, label, item, u in zip(probs, labels, item_ids, user_idx):
        position[u] += 1
        seq = users[u]
        assert (item, label) == seq[position[u]]
        hist = [(enc[it], r) for it, r in seq[:position[u]]]
        assert prob == pytest.approx(R.cf_predict(hist, enc[item], cf).item(), rel=1e-9)
    assert position == [len(u) - 1 for u in users]


# users of length 2, one user alone at the longest length, repeated items
MIXED_USERS = [
    [(3, 1), (1, 1)],
    [(2, 1), (3, 0), (4, 1), (0, 0), (1, 1), (4, 0), (2, 1)],
    [(4, 0), (4, 1), (4, 0)],
    [(0, 0), (0, 1)],
    [(1, 1), (2, 0), (1, 0), (2, 1)],
]


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_batch_logits_match_per_prefix_logits(variant):
    rng = np.random.default_rng(23)
    _, cf = small_params(seed=23, variant=variant)
    items = [0, 1, 2, 3, 4]
    enc = leaf_encodings(rng, cf.cfg.d, items)
    stack = ad.concat([enc[i] for i in items], axis=0)
    logits, labels, item_ids, user_idx = M.batch_logits(*batch_of(MIXED_USERS), stack, cf)
    expected = []
    longest_first = sorted(range(len(MIXED_USERS)), key=lambda u: -len(MIXED_USERS[u]))
    for n in range(1, max(len(u) for u in MIXED_USERS)):
        for u in longest_first:     # slots: step, then users longest first, ties in batch order
            seq = MIXED_USERS[u]
            if n < len(seq):
                hist = [(enc[it], r) for it, r in seq[:n]]
                expected.append((u, seq[n], R.cf_logit(hist, enc[seq[n][0]], cf).item()))
    assert logits.shape == (len(expected),)
    assert list(user_idx) == [u for u, _, _ in expected]
    assert list(zip(item_ids, labels)) == [slot for _, slot, _ in expected]
    ref = np.array([logit for _, _, logit in expected])
    assert rel_gap(logits.data, ref) <= 1e-9


@pytest.mark.parametrize("variant,peak", [("recurrent", 237), ("attention", 145)])
def test_batch_loss_saved_activations(variant, peak):
    # MIXED_USERS has 18 interactions, 13 predicted slots and 10 distinct
    # (item, response) pairs; enc (5, 4) is a leaf, so nothing keeps it on
    # the count. Both: the fused op keeps the (10, 8) pair rows (80) and
    # rebuilds their projection in backward, and bce_loss keeps the 13
    # logits; row_dot keeps its (13, 4) left operand (52) and its table.
    # Recurrent: gru_scan also keeps its (13, 4) states, one row per slot
    # (52), and rebuilds its gates from them; the readout matmul keeps the
    # (5, 4) gather of the 5 distinct candidate rows (20), and row_dot its
    # (5, 4) projection (20): 80 + 52 + 20 + 52 + 20 + 13 = 237. Attention:
    # prefix_attention recomputes every prefix in backward, and row_dot's
    # table is enc itself: 80 + 52 + 13 = 145. After backward nothing may
    # stay counted, which an op no logit reads would.
    from gram.instrument import ActivationAccountant
    _, cf = small_params(seed=22, variant=variant)
    enc = Tensor(np.random.default_rng(22).standard_normal((5, cf.cfg.d)), grad_enabled=True)
    acct = ActivationAccountant()
    with ad.track_activations(acct):
        loss, _ = M.batch_sequence_loss(*batch_of(MIXED_USERS), enc, cf)
        assert acct.peak == peak
        backward(loss)
    assert acct.current == 0


def closure_contents(fn):
    """The float arrays and the tensors a backward closure holds, each
    once: its cells, through lists, tuples and nested functions, not into
    tensors."""
    arrays, tensors, seen = [], [], set()
    todo = [c.cell_contents for c in fn.__closure__ or ()]
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray) and v.dtype.kind == "f":
            arrays.append(v)
        elif isinstance(v, Tensor):
            tensors.append(v)
        elif isinstance(v, (list, tuple)):
            todo.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            todo.extend(c.cell_contents for c in v.__closure__)
    return arrays, tensors


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_every_node_counts_the_arrays_its_backward_keeps(variant):
    # autodiff's accounting rule, on every op that ce_encode (two layers,
    # positional add) and the batch loss build, with a non-leaf enc: a
    # node counts the float arrays its backward closure holds, less its
    # leaf parents' data, and every tensor the closure holds is a parent
    from gram.instrument import ActivationAccountant
    cfg = M.ModelConfig(d=4, d_ff=6, l_ce=2, d_h=4, vocab_size=12, max_token_len=8,
                        cf_variant=variant, positional_encoding=True)
    ce, cf = M.init_params(cfg, 26)
    with ad.track_activations(ActivationAccountant()):
        loss, _ = M.batch_sequence_loss(*batch_of(MIXED_USERS), encode(MIXED[:5], ce), cf)
    nodes, todo = {}, [loss]
    while todo:
        t = todo.pop()
        if not t.is_leaf() and id(t) not in nodes:
            nodes[id(t)] = t
            todo.extend(t._parents)
    ops = set()
    for node in nodes.values():
        op = node._backward.__qualname__.split(".")[0]
        ops.add(op)
        arrays, tensors = closure_contents(node._backward)
        assert all(any(t is p for p in node._parents) for t in tensors), op
        leaf_data = [p.data for p in node._parents if p.is_leaf()]
        kept = sum(a.size for a in arrays if not any(a is d for d in leaf_data))
        assert node._saved == kept, op
    fused = "gru_scan" if variant == "recurrent" else "prefix_attention"
    assert ops == {"gather", "add", "ce_block", "segment_mean", "matmul", "concat", fused,
                   "row_dot", "bce_loss"}


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_batch_scores_saves_no_activations(variant):
    from gram.instrument import ActivationAccountant
    _, cf = small_params(seed=22, variant=variant)
    enc = Tensor(np.random.default_rng(22).standard_normal((5, cf.cfg.d)), grad_enabled=True)
    acct = ActivationAccountant()
    with ad.track_activations(acct):
        M.batch_scores(*batch_of(MIXED_USERS), enc, cf)
    assert acct.peak == 0


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_batch_loss_graph_has_no_sigmoid_node(variant, monkeypatch):
    # bce_loss takes the logits; only evaluation applies the sigmoid
    def refuse(_):
        raise AssertionError("sigmoid op in a training graph")

    monkeypatch.setattr(ad, "sigmoid", refuse)
    _, cf = small_params(seed=22, variant=variant)
    enc = Tensor(np.random.default_rng(22).standard_normal((5, cf.cfg.d)), grad_enabled=True)
    backward(M.batch_sequence_loss(*batch_of(MIXED_USERS), enc, cf)[0])


def test_float32_recurrent_batch_loss_is_finite_at_confident_logits():
    # at the default widths, large weights and encodings push several
    # logits past 17, where a float32 sigmoid rounds to exactly 1
    rng = np.random.default_rng(25)
    cf = to_f32(M.init_params(M.ModelConfig(), 25)[1])
    for t in cf.named().values():
        t.data += rng.normal(0.0, 0.5, t.shape).astype(np.float32)
    enc = Tensor(rng.normal(0.0, 3.0, (5, cf.cfg.d)).astype(np.float32), grad_enabled=True)
    loss, _ = M.batch_sequence_loss(*batch_of(MIXED_USERS), enc, cf)
    assert loss.dtype == np.float32 and np.isfinite(loss.item())
    assert np.isfinite(backward(loss)[enc].data).all()


def test_recurrent_batch_loss_raises_on_overflowing_gate_preactivations():
    # each bias alone is finite; their sum in the reset/update/candidate
    # preactivations is not
    _, cf = small_params(seed=22)
    cf.b_ih.data[...] = 1e308
    cf.b_hh.data[...] = 1e308
    enc = Tensor(np.random.default_rng(22).standard_normal((5, cf.cfg.d)), grad_enabled=True)
    with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
        M.batch_sequence_loss(*batch_of(MIXED_USERS), enc, cf)


def node_counts_with_a_longer_user(variant):
    """Loss-graph node counts for MIXED_USERS, then with a user three
    times as long as its longest added."""
    _, cf = small_params(seed=22, variant=variant)
    enc = Tensor(np.random.default_rng(22).standard_normal((5, cf.cfg.d)), grad_enabled=True)
    longer = MIXED_USERS + [max(MIXED_USERS, key=len) * 3]
    return [graph_nodes(M.batch_sequence_loss(*batch_of(users), enc, cf)[0])
            for users in (MIXED_USERS, longer)]


def test_recurrent_batch_graph_keeps_h_independent_ops_out_of_the_time_loop():
    # the whole time loop is one gru_scan node, so a user three times as
    # long as MIXED_USERS' longest adds no node; an op recorded per update
    # would add one per extra step; the 8 are the pair rows' two gathers
    # and concat, gru_scan, which projects them, the candidate rows' gather
    # and readout matmul, row_dot and bce_loss
    assert node_counts_with_a_longer_user("recurrent") == [8, 8]


def test_attention_batch_graph_has_constant_size():
    # every prefix length runs inside one prefix_attention node, so a user
    # three times as long as MIXED_USERS' longest adds no node; an op
    # recorded per prefix would add one per extra prefix length; the 7 are
    # the pair rows' two gathers and concat, prefix_attention, which
    # projects them, row_dot and the bias add, and bce_loss
    assert node_counts_with_a_longer_user("attention") == [7, 7]


@pytest.mark.parametrize("variant,nodes", [("recurrent", 8), ("attention", 7)])
def test_joint_and_cached_rows_build_one_loss_graph(variant, nodes):
    # joint backprop reads one encoding row per interaction, the cached
    # modes one per item; only the index differs, not the graph or the loss
    _, cf = small_params(seed=22, variant=variant)
    batch, _ = batch_of(MIXED_USERS)
    per_item = Tensor(np.random.default_rng(22).standard_normal((batch.unique_items.size, cf.cfg.d)),
                      grad_enabled=True)
    per_occurrence = Tensor(per_item.data[batch.inverse], grad_enabled=True)
    joint, _ = M.batch_sequence_loss(batch, np.arange(batch.n_interactions()), per_occurrence, cf)
    cached, _ = M.batch_sequence_loss(batch, batch.inverse, per_item, cf)
    assert graph_nodes(joint) == graph_nodes(cached) == nodes
    assert rel_gap(joint.data, cached.data) <= 1e-12


def test_recurrent_unread_encoding_row_gets_no_gradient():
    # no sequence holds item 0, so no slot reads enc row 0; every other
    # row and every parameter gets the per-user reference's gradient
    rng = np.random.default_rng(24)
    _, cf = small_params(seed=24)
    users = [[(item + 1, r) for item, r in seq] for seq in MIXED_USERS]
    enc = Tensor(rng.standard_normal((6, cf.cfg.d)), grad_enabled=True)
    g_batch = backward(M.batch_sequence_loss(*batch_of(users), enc, cf)[0])
    assert np.all(g_batch[enc].data[0] == 0.0)

    ref_enc = {i: Tensor(enc.data[i:i + 1].copy(), grad_enabled=True) for i in range(1, 6)}
    grads_ref = {}
    for u in users:
        for t, gt in backward(R.sequence_loss(u, ref_enc, cf)).items():
            grads_ref[t] = grads_ref.get(t, 0) + gt.data
    for i in range(1, 6):
        assert np.allclose(g_batch[enc].data[i], grads_ref[ref_enc[i]][0], rtol=1e-9, atol=1e-12), i
    for name, t in cf.named().items():
        assert np.allclose(g_batch[t].data, grads_ref[t], rtol=1e-9, atol=1e-12), name


def test_batch_rejects_all_singleton_users():
    _, cf = small_params(seed=19)
    enc = leaf_encodings(np.random.default_rng(1), cf.cfg.d, [0])
    with pytest.raises(ValueError):
        M.batch_sequence_loss(*batch_of([[(0, 1)]]), enc[0], cf)


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_batch_rejects_sequences_longer_than_max_interactions(variant):
    # the bound cf_predict enforces on a history holds in the batched path too
    cfg = M.ModelConfig(d=4, d_ff=6, d_h=4, vocab_size=12, max_token_len=8,
                        max_interactions=3, cf_variant=variant)
    _, cf = M.init_params(cfg, 20)
    enc = leaf_encodings(np.random.default_rng(2), cf.cfg.d, [0, 1])
    stack = ad.concat([enc[0], enc[1]], axis=0)
    fits = [[(0, 1), (1, 0)], [(0, 1), (1, 0), (0, 1)]]
    M.batch_sequence_loss(*batch_of(fits), stack, cf)
    too_long = fits + [[(0, 1), (1, 0), (0, 1), (1, 1)]]
    # user ids apart from batch positions, so the error names the user
    batch = Batch([user(10 + u, seq) for u, seq in enumerate(too_long)])
    with pytest.raises(ValueError, match="user 12 has 4 interactions"):
        M.batch_sequence_loss(batch, batch.items, stack, cf)
    with pytest.raises(ValueError, match="max_interactions 3"):
        M.batch_scores(batch, batch.items, stack, cf)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def test_parameter_names_follow_field_order():
    # checkpoints and each module's flat array follow this order
    layer = ["wq", "wk", "wv", "wo", "w_ff1", "w_ff2"]
    ce, rec = small_params(variant="recurrent", l_ce=2)
    _, att = small_params(variant="attention")
    assert list(ce.named()) == (["token_embedding"] + [f"layer0.{n}" for n in layer]
                                + [f"layer1.{n}" for n in layer] + ["w_out"])
    assert list(rec.named()) == ["resp_embedding", "w_ih", "w_hh", "b_ih", "b_hh", "w_readout"]
    assert list(att.named()) == ["resp_embedding", "wq", "wk", "wv", "w_pool", "v_pool", "bias"]
    assert ce.named()["layer1.wo"] is ce.layers[1].wo
    named = M.named_params(ce, rec)
    assert list(named) == [f"ce.{k}" for k in ce.named()] + [f"cf.{k}" for k in rec.named()]
    assert list(M.named_params(None, att)) == [f"cf.{k}" for k in att.named()]


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_checkpoint_round_trip(tmp_path, variant):
    ce, cf = small_params(seed=20, variant=variant)
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, ce, cf)
    ce2, cf2 = M.load_checkpoint(path)
    assert ce2.cfg == ce.cfg
    for name, t in ce.named().items():
        assert np.array_equal(t.data, ce2.named()[name].data), name
    for name, t in cf.named().items():
        assert np.array_equal(t.data, cf2.named()[name].data), name


@pytest.mark.parametrize("cast", ["int64", "float32", "all-float16"])
def test_checkpoint_rejects_arrays_not_all_float64_or_all_float32(tmp_path, cast):
    # a checkpoint is outside input: its arrays keep their dtype, so one of
    # another dtype is named rather than converted
    ce, cf = small_params(seed=20)
    path = tmp_path / "ckpt.npz"
    M.save_checkpoint(path, ce, cf)
    with np.load(path) as blob:
        arrays = dict(blob)
    names = list(M.named_params(ce, cf))
    bad = names[0] if cast == "all-float16" else names[3]
    for name in names if cast == "all-float16" else [bad]:
        arrays[name] = arrays[name].astype(cast.removeprefix("all-"))
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(ValueError, match=f"checkpoint parameter {re.escape(bad)} is "):
        M.load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_rejects_a_non_finite_parameter(tmp_path, value):
    # the archive's arrays are assigned to the tensors directly, so the
    # check a Tensor makes on construction must be made here
    ce, cf = small_params(seed=20)
    path = tmp_path / "ckpt.npz"
    M.save_checkpoint(path, ce, cf)
    with np.load(path) as blob:
        arrays = dict(blob)
    arrays["ce.w_out"][0, 0] = value
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint parameter "
                       "ce.w_out holds NaN or Inf$"):
        M.load_checkpoint(path)


@pytest.mark.parametrize("config", [
    {"d": 4, "bogus": 1}, {"d": 0}, "{not json", None],
    ids=["unknown-key", "out-of-range", "bad-json", "missing"])
def test_checkpoint_names_the_file_of_a_malformed_config(tmp_path, config):
    # each would otherwise surface as a TypeError, a bare ValueError, a
    # JSONDecodeError or a KeyError that does not say which file is at fault
    ce, cf = small_params(seed=20)
    path = tmp_path / "ckpt.npz"
    M.save_checkpoint(path, ce, cf)
    with np.load(path) as blob:
        arrays = dict(blob)
    if config is None:
        del arrays["config"]
    else:
        arrays["config"] = np.array(config if isinstance(config, str) else json.dumps(config))
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed checkpoint config"):
        M.load_checkpoint(path)


def _other_format(arrays):
    arrays["format"] = np.array("other")


def _drop_w_out(arrays):
    del arrays["ce.w_out"]


def _narrow_w_out(arrays):
    arrays["ce.w_out"] = arrays["ce.w_out"].astype(np.float32)


def _reshape_w_out(arrays):
    arrays["ce.w_out"] = arrays["ce.w_out"][:-1]


@pytest.mark.parametrize("alter,message", [
    (_other_format, "unrecognized checkpoint format 'other'"),
    (_drop_w_out, "checkpoint parameter names do not match config"),
    (_narrow_w_out, "checkpoint parameter ce.w_out is float32"),
    (_reshape_w_out, "checkpoint shape mismatch for ce.w_out"),
], ids=["format", "missing-name", "dtype", "shape"])
def test_checkpoint_rejections_name_the_file(tmp_path, alter, message):
    ce, cf = small_params(seed=20)
    path = tmp_path / "ckpt.npz"
    M.save_checkpoint(path, ce, cf)
    with np.load(path) as blob:
        arrays = dict(blob)
    alter(arrays)
    with open(path, "wb") as f:
        np.savez(f, **arrays)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}"):
        M.load_checkpoint(path)


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        M.load_checkpoint(path)


def test_checkpoint_rejects_single_array_file(tmp_path):
    path = tmp_path / "weights.npy"
    with open(path, "wb") as f:
        np.save(f, np.zeros(3))
    with pytest.raises(ValueError):
        M.load_checkpoint(path)
