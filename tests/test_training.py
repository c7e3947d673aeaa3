"""Trainer tests: optimizers, cache/window mechanics, counters,
gradient equivalence, baselines, and the train loop."""

from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import reference_metrics as RM
from gram import autodiff as ad
from gram.autodiff import Tensor
from gram.dataset import Batch, Dataset, GenConfig, Item, UserSequence, batch_iter, generate_synthetic
from gram.model import ModelConfig, init_params, named_params
from gram.training import (
    ConfigError,
    NumericalAbort,
    OptimizerConfig,
    OptimizerState,
    TrainConfig,
    accumulation_latency,
    clip_by_global_norm,
    epoch_batches,
    evaluate,
    init_trainer,
    max_rel_err,
    optimizer_apply,
    plan_run,
    seed_streams,
    step_gradients,
    train,
    train_step,
    verify_equivalence,
)

SMALL_MODEL = ModelConfig(d=8, d_ff=12, d_h=8, vocab_size=60)


def small_config(**kw):
    base = dict(model=SMALL_MODEL, cf_batch_size=4, seed=11)
    base.update(kw)
    return TrainConfig(**base)


def tiny_dataset(seed=5, n_users=24, n_items=10):
    gen = GenConfig(n_users=n_users, n_items=n_items, n_topics=3, vocab_size=60,
                    seq_len_range=(4, 10), token_len_range=(3, 8))
    ds, _ = generate_synthetic(gen, seed=seed)
    return ds


def dup_heavy_batch():
    """3 users, 12 interactions, 5 unique items."""
    items = [Item(i, tuple(range(1, 4 + i % 3))) for i in range(5)]
    users = [
        UserSequence(0, ((0, 1), (1, 0), (2, 1), (3, 0))),
        UserSequence(1, ((1, 1), (2, 0), (3, 1), (4, 0))),
        UserSequence(2, ((0, 0), (2, 1), (4, 1), (1, 1))),
    ]
    return Dataset(items=items, users=users), Batch(users=users)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def test_sgd_lr_one_is_plain_subtraction():
    # the same rule the pseudo-target update uses
    p = Tensor(np.array([1.0, 2.0, 3.0]), grad_enabled=True)
    g = np.array([0.5, -1.0, 2.0])
    opt = OptimizerState(OptimizerConfig(kind="sgd", lr=1.0))
    optimizer_apply(opt, {"p": p}, {"p": g})
    assert np.array_equal(p.data, np.array([0.5, 3.0, 1.0]))


def test_sgd_zero_lr_keeps_params():
    p = Tensor(np.array([1.0, 2.0]), grad_enabled=True)
    before = p.data.copy()
    optimizer_apply(OptimizerState(OptimizerConfig(kind="sgd", lr=0.0)), {"p": p}, {"p": np.ones(2)})
    assert np.array_equal(p.data, before)


def test_adam_first_step_magnitude():
    # bias correction makes the first update ~lr per component when |g| >> eps
    p = Tensor(np.zeros(4), grad_enabled=True)
    g = np.array([1.0, -2.0, 0.5, 10.0])
    opt = OptimizerState(OptimizerConfig(kind="adam", lr=1e-3))
    optimizer_apply(opt, {"p": p}, {"p": g})
    assert np.allclose(np.abs(p.data), 1e-3, rtol=1e-6)
    assert np.array_equal(np.sign(p.data), -np.sign(g))


def test_adam_moment_buffers_mirror_shapes():
    p = Tensor(np.zeros((3, 2)), grad_enabled=True)
    opt = OptimizerState(OptimizerConfig(kind="adam", lr=1e-3))
    optimizer_apply(opt, {"p": p}, {"p": np.ones((3, 2))})
    assert opt.m["p"].shape == (3, 2) and opt.v["p"].shape == (3, 2)
    assert opt.step == 1
    optimizer_apply(opt, {"p": p}, {"p": np.ones((3, 2))})
    assert opt.step == 2


def test_noam_peaks_at_warmup():
    opt = OptimizerConfig(kind="sgd", lr=1.0, schedule="noam", model_dim=16, warmup=50)
    lrs = [opt.lr_at(s) for s in range(1, 200)]
    assert int(np.argmax(lrs)) + 1 == 50
    assert lrs[49] == pytest.approx(1.0 * 16 ** -0.5 * 50 ** -0.5)


def test_optimizer_rejects_shape_mismatch():
    p = Tensor(np.zeros(()), grad_enabled=True)
    with pytest.raises(ConfigError):
        optimizer_apply(OptimizerState(OptimizerConfig(kind="sgd")), {"p": p},
                        {"p": np.ones(1)})


def test_optimizer_skips_missing_grads():
    p = Tensor(np.ones(2), grad_enabled=True)
    q = Tensor(np.ones(2), grad_enabled=True)
    optimizer_apply(OptimizerState(OptimizerConfig(kind="sgd", lr=1.0)), {"p": p, "q": q},
                    {"p": np.ones(2)})
    assert np.array_equal(q.data, np.ones(2))
    assert np.array_equal(p.data, np.zeros(2))


def test_clip_by_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}  # norm 5
    clipped = clip_by_global_norm(grads, 1.0)
    total = np.sqrt(sum(np.sum(g * g) for g in clipped.values()))
    assert total == pytest.approx(1.0)
    assert np.allclose(clipped["a"], [0.6, 0.0])
    # under the bound: untouched
    same = clip_by_global_norm(grads, 100.0)
    assert same["a"] is grads["a"]


def test_each_trainer_starts_with_zeroed_optimizer_state():
    # the config holds settings only; every trainer gets its own run state
    ds, batch = dup_heavy_batch()
    cfg = small_config(opt_ce=OptimizerConfig(kind="adam"))
    first = init_trainer(ds, "e2e", cfg)
    train_step(batch, first)
    assert first.opt_ce.step == 1 and first.opt_ce.m
    second = init_trainer(ds, "e2e", cfg)
    assert second.opt_ce.step == 0 and not second.opt_ce.m and not second.opt_ce.v
    assert second.opt_ce.cfg is cfg.opt_ce


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def test_seed_streams_deterministic_and_distinct():
    a = seed_streams(123)
    assert a == seed_streams(123)
    assert len(set(a.values())) == len(a)
    assert set(a) == {"data", "init", "shuffle", "split", "val"}
    assert a != seed_streams(124)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        TrainConfig(latency="0S")
    with pytest.raises(ConfigError):
        TrainConfig(latency="2E")
    with pytest.raises(ConfigError):
        TrainConfig(precision="f16")
    with pytest.raises(ConfigError):
        TrainConfig(val_frac=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(opt_ce=OptimizerConfig(kind="rmsprop"))
    # beta1 = 1 divides by zero in Adam's bias correction; the error must
    # name the setting, not the first op that meets a non-finite parameter
    for bad in ({"lr": float("nan")}, {"lr": float("inf")}, {"beta1": 1.0}, {"beta1": -0.1},
                {"beta2": 1.0}, {"beta2": float("nan")}, {"eps": 0.0}, {"eps": -1e-8}):
        with pytest.raises(ConfigError):
            TrainConfig(opt_cf=OptimizerConfig(**bad))
    # a clip that never runs must not be echoed in the report as if it did
    for clip in (0.0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            TrainConfig(clip_norm=clip)
    TrainConfig()
    TrainConfig(clip_norm=0.5, opt_ce=OptimizerConfig(beta1=0.0, lr=0.0))


def test_train_config_is_frozen():
    cfg = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.max_epochs = 0


def test_unknown_mode_rejected():
    ds = tiny_dataset()
    with pytest.raises(ConfigError):
        init_trainer(ds, "distillation", small_config())


@pytest.mark.parametrize("preset,expected", [("1S", 1), ("10S", 10), ("0.5E", 19), ("1E", 37)])
def test_latency_presets(preset, expected):
    assert accumulation_latency(preset, 37) == expected


def test_latency_rejects_unknown():
    with pytest.raises(ConfigError):
        accumulation_latency("2E", 37)
    with pytest.raises(ConfigError):
        accumulation_latency("1S", 0)


# 0.1 of 30 steps is 3 exactly, not ceil(0.1 * 30) = ceil(3.0000000000000004) = 4
@pytest.mark.parametrize("latency,steps,expected", [
    ("3S", 37, 3), ("0.25E", 37, 10), (".5E", 37, 19), ("0.1E", 37, 4), ("0.1E", 30, 3)])
def test_latency_counts_steps_or_a_share_of_an_epoch(latency, steps, expected):
    assert accumulation_latency(latency, steps) == expected


@pytest.mark.parametrize("latency", ["0S", "1.5S", "0E", "1.5E", "N=2", "S", "E", "1s", "", None])
def test_latency_rejects_bad_syntax(latency):
    with pytest.raises(ConfigError):
        accumulation_latency(latency, 37)
    with pytest.raises(ConfigError):
        TrainConfig(latency=latency)


def test_init_trainer_resolves_the_latency():
    ds, _ = dup_heavy_batch()
    assert init_trainer(ds, "gram", small_config(latency="10S")).accum_steps == 10
    assert init_trainer(ds, "gram", small_config(latency="1E"), steps_per_epoch=22).accum_steps == 22


def test_init_trainer_needs_steps_per_epoch_for_an_epoch_latency():
    ds, _ = dup_heavy_batch()
    with pytest.raises(ConfigError, match="steps_per_epoch"):
        init_trainer(ds, "gram", small_config(latency="1E"))


def test_window_longer_than_epoch_rejected():
    ds = tiny_dataset(n_users=12)
    cfg = small_config(latency="50S", max_epochs=1, n_cs_items=2)
    for mode in ("gram", "e2e"):
        with pytest.raises(ConfigError, match="exceeds"):
            train(ds, mode, cfg)
    with pytest.raises(ConfigError, match="exceeds"):
        plan_run(ds, cfg)


# ---------------------------------------------------------------------------
# e2e step
# ---------------------------------------------------------------------------


def test_e2e_counts_per_occurrence():
    ds, _ = dup_heavy_batch()
    user = UserSequence(0, ((0, 1), (1, 0)))
    state = init_trainer(ds, "e2e", small_config())
    train_step(Batch(users=[user]), state)
    assert state.counters.ce_forward_calls == 2
    assert state.counters.ce_backward_calls == 2
    assert state.counters.cf_forward_calls == 1


def test_e2e_zero_lr_leaves_params_and_loss_fixed():
    ds, batch = dup_heavy_batch()
    zero = OptimizerConfig(kind="sgd", lr=0.0)
    state = init_trainer(ds, "e2e", small_config(opt_ce=zero, opt_cf=zero))
    before = {k: v.data.copy() for k, v in {**state.ce.named(), **state.cf.named()}.items()}
    first = train_step(batch, state)
    second = train_step(batch, state)
    assert first["loss"] == second["loss"]
    for k, v in state.ce.named().items():
        assert np.array_equal(v.data, before[k])
    for k, v in state.cf.named().items():
        assert np.array_equal(v.data, before[k])


# frozen from a reference run of the exact configuration below; guards
# against silent drift in init, shuffling, or the loss itself
GOLDEN_E2E_LOSSES = [
    0.6920685819246876,
    0.6765269332296601,
    0.6506899700664847,
    0.5652857866515697,
    0.4798491578802443,
]


def test_e2e_five_step_losses_decrease_and_match_golden():
    ds, _ = generate_synthetic(GenConfig(), seed=2024)
    sgd = OptimizerConfig(kind="sgd", lr=1e-2)
    cfg = TrainConfig(opt_ce=sgd, opt_cf=sgd, cf_batch_size=16, seed=7)
    state = init_trainer(ds, "e2e", cfg)
    seeds = seed_streams(cfg.seed)
    losses = []
    for batch in batch_iter(ds.users, cfg.cf_batch_size, shuffle_seed=[seeds["shuffle"], 0]):
        rep = train_step(batch, state)
        losses.append(rep["loss"] / rep["n_predictions"])
        if len(losses) == 5:
            break
    assert np.allclose(losses, GOLDEN_E2E_LOSSES, rtol=1e-9), losses
    assert all(b < a for a, b in zip(losses, losses[1:]))


# ---------------------------------------------------------------------------
# gram step
# ---------------------------------------------------------------------------


def test_gram_dup_heavy_batch_counts():
    ds, batch = dup_heavy_batch()
    sg = init_trainer(ds, "gram", small_config())
    rep = train_step(batch, sg)
    se = init_trainer(ds, "e2e", small_config())
    train_step(batch, se)
    assert sg.counters.ce_forward_calls == 5
    assert se.counters.ce_forward_calls == 12
    assert rep["window_closed"] and rep["ce_items"] == 5


def test_gram_window_fires_every_n_steps():
    ds, batch = dup_heavy_batch()
    state = init_trainer(ds, "gram", small_config(latency="3S"))
    closed = []
    for _ in range(7):
        rep = train_step(batch, state)
        closed.append(rep["window_closed"])
    assert closed == [False, False, True, False, False, True, False]
    assert len(state.window.rows) == 5    # step 7 reopened the window
    # cache misses only at the first step of each window
    assert state.counters.ce_forward_calls == 15


def test_gram_cache_hits_skip_encoder():
    ds, batch = dup_heavy_batch()
    state = init_trainer(ds, "gram", small_config(latency="4S"))
    train_step(batch, state)
    assert state.counters.ce_forward_calls == 5
    train_step(batch, state)               # all hits
    assert state.counters.ce_forward_calls == 5


def test_window_reads_first_touch_encoding_and_accumulates_gradients():
    # both modules frozen, so a second identical step in the window reads
    # the same first-touch encoding and sees the same leaf gradient g; a
    # read of the carried h - g would give a different second gradient
    ds, batch = dup_heavy_batch()
    zero = OptimizerConfig(kind="sgd", lr=0.0)
    cfg = small_config(opt_ce=zero, opt_cf=zero, latency="4S")
    once, twice = init_trainer(ds, "gram", cfg), init_trainer(ds, "gram", cfg)
    train_step(batch, once)
    train_step(batch, twice)
    train_step(batch, twice)
    from gram.model import ce_encode
    rows = np.searchsorted(once.item_ids, batch.unique_items)
    with ad.no_grad():
        h = {r: ce_encode([once.tokens[r]], once.ce).data[0] for r in rows}
    for r in rows:
        g = h[r] - once.window.targets[r]
        assert np.any(g != 0.0)
        assert np.allclose(h[r] - twice.window.targets[r], 2.0 * g, rtol=1e-12, atol=1e-15)
        assert np.allclose(twice.window.encodings[r], h[r], rtol=1e-12, atol=1e-15)


def test_pseudo_target_is_h_minus_grad_regardless_of_lr():
    # representation update uses learning rate exactly 1 even though the
    # CF optimizer uses its own lr
    ds, batch = dup_heavy_batch()
    zero = OptimizerConfig(kind="sgd", lr=0.0)
    cfg = small_config(opt_ce=zero, opt_cf=OptimizerConfig(kind="sgd", lr=0.37),
                       latency="2S")
    state = init_trainer(ds, "gram", cfg)
    # the same step, stopped before the optimizers, under another CF lr
    ref = init_trainer(ds, "gram", replace(cfg, opt_cf=OptimizerConfig(kind="sgd", lr=1.0)))
    step_gradients(batch, ref)
    ce0, _ = init_params(cfg.model, seed_streams(cfg.seed)["init"])
    rows = np.searchsorted(state.item_ids, batch.unique_items)
    with ad.no_grad():
        from gram.model import ce_encode
        h = {r: ce_encode([state.tokens[r]], ce0).data[0] for r in rows}
    train_step(batch, state)
    for r in rows:
        # the pseudo-target differs from h by the raw gradient (no lr scaling)
        assert state.window.targets[r].shape == h[r].shape
        assert not np.array_equal(state.window.targets[r], h[r])
        assert np.array_equal(state.window.targets[r], ref.window.targets[r])


def test_untouched_cache_entry_keeps_pseudo_target():
    ds, batch = dup_heavy_batch()
    state = init_trainer(ds, "gram", small_config(latency="5S"))
    train_step(batch, state)
    row = np.searchsorted(state.item_ids, 4)
    kept = state.window.targets[row].copy()
    sub = Batch(users=[UserSequence(9, ((0, 1), (1, 0), (2, 1)))])
    train_step(sub, state)
    assert np.array_equal(state.window.targets[row], kept)


def test_perfect_pseudo_targets_give_zero_ce_gradient():
    # if the pseudo-target equals the current encoder output, the regression loss and
    # its gradient vanish (items with zero loss gradient contribute nothing)
    ds, batch = dup_heavy_batch()
    state = init_trainer(ds, "gram", small_config())
    before = {k: v.data.copy() for k, v in state.ce.named().items()}
    # a zero readout gives the leaf a zero gradient, so each pseudo-target
    # stays the first-touch encoding: one call over the same items
    # _regress encodes in one chunk, so the targets match its outputs bit
    # for bit
    state.cf.w_readout.data = np.zeros_like(state.cf.w_readout.data)
    rep, grads = step_gradients(batch, state)
    assert rep["window_closed"] and rep["ce_items"] == len(batch.unique_items)
    assert rep["pseudo_loss"] == 0.0
    for k, v in state.ce.named().items():
        assert not grads["ce"][k].any()            # zero gradient
        assert np.array_equal(v.data, before[k])
    assert len(state.window.rows) == 0             # emptied exactly once
    assert not state.window.touched.any()


def _step_grads(ds, mode, cfg, ce, cf, batch):
    """``step_gradients`` of a fresh ``mode`` trainer holding (ce, cf)."""
    state = init_trainer(ds, mode, cfg)
    state.ce, state.cf = ce, cf
    return step_gradients(batch, state)[1]


def test_single_occurrence_zero_cf_lr_gradient_equality():
    # every item occurs once and CF does not move: the regression gradient
    # must equal the joint-backprop encoder gradient
    items = [Item(i, (1 + i, 2 + i, 3)) for i in range(6)]
    users = [UserSequence(0, ((0, 1), (1, 0), (2, 1))),
             UserSequence(1, ((3, 0), (4, 1), (5, 0)))]
    ds = Dataset(items=items, users=users)
    batch = Batch(users=users)
    ce, cf = init_params(SMALL_MODEL, 3)
    cfg = small_config(ce_batch_size=0)
    ref = _step_grads(ds, "e2e", cfg, ce, cf, batch)
    alt = _step_grads(ds, "gram", cfg, ce, cf, batch)
    for module in ("ce", "cf"):
        assert max_rel_err(ref[module], alt[module]) <= 1e-12


def test_duplicate_occurrences_accumulate_like_joint_backprop():
    ds, batch = dup_heavy_batch()      # items repeat across users
    ce, cf = init_params(SMALL_MODEL, 8)
    cfg = small_config(ce_batch_size=0)
    ref = _step_grads(ds, "e2e", cfg, ce, cf, batch)
    alt = _step_grads(ds, "gram", cfg, ce, cf, batch)
    for module in ("ce", "cf"):
        assert max_rel_err(ref[module], alt[module]) <= 1e-10


def test_multi_step_never_more_forwards_than_single_step():
    ds = tiny_dataset(n_users=40)
    for n in (2, 5):
        c1 = small_config(latency="1S", max_epochs=2, n_cs_items=2)
        cn = small_config(latency=f"{n}S", max_epochs=2, n_cs_items=2)
        r1, _ = train(ds, "gram", c1)
        rn, _ = train(ds, "gram", cn)
        assert rn.counters["ce_forward_calls"] <= r1.counters["ce_forward_calls"]


# ---------------------------------------------------------------------------
# Chunked encoder regression
# ---------------------------------------------------------------------------


def chunk_dataset():
    """Batches of 8 of its users touch more distinct items than a chunk of
    3 or 8 holds."""
    return tiny_dataset(seed=7, n_users=60, n_items=20)


def run_epochs(ds, mode, cfg, epochs):
    """(parameters, counters, step reports) after ``epochs`` epochs."""
    steps = -(-len(ds.users) // cfg.cf_batch_size)
    state = init_trainer(ds, mode, cfg, steps_per_epoch=steps)
    reps = [train_step(b, state) for e in range(epochs) for b in epoch_batches(ds.users, cfg, e)]
    params = {k: v.data.copy() for k, v in named_params(state.ce, state.cf).items()}
    return params, state.counters.as_dict(), reps


@pytest.mark.parametrize("ce_batch_size", [3, 8])
@pytest.mark.parametrize("kind,lr", [("sgd", 1e-2), ("adam", 1e-3)])
def test_gram_1s_follows_e2e_at_any_chunk_size(kind, lr, ce_batch_size):
    ds = chunk_dataset()
    opt = OptimizerConfig(kind=kind, lr=lr)
    cfg = small_config(cf_batch_size=8, ce_batch_size=ce_batch_size, opt_ce=opt, opt_cf=opt)
    ref, _, _ = run_epochs(ds, "e2e", cfg, 4)
    alt, _, reps = run_epochs(ds, "gram", cfg, 4)
    assert len(reps) >= 30
    assert max(r["ce_items"] for r in reps) > ce_batch_size
    assert max_rel_err(ref, alt) <= 1e-12


@pytest.mark.parametrize("clip_norm", [None, 1e-3], ids=["noclip", "clip1e-3"])
@pytest.mark.parametrize("latency", ["1E", "2S"])
def test_chunk_size_bounds_memory_only(latency, clip_norm):
    # one encoder step on the summed chunk gradients per window, clipped
    # once: the chunk size moves only the activation peak
    ds = chunk_dataset()
    cfg = small_config(cf_batch_size=8, latency=latency, clip_norm=clip_norm)
    runs = {bs: run_epochs(ds, "gram", replace(cfg, ce_batch_size=bs), 2) for bs in (0, 3, 8)}
    params, counters, _ = runs[0]
    peaks = {bs: c.pop("activation_elements_peak") for bs, (_, c, _) in runs.items()}
    for bs in (3, 8):
        assert max_rel_err(params, runs[bs][0]) <= 1e-12
        assert runs[bs][1] == counters
    assert peaks[3] <= peaks[8] <= peaks[0]


def test_pseudo_loss_sums_the_window_chunks():
    ds, batch = dup_heavy_batch()       # 5 distinct items: chunks of 2, 2 and 1
    whole = train_step(batch, init_trainer(ds, "gram", small_config(ce_batch_size=0)))
    chunked = train_step(batch, init_trainer(ds, "gram", small_config(ce_batch_size=2)))
    assert chunked["pseudo_loss"] == pytest.approx(whole["pseudo_loss"], rel=1e-12, abs=0)


def test_write_back_subtracts_each_row_and_names_a_non_finite_item():
    from gram.training import _write_back
    rng = np.random.default_rng(0)
    item_ids = np.array([2, 5, 9])
    before = rng.standard_normal((3, 3))       # one target row per item
    rows = np.array([2, 0, 1])                 # items 9, 2 and 5
    leaf = Tensor(np.zeros((3, 3)), grad_enabled=True)
    g = rng.standard_normal((3, 3))
    targets = before.copy()
    _write_back(targets, rows, item_ids, leaf, {leaf: Tensor(g)})
    for k, r in enumerate(rows):
        assert targets[r].shape == (3,)
        assert np.array_equal(targets[r], before[r] - g[k])
    grad = Tensor(g)        # a Tensor refuses non-finite data, so corrupt it after
    grad.data[1, 0] = grad.data[2, 2] = np.inf
    targets = before.copy()
    with pytest.raises(ad.NonFiniteError, match="pseudo-target for item 2 is non-finite"):
        _write_back(targets, rows, item_ids, leaf, {leaf: grad})
    assert np.array_equal(targets, before)     # a failed write-back writes nothing


def test_numerical_abort_names_the_step():
    ds, batch = dup_heavy_batch()
    huge = OptimizerConfig(kind="sgd", lr=1e200)
    state = init_trainer(ds, "gram", small_config(opt_ce=huge, opt_cf=huge))
    with pytest.raises(NumericalAbort), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            train_step(batch, state)


@pytest.mark.parametrize("mode", ["e2e", "gram", "no_content", "no_finetune"])
def test_unknown_item_fails_the_same_way_in_every_mode(mode):
    ds, _ = dup_heavy_batch()
    state = init_trainer(ds, mode, small_config())
    batch = Batch(users=[UserSequence(0, ((0, 1), (999, 0), (2, 1)))])
    with pytest.raises(ValueError, match="item 999 is not in the dataset"):
        train_step(batch, state)


def test_item_rows_finds_rows_and_names_an_unknown_item():
    from gram.training import _item_rows
    item_ids = np.array([2, 5, 9])
    assert _item_rows(item_ids, np.array([9, 2, 5])).tolist() == [2, 0, 1]
    for items, unknown in (([5, 7], 7), ([1, 2], 1), ([9, 10], 10)):
        with pytest.raises(ValueError, match=f"item {unknown} is not in the dataset"):
            _item_rows(item_ids, np.array(items))
    with pytest.raises(ValueError, match="item 3 is not in the dataset"):
        _item_rows(item_ids[:0], np.array([3]))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def test_no_content_never_touches_encoder():
    ds, batch = dup_heavy_batch()
    state = init_trainer(ds, "no_content", small_config())
    assert state.ce is None
    train_step(batch, state)
    assert state.counters.ce_forward_calls == 0
    assert state.counters.ce_backward_calls == 0
    assert state.window is None


def test_no_content_trains_only_touched_rows():
    ds, batch = dup_heavy_batch()
    extra = Item(99, (7, 8))      # never interacted with
    ds2 = Dataset(items=ds.items + [extra], users=ds.users)
    state = init_trainer(ds2, "no_content", small_config(
        opt_ce=OptimizerConfig(kind="sgd", lr=0.1),
        opt_cf=OptimizerConfig(kind="sgd", lr=0.1)))
    before = state.table.data.copy()
    train_step(batch, state)
    row99 = np.searchsorted(state.item_ids, 99)
    assert state.item_ids[row99] == 99
    assert np.array_equal(state.table.data[row99], before[row99])
    changed = np.searchsorted(state.item_ids, batch.unique_items)
    assert not np.array_equal(state.table.data[changed], before[changed])


def test_no_finetune_encodes_once_at_init():
    ds, batch = dup_heavy_batch()
    state = init_trainer(ds, "no_finetune", small_config())
    assert state.counters.ce_forward_calls == len(ds.items)
    ce_before = {k: v.data.copy() for k, v in state.ce.named().items()}
    train_step(batch, state)
    train_step(batch, state)
    assert state.counters.ce_forward_calls == len(ds.items)   # unchanged
    for k, v in state.ce.named().items():
        assert np.array_equal(v.data, ce_before[k])           # frozen


# ---------------------------------------------------------------------------
# Equivalence verification
# ---------------------------------------------------------------------------


def test_max_rel_err_basics():
    a = {"x": np.array([1.0, 2.0])}
    assert max_rel_err(a, {"x": np.array([1.0, 2.0])}) == 0.0
    with pytest.raises(ValueError):
        max_rel_err(a, {"y": np.array([1.0])})


@pytest.mark.parametrize("variant,clip_norm", [
    ("recurrent", None), ("attention", None), ("recurrent", 0.5), ("attention", 0.5)],
    ids=["recurrent", "attention", "recurrent-clip0.5", "attention-clip0.5"])
def test_verifier_reports_tiny_errors(variant, clip_norm):
    # clipping keeps the equivalence only because each module is clipped on
    # its own in every mode
    ds = tiny_dataset(seed=9, n_users=16, n_items=8)
    model = ModelConfig(d=8, d_ff=12, d_h=8, vocab_size=60, cf_variant=variant)
    cfg = TrainConfig(model=model, cf_batch_size=4, seed=3, clip_norm=clip_norm)
    rep = verify_equivalence(ds, cfg, n_trials=3, k_steps=10)
    assert rep["max_param_grad_rel_err"] <= 1e-10
    assert rep["max_trajectory_rel_err_sgd"] <= 1e-8
    assert rep["max_trajectory_rel_err_adam"] <= 1e-8


@pytest.mark.parametrize("mode", ["e2e", "gram", "no_content", "no_finetune"])
def test_train_step_applies_what_step_gradients_returns(mode, monkeypatch):
    import copy
    from gram import training
    ds, batch = dup_heavy_batch()
    state = init_trainer(ds, mode, small_config())     # 1S: gram's window closes
    _, expected = step_gradients(batch, copy.deepcopy(state))
    calls = []
    real = training.optimizer_apply

    def spy(opt, params, grads):
        calls.append(({id(state.opt_ce): "ce", id(state.opt_cf): "cf"}[id(opt)], grads))
        return real(opt, params, grads)

    monkeypatch.setattr(training, "optimizer_apply", spy)
    train_step(batch, state)
    assert set(expected) == ({"cf"} if mode == "no_finetune" else {"ce", "cf"})
    assert sorted(module for module, _ in calls) == sorted(expected)
    for module, applied in calls:
        assert applied.keys() == expected[module].keys()
        for name, g in expected[module].items():
            assert np.array_equal(applied[name], g), (module, name)


def test_verifier_gradients_catch_a_fault_in_the_gram_step_inputs(monkeypatch):
    # the gradient trials run the trainer's own step, so a fault in how it
    # builds gram's leaf shows in the gradient keys, not only the trajectories
    from gram import training
    real = training._step_inputs

    def faulty(batch, rows, state):
        index, enc, modules = real(batch, rows, state)
        if state.mode == "gram":
            enc.data = enc.data * 1.01
        return index, enc, modules

    ds = tiny_dataset(seed=9, n_users=16, n_items=8)
    cfg = TrainConfig(model=SMALL_MODEL, cf_batch_size=4, seed=3)
    monkeypatch.setattr(training, "_step_inputs", faulty)
    rep = verify_equivalence(ds, cfg, n_trials=2, k_steps=1)
    assert rep["max_ce_grad_rel_err"] > 1e-4
    assert rep["max_cf_grad_rel_err"] > 1e-4


def test_verifier_requires_f64():
    ds = tiny_dataset()
    with pytest.raises(ConfigError):
        verify_equivalence(ds, small_config(precision="f32"), n_trials=1)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_evaluate_equals_the_per_prediction_oracle(variant):
    ds = tiny_dataset(n_users=80)
    cfg = small_config(model=replace(SMALL_MODEL, cf_variant=variant), max_epochs=1, n_cs_items=2)
    _, state = train(ds, "gram", cfg)
    plan = plan_run(ds, cfg)
    # every third user answers every item wrong, so its group has no positive;
    # 80 users make two scoring batches
    some_without = [UserSequence(u.user_id, tuple((i, 0) for i, _ in u.interactions))
                    if k % 3 == 0 else u for k, u in enumerate(ds.users)]
    for users, cs_items in ((plan.test_users, plan.cs_items), (plan.test_users, None),
                            (some_without, plan.cs_items)):
        got = evaluate(state, users, cs_items)
        assert got == RM.evaluate(state, users, cs_items)
        assert ("cs_auc" in got) == (cs_items is not None)


def test_evaluate_skips_users_without_a_predictable_position():
    # a scoring batch of single-interaction users has nothing to predict;
    # skipping them leaves every metric as it is without them
    ds, _ = generate_synthetic(GenConfig(n_users=300), 5)
    state = init_trainer(ds, "gram", TrainConfig())
    singles = [UserSequence(1000 + k, ((k % 80, k % 2),)) for k in range(100)]
    assert evaluate(state, singles + ds.users) == evaluate(state, ds.users)


def test_evaluate_names_an_item_outside_the_dataset():
    ds = tiny_dataset()
    state = init_trainer(ds, "gram", small_config())
    stranger = UserSequence(99, ((0, 1), (77, 0), (1, 1)))
    with pytest.raises(ValueError, match="item 77 is not in the dataset"):
        evaluate(state, ds.users + [stranger])


def test_evaluate_names_the_first_non_finite_prediction(monkeypatch):
    from gram import training
    ds = tiny_dataset(n_users=80)
    state = init_trainer(ds, "gram", small_config())
    real, seen = training.batch_scores, []

    def poisoned(*args):
        out = real(*args)
        seen.append(out)
        if len(seen) == 2:
            out[0][3] = np.nan
        return out

    monkeypatch.setattr(training, "batch_scores", poisoned)
    with pytest.raises(ValueError) as err:
        evaluate(state, ds.users)
    index, group = len(seen[0][0]) + 3, training.EVAL_BATCH_SIZE + seen[1][3][3]
    assert str(err.value) == f"prediction {index} (group {group}): score nan is not finite"


# ---------------------------------------------------------------------------
# The train loop
# ---------------------------------------------------------------------------


def test_train_sends_steps_and_evaluations_through_module_names(monkeypatch):
    # the benchmark times train() by replacing these two module globals, so
    # train() must look both up at call time
    from gram import training
    calls = {"train_step": 0, "evaluate": 0}

    def counting(name):
        fn = getattr(training, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(training, name, counting(name))
    ds = tiny_dataset(n_users=30)
    cfg = small_config(max_epochs=2, patience=0, n_cs_items=2)
    report, state = train(ds, "gram", cfg)
    assert calls["train_step"] == state.t == 2 * training.plan_run(ds, cfg).steps_per_epoch
    assert calls["evaluate"] == len(report.history) + 1 == 3


@pytest.mark.parametrize("split", ["validation", "test"])
def test_single_class_split_is_rejected_before_training(monkeypatch, split):
    # a one-class split has no AUC: that is a config error before the first
    # step, not a crash after a whole epoch
    from gram import training
    ds = tiny_dataset(n_users=30)
    cfg = small_config(n_cs_items=2)
    plan = training.plan_run(ds, cfg)
    members = plan.val_users if split == "validation" else plan.test_users
    flip = {u.user_id for u in members}
    # the splits depend on seeds and items only, so flipping responses keeps them
    users = [UserSequence(u.user_id, tuple((i, 1) for i, _ in u.interactions))
             if u.user_id in flip else u for u in ds.users]
    n_pos = sum(len(u) - 1 for u in members)
    steps = []
    monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
    with pytest.raises(ConfigError, match=f"{split} split has {n_pos} positive and 0 negative"):
        train(Dataset(items=ds.items, users=users), "gram", cfg)
    assert steps == []


def test_train_reports_are_deterministic():
    ds = tiny_dataset(n_users=30)
    cfg = small_config(max_epochs=3, n_cs_items=2)
    r1, _ = train(ds, "gram", cfg)
    r2, _ = train(ds, "gram", cfg)
    assert r1.deterministic_json() == r2.deterministic_json()
    # wall-clock fields exist but are excluded from the deterministic form
    assert "wall_clock_ns" in r1.counters
    assert "wall_clock_ns" not in r1.deterministic_json()


def test_train_restores_best_checkpoint():
    ds = tiny_dataset(n_users=30)
    cfg = small_config(max_epochs=4, n_cs_items=2)
    rep, state = train(ds, "e2e", cfg)
    assert rep.best_epoch == int(np.argmax([h["val_auc"] for h in rep.history]))
    assert rep.final_metrics["val_auc"] == max(h["val_auc"] for h in rep.history)
    assert len(rep.history) <= cfg.max_epochs


def test_train_counter_window_identity():
    # cached windows: encoder forwards per epoch == distinct items that
    # epoch touched; joint backprop == interaction occurrences
    ds = tiny_dataset(n_users=25, n_items=8)
    cfg = small_config(max_epochs=1, latency="1E", n_cs_items=2)
    rg, sg = train(ds, "gram", cfg)
    re_, se = train(ds, "e2e", cfg)
    # recount by direct scan of the same shuffled epoch
    seeds = seed_streams(cfg.seed)
    from gram.dataset import cold_start_split, split_users
    train_ds, _, _ = cold_start_split(ds, cfg.n_cs_items, seeds["split"], cfg.test_frac)
    tr_users, _ = split_users(train_ds.users, cfg.val_frac, seeds["val"])
    distinct = set()
    occurrences = 0
    for b in batch_iter(tr_users, cfg.cf_batch_size, shuffle_seed=[seeds["shuffle"], 0]):
        distinct.update(b.unique_items)
        occurrences += b.n_interactions()
    assert rg.counters["ce_forward_calls"] == len(distinct)
    assert re_.counters["ce_forward_calls"] == occurrences


def test_gram_memory_peak_below_e2e():
    ds = tiny_dataset(n_users=30)
    cfg = small_config(cf_batch_size=4, ce_batch_size=8, max_epochs=1,
                       latency="1E", n_cs_items=2)
    rg, _ = train(ds, "gram", cfg)
    re_, _ = train(ds, "e2e", cfg)
    assert rg.counters["activation_elements_peak"] < re_.counters["activation_elements_peak"]


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
@pytest.mark.parametrize("mode", ["e2e", "gram"])
def test_every_step_releases_what_it_saved(mode, variant):
    # backward releases only nodes the loss reaches, so an op no logit
    # reads would stay counted and pile up across steps
    ds = tiny_dataset(n_users=30)
    cfg = small_config(model=replace(SMALL_MODEL, cf_variant=variant), latency="2S")
    state = init_trainer(ds, mode, cfg)
    for batch in batch_iter(ds.users, cfg.cf_batch_size):
        train_step(batch, state)
        assert state.accountant.current == 0, f"step {state.t}"
    assert state.accountant.peak > 0
