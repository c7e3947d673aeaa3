"""Trainer tests: optimizers, cache/window mechanics, counters,
gradient equivalence, baselines, and the train loop."""

import itertools
import json
import platform
import re
from dataclasses import FrozenInstanceError, asdict, replace

import numpy as np
import pytest

import reference_metrics as RM
from reference_optimizer import ReferenceOptimizer
from gram import autodiff as ad
from gram.autodiff import Tensor
from gram.dataset import Batch, Dataset, GenConfig, Item, UserSequence, batch_iter, generate_synthetic
from gram.model import (
    ItemTable,
    ModelConfig,
    batch_sequence_loss,
    ce_encode,
    init_params,
    load_checkpoint,
    named_params,
    save_checkpoint,
)
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


def user(uid, pairs):
    """A ``UserSequence`` of (item, response) pairs."""
    return UserSequence(uid, [i for i, _ in pairs], [r for _, r in pairs])


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
        user(0, ((0, 1), (1, 0), (2, 1), (3, 0))),
        user(1, ((1, 1), (2, 0), (3, 1), (4, 0))),
        user(2, ((0, 0), (2, 1), (4, 1), (1, 1))),
    ]
    return Dataset(items=items, users=users), Batch(users=users)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def one_tensor(data):
    """A module of one trained tensor holding ``data``."""
    return ItemTable(Tensor(np.asarray(data, dtype=np.float64), grad_enabled=True))


def test_sgd_lr_one_is_plain_subtraction():
    p = one_tensor([1.0, 2.0, 3.0])
    g = np.array([0.5, -1.0, 2.0])
    opt = OptimizerState(OptimizerConfig(kind="sgd", lr=1.0))
    optimizer_apply(opt, p, g)
    assert np.array_equal(p.flat, np.array([0.5, 3.0, 1.0]))
    assert np.array_equal(p.embedding.data, p.flat)


def test_sgd_zero_lr_keeps_params():
    p = one_tensor([1.0, 2.0])
    before = p.flat.copy()
    optimizer_apply(OptimizerState(OptimizerConfig(kind="sgd", lr=0.0)), p, np.ones(2))
    assert np.array_equal(p.flat, before)


def test_adam_first_step_magnitude():
    # bias correction makes the first update ~lr per component when |g| >> eps
    p = one_tensor(np.zeros(4))
    g = np.array([1.0, -2.0, 0.5, 10.0])
    opt = OptimizerState(OptimizerConfig(kind="adam", lr=1e-3))
    optimizer_apply(opt, p, g)
    assert np.allclose(np.abs(p.flat), 1e-3, rtol=1e-6)
    assert np.array_equal(np.sign(p.flat), -np.sign(g))


def test_adam_moment_buffers_mirror_shapes():
    p = one_tensor(np.zeros((3, 2)))
    opt = OptimizerState(OptimizerConfig(kind="adam", lr=1e-3))
    assert opt.m is None and opt.v is None
    optimizer_apply(opt, p, np.ones(6))
    assert opt.m.shape == opt.v.shape == p.flat.shape == (6,)
    assert opt.step == 1
    optimizer_apply(opt, p, np.ones(6))
    assert opt.step == 2


def test_noam_peaks_at_warmup():
    opt = OptimizerConfig(kind="sgd", lr=1.0, schedule="noam", model_dim=16, warmup=50)
    lrs = [opt.lr_at(s) for s in range(1, 200)]
    assert int(np.argmax(lrs)) + 1 == 50
    assert lrs[49] == pytest.approx(1.0 * 16 ** -0.5 * 50 ** -0.5)


def test_optimizer_rejects_shape_mismatch():
    p = one_tensor(np.zeros(()))
    opt = OptimizerState(OptimizerConfig(kind="sgd"))
    with pytest.raises(ConfigError):
        optimizer_apply(opt, p, np.ones(2))
    assert opt.step == 0


@pytest.mark.parametrize("schedule", ["constant", "noam"])
@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_optimizer_apply_matches_the_per_tensor_oracle_bit_for_bit(kind, schedule):
    # SGD and Adam are elementwise, so one flat update equals stepping
    # each tensor on its own
    cfg = OptimizerConfig(kind=kind, lr=1e-2, schedule=schedule, warmup=5)
    rng = np.random.default_rng(4)
    for module in init_params(SMALL_MODEL, 2):
        opt, ref = OptimizerState(cfg), ReferenceOptimizer(cfg)
        want = {k: t.data.copy() for k, t in module.named().items()}
        for _ in range(20):
            g = rng.standard_normal(module.flat.shape)
            optimizer_apply(opt, module, g)
            want = ref.apply(want, module.views(g))
            for name, t in module.named().items():
                assert np.array_equal(t.data, want[name]), name


def test_clip_by_global_norm():
    g = np.array([3.0, 0.0, 0.0, 4.0])      # norm 5
    clipped = clip_by_global_norm(g, 1.0)
    assert np.sqrt(np.sum(clipped * clipped)) == pytest.approx(1.0)
    assert np.allclose(clipped, [0.6, 0.0, 0.0, 0.8])
    # under the bound: untouched
    assert clip_by_global_norm(g, 100.0) is g


def test_each_trainer_starts_with_zeroed_optimizer_state():
    # the config holds settings only; every trainer gets its own run state
    ds, batch = dup_heavy_batch()
    cfg = small_config(opt_ce=OptimizerConfig(kind="adam"))
    first = init_trainer(ds, "e2e", cfg)
    train_step(batch, first)
    assert first.opt_ce.step == 1 and first.opt_ce.m is not None
    second = init_trainer(ds, "e2e", cfg)
    assert second.opt_ce.step == 0 and second.opt_ce.m is None and second.opt_ce.v is None
    assert second.opt_ce.cfg is cfg.opt_ce


# ---------------------------------------------------------------------------
# Flat parameter storage
# ---------------------------------------------------------------------------


def assert_views_its_flat(module):
    """Each of ``module``'s tensors is a view of its region of ``module.flat``,
    in ``named()`` order."""
    flat = module.flat
    assert flat.ndim == 1 and flat.flags.c_contiguous
    lo = 0
    for name, t in module.named().items():
        region = flat[lo:lo + t.size]
        assert t.data.dtype == flat.dtype and t.data.flags.c_contiguous, name
        assert t.data.ctypes.data == region.ctypes.data, name
        lo += t.size
    assert lo == flat.size


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("mode", ["e2e", "gram", "no_content", "no_finetune"])
def test_init_trainer_builds_modules_that_view_their_flat_array(mode, precision):
    ds, _ = dup_heavy_batch()
    state = init_trainer(ds, mode, small_config(precision=precision))
    dtype = np.float64 if precision == "f64" else np.float32
    for module in (m for m in (state.ce, state.table, state.cf) if m is not None):
        assert module.flat.dtype == dtype
        assert_views_its_flat(module)


@pytest.mark.parametrize("mode", ["gram", "no_content"])
def test_a_deep_copy_views_its_own_flat_array(mode):
    import copy
    ds, _ = dup_heavy_batch()
    state = init_trainer(ds, mode, small_config())
    twin = copy.deepcopy(state)
    for module, copied in ((state.ce or state.table, twin.ce or twin.table), (state.cf, twin.cf)):
        assert_views_its_flat(copied)
        assert not np.shares_memory(copied.flat, module.flat)
        assert np.array_equal(copied.flat, module.flat)
    twin.cf.tensors[0].data[...] += 1.0      # an edit through a tensor reaches only its copy
    assert np.array_equal(twin.cf.flat[:twin.cf.tensors[0].size], twin.cf.tensors[0].data.ravel())
    assert not np.array_equal(twin.cf.flat, state.cf.flat)


@pytest.mark.parametrize("kind", ["sgd", "adam"])
def test_steps_restores_and_loads_keep_every_tensor_a_view_of_its_flat_array(kind, tmp_path):
    from gram.training import _restore, _snapshot
    ds, batch = dup_heavy_batch()
    opt = OptimizerConfig(kind=kind, lr=0.1)
    state = init_trainer(ds, "gram", small_config(opt_ce=opt, opt_cf=opt))
    snap = _snapshot(state)
    train_step(batch, state)              # 1S: both modules step
    assert state.opt_ce.step == state.opt_cf.step == 1
    for module, before in zip((state.ce, state.cf), snap):
        assert not np.array_equal(module.flat, before)
        assert_views_its_flat(module)
    _restore(state, snap)
    for module, before in zip((state.ce, state.cf), snap):
        assert module.flat is before
        assert_views_its_flat(module)
    save_checkpoint(tmp_path / "ckpt.npz", state.ce, state.cf)
    for module in load_checkpoint(tmp_path / "ckpt.npz"):
        assert_views_its_flat(module)


def test_a_step_replaces_parameter_arrays_and_mutates_none():
    # a snapshot holds the flat arrays themselves, and a graph the views it
    # was built on; a step binds new arrays, so both keep their values and
    # the graph backpropagates as it would have before the step
    from gram.training import _snapshot
    ds, batch = dup_heavy_batch()
    adam = OptimizerConfig(kind="adam", lr=0.1)
    state = init_trainer(ds, "e2e", small_config(opt_ce=adam, opt_cf=adam))
    snap = _snapshot(state)
    kept = [a.copy() for a in snap]
    rows = np.arange(len(ds.items))
    seed = np.random.default_rng(0).standard_normal((len(rows), SMALL_MODEL.d))
    early, late = (ce_encode(rows, state.tokens, state.ce) for _ in range(2))
    want = ad.backward(early, seed)
    train_step(batch, state)
    assert all(np.array_equal(a, b) for a, b in zip(snap, kept))
    assert all(a is not m.flat for a, m in zip(snap, (state.ce, state.cf)))
    got = ad.backward(late, seed)
    for name, t in state.ce.named().items():
        assert np.array_equal(got[t].data, want[t].data), name


def test_loads_a_checkpoint_written_the_v1_way(tmp_path):
    # named arrays, the format tag and the config, written without
    # save_checkpoint: the archive layout that files already on disk have
    cfg = ModelConfig(d=4, d_ff=6, d_h=3, vocab_size=10, l_ce=2)
    d, h = cfg.d, cfg.d_h
    shapes = {"ce.token_embedding": (cfg.vocab_size, d)}
    for i in range(cfg.l_ce):
        shapes.update({f"ce.layer{i}.{n}": (d, d) for n in ("wq", "wk", "wv", "wo")})
        shapes.update({f"ce.layer{i}.w_ff1": (d, cfg.d_ff), f"ce.layer{i}.w_ff2": (cfg.d_ff, d)})
    shapes.update({"ce.w_out": (d, d), "cf.resp_embedding": (2, d), "cf.w_ih": (2 * d, 3 * h),
                   "cf.w_hh": (h, 3 * h), "cf.b_ih": (3 * h,), "cf.b_hh": (3 * h,),
                   "cf.w_readout": (d, h)})
    rng = np.random.default_rng(3)
    for dtype in (np.float64, np.float32):
        arrays = {k: rng.standard_normal(shape).astype(dtype) for k, shape in shapes.items()}
        path = tmp_path / f"{np.dtype(dtype).name}.npz"
        with open(path, "wb") as f:
            np.savez(f, format=np.array("gram-checkpoint-v1"),
                     config=np.array(json.dumps(asdict(cfg))), **arrays)
        ce, cf = load_checkpoint(path)
        assert ce.cfg == cfg
        loaded = named_params(ce, cf)
        assert list(loaded) == list(shapes)
        for name, arr in arrays.items():
            assert loaded[name].dtype == dtype and np.array_equal(loaded[name].data, arr), name
        for module in (ce, cf):
            assert_views_its_flat(module)


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


def test_an_empty_training_split_is_a_config_error_giving_the_split_counts():
    # of 2 users, the test split takes 1 and validation the other
    ds, _ = generate_synthetic(GenConfig(n_users=2, n_items=30, n_topics=2,
                                         seq_len_range=(30, 40)), 0)
    with pytest.raises(ConfigError, match=re.escape(
            "training split is empty after the test, cold-start and validation splits: of 2 "
            "users, test took 1, removing the 2 cold-start items left 0 with fewer than 2 "
            "interactions, and validation took 1")):
        plan_run(ds, small_config(n_cs_items=2))


@pytest.mark.parametrize("n_cs_items", [24, 30])
def test_an_infeasible_cold_start_split_is_a_config_error_giving_the_test_split(n_cs_items):
    # of 2 users the test split takes 1, whose 30..40 interactions hold 16
    # of the 30 items: neither 24 (more than 16) nor 30 (every item) can
    # be cold-start
    ds, _ = generate_synthetic(GenConfig(n_users=2, n_items=30, n_topics=2,
                                         seq_len_range=(30, 40)), 0)
    with pytest.raises(ConfigError, match=re.escape(
            f"n_cs_items: cannot pick {n_cs_items} cold-start items: the test split's 1 users "
            f"hold 16 distinct items of the 30; at most 16, and fewer than 30, can be cold-start")):
        plan_run(ds, small_config(n_cs_items=n_cs_items))


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
    one = user(0, ((0, 1), (1, 0)))
    state = init_trainer(ds, "e2e", small_config())
    train_step(Batch(users=[one]), state)
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
# The window clock, shared by every mode
# ---------------------------------------------------------------------------


def _item_side(state):
    """A copy of the item side's parameters: the encoder, or no_content's table."""
    module = state.table if state.mode == "no_content" else state.ce
    return {k: t.data.copy() for k, t in module.named().items()}


@pytest.mark.parametrize("mode", ["e2e", "gram", "no_content"])
def test_the_item_side_steps_once_per_window_and_the_cf_every_step(mode):
    ds, batch = dup_heavy_batch()
    sgd = OptimizerConfig(kind="sgd", lr=0.1)
    state = init_trainer(ds, mode, small_config(opt_ce=sgd, opt_cf=sgd, latency="2S"))
    item0, cf0 = _item_side(state), {k: t.data.copy() for k, t in state.cf.named().items()}
    rep = train_step(batch, state)
    assert not rep["window_closed"] and state.opt_ce.step == 0 and state.opt_cf.step == 1
    assert max_rel_err(item0, _item_side(state)) == 0.0
    assert max_rel_err(cf0, {k: t.data for k, t in state.cf.named().items()}) > 0.0
    rep = train_step(batch, state)
    assert rep["window_closed"] and state.opt_ce.step == 1 and state.opt_cf.step == 2
    assert max_rel_err(item0, _item_side(state)) > 0.0
    assert state.pending is None


def test_a_first_gradient_sum_copies_nothing():
    from gram.training import _sum_grads
    g, h = np.ones(3), np.full(3, 2.0)
    total = _sum_grads(None, g)
    assert total is g
    total = _sum_grads(total, h)
    assert np.array_equal(total, [3.0, 3.0, 3.0]) and np.array_equal(g, np.ones(3))


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
    assert rep["window_closed"] and rep["cache_size"] == rep["ce_items"] == 5
    assert "pseudo_loss" not in rep        # a single step sums no dL/dh


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
    # read of h moved by g would give a different second gradient
    ds, batch = dup_heavy_batch()
    zero = OptimizerConfig(kind="sgd", lr=0.0)
    cfg = small_config(opt_ce=zero, opt_cf=zero, latency="4S")
    once, twice = init_trainer(ds, "gram", cfg), init_trainer(ds, "gram", cfg)
    train_step(batch, once)
    train_step(batch, twice)
    train_step(batch, twice)
    rows = np.searchsorted(once.item_ids, batch.unique_items)
    with ad.no_grad():
        h = {r: ce_encode(np.array([r]), once.tokens, once.ce).data[0] for r in rows}
    for r in rows:
        g = once.window.dh[r]
        assert np.any(g != 0.0)
        assert np.array_equal(twice.window.dh[r], 2.0 * g)
        assert np.allclose(twice.window.encodings[r], h[r], rtol=1e-12, atol=1e-15)


def leaf_gradient(batch, state):
    """dL/dh of the batch loss at the state's parameters, row j for item
    ``batch.unique_items[j]``, from a leaf of their encodings."""
    rows = np.searchsorted(state.item_ids, batch.unique_items)
    with ad.no_grad():
        leaf = Tensor(ce_encode(rows, state.tokens, state.ce).data, grad_enabled=True)
    loss, _ = batch_sequence_loss(batch, batch.inverse, leaf, state.cf)
    return rows, ad.backward(loss)[leaf].data


def test_window_sums_the_raw_leaf_gradient_regardless_of_lr():
    # the window adds dL/dh itself, with no learning-rate scaling, though
    # the CF optimizer uses its own lr
    ds, batch = dup_heavy_batch()
    zero = OptimizerConfig(kind="sgd", lr=0.0)
    cfg = small_config(opt_ce=zero, opt_cf=OptimizerConfig(kind="sgd", lr=0.37),
                       latency="2S")
    state = init_trainer(ds, "gram", cfg)
    rows, g = leaf_gradient(batch, state)
    train_step(batch, state)
    assert np.any(g != 0.0)
    assert np.array_equal(state.window.dh[rows], g)


def test_untouched_window_row_keeps_its_dh_sum():
    ds, batch = dup_heavy_batch()
    state = init_trainer(ds, "gram", small_config(latency="5S"))
    train_step(batch, state)
    row = np.searchsorted(state.item_ids, 4)
    kept = state.window.dh[row].copy()
    sub = Batch(users=[user(9, ((0, 1), (1, 0), (2, 1)))])
    train_step(sub, state)
    assert np.array_equal(state.window.dh[row], kept)


@pytest.mark.parametrize("ce_batch_size", [0, 1, 3, 8])
def test_zero_dh_gives_an_exactly_zero_ce_gradient_at_any_chunk_size(ce_batch_size):
    # a zero readout gives every leaf row a zero dL/dh, and the encoder's
    # window gradient is J^T dh, so it is zero however the window's items
    # are chunked
    ds, _ = generate_synthetic(GenConfig(), seed=1000)
    cfg = TrainConfig(latency="2S", ce_batch_size=ce_batch_size, seed=1)
    plan = plan_run(ds, cfg)
    state = init_trainer(ds, "gram", cfg, steps_per_epoch=plan.steps_per_epoch)
    batches = list(itertools.islice(epoch_batches(plan.train_users, cfg, 0), 2))
    state.cf.w_readout.data[...] = 0.0
    assert not step_gradients(batches[0], state)[0]["window_closed"]
    rep, grads = step_gradients(batches[1], state)
    items = np.union1d(*(b.unique_items for b in batches))
    assert rep["window_closed"] and rep["ce_items"] == len(items) > 8
    assert rep["pseudo_loss"] == 0.0
    assert grads["ce"].shape == state.ce.flat.shape
    assert not grads["ce"].any()
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
    users = [user(0, ((0, 1), (1, 0), (2, 1))),
             user(1, ((3, 0), (4, 1), (5, 0)))]
    ds = Dataset(items=items, users=users)
    batch = Batch(users=users)
    ce, cf = init_params(SMALL_MODEL, 3)
    cfg = small_config()
    ref = _step_grads(ds, "e2e", cfg, ce, cf, batch)
    alt = _step_grads(ds, "gram", cfg, ce, cf, batch)
    for module, p in (("ce", ce), ("cf", cf)):
        assert max_rel_err(p.views(ref[module]), p.views(alt[module])) <= 1e-12


def test_duplicate_occurrences_accumulate_like_joint_backprop():
    ds, batch = dup_heavy_batch()      # items repeat across users
    ce, cf = init_params(SMALL_MODEL, 8)
    cfg = small_config()
    ref = _step_grads(ds, "e2e", cfg, ce, cf, batch)
    alt = _step_grads(ds, "gram", cfg, ce, cf, batch)
    for module, p in (("ce", ce), ("cf", cf)):
        assert max_rel_err(p.views(ref[module]), p.views(alt[module])) <= 1e-10


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


# chunk_dataset has 8 steps per epoch, so 0.5E is a window of 4
@pytest.mark.parametrize("latency", ["2S", "10S", "0.5E"])
@pytest.mark.parametrize("kind,lr", [("sgd", 1e-2), ("adam", 1e-3)])
@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_gram_follows_e2e_at_the_same_latency(variant, kind, lr, latency):
    # a gram window of N steps is joint backprop at update latency N, which
    # is not joint backprop at 1S
    ds = chunk_dataset()
    opt = OptimizerConfig(kind=kind, lr=lr)
    cfg = small_config(model=replace(SMALL_MODEL, cf_variant=variant), cf_batch_size=8,
                       latency=latency, opt_ce=opt, opt_cf=opt)
    ref, _, _ = run_epochs(ds, "e2e", cfg, 3)
    alt, _, reps = run_epochs(ds, "gram", cfg, 3)
    single, _, _ = run_epochs(ds, "e2e", replace(cfg, latency="1S"), 3)
    assert len(reps) == 24 and any(r["window_closed"] for r in reps)
    assert max_rel_err(ref, alt) <= 1e-12
    assert max_rel_err(ref, single) > 1e-6


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
    assert counters["ce_reencode_calls"] == counters["ce_backward_calls"] > 0
    for bs in (3, 8):
        assert max_rel_err(params, runs[bs][0]) <= 1e-12
        assert runs[bs][1] == counters
    assert peaks[3] <= peaks[8] <= peaks[0]


def test_gram_1s_at_ce_batch_size_0_encodes_each_item_once(monkeypatch):
    # the step's graph encodes each distinct item once, with grad, and the
    # step's backward is the close: nothing is re-encoded
    import gram.training as T
    calls = []

    def counting_encode(*args):
        calls.append(ad.is_grad_enabled())
        return ce_encode(*args)

    monkeypatch.setattr(T, "ce_encode", counting_encode)
    ds, batch = dup_heavy_batch()
    state = init_trainer(ds, "gram", small_config(ce_batch_size=0))
    rep, grads = step_gradients(batch, state)
    assert rep["window_closed"] and grads["ce"].any()
    assert calls == [True]


def test_gram_1s_at_the_default_config_encodes_each_step_once_with_grad(monkeypatch):
    # ce_batch_size picks no path at a single-step window: each step runs
    # one encoder call, with grad, over its distinct items, and an epoch
    # re-encodes nothing
    import gram.training as T
    calls = []

    def counting_encode(rows, *args):
        calls.append((len(rows), ad.is_grad_enabled()))
        return ce_encode(rows, *args)

    ds, _ = generate_synthetic(GenConfig(), seed=1000)
    cfg = TrainConfig(seed=1)
    assert cfg.latency == "1S" and cfg.ce_batch_size > 0
    plan = plan_run(ds, cfg)
    state = init_trainer(ds, "gram", cfg, steps_per_epoch=plan.steps_per_epoch)
    monkeypatch.setattr(T, "ce_encode", counting_encode)
    batches = list(epoch_batches(plan.train_users, cfg, 0))
    train_step(batches[0], state)
    assert calls == [(len(batches[0].unique_items), True)]
    for batch in batches[1:]:
        train_step(batch, state)
    assert calls == [(len(b.unique_items), True) for b in batches]
    c = state.counters
    assert c.ce_reencode_calls == 0
    assert c.ce_forward_calls == c.ce_backward_calls == sum(n for n, _ in calls)


def test_counted_forwards_and_re_encodes_are_the_rows_training_encoded(monkeypatch):
    # a multi-step window's first touch encodes without grad and its close
    # encodes the window's items again, with grad: the forwards that ran
    # are the counted ones plus the re-encodes
    import gram.training as T
    encoded = []

    def counting_encode(rows, *args):
        encoded.append(len(rows))
        return ce_encode(rows, *args)

    ds, _ = generate_synthetic(GenConfig(), seed=1000)
    cfg = TrainConfig(seed=1, latency="2S")
    plan = plan_run(ds, cfg)
    assert plan.steps_per_epoch % 2 == 0        # the epoch's last window closes
    state = init_trainer(ds, "gram", cfg, steps_per_epoch=plan.steps_per_epoch)
    monkeypatch.setattr(T, "ce_encode", counting_encode)
    for batch in epoch_batches(plan.train_users, cfg, 0):
        train_step(batch, state)
    c = state.counters
    assert c.ce_reencode_calls == c.ce_backward_calls == c.ce_forward_calls > 0
    assert c.ce_forward_calls + c.ce_reencode_calls == sum(encoded)


@pytest.mark.parametrize("latency", ["1S", "2S", "10S"])
@pytest.mark.parametrize("kind,lr", [("sgd", 1e-2), ("adam", 1e-3)])
@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_kept_graphs_follow_the_one_chunk_re_encode(variant, kind, lr, latency):
    # ce_batch_size 0 keeps a window's items in one graph: a single-step
    # window's own, which no chunk size touches, and a longer window's
    # re-encode, as a chunk larger than any window does. The runs agree
    # bit for bit, counters and activation peak included
    ds = chunk_dataset()
    opt = OptimizerConfig(kind=kind, lr=lr)
    cfg = small_config(model=replace(SMALL_MODEL, cf_variant=variant), cf_batch_size=8,
                       latency=latency, opt_ce=opt, opt_cf=opt)
    kept, counters, reps = run_epochs(ds, "gram", replace(cfg, ce_batch_size=0), 4)
    one_chunk, counters_1, _ = run_epochs(ds, "gram", replace(cfg, ce_batch_size=10 ** 6), 4)
    assert len(reps) >= 30 and sum(r["window_closed"] for r in reps) >= 3
    assert counters == counters_1
    assert counters["ce_reencode_calls"] == (0 if latency == "1S" else counters["ce_backward_calls"])
    assert all(np.array_equal(kept[k], one_chunk[k]) for k in kept)


@pytest.mark.parametrize("mode,ce_batch_size,latency", [
    ("gram", 0, "1S"), ("gram", 0, "2S"), ("gram", 3, "1S"), ("gram", 3, "2S"), ("e2e", 0, "1S")])
def test_no_graph_outlives_its_window(mode, ce_batch_size, latency):
    ds = chunk_dataset()
    cfg = small_config(cf_batch_size=8, latency=latency, ce_batch_size=ce_batch_size)
    state = init_trainer(ds, mode, cfg, steps_per_epoch=8)
    closes = 0
    for batch in epoch_batches(ds.users, cfg, 0):
        if train_step(batch, state)["window_closed"]:
            closes += 1
            assert state.accountant.current == 0
    assert closes == 8 // state.accum_steps and state.accountant.peak > 0


def test_init_trainer_builds_an_f32_run_in_float32():
    # the precision is applied where the state is built, so a caller that
    # steps the trainer without train() gets it too
    ds = tiny_dataset()
    cfg = small_config(precision="f32", latency="2S")
    state = init_trainer(ds, "gram", cfg)
    assert {t.dtype for t in named_params(state.ce, state.cf).values()} == {np.dtype(np.float32)}
    assert state.window.encodings.dtype == state.window.dh.dtype == np.float32
    for mode in ("no_content", "no_finetune"):
        assert init_trainer(ds, mode, cfg).table.flat.dtype == np.float32


@pytest.mark.parametrize("mode", ["e2e", "gram", "no_content", "no_finetune"])
def test_f32_train_keeps_every_parameter_and_moment_float32(mode):
    ds = tiny_dataset(n_users=30)
    rep, state = train(ds, mode, small_config(precision="f32", max_epochs=2, n_cs_items=2))
    modules = [m for m in (state.ce, state.table, state.cf) if m is not None]
    moments = [a for opt in (state.opt_ce, state.opt_cf) for a in (opt.m, opt.v) if a is not None]
    assert len(rep.history) == 2 and moments
    assert all(a.dtype == np.float32 for m in modules for a in (m.flat, *(t.data for t in m.tensors)))
    assert all(a.dtype == np.float32 for a in moments)


@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_f32_gram_1s_follows_e2e_to_f32_rounding(variant):
    # the exactness claim is made in f64; an f32 run keeps it to f32 rounding
    ds = chunk_dataset()
    model = replace(SMALL_MODEL, cf_variant=variant)
    cfg = small_config(model=model, cf_batch_size=8, precision="f32")
    ref, _, _ = run_epochs(ds, "e2e", cfg, 2)
    alt, _, _ = run_epochs(ds, "gram", cfg, 2)
    assert all(v.dtype == np.float32 for v in (*ref.values(), *alt.values()))
    assert max_rel_err(ref, alt) <= 1e-5


def test_f32_checkpoint_loads_back_as_float32(tmp_path):
    ds = tiny_dataset()
    cfg = small_config(precision="f32")
    state = init_trainer(ds, "gram", cfg)
    train_step(next(iter(epoch_batches(ds.users, cfg, 0))), state)
    save_checkpoint(tmp_path / "ckpt.npz", state.ce, state.cf)
    loaded = named_params(*load_checkpoint(tmp_path / "ckpt.npz"))
    for name, t in named_params(state.ce, state.cf).items():
        assert loaded[name].dtype == np.float32 and np.array_equal(loaded[name].data, t.data), name


@pytest.mark.parametrize("ce_batch_size", [0, 2])
def test_pseudo_loss_is_half_the_squared_dh_sum(ce_batch_size):
    # step_gradients applies nothing, so both steps see the same dL/dh g
    ds, batch = dup_heavy_batch()       # 5 distinct items: chunks of 2, 2 and 1
    state = init_trainer(ds, "gram", small_config(ce_batch_size=ce_batch_size, latency="2S"))
    _, g = leaf_gradient(batch, state)
    assert "pseudo_loss" not in step_gradients(batch, state)[0]
    rep = step_gradients(batch, state)[0]
    assert rep["pseudo_loss"] == 0.5 * float(np.sum(np.square(2.0 * g)))


def test_write_back_adds_each_row_and_names_a_non_finite_item():
    from gram.training import _write_back
    rng = np.random.default_rng(0)
    item_ids = np.array([2, 5, 9])
    before = rng.standard_normal((3, 3))       # one dL/dh sum per item
    rows = np.array([2, 0, 1])                 # items 9, 2 and 5
    leaf = Tensor(np.zeros((3, 3)), grad_enabled=True)
    g = rng.standard_normal((3, 3))
    dh = before.copy()
    _write_back(dh, rows, item_ids, leaf, {leaf: Tensor(g)})
    for k, r in enumerate(rows):
        assert dh[r].shape == (3,)
        assert np.array_equal(dh[r], before[r] + g[k])
    grad = Tensor(g)        # a Tensor refuses non-finite data, so corrupt it after
    grad.data[1, 0] = grad.data[2, 2] = np.inf
    dh = before.copy()
    with pytest.raises(ad.NonFiniteError, match="dL/dh sum for item 2 is non-finite"):
        _write_back(dh, rows, item_ids, leaf, {leaf: grad})
    assert np.array_equal(dh, before)     # a failed write-back writes nothing


def test_numerical_abort_names_the_step():
    ds, batch = dup_heavy_batch()
    huge = OptimizerConfig(kind="sgd", lr=1e200)
    state = init_trainer(ds, "gram", small_config(opt_ce=huge, opt_cf=huge))
    with pytest.raises(NumericalAbort), np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            train_step(batch, state)


@pytest.mark.parametrize("mode,module", [("e2e", "cf"), ("gram", "cf"), ("no_content", "cf"),
                                         ("no_finetune", "cf"), ("e2e", "ce"), ("gram", "ce"),
                                         ("no_content", "ce")])
def test_a_non_finite_update_aborts_at_the_step_that_made_it(mode, module):
    # one step per epoch and one epoch: before the check, the overflowing
    # update was first met by the validation evaluation
    ds, _ = generate_synthetic(GenConfig(n_users=60), seed=5)
    huge = {f"opt_{module}": OptimizerConfig(kind="sgd", lr=1e308)}
    cfg = TrainConfig(model=ModelConfig(d=8, d_ff=12, d_h=8), cf_batch_size=64, max_epochs=1,
                      seed=11, **huge)
    assert plan_run(ds, cfg).steps_per_epoch == 1
    with pytest.raises(NumericalAbort, match=re.escape(
            f"{mode} step 0: the {module} update produced non-finite parameters")), \
            np.errstate(over="ignore", invalid="ignore"):
        train(ds, mode, cfg)


@pytest.mark.parametrize("mode", ["e2e", "gram", "no_content", "no_finetune"])
def test_unknown_item_fails_the_same_way_in_every_mode(mode):
    ds, _ = dup_heavy_batch()
    state = init_trainer(ds, mode, small_config())
    batch = Batch(users=[user(0, ((0, 1), (999, 0), (2, 1)))])
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
    before = state.table.embedding.data.copy()
    train_step(batch, state)
    row99 = np.searchsorted(state.item_ids, 99)
    assert state.item_ids[row99] == 99
    assert np.array_equal(state.table.embedding.data[row99], before[row99])
    changed = np.searchsorted(state.item_ids, batch.unique_items)
    assert not np.array_equal(state.table.embedding.data[changed], before[changed])


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
        assert np.array_equal(applied, expected[module]), module


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


@pytest.mark.parametrize("latency,window", [("2S", 2), ("0.5E", 2)])
def test_verifier_runs_the_trajectories_at_the_config_latency(latency, window, monkeypatch):
    # 16 users in batches of 4 is 4 steps per epoch, so 0.5E is 2 steps
    from gram import training
    windows = []
    real = training.train_step

    def spy(batch, state):
        windows.append(state.accum_steps)
        return real(batch, state)

    ds = tiny_dataset(seed=9, n_users=16, n_items=8)
    cfg = TrainConfig(model=SMALL_MODEL, cf_batch_size=4, seed=3, latency=latency)
    monkeypatch.setattr(training, "train_step", spy)
    rep = verify_equivalence(ds, cfg, n_trials=2, k_steps=6)
    assert windows == [window] * 24
    assert rep["max_param_grad_rel_err"] <= 1e-10
    assert rep["max_trajectory_rel_err"] <= 1e-8


def test_verifier_gradients_catch_a_window_that_drops_a_touch(monkeypatch):
    # each trial steps one whole window, so a write-back that keeps only an
    # item's last touch shows in the encoder's gradient at the close
    from gram import training

    def overwrite(dh, rows, item_ids, leaf, gmap):
        dh[rows] = gmap[leaf].data

    ds = tiny_dataset(seed=9, n_users=16, n_items=8)
    cfg = TrainConfig(model=SMALL_MODEL, cf_batch_size=4, seed=3, latency="2S")
    monkeypatch.setattr(training, "_write_back", overwrite)
    rep = verify_equivalence(ds, cfg, n_trials=2, k_steps=6)
    assert rep["max_ce_grad_rel_err"] > 1e-3


@pytest.mark.parametrize("latency,window,k_steps", [("5S", 5, 4), ("1E", 4, 3)])
def test_verifier_rejects_a_window_longer_than_its_trajectories(latency, window, k_steps,
                                                                monkeypatch):
    # 16 users in batches of 4 is 4 steps per epoch; a window no trajectory
    # closes leaves both encoders at their init, so it is refused before any trial
    from gram import training
    steps = []
    monkeypatch.setattr(training, "step_gradients", lambda *args: steps.append(args))
    monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
    ds = tiny_dataset(seed=9, n_users=16, n_items=8)
    cfg = TrainConfig(model=SMALL_MODEL, cf_batch_size=4, seed=3, latency=latency)
    with pytest.raises(ConfigError, match=f"^latency {latency} is a window of {window} steps, "
                       f"longer than the {k_steps}-step trajectories$"):
        verify_equivalence(ds, cfg, n_trials=1, k_steps=k_steps)
    assert steps == []


def test_verifier_requires_f64():
    ds = tiny_dataset()
    with pytest.raises(ConfigError):
        verify_equivalence(ds, small_config(precision="f32"), n_trials=1)


@pytest.mark.parametrize("seed", range(5))
def test_verifier_skips_users_with_nothing_to_predict(seed):
    # training's split drops users of fewer than 2 interactions; a trial
    # batch holding only such users has no slot, so the verifier drops them
    # too. Here 7 of every 8 users keep only their first interaction
    ds = tiny_dataset(seed=9, n_users=16, n_items=8)
    users = [u if k % 8 == 0 else UserSequence(u.user_id, u.items[:1], u.resps[:1])
             for k, u in enumerate(ds.users)]
    ds = Dataset(items=ds.items, users=users)
    cfg = TrainConfig(model=SMALL_MODEL, cf_batch_size=2, seed=seed)
    rep = verify_equivalence(ds, cfg, n_trials=2, k_steps=2)
    assert rep["max_param_grad_rel_err"] <= 1e-10
    assert rep["max_trajectory_rel_err"] <= 1e-8


def test_verifier_without_a_user_to_predict_is_a_config_error_before_any_trial(monkeypatch):
    from gram import training
    steps = []
    monkeypatch.setattr(training, "step_gradients", lambda *args: steps.append(args))
    monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
    ds = tiny_dataset()
    ds = Dataset(items=ds.items,
                 users=[UserSequence(u.user_id, u.items[:1], u.resps[:1]) for u in ds.users])
    with pytest.raises(ConfigError, match="users of >= 2 interactions .* has none$"):
        verify_equivalence(ds, small_config(), n_trials=1, k_steps=1)
    assert steps == []


def test_verifier_rejects_a_user_longer_than_max_interactions_before_any_trial(monkeypatch):
    # the trials batch users from the whole dataset, so any long user fails
    # the run sooner or later; it is named up front, before any step
    from gram import training
    ds = tiny_dataset()
    long = ds.users[-1]
    users = [UserSequence(u.user_id, np.tile(u.items, 20), np.tile(u.resps, 20)) if u is long else u
             for u in ds.users]
    steps = []
    monkeypatch.setattr(training, "step_gradients", lambda *args: steps.append(args))
    monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
    cfg = small_config(model=replace(SMALL_MODEL, max_interactions=12))
    with pytest.raises(ConfigError, match=f"^dataset: user {long.user_id} has {20 * len(long)} "
                       "interactions, more than max_interactions 12$"):
        verify_equivalence(Dataset(items=ds.items, users=users), cfg, n_trials=1, k_steps=30)
    assert steps == []


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
    some_without = [UserSequence(u.user_id, u.items, np.zeros_like(u.resps))
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
    singles = [user(1000 + k, ((k % 80, k % 2),)) for k in range(100)]
    assert evaluate(state, singles + ds.users) == evaluate(state, ds.users)


def test_evaluate_names_an_item_outside_the_dataset():
    ds = tiny_dataset()
    state = init_trainer(ds, "gram", small_config())
    stranger = user(99, ((0, 1), (77, 0), (1, 1)))
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
    users = [UserSequence(u.user_id, u.items, np.ones_like(u.resps))
             if u.user_id in flip else u for u in ds.users]
    n_pos = sum(len(u) - 1 for u in members)
    steps = []
    monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
    with pytest.raises(ConfigError, match=f"{split} split has {n_pos} positive and 0 negative"):
        train(Dataset(items=ds.items, users=users), "gram", cfg)
    assert steps == []


@pytest.mark.parametrize("split", ["train", "validation", "test"])
def test_user_longer_than_max_interactions_is_rejected_before_training(monkeypatch, split):
    # the CF cannot read the user, so the run stops at planning with the
    # user and its split named, even when only the final test evaluation
    # would have read it
    from gram import training
    ds = tiny_dataset(n_users=30)
    cfg = small_config(n_cs_items=2, model=replace(SMALL_MODEL, max_interactions=12))
    plan = training.plan_run(ds, cfg)
    long = {"train": plan.train_users, "validation": plan.val_users,
            "test": plan.test_users}[split][0]
    # the splits depend on user positions and test items only, so
    # repeating a user's own interactions keeps them
    users = [UserSequence(u.user_id, np.tile(u.items, 20), np.tile(u.resps, 20))
             if u.user_id == long.user_id else u
             for u in ds.users]
    steps = []
    monkeypatch.setattr(training, "train_step", lambda *args: steps.append(args))
    with pytest.raises(ConfigError, match=f"{split} split: user {long.user_id} has "
                       f"{20 * len(long)} interactions, more than max_interactions 12"):
        train(Dataset(items=ds.items, users=users), "gram", cfg)
    assert steps == []


def test_vocab_check_reads_only_the_encoded_tokens():
    # a token past max_token_len is never embedded, and no_content embeds none
    ds, _ = dup_heavy_batch()
    cfg = small_config(model=replace(SMALL_MODEL, max_token_len=3))
    past = Dataset(items=ds.items[:-1] + [Item(4, (1, 2, 3, 999))], users=ds.users)
    init_trainer(past, "e2e", cfg)
    inside = Dataset(items=ds.items[:-1] + [Item(4, (1, -1))], users=ds.users)
    init_trainer(inside, "no_content", cfg)
    for mode in ("e2e", "gram", "no_finetune"):
        with pytest.raises(ConfigError, match="item 4 has token -1, outside vocab_size 60"):
            init_trainer(inside, mode, cfg)


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


@pytest.mark.parametrize("mode", ["e2e", "gram", "no_content"])
def test_a_run_ending_mid_window_reports_its_unapplied_steps(mode):
    # windows follow the run's step clock: two epochs of 22 steps at 10S
    # close windows at steps 10, 20, 30 and 40, so steps 41-44's encoder
    # (or table) gradient is never applied, in every mode that trains one
    ds = tiny_dataset(n_users=32)
    cfg = small_config(cf_batch_size=1, latency="10S", max_epochs=2, patience=0, n_cs_items=2)
    assert plan_run(ds, cfg).steps_per_epoch == 22
    report, state = train(ds, mode, cfg)
    assert state.t == 44 and report.unapplied_window_steps == 4
    assert json.loads(report.deterministic_json())["unapplied_window_steps"] == 4


def test_early_stopping_mid_window_reports_its_unapplied_steps():
    # patience 1 stops after two of eight epochs of 5 steps: at 4S the
    # window of steps 9 and 10 is open; at 1S, and where nothing is
    # windowed (no_finetune trains only the predictor), nothing is unapplied
    ds = tiny_dataset(n_users=30)
    cfg = small_config(latency="4S", patience=1, max_epochs=8, n_cs_items=2)
    report, state = train(ds, "gram", cfg)
    assert len(report.history) == 2 and state.t == 10
    assert report.unapplied_window_steps == 2
    assert train(ds, "gram", replace(cfg, latency="1S"))[0].unapplied_window_steps == 0
    assert train(ds, "no_finetune", cfg)[0].unapplied_window_steps == 0


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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy needs glibc")
@pytest.mark.parametrize("variant", ["recurrent", "attention"])
def test_e2e_steps_reuse_the_heap_the_last_step_freed(variant):
    # a joint step frees its megabyte tape; a heap that hands it back to
    # the kernel faults it in again page by page, ~600 minor faults a step
    import resource

    ds, _ = generate_synthetic(GenConfig(), seed=1000)
    cfg = TrainConfig(model=ModelConfig(cf_variant=variant))
    plan = plan_run(ds, cfg)
    state = init_trainer(ds, "e2e", cfg, steps_per_epoch=plan.steps_per_epoch)
    for batch in epoch_batches(plan.train_users, cfg, 0):
        train_step(batch, state)
    batches = list(epoch_batches(plan.train_users, cfg, 1))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for batch in batches:
        train_step(batch, state)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / len(batches) < 50, f"{faults} minor faults in {len(batches)} steps"
