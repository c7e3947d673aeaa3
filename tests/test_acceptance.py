"""Acceptance checks. Each test prints one PASS/FAIL summary line (the
lines bypass pytest's capture so they show up in a plain `pytest -v`
run) and then asserts the same condition, with tolerances and runtime
budgets stated inline."""

import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from gram import autodiff as ad
from gram.autodiff import Tensor, grad_check
from gram.dataset import (
    Batch,
    Dataset,
    GenConfig,
    Item,
    UserSequence,
    batch_iter,
    boost_ratio,
    compute_stats,
    generate_synthetic,
    stats_from_metadata,
)
from gram.instrument import speed_report
from gram.model import ModelConfig, ce_encode, init_params, named_params
from gram.training import (
    OptimizerConfig,
    TrainConfig,
    accumulation_latency,
    init_trainer,
    max_rel_err,
    seed_streams,
    step_gradients,
    train,
    train_step,
    verify_equivalence,
)

import os

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
MASTER_SEED = 20260814

# the documented acceptance run: default dataset, Adam 1e-3 on both
# modules, train seed 3 (see the sanity-check test for the full set of
# conditions this configuration must satisfy jointly)
DATASET_SEED = 2024
ACCEPT_TRAIN = dict(
    opt_ce=OptimizerConfig(kind="adam", lr=1e-3),
    opt_cf=OptimizerConfig(kind="adam", lr=1e-3),
    cf_batch_size=16,
    seed=3,
)


def accept_config(**overrides):
    return TrainConfig(**{**ACCEPT_TRAIN, **overrides})


@pytest.fixture(scope="module")
def desk_dataset():
    ds, _ = generate_synthetic(GenConfig(), seed=DATASET_SEED)
    return ds


def announce(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}",
              flush=True)


# ---------------------------------------------------------------------------
# 1. Gradient equivalence of the cached single-step scheme vs joint backprop
# ---------------------------------------------------------------------------


CHUNK = 3      # a ce_batch_size below most batches' distinct items


def _trial_gradients(ds, mode, model, ce_batch_size, ce, cf, batch):
    """``step_gradients`` of a fresh single-step ``mode`` trainer that
    holds (ce, cf)."""
    state = init_trainer(ds, mode, TrainConfig(model=model, ce_batch_size=ce_batch_size))
    state.ce, state.cf = ce, cf
    return step_gradients(batch, state)[1]


def _random_trial(trial: int):
    rng = np.random.default_rng(np.random.SeedSequence([MASTER_SEED, trial]))
    d = int(rng.choice([4, 8, 16]))
    variant = ("recurrent", "attention")[trial % 2]
    cfg = ModelConfig(d=d, d_ff=2 * d, d_h=d, vocab_size=50, cf_variant=variant)
    n_items = int(rng.integers(4, 9))
    tokens = [tuple(int(t) for t in rng.integers(1, 50, size=int(rng.integers(2, 7))))
              for _ in range(n_items)]
    users = []
    for u in range(int(rng.integers(3, 7))):
        ids = rng.integers(0, n_items, size=int(rng.integers(2, 8)))
        users.append(UserSequence(u, tuple(
            (int(i), int(rng.integers(0, 2))) for i in ids)))
    # every trial must exercise the duplicate-occurrence path
    occ = Counter(i for u in users for i, _ in u.interactions)
    if occ.most_common(1)[0][1] < 2:
        first = users[0].interactions
        users[0] = UserSequence(0, first + (first[0],))
    ce, cf = init_params(cfg, int(rng.integers(0, 2 ** 31)))
    batch = Batch(users=users)
    # item i is row i
    ds = Dataset(items=[Item(i, toks) for i, toks in enumerate(tokens)], users=users)
    ref = _trial_gradients(ds, "e2e", cfg, 0, ce, cf, batch)
    worst_ce = worst_cf = 0.0
    # the whole cache in one regression graph, and in chunks of 3 items
    for ce_batch_size in (0, CHUNK):
        alt = _trial_gradients(ds, "gram", cfg, ce_batch_size, ce, cf, batch)
        worst_ce = max(worst_ce, max_rel_err(ref["ce"], alt["ce"]))
        worst_cf = max(worst_cf, max_rel_err(ref["cf"], alt["cf"]))
    return worst_ce, worst_cf, len(batch.unique_items) > CHUNK


def test_acceptance_1_gradient_equivalence(capsys):
    t0 = time.monotonic()
    n_trials = 120
    worst_ce = worst_cf = 0.0
    n_chunked = 0
    for trial in range(n_trials):
        ce_err, cf_err, chunked = _random_trial(trial)
        worst_ce, worst_cf = max(worst_ce, ce_err), max(worst_cf, cf_err)
        n_chunked += chunked
    elapsed = time.monotonic() - t0
    ok = worst_ce <= 1e-8 and n_chunked > 0 and elapsed < 120
    announce(capsys, 1, ok,
             f"{n_trials} trials (d in 4/8/16, both predictor variants, forced "
             f"duplicates, regression whole and in chunks of {CHUNK}, {n_chunked} "
             f"trials with more items than a chunk): max encoder-grad rel err "
             f"{worst_ce:.2e} (tol 1e-8), predictor {worst_cf:.2e}, {elapsed:.0f}s "
             f"(budget 120s)")
    assert worst_ce <= 1e-8 and n_chunked > 0
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 2. Trajectory equivalence over 50 optimizer steps
# ---------------------------------------------------------------------------


def test_acceptance_2_trajectory_equivalence(desk_dataset, capsys):
    t0 = time.monotonic()
    sgd = adam = 0.0
    # whole cache, chunks of 3 and the default chunk of 8; a batch of the
    # desk dataset touches more distinct items than either chunk holds
    for ce_batch_size in (0, CHUNK, TrainConfig.ce_batch_size):
        cfg = TrainConfig(seed=MASTER_SEED, ce_batch_size=ce_batch_size)
        rep = verify_equivalence(desk_dataset, cfg, n_trials=1, k_steps=50)
        sgd = max(sgd, rep["max_trajectory_rel_err_sgd"])
        adam = max(adam, rep["max_trajectory_rel_err_adam"])
    elapsed = time.monotonic() - t0
    ok = sgd <= 1e-6 and adam <= 1e-6 and elapsed < 120
    announce(capsys, 2, ok,
             f"50-step divergence at ce_batch_size 0, {CHUNK} and "
             f"{TrainConfig.ce_batch_size}: sgd {sgd:.2e}, adam {adam:.2e} "
             f"(tol 1e-6 each), {elapsed:.0f}s (budget 120s)")
    assert sgd <= 1e-6 and adam <= 1e-6
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 3. Finite-difference gradient correctness (f64, eps = 1e-6, tol 1e-5)
# ---------------------------------------------------------------------------

FD_EPS = 1e-6
FD_TOL = 1e-5


def _primitive_checks():
    """One scalar-valued probe per autodiff primitive; random constant
    cotangents make trivial backward bugs visible."""
    rng = np.random.default_rng(MASTER_SEED)
    t = lambda shape: Tensor(rng.standard_normal(shape), grad_enabled=True)
    const = lambda shape: Tensor(rng.standard_normal(shape))
    lin = lambda y, w: ad.sum_all(ad.mul(y, w))

    x = t((3, 4))
    c, w = const((3, 4)), const((3, 4))
    m = Tensor(rng.standard_normal((4, 2)))
    w32, w33 = const((3, 2)), const((3, 3))
    w64, w4, w2 = const((6, 4)), const((4,)), const((2,))
    xr = Tensor(rng.standard_normal((3, 4)) + np.sign(rng.standard_normal((3, 4))),
                grad_enabled=True)    # kept away from the relu kink
    logits_w = const((5, 4))
    labels = Tensor((rng.random(5) > 0.5).astype(float))
    xg = Tensor(0.5 * rng.standard_normal((6, 6)), grad_enabled=True)   # users of 1, 3, 2 rows, d_h 2
    w_hh, b_hh = Tensor(0.5 * rng.standard_normal((2, 6))), const((6,))  # 3 slots, read by w32
    qa = t((9, 3))      # users of 2 and 7 interactions, d_h 3, d 4: 7 slots
    ka, va, w74 = const((9, 3)), const((9, 4)), const((7, 4))
    pa_rows = np.array([2, 0, 2, 3, 0, 4, 5, 3, 1])    # read rows 0-5 of the table; 2 and 3 twice
    w_pool = Tensor(0.5 * rng.standard_normal((4, 3)))
    vp = rng.standard_normal((3, 1))
    v_pool = Tensor(np.sign(vp) * (0.5 + np.abs(vp)))     # away from 0, as in test_autodiff
    xt = t((7, 4))      # token rows of items of 3 and 4 tokens, d 4, d_ff 5
    w_ce = [Tensor(0.5 * rng.standard_normal(s)) for s in [(4, 4)] * 4 + [(4, 5), (5, 4)]]
    w42 = const((2, 4))
    w3 = const((3,))

    return {
        "add": (lambda v: lin(ad.add(v, c), w), x),
        "sub": (lambda v: lin(ad.sub(c, v), w), x),
        "mul": (lambda v: lin(ad.mul(v, c), w), x),
        "scale": (lambda v: lin(ad.scale(v, -1.7), w), x),
        "neg": (lambda v: lin(ad.neg(v), w), x),
        "matmul": (lambda v: lin(ad.matmul(v, m), w32), x),
        "matmul_rhs": (lambda v: lin(ad.matmul(c, ad.transpose(v)), w33), x),
        "transpose": (lambda v: lin(ad.transpose(v), ad.transpose(w)), x),
        "reshape": (lambda v: lin(ad.reshape(v, (4, 3)), ad.reshape(w, (4, 3))), x),
        "concat": (lambda v: lin(ad.concat([v, ad.mul(v, c)], axis=0), w64), x),
        "stack": (lambda v: lin(ad.stack([ad.sum_all(v), ad.sum_all(ad.mul(v, c))]), w2), x),
        "gather": (lambda v: lin(ad.gather(v, np.array([0, 2, 2])), c), x),
        "row_dot": (lambda v: lin(ad.row_dot(c, v, np.array([1, 1, 0])), w3), x),
        "row_dot_lhs": (lambda v: lin(ad.row_dot(v, c, np.array([2, 0, 2])), w3), x),
        "sum_all": (lambda v: ad.sum_all(v), x),
        "add_n": (lambda v: lin(ad.add_n([v, ad.mul(v, c), c]), w), x),
        "mean_pool": (lambda v: lin(ad.mean_pool(v, axis=0), w4), x),
        "sigmoid": (lambda v: lin(ad.sigmoid(v), w), x),
        "tanh": (lambda v: lin(ad.tanh(v), w), x),
        "relu": (lambda v: lin(ad.relu(v), w), xr),
        "softmax": (lambda v: lin(ad.softmax(v, axis=-1), w), x),
        "bce_loss": (lambda v: ad.bce_loss(ad.reshape(ad.matmul(
            logits_w, ad.reshape(ad.mean_pool(v, axis=0), (4, 1))), (5,)), labels), x),
        "mse_half": (lambda v: ad.mse_half(v, c), x),
        "gru_scan": (lambda v: lin(ad.gru_scan(v, w_hh, b_hh, [1, 3, 2]), w32), xg),
        "prefix_attention": (lambda v: lin(ad.prefix_attention(
            ad.concat([v, ka, va], axis=1), pa_rows, w_pool, v_pool, [2, 7]), w74), qa),
        "ce_block": (lambda v: lin(ad.ce_block(v, *w_ce, [3, 4]), w74), xt),
        "segment_mean": (lambda v: lin(ad.segment_mean(v, [3, 4]), w42), xt),
    }


def _model_fd_check(variant: str, rng, n_coords=3):
    """Central differences of the joint batch loss against analytic
    gradients, at the largest-gradient coordinates of every parameter
    tensor (central differences at eps=1e-6 cannot resolve entries much
    below ~1e-5 of the loss scale, so tiny coordinates would measure
    rounding noise, not correctness)."""
    cfg = ModelConfig(d=6, d_ff=10, d_h=6, vocab_size=30, cf_variant=variant)
    tokens = [tuple(int(t) for t in rng.integers(1, 30, size=4)) for _ in range(4)]
    users = [UserSequence(0, ((0, 1), (1, 0), (2, 1))),
             UserSequence(1, ((1, 1), (3, 0), (0, 0)))]
    batch = Batch(users=users)
    ce, cf = init_params(cfg, int(rng.integers(0, 2 ** 31)))
    ds = Dataset(items=[Item(i, toks) for i, toks in enumerate(tokens)], users=users)
    state = init_trainer(ds, "e2e", TrainConfig(model=cfg))
    state.ce, state.cf = ce, cf
    _, grads = step_gradients(batch, state)
    loss = lambda: step_gradients(batch, state)[0]["loss"]
    worst = 0.0
    for key, param in named_params(ce, cf).items():
        module, name = key.split(".", 1)
        g = np.asarray(grads[module][name]).ravel()
        flat = param.data.ravel()
        for i in np.argsort(-np.abs(g))[:n_coords]:
            if abs(g[i]) < 1e-5:
                break           # below central-difference resolution
            old = flat[i]
            flat[i] = old + FD_EPS
            lp = loss()
            flat[i] = old - FD_EPS
            lm = loss()
            flat[i] = old
            num = (lp - lm) / (2 * FD_EPS)
            worst = max(worst, abs(g[i] - num) / (abs(g[i]) + abs(num) + 1e-12))
    return worst


def test_acceptance_3_finite_differences(capsys):
    t0 = time.monotonic()
    worst_op, worst_op_name = 0.0, ""
    for name, (f, x) in _primitive_checks().items():
        err = grad_check(f, x, eps=FD_EPS)
        if err > worst_op:
            worst_op, worst_op_name = err, name
    rng = np.random.default_rng(MASTER_SEED + 3)
    worst_model = max(_model_fd_check("recurrent", rng),
                      _model_fd_check("attention", rng))
    elapsed = time.monotonic() - t0
    ok = worst_op <= FD_TOL and worst_model <= FD_TOL
    announce(capsys, 3, ok,
             f"fd checks (eps 1e-6): worst primitive {worst_op:.2e} "
             f"({worst_op_name}), worst model loss {worst_model:.2e} "
             f"(tol 1e-5), {elapsed:.0f}s")
    assert worst_op <= FD_TOL, worst_op_name
    assert worst_model <= FD_TOL


# ---------------------------------------------------------------------------
# 4. Encoder-call counters and boost ratios
# ---------------------------------------------------------------------------


def _dup_heavy_batch():
    items = [Item(i, tuple(range(1, 4 + i % 3))) for i in range(5)]
    users = [
        UserSequence(0, ((0, 1), (1, 0), (2, 1), (3, 0))),
        UserSequence(1, ((1, 1), (2, 0), (3, 1), (4, 0))),
        UserSequence(2, ((0, 0), (2, 1), (4, 1), (1, 1))),
    ]
    return Dataset(items=items, users=users), Batch(users=users)


def test_acceptance_4_boost_ratio_counters(desk_dataset, capsys):
    # toy duplicate-heavy batch: 12 occurrences over 5 unique items
    toy, batch = _dup_heavy_batch()
    small = ModelConfig(d=8, d_ff=12, d_h=8, vocab_size=60)
    sg = init_trainer(toy, "gram", TrainConfig(model=small, cf_batch_size=4))
    se = init_trainer(toy, "e2e", TrainConfig(model=small, cf_batch_size=4))
    train_step(batch, sg)
    train_step(batch, se)
    toy_ratio = Fraction(se.counters.ce_forward_calls, sg.counters.ce_forward_calls)
    toy_ok = (toy_ratio == Fraction(12, 5) == boost_ratio(batch)
              and se.counters.ce_forward_calls == 12
              and sg.counters.ce_forward_calls == 5)

    # full pass over the desk dataset, window = one epoch, cached mode
    stats = compute_stats(desk_dataset)
    cfg = accept_config()
    steps = -(-len(desk_dataset.users) // cfg.cf_batch_size)
    sg = init_trainer(desk_dataset, "gram", replace(cfg, latency="1E"), steps_per_epoch=steps)
    se = init_trainer(desk_dataset, "e2e", cfg)
    distinct = set()
    for b in batch_iter(desk_dataset.users, cfg.cf_batch_size,
                        shuffle_seed=[MASTER_SEED, 0]):
        train_step(b, sg)
        train_step(b, se)
        distinct.update(b.unique_items)
    epoch_ok = (sg.counters.ce_forward_calls == len(distinct) == stats.n_items
                and se.counters.ce_forward_calls == stats.n_interactions
                and Fraction(se.counters.ce_forward_calls, sg.counters.ce_forward_calls)
                == Fraction(stats.n_interactions, stats.n_items))

    # published corpus metadata reproduces the quoted epoch ratios
    quoted = {"mind": 36.10, "toeic": 10096.9, "spanish": 60.45}
    ratios = {name: stats_from_metadata(os.path.join(DATA_DIR, f"{name}.json"))
              .epoch_boost_ratio for name in quoted}
    meta_ok = all(abs(ratios[n] - v) <= 0.05 for n, v in quoted.items())

    ok = toy_ok and epoch_ok and meta_ok
    announce(capsys, 4, ok,
             f"toy batch ratio {toy_ratio} (= 12/5 exactly); epoch window: "
             f"{sg.counters.ce_forward_calls} cached forwards == {stats.n_items} items, "
             f"{se.counters.ce_forward_calls} joint forwards == {stats.n_interactions} "
             f"interactions; metadata ratios "
             + ", ".join(f"{n} {ratios[n]:.2f}" for n in quoted))
    assert toy_ok and epoch_ok and meta_ok


# ---------------------------------------------------------------------------
# 5. Peak live activation elements
# ---------------------------------------------------------------------------


def test_acceptance_5_activation_memory(desk_dataset, capsys):
    t0 = time.monotonic()
    rep_g, _ = train(desk_dataset, "gram", accept_config(
        cf_batch_size=4, ce_batch_size=8, max_epochs=1, patience=0, latency="1E"))
    rep_e, _ = train(desk_dataset, "e2e", accept_config(
        cf_batch_size=4, ce_batch_size=8, max_epochs=1, patience=0))
    peak_g = rep_g.counters["activation_elements_peak"]
    peak_e = rep_e.counters["activation_elements_peak"]
    ratio = peak_g / peak_e
    elapsed = time.monotonic() - t0
    ok = ratio < 0.45
    announce(capsys, 5, ok,
             f"peak live activation elements: window-per-epoch {peak_g} vs "
             f"joint {peak_e} — ratio {ratio:.4f} (< 0.45), {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 6. Learning sanity on the default dataset
# ---------------------------------------------------------------------------


def test_acceptance_6_learning_sanity(desk_dataset, capsys):
    t0 = time.monotonic()
    runs = {}
    for key, mode, latency in [("e2e", "e2e", "1S"), ("gram_1s", "gram", "1S"),
                               ("gram_1e", "gram", "1E"),
                               ("no_content", "no_content", "1S"),
                               ("no_finetune", "no_finetune", "1S")]:
        rep, _ = train(desk_dataset, mode, accept_config(latency=latency))
        runs[key] = rep.final_metrics
    elapsed = time.monotonic() - t0

    e2e, g1s = runs["e2e"]["auc"], runs["gram_1s"]["auc"]
    g1e, nf = runs["gram_1e"]["auc"], runs["no_finetune"]["auc"]
    nc_cs = runs["no_content"]["cs_auc"]
    checks = {
        "e2e_auc>=0.75": e2e >= 0.75,
        "gram_1s_auc>=0.75": g1s >= 0.75,
        "gram_1e>=e2e-0.02": g1e >= e2e - 0.02,
        "no_content_csauc_in_[0.45,0.55]": nc_cs is not None and 0.45 <= nc_cs <= 0.55,
        "no_finetune<gram_1s": nf < g1s,
        "runtime<600s": elapsed < 600,
    }
    ok = all(checks.values())
    announce(capsys, 6, ok,
             f"e2e {e2e:.4f}, cached-1S {g1s:.4f} (both >= 0.75); "
             f"window-per-epoch {g1e:.4f} >= e2e-0.02; no-content cold AUC "
             f"{nc_cs:.4f} in [0.45,0.55]; frozen-encoder {nf:.4f} < {g1s:.4f}; "
             f"{elapsed:.0f}s (budget 600s)")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_acceptance_6_attention_window_per_epoch(desk_dataset, capsys):
    # the window-per-epoch check above, with the attention predictor
    model = ModelConfig(cf_variant="attention")
    t0 = time.monotonic()
    e2e = train(desk_dataset, "e2e", accept_config(model=model))[0].final_metrics["auc"]
    g1e = train(desk_dataset, "gram",
                accept_config(model=model, latency="1E"))[0].final_metrics["auc"]
    elapsed = time.monotonic() - t0
    ok = g1e >= e2e - 0.02 and elapsed < 600
    announce(capsys, 6, ok,
             f"attention predictor: window-per-epoch {g1e:.4f} >= e2e {e2e:.4f} - 0.02; "
             f"{elapsed:.0f}s (budget 600s)")
    assert ok


# ---------------------------------------------------------------------------
# 7. Latency presets
# ---------------------------------------------------------------------------


def test_acceptance_7_latency_presets(capsys):
    got = tuple(accumulation_latency(p, 37) for p in ("1S", "10S", "0.5E", "1E"))
    ok = got == (1, 10, 19, 37)
    announce(capsys, 7, ok,
             f"presets (1S,10S,0.5E,1E) at 37 steps/epoch -> {got} "
             f"(expected (1, 10, 19, 37))")
    assert ok


# ---------------------------------------------------------------------------
# 8. Scale disclosures: what is reported but not asserted
# ---------------------------------------------------------------------------


def test_acceptance_8_disclosures(desk_dataset, capsys):
    # fixed-length runs so the wall-clock comparison is epoch-for-epoch
    cfg = accept_config(max_epochs=3, patience=0)
    rep_e, st_e = train(desk_dataset, "e2e", cfg)
    rep_g, st_g = train(desk_dataset, "gram", accept_config(
        max_epochs=3, patience=0, latency="1E"))
    e2e_fwd = rep_e.counters["ce_forward_calls"]
    gram_fwd = rep_g.counters["ce_forward_calls"]
    # exact call-ratio assertion: raises on any counter/cache mismatch
    sp = speed_report(st_e.counters, st_g.counters,
                      theoretical_r=e2e_fwd / gram_fwd)
    wall_e = rep_e.counters["wall_clock_ns"] / 1e9
    wall_g = rep_g.counters["wall_clock_ns"] / 1e9
    ok = True
    announce(capsys, 8, ok,
             "published-scale absolute metrics and accelerator wall-clock "
             "speedups are not reproduced at this scale; reported (not "
             f"asserted): 3-epoch train wall {wall_g:.2f}s cached vs "
             f"{wall_e:.2f}s joint ({wall_e / max(wall_g, 1e-9):.2f}x), "
             f"call ratio {sp.measured_call_ratio:.2f}x asserted exact")
    assert sp.measured_call_ratio == e2e_fwd / gram_fwd
