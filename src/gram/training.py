"""Trainers: one training step for four modes, optimizers, the training
loop, and the gradient-equivalence verifier.

Training modes
--------------
``e2e``
    One joint graph per batch: the content encoder runs once per
    interaction *occurrence* and both modules step simultaneously.
``gram``
    Alternating: the collaborative filter trains on item representations
    held as grad-enabled leaves. Each step stores the pseudo-target
    h~ = h - dL/dh (plain subtraction: SGD on the representation with
    learning rate exactly 1). Every ``accum_steps`` batches the encoder
    regresses onto the accumulated pseudo-targets and the cache is
    cleared. Within a window a re-encountered item reuses its carried
    h~ as the representation, so the encoder runs once per *distinct*
    item per window.
``no_content``
    A trainable item-embedding table replaces the encoder entirely.
``no_finetune``
    Encoder outputs are computed once at init and frozen as CF inputs.

All four share ``train_step``: a per-mode builder supplies the CF's item
representations, one backward runs through the batch loss, and each
trained module is clipped and stepped on its own optimizer.

With ``accum_steps == 1`` the encoder gradient of the regression loss
equals the end-to-end encoder gradient at equal parameters, so the two
trainers walk the same trajectory; ``verify_equivalence`` measures this
through the same encoding and regression helpers the step uses. Larger
windows trade representation staleness for fewer encoder calls and make
no equivalence claim.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from .dataset import Batch, Dataset, UserSequence, batch_iter, cold_start_split, split_users
from .instrument import (
    ActivationAccountant,
    CostCounters,
    PhaseTimer,
    e2e_ce_flops_per_batch,
    gram_ce_flops_per_batch,
)
from .metrics import ScoredLabel, UndefinedMetricError, auc, cs_auc, group_by, mrr, ndcg_at_k
from .model import (
    CeParams,
    CfParams,
    ModelConfig,
    batch_scores,
    batch_sequence_loss,
    ce_encode,
    init_params,
)
from .report import RunReport

MODES = ("e2e", "gram", "no_content", "no_finetune")
LATENCY_PRESETS = ("1S", "10S", "0.5E", "1E")

# Training-phase timer keys; eval time is tracked but not part of the
# run's wall_clock_ns counter.
_TRAIN_PHASES = ("e2e", "cf", "ce")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NumericalAbort(RuntimeError):
    """Training produced non-finite values; the message says where."""


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """One optimizer: update rule, learning-rate schedule, moment buffers.

    ``kind`` is "sgd" or "adam". The "noam" schedule is
    lr * model_dim^-0.5 * min(step^-0.5, step * warmup^-1.5), which peaks
    at step == warmup; "constant" ignores the step count.
    """

    kind: str = "adam"
    lr: float = 1e-4
    schedule: str = "constant"
    model_dim: int = 16
    warmup: int = 400
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def validate(self) -> "OptimizerState":
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")
        if self.schedule not in ("constant", "noam"):
            raise ConfigError(f"unknown lr schedule {self.schedule!r}")
        if self.lr < 0:
            raise ConfigError("learning rate must be non-negative")
        if self.warmup < 1 or self.model_dim < 1:
            raise ConfigError("warmup and model_dim must be positive")
        return self

    def fresh(self) -> "OptimizerState":
        """A zeroed copy (step 0, empty moments) of the same settings."""
        return replace(self, step=0, m={}, v={})

    def lr_at(self, step: int) -> float:
        if self.schedule == "noam":
            return self.lr * self.model_dim ** -0.5 * min(step ** -0.5, step * self.warmup ** -1.5)
        return self.lr


def optimizer_apply(opt: OptimizerState, params: dict, grads: dict) -> dict:
    """One optimizer step over named parameters.

    ``params`` maps name -> leaf Tensor, ``grads`` maps name -> ndarray;
    parameters without a gradient entry are left untouched. Parameter
    arrays are replaced, not mutated, so consumed graphs stay valid.
    """
    opt.step += 1
    lr = opt.lr_at(opt.step)
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if np.shape(g) != p.data.shape:
            raise ConfigError(
                f"gradient shape {np.shape(g)} does not match parameter {name} {p.data.shape}")
        if opt.kind == "sgd":
            p.data = p.data - lr * g
            continue
        m = opt.m.get(name)
        if m is None:
            m = opt.m[name] = np.zeros_like(p.data)
            opt.v[name] = np.zeros_like(p.data)
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        m_hat = m / (1.0 - opt.beta1 ** opt.step)
        v_hat = v / (1.0 - opt.beta2 ** opt.step)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + opt.eps)
    return params


def clip_by_global_norm(grads: dict, max_norm: float) -> dict:
    """Scale the whole gradient set so its global L2 norm is <= max_norm."""
    total = math.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))
    if total > max_norm > 0.0:
        s = max_norm / total
        return {k: g * s for k, g in grads.items()}
    return grads


def _named_grads(named: dict, gmap: dict) -> dict:
    """Pull this parameter set's gradients out of a backward() result."""
    out = {}
    for name, p in named.items():
        g = gmap.get(p)
        if g is not None:
            out[name] = g.data
    return out


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


def seed_streams(master: int) -> dict:
    """Independent integer seeds derived from one master seed.

    Fixed derivation order (documented so runs can be dissected):
    data, init, shuffle, split, val.
    """
    words = np.random.SeedSequence(master).generate_state(5)
    names = ("data", "init", "shuffle", "split", "val")
    return {k: int(w) for k, w in zip(names, words)}


@dataclass
class TrainConfig:
    """Everything a run needs besides the dataset itself.

    ``seed`` is the master seed; init / shuffle / split streams derive
    from it via ``seed_streams`` so different modes see identical splits
    and initial parameters. ``ce_batch_size`` 0 means the whole cache is
    regressed in a single optimizer step.
    """

    model: ModelConfig = field(default_factory=ModelConfig)
    accum_steps: int = 1           # window size N; 1 = single-step
    latency: str | None = None     # optional preset overriding accum_steps
    cf_batch_size: int = 16
    ce_batch_size: int = 8
    ce_passes: int = 1             # regression passes over the cache per window
    recompute_encodings: bool = False
    opt_ce: OptimizerState = field(default_factory=OptimizerState)
    opt_cf: OptimizerState = field(default_factory=OptimizerState)
    clip_norm: float | None = None   # max gradient L2 norm, per module (CE and CF each)
    max_epochs: int = 50
    patience: int = 10
    val_frac: float = 0.15
    test_frac: float = 0.2
    # cold-start AUC is a noisy statistic of few held-out items; 24 gives
    # it enough pairs to be a meaningful chance-level check
    n_cs_items: int = 24
    eval_batch_size: int = 64
    precision: str = "f64"
    seed: int = 2024

    def validate(self) -> "TrainConfig":
        self.model.validate()
        self.opt_ce.validate()
        self.opt_cf.validate()
        if self.accum_steps < 1:
            raise ConfigError("accum_steps must be >= 1")
        if self.latency is not None and self.latency not in LATENCY_PRESETS:
            raise ConfigError(f"unknown latency preset {self.latency!r}; "
                              f"expected one of {LATENCY_PRESETS}")
        if self.cf_batch_size < 1 or self.eval_batch_size < 1:
            raise ConfigError("batch sizes must be positive")
        if self.ce_batch_size < 0:
            raise ConfigError("ce_batch_size must be >= 0 (0 = whole cache)")
        if self.ce_passes < 1:
            raise ConfigError("ce_passes must be >= 1")
        if not (0.0 < self.val_frac < 1.0 and 0.0 < self.test_frac < 1.0):
            raise ConfigError("val_frac and test_frac must lie in (0, 1)")
        if self.max_epochs < 1 or self.patience < 0:
            raise ConfigError("max_epochs must be >= 1 and patience >= 0")
        if self.n_cs_items < 1:
            raise ConfigError("n_cs_items must be positive")
        if self.precision not in ("f64", "f32"):
            raise ConfigError(f"precision must be f64 or f32, got {self.precision!r}")
        return self


def accumulation_latency(preset: str, steps_per_epoch: int) -> int:
    """Window size N for a named latency preset."""
    if steps_per_epoch < 1:
        raise ConfigError("steps_per_epoch must be positive")
    if preset == "1S":
        return 1
    if preset == "10S":
        return 10
    if preset == "0.5E":
        return math.ceil(steps_per_epoch / 2)
    if preset == "1E":
        return steps_per_epoch
    raise ConfigError(f"unknown latency preset {preset!r}")


class RunPlan(NamedTuple):
    """What ``plan_run`` resolves for one run."""

    train_users: list
    val_users: list
    test_users: list
    cs_items: set
    steps_per_epoch: int
    accum_steps: int       # window size N after resolving ``latency``


def plan_run(dataset: Dataset, cfg: TrainConfig) -> RunPlan:
    """The splits, steps per epoch and window a run of ``cfg`` will use."""
    seeds = seed_streams(cfg.seed)
    train_ds, test_ds, cs_items = cold_start_split(
        dataset, cfg.n_cs_items, seeds["split"], cfg.test_frac)
    train_users, val_users = split_users(train_ds.users, cfg.val_frac, seeds["val"])
    steps = math.ceil(len(train_users) / cfg.cf_batch_size)
    accum = (accumulation_latency(cfg.latency, steps) if cfg.latency is not None
             else cfg.accum_steps)
    return RunPlan(train_users, val_users, test_ds.users, cs_items, steps, accum)


# ---------------------------------------------------------------------------
# Trainer state
# ---------------------------------------------------------------------------


@dataclass
class TrainerState:
    """Mutable state of one training run (confined to one thread)."""

    mode: str
    cfg: TrainConfig
    ce: CeParams | None
    cf: CfParams
    opt_ce: OptimizerState
    opt_cf: OptimizerState
    item_tokens: dict
    accum_steps: int = 1
    t: int = 0                      # batches processed so far
    # gram: item -> pseudo-target h~ of the open window, in first-touch order
    cache: dict = field(default_factory=dict)
    counters: CostCounters = field(default_factory=CostCounters)
    accountant: ActivationAccountant = field(default_factory=ActivationAccountant)
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    # no_content extras
    item_embedding: Tensor | None = None
    embed_row: dict | None = None
    # no_finetune extras
    frozen_enc: Tensor | None = None
    frozen_row: dict | None = None

    def train_wall_ns(self) -> int:
        return sum(self.timer.totals_ns.get(k, 0) for k in _TRAIN_PHASES)


def init_trainer(dataset: Dataset, mode: str, cfg: TrainConfig,
                 accum_steps: int | None = None) -> TrainerState:
    """Build a TrainerState: parameters, optimizers, mode-specific extras.

    ``dataset`` supplies the item universe (tokens for every item the run
    may ever encode, including evaluation-only items).
    """
    cfg.validate()
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    seeds = seed_streams(cfg.seed)
    ce, cf = init_params(cfg.model, seeds["init"])
    state = TrainerState(
        mode=mode, cfg=cfg, ce=ce, cf=cf,
        opt_ce=cfg.opt_ce.fresh(), opt_cf=cfg.opt_cf.fresh(),
        item_tokens={it.item_id: it.tokens for it in dataset.items},
        accum_steps=accum_steps if accum_steps is not None else cfg.accum_steps,
    )
    if state.accum_steps < 1:
        raise ConfigError("accumulation window must be >= 1 step")
    ids = sorted(state.item_tokens)
    if mode == "no_content":
        # Xavier-style table; rows of items never seen in training stay at
        # their random init, which is the point of this baseline.
        rng = np.random.default_rng([seeds["init"], 1])
        a = math.sqrt(6.0 / (len(ids) + cfg.model.d))
        table = rng.uniform(-a, a, size=(len(ids), cfg.model.d))
        state.item_embedding = Tensor(table.astype(ad.default_dtype()), grad_enabled=True)
        state.embed_row = {i: k for k, i in enumerate(ids)}
        state.ce = None
    elif mode == "no_finetune":
        with ad.no_grad():
            rows = [ce_encode(state.item_tokens[i], ce).data for i in ids]
        state.frozen_enc = Tensor(np.concatenate(rows, axis=0))
        state.frozen_row = {i: k for k, i in enumerate(ids)}
        state.counters.ce_forward_calls += len(ids)
    return state


# ---------------------------------------------------------------------------
# The training step
# ---------------------------------------------------------------------------


def _encode_occurrences(users, item_tokens: dict, ce: CeParams):
    """One grad-tracked encoder row per interaction *occurrence*, so
    gradients flow into the encoder once per occurrence.

    Returns (users renumbered to their rows, row_of, enc, token lengths).
    """
    rows, rewritten, lens = [], [], []
    for u in users:
        renumbered = []
        for item_id, resp in u.interactions:
            tokens = item_tokens[item_id]
            renumbered.append((len(rows), resp))
            rows.append(ce_encode(tokens, ce))
            lens.append(min(len(tokens), ce.cfg.max_token_len))
        rewritten.append(UserSequence(u.user_id, tuple(renumbered)))
    return rewritten, {k: k for k in range(len(rows))}, ad.concat(rows, axis=0), lens


def _cache_leaves(items, cache: dict, ce: CeParams, item_tokens: dict,
                  recompute: bool = False):
    """A grad-enabled leaf per item, stacked into the CF's input.

    A cache hit reuses the carried pseudo-target as its representation; a
    miss (or every item, with ``recompute``) is encoded without grad, and a
    new item's encoding seeds its cache entry. Returns (leaves, row_of,
    enc, encoder forwards).
    """
    leaves, n_encoded = {}, 0
    for i in items:
        if i in cache and not recompute:
            h = cache[i]
        else:
            with ad.no_grad():
                h = ce_encode(item_tokens[i], ce).data
            n_encoded += 1
            cache.setdefault(i, h)
        leaves[i] = Tensor(h, grad_enabled=True)
    row_of = {item_id: k for k, item_id in enumerate(items)}
    return leaves, row_of, ad.concat([leaves[i] for i in items], axis=0), n_encoded


def _write_back(cache: dict, leaves: dict, gmap: dict) -> None:
    """Accumulate h~ = h - sum of dL/dh over the window into the cache."""
    for i, leaf in leaves.items():
        g = gmap.get(leaf)
        if g is not None:
            cache[i] = cache[i] - g.data
            if not np.all(np.isfinite(cache[i])):
                raise NonFiniteError(f"pseudo-target for item {i} is non-finite")


def _regress(ce: CeParams, item_tokens: dict, chunk, targets: dict):
    """(loss, backward gradients) of the half squared error between the
    encoder's outputs for ``chunk`` and their pseudo-targets."""
    outs = [ce_encode(item_tokens[i], ce) for i in chunk]
    pred = ad.concat(outs, axis=0) if len(outs) > 1 else outs[0]
    target = Tensor(np.concatenate([targets[i] for i in chunk], axis=0))
    ploss = ad.mse_half(target, pred)
    return ploss, ad.backward(ploss)


def _apply_updates(groups, gmap: dict, clip_norm: float | None) -> None:
    """Clip each module's gradients on its own, then step its optimizer;
    ``groups`` holds one (optimizer, named parameters) pair per module."""
    for opt, named in groups:
        grads = _named_grads(named, gmap)
        if clip_norm is not None:
            grads = clip_by_global_norm(grads, clip_norm)
        optimizer_apply(opt, named, grads)


def _step_inputs(batch: Batch, state: TrainerState):
    """(users, row_of, enc, gram leaves, trained groups) for one step.

    ``enc`` holds the representations the CF reads, the gram leaves
    are the ones whose gradients become pseudo-targets, and each trained
    group is an (optimizer, named parameters) pair.
    """
    c = state.counters
    cf_group = (state.opt_cf, state.cf.named())
    if state.mode == "e2e":
        users, row_of, enc, lens = _encode_occurrences(batch.users, state.item_tokens, state.ce)
        c.ce_forward_calls += len(lens)
        c.ce_backward_calls += len(lens)
        c.flop_estimate += e2e_ce_flops_per_batch(
            len(users), len(lens) / len(users), float(np.mean(lens)), state.ce.cfg.d)
        return users, row_of, enc, {}, [(state.opt_ce, state.ce.named()), cf_group]
    if state.mode == "gram":
        leaves, row_of, enc, n_encoded = _cache_leaves(
            batch.unique_items, state.cache, state.ce, state.item_tokens,
            state.cfg.recompute_encodings)
        c.ce_forward_calls += n_encoded
        return batch.users, row_of, enc, leaves, [cf_group]
    order = batch.unique_items
    row_of = {item_id: k for k, item_id in enumerate(order)}
    if state.mode == "no_content":
        rows = np.array([state.embed_row[i] for i in order])
        table = (state.opt_ce, {"item_embedding": state.item_embedding})
        return batch.users, row_of, ad.gather(state.item_embedding, rows), {}, [cf_group, table]
    rows = np.array([state.frozen_row[i] for i in order])
    return batch.users, row_of, Tensor(state.frozen_enc.data[rows]), {}, [cf_group]


def train_step(batch: Batch, state: TrainerState) -> dict:
    """One training step of ``state.mode`` on one batch.

    In order: (1) build the CF's item representations, (2) one backward
    through the batch's sequence loss, (3) in ``gram``, store
    h~ = h - dL/dh per item, (4) clip and step each trained module on its
    own optimizer, (5) in ``gram``, advance the clock and, at a window
    boundary, regress the encoder onto the cached pseudo-targets and
    clear the cache.
    """
    with state.timer.measure("e2e" if state.mode == "e2e" else "cf"), \
            ad.track_activations(state.accountant):
        try:
            users, row_of, enc, leaves, groups = _step_inputs(batch, state)
            loss, n_preds = batch_sequence_loss(users, row_of, enc, state.cf)
            gmap = ad.backward(loss)
            _write_back(state.cache, leaves, gmap)
        except NonFiniteError as e:
            raise NumericalAbort(f"{state.mode} step {state.t}: {e}") from e
        _apply_updates(groups, gmap, state.cfg.clip_norm)
    state.counters.cf_forward_calls += len(batch.users)
    state.t += 1
    report = {"loss": loss.item(), "n_predictions": n_preds, "step": state.t}
    if state.mode == "gram":
        closed = state.t % state.accum_steps == 0
        report.update(cache_size=len(state.cache), window_closed=closed)
        if closed:
            with state.timer.measure("ce"), ad.track_activations(state.accountant):
                report.update(_ce_update_phase(state))
    state.counters.activation_elements_peak = state.accountant.peak
    return report


def _ce_update_phase(state: TrainerState) -> dict:
    """Regress the encoder onto the cached pseudo-targets, then clear.

    One optimizer step per mini-batch of ``ce_batch_size`` items (0 =
    whole cache at once), ``ce_passes`` passes over the cache.
    """
    ids = list(state.cache)
    if not ids:
        return {"ce_items": 0, "ce_opt_steps": 0}
    bs = state.cfg.ce_batch_size or len(ids)
    groups = [(state.opt_ce, state.ce.named())]
    opt_steps = 0
    last_loss = 0.0
    for _ in range(state.cfg.ce_passes):
        for lo in range(0, len(ids), bs):
            chunk = ids[lo:lo + bs]
            try:
                ploss, gmap = _regress(state.ce, state.item_tokens, chunk, state.cache)
            except NonFiniteError as e:
                raise NumericalAbort(
                    f"encoder regression at step {state.t} "
                    f"(items {chunk[0]}..{chunk[-1]}): {e}") from e
            _apply_updates(groups, gmap, state.cfg.clip_norm)
            state.counters.ce_backward_calls += len(chunk)
            opt_steps += 1
            last_loss = ploss.item()
    lens = [min(len(state.item_tokens[i]), state.ce.cfg.max_token_len) for i in ids]
    state.counters.flop_estimate += gram_ce_flops_per_batch(
        len(ids), float(np.mean(lens)), state.ce.cfg.d)
    state.cache.clear()
    return {"ce_items": len(ids), "ce_opt_steps": opt_steps, "pseudo_loss": last_loss}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_encodings(state: TrainerState):
    """(row_of, enc) giving each known item's current representation.

    For encoder-bearing modes this re-encodes every item with the current
    parameters (what deployment would serve); baselines use their table /
    frozen matrix. Never touches the cost counters.
    """
    if state.mode == "no_content":
        return state.embed_row, state.item_embedding
    if state.mode == "no_finetune":
        return state.frozen_row, state.frozen_enc
    ids = sorted(state.item_tokens)
    with ad.no_grad():
        rows = [ce_encode(state.item_tokens[i], state.ce).data for i in ids]
    return {i: k for k, i in enumerate(ids)}, Tensor(np.concatenate(rows, axis=0))


def scored_pairs(users, row_of, enc: Tensor, cf: CfParams, batch_size: int = 64):
    """Model scores for every predictable position, grouped per user."""
    pairs = []
    base = 0
    for b in batch_iter(users, batch_size):
        probs, labels, item_ids, user_idx = batch_scores(b.users, row_of, enc, cf)
        pairs.extend(
            ScoredLabel(float(s), int(y), item_id=int(i), group_id=base + int(u))
            for s, y, i, u in zip(probs, labels, item_ids, user_idx))
        base += len(b.users)
    return pairs


def evaluate(state: TrainerState, users, cs_items=None) -> dict:
    """AUC (optionally cold-start AUC) plus per-user ranking metrics."""
    row_of, enc = eval_encodings(state)
    pairs = scored_pairs(users, row_of, enc, state.cf, state.cfg.eval_batch_size)
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


# ---------------------------------------------------------------------------
# The training loop
# ---------------------------------------------------------------------------


def _snapshot(state: TrainerState) -> dict:
    params = {}
    if state.ce is not None:
        params.update({f"ce.{k}": v.data.copy() for k, v in state.ce.named().items()})
    params.update({f"cf.{k}": v.data.copy() for k, v in state.cf.named().items()})
    if state.item_embedding is not None:
        params["item_embedding"] = state.item_embedding.data.copy()
    return params


def _restore(state: TrainerState, snap: dict) -> None:
    if state.ce is not None:
        for k, v in state.ce.named().items():
            v.data = snap[f"ce.{k}"].copy()
    for k, v in state.cf.named().items():
        v.data = snap[f"cf.{k}"].copy()
    if state.item_embedding is not None:
        state.item_embedding.data = snap["item_embedding"].copy()


def _config_echo(cfg: TrainConfig, mode: str, accum_steps: int) -> dict:
    return {
        "mode": mode,
        "seed": cfg.seed,
        "precision": cfg.precision,
        "model": asdict(cfg.model),
        "accum_steps": accum_steps,
        "latency": cfg.latency,
        "cf_batch_size": cfg.cf_batch_size,
        "ce_batch_size": cfg.ce_batch_size,
        "ce_passes": cfg.ce_passes,
        "recompute_encodings": cfg.recompute_encodings,
        "opt_ce": {"kind": cfg.opt_ce.kind, "lr": cfg.opt_ce.lr,
                   "schedule": cfg.opt_ce.schedule, "warmup": cfg.opt_ce.warmup},
        "opt_cf": {"kind": cfg.opt_cf.kind, "lr": cfg.opt_cf.lr,
                   "schedule": cfg.opt_cf.schedule, "warmup": cfg.opt_cf.warmup},
        "clip_norm": cfg.clip_norm,
        "max_epochs": cfg.max_epochs,
        "patience": cfg.patience,
        "val_frac": cfg.val_frac,
        "test_frac": cfg.test_frac,
        "n_cs_items": cfg.n_cs_items,
    }


def train(dataset: Dataset, mode: str, cfg: TrainConfig):
    """Full run: split, epoch loop with validation-AUC early stopping,
    best-checkpoint restore, final test metrics.

    Returns (RunReport, TrainerState); the state carries the restored
    best parameters for checkpointing.
    """
    cfg.validate()
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    seeds = seed_streams(cfg.seed)
    prev_dtype = ad.default_dtype()
    ad.set_default_dtype(np.float64 if cfg.precision == "f64" else np.float32)
    try:
        plan = plan_run(dataset, cfg)
        accum = plan.accum_steps
        if mode == "gram" and accum > plan.steps_per_epoch:
            raise ConfigError(
                f"accumulation window {accum} exceeds {plan.steps_per_epoch} steps per epoch")

        state = init_trainer(dataset, mode, cfg, accum_steps=accum)
        history = []
        best_auc, best_epoch, bad_epochs = -1.0, -1, 0
        best_params = _snapshot(state)
        for epoch in range(cfg.max_epochs):
            loss_sum, pred_sum = 0.0, 0
            for batch in batch_iter(plan.train_users, cfg.cf_batch_size,
                                    shuffle_seed=[seeds["shuffle"], epoch]):
                rep = train_step(batch, state)
                loss_sum += rep["loss"]
                pred_sum += rep["n_predictions"]
            with state.timer.measure("eval"):
                val = evaluate(state, plan.val_users)
            history.append({
                "epoch": epoch,
                "train_loss": loss_sum / max(1, pred_sum),
                "val_auc": val["auc"],
                "ce_forward_calls": state.counters.ce_forward_calls,
                "wall_ns": state.train_wall_ns(),
            })
            if val["auc"] > best_auc:
                best_auc, best_epoch, bad_epochs = val["auc"], epoch, 0
                best_params = _snapshot(state)
            else:
                bad_epochs += 1
                if bad_epochs >= cfg.patience > 0:
                    break
        _restore(state, best_params)

        with state.timer.measure("eval"):
            final = evaluate(state, plan.test_users, cs_items=plan.cs_items)
        final["val_auc"] = best_auc
        c = state.counters
        c.wall_clock_ns = state.train_wall_ns()
        c.activation_elements_peak = state.accountant.peak
        report = RunReport(
            mode=mode,
            config=_config_echo(cfg, mode, accum),
            history=history,
            final_metrics=final,
            counters=c.as_dict(),
            speed={"phase_wall_ns": dict(state.timer.totals_ns)},
            best_epoch=best_epoch,
        )
        return report, state
    finally:
        ad.set_default_dtype(prev_dtype)


# ---------------------------------------------------------------------------
# Equivalence verification
# ---------------------------------------------------------------------------


def max_rel_err(a: dict, b: dict) -> float:
    """Worst per-tensor relative gap: |a-b|_inf / (|a|_inf + |b|_inf)."""
    if set(a) != set(b):
        raise ValueError(f"mismatched tensor sets: {sorted(set(a) ^ set(b))}")
    worst = 0.0
    for k in a:
        x = np.asarray(a[k])
        y = np.asarray(b[k])
        gap = float(np.max(np.abs(x - y))) if x.size else 0.0
        ref = float(np.max(np.abs(x)) + np.max(np.abs(y))) if x.size else 0.0
        worst = max(worst, gap / (ref + 1e-12))
    return worst


def _prefixed(prefix: str, params, gmap: dict) -> dict:
    return {prefix + k: v for k, v in _named_grads(params.named(), gmap).items()}


def e2e_gradients(batch: Batch, ce: CeParams, cf: CfParams, item_tokens: dict):
    """Loss and named parameter gradients of one joint-backprop batch,
    without applying any update."""
    users, row_of, enc, _ = _encode_occurrences(batch.users, item_tokens, ce)
    loss, _ = batch_sequence_loss(users, row_of, enc, cf)
    gmap = ad.backward(loss)
    return loss.item(), {**_prefixed("ce.", ce, gmap), **_prefixed("cf.", cf, gmap)}


def gram_gradients(batch: Batch, ce: CeParams, cf: CfParams, item_tokens: dict):
    """Gradients of one accumulated step at unchanged parameters.

    CF gradients come from the leaf-encoding graph; CE gradients from the
    pseudo-target regression loss over the whole batch in one chunk.
    Returns (loss, named grads) shaped like ``e2e_gradients`` output.
    """
    cache = {}
    leaves, row_of, enc, _ = _cache_leaves(batch.unique_items, cache, ce, item_tokens)
    loss, _ = batch_sequence_loss(batch.users, row_of, enc, cf)
    gmap = ad.backward(loss)
    _write_back(cache, leaves, gmap)
    _, pmap = _regress(ce, item_tokens, batch.unique_items, cache)
    return loss.item(), {**_prefixed("cf.", cf, gmap), **_prefixed("ce.", ce, pmap)}


def _run_steps(dataset: Dataset, mode: str, cfg: TrainConfig, k_steps: int) -> dict:
    """k training steps over cycling epochs; returns the parameter snapshot."""
    state = init_trainer(dataset, mode, cfg)
    done = 0
    epoch = 0
    seeds = seed_streams(cfg.seed)
    while done < k_steps:
        for batch in batch_iter(dataset.users, cfg.cf_batch_size,
                                shuffle_seed=[seeds["shuffle"], epoch]):
            train_step(batch, state)
            done += 1
            if done == k_steps:
                break
        epoch += 1
    return _snapshot(state)


def verify_equivalence(dataset: Dataset, cfg: TrainConfig, n_trials: int = 10,
                       k_steps: int = 50, sgd_lr: float = 1e-2,
                       adam_lr: float = 1e-3, trajectory: bool = True) -> dict:
    """Measure how closely accumulated single-step training matches
    end-to-end backprop on this dataset/config.

    Per trial: fresh parameters, one batch, both gradient paths compared
    per tensor. Then (optionally) two k-step trajectory comparisons, one
    with plain SGD on both modules and one with Adam. All numbers are
    worst-case relative errors; exact arithmetic would give zeros.
    """
    cfg.validate()
    if cfg.precision != "f64":
        raise ConfigError("equivalence verification requires f64 precision")
    item_tokens = {it.item_id: it.tokens for it in dataset.items}
    max_ce = 0.0
    max_cf = 0.0
    for trial in range(n_trials):
        init_seed = int(np.random.SeedSequence([cfg.seed, trial]).generate_state(1)[0])
        ce, cf = init_params(cfg.model, init_seed)
        batch = next(batch_iter(dataset.users, cfg.cf_batch_size,
                                shuffle_seed=[init_seed, 1]))
        _, ref = e2e_gradients(batch, ce, cf, item_tokens)
        _, alt = gram_gradients(batch, ce, cf, item_tokens)
        ce_names = [k for k in ref if k.startswith("ce.")]
        cf_names = [k for k in ref if k.startswith("cf.")]
        max_ce = max(max_ce, max_rel_err({k: ref[k] for k in ce_names},
                                         {k: alt[k] for k in ce_names}))
        max_cf = max(max_cf, max_rel_err({k: ref[k] for k in cf_names},
                                         {k: alt[k] for k in cf_names}))
    out = {
        "n_trials": n_trials,
        "max_ce_grad_rel_err": max_ce,
        "max_cf_grad_rel_err": max_cf,
        "max_param_grad_rel_err": max(max_ce, max_cf),
    }
    if trajectory:
        # single-step windows, whole cache in one regression step, so each
        # trainer applies exactly one optimizer step per module per batch
        for kind, lr in (("sgd", sgd_lr), ("adam", adam_lr)):
            opt = OptimizerState(kind=kind, lr=lr, schedule="constant")
            tcfg = replace(cfg, accum_steps=1, ce_batch_size=0, latency=None,
                           opt_ce=opt, opt_cf=replace(opt))
            ref = _run_steps(dataset, "e2e", tcfg, k_steps)
            alt = _run_steps(dataset, "gram", tcfg, k_steps)
            out[f"max_trajectory_rel_err_{kind}"] = max_rel_err(ref, alt)
        out["k_steps"] = k_steps
        out["max_trajectory_rel_err"] = max(out["max_trajectory_rel_err_sgd"],
                                            out["max_trajectory_rel_err_adam"])
    return out
