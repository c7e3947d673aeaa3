"""Trainers: one training step for four modes, optimizers, the training
loop, and the gradient-equivalence verifier.

Training modes
--------------
``e2e``
    One joint graph per batch: the content encoder runs once per
    interaction *occurrence* and both modules step simultaneously.
``gram``
    Alternating: the collaborative filter reads one grad-enabled leaf of
    item encodings. Within a window of N steps, the window ``latency``
    resolves to, every touch of an item reads the encoding h of its first
    touch, so the encoder runs once per *distinct* item per window, and
    subtracts its dL/dh from the item's pseudo-target h~ = h - sum dL/dh
    (SGD on the representation with learning rate exactly 1). When the
    window closes the encoder regresses onto the pseudo-targets and both
    the encodings and the targets are cleared.
``no_content``
    A trainable item-embedding table replaces the encoder entirely.
``no_finetune``
    Encoder outputs are computed once at init and frozen as CF inputs.

All four share ``train_step``: a per-mode builder supplies the CF's item
representations, one backward runs through the batch loss, and each
trained module is clipped and stepped on its own optimizer.

With a one-step window (latency ``1S``) the encoder gradient of the
regression loss equals the end-to-end encoder gradient at equal
parameters, so the two trainers walk the same trajectory;
``verify_equivalence`` measures this through the same encoding and
regression helpers the step uses. Larger windows trade representation
staleness for fewer encoder calls and make no equivalence claim.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
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
from .metrics import UndefinedMetricError, auc, check_predictions, cs_auc, group_by, mrr, ndcg_at_k
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

# Training-phase timer keys; eval time is tracked but not part of the
# run's wall_clock_ns counter.
_TRAIN_PHASES = ("e2e", "cf", "ce")

EVAL_BATCH_SIZE = 64       # users per no-grad scoring batch
VERIFY_SGD_LR = 1e-2       # verify_equivalence's trajectory learning rates
VERIFY_ADAM_LR = 1e-3


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NumericalAbort(RuntimeError):
    """Training produced non-finite values; the message says where."""


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimizerConfig:
    """One optimizer's settings: update rule and learning-rate schedule.

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

    def validate(self) -> "OptimizerConfig":
        if self.kind not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")
        if self.schedule not in ("constant", "noam"):
            raise ConfigError(f"unknown lr schedule {self.schedule!r}")
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"learning rate must be finite and non-negative, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must lie in [0, 1), got {self.beta1} and {self.beta2}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.warmup < 1 or self.model_dim < 1:
            raise ConfigError("warmup and model_dim must be positive")
        return self

    def lr_at(self, step: int) -> float:
        if self.schedule == "noam":
            return self.lr * self.model_dim ** -0.5 * min(step ** -0.5, step * self.warmup ** -1.5)
        return self.lr


@dataclass
class OptimizerState:
    """One optimizer's run state: its settings, the step count and Adam's
    moment buffers (name -> array, created on first use)."""

    cfg: OptimizerConfig
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def optimizer_apply(opt: OptimizerState, params: dict, grads: dict) -> dict:
    """One optimizer step over named parameters.

    ``params`` maps name -> leaf Tensor, ``grads`` maps name -> ndarray;
    parameters without a gradient entry are left untouched. Parameter
    arrays are replaced, not mutated, so consumed graphs stay valid.
    """
    cfg = opt.cfg
    opt.step += 1
    lr = cfg.lr_at(opt.step)
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if np.shape(g) != p.data.shape:
            raise ConfigError(
                f"gradient shape {np.shape(g)} does not match parameter {name} {p.data.shape}")
        if cfg.kind == "sgd":
            p.data = p.data - lr * g
            continue
        m = opt.m.get(name)
        if m is None:
            m = opt.m[name] = np.zeros_like(p.data)
            opt.v[name] = np.zeros_like(p.data)
        v = opt.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        m_hat = m / (1.0 - cfg.beta1 ** opt.step)
        v_hat = v / (1.0 - cfg.beta2 ** opt.step)
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
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
    and initial parameters. ``latency`` is the gradient-update latency of
    ``gram``, the window between encoder updates (see
    ``accumulation_latency``). ``ce_batch_size`` 0 means the whole cache is
    regressed in a single optimizer step.
    """

    model: ModelConfig = field(default_factory=ModelConfig)
    latency: str = "1S"            # <k>S steps or <f>E of an epoch
    cf_batch_size: int = 16
    ce_batch_size: int = 8
    opt_ce: OptimizerConfig = field(default_factory=OptimizerConfig)
    opt_cf: OptimizerConfig = field(default_factory=OptimizerConfig)
    clip_norm: float | None = None   # max gradient L2 norm, per module (CE and CF each)
    max_epochs: int = 50
    patience: int = 10
    val_frac: float = 0.15
    test_frac: float = 0.2
    # cold-start AUC is a noisy statistic of few held-out items; 24 gives
    # it enough pairs to be a meaningful chance-level check
    n_cs_items: int = 24
    precision: str = "f64"
    seed: int = 2024

    def validate(self) -> "TrainConfig":
        self.model.validate()
        self.opt_ce.validate()
        self.opt_cf.validate()
        accumulation_latency(self.latency, 1)      # checks the syntax
        if self.cf_batch_size < 1:
            raise ConfigError("cf_batch_size must be positive")
        if self.ce_batch_size < 0:
            raise ConfigError("ce_batch_size must be >= 0 (0 = whole cache)")
        if not (0.0 < self.val_frac < 1.0 and 0.0 < self.test_frac < 1.0):
            raise ConfigError("val_frac and test_frac must lie in (0, 1)")
        if self.max_epochs < 1 or self.patience < 0:
            raise ConfigError("max_epochs must be >= 1 and patience >= 0")
        if self.n_cs_items < 1:
            raise ConfigError("n_cs_items must be positive")
        if self.precision not in ("f64", "f32"):
            raise ConfigError(f"precision must be f64 or f32, got {self.precision!r}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be positive (or null for no clipping), got {self.clip_norm}")
        return self


def accumulation_latency(latency: str, steps_per_epoch: int | None = None) -> int:
    """Window size N, in steps, of a gradient-update latency.

    ``<k>S`` is k steps (k >= 1). ``<f>E`` is ceil(f * steps_per_epoch)
    steps for 0 < f <= 1 of an epoch and needs ``steps_per_epoch``. The
    paper's settings are 1S (single-step) and 10S, 0.5E, 1E (multi-step).
    """
    m = re.fullmatch(r"(\d+)S|(\d*\.?\d+)E", latency) if isinstance(latency, str) else None
    if m is None or (m[1] and int(m[1]) < 1) or (m[2] and not 0 < Fraction(m[2]) <= 1):
        raise ConfigError(f"bad latency {latency!r}; expected <k>S with k >= 1 "
                          "or <f>E with 0 < f <= 1")
    if steps_per_epoch is not None and steps_per_epoch < 1:
        raise ConfigError("steps_per_epoch must be positive")
    if m[1]:
        return int(m[1])
    if steps_per_epoch is None:
        raise ConfigError(f"latency {latency!r} is a share of an epoch: "
                          "it needs steps_per_epoch")
    return math.ceil(Fraction(m[2]) * steps_per_epoch)


class RunPlan(NamedTuple):
    """What ``plan_run`` resolves for one run."""

    train_users: list
    val_users: list
    test_users: list
    cs_items: set
    steps_per_epoch: int
    accum_steps: int       # window size N resolved from ``latency``


def _require_both_classes(split: str, users) -> None:
    """AUC needs a positive and a negative among the predicted positions."""
    labels = [r for u in users for _, r in u.interactions[1:]]
    pos = sum(labels)
    if pos == 0 or pos == len(labels):
        raise ConfigError(f"{split} split has {pos} positive and {len(labels) - pos} "
                          "negative responses at its predicted positions; "
                          "its AUC needs both classes")


def plan_run(dataset: Dataset, cfg: TrainConfig) -> RunPlan:
    """The splits, steps per epoch and window a run of ``cfg`` will use.

    A validation or test split whose predicted positions hold a single
    class is a ConfigError, since no AUC could be computed on it; so is a
    window longer than an epoch, in every mode.
    """
    seeds = seed_streams(cfg.seed)
    train_ds, test_ds, cs_items = cold_start_split(
        dataset, cfg.n_cs_items, seeds["split"], cfg.test_frac)
    train_users, val_users = split_users(train_ds.users, cfg.val_frac, seeds["val"])
    _require_both_classes("validation", val_users)
    _require_both_classes("test", test_ds.users)
    steps = math.ceil(len(train_users) / cfg.cf_batch_size)
    window = accumulation_latency(cfg.latency, steps)
    if window > steps:
        raise ConfigError(f"accumulation window {window} exceeds {steps} steps per epoch")
    return RunPlan(train_users, val_users, test_ds.users, cs_items, steps, window)


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
    accum_steps: int                # gram window size N, resolved from cfg.latency
    t: int = 0                      # batches processed so far
    # gram, open window, in first-touch order: item -> its first-touch
    # encoding, which every touch reads, and item -> its pseudo-target h~
    encodings: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    counters: CostCounters = field(default_factory=CostCounters)
    accountant: ActivationAccountant = field(default_factory=ActivationAccountant)
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    # baselines: one row per item in sorted id order, read in place of
    # the encoder; no_content's is trained on opt_ce, no_finetune's is the
    # initial encoder's output, frozen
    table: Tensor | None = None
    table_row: dict | None = None

    def train_wall_ns(self) -> int:
        return sum(self.timer.totals_ns.get(k, 0) for k in _TRAIN_PHASES)


def init_trainer(dataset: Dataset, mode: str, cfg: TrainConfig,
                 steps_per_epoch: int | None = None) -> TrainerState:
    """Build a TrainerState: parameters, optimizers, mode-specific extras.

    ``dataset`` supplies the item universe (tokens for every item the run
    may ever encode, including evaluation-only items). ``steps_per_epoch``
    resolves an epoch-relative ``cfg.latency``; without it such a latency
    is a ConfigError.
    """
    cfg.validate()
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    seeds = seed_streams(cfg.seed)
    ce, cf = init_params(cfg.model, seeds["init"])
    state = TrainerState(
        mode=mode, cfg=cfg, ce=ce, cf=cf,
        opt_ce=OptimizerState(cfg.opt_ce), opt_cf=OptimizerState(cfg.opt_cf),
        item_tokens={it.item_id: it.tokens for it in dataset.items},
        accum_steps=accumulation_latency(cfg.latency, steps_per_epoch),
    )
    ids = sorted(state.item_tokens)
    if mode == "no_content":
        # Xavier-style table; rows of items never seen in training stay at
        # their random init, which is the point of this baseline.
        rng = np.random.default_rng([seeds["init"], 1])
        a = math.sqrt(6.0 / (len(ids) + cfg.model.d))
        table = rng.uniform(-a, a, size=(len(ids), cfg.model.d))
        state.table = Tensor(table.astype(ad.default_dtype()), grad_enabled=True)
        state.ce = None
    elif mode == "no_finetune":
        with ad.no_grad():
            state.table = ce_encode([state.item_tokens[i] for i in ids], ce)
        state.counters.ce_forward_calls += len(ids)
    if state.table is not None:
        state.table_row = {i: k for k, i in enumerate(ids)}
    return state


# ---------------------------------------------------------------------------
# The training step
# ---------------------------------------------------------------------------


def _encode_occurrences(users, item_tokens: dict, ce: CeParams):
    """One grad-tracked encoder row per interaction *occurrence*, so
    gradients flow into the encoder once per occurrence; all rows come
    from one batched encoder call.

    Returns (users renumbered to their rows, row_of, enc, token lengths).
    """
    seqs, rewritten = [], []
    for u in users:
        renumbered = []
        for item_id, resp in u.interactions:
            renumbered.append((len(seqs), resp))
            seqs.append(item_tokens[item_id])
        rewritten.append(UserSequence(u.user_id, tuple(renumbered)))
    lens = [min(len(toks), ce.cfg.max_token_len) for toks in seqs]
    return rewritten, {k: k for k in range(len(seqs))}, ce_encode(seqs, ce), lens


def _cache_leaves(items, encodings: dict, cache: dict, ce: CeParams, item_tokens: dict):
    """The CF's input for a gram step: one grad-enabled (n, d) leaf whose
    row k is the window-start encoding of ``items[k]``.

    Items touched for the first time in the window are encoded in one
    no-grad call; that encoding is what every later touch reads, and it
    seeds the item's pseudo-target. Returns (leaf, row_of, encoder
    forwards).
    """
    misses = [i for i in items if i not in encodings]
    if misses:
        with ad.no_grad():
            enc = ce_encode([item_tokens[i] for i in misses], ce).data
        for k, i in enumerate(misses):
            encodings[i] = cache[i] = enc[k:k + 1]
    leaf = Tensor(np.concatenate([encodings[i] for i in items], axis=0), grad_enabled=True)
    return leaf, {item_id: k for k, item_id in enumerate(items)}, len(misses)


def _write_back(cache: dict, row_of: dict, leaf: Tensor, gmap: dict) -> None:
    """Accumulate h~ = h - sum of dL/dh over the window into the cache:
    item i's target loses row ``row_of[i]`` of the leaf's gradient."""
    g = gmap.get(leaf)
    if g is None:
        return
    for i, k in row_of.items():
        cache[i] = cache[i] - g.data[k:k + 1]
        if not np.all(np.isfinite(cache[i])):
            raise NonFiniteError(f"pseudo-target for item {i} is non-finite")


def _regress(ce: CeParams, item_tokens: dict, chunk, targets: dict):
    """(loss, backward gradients) of the half squared error between the
    encoder's outputs for ``chunk`` and their pseudo-targets."""
    pred = ce_encode([item_tokens[i] for i in chunk], ce)
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
    """(users, row_of, enc, trained groups) for one step.

    ``enc`` holds the representations the CF reads; in ``gram`` it is the
    leaf whose gradient goes into the pseudo-targets. Each trained group
    is an (optimizer, named parameters) pair.
    """
    c = state.counters
    cf_group = (state.opt_cf, state.cf.named())
    if state.mode == "e2e":
        users, row_of, enc, lens = _encode_occurrences(batch.users, state.item_tokens, state.ce)
        c.ce_forward_calls += len(lens)
        c.ce_backward_calls += len(lens)
        c.flop_estimate += e2e_ce_flops_per_batch(
            len(users), len(lens) / len(users), float(np.mean(lens)), state.ce.cfg.d)
        return users, row_of, enc, [(state.opt_ce, state.ce.named()), cf_group]
    if state.mode == "gram":
        leaf, row_of, n_encoded = _cache_leaves(
            batch.unique_items, state.encodings, state.cache, state.ce, state.item_tokens)
        c.ce_forward_calls += n_encoded
        return batch.users, row_of, leaf, [cf_group]
    order = batch.unique_items
    row_of = {item_id: k for k, item_id in enumerate(order)}
    rows = np.array([state.table_row[i] for i in order])
    groups = [cf_group]
    if state.table.grad_enabled:
        groups.append((state.opt_ce, {"table": state.table}))
    return batch.users, row_of, ad.gather(state.table, rows), groups


def train_step(batch: Batch, state: TrainerState) -> dict:
    """One training step of ``state.mode`` on one batch.

    In order: (1) build the CF's item representations, (2) one backward
    through the batch's sequence loss, (3) in ``gram``, subtract dL/dh
    from each item's pseudo-target, (4) clip and step each trained module
    on its own optimizer, (5) in ``gram``, advance the clock and, at a window
    boundary, regress the encoder onto the cached pseudo-targets and
    clear the window's encodings and targets.
    """
    with state.timer.measure("e2e" if state.mode == "e2e" else "cf"), \
            ad.track_activations(state.accountant):
        try:
            users, row_of, enc, groups = _step_inputs(batch, state)
            loss, n_preds = batch_sequence_loss(users, row_of, enc, state.cf)
            gmap = ad.backward(loss)
            if state.mode == "gram":
                _write_back(state.cache, row_of, enc, gmap)
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
    """Regress the encoder onto the cached pseudo-targets, then clear the
    window's targets and encodings.

    One optimizer step per mini-batch of ``ce_batch_size`` items (0 =
    whole cache at once), one pass over the cache.
    """
    ids = list(state.cache)
    if not ids:
        return {"ce_items": 0, "ce_opt_steps": 0}
    bs = state.cfg.ce_batch_size or len(ids)
    groups = [(state.opt_ce, state.ce.named())]
    opt_steps = 0
    last_loss = 0.0
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
    state.encodings.clear()
    return {"ce_items": len(ids), "ce_opt_steps": opt_steps, "pseudo_loss": last_loss}


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_encodings(state: TrainerState):
    """(row_of, enc) giving each known item's current representation.

    For encoder-bearing modes this re-encodes every item with the current
    parameters (what deployment would serve); baselines use their item
    table. Never touches the cost counters.
    """
    if state.table is not None:
        return state.table_row, state.table
    ids = sorted(state.item_tokens)
    with ad.no_grad():
        enc = ce_encode([state.item_tokens[i] for i in ids], state.ce)
    return {i: k for k, i in enumerate(ids)}, enc


def scored_pairs(users, row_of, enc: Tensor, cf: CfParams):
    """Model scores for every predictable position as four arrays:
    float64 probabilities, labels, item ids and group ids, a prediction's
    group id being its user's index in ``users``."""
    # typed empty columns, so no predictions at all reach auc's UndefinedMetricError
    columns = [(np.empty(0), np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp))]
    base = 0
    for b in batch_iter(users, EVAL_BATCH_SIZE):
        probs, labels, item_ids, user_idx = batch_scores(b.users, row_of, enc, cf)
        columns.append((probs.astype(np.float64), labels, item_ids, base + user_idx))
        base += len(b.users)
    scores, labels, item_ids, group_ids = (np.concatenate(c) for c in zip(*columns))
    check_predictions(scores, labels, group_ids)
    return scores, labels, item_ids, group_ids


def evaluate(state: TrainerState, users, cs_items=None) -> dict:
    """AUC (optionally cold-start AUC) plus per-user ranking metrics."""
    row_of, enc = eval_encodings(state)
    scores, labels, item_ids, group_ids = scored_pairs(users, row_of, enc, state.cf)
    out = {"auc": auc(scores, labels), "n_predictions": len(scores)}
    if cs_items is not None:
        try:
            out["cs_auc"] = cs_auc(scores, labels, item_ids, cs_items)
        except UndefinedMetricError:
            out["cs_auc"] = None
    # AUC found a positive, so at least one group has one; rank only those
    ranked = np.isin(group_ids, group_ids[labels == 1])
    groups = group_by(scores[ranked], labels[ranked], group_ids[ranked])
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
    if state.table is not None:
        params["table"] = state.table.data.copy()
    return params


def _restore(state: TrainerState, snap: dict) -> None:
    if state.ce is not None:
        for k, v in state.ce.named().items():
            v.data = snap[f"ce.{k}"].copy()
    for k, v in state.cf.named().items():
        v.data = snap[f"cf.{k}"].copy()
    if state.table is not None:
        state.table.data = snap["table"].copy()


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
        state = init_trainer(dataset, mode, cfg, steps_per_epoch=plan.steps_per_epoch)
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
            # the settings as given, plus the mode and the resolved window
            config={"mode": mode, **asdict(cfg), "accum_steps": plan.accum_steps},
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
    leaf, row_of, _ = _cache_leaves(batch.unique_items, {}, cache, ce, item_tokens)
    loss, _ = batch_sequence_loss(batch.users, row_of, leaf, cf)
    gmap = ad.backward(loss)
    _write_back(cache, row_of, leaf, gmap)
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
                       k_steps: int = 50) -> dict:
    """Measure how closely accumulated single-step training matches
    end-to-end backprop on this dataset/config.

    Per trial: fresh parameters, one batch, both gradient paths compared
    per tensor. Then two k-step trajectory comparisons, one with plain SGD
    on both modules and one with Adam. All numbers are worst-case relative
    errors; exact arithmetic would give zeros.
    """
    cfg.validate()
    if cfg.precision != "f64":
        raise ConfigError("equivalence verification requires f64 precision")
    if n_trials < 1 or k_steps < 1:
        raise ConfigError(f"equivalence verification needs >= 1 trial and >= 1 trajectory step, "
                          f"got {n_trials} trials and {k_steps} steps")
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
    # single-step windows, whole cache in one regression step, so each
    # trainer applies exactly one optimizer step per module per batch
    for kind, lr in (("sgd", VERIFY_SGD_LR), ("adam", VERIFY_ADAM_LR)):
        opt = OptimizerConfig(kind=kind, lr=lr, schedule="constant")
        tcfg = replace(cfg, latency="1S", ce_batch_size=0, opt_ce=opt, opt_cf=opt)
        ref = _run_steps(dataset, "e2e", tcfg, k_steps)
        alt = _run_steps(dataset, "gram", tcfg, k_steps)
        out[f"max_trajectory_rel_err_{kind}"] = max_rel_err(ref, alt)
    out["k_steps"] = k_steps
    out["max_trajectory_rel_err"] = max(out["max_trajectory_rel_err_sgd"],
                                        out["max_trajectory_rel_err_adam"])
    return out
