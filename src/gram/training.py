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
    window closes the encoder regresses onto the pseudo-targets of the
    window's items, in first-touch order, and the window empties.
``no_content``
    A trainable item-embedding table replaces the encoder entirely.
``no_finetune``
    Encoder outputs are computed once at init and frozen as CF inputs.

All four share one step. ``step_gradients`` does everything up to the
optimizers: a per-mode builder supplies the CF's item representations,
one backward runs through the batch loss, and in ``gram`` the leaf's
gradient goes into the pseudo-targets and a closing window regresses
the encoder. It returns each trained module's unclipped gradients;
``train_step`` then clips and steps each module on its own optimizer.

An item is addressed one way, from init to loss: as its row k among the
sorted item ids, found once per step. Row k holds its tokens, its
baseline table row and, in ``gram``, its window encoding and target.

The regression runs ``ce_batch_size`` cached items per graph and sums
the chunks' gradients into one encoder step per window, so the chunk
size bounds the encoder graph's memory and leaves the trajectory alone.
With a one-step window (latency ``1S``) the encoder gradient of the
regression loss equals the end-to-end encoder gradient at equal
parameters, so the two trainers walk the same trajectory at any chunk
size. ``verify_equivalence`` measures this on the trainer's own step: it
compares the ``step_gradients`` of an ``e2e`` and a ``gram`` trainer that
hold the same parameters, then the two modes' ``train_step``
trajectories. Larger windows trade representation staleness for fewer
encoder calls and make no equivalence claim.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from .dataset import Batch, Dataset, batch_iter, cold_start_split, split_users
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
    named_params,
)
from .report import RunReport

MODES = ("e2e", "gram", "no_content", "no_finetune")

# Training-phase timer keys; eval time is tracked but not part of the
# run's wall_clock_ns counter.
_TRAIN_PHASES = ("e2e", "cf", "ce")

EVAL_BATCH_SIZE = 64       # users per no-grad scoring batch
# verify_equivalence's trajectory learning rates. The batch loss is a sum
# over some 340 predictions at the default config, and SGD at 1e-2 on it
# overflows the encoder within a few steps on some seeds.
VERIFY_SGD_LR = 1e-3
VERIFY_ADAM_LR = 1e-3
# the window verify_equivalence's trajectories run at, whatever the config
# says: with single-step windows each trainer applies exactly one optimizer
# step per module per batch
VERIFY_LATENCY = "1S"


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
    at step == warmup; "constant" ignores the step count. The config
    checks itself when built (``dataclasses.replace`` included): a value
    out of range raises ConfigError.
    """

    kind: str = "adam"
    lr: float = 1e-4
    schedule: str = "constant"
    model_dim: int = 16
    warmup: int = 400
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
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


@dataclass(frozen=True)
class TrainConfig:
    """Everything a run needs besides the dataset itself.

    ``seed`` is the master seed; init / shuffle / split streams derive
    from it via ``seed_streams`` so different modes see identical splits
    and initial parameters. ``latency`` is the gradient-update latency of
    ``gram``, the window between encoder updates (see
    ``accumulation_latency``). ``ce_batch_size`` is the number of cached
    items the encoder regression puts in one graph (0 = the whole cache);
    it bounds that graph's memory only, since the chunks' gradients are
    summed into one encoder step per window. The config is frozen and
    checks itself when built (``dataclasses.replace`` included), as its
    nested configs do: a value out of range raises ConfigError.
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

    def __post_init__(self):
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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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


def epoch_batches(users, cfg: TrainConfig, epoch: int):
    """The training batches of epoch ``epoch`` of a run of ``cfg``: ``users``
    in an order drawn from the ``shuffle`` seed stream and the epoch."""
    return batch_iter(users, cfg.cf_batch_size,
                      shuffle_seed=[seed_streams(cfg.seed)["shuffle"], epoch])


# ---------------------------------------------------------------------------
# Trainer state
# ---------------------------------------------------------------------------


def index_items(dataset: Dataset) -> tuple[np.ndarray, list]:
    """(item_ids, tokens): the dataset's item ids, sorted, and the token
    sequence of item ``item_ids[k]`` at ``tokens[k]``. Row k is how the
    trainer addresses that item everywhere."""
    items = sorted(dataset.items, key=lambda it: it.item_id)
    return np.array([it.item_id for it in items], dtype=np.intp), [it.tokens for it in items]


@dataclass
class Window:
    """``gram``'s open window over item rows: ``rows`` in first-touch order,
    marked in ``touched``. Touched row r holds its first-touch encoding,
    which every touch reads, in ``encodings[r]`` and its pseudo-target h~
    in ``targets[r]``; other rows are stale and unread."""

    encodings: np.ndarray           # (n_items, d)
    targets: np.ndarray             # (n_items, d)
    touched: np.ndarray             # (n_items,) bool
    rows: list

    @classmethod
    def empty(cls, n_items: int, d: int) -> "Window":
        dt = ad.default_dtype()
        return cls(np.zeros((n_items, d), dt), np.zeros((n_items, d), dt), np.zeros(n_items, bool), [])


@dataclass
class TrainerState:
    """Mutable state of one training run (confined to one thread)."""

    mode: str
    cfg: TrainConfig
    ce: CeParams | None
    cf: CfParams
    opt_ce: OptimizerState
    opt_cf: OptimizerState
    item_ids: np.ndarray            # sorted item ids; row k of every per-item array is item_ids[k]
    tokens: list                    # tokens[k]: the token ids of item_ids[k]
    accum_steps: int                # gram window size N, resolved from cfg.latency
    t: int = 0                      # batches processed so far
    window: Window | None = None    # gram's open window
    counters: CostCounters = field(default_factory=CostCounters)
    accountant: ActivationAccountant = field(default_factory=ActivationAccountant)
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    # baselines: one row per item of item_ids, read in place of the
    # encoder; no_content's is trained on opt_ce, no_finetune's is the
    # initial encoder's output, frozen
    table: Tensor | None = None

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
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    seeds = seed_streams(cfg.seed)
    ce, cf = init_params(cfg.model, seeds["init"])
    item_ids, tokens = index_items(dataset)
    state = TrainerState(
        mode=mode, cfg=cfg, ce=ce, cf=cf,
        opt_ce=OptimizerState(cfg.opt_ce), opt_cf=OptimizerState(cfg.opt_cf),
        item_ids=item_ids, tokens=tokens,
        accum_steps=accumulation_latency(cfg.latency, steps_per_epoch),
    )
    n_items = len(tokens)
    if mode == "gram":
        state.window = Window.empty(n_items, cfg.model.d)
    elif mode == "no_content":
        # Xavier-style table; rows of items never seen in training stay at
        # their random init, which is the point of this baseline.
        rng = np.random.default_rng([seeds["init"], 1])
        a = math.sqrt(6.0 / (n_items + cfg.model.d))
        table = rng.uniform(-a, a, size=(n_items, cfg.model.d))
        state.table = Tensor(table.astype(ad.default_dtype()), grad_enabled=True)
        state.ce = None
    elif mode == "no_finetune":
        with ad.no_grad():
            state.table = ce_encode(tokens, ce)
        state.counters.ce_forward_calls += n_items
    return state


# ---------------------------------------------------------------------------
# The training step
# ---------------------------------------------------------------------------


def _cache_leaves(rows: np.ndarray, window: Window, ce: CeParams, tokens: list):
    """The CF's input for a gram step: one grad-enabled (n, d) leaf whose
    row k is the window-start encoding of item row ``rows[k]``.

    Rows new to the window are encoded in one no-grad call; that encoding
    is what every later touch reads, and it seeds the row's pseudo-target.
    Returns (leaf, encoder forwards).
    """
    new = rows[~window.touched[rows]]
    if new.size:
        with ad.no_grad():
            window.encodings[new] = window.targets[new] = ce_encode(
                [tokens[r] for r in new.tolist()], ce).data
        window.touched[new] = True
        window.rows.extend(new.tolist())
    return Tensor(window.encodings[rows], grad_enabled=True), new.size


def _write_back(targets: np.ndarray, rows, item_ids, leaf: Tensor, gmap: dict) -> None:
    """Accumulate h~ = h - sum of dL/dh over the window into ``targets``:
    row ``rows[k]`` (distinct, so plain indexing scatters) loses row k of
    the leaf's gradient. The first row, in ``rows``' order, whose new
    target is non-finite is a NonFiniteError naming its item id."""
    g = gmap.get(leaf)
    if g is None:
        return
    new = targets[rows] - g.data
    bad = ~np.isfinite(new).all(axis=1)
    if bad.any():
        raise NonFiniteError(f"pseudo-target for item {item_ids[rows[np.argmax(bad)]]} is non-finite")
    targets[rows] = new


def _regress(ce: CeParams, tokens: list, rows: list, targets: np.ndarray, chunk_size: int):
    """(loss, encoder gradients by name) of the half squared error between
    the encoder's outputs for item ``rows`` and their ``targets`` rows.

    ``chunk_size`` rows are encoded and backpropagated per graph (0 = all
    at once), so one chunk's activations are alive at a time; the loss and
    the gradients are summed over the chunks.
    """
    named = ce.named()
    loss, grads = 0.0, {}
    size = chunk_size or len(rows)
    for lo in range(0, len(rows), size):
        chunk = rows[lo:lo + size]
        pred = ce_encode([tokens[r] for r in chunk], ce)
        ploss = ad.mse_half(Tensor(targets[chunk]), pred)
        for name, g in _named_grads(named, ad.backward(ploss)).items():
            grads[name] = grads[name] + g if name in grads else g
        loss += ploss.item()
    return loss, grads


def _item_rows(item_ids: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Row of each of ``items`` in the sorted ``item_ids``; an item that is
    not among them is a ValueError naming it."""
    rows = np.searchsorted(item_ids, items)
    known = rows < item_ids.size
    known[known] = item_ids[rows[known]] == items[known]
    if not known.all():
        raise ValueError(f"item {items[np.argmin(known)]} is not in the dataset")
    return rows


def _module_params(state: TrainerState, module: str) -> dict:
    """The named parameters of trained module ``module``: "cf" is the
    collaborative filter, "ce" the encoder or ``no_content``'s table."""
    if module == "cf":
        return state.cf.named()
    return {"table": state.table} if state.mode == "no_content" else state.ce.named()


def _step_inputs(batch: Batch, rows: np.ndarray, state: TrainerState):
    """(index, enc, modules) for one step, given the item rows of
    ``batch.unique_items``.

    ``enc`` holds the representations the CF reads, ``enc[index[k]]`` the
    batch's interaction k's. In ``e2e`` row k encodes interaction k; in the
    other modes row j is item row ``rows[j]``'s, and in ``gram`` it is the
    leaf whose gradient goes into the pseudo-targets. ``modules`` names
    the trained modules whose gradients the batch loss's backward gives.
    """
    c = state.counters
    if state.mode == "e2e":     # one grad-tracked encoding per occurrence
        seqs = [state.tokens[r] for r in rows[batch.inverse].tolist()]
        lens = [min(len(toks), state.ce.cfg.max_token_len) for toks in seqs]
        c.ce_forward_calls += len(lens)
        c.ce_backward_calls += len(lens)
        c.flop_estimate += e2e_ce_flops_per_batch(
            len(batch.users), len(lens) / len(batch.users), float(np.mean(lens)), state.ce.cfg.d)
        return np.arange(len(lens)), ce_encode(seqs, state.ce), ("ce", "cf")
    if state.mode == "gram":
        leaf, n_encoded = _cache_leaves(rows, state.window, state.ce, state.tokens)
        c.ce_forward_calls += n_encoded
        return batch.inverse, leaf, ("cf",)
    modules = ("ce", "cf") if state.table.grad_enabled else ("cf",)
    return batch.inverse, ad.gather(state.table, rows), modules


def _step_phase(state: TrainerState, module: str) -> str:
    """The timer phase that computes and applies ``module``'s update."""
    if state.mode == "e2e":
        return "e2e"
    return "ce" if module == "ce" and state.mode == "gram" else "cf"


def step_gradients(batch: Batch, state: TrainerState) -> tuple[dict, dict]:
    """One training step of ``state.mode`` on one batch, up to the
    optimizers: (report, gradients).

    In order: (1) find the rows of the batch's items and build the CF's
    item representations, (2) one backward through the batch's sequence
    loss, (3) in ``gram``, subtract dL/dh from each item's pseudo-target,
    advance the clock and, at a window boundary, regress the encoder onto
    the window's pseudo-targets in one gradient summed over its chunks and
    empty the window. The gradients are unclipped, by parameter name, per
    trained module: "cf", and "ce" for the encoder (or ``no_content``'s
    table) where this step updates it. In every mode an item the dataset
    lacks is a ValueError naming it.
    """
    with state.timer.measure(_step_phase(state, "cf")), \
            ad.track_activations(state.accountant):
        try:
            rows = _item_rows(state.item_ids, batch.unique_items)
            index, enc, modules = _step_inputs(batch, rows, state)
            loss, n_preds = batch_sequence_loss(batch, index, enc, state.cf)
            gmap = ad.backward(loss)
            if state.mode == "gram":
                _write_back(state.window.targets, rows, state.item_ids, enc, gmap)
        except NonFiniteError as e:
            raise NumericalAbort(f"{state.mode} step {state.t}: {e}") from e
        grads = {m: _named_grads(_module_params(state, m), gmap) for m in modules}
    state.counters.cf_forward_calls += len(batch.users)
    state.t += 1
    report = {"loss": loss.item(), "n_predictions": n_preds, "step": state.t}
    if state.mode == "gram":
        window = state.window
        closed = state.t % state.accum_steps == 0
        report.update(cache_size=len(window.rows), window_closed=closed)
        if closed:      # the window holds this step's items, so it is not empty
            rows = window.rows
            report["ce_items"] = len(rows)
            with state.timer.measure("ce"), ad.track_activations(state.accountant):
                try:
                    report["pseudo_loss"], grads["ce"] = _regress(
                        state.ce, state.tokens, rows, window.targets, state.cfg.ce_batch_size)
                except NonFiniteError as e:
                    raise NumericalAbort(
                        f"encoder regression at step {state.t} (items "
                        f"{state.item_ids[rows[0]]}..{state.item_ids[rows[-1]]}): {e}") from e
            state.counters.ce_backward_calls += len(rows)
            lens = [min(len(state.tokens[r]), state.ce.cfg.max_token_len) for r in rows]
            state.counters.flop_estimate += gram_ce_flops_per_batch(
                len(rows), float(np.mean(lens)), state.ce.cfg.d)
            window.touched[rows] = False
            window.rows = []
    state.counters.activation_elements_peak = state.accountant.peak
    return report, grads


def train_step(batch: Batch, state: TrainerState) -> dict:
    """One training step of ``state.mode`` on one batch: ``step_gradients``,
    then each trained module's gradients clipped on their own and applied
    by its own optimizer. Returns the step's report."""
    report, grads = step_gradients(batch, state)
    for module, g in grads.items():
        with state.timer.measure(_step_phase(state, module)):
            if state.cfg.clip_norm is not None:
                g = clip_by_global_norm(g, state.cfg.clip_norm)
            opt = state.opt_ce if module == "ce" else state.opt_cf
            optimizer_apply(opt, _module_params(state, module), g)
    return report


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_encodings(state: TrainerState) -> Tensor:
    """Each known item's current representation, row k for
    ``state.item_ids[k]``.

    For encoder-bearing modes this re-encodes every item with the current
    parameters (what deployment would serve); baselines use their item
    table. Never touches the cost counters.
    """
    if state.table is not None:
        return state.table
    with ad.no_grad():
        return ce_encode(state.tokens, state.ce)


def scored_pairs(users, item_ids: np.ndarray, enc: Tensor, cf: CfParams):
    """Model scores for every predictable position as four arrays:
    float64 probabilities, labels, item ids and group ids, a prediction's
    group id being its user's index in ``users``. Row k of ``enc`` encodes
    ``item_ids[k]``; only users with a predictable position (>= 2
    interactions) are batched."""
    # typed empty columns, so no predictions at all reach auc's UndefinedMetricError
    columns = [(np.empty(0), np.empty(0), np.empty(0, np.intp), np.empty(0, np.intp))]
    index = np.array([k for k, u in enumerate(users) if len(u) >= 2], dtype=np.intp)
    base = 0
    for b in batch_iter([users[k] for k in index], EVAL_BATCH_SIZE):
        probs, labels, items, user_idx = batch_scores(b, _item_rows(item_ids, b.items), enc, cf)
        columns.append((probs.astype(np.float64), labels, items, index[base + user_idx]))
        base += len(b.users)
    scores, labels, item_ids, group_ids = (np.concatenate(c) for c in zip(*columns))
    check_predictions(scores, labels, group_ids)
    return scores, labels, item_ids, group_ids


def evaluate(state: TrainerState, users, cs_items=None) -> dict:
    """AUC (optionally cold-start AUC) plus per-user ranking metrics."""
    scores, labels, item_ids, group_ids = scored_pairs(
        users, state.item_ids, eval_encodings(state), state.cf)
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
    params = {k: v.data.copy() for k, v in named_params(state.ce, state.cf).items()}
    if state.table is not None:
        params["table"] = state.table.data.copy()
    return params


def _restore(state: TrainerState, snap: dict) -> None:
    for k, v in named_params(state.ce, state.cf).items():
        v.data = snap[k].copy()
    if state.table is not None:
        state.table.data = snap["table"].copy()


def train(dataset: Dataset, mode: str, cfg: TrainConfig):
    """Full run: split, epoch loop with validation-AUC early stopping,
    best-checkpoint restore, final test metrics.

    Returns (RunReport, TrainerState); the state carries the restored
    best parameters for checkpointing.
    """
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
            for batch in epoch_batches(plan.train_users, cfg, epoch):
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


def _run_steps(dataset: Dataset, mode: str, cfg: TrainConfig, k_steps: int) -> dict:
    """k training steps over cycling epochs; returns the parameter snapshot."""
    state = init_trainer(dataset, mode, cfg)
    batches = itertools.chain.from_iterable(
        epoch_batches(dataset.users, cfg, epoch) for epoch in itertools.count())
    for batch in itertools.islice(batches, k_steps):
        train_step(batch, state)
    return _snapshot(state)


def verify_equivalence(dataset: Dataset, cfg: TrainConfig, n_trials: int = 10,
                       k_steps: int = 50) -> dict:
    """Measure how closely accumulated single-step training matches
    end-to-end backprop on this dataset/config.

    Per trial: fresh parameters, one batch, and the ``step_gradients`` of
    an ``e2e`` and a single-step ``gram`` trainer that hold them, compared
    per tensor. Then two k-step trajectory comparisons, one with plain SGD
    on both modules and one with Adam. All numbers are worst-case relative
    errors; exact arithmetic would give zeros.
    """
    if cfg.precision != "f64":
        raise ConfigError("equivalence verification requires f64 precision")
    if n_trials < 1 or k_steps < 1:
        raise ConfigError(f"equivalence verification needs >= 1 trial and >= 1 trajectory step, "
                          f"got {n_trials} trials and {k_steps} steps")
    if not dataset.users:
        raise ConfigError("equivalence verification needs users to batch; the dataset has none")
    step_cfg = replace(cfg, latency=VERIFY_LATENCY)
    worst = {"ce": 0.0, "cf": 0.0}
    for trial in range(n_trials):
        init_seed = int(np.random.SeedSequence([cfg.seed, trial]).generate_state(1)[0])
        ce, cf = init_params(cfg.model, init_seed)
        batch = next(batch_iter(dataset.users, cfg.cf_batch_size,
                                shuffle_seed=[init_seed, 1]))
        grads = []
        for mode in ("e2e", "gram"):
            state = init_trainer(dataset, mode, step_cfg)
            state.ce, state.cf = ce, cf
            grads.append(step_gradients(batch, state)[1])
        ref, alt = grads
        for module in worst:
            worst[module] = max(worst[module], max_rel_err(ref[module], alt[module]))
    out = {
        "n_trials": n_trials,
        "max_ce_grad_rel_err": worst["ce"],
        "max_cf_grad_rel_err": worst["cf"],
        "max_param_grad_rel_err": max(worst.values()),
    }
    for kind, lr in (("sgd", VERIFY_SGD_LR), ("adam", VERIFY_ADAM_LR)):
        opt = OptimizerConfig(kind=kind, lr=lr, schedule="constant")
        tcfg = replace(cfg, latency=VERIFY_LATENCY, opt_ce=opt, opt_cf=opt)
        ref = _run_steps(dataset, "e2e", tcfg, k_steps)
        alt = _run_steps(dataset, "gram", tcfg, k_steps)
        out[f"max_trajectory_rel_err_{kind}"] = max_rel_err(ref, alt)
    out["k_steps"] = k_steps
    out["max_trajectory_rel_err"] = max(out["max_trajectory_rel_err_sgd"],
                                        out["max_trajectory_rel_err_adam"])
    return out
