"""Trainers: one training step for four modes, optimizers, the training
loop, and the gradient-equivalence verifier.

Training modes
--------------
``e2e``
    One joint graph per batch: the content encoder runs once per
    interaction *occurrence*.
``gram``
    The encoder runs once per *distinct* item per window. A single-step
    window is one joint graph over the batch's distinct items, whose
    gather sums each item's occurrences' gradients. A multi-step window
    encodes an item without grad at its first touch; every touch reads
    that encoding h through a grad-enabled leaf and adds its dL/dh to the
    item's sum. When the window closes each item's summed dL/dh is
    backpropagated from its encoding and the window empties.
``no_content``
    A trainable item-embedding table replaces the encoder entirely.
``no_finetune``
    Encoder outputs are computed once at init and frozen as CF inputs.

All four share one step and one window of N steps, the window
``latency`` resolves to. ``step_gradients`` does everything up to the
optimizers: a per-mode builder supplies the CF's item representations,
one backward runs through the batch loss, and in a multi-step ``gram``
window the leaf's gradient is added to the window's sums. The CF's
gradient is handed out every step; the encoder's (or ``no_content``'s
table's) is summed over the window, with the multi-step window's
backward from the sums, and handed out at its close.
``train_step`` then clips and steps each module on its own optimizer,
and its wall time is the run's one training phase, "train".

An item is addressed one way, from init to loss: as its row k among the
sorted item ids, found once per step. Row k holds its row of the token
table, its baseline table row and its multi-step window state.

A multi-step window's close re-encodes its items with grad, in
first-touch order, ``ce_batch_size`` per graph (0: all in one graph),
and sums the chunks' gradients: the chunk bounds the encoder graph's
memory at the price of a second forward, and leaves the trajectory
alone. The encoder does not move inside
a window, so by the chain rule J^T sum dL/dh, J the Jacobian of each
item's encoding at the window-start parameters, is the joint-backprop
encoder gradient summed over the window: a ``gram`` window of N steps
equals joint backprop at update latency N. ``verify_equivalence``
measures this on the trainer's own step: it compares the ``step_gradients``
of an ``e2e`` and a ``gram`` trainer that hold the same parameters over
one window, then the two modes' ``train_step`` trajectories, both at the
config's latency.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import re
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import NonFiniteError, Tensor
from .dataset import (Batch, Dataset, InfeasibleSplitError, batch_iter, cold_start_split,
                      split_users)
from .instrument import ActivationAccountant, CostCounters, PhaseTimer, ce_flops
from .metrics import UndefinedMetricError, auc, check_predictions, cs_auc, group_by, mrr, ndcg_at_k
from .model import (
    CeParams,
    CfParams,
    ItemTable,
    ModelConfig,
    TokenTable,
    _Params,
    batch_scores,
    batch_sequence_loss,
    ce_encode,
    init_params,
    named_params,
    token_table,
)
from .report import RunReport

MODES = ("e2e", "gram", "no_content", "no_finetune")

EVAL_BATCH_SIZE = 64       # users per no-grad scoring batch
# verify_equivalence's trajectory learning rates. The batch loss is a sum
# over some 340 predictions at the default config, and SGD at 1e-2 on it
# overflows the encoder within a few steps on some seeds.
VERIFY_SGD_LR = 1e-3
VERIFY_ADAM_LR = 1e-3


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class NumericalAbort(RuntimeError):
    """Training produced non-finite values; the message says where."""


@contextlib.contextmanager
def _aborts(where: str):
    """Turn a NonFiniteError in the body into a NumericalAbort naming ``where``."""
    try:
        yield
    except NonFiniteError as e:
        raise NumericalAbort(f"{where}: {e}") from e


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
    moment buffers, each one array laid out as its module's ``flat``,
    created on first use."""

    cfg: OptimizerConfig
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def optimizer_apply(opt: OptimizerState, p: _Params, g: np.ndarray) -> None:
    """One optimizer step of module ``p`` on ``g``, its gradient laid out as
    ``p.flat``. The update is elementwise over the whole flat array. It
    binds a new array, not writing into the old one, so the arrays a graph
    captured keep their values."""
    cfg = opt.cfg
    if g.shape != p.flat.shape:
        raise ConfigError(f"gradient shape {g.shape} does not match the module's {p.flat.shape}")
    opt.step += 1
    lr = cfg.lr_at(opt.step)
    if cfg.kind == "sgd":
        p.bind(p.flat - lr * g)
        return
    if opt.m is None:
        opt.m, opt.v = np.zeros_like(p.flat), np.zeros_like(p.flat)
    opt.m *= cfg.beta1
    opt.m += (1.0 - cfg.beta1) * g
    opt.v *= cfg.beta2
    opt.v += (1.0 - cfg.beta2) * (g * g)
    m_hat = opt.m / (1.0 - cfg.beta1 ** opt.step)
    v_hat = opt.v / (1.0 - cfg.beta2 ** opt.step)
    p.bind(p.flat - lr * m_hat / (np.sqrt(v_hat) + cfg.eps))


def clip_by_global_norm(g: np.ndarray, max_norm: float) -> np.ndarray:
    """A module's flat gradient ``g``, scaled so its L2 norm is <= max_norm."""
    total = math.sqrt(float(np.dot(g, g)))
    return g * (max_norm / total) if total > max_norm > 0.0 else g


def _flat_grad(p: _Params, gmap: dict) -> np.ndarray:
    """Module ``p``'s gradient in a ``backward`` result, laid out as ``p.flat``."""
    return np.concatenate([gmap[t].data.ravel() for t in p.tensors])


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
    and initial parameters. ``latency`` is every mode's gradient-update
    latency, the window between encoder (or table) updates (see
    ``accumulation_latency``), on the run's step clock: a run that ends
    mid-window, at ``max_epochs`` or under ``patience``, drops the open
    window's encoder gradient and reports its steps as
    ``unapplied_window_steps``. ``ce_batch_size`` is the number of cached
    items a multi-step ``gram`` window's close re-encodes in one graph, 0
    for all of them in one; it bounds that graph's memory only, since the
    chunks' gradients are summed into one encoder step per window. A
    single-step window re-encodes nothing and ignores it. The config is frozen and
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
            raise ConfigError("ce_batch_size must be >= 0 (0 = re-encode a window's "
                              "items in one graph)")
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

    Windows follow the run's step clock: a window closes after step t,
    counted over the whole run, when N divides t, in every mode. So an
    ``E`` window may straddle epochs (at 37 steps per epoch, 0.5E is 19
    steps and its second window is steps 20..38, across the first
    epoch's end), and a run that stops mid-window never applies the open
    window's encoder (or table) gradient; ``train`` reports those steps
    as the RunReport's ``unapplied_window_steps``.
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
    labels = np.concatenate([np.empty(0, np.intp), *(u.resps[1:] for u in users)])
    pos = int(labels.sum())
    if pos == 0 or pos == labels.size:
        raise ConfigError(f"{split} split has {pos} positive and {labels.size - pos} "
                          "negative responses at its predicted positions; "
                          "its AUC needs both classes")


def _require_readable(where: str, users, cfg: TrainConfig) -> None:
    """A user longer than ``max_interactions``, which the CF cannot read,
    is a ConfigError naming it and *where* it is."""
    limit = cfg.model.max_interactions
    for u in (u for u in users if len(u) > limit):
        raise ConfigError(f"{where}: user {u.user_id} has {len(u)} interactions, "
                          f"more than max_interactions {limit}")


def plan_run(dataset: Dataset, cfg: TrainConfig) -> RunPlan:
    """The splits, steps per epoch and window a run of ``cfg`` will use.

    More cold-start items than the test split holds, or every item, is a
    ConfigError naming ``n_cs_items`` and giving the test split's user and
    item counts. A training split the other splits leave empty is a
    ConfigError giving their counts. A user longer than
    ``max_interactions`` is a ConfigError naming it and its split; so is a validation or test split whose
    predicted positions hold a single class, since no AUC could be computed
    on it, and a window longer than an epoch, in every mode.
    """
    seeds = seed_streams(cfg.seed)
    try:
        train_ds, test_ds, cs_items = cold_start_split(
            dataset, cfg.n_cs_items, seeds["split"], cfg.test_frac)
    except InfeasibleSplitError as e:
        raise ConfigError(f"n_cs_items: {e}") from e
    train_users, val_users = split_users(train_ds.users, cfg.val_frac, seeds["val"])
    if not train_users:
        n_test = len(test_ds.users)
        raise ConfigError(
            f"training split is empty after the test, cold-start and validation splits: of "
            f"{len(dataset.users)} users, test took {n_test}, removing the {len(cs_items)} "
            f"cold-start items left {len(dataset.users) - n_test - len(train_ds.users)} with "
            f"fewer than 2 interactions, and validation took {len(val_users)}")
    for split, users in (("train", train_users), ("validation", val_users), ("test", test_ds.users)):
        _require_readable(f"{split} split", users, cfg)
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


@dataclass
class Window:
    """A multi-step ``gram`` window over item rows: ``rows`` in first-touch
    order, marked in ``touched``. Touched row r holds its first-touch
    encoding, which every touch reads, in ``encodings[r]`` and the sum of
    its touches' dL/dh in ``dh[r]``; other rows are stale and unread. No
    encoder graph outlives the step that built it."""

    encodings: np.ndarray           # (n_items, d)
    dh: np.ndarray                  # (n_items, d)
    touched: np.ndarray             # (n_items,) bool
    rows: list = field(default_factory=list)


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
    tokens: TokenTable              # row k: the encoder's token ids of item_ids[k]
    accum_steps: int                # window size N, resolved from cfg.latency
    t: int = 0                      # batches processed so far
    window: Window | None = None    # a multi-step gram run's open window
    pending: np.ndarray | None = None   # the open window's summed "ce" gradient, flat
    counters: CostCounters = field(default_factory=CostCounters)
    accountant: ActivationAccountant = field(default_factory=ActivationAccountant)
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    table: ItemTable | None = None  # the baselines' item table; no_content trains it on opt_ce


def init_trainer(dataset: Dataset, mode: str, cfg: TrainConfig,
                 steps_per_epoch: int | None = None) -> TrainerState:
    """Build a TrainerState: parameters, optimizers, mode-specific extras.

    ``dataset`` supplies the item universe (tokens for every item the run
    may ever encode, including evaluation-only items); where the encoder
    runs, a token it reads outside ``vocab_size`` is a ConfigError naming
    the item. ``steps_per_epoch`` resolves an epoch-relative
    ``cfg.latency``; without it such a latency is a ConfigError. This is
    where ``cfg.precision`` takes effect: the parameters, a multi-step
    ``gram`` window and ``no_content``'s table are built in its dtype, and every
    array computed from them follows.
    """
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    seeds = seed_streams(cfg.seed)
    dtype = np.float64 if cfg.precision == "f64" else np.float32
    ce, cf = init_params(cfg.model, seeds["init"])
    for p in (ce, cf):
        p.bind(p.flat.astype(dtype, copy=False))
    item_ids, tokens = token_table(dataset.items, cfg.model)
    bad = (tokens.ids < 0) | (tokens.ids >= cfg.model.vocab_size)
    if mode != "no_content" and bad.any():
        t = np.argmax(bad)
        raise ConfigError(f"item {item_ids[np.searchsorted(tokens.starts, t, 'right') - 1]} has "
                          f"token {tokens.ids[t]}, outside vocab_size {cfg.model.vocab_size}")
    state = TrainerState(
        mode=mode, cfg=cfg, ce=ce, cf=cf,
        opt_ce=OptimizerState(cfg.opt_ce), opt_cf=OptimizerState(cfg.opt_cf),
        item_ids=item_ids, tokens=tokens,
        accum_steps=accumulation_latency(cfg.latency, steps_per_epoch),
    )
    n_items = len(item_ids)
    if mode == "gram" and state.accum_steps > 1:
        shape = (n_items, cfg.model.d)
        state.window = Window(np.zeros(shape, dtype), np.zeros(shape, dtype), np.zeros(n_items, bool))
    elif mode == "no_content":
        # Xavier-style table; rows of items never seen in training stay at
        # their random init, which is the point of this baseline.
        rng = np.random.default_rng([seeds["init"], 1])
        a = math.sqrt(6.0 / (n_items + cfg.model.d))
        table = rng.uniform(-a, a, size=(n_items, cfg.model.d))
        state.table = ItemTable(Tensor(table.astype(dtype), grad_enabled=True))
        state.ce = None
    elif mode == "no_finetune":
        state.table = ItemTable(eval_encodings(state))
        state.counters.ce_forward_calls += n_items
    return state


# ---------------------------------------------------------------------------
# The training step
# ---------------------------------------------------------------------------


def _cache_leaves(rows: np.ndarray, window: Window, ce: CeParams, tokens: TokenTable):
    """The CF's input for a multi-step gram step: one grad-enabled (n, d)
    leaf whose row k is the window-start encoding of item row ``rows[k]``.

    Rows new to the window are encoded without grad in one call; that
    encoding is what every later touch reads, and the row's dL/dh sum
    starts at zero. Returns (leaf, encoder forwards).
    """
    new = rows[~window.touched[rows]]
    if new.size:
        with ad.no_grad():
            window.encodings[new] = ce_encode(new, tokens, ce).data
        window.dh[new] = 0.0
        window.touched[new] = True
        window.rows.extend(new.tolist())
    return Tensor(window.encodings[rows], grad_enabled=True), new.size


def _write_back(dh: np.ndarray, rows, item_ids, leaf: Tensor, gmap: dict) -> None:
    """Sum dL/dh over the window in ``dh``: row ``rows[k]`` (distinct, so
    plain indexing scatters) gains row k of the leaf's gradient. The first
    row, in ``rows``' order, whose new sum is non-finite is a
    NonFiniteError naming its item id."""
    new = dh[rows] + gmap[leaf].data
    bad = ~np.isfinite(new).all(axis=1)
    if bad.any():
        raise NonFiniteError(f"dL/dh sum for item {item_ids[rows[np.argmax(bad)]]} is non-finite")
    dh[rows] = new


def _sum_grads(total: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    """``total + g``; a first sum, ``total`` None, is ``g`` as is."""
    return g if total is None else total + g


def _re_encoded(ce: CeParams, tokens: TokenTable, rows: list, chunk_size: int):
    """Item ``rows`` encoded again with grad, ``chunk_size`` per graph, as
    (rows, encoding) pairs. A generator, so each chunk is encoded only when
    the one before it has been backpropagated, and one chunk's activations
    are alive at a time."""
    for lo in range(0, len(rows), chunk_size):
        chunk = np.array(rows[lo:lo + chunk_size])
        yield chunk, ce_encode(chunk, tokens, ce)


def _item_rows(item_ids: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Row of each of ``items`` in the sorted ``item_ids``; an item that is
    not among them is a ValueError naming it."""
    rows = np.searchsorted(item_ids, items)
    known = rows < item_ids.size
    known[known] = item_ids[rows[known]] == items[known]
    if not known.all():
        raise ValueError(f"item {items[np.argmin(known)]} is not in the dataset")
    return rows


def _module(state: TrainerState, module: str) -> _Params:
    """Module ``module``'s parameters: "cf" is the collaborative filter,
    "ce" the encoder or, without one, ``no_content``'s table."""
    return state.cf if module == "cf" else state.ce or state.table


def _step_inputs(batch: Batch, rows: np.ndarray, state: TrainerState):
    """(index, enc, modules) for one step, given the item rows of
    ``batch.unique_items``.

    ``enc`` holds the representations the CF reads, ``enc[index[k]]`` the
    batch's interaction k's. In ``e2e`` row k encodes interaction k, and
    in single-step ``gram`` item row ``rows[k]``, in the step's graph. In
    multi-step ``gram`` row k is item row ``rows[k]``'s, in the leaf whose
    gradient goes into the window's dL/dh sums; the baselines pass their
    item table, as evaluation does. ``modules`` names the trained modules
    whose gradients the batch loss's backward gives.
    """
    c = state.counters
    if state.window is not None:
        leaf, n_encoded = _cache_leaves(rows, state.window, state.ce, state.tokens)
        c.ce_forward_calls += n_encoded
        return batch.inverse, leaf, ("cf",)
    if state.mode not in ("e2e", "gram"):
        modules = ("ce", "cf") if state.mode == "no_content" else ("cf",)
        return rows[batch.inverse], state.table.embedding, modules
    index, encoded = ((np.arange(len(batch.inverse)), rows[batch.inverse]) if state.mode == "e2e"
                      else (batch.inverse, rows))
    c.ce_forward_calls += len(encoded)
    c.ce_backward_calls += len(encoded)
    c.flop_estimate += _ce_flops(state, encoded)
    return index, ce_encode(encoded, state.tokens, state.ce), ("ce", "cf")


def _ce_flops(state: TrainerState, rows) -> float:
    """``ce_flops`` of encoding item ``rows`` at their mean token length."""
    return ce_flops(len(rows), float(np.mean(state.tokens.lengths[rows])), state.ce.cfg.d)


def step_gradients(batch: Batch, state: TrainerState) -> tuple[dict, dict]:
    """One training step of ``state.mode`` on one batch, up to the
    optimizers: (report, gradients).

    In order: (1) find the rows of the batch's items and build the CF's
    item representations, (2) one backward through the batch's sequence
    loss, (3) in a multi-step window, add dL/dh to each item's window sum,
    (4) add the step's "ce" gradient to the window's sum, (5) when the
    clock closes the window, backpropagate a multi-step window's dL/dh
    sums through the encoder into that sum, empty the window and hand the
    sum out. The ``gram`` report's ``cache_size`` and ``ce_items`` count
    the window's items; a multi-step close's ``pseudo_loss`` is half the
    squared norm of its dL/dh sums. The gradients are unclipped, one array
    per trained module laid out as its ``flat``: "cf", and "ce" for the
    encoder (or ``no_content``'s table) at a close. In every mode an item
    the dataset lacks is a ValueError naming it.
    """
    with ad.track_activations(state.accountant), _aborts(f"{state.mode} step {state.t}"):
        rows = _item_rows(state.item_ids, batch.unique_items)
        index, enc, modules = _step_inputs(batch, rows, state)
        loss, n_preds = batch_sequence_loss(batch, index, enc, state.cf)
        gmap = ad.backward(loss)
        if state.window is not None:
            _write_back(state.window.dh, rows, state.item_ids, enc, gmap)
        grads = {m: _flat_grad(_module(state, m), gmap) for m in modules}
        if "ce" in grads:
            state.pending = _sum_grads(state.pending, grads.pop("ce"))
    state.counters.cf_forward_calls += len(batch.users)
    state.t += 1
    closed = state.t % state.accum_steps == 0
    report = {"loss": loss.item(), "n_predictions": n_preds, "step": state.t,
              "window_closed": closed}
    if state.mode == "gram" and state.window is None:   # the step is its window
        report["cache_size"] = report["ce_items"] = len(rows)
    elif state.window is not None:
        window, rows = state.window, state.window.rows
        report["cache_size"] = len(rows)
        if closed:      # the window holds this step's items, so it is not empty
            report["ce_items"] = len(rows)
            report["pseudo_loss"] = 0.5 * float(np.sum(np.square(window.dh[rows])))
            with ad.track_activations(state.accountant), \
                    _aborts(f"encoder backward at step {state.t} (items "
                            f"{state.item_ids[rows[0]]}..{state.item_ids[rows[-1]]})"):
                for r, enc in _re_encoded(state.ce, state.tokens, rows,
                                          state.cfg.ce_batch_size or len(rows)):
                    g = _flat_grad(state.ce, ad.backward(enc, window.dh[r]))   # J^T dh
                    state.pending = _sum_grads(state.pending, g)
            state.counters.ce_backward_calls += len(rows)
            state.counters.ce_reencode_calls += len(rows)
            state.counters.flop_estimate += _ce_flops(state, rows)
            window.touched[rows] = False
            window.rows = []
    if closed and state.pending is not None:
        grads["ce"], state.pending = state.pending, None
    state.counters.activation_elements_peak = state.accountant.peak
    return report, grads


def train_step(batch: Batch, state: TrainerState) -> dict:
    """One training step of ``state.mode`` on one batch: ``step_gradients``,
    then each trained module's gradients clipped on their own and applied
    by its own optimizer, all timed as the "train" phase. Returns the
    step's report. An update giving a module non-finite parameters is a
    NumericalAbort naming the step and the module."""
    with state.timer.measure("train"):
        report, grads = step_gradients(batch, state)
        for module, g in grads.items():
            if state.cfg.clip_norm is not None:
                g = clip_by_global_norm(g, state.cfg.clip_norm)
            opt = state.opt_ce if module == "ce" else state.opt_cf
            p = _module(state, module)
            optimizer_apply(opt, p, g)
            if not np.isfinite(p.flat).all():
                raise NumericalAbort(f"{state.mode} step {state.t - 1}: the {module} update "
                                     "produced non-finite parameters")
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
        return state.table.embedding
    with ad.no_grad():
        return ce_encode(np.arange(len(state.item_ids)), state.tokens, state.ce)


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


def _snapshot(state: TrainerState) -> list:
    """The "ce" and "cf" modules' flat arrays. Parameter arrays are
    replaced, not mutated, so holding them keeps their values."""
    return [_module(state, m).flat for m in ("ce", "cf")]


def _restore(state: TrainerState, snap: list) -> None:
    for m, flat in zip(("ce", "cf"), snap):
        _module(state, m).bind(flat)


def train(dataset: Dataset, mode: str, cfg: TrainConfig):
    """Full run: split, epoch loop with validation-AUC early stopping,
    best-checkpoint restore, final test metrics.

    Returns (RunReport, TrainerState); the state carries the restored
    best parameters for checkpointing.
    """
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
        with state.timer.measure("eval"), _aborts(f"validation evaluation at epoch {epoch}"):
            val = evaluate(state, plan.val_users)
        history.append({
            "epoch": epoch,
            "train_loss": loss_sum / max(1, pred_sum),
            "val_auc": val["auc"],
            "ce_forward_calls": state.counters.ce_forward_calls,
            "wall_ns": state.timer.totals_ns.get("train", 0),
        })
        if val["auc"] > best_auc:
            best_auc, best_epoch, bad_epochs = val["auc"], epoch, 0
            best_params = _snapshot(state)
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience > 0:
                break
    # a window still holding a gradient sum or items was never applied
    open_window = state.pending is not None or (state.window is not None and state.window.rows)
    unapplied = state.t % state.accum_steps if open_window else 0
    _restore(state, best_params)

    with state.timer.measure("eval"), _aborts(f"test evaluation at best epoch {best_epoch}"):
        final = evaluate(state, plan.test_users, cs_items=plan.cs_items)
    final["val_auc"] = best_auc
    c = state.counters
    c.wall_clock_ns = state.timer.totals_ns.get("train", 0)
    report = RunReport(
        mode=mode,
        # the settings as given, plus the mode and the resolved window
        config={"mode": mode, **asdict(cfg), "accum_steps": plan.accum_steps},
        history=history,
        final_metrics=final,
        counters=c.as_dict(),
        speed={"phase_wall_ns": dict(state.timer.totals_ns)},
        best_epoch=best_epoch,
        unapplied_window_steps=unapplied,
    )
    return report, state


# ---------------------------------------------------------------------------
# Equivalence verification
# ---------------------------------------------------------------------------


def max_rel_err(a: dict, b: dict) -> float:
    """Worst per-tensor relative gap ``autodiff._rel_err``:
    |a-b|_inf / (|a|_inf + |b|_inf + 1e-12)."""
    if set(a) != set(b):
        raise ValueError(f"mismatched tensor sets: {sorted(set(a) ^ set(b))}")
    return max([0.0] + [ad._rel_err(np.asarray(a[k]), np.asarray(b[k])) for k in a])


def _run_steps(dataset: Dataset, mode: str, cfg: TrainConfig, k_steps: int,
               steps_per_epoch: int) -> dict:
    """k training steps over cycling epochs of all of ``dataset``'s users,
    ``steps_per_epoch`` steps each, windowed at ``cfg.latency``; returns the
    parameters by name."""
    state = init_trainer(dataset, mode, cfg, steps_per_epoch=steps_per_epoch)
    batches = itertools.chain.from_iterable(
        epoch_batches(dataset.users, cfg, epoch) for epoch in itertools.count())
    for batch in itertools.islice(batches, k_steps):
        train_step(batch, state)
    return {k: t.data for k, t in named_params(state.ce, state.cf).items()}


def verify_equivalence(dataset: Dataset, cfg: TrainConfig, n_trials: int = 10,
                       k_steps: int = 50) -> dict:
    """Measure how closely ``gram`` matches end-to-end backprop at the same
    update latency on this dataset/config.

    Per trial: fresh parameters, held by an ``e2e`` and a ``gram`` trainer
    at ``cfg.latency``, a window of ``window_steps``, and the
    ``step_gradients`` of both over one window of batches, compared per
    tensor: the "cf" gradients of every step and the "ce" gradients the
    close hands out. Then two k-step trajectory comparisons at
    ``cfg.latency``, one with plain SGD on both modules and one with
    Adam. The errors are worst-case relative; exact arithmetic would give
    zeros. Users of fewer than 2 interactions are left out, as training's
    split leaves them out. No user left, a user longer than
    ``max_interactions`` (named) and a window longer than ``k_steps``,
    which would leave both encoders at their init, are each a ConfigError
    raised before any trial.
    """
    if cfg.precision != "f64":
        raise ConfigError("equivalence verification requires f64 precision")
    if n_trials < 1 or k_steps < 1:
        raise ConfigError(f"equivalence verification needs >= 1 trial and >= 1 trajectory step, "
                          f"got {n_trials} trials and {k_steps} steps")
    # a batch of users of fewer than 2 interactions has no slot to predict
    dataset = replace(dataset, users=[u for u in dataset.users if len(u) >= 2])
    if not dataset.users:
        raise ConfigError("equivalence verification needs users of >= 2 interactions to batch; "
                          "the dataset has none")
    _require_readable("dataset", dataset.users, cfg)
    steps_per_epoch = math.ceil(len(dataset.users) / cfg.cf_batch_size)
    window = accumulation_latency(cfg.latency, steps_per_epoch)
    if window > k_steps:
        raise ConfigError(f"latency {cfg.latency} is a window of {window} steps, "
                          f"longer than the {k_steps}-step trajectories")
    worst = {"ce": 0.0, "cf": 0.0}
    for trial in range(n_trials):
        init_seed = int(np.random.SeedSequence([cfg.seed, trial]).generate_state(1)[0])
        ce, cf = init_params(cfg.model, init_seed)
        states = [init_trainer(dataset, mode, cfg, steps_per_epoch) for mode in ("e2e", "gram")]
        for state in states:
            state.ce, state.cf = ce, cf
        batches = itertools.chain.from_iterable(
            batch_iter(dataset.users, cfg.cf_batch_size, shuffle_seed=[init_seed, 1 + e])
            for e in itertools.count())
        for batch in itertools.islice(batches, window):
            ref, alt = (step_gradients(batch, state)[1] for state in states)
            for module in ref:      # "cf" every step, "ce" at the window's close
                p = ce if module == "ce" else cf
                worst[module] = max(worst[module],
                                    max_rel_err(p.views(ref[module]), p.views(alt[module])))
    out = {"n_trials": n_trials, "max_ce_grad_rel_err": worst["ce"],
           "max_cf_grad_rel_err": worst["cf"], "max_param_grad_rel_err": max(worst.values())}
    for kind, lr in (("sgd", VERIFY_SGD_LR), ("adam", VERIFY_ADAM_LR)):
        opt = OptimizerConfig(kind=kind, lr=lr, schedule="constant")
        tcfg = replace(cfg, opt_ce=opt, opt_cf=opt)
        ref = _run_steps(dataset, "e2e", tcfg, k_steps, steps_per_epoch)
        alt = _run_steps(dataset, "gram", tcfg, k_steps, steps_per_epoch)
        out[f"max_trajectory_rel_err_{kind}"] = max_rel_err(ref, alt)
    out["k_steps"] = k_steps
    out["window_steps"] = window
    out["max_trajectory_rel_err"] = max(out["max_trajectory_rel_err_sgd"],
                                        out["max_trajectory_rel_err_adam"])
    return out
