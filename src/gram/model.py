"""Toy content-encoder / collaborative-filter architectures.

Two modules cooperate:

* the content encoder (CE) maps an item's token sequence to a length-d
  encoding: embedding lookup -> ``l_ce`` blocks of residual single-head
  self-attention plus a residual two-layer feed-forward -> mean pooling
  over the token axis -> output projection. ``ce_encode`` takes rows of
  a ``TokenTable`` and encodes each in one graph of about six nodes,
  whatever mix of token lengths the call holds: each block is one fused
  ``autodiff.ce_block`` node over the ragged token rows of every item,
  whose projections and feed-forward are 2-D matmuls over all rows and
  whose attention loops over length groups in numpy, with no padding or
  mask, and the pooling is one ``autodiff.segment_mean``. For its
  backward a block keeps only its input and the attention probabilities
  and recomputes the rest. The per-op
  encoder it replaced lives in ``tests/reference_ce.py`` as its oracle;
* the collaborative filter (CF) maps a user's interaction history plus a
  candidate encoding to a response probability. Two variants:

  - ``recurrent``: a gated recurrent cell consumes (encoding (+) response
    embedding) inputs; the score for a candidate is
    sigmoid(hidden . readout(candidate)).
  - ``attention``: causal single-head self-attention over the history's
    interaction vectors (position i attends to positions 0..i), additive
    pooling to a user vector u, score sigmoid(u . candidate + b).

Sequence losses do next-response prediction: position n >= 1 is predicted
from interactions 0..n-1 only (no leakage), and the loss is the sum of the
per-position binary cross-entropy terms, computed by ``autodiff.bce_loss``
from the logits, so a training graph has no sigmoid node. Only evaluation
applies the sigmoid, to report probabilities.

``batch_sequence_loss`` is the hot path. It takes a ``dataset.Batch``,
whose arrays number the interactions user by user, and reads encodings
by row index: ``batch_sequence_loss(batch, rows, enc, p)`` finds
interaction k's encoding at ``enc[rows[k]]``. Joint backprop passes one
row per interaction (``rows = arange(n)``); the other modes pass one row
per item, the batch's in ``gram`` and the item table's in the
baselines, so every occurrence of an item reads the same row.

Both variants build a batch the same way. Each distinct (encoding row,
response) pair gets one (encoding (+) response) row, and one fused op
takes those pair rows with its input weights, ``w_ih`` and ``b_ih`` or
the q/k/v weights, projects each pair once and keeps only the pair rows,
rebuilding the projection in backward. An interaction reads its pair's
projected row through an index, so the gradients of a pair's repeats add
up in that index's scatter, as the cached modes add up an item's
gradients in its encoding row. In the cached modes a batch holds far
fewer pairs than interactions (about 72 for 249 on the benchmark's
datasets), so the kept rows follow the pairs; in joint backprop every
pair is distinct. The fused op runs the users' ragged sequences, and one
``autodiff.row_dot`` scores every predicted slot against its candidate,
so a loss graph has 8 nodes (recurrent) or 7 (attention) in every mode
and for any sequence length. Step n of a fused op reads interactions
0..n of each user longer than n + 1 and predicts interaction n + 1, the
users run longest first so each step's users are a leading slice, and
the op returns one row per predicted slot in the order it computes them.

* The recurrent CF's ``autodiff.gru_scan(x, pair_of, w_ih, b_ih, w_hh,
  b_hh, lengths)`` projects the pair rows to gate preactivations and runs
  the h-side of the cell with a hand-written backprop through time; for
  its backward it keeps only the pair rows and its states, one row per
  slot, and the backward rebuilds the projection and every slot's gates
  from them in one pass. The readout projects each distinct candidate row
  once by ``w_readout``, and ``row_dot`` keeps the states and that
  projection.
* The attention CF's ``autodiff.prefix_attention(x, pair_of, wq, wk, wv,
  w_pool, v_pool, lengths)`` projects the pair rows with the three
  weights side by side. Its attention is causal, so a position's context
  does not depend on the prefix that holds it, and it runs every prefix
  at once on the users' padded (B, T) layout: one masked (B, T, T)
  softmax gives every context, and a second gives every prefix's pooling
  weights, one row per prefix. It keeps only the pair rows and recomputes
  the projection and the forward in backward, so neither the node count
  nor the saved activations grow with the number of prefixes. ``row_dot``
  reads the candidates straight from ``enc`` and keeps the pooled user
  vectors and ``enc``.

A user's last interaction and a 1-interaction user's row feed no step,
so they get exactly zero gradient through the CF's history side. The
per-user reference CF lives in ``tests/reference_cf.py``; the batched
paths agree with it to float64 roundoff (addition order differs) and
tests pin that.

All weight matrices are initialized uniform(-a, a), a = sqrt(6 / (fan_in +
fan_out)); bias vectors start at zero.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .dataset import Batch

CHECKPOINT_FORMAT = "gram-checkpoint-v1"

CF_VARIANTS = ("recurrent", "attention")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture dimensions shared by CE and CF.

    Desk-scale defaults keep finite-difference checks cheap. The config
    checks itself when built (``dataclasses.replace`` included): a value
    out of range raises ValueError naming it.
    """

    d: int = 16            # content embedding dimension
    d_ff: int = 32         # CE feed-forward width
    l_ce: int = 1          # CE layer count
    d_h: int = 16          # CF hidden / attention width
    vocab_size: int = 200
    max_token_len: int = 32
    max_interactions: int = 64
    cf_variant: str = "recurrent"
    positional_encoding: bool = False

    def __post_init__(self):
        for name in ("d", "d_ff", "l_ce", "d_h", "vocab_size", "max_token_len",
                     "max_interactions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.cf_variant not in CF_VARIANTS:
            raise ValueError(f"unknown cf_variant {self.cf_variant!r}")


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> Tensor:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-a, a, size=shape), grad_enabled=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), grad_enabled=True)


class _Params:
    """A module's parameters as one 1-D float array ``flat``, each tensor's
    data a view into it in ``named()`` order. The optimizer, clipping, the
    window's gradient sum and snapshots each work on ``flat``; an update
    ``bind``s a new array, never writing into the old one, so the arrays a
    graph captured keep their values."""

    def __post_init__(self):
        self._names, self.tensors = zip(*self.named().items())
        self._ends = np.cumsum([t.size for t in self.tensors]).tolist()
        self.bind(np.concatenate([t.data.ravel() for t in self.tensors]))

    def named(self) -> dict[str, Tensor]:
        """The tensors by checkpoint name, in field order; a list of layers
        (plain dataclasses) gives each layer's as ``layer<i>.<name>``."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out[f.name] = value
            elif isinstance(value, list):
                for i, layer in enumerate(value):
                    out.update({f"layer{i}.{k}": t for k, t in _Params.named(layer).items()})
        return out

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """``flat``, laid out as ``self.flat``, split into named tensor shapes."""
        return {name: flat[end - t.size:end].reshape(t.shape)
                for name, t, end in zip(self._names, self.tensors, self._ends)}

    def bind(self, flat: np.ndarray) -> None:
        """Make ``flat`` the parameters: each tensor's data becomes its view."""
        self.flat = flat
        for t, end in zip(self.tensors, self._ends):
            t.data = flat[end - t.size:end].reshape(t.shape)

    def __deepcopy__(self, memo):
        """A copy whose tensors view the copy's own ``flat``."""
        new = object.__new__(type(self))
        new.__dict__.update(copy.deepcopy(self.__dict__, memo))
        new.bind(new.flat)
        return new


@dataclass
class CeLayer:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    w_ff1: Tensor
    w_ff2: Tensor


@dataclass
class CeParams(_Params):
    cfg: ModelConfig
    token_embedding: Tensor
    layers: list[CeLayer]
    w_out: Tensor


@dataclass
class RecurrentCfParams(_Params):
    """Gated recurrent cell over inputs of width 2d, hidden width d_h.

    ``w_ih``/``w_hh`` hold the three gates side by side in the fixed column
    order [reset | update | candidate], each d_h wide; ``gru_scan`` slices
    gate k from columns k*d_h to (k+1)*d_h.
    """

    cfg: ModelConfig
    resp_embedding: Tensor      # (2, d)
    w_ih: Tensor                # (2d, 3*d_h)
    w_hh: Tensor                # (d_h, 3*d_h)
    b_ih: Tensor                # (3*d_h,)
    b_hh: Tensor                # (3*d_h,)
    w_readout: Tensor           # (d, d_h)


@dataclass
class AttentionCfParams(_Params):
    """Causal self-attention over history interaction vectors plus
    additive pooling; the pooled user vector scores candidates by dot
    product."""

    cfg: ModelConfig
    resp_embedding: Tensor      # (2, d)
    wq: Tensor                  # (2d, d_h)
    wk: Tensor                  # (2d, d_h)
    wv: Tensor                  # (2d, d)
    w_pool: Tensor              # (d, d_h)
    v_pool: Tensor              # (d_h, 1)
    bias: Tensor                # scalar


CfParams = RecurrentCfParams | AttentionCfParams


@dataclass
class ItemTable(_Params):
    """One row per item, read in place of the encoder's output:
    ``no_content``'s trained table, or ``no_finetune``'s frozen encodings."""

    embedding: Tensor           # (n_items, d)


def named_params(ce: CeParams | None, cf: CfParams) -> dict[str, Tensor]:
    """Both modules' parameters under their checkpoint names, ``ce.<name>``
    then ``cf.<name>``; a run without an encoder passes ``ce`` None."""
    out = {} if ce is None else {f"ce.{k}": t for k, t in ce.named().items()}
    out.update({f"cf.{k}": t for k, t in cf.named().items()})
    return out


def init_params(cfg: ModelConfig, seed: int) -> tuple[CeParams, CfParams]:
    """Fresh float64 parameters, uniform(-a, a) per matrix with Xavier
    bound a, biases zero. Matrix draw order is fixed, so a seed pins
    every value."""
    rng = np.random.default_rng(seed)
    d, dff, dh = cfg.d, cfg.d_ff, cfg.d_h

    tok = _xavier(rng, cfg.vocab_size, d, (cfg.vocab_size, d))
    layers = []
    for _ in range(cfg.l_ce):
        layers.append(CeLayer(
            wq=_xavier(rng, d, d, (d, d)),
            wk=_xavier(rng, d, d, (d, d)),
            wv=_xavier(rng, d, d, (d, d)),
            wo=_xavier(rng, d, d, (d, d)),
            w_ff1=_xavier(rng, d, dff, (d, dff)),
            w_ff2=_xavier(rng, dff, d, (dff, d)),
        ))
    ce = CeParams(cfg=cfg, token_embedding=tok, layers=layers,
                  w_out=_xavier(rng, d, d, (d, d)))

    if cfg.cf_variant == "recurrent":
        cf: CfParams = RecurrentCfParams(
            cfg=cfg,
            resp_embedding=_xavier(rng, 2, d, (2, d)),
            w_ih=_xavier(rng, 2 * d, dh, (2 * d, 3 * dh)),
            w_hh=_xavier(rng, dh, dh, (dh, 3 * dh)),
            b_ih=_zeros(3 * dh),
            b_hh=_zeros(3 * dh),
            w_readout=_xavier(rng, d, dh, (d, dh)),
        )
    else:
        cf = AttentionCfParams(
            cfg=cfg,
            resp_embedding=_xavier(rng, 2, d, (2, d)),
            wq=_xavier(rng, 2 * d, dh, (2 * d, dh)),
            wk=_xavier(rng, 2 * d, dh, (2 * d, dh)),
            wv=_xavier(rng, 2 * d, d, (2 * d, d)),
            w_pool=_xavier(rng, d, dh, (d, dh)),
            v_pool=_xavier(rng, dh, 1, (dh, 1)),
            bias=_zeros(()),
        )
    return ce, cf


# ---------------------------------------------------------------------------
# Content encoder
# ---------------------------------------------------------------------------


def positional_table(n: int, d: int, dtype) -> np.ndarray:
    """Sinusoidal position encodings, rows 0..n-1."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    i = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * (i // 2)) / d)
    pe = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return pe.astype(dtype)


class TokenTable(NamedTuple):
    """Row r's token ids are ``ids[starts[r]:starts[r] + lengths[r]]``."""

    ids: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray


def token_table(items, cfg: ModelConfig) -> tuple[np.ndarray, TokenTable]:
    """(item_ids, table): the ids of ``dataset.Item``s ``items``, sorted, and
    the table whose row k holds item ``item_ids[k]``'s first
    ``max_token_len`` tokens. Row k is how the trainer addresses that item."""
    items = sorted(items, key=lambda it: it.item_id)
    toks = [it.tokens[:cfg.max_token_len] for it in items]
    lengths = np.array([len(t) for t in toks], dtype=np.intp)
    ids = np.array([t for ts in toks for t in ts], dtype=np.intp)
    return (np.array([it.item_id for it in items], dtype=np.intp),
            TokenTable(ids, np.cumsum(lengths) - lengths, lengths))


def ce_encode(rows: np.ndarray, table: TokenTable, p: CeParams) -> Tensor:
    """Encode rows ``rows`` (an index array) of a token table to an (n, d)
    tensor: one graph over their ragged token rows, stably sorted by
    length and never padded, of an embedding gather, the positional add if
    configured, a ``ce_block`` per layer, ``segment_mean``, the output
    matmul and a gather back to input order. No rows, or a row empty or
    longer than ``max_token_len`` (a table built for another config), is
    a ValueError naming it; a token outside the vocabulary an IndexError."""
    if not len(rows):
        raise ValueError("ce_encode: no rows")
    lengths = table.lengths[rows]
    bad = (lengths < 1) | (lengths > p.cfg.max_token_len)
    if bad.any():
        raise ValueError(f"ce_encode: row {rows[np.argmax(bad)]} has {lengths[np.argmax(bad)]} "
                         f"tokens, outside 1..max_token_len {p.cfg.max_token_len}")
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    pos = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    x = ad.gather(p.token_embedding, table.ids[np.repeat(table.starts[rows[order]], lengths) + pos])
    if p.cfg.positional_encoding:
        x = ad.add(x, Tensor(positional_table(int(lengths[-1]), p.cfg.d, x.dtype)[pos]))
    for lay in p.layers:
        x = ad.ce_block(x, lay.wq, lay.wk, lay.wv, lay.wo, lay.w_ff1, lay.w_ff2, lengths)
    out = ad.matmul(ad.segment_mean(x, lengths), p.w_out)
    return ad.gather(out, np.argsort(order))   # argsort inverts the permutation


# ---------------------------------------------------------------------------
# Collaborative filter, batched paths (training and evaluation)
# ---------------------------------------------------------------------------


def batch_logits(batch: Batch, rows: np.ndarray, enc: Tensor, p: CfParams):
    """Forward over a batch.

    ``enc[rows[k]]`` encodes the batch's interaction k, numbered user by
    user as in ``Batch``. Returns (logits as an (n,) tensor, labels,
    item_ids, user index arrays), one entry per predicted position. Slots
    come in ``autodiff.slot_order``'s order, the one the fused CF ops
    compute in: position n >= 1 ascending, then users longest first, ties
    in batch order.

    Each distinct (encoding row, response) pair is one row, which the
    fused op projects once and reads through a per-interaction index, so
    the gradients of a pair's repeats add up in the index's scatter. The
    recurrent CF dots ``gru_scan``'s state for each slot with the
    candidate's readout row, projecting each distinct candidate row once;
    the attention CF dots ``prefix_attention``'s pooled user vector with
    the candidate's encoding and adds a bias.
    """
    lengths = batch.lengths
    longest = int(lengths.max(initial=0))
    if longest < 2:
        raise ValueError("batch requires at least one user with >= 2 interactions")
    if longest > p.cfg.max_interactions:
        u = int(np.argmax(lengths))
        raise ValueError(f"user {batch.users[u].user_id} has {lengths[u]} interactions, "
                         f"more than max_interactions {p.cfg.max_interactions}")
    user_idx, targets = ad.slot_order(lengths)
    pairs, pair_of = np.unique(rows * 2 + batch.resps, return_inverse=True)
    x = ad.concat([ad.gather(enc, pairs // 2), ad.gather(p.resp_embedding, pairs % 2)], axis=1)
    if p.cfg.cf_variant == "recurrent":
        h = ad.gru_scan(x, pair_of, p.w_ih, p.b_ih, p.w_hh, p.b_hh, lengths)
        cands, cand_of = np.unique(rows[targets], return_inverse=True)
        logits = ad.row_dot(h, ad.matmul(ad.gather(enc, cands), p.w_readout), cand_of)
    else:
        u = ad.prefix_attention(x, pair_of, p.wq, p.wk, p.wv, p.w_pool, p.v_pool, lengths)
        logits = ad.add(ad.row_dot(u, enc, rows[targets]), p.bias)
    labels = batch.resps[targets].astype(np.float64)
    return logits, labels, batch.items[targets], user_idx


def batch_sequence_loss(batch: Batch, rows: np.ndarray, enc: Tensor, p: CfParams):
    """Sum of all users' sequence losses, computed as one batch.

    Returns (loss tensor, number of predicted positions).
    """
    logits, labels, _, _ = batch_logits(batch, rows, enc, p)
    y = Tensor(labels.astype(enc.dtype))
    loss = ad.bce_loss(logits, y)
    return loss, labels.size


def batch_scores(batch: Batch, rows: np.ndarray, enc: Tensor, p: CfParams):
    """Evaluation scores: (probabilities, labels, item_ids, user_idx) as
    plain arrays, one entry per predicted position. Run under no_grad."""
    with ad.no_grad():
        logits, labels, item_ids, user_idx = batch_logits(batch, rows, enc, p)
    return ad._sigmoid(logits.data), labels, item_ids, user_idx


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, ce: CeParams, cf: CfParams) -> None:
    """Write both modules' parameters, the format tag and the model config
    as a ``.npz`` archive at exactly ``path`` (no suffix is added)."""
    arrays = {k: v.data for k, v in named_params(ce, cf).items()}
    with open(path, "wb") as f:
        np.savez(f, format=np.array(CHECKPOINT_FORMAT),
                 config=np.array(json.dumps(asdict(ce.cfg))), **arrays)


def load_checkpoint(path) -> tuple[CeParams, CfParams]:
    """Rebuild (CeParams, CfParams) from a checkpoint file, in the dtype of
    its arrays: all float64 or all float32, else a ValueError naming the
    first parameter that differs. Every rejection of an archive is a
    ValueError that starts with the file's path."""
    blob = np.load(path, allow_pickle=False)
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a checkpoint archive (a single array)")
    with blob:
        fmt = str(blob["format"]) if "format" in blob.files else None
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: unrecognized checkpoint format {fmt!r}")
        try:
            cfg = ModelConfig(**json.loads(str(blob["config"])))
        except (KeyError, TypeError, ValueError) as e:   # JSONDecodeError is a ValueError
            raise ValueError(f"{path}: malformed checkpoint config: {e}") from e
        ce, cf = init_params(cfg, seed=0)
        named = named_params(ce, cf)
        if set(named) != set(blob.files) - {"format", "config"}:
            raise ValueError(f"{path}: checkpoint parameter names do not match config")
        dtype = blob[next(iter(named))].dtype
        for name, t in named.items():
            arr = blob[name]
            if arr.dtype != dtype or dtype not in (np.float64, np.float32):
                raise ValueError(f"{path}: checkpoint parameter {name} is {arr.dtype}; "
                                 "expected all float64 or all float32")
            if arr.shape != t.data.shape:
                raise ValueError(f"{path}: checkpoint shape mismatch for {name}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{path}: checkpoint parameter {name} holds NaN or Inf")
            t.data = arr
    for p in (ce, cf):      # each module's arrays, copied into one flat array
        p.bind(np.concatenate([t.data.ravel() for t in p.tensors]))
    return ce, cf
