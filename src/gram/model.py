"""Toy content-encoder / collaborative-filter architectures.

Two modules cooperate:

* the content encoder (CE) maps an item's token sequence to a length-d
  encoding: embedding lookup -> ``l_ce`` blocks of residual single-head
  self-attention plus a residual two-layer feed-forward -> mean pooling
  over the token axis -> output projection. ``ce_encode`` takes a list of
  items and returns one row per item from one graph of about six nodes,
  whatever mix of token lengths the call holds: each block is one fused
  ``autodiff.ce_block`` node over the ragged token rows of every item,
  whose projections and feed-forward are 2-D matmuls over all rows and
  whose attention loops over length groups in numpy, with no padding or
  mask, and the pooling is one ``autodiff.segment_mean``. The per-op
  encoder it replaced lives in ``tests/reference_ce.py`` as its oracle;
* the collaborative filter (CF) maps a user's interaction history plus a
  candidate encoding to a response probability. Two variants:

  - ``recurrent``: a gated recurrent cell consumes (encoding (+) response
    embedding) inputs; the score for a candidate is
    sigmoid(hidden . readout(candidate)).
  - ``attention``: single-head self-attention over the history's
    interaction vectors, additive-attention pooling to a user vector u,
    score sigmoid(u . candidate + b).

Sequence losses do next-response prediction: position n >= 1 is predicted
from interactions 0..n-1 only (no leakage), and the loss is the sum of the
per-position binary cross-entropy terms, computed by ``autodiff.bce_loss``
from the logits, so a training graph has no sigmoid node. Only evaluation
applies the sigmoid, to report probabilities.

``batch_sequence_loss`` is the hot path. It takes a ``dataset.Batch``,
whose arrays number the interactions user by user, and reads encodings
by row index: ``batch_sequence_loss(batch, rows, enc, p)`` finds
interaction k's encoding at ``enc[rows[k]]``. Joint backprop passes one
row per interaction (``rows = arange(n)``); the cached and table modes
pass one row per distinct item (``rows = batch.inverse``), so every
occurrence of an item reads the same row.

Both variants build a batch the same way. Each distinct (encoding row,
response) pair gets one (encoding (+) response) row and one projection,
by ``w_ih`` or by the q/k/v weights side by side; an interaction reads
its pair's projected row through an index, so the gradients of a pair's
repeats add up in that index's scatter, as the cached modes add up an
item's gradients in its encoding row. In the cached modes a batch holds
far fewer pairs than interactions (about 72 for 249 on the benchmark's
datasets), so the kept projections follow the pairs; in joint backprop
every pair is distinct. One fused op then runs the users' ragged
sequences, and one ``autodiff.row_dot`` scores every predicted slot
against its candidate, so a loss graph has 12 nodes (recurrent) or 10
(attention) for any sequence length. Nothing is padded: step n of a
fused op reads interactions 0..n of each user longer than n + 1 and
predicts interaction n + 1, the users run longest first so each step's
users are a leading slice, and the op returns one row per predicted
slot.

* The recurrent CF gathers each interaction's projected row (joint
  backprop, where each interaction is its own pair, skips the gather and
  has 11 nodes) and feeds them to ``autodiff.gru_scan``, which runs the
  h-side of the cell with a hand-written backprop through time; for its
  backward it keeps five arrays per slot (r, z, the candidate, the
  h-side candidate preactivation and the state) and no copy of its
  input. The readout projects each distinct candidate row once by
  ``w_readout``, and ``row_dot`` keeps the states and that projection.
* The attention CF's ``autodiff.prefix_attention`` takes the table of
  projected pairs and the per-interaction index, and runs, for each
  prefix length n, a (B_n, n, n) batched attention and pooling over the
  n axis. It keeps only the table and recomputes each prefix in
  backward, so neither the node count nor the saved activations grow
  with the number of prefixes. ``row_dot`` reads the candidates straight
  from ``enc`` and keeps the pooled user vectors and ``enc``.

A user's last interaction and a 1-interaction user's row feed no step,
so they get exactly zero gradient through the CF's history side. The
per-user reference CF lives in ``tests/reference_cf.py``; the batched
paths agree with it to float64 roundoff (addition order differs) and
tests pin that.

All weight matrices are initialized uniform(-a, a), a = sqrt(6 / (fan_in +
fan_out)); bias vectors start at zero.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

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
    return Tensor(rng.uniform(-a, a, size=shape).astype(ad.default_dtype()), grad_enabled=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=ad.default_dtype()), grad_enabled=True)


class _Params:
    """A module's parameters. ``named()`` lists its tensors in field order,
    the key order of checkpoints, Adam state and the clip-norm sum; a list
    of layers gives each layer's tensors as ``layer<i>.<name>``."""

    def named(self) -> dict[str, Tensor]:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Tensor):
                out[f.name] = value
            elif isinstance(value, list):
                for i, layer in enumerate(value):
                    out.update({f"layer{i}.{k}": t for k, t in layer.named().items()})
        return out

    def param_count(self) -> int:
        return sum(t.size for t in self.named().values())


@dataclass
class CeLayer(_Params):
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
    order [reset | update | candidate], so a (1, 3*d_h) preactivation
    reshaped to (3, d_h) has gate k in row k.
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
    """Self-attention over history interaction vectors plus additive
    pooling; the pooled user vector scores candidates by dot product."""

    cfg: ModelConfig
    resp_embedding: Tensor      # (2, d)
    wq: Tensor                  # (2d, d_h)
    wk: Tensor                  # (2d, d_h)
    wv: Tensor                  # (2d, d)
    w_pool: Tensor              # (d, d_h)
    v_pool: Tensor              # (d_h, 1)
    bias: Tensor                # scalar


CfParams = RecurrentCfParams | AttentionCfParams


def named_params(ce: CeParams | None, cf: CfParams) -> dict[str, Tensor]:
    """Both modules' parameters under their checkpoint names, ``ce.<name>``
    then ``cf.<name>``; a run without an encoder passes ``ce`` None."""
    out = {} if ce is None else {f"ce.{k}": t for k, t in ce.named().items()}
    out.update({f"cf.{k}": t for k, t in cf.named().items()})
    return out


def init_params(cfg: ModelConfig, seed: int) -> tuple[CeParams, CfParams]:
    """Fresh parameters, uniform(-a, a) per matrix with Xavier bound a,
    biases zero. Matrix draw order is fixed, so a seed pins every value."""
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


def ce_encode(token_seqs, p: CeParams) -> Tensor:
    """Encode a list of items' token-id sequences to an (n, d) tensor.

    Row k encodes ``token_seqs[k]`` truncated to ``max_token_len``; a single
    item is ``ce_encode([tokens], p)``. Items are sorted by truncated
    length (stably), so items of equal length are adjacent, and the whole
    call is one graph over the ragged (total tokens, d) rows: one gather of
    token embeddings, the positional add if configured, one
    ``autodiff.ce_block`` per layer, one ``autodiff.segment_mean`` and the
    output matmul. One gather restores input order when the sort changed
    it. Nothing is padded or masked, and the node count does not depend on
    how many lengths the call mixes. An empty list or an empty sequence is
    an error; a token id outside the vocabulary raises ``IndexError``.
    """
    seqs = [list(toks)[: p.cfg.max_token_len] for toks in token_seqs]
    if not seqs:
        raise ValueError("ce_encode: no token sequences")
    for k, toks in enumerate(seqs):
        if not toks:
            raise ValueError(f"ce_encode: empty token sequence at position {k}")
    lengths = np.array([len(toks) for toks in seqs], dtype=np.intp)
    order = np.argsort(lengths, kind="stable")
    lengths = lengths[order]
    x = ad.gather(p.token_embedding, np.concatenate([seqs[k] for k in order]))
    if p.cfg.positional_encoding:
        pos = np.concatenate([np.arange(n) for n in lengths])
        x = ad.add(x, Tensor(positional_table(int(lengths[-1]), p.cfg.d, x.dtype)[pos]))
    for lay in p.layers:
        x = ad.ce_block(x, lay.wq, lay.wk, lay.wv, lay.wo, lay.w_ff1, lay.w_ff2, lengths)
    out = ad.matmul(ad.segment_mean(x, lengths), p.w_out)
    if np.array_equal(order, np.arange(len(seqs))):
        return out
    return ad.gather(out, np.argsort(order))   # argsort inverts the permutation


# ---------------------------------------------------------------------------
# Collaborative filter, batched paths (training and evaluation)
# ---------------------------------------------------------------------------


def batch_logits(batch: Batch, rows: np.ndarray, enc: Tensor, p: CfParams):
    """Forward over a batch.

    ``enc[rows[k]]`` encodes the batch's interaction k, numbered user by
    user as in ``Batch``. Returns (logits as an (n, 1) tensor, labels,
    item_ids, user index arrays), one entry per predicted position. Slots
    come step-major, position n >= 1 ascending and then user, the order
    the fused CF ops return.

    Each distinct (encoding row, response) pair is projected once, and the
    fused op reads it through a per-interaction index, so the gradients of
    a pair's repeats add up in the index's scatter. The recurrent CF dots
    ``gru_scan``'s state for each slot with the candidate's readout row,
    projecting each distinct candidate row once; the attention CF dots
    ``prefix_attention``'s pooled user vector with the candidate's
    encoding and adds a bias.
    """
    lengths = batch.lengths
    longest = int(lengths.max(initial=0))
    if longest < 2:
        raise ValueError("batch requires at least one user with >= 2 interactions")
    if longest > p.cfg.max_interactions:
        u = int(np.argmax(lengths))
        raise ValueError(f"user at batch index {u} has {lengths[u]} interactions, "
                         f"more than max_interactions {p.cfg.max_interactions}")
    step, user_idx = ad.slot_order(lengths)
    targets = np.cumsum(lengths)[user_idx] - lengths[user_idx] + step + 1
    pairs, pair_of = np.unique(rows * 2 + batch.resps, return_inverse=True)
    x = ad.concat([ad.gather(enc, pairs // 2), ad.gather(p.resp_embedding, pairs % 2)], axis=1)
    if p.cfg.cf_variant == "recurrent":
        xg = ad.add(ad.matmul(x, p.w_ih), p.b_ih)
        if not np.array_equal(pair_of, np.arange(rows.size)):  # identity in joint backprop
            xg = ad.gather(xg, pair_of)
        h = ad.gru_scan(xg, p.w_hh, p.b_hh, lengths)
        cands, cand_of = np.unique(rows[targets], return_inverse=True)
        flat = ad.row_dot(h, ad.matmul(ad.gather(enc, cands), p.w_readout), cand_of)
    else:
        qkv = ad.matmul(x, ad.concat([p.wq, p.wk, p.wv], axis=1))
        u = ad.prefix_attention(qkv, pair_of, p.w_pool, p.v_pool, lengths)
        flat = ad.add(ad.row_dot(u, enc, rows[targets]), p.bias)
    labels = batch.resps[targets].astype(np.float64)
    return ad.reshape(flat, (flat.shape[0], 1)), labels, batch.items[targets], user_idx


def batch_sequence_loss(batch: Batch, rows: np.ndarray, enc: Tensor, p: CfParams):
    """Sum of all users' sequence losses, computed as one batch.

    Returns (loss tensor, number of predicted positions).
    """
    logits, labels, _, _ = batch_logits(batch, rows, enc, p)
    y = Tensor(labels.reshape(-1, 1).astype(enc.dtype))
    loss = ad.bce_loss(logits, y)
    return loss, labels.size


def batch_scores(batch: Batch, rows: np.ndarray, enc: Tensor, p: CfParams):
    """Evaluation scores: (probabilities, labels, item_ids, user_idx) as
    plain arrays, one entry per predicted position. Run under no_grad."""
    with ad.no_grad():
        logits, labels, item_ids, user_idx = batch_logits(batch, rows, enc, p)
        probs = ad.sigmoid(logits).data[:, 0]
    return probs, labels, item_ids, user_idx


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
    """Rebuild (CeParams, CfParams) from a checkpoint file."""
    blob = np.load(path, allow_pickle=False)
    if not isinstance(blob, np.lib.npyio.NpzFile):
        raise ValueError(f"{path}: not a checkpoint archive (a single array)")
    with blob:
        fmt = str(blob["format"]) if "format" in blob.files else None
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"unrecognized checkpoint format {fmt!r}")
        cfg = ModelConfig(**json.loads(str(blob["config"])))
        ce, cf = init_params(cfg, seed=0)
        named = named_params(ce, cf)
        if set(named) != set(blob.files) - {"format", "config"}:
            raise ValueError("checkpoint parameter names do not match config")
        for name, t in named.items():
            arr = blob[name].astype(ad.default_dtype())
            if arr.shape != t.data.shape:
                raise ValueError(f"checkpoint shape mismatch for {name}")
            t.data[...] = arr
    return ce, cf
