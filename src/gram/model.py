"""Toy content-encoder / collaborative-filter architectures.

Two modules cooperate:

* the content encoder (CE) maps an item's token sequence to a length-d
  encoding: embedding lookup -> ``l_ce`` blocks of residual single-head
  self-attention plus a residual two-layer feed-forward -> mean pooling
  over the token axis -> output projection;
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
per-position binary cross-entropy terms.

``batch_sequence_loss`` is the hot path: it advances every user of a batch
through time in lockstep on (n_users x dim) matrices, freezing finished
users with constant 0/1 masks and selecting the valid prediction slots by
gather, so padded slots get exactly zero gradient. ``sequence_loss`` is
the plain per-user reference; the two agree to float64 roundoff (addition
order differs) and a test pins that.

All weight matrices are initialized uniform(-a, a), a = sqrt(6 / (fan_in +
fan_out)); bias vectors start at zero.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

CHECKPOINT_FORMAT = "gram-checkpoint-v1"

CF_VARIANTS = ("recurrent", "attention")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture dimensions shared by CE and CF.

    Desk-scale defaults keep finite-difference checks cheap.
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

    def validate(self) -> "ModelConfig":
        if min(self.d, self.d_ff, self.l_ce, self.d_h, self.vocab_size,
               self.max_token_len, self.max_interactions) < 1:
            raise ValueError("all model dimensions must be positive")
        if self.cf_variant not in CF_VARIANTS:
            raise ValueError(f"unknown cf_variant {self.cf_variant!r}")
        return self


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> Tensor:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-a, a, size=shape).astype(ad.default_dtype()), grad_enabled=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=ad.default_dtype()), grad_enabled=True)


@dataclass
class CeLayer:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    w_ff1: Tensor
    w_ff2: Tensor


@dataclass
class CeParams:
    cfg: ModelConfig
    token_embedding: Tensor
    layers: list[CeLayer]
    w_out: Tensor

    def named(self) -> dict[str, Tensor]:
        out = {"token_embedding": self.token_embedding}
        for i, lay in enumerate(self.layers):
            for nm in ("wq", "wk", "wv", "wo", "w_ff1", "w_ff2"):
                out[f"layer{i}.{nm}"] = getattr(lay, nm)
        out["w_out"] = self.w_out
        return out

    def param_count(self) -> int:
        return sum(t.size for t in self.named().values())


@dataclass
class RecurrentCfParams:
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
    variant: str = field(default="recurrent", init=False)

    def named(self) -> dict[str, Tensor]:
        return {
            "resp_embedding": self.resp_embedding,
            "w_ih": self.w_ih,
            "w_hh": self.w_hh,
            "b_ih": self.b_ih,
            "b_hh": self.b_hh,
            "w_readout": self.w_readout,
        }

    def param_count(self) -> int:
        return sum(t.size for t in self.named().values())


@dataclass
class AttentionCfParams:
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
    variant: str = field(default="attention", init=False)

    def named(self) -> dict[str, Tensor]:
        return {
            "resp_embedding": self.resp_embedding,
            "wq": self.wq,
            "wk": self.wk,
            "wv": self.wv,
            "w_pool": self.w_pool,
            "v_pool": self.v_pool,
            "bias": self.bias,
        }

    def param_count(self) -> int:
        return sum(t.size for t in self.named().values())


CfParams = RecurrentCfParams | AttentionCfParams


def ce_param_count(cfg: ModelConfig) -> int:
    """Closed-form CE parameter count from the config dims."""
    d, dff = cfg.d, cfg.d_ff
    per_layer = 4 * d * d + d * dff + dff * d
    return cfg.vocab_size * d + cfg.l_ce * per_layer + d * d


def cf_param_count(cfg: ModelConfig) -> int:
    """Closed-form CF parameter count for the configured variant."""
    d, dh = cfg.d, cfg.d_h
    if cfg.cf_variant == "recurrent":
        return 2 * d + (2 * d) * 3 * dh + dh * 3 * dh + 3 * dh + 3 * dh + d * dh
    return 2 * d + 2 * ((2 * d) * dh) + (2 * d) * d + d * dh + dh + 1


def init_params(cfg: ModelConfig, seed: int) -> tuple[CeParams, CfParams]:
    """Fresh parameters, uniform(-a, a) per matrix with Xavier bound a,
    biases zero. Matrix draw order is fixed, so a seed pins every value."""
    cfg.validate()
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


def ce_encode(tokens, p: CeParams) -> Tensor:
    """Encode one item's token-id sequence to a (1, d) representation.

    Inputs longer than ``max_token_len`` are truncated; an empty sequence
    is an error.
    """
    toks = list(tokens)
    if not toks:
        raise ValueError("ce_encode: empty token sequence")
    toks = toks[: p.cfg.max_token_len]

    x = ad.gather(p.token_embedding, toks)
    if p.cfg.positional_encoding:
        pe = Tensor(positional_table(len(toks), p.cfg.d, x.dtype))
        x = ad.add(x, pe)
    inv_sqrt_d = 1.0 / np.sqrt(p.cfg.d)
    for lay in p.layers:
        q = ad.matmul(x, lay.wq)
        k = ad.matmul(x, lay.wk)
        v = ad.matmul(x, lay.wv)
        scores = ad.scale(ad.matmul(q, ad.transpose(k)), inv_sqrt_d)
        attended = ad.matmul(ad.softmax(scores, axis=-1), v)
        x = ad.add(x, ad.matmul(attended, lay.wo))
        ff = ad.matmul(ad.relu(ad.matmul(x, lay.w_ff1)), lay.w_ff2)
        x = ad.add(x, ff)
    pooled = ad.reshape(ad.mean_pool(x, axis=0), (1, p.cfg.d))
    return ad.matmul(pooled, p.w_out)


# ---------------------------------------------------------------------------
# Collaborative filter, per-user reference paths
# ---------------------------------------------------------------------------


def _check_response(r) -> int:
    if r not in (0, 1):
        raise ValueError(f"response must be 0 or 1, got {r!r}")
    return int(r)


def _interaction_input(enc: Tensor, resp: int, p) -> Tensor:
    """(1, 2d) row: encoding concatenated with the response embedding."""
    remb = ad.gather(p.resp_embedding, [_check_response(resp)])
    return ad.concat([enc, remb], axis=1)


def _gru_step(h: Tensor, x: Tensor, p: RecurrentCfParams) -> Tensor:
    """One cell update; h and the return value are (1, d_h)."""
    dh = p.cfg.d_h
    xg = ad.reshape(ad.add(ad.matmul(x, p.w_ih), p.b_ih), (3, dh))
    hg = ad.reshape(ad.add(ad.matmul(h, p.w_hh), p.b_hh), (3, dh))
    r = ad.sigmoid(ad.add(ad.gather(xg, [0]), ad.gather(hg, [0])))
    z = ad.sigmoid(ad.add(ad.gather(xg, [1]), ad.gather(hg, [1])))
    n = ad.tanh(ad.add(ad.gather(xg, [2]), ad.mul(r, ad.gather(hg, [2]))))
    # h' = (1 - z) * n + z * h, written as n + z * (h - n)
    return ad.add(n, ad.mul(z, ad.sub(h, n)))


def _row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise dot product of two (m, k) tensors -> (m,)."""
    k = a.shape[1]
    return ad.scale(ad.mean_pool(ad.mul(a, b), axis=1), float(k))


def _attend_pool(xs: list[Tensor], p: AttentionCfParams) -> Tensor:
    """Self-attend over history rows and pool to a (1, d) user vector."""
    x = ad.concat(xs, axis=0) if len(xs) > 1 else xs[0]
    q = ad.matmul(x, p.wq)
    k = ad.matmul(x, p.wk)
    v = ad.matmul(x, p.wv)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(p.cfg.d_h))
    ctx = ad.matmul(ad.softmax(scores, axis=-1), v)
    w = ad.softmax(ad.matmul(ad.tanh(ad.matmul(ctx, p.w_pool)), p.v_pool), axis=0)
    return ad.matmul(ad.transpose(w), ctx)


def _cf_logit(history, candidate: Tensor, p) -> Tensor:
    """Pre-sigmoid score of *candidate* after the given history; scalar."""
    if p.variant == "recurrent":
        h = Tensor(np.zeros((1, p.cfg.d_h), dtype=candidate.dtype))
        for enc, resp in history:
            h = _gru_step(h, _interaction_input(enc, resp, p), p)
        return ad.sum_all(ad.mul(h, ad.matmul(candidate, p.w_readout)))
    if not history:
        return ad.scale(p.bias, 1.0)  # pooled user vector of an empty history is 0
    xs = [_interaction_input(enc, resp, p) for enc, resp in history]
    u = _attend_pool(xs, p)
    return ad.add(ad.sum_all(ad.mul(u, candidate)), p.bias)


def cf_predict(history, candidate: Tensor, p: CfParams) -> Tensor:
    """Probability that the user responds 1 to *candidate* given the
    (encoding, response) history. Output is strictly inside (0, 1)."""
    hist = list(history)
    if len(hist) > p.cfg.max_interactions:
        raise ValueError(
            f"history length {len(hist)} exceeds max_interactions {p.cfg.max_interactions}")
    return ad.sigmoid(_cf_logit(hist, candidate, p))


def _interactions_of(user):
    inter = getattr(user, "interactions", user)
    return [(item, _check_response(resp)) for item, resp in inter]


def sequence_loss(user, encodings, p: CfParams) -> Tensor:
    """Next-response prediction loss for one user: sum over positions
    n >= 1 of BCE(predict(prefix 0..n-1, candidate e_n), r_n).

    ``encodings`` maps item_id -> (1, d) tensor; gradients flow into those
    tensors (and through them into whatever produced them), accumulating
    one contribution per occurrence.
    """
    inter = _interactions_of(user)
    if len(inter) < 2:
        raise ValueError("sequence_loss: need at least 2 interactions")
    for item, _ in inter:
        if item not in encodings:
            raise KeyError(f"sequence_loss: no encoding for item {item}")

    logits = []
    if p.variant == "recurrent":
        h = Tensor(np.zeros((1, p.cfg.d_h), dtype=encodings[inter[0][0]].dtype))
        for n, (item, resp) in enumerate(inter):
            if n >= 1:
                cand = ad.matmul(encodings[item], p.w_readout)
                logits.append(ad.sum_all(ad.mul(h, cand)))
            h = _gru_step(h, _interaction_input(encodings[item], resp, p), p)
    else:
        xs = []
        for n, (item, resp) in enumerate(inter):
            if n >= 1:
                u = _attend_pool(xs, p)
                logits.append(ad.add(ad.sum_all(ad.mul(u, encodings[item])), p.bias))
            xs.append(_interaction_input(encodings[item], resp, p))

    probs = ad.sigmoid(ad.stack(logits))
    labels = Tensor(np.array([float(r) for _, r in inter[1:]], dtype=probs.dtype))
    return ad.bce_loss(probs, labels, reduction="sum")


# ---------------------------------------------------------------------------
# Batched lockstep paths (hot loop for training and evaluation)
# ---------------------------------------------------------------------------


def _batch_layout(users):
    """Shared index layout for the lockstep paths.

    Returns (interactions per user, lengths, max length, and the flat slot
    ids / labels / item ids of every valid prediction). Slot (n, u) of the
    step-major score concat has flat index (n-1) * n_users + u.
    """
    inters = [_interactions_of(u) for u in users]
    lengths = np.array([len(it) for it in inters], dtype=np.intp)
    if lengths.size == 0 or int(lengths.max(initial=0)) < 2:
        raise ValueError("batch requires at least one user with >= 2 interactions")
    b = len(inters)
    t_max = int(lengths.max())
    valid_slots, labels, item_ids, user_idx = [], [], [], []
    for n in range(1, t_max):
        for u, it in enumerate(inters):
            if n < lengths[u]:
                valid_slots.append((n - 1) * b + u)
                labels.append(float(it[n][1]))
                item_ids.append(it[n][0])
                user_idx.append(u)
    return inters, lengths, t_max, (np.array(valid_slots, dtype=np.intp),
                                    np.array(labels), np.array(item_ids), np.array(user_idx, dtype=np.intp))


def _recurrent_batch_logits(inters, lengths, t_max, row_of, enc: Tensor, p: RecurrentCfParams) -> Tensor:
    """Step-major logits for all (step, user) slots, shape (b*(t_max-1), 1).

    Finished users are frozen by 0/1 masks; their slots are later dropped
    by gather, so they receive exactly zero gradient.
    """
    b = len(inters)
    dh = p.cfg.d_h
    dt = enc.dtype
    # item row / response per (user, step); step >= length repeats row 0,
    # which is harmless because masked updates discard it
    item_rows = np.zeros((t_max, b), dtype=np.intp)
    resps = np.zeros((t_max, b), dtype=np.intp)
    for u, it in enumerate(inters):
        for n, (item, resp) in enumerate(it):
            item_rows[n, u] = row_of[item]
            resps[n, u] = resp

    readout = ad.matmul(enc, p.w_readout)       # per unique item, reused
    gate_rows = [np.arange(b, dtype=np.intp) * 3 + k for k in range(3)]
    h = Tensor(np.zeros((b, dh), dtype=dt))
    step_logits = []
    for n in range(t_max):
        if n >= 1:
            cand = ad.gather(readout, item_rows[n])
            step_logits.append(_row_dot(h, cand))
        x = ad.concat([ad.gather(enc, item_rows[n]),
                       ad.gather(p.resp_embedding, resps[n])], axis=1)
        xg = ad.reshape(ad.add(ad.matmul(x, p.w_ih), p.b_ih), (3 * b, dh))
        hg = ad.reshape(ad.add(ad.matmul(h, p.w_hh), p.b_hh), (3 * b, dh))
        r = ad.sigmoid(ad.add(ad.gather(xg, gate_rows[0]), ad.gather(hg, gate_rows[0])))
        z = ad.sigmoid(ad.add(ad.gather(xg, gate_rows[1]), ad.gather(hg, gate_rows[1])))
        cnd = ad.tanh(ad.add(ad.gather(xg, gate_rows[2]), ad.mul(r, ad.gather(hg, gate_rows[2]))))
        h_new = ad.add(cnd, ad.mul(z, ad.sub(h, cnd)))
        active = lengths > n
        if active.all():
            h = h_new
        else:
            m = Tensor(np.repeat(active.astype(dt)[:, None], dh, axis=1))
            im = Tensor(np.repeat((~active).astype(dt)[:, None], dh, axis=1))
            h = ad.add(ad.mul(m, h_new), ad.mul(im, h))
    flat = ad.concat(step_logits, axis=0)       # ((t_max-1)*b,), step-major
    return ad.reshape(flat, (flat.shape[0], 1))


def _attention_batch_logits(inters, row_of, enc: Tensor, p: AttentionCfParams):
    """Per-user per-position logits for the attention variant, returned
    step-major to match the recurrent layout."""
    b = len(inters)
    t_max = max(len(it) for it in inters)
    slots: dict[tuple[int, int], Tensor] = {}
    for u, it in enumerate(inters):
        xs = []
        for n, (item, resp) in enumerate(it):
            e = ad.gather(enc, [row_of[item]])
            if n >= 1:
                pooled = _attend_pool(xs, p)
                slots[(n, u)] = ad.add(ad.sum_all(ad.mul(pooled, e)), p.bias)
            xs.append(ad.concat([e, ad.gather(p.resp_embedding, [resp])], axis=1))
    zero = Tensor(np.zeros((), dtype=enc.dtype))
    flat = ad.stack([slots.get((n, u), zero) for n in range(1, t_max) for u in range(b)])
    return ad.reshape(flat, (flat.shape[0], 1))


def batch_logits(users, row_of, enc: Tensor, p: CfParams):
    """Lockstep forward over a batch.

    ``row_of`` maps item_id -> row of ``enc`` (the (n_unique, d) stack of
    item encodings). Returns (valid logits as an (n, 1) tensor, labels,
    item_ids, user index arrays), one entry per predicted position.
    """
    inters, lengths, t_max, (slots, labels, item_ids, user_idx) = _batch_layout(users)
    if p.variant == "recurrent":
        all_logits = _recurrent_batch_logits(inters, lengths, t_max, row_of, enc, p)
    else:
        all_logits = _attention_batch_logits(inters, row_of, enc, p)
    picked = ad.gather(all_logits, slots)
    return picked, labels, item_ids, user_idx


def batch_sequence_loss(users, row_of, enc: Tensor, p: CfParams):
    """Sum of all users' sequence losses, computed in lockstep.

    Returns (loss tensor, number of predicted positions).
    """
    logits, labels, _, _ = batch_logits(users, row_of, enc, p)
    y = Tensor(labels.reshape(-1, 1).astype(enc.dtype))
    loss = ad.bce_loss(ad.sigmoid(logits), y, reduction="sum")
    return loss, labels.size


def batch_scores(users, row_of, enc: Tensor, p: CfParams):
    """Evaluation scores: (probabilities, labels, item_ids, user_idx) as
    plain arrays, one entry per predicted position. Run under no_grad."""
    with ad.no_grad():
        logits, labels, item_ids, user_idx = batch_logits(users, row_of, enc, p)
        probs = ad.sigmoid(logits).data[:, 0]
    return probs, labels, item_ids, user_idx


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, ce: CeParams, cf: CfParams) -> None:
    """Write both modules' parameters, the format tag and the model config
    as a ``.npz`` archive at exactly ``path`` (no suffix is added)."""
    arrays = {f"ce.{k}": v.data for k, v in ce.named().items()}
    arrays.update({f"cf.{k}": v.data for k, v in cf.named().items()})
    with open(path, "wb") as f:
        np.savez(f, format=np.array(CHECKPOINT_FORMAT),
                 config=np.array(json.dumps(asdict(ce.cfg))), **arrays)


def load_checkpoint(path) -> tuple[CeParams, CfParams]:
    """Rebuild (CeParams, CfParams) from a checkpoint file."""
    with np.load(path, allow_pickle=False) as blob:
        fmt = str(blob["format"]) if "format" in blob.files else None
        if fmt != CHECKPOINT_FORMAT:
            raise ValueError(f"unrecognized checkpoint format {fmt!r}")
        cfg = ModelConfig(**json.loads(str(blob["config"]))).validate()
        ce, cf = init_params(cfg, seed=0)
        for prefix, params in (("ce.", ce), ("cf.", cf)):
            named = params.named()
            if {prefix + k for k in named} != {k for k in blob.files if k.startswith(prefix)}:
                raise ValueError("checkpoint parameter names do not match config")
            for name, t in named.items():
                arr = blob[prefix + name].astype(ad.default_dtype())
                if arr.shape != t.data.shape:
                    raise ValueError(f"checkpoint shape mismatch for {name}")
                t.data[...] = arr
    return ce, cf
