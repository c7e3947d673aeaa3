"""Per-user reference collaborative filter: the oracle for ``gram.model``.

Each user's history runs as its own graph, one interaction at a time: the
recurrent CF as one cell update per interaction, the attention CF as one
attention graph per prefix, in which position i attends over positions
0..i only. The library's batched paths (``batch_logits``,
``batch_sequence_loss``, ``batch_scores``) must agree with these to
float64 roundoff; only the order of additions differs.
``prefix_attention_loop`` is the oracle for the fused attention op
itself: one causal attention per prefix length. ``softmax`` and
``softmax_backward`` are the oracles' own, in plain numpy, so no oracle
runs the softmax code of the op it checks.
"""

import numpy as np

from gram import autodiff as ad
from gram.autodiff import Tensor
from gram.model import AttentionCfParams, CfParams, RecurrentCfParams


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along *axis*, stabilised by the maximum along it."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the input of a last-axis softmax whose output is *out*,
    from the output gradient *g*."""
    return out * (g - (g * out).sum(axis=-1, keepdims=True))


def _check_response(r) -> int:
    if r not in (0, 1):
        raise ValueError(f"response must be 0 or 1, got {r!r}")
    return int(r)


def _interactions_of(user):
    """(item, response) pairs of a raw list, or zipped from a
    ``UserSequence``'s ``items`` and ``resps`` arrays."""
    inter = zip(user.items.tolist(), user.resps.tolist()) if hasattr(user, "items") else user
    return [(item, _check_response(resp)) for item, resp in inter]


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


def _attend_pool(xs: list[Tensor], p: AttentionCfParams) -> Tensor:
    """Causally self-attend over history rows, position i over rows 0..i
    only, and pool to a (1, d) user vector."""
    x = ad.concat(xs, axis=0) if len(xs) > 1 else xs[0]
    q = ad.matmul(x, p.wq)
    k = ad.matmul(x, p.wk)
    v = ad.matmul(x, p.wv)
    ctxs = []
    for i in range(len(xs)):
        seen = list(range(i + 1))
        scores = ad.scale(ad.matmul(ad.gather(q, [i]), ad.transpose(ad.gather(k, seen))),
                          1.0 / np.sqrt(p.cfg.d_h))
        ctxs.append(ad.matmul(ad.softmax(scores, axis=-1), ad.gather(v, seen)))
    ctx = ad.concat(ctxs, axis=0) if len(ctxs) > 1 else ctxs[0]
    w = ad.softmax(ad.matmul(ad.tanh(ad.matmul(ctx, p.w_pool)), p.v_pool), axis=0)
    return ad.matmul(ad.transpose(w), ctx)


def cf_logit(history, candidate: Tensor, p) -> Tensor:
    """Pre-sigmoid score of *candidate* after the given history; scalar."""
    if p.cfg.cf_variant == "recurrent":
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
    return ad.sigmoid(cf_logit(hist, candidate, p))


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
    if p.cfg.cf_variant == "recurrent":
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

    stacked = ad.stack(logits)
    labels = Tensor(np.array([float(r) for _, r in inter[1:]], dtype=stacked.dtype))
    return ad.bce_loss(stacked, labels)


def prefix_attention_loop(x, rows, w_pool, v_pool, lengths, g):
    """``autodiff.prefix_attention`` in numpy with one attention per prefix
    length: prefix n computes its own (B_n, n, n) scores, masks the keys
    after each query and takes the softmax, pooling and their gradients
    over its n positions alone. Returns the op's output on table *x* and
    the gradients of sum(output * g) with respect to x, w_pool and
    v_pool."""
    d, dh = w_pool.shape
    idx = np.asarray(rows)
    slot_rows, live, counts, ats, _ = ad._slots("prefix_attention_loop", idx.size, lengths)
    pad_rows, live = idx[slot_rows.T], live.T
    scale_qk = dh ** -0.5
    qs, kp, vpad = x[pad_rows, :dh] * scale_qk, x[pad_rows, dh:2 * dh], x[pad_rows, 2 * dh:]

    def attend(n, b):
        qn, kn, vn = qs[:b, :n], kp[:b, :n], vpad[:b, :n]
        a = softmax(np.where(np.tri(n, dtype=bool), qn @ kn.transpose(0, 2, 1), -np.inf))
        ctx = a @ vn
        t = np.tanh(ctx.reshape(b * n, d) @ w_pool)
        return qn, kn, vn, a, ctx, t, softmax((t @ v_pool).reshape(b, 1, n))

    out = np.empty((ats[-1], d), dtype=x.dtype)
    for n, (at, b) in enumerate(zip(ats, counts), 1):
        *_, ctx, _, w = attend(n, b)
        out[at:at + b] = (w @ ctx).reshape(b, d)
    dqs, dkp, dvpad = np.zeros_like(qs), np.zeros_like(kp), np.zeros_like(vpad)
    dwp, dvp = np.zeros_like(w_pool), np.zeros_like(v_pool)
    for n, (at, b) in enumerate(zip(ats, counts), 1):
        qn, kn, vn, a, ctx, t, w = attend(n, b)
        gu = g[at:at + b].reshape(b, 1, d)
        dctx = w.transpose(0, 2, 1) @ gu
        dpre = softmax_backward(w, gu @ ctx.transpose(0, 2, 1)).reshape(b * n, 1)
        dvp += t.T @ dpre
        dht = (dpre @ v_pool.T) * (1.0 - t * t)
        dwp += ctx.reshape(b * n, d).T @ dht
        dctx += (dht @ w_pool.T).reshape(b, n, d)
        ds = softmax_backward(a, dctx @ vn.transpose(0, 2, 1))
        dqs[:b, :n] += ds @ kn
        dkp[:b, :n] += ds.transpose(0, 2, 1) @ qn
        dvpad[:b, :n] += a.transpose(0, 2, 1) @ dctx
    dx = np.zeros_like(x)
    np.add.at(dx, pad_rows[live], np.concatenate(
        ((dqs * scale_qk)[live], dkp[live], dvpad[live]), axis=1))
    return out, dx, dwp, dvp
