"""Per-user reference collaborative filter: the oracle for ``gram.model``.

Each user's history runs as its own graph, one interaction at a time: the
recurrent CF as one cell update per interaction, the attention CF as one
attention graph per prefix. The library's batched paths
(``batch_logits``, ``batch_sequence_loss``, ``batch_scores``) must agree
with these to float64 roundoff; only the order of additions differs.
"""

import numpy as np

from gram import autodiff as ad
from gram.autodiff import Tensor
from gram.model import AttentionCfParams, CfParams, RecurrentCfParams


def _check_response(r) -> int:
    if r not in (0, 1):
        raise ValueError(f"response must be 0 or 1, got {r!r}")
    return int(r)


def _interactions_of(user):
    """(item, response) pairs of a ``UserSequence`` or of a raw list."""
    inter = getattr(user, "interactions", user)
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
    """Self-attend over history rows and pool to a (1, d) user vector."""
    x = ad.concat(xs, axis=0) if len(xs) > 1 else xs[0]
    q = ad.matmul(x, p.wq)
    k = ad.matmul(x, p.wk)
    v = ad.matmul(x, p.wv)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(p.cfg.d_h))
    ctx = ad.matmul(ad.softmax(scores, axis=-1), v)
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
