"""Per-op reference content encoder: the oracle for ``gram.model.ce_encode``.

Items of equal truncated token length share one graph of primitive ops:
the q/k/v projections and the feed-forward are 2-D matmuls over all their
tokens and the attention is a (B, L, L) batched matmul, with no padding or
mask. The library's fused encoder (``autodiff.ce_block`` per layer,
``autodiff.segment_mean`` for the pooling) must agree with it to float64
roundoff, in values and in every parameter gradient; only the order of
additions differs.
"""

import numpy as np

from gram import autodiff as ad
from gram.autodiff import Tensor
from gram.model import CeParams, positional_table


def ce_encode(token_seqs, p: CeParams) -> Tensor:
    """Encode a list of items' token-id sequences to an (n, d) tensor, one
    graph per distinct truncated length; one gather restores input order
    when the grouping changed it."""
    seqs = [list(toks)[: p.cfg.max_token_len] for toks in token_seqs]
    if not seqs:
        raise ValueError("ce_encode: no token sequences")
    groups: dict[int, list[int]] = {}
    for k, toks in enumerate(seqs):
        if not toks:
            raise ValueError(f"ce_encode: empty token sequence at position {k}")
        groups.setdefault(len(toks), []).append(k)

    d = p.cfg.d
    inv_sqrt_d = 1.0 / np.sqrt(d)
    outs = []
    for length, members in groups.items():
        b = len(members)
        x = ad.gather(p.token_embedding, np.array([seqs[k] for k in members]).reshape(-1))
        if p.cfg.positional_encoding:
            pe = np.tile(positional_table(length, d, x.dtype), (b, 1))
            x = ad.add(x, Tensor(pe))
        for lay in p.layers:
            q = ad.reshape(ad.matmul(x, lay.wq), (b, length, d))
            k = ad.reshape(ad.matmul(x, lay.wk), (b, length, d))
            v = ad.reshape(ad.matmul(x, lay.wv), (b, length, d))
            scores = ad.scale(ad.matmul(q, ad.transpose(k)), inv_sqrt_d)
            attended = ad.reshape(ad.matmul(ad.softmax(scores, axis=-1), v), (b * length, d))
            x = ad.add(x, ad.matmul(attended, lay.wo))
            ff = ad.matmul(ad.relu(ad.matmul(x, lay.w_ff1)), lay.w_ff2)
            x = ad.add(x, ff)
        pooled = ad.mean_pool(ad.reshape(x, (b, length, d)), axis=1)
        outs.append(ad.matmul(pooled, p.w_out))

    out = ad.concat(outs, axis=0) if len(outs) > 1 else outs[0]
    order = [k for members in groups.values() for k in members]
    if order == list(range(len(seqs))):
        return out
    return ad.gather(out, np.argsort(order))   # argsort inverts the permutation
