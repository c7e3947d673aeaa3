"""Reference synthetic generator: the oracle for ``gram.dataset.generate_synthetic``.

This is the per-interaction loop: items are picked with
``Generator.choice(p=popularity)``, and each interaction draws its
response and its noise flip with two scalar ``random()`` calls. The
library draws the same uniforms in fewer calls, so for every config and
seed it must return the same dataset and latents as this loop. The loop
collects each user's (item, response) pairs and builds its
``UserSequence`` from them, so the generator's arrays are checked value
for value.
``response_prob`` is the generator's pre-noise response probability, the
oracle scorer the dataset tests rank against.
"""

import numpy as np

from gram.dataset import (ABILITY, N_BANDS, TOPIC_TOKEN_FRAC, Dataset, GenConfig, Item, Latents,
                          UserSequence, _pools)


def generate_synthetic(cfg: GenConfig, seed: int) -> tuple[Dataset, Latents]:
    """Draw a dataset from the latent skill model. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    topic_pools, band_pools = _pools(cfg)

    item_topic = rng.integers(0, cfg.n_topics, size=cfg.n_items)
    item_difficulty = rng.standard_normal(cfg.n_items)
    # difficulty band by quantile, so every band is populated
    band = np.searchsorted(np.quantile(item_difficulty, np.linspace(0, 1, N_BANDS + 1)[1:-1]),
                           item_difficulty)

    items = []
    for i in range(cfg.n_items):
        l_t = int(rng.integers(cfg.token_len_range[0], cfg.token_len_range[1] + 1))
        from_topic = rng.random(l_t) < TOPIC_TOKEN_FRAC
        toks = np.where(
            from_topic,
            rng.choice(topic_pools[item_topic[i]], size=l_t),
            rng.choice(band_pools[band[i]], size=l_t),
        )
        items.append(Item(item_id=i, tokens=tuple(int(t) for t in toks)))

    user_ability = np.array([ABILITY if rng.standard_normal() >= 0 else -ABILITY
                             for _ in range(cfg.n_users)])

    # Zipf popularity (exponent 1) over a random item ranking
    ranks = rng.permutation(cfg.n_items) + 1
    weights = 1.0 / ranks
    popularity = weights / weights.sum()

    users = []
    for u in range(cfg.n_users):
        length = int(rng.integers(cfg.seq_len_range[0], cfg.seq_len_range[1] + 1))
        chosen = rng.choice(cfg.n_items, size=length, p=popularity)
        inter = []
        for i in chosen:
            p = 1.0 / (1.0 + np.exp(-(user_ability[u] - item_difficulty[i])))
            r = int(rng.random() < p)
            if rng.random() < cfg.noise:
                r = 1 - r
            inter.append((int(i), r))
        users.append(UserSequence(u, [i for i, _ in inter], [r for _, r in inter]))

    return Dataset(items=items, users=users), Latents(item_topic, item_difficulty, user_ability)


def response_prob(latents: Latents, user_id: int, item_id: int) -> float:
    """Pre-noise probability of a correct/positive response."""
    a = latents.user_ability[user_id]
    return float(1.0 / (1.0 + np.exp(-(a - latents.item_difficulty[item_id]))))
