"""Reference synthetic generator: the oracle for ``gram.dataset.generate_synthetic``.

This is the per-interaction loop: items are picked with
``Generator.choice(p=popularity)``, and each interaction draws its
response and its noise flip with two scalar ``random()`` calls. The
library draws the same uniforms in fewer calls, so for every config and
seed it must return the same dataset and latents as this loop.
"""

import numpy as np

from gram.dataset import Dataset, GenConfig, Item, Latents, UserSequence, _pools


def generate_synthetic(cfg: GenConfig, seed: int) -> tuple[Dataset, Latents]:
    """Draw a dataset from the latent skill model. Deterministic per seed."""
    rng = np.random.default_rng(seed)
    topic_pools, band_pools = _pools(cfg)

    item_topic = rng.integers(0, cfg.n_topics, size=cfg.n_items)
    item_difficulty = rng.standard_normal(cfg.n_items) * cfg.difficulty_std
    # difficulty band by quantile, so every band is populated
    band = np.searchsorted(
        np.quantile(item_difficulty, np.linspace(0, 1, cfg.n_difficulty_bands + 1)[1:-1]),
        item_difficulty)

    items = []
    for i in range(cfg.n_items):
        l_t = int(rng.integers(cfg.token_len_range[0], cfg.token_len_range[1] + 1))
        from_topic = rng.random(l_t) < cfg.topic_token_frac
        toks = np.where(
            from_topic,
            rng.choice(topic_pools[item_topic[i]], size=l_t),
            rng.choice(band_pools[band[i]], size=l_t),
        )
        items.append(Item(item_id=i, tokens=tuple(int(t) for t in toks)))

    if cfg.per_topic_ability:
        draws = rng.standard_normal((cfg.n_users, cfg.n_topics))
    else:
        draws = np.repeat(rng.standard_normal((cfg.n_users, 1)), cfg.n_topics, axis=1)
    if cfg.ability_dist == "bimodal":
        # clean good/bad skill levels: the strongest learnable signal
        user_ability = cfg.ability_std * np.sign(draws + (draws == 0))
    else:
        user_ability = draws * cfg.ability_std

    # Zipf-like popularity over a random item ranking
    ranks = rng.permutation(cfg.n_items) + 1
    weights = ranks.astype(np.float64) ** (-cfg.zipf_exponent)
    popularity = weights / weights.sum()

    users = []
    for u in range(cfg.n_users):
        length = int(rng.integers(cfg.seq_len_range[0], cfg.seq_len_range[1] + 1))
        chosen = rng.choice(cfg.n_items, size=length, p=popularity)
        inter = []
        for i in chosen:
            p = 1.0 / (1.0 + np.exp(-(user_ability[u, item_topic[i]] - item_difficulty[i])))
            r = int(rng.random() < p)
            if rng.random() < cfg.noise:
                r = 1 - r
            inter.append((int(i), r))
        users.append(UserSequence(user_id=u, interactions=tuple(inter)))

    return Dataset(items=items, users=users), Latents(item_topic, item_difficulty, user_ability)
