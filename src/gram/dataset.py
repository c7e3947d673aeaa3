"""Interaction/content data model: synthetic generation, cold-start
splitting, batching, boost-ratio statistics, and plain-text file formats.

The synthetic generator uses a latent skill model so that item content
genuinely predicts responses: every item has a topic and a difficulty,
its tokens are drawn from a topic pool plus a difficulty-band pool (so
content reveals both latents), every user has a per-topic ability, and
responses are Bernoulli(sigmoid(ability - difficulty)) with optional
label-flip noise. The latents are returned alongside the dataset so tests
can evaluate oracle scorers against them.

File formats (UTF-8, LF, no header):

* items file — one line per item: ``item_id<TAB>tok tok tok ...``
* interactions file — one line per user:
  ``user_id<TAB>item:resp,item:resp,...`` in temporal order.

Both round-trip exactly (``load(save(D)) == D``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

ITEMS_FILENAME = "items.tsv"
INTERACTIONS_FILENAME = "interactions.tsv"


@dataclass(frozen=True)
class Item:
    item_id: int
    tokens: tuple[int, ...]

    def __post_init__(self):
        if self.item_id < 0:
            raise ValueError("item_id must be non-negative")
        if len(self.tokens) < 1:
            raise ValueError(f"item {self.item_id} has no tokens")


@dataclass(frozen=True)
class UserSequence:
    """One user's (item_id, response) pairs in temporal order. Each response
    is checked to be 0 or 1 here, once; nothing downstream checks it again."""

    user_id: int
    interactions: tuple[tuple[int, int], ...]  # (item_id, response) pairs

    def __post_init__(self):
        for item, resp in self.interactions:
            if resp not in (0, 1):
                raise ValueError(f"user {self.user_id}: response {resp!r} not in {{0,1}}")

    def __len__(self):
        return len(self.interactions)


@dataclass
class Dataset:
    items: list[Item]
    users: list[UserSequence]

    def __post_init__(self):
        ids = [it.item_id for it in self.items]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate item ids")
        known = set(ids)
        for u in self.users:
            for item, _ in u.interactions:
                if item not in known:
                    raise ValueError(f"user {u.user_id} references unknown item {item}")

    def n_interactions(self) -> int:
        return sum(len(u) for u in self.users)


@dataclass(eq=False)
class Batch:
    """A batch of users and their interactions as arrays, built once.
    Interactions are numbered user by user, so user u owns the next
    ``lengths[u]`` of them, and ``unique_items[inverse[k]] == items[k]``."""

    users: list[UserSequence]
    lengths: np.ndarray = field(init=False)         # interactions per user
    items: np.ndarray = field(init=False)           # item id of interaction k
    resps: np.ndarray = field(init=False)           # response (0 or 1) of interaction k
    unique_items: np.ndarray = field(init=False)    # sorted distinct ids of items
    inverse: np.ndarray = field(init=False)         # index in unique_items of interaction k's item

    def __post_init__(self):
        pairs = [pair for u in self.users for pair in u.interactions]
        self.lengths = np.array([len(u) for u in self.users], dtype=np.intp)
        self.items = np.array([item for item, _ in pairs], dtype=np.intp)
        self.resps = np.array([resp for _, resp in pairs], dtype=np.intp)
        self.unique_items, self.inverse = np.unique(self.items, return_inverse=True)

    def n_interactions(self) -> int:
        return self.items.size


@dataclass
class DatasetStats:
    n_users: int
    n_items: int
    n_interactions: int
    avg_l_t: float
    avg_l_i: float
    epoch_boost_ratio: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def compute_stats(d: Dataset) -> DatasetStats:
    n_inter = d.n_interactions()
    return DatasetStats(
        n_users=len(d.users),
        n_items=len(d.items),
        n_interactions=n_inter,
        avg_l_t=float(np.mean([len(it.tokens) for it in d.items])) if d.items else 0.0,
        avg_l_i=n_inter / len(d.users) if d.users else 0.0,
        epoch_boost_ratio=n_inter / len(d.items) if d.items else 0.0,
    )


def stats_from_metadata(path) -> DatasetStats:
    """Stats from a metadata JSON (for corpora we do not ship): integer
    keys n_users and n_items (>= 1) and n_interactions (>= 0), optional
    avg_l_t / avg_l_i."""
    with open(path, encoding="utf-8") as f:
        meta = json.load(f)
    for key, least in (("n_users", 1), ("n_items", 1), ("n_interactions", 0)):
        if key not in meta:
            raise ValueError(f"metadata {path}: missing key {key!r}")
        v = meta[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            raise ValueError(f"metadata {path}: {key!r} must be an integer >= {least}, got {v!r}")
    return DatasetStats(
        n_users=meta["n_users"],
        n_items=meta["n_items"],
        n_interactions=meta["n_interactions"],
        avg_l_t=float(meta.get("avg_l_t", 0.0)),
        avg_l_i=float(meta.get("avg_l_i", meta["n_interactions"] / meta["n_users"])),
        epoch_boost_ratio=meta["n_interactions"] / meta["n_items"],
    )


# ---------------------------------------------------------------------------
# Boost ratios
# ---------------------------------------------------------------------------


def boost_ratio(b: Batch) -> Fraction:
    """Interactions-per-unique-item of one batch, as an exact rational.

    This is the theoretical CE-call speedup of encoding unique items once
    instead of once per occurrence.
    """
    if not b.users:
        raise ValueError("boost_ratio: empty batch")
    return Fraction(b.n_interactions(), len(b.unique_items))


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Size and latent scales of a synthetic dataset. The config checks
    itself when built (``dataclasses.replace`` included): a value out of
    range raises ValueError naming it."""

    n_users: int = 500
    n_items: int = 80
    n_topics: int = 10
    vocab_size: int = 200
    seq_len_range: tuple[int, int] = (10, 40)
    token_len_range: tuple[int, int] = (4, 12)
    noise: float = 0.1
    zipf_exponent: float = 1.0
    ability_dist: str = "bimodal"  # "bimodal": ability = ±ability_std; "normal": N(0, ability_std²)
    ability_std: float = 3.0
    per_topic_ability: bool = False  # False: one skill level per user (every
    # observation informs every prediction); True: independent per topic,
    # which caps what any history-based predictor can reach early on
    difficulty_std: float = 1.0
    n_difficulty_bands: int = 4
    topic_token_frac: float = 0.7  # share of vocab (and of tokens) carrying topic

    def __post_init__(self):
        if min(self.n_users, self.n_items, self.n_topics, self.vocab_size) < 1:
            raise ValueError("counts must be positive")
        if self.n_topics > self.n_items:
            raise ValueError("more topics than items")
        if self.seq_len_range[0] < 2 or self.seq_len_range[0] > self.seq_len_range[1]:
            raise ValueError("seq_len_range must be (lo, hi) with 2 <= lo <= hi")
        if self.token_len_range[0] < 1 or self.token_len_range[0] > self.token_len_range[1]:
            raise ValueError("token_len_range must be (lo, hi) with 1 <= lo <= hi")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")
        if not 0.0 < self.topic_token_frac < 1.0:
            raise ValueError("topic_token_frac must lie in (0, 1)")
        for name in ("ability_std", "difficulty_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
        if not math.isfinite(self.zipf_exponent):
            raise ValueError(f"zipf_exponent must be finite, got {self.zipf_exponent!r}")
        if self.n_difficulty_bands < 1:
            raise ValueError(f"n_difficulty_bands must be positive, got {self.n_difficulty_bands}")
        if self.ability_dist not in ("bimodal", "normal"):
            raise ValueError(f"unknown ability_dist {self.ability_dist!r}")
        n_topic_tokens = int(self.vocab_size * self.topic_token_frac)
        if n_topic_tokens < self.n_topics:
            raise ValueError("vocab too small to give every topic a token pool")
        if self.vocab_size - n_topic_tokens < self.n_difficulty_bands:
            raise ValueError("vocab too small to give every difficulty band a token pool")


@dataclass
class Latents:
    """Ground-truth generator state, for oracle evaluation only."""

    item_topic: np.ndarray       # (n_items,) int
    item_difficulty: np.ndarray  # (n_items,) float
    user_ability: np.ndarray     # (n_users, n_topics) float

    def response_prob(self, user_id: int, item_id: int) -> float:
        """Pre-noise probability of a correct/positive response."""
        a = self.user_ability[user_id, self.item_topic[item_id]]
        return float(1.0 / (1.0 + np.exp(-(a - self.item_difficulty[item_id]))))


def _pools(cfg: GenConfig):
    """Partition the vocab into per-topic and per-difficulty-band pools."""
    n_topic_tokens = int(cfg.vocab_size * cfg.topic_token_frac)
    topic_pools = np.array_split(np.arange(n_topic_tokens), cfg.n_topics)
    band_pools = np.array_split(np.arange(n_topic_tokens, cfg.vocab_size),
                                cfg.n_difficulty_bands)
    return topic_pools, band_pools


def generate_synthetic(cfg: GenConfig, seed: int) -> tuple[Dataset, Latents]:
    """Draw a dataset from the latent skill model. Deterministic per seed.

    The order of the draws from ``default_rng(seed)`` defines every
    dataset, so it is fixed:

    1. item topics, then item difficulties;
    2. per item: its token count, its topic-or-band mask, then its tokens
       from the topic pool and from the difficulty-band pool;
    3. the user abilities, then the item popularity ranking;
    4. per user: its length, then one ``random(3 * length)``. The first
       ``length`` uniforms pick its items by inverse CDF of the popularity
       (as ``Generator.choice(p=popularity)`` does with the same uniforms);
       the rest come in pairs, interaction by interaction: the response
       draw, then the label-flip draw.

    ``tests/reference_data.py`` draws the same uniforms one call per value
    and must give the same dataset.
    """
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
    total = weights.sum()
    if not np.isfinite(total):
        raise ValueError(f"zipf_exponent {cfg.zipf_exponent} gives non-finite item popularity")
    popularity = weights / total
    cdf = popularity.cumsum()
    cdf /= cdf[-1]

    users = []
    for u in range(cfg.n_users):
        length = int(rng.integers(cfg.seq_len_range[0], cfg.seq_len_range[1] + 1))
        uniform = rng.random(3 * length)
        chosen = cdf.searchsorted(uniform[:length], side="right")
        p = 1.0 / (1.0 + np.exp(-(user_ability[u, item_topic[chosen]] - item_difficulty[chosen])))
        resp = (uniform[length::2] < p) != (uniform[length + 1::2] < cfg.noise)
        users.append(UserSequence(user_id=u, interactions=tuple(
            zip(chosen.tolist(), resp.astype(int).tolist()))))

    return Dataset(items=items, users=users), Latents(item_topic, item_difficulty, user_ability)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def split_users(users: list[UserSequence], frac: float, seed: int):
    """Split users into (1-frac, frac) groups by seeded permutation."""
    if not 0.0 < frac < 1.0:
        raise ValueError("frac must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(users))
    n_b = max(1, int(round(len(users) * frac)))
    b_idx = set(perm[:n_b].tolist())
    a = [u for k, u in enumerate(users) if k not in b_idx]
    b = [u for k, u in enumerate(users) if k in b_idx]
    return a, b


def cold_start_split(d: Dataset, n_cs_items: int, seed: int, test_frac: float = 0.2):
    """User-level train/test split plus cold-start item designation.

    Picks ``n_cs_items`` items that occur in the test users' sequences,
    then removes every train interaction on those items; train users left
    with fewer than 2 interactions are dropped. Test sequences are kept
    intact, so each chosen item retains at least one test interaction.
    """
    if n_cs_items >= len(d.items):
        raise ValueError("n_cs_items must be smaller than the item count")
    s_split, s_pick = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(s_pick)
    train_users, test_users = split_users(d.users, test_frac, s_split)

    test_item_pool = sorted({item for u in test_users for item, _ in u.interactions})
    if len(test_item_pool) < n_cs_items:
        raise ValueError(
            f"infeasible split: only {len(test_item_pool)} items occur in test sequences")
    cs_items = set(int(i) for i in rng.choice(test_item_pool, size=n_cs_items, replace=False))

    stripped = []
    for u in train_users:
        kept = tuple((item, r) for item, r in u.interactions if item not in cs_items)
        if len(kept) >= 2:
            stripped.append(UserSequence(user_id=u.user_id, interactions=kept))

    train = Dataset(items=d.items, users=stripped)
    test = Dataset(items=d.items, users=test_users)
    return train, test, cs_items


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


def batch_iter(users: list[UserSequence], batch_size: int, shuffle_seed=None):
    """Yield one epoch of batches; the last partial batch is kept.

    With a seed the user order is permuted; without, file order is used.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = list(range(len(users)))
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(users)).tolist()
    for lo in range(0, len(order), batch_size):
        yield Batch(users=[users[k] for k in order[lo:lo + batch_size]])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def save_items(items: list[Item], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for it in items:
            f.write(f"{it.item_id}\t{' '.join(str(t) for t in it.tokens)}\n")


def load_items(path) -> list[Item]:
    items = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                sid, stoks = line.split("\t")
                items.append(Item(item_id=int(sid),
                                  tokens=tuple(int(t) for t in stoks.split(" "))))
            except (ValueError, IndexError) as e:
                raise ValueError(f"{path}:{lineno}: malformed item line") from e
    return items


def save_interactions(users: list[UserSequence], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for u in users:
            body = ",".join(f"{item}:{r}" for item, r in u.interactions)
            f.write(f"{u.user_id}\t{body}\n")


def load_interactions(path) -> list[UserSequence]:
    users = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                sid, body = line.split("\t")
                inter = tuple(
                    (int(pair.split(":")[0]), int(pair.split(":")[1]))
                    for pair in body.split(","))
                users.append(UserSequence(user_id=int(sid), interactions=inter))
            except (ValueError, IndexError) as e:
                raise ValueError(f"{path}:{lineno}: malformed interaction line") from e
    return users


def save_dataset(d: Dataset, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_items(d.items, os.path.join(out_dir, ITEMS_FILENAME))
    save_interactions(d.users, os.path.join(out_dir, INTERACTIONS_FILENAME))


def load_dataset(in_dir) -> Dataset:
    return Dataset(
        items=load_items(os.path.join(in_dir, ITEMS_FILENAME)),
        users=load_interactions(os.path.join(in_dir, INTERACTIONS_FILENAME)),
    )
