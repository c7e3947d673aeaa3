"""Interaction/content data model: synthetic generation, cold-start
splitting, batching, boost-ratio statistics, and plain-text file formats.

The synthetic generator uses a latent skill model so that item content
genuinely predicts responses: every item has a topic and a difficulty,
its tokens are drawn from a topic pool plus a difficulty-band pool (so
content reveals both latents), every user has one skill level, good or
bad, and responses are Bernoulli(sigmoid(ability - difficulty)) with
optional label-flip noise. The latents are returned alongside the dataset
so tests can evaluate oracle scorers against them.

File formats (UTF-8, LF, no header):

* items file — one line per item: ``item_id<TAB>tok tok tok ...``
* interactions file — one line per user:
  ``user_id<TAB>item:resp,item:resp,...`` in temporal order.

Both round-trip exactly (``load(save(D)) == D``). In memory a user's
interactions are two integer arrays: its item ids and its responses.
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


@dataclass(frozen=True, eq=False)
class UserSequence:
    """One user's interactions in temporal order: ``items[k]`` drew response
    ``resps[k]``. Both are 1-D intp arrays, cast only from integer or bool input
    (not copied if already intp). Its ``Dataset`` checks items and responses (0 or 1);
    ``autodiff.bce_loss`` and ``metrics.check_predictions`` check the labels they get again."""

    user_id: int
    items: np.ndarray
    resps: np.ndarray

    def __post_init__(self):
        for name in ("items", "resps"):
            a = np.asarray(getattr(self, name))
            if a.ndim != 1 or a.size and a.dtype.kind not in "biu" or len(a) != len(self.items):
                raise ValueError(f"user {self.user_id}: items, resps must be 1-D integers of one length")
            object.__setattr__(self, name, a.astype(np.intp, copy=False))

    def __len__(self):
        return self.items.size

    def __eq__(self, other):
        return (isinstance(other, UserSequence) and self.user_id == other.user_id and
                np.array_equal(self.items, other.items) and np.array_equal(self.resps, other.resps))


def _flat(users: list[UserSequence]):
    """(lengths, items, resps) of every interaction of *users*, user by user."""
    return (np.array([len(u) for u in users], dtype=np.intp),
            np.concatenate([np.empty(0, np.intp), *(u.items for u in users)]),
            np.concatenate([np.empty(0, np.intp), *(u.resps for u in users)]))


@dataclass
class Dataset:
    items: list[Item]
    users: list[UserSequence]

    def __post_init__(self):
        known = set()
        for item_id in (it.item_id for it in self.items):
            if item_id in known:
                raise ValueError(f"duplicate item id {item_id}")
            known.add(item_id)
        seen = set()
        for user_id in (us.user_id for us in self.users):
            if user_id in seen:
                raise ValueError(f"duplicate user id {user_id}")
            seen.add(user_id)
        lengths, items, resps = _flat(self.users)
        unknown = ~np.isin(items, list(known))
        for k in np.flatnonzero(unknown | (resps < 0) | (resps > 1))[:1]:
            uid = self.users[np.searchsorted(lengths.cumsum(), k, side="right")].user_id
            raise ValueError(f"user {uid} references unknown item {items[k]}" if unknown[k]
                             else f"user {uid}: response {resps[k]} not in {{0,1}}")

    def n_interactions(self) -> int:
        return sum(len(u) for u in self.users)


@dataclass(eq=False)
class Batch:
    """A batch of users and their interactions: its users' arrays, joined once
    (their ``Dataset`` checked them). Interactions are numbered user by user,
    so user u owns the next ``lengths[u]`` of them, and ``unique_items[inverse[k]] == items[k]``."""

    users: list[UserSequence]
    lengths: np.ndarray = field(init=False)         # interactions per user
    items: np.ndarray = field(init=False)           # item id of interaction k
    resps: np.ndarray = field(init=False)           # response (0 or 1) of interaction k
    unique_items: np.ndarray = field(init=False)    # sorted distinct ids of items
    inverse: np.ndarray = field(init=False)         # index in unique_items of interaction k's item

    def __post_init__(self):
        self.lengths, self.items, self.resps = _flat(self.users)
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
    """Stats from a metadata JSON object (for corpora we do not ship):
    integer keys n_users and n_items (>= 1) and n_interactions (>= 0),
    optional avg_l_t / avg_l_i (finite numbers >= 0). Anything else is a
    ValueError naming the file, and the key where there is one."""
    with open(path, encoding="utf-8") as f:
        try:
            meta = json.load(f)
        except ValueError as e:
            raise ValueError(f"metadata {path}: not valid JSON: {e}") from None
    if not isinstance(meta, dict):
        raise ValueError(f"metadata {path}: expected a JSON object, got {type(meta).__name__}")
    for key, least in (("n_users", 1), ("n_items", 1), ("n_interactions", 0)):
        if key not in meta:
            raise ValueError(f"metadata {path}: missing key {key!r}")
        v = meta[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < least:
            raise ValueError(f"metadata {path}: {key!r} must be an integer >= {least}, got {v!r}")
    avg = {"avg_l_t": 0.0, "avg_l_i": meta["n_interactions"] / meta["n_users"]}
    for key in avg:
        v = meta.get(key, avg[key])
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0 <= v < math.inf:
            raise ValueError(f"metadata {path}: {key!r} must be a finite number >= 0, got {v!r}")
        avg[key] = float(v)
    return DatasetStats(
        n_users=meta["n_users"],
        n_items=meta["n_items"],
        n_interactions=meta["n_interactions"],
        **avg,
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


ABILITY = 3.0            # every user's skill is +ABILITY or -ABILITY
N_BANDS = 4              # difficulty bands, each with its own token pool
TOPIC_TOKEN_FRAC = 0.7   # share of the vocab (and of each item's tokens) carrying topic


@dataclass(frozen=True)
class GenConfig:
    """Size of a synthetic dataset and its label noise; the latent model's
    shape is fixed. The config checks itself when built
    (``dataclasses.replace`` included): a value out of range raises
    ValueError naming it."""

    n_users: int = 500
    n_items: int = 80
    n_topics: int = 10
    vocab_size: int = 200
    seq_len_range: tuple[int, int] = (10, 40)
    token_len_range: tuple[int, int] = (4, 12)
    noise: float = 0.1

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
        n_topic_tokens = int(self.vocab_size * TOPIC_TOKEN_FRAC)
        if n_topic_tokens < self.n_topics:
            raise ValueError("vocab too small to give every topic a token pool")
        if self.vocab_size - n_topic_tokens < N_BANDS:
            raise ValueError("vocab too small to give every difficulty band a token pool")


@dataclass
class Latents:
    """Ground-truth generator state, for oracle evaluation only."""

    item_topic: np.ndarray       # (n_items,) int
    item_difficulty: np.ndarray  # (n_items,) float
    user_ability: np.ndarray     # (n_users,) float


def _pools(cfg: GenConfig):
    """Partition the vocab into per-topic and per-difficulty-band pools."""
    n_topic_tokens = int(cfg.vocab_size * TOPIC_TOKEN_FRAC)
    topic_pools = np.array_split(np.arange(n_topic_tokens), cfg.n_topics)
    band_pools = np.array_split(np.arange(n_topic_tokens, cfg.vocab_size), N_BANDS)
    return topic_pools, band_pools


def generate_synthetic(cfg: GenConfig, seed: int) -> tuple[Dataset, Latents]:
    """Draw a dataset from the latent skill model. Deterministic per seed.

    The order of the draws from ``default_rng(seed)`` defines every
    dataset, so it is fixed:

    1. item topics, then item difficulties;
    2. per item: its token count, its topic-or-band mask, then its tokens
       from the topic pool and from the difficulty-band pool;
    3. one normal draw per user, whose sign is its ability, then the item
       popularity ranking;
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

    # clean good/bad skill levels: the strongest learnable signal
    user_ability = np.where(rng.standard_normal(cfg.n_users) >= 0, ABILITY, -ABILITY)

    # Zipf popularity (exponent 1) over a random item ranking
    ranks = rng.permutation(cfg.n_items) + 1
    weights = 1.0 / ranks
    popularity = weights / weights.sum()
    cdf = popularity.cumsum()
    cdf /= cdf[-1]

    users = []
    for u in range(cfg.n_users):
        length = int(rng.integers(cfg.seq_len_range[0], cfg.seq_len_range[1] + 1))
        uniform = rng.random(3 * length)
        chosen = cdf.searchsorted(uniform[:length], side="right")
        p = 1.0 / (1.0 + np.exp(-(user_ability[u] - item_difficulty[chosen])))
        resp = (uniform[length::2] < p) != (uniform[length + 1::2] < cfg.noise)
        users.append(UserSequence(user_id=u, items=chosen, resps=resp))

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


class InfeasibleSplitError(ValueError):
    """A cold-start split cannot pick as many cold-start items as asked."""


def cold_start_split(d: Dataset, n_cs_items: int, seed: int, test_frac: float = 0.2):
    """User-level train/test split plus cold-start item designation.

    Picks ``n_cs_items`` items that occur in the test users' sequences,
    then removes every train interaction on those items; train users left
    with fewer than 2 interactions are dropped. Test sequences are kept
    intact, so each chosen item retains at least one test interaction.
    More items than the test sequences hold, or every item, is an
    InfeasibleSplitError giving the test split's user and item counts.
    """
    s_split, s_pick = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(s_pick)
    train_users, test_users = split_users(d.users, test_frac, s_split)

    test_item_pool = np.unique(_flat(test_users)[1])
    if n_cs_items > len(test_item_pool) or n_cs_items >= len(d.items):
        raise InfeasibleSplitError(
            f"cannot pick {n_cs_items} cold-start items: the test split's {len(test_users)} "
            f"users hold {len(test_item_pool)} distinct items of the {len(d.items)}; at most "
            f"{len(test_item_pool)}, and fewer than {len(d.items)}, can be cold-start")
    cs_items = set(rng.choice(test_item_pool, size=n_cs_items, replace=False).tolist())

    lengths, items, _ = _flat(train_users)
    kept = np.split(~np.isin(items, list(cs_items)), lengths.cumsum()[:-1])
    stripped = [UserSequence(u.user_id, u.items[k], u.resps[k])
                for u, k in zip(train_users, kept) if np.count_nonzero(k) >= 2]
    return Dataset(d.items, stripped), Dataset(d.items, test_users), cs_items


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
            body = ",".join(f"{i}:{r}" for i, r in zip(u.items.tolist(), u.resps.tolist()))
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
                pairs = [pair.split(":") for pair in body.split(",")] if body else []
                items, resps = [int(i) for i, _ in pairs], [int(r) for _, r in pairs]
                if not set(resps) <= {0, 1}:
                    raise ValueError("response not in {0,1}")
                users.append(UserSequence(int(sid), items, resps))
            except ValueError as e:
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
