"""Seeded synthetic world and labeled CTR samples.

The generator plants real structure into the knowledge graph so that
knowledge-derived features carry signal: each user tag prefers two
categories, sellers specialize in categories, item titles and session
keywords draw from per-category pools, and every user gets a planted
preference cluster of items. The click model scores a (user, query, item)
triplet from that planted structure alone, so a feature pipeline that reads
the graph can recover it, and the affinity knob makes the labels anywhere
from pure noise (alpha=0) to near-deterministic.

generate_samples draws the samples in blocks of 1024 (fewer when a keyword
pool is so wide that the block's query keys would pass 2^20). Within a
block, each field is one array draw for all of the block's samples, in this
order (a "coin" is one uniform float per sample; a "pick" is one
integers(0, count) draw per sample over a ragged pool held as CSR arrays):

1. the user, uniform over world.users;
2. the query-category coin, then its pick: one of the user's preferred
   categories when the user has any and the coin is below 0.8, else a
   uniform category;
3. the query length, uniform in 2..4 and cut to the category's pool size;
4. the query keywords: one uniform key per slot of the widest pool among
   the block's categories, keeping each sample's smallest keys in pool
   order (a uniform subset without replacement);
5. the candidate coin, then its pick: an item of the user's preferred
   categories (with multiplicity) when the coin is below 0.5 and that pool
   is not empty, else a uniform item;
6. the label noise (standard normal), then the label coin: the label is 1
   when the coin is below sigmoid(alpha * affinity + noise_std * noise);
7. the behavior lengths, a (block, 4) array uniform in 0..6;
8. one coin per behavior item, then its pick: the user's cluster when the
   coin is below 0.7 and the cluster is not empty, else a uniform item.

The affinity sums w_tag_match if the user prefers the item's category,
w_overlap per query keyword in the item's title and w_cluster if the item
is in the user's cluster, over a block at once from (user, category),
(item, keyword) and (user, item) membership keys. Its per-sample form, the
per-sample draw loop and the tag-topic mutual information are test oracles
(tests/oracles.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import pairwise
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigError, ParseError, require_at_least, require_finite, shown
from .graph import DENSE_VALUES, TripleSet, csr_lists, ingest_events, json_array, json_string
from .rng import RngStream
from .textfile import iter_lines, read_lines, write_lines

BEHAVIOR_KINDS = 4  # click, purchase, add-to-cart, favorite
PROPERTY_NAMES = ("color", "brand", "material")
DENSE_FIELDS = ("price", "sales", "rating", "freshness")


@dataclass
class WorldConfig:
    n_users: int = 200
    n_items: int = 300
    n_categories: int = 10
    n_sellers: int = 20
    n_tags: int = 12
    n_keywords: int = 120
    n_sessions: int = 400
    seed: int = 0
    affinity_strength: float = 3.0  # alpha
    noise_std: float = 0.5

    def __post_init__(self):
        require_at_least(self, 1, "n_users", "n_items", "n_categories", "n_sellers", "n_tags",
                         "n_keywords", "n_sessions")
        require_finite(self, "affinity_strength", "noise_std")
        require_at_least(self, 0, "noise_std")


@dataclass
class ClickModel:
    """Ground-truth affinity weights for (user, query, item) triplets."""

    w_tag_match: float = 1.0
    w_overlap: float = 0.75
    w_cluster: float = 1.0

    def __post_init__(self):
        require_finite(self, "w_tag_match", "w_overlap", "w_cluster")


@dataclass
class World:
    cfg: WorldConfig
    events: list[dict]
    tset: TripleSet
    user_tags: dict[str, list[str]]
    user_pref_cats: dict[str, list[str]]
    user_cluster: dict[str, list[str]]
    item_category: dict[str, str]
    item_categories: dict[str, list[str]]
    item_title_kws: dict[str, list[str]]
    item_dense: dict[str, list[float]]
    category_keywords: dict[str, list[str]]
    items_by_category: dict[str, list[str]]
    session_user: list[str]
    session_category: list[str]

    def __post_init__(self):
        self.user_cluster_sets = {u: set(v) for u, v in self.user_cluster.items()}
        self.users = sorted(self.user_tags)
        self.items = sorted(self.item_category)
        self.categories = sorted(self.items_by_category)


def _pick(rng: RngStream, seq):
    return seq[int(rng.integers(0, len(seq)))]


def _pick_distinct(rng: RngStream, seq, count: int) -> list:
    count = min(count, len(seq))
    idx = rng.choice(len(seq), size=count, replace=False)
    return [seq[int(i)] for i in np.sort(idx)]


def generate_world(cfg: WorldConfig) -> World:
    """Build the synthetic world; a pure function of the config (incl. seed)."""
    rng = RngStream(cfg.seed).child("world")
    users = [f"user{i}" for i in range(cfg.n_users)]
    tags = [f"tag{i}" for i in range(cfg.n_tags)]
    cats = [f"cat{i}" for i in range(cfg.n_categories)]
    sellers = [f"seller{i}" for i in range(cfg.n_sellers)]
    items = [f"item{i}" for i in range(cfg.n_items)]
    keywords = [f"kw{i}" for i in range(cfg.n_keywords)]
    n_values = 4 * cfg.n_categories
    values = [f"val{i}" for i in range(n_values)]

    category_keywords = {c: [] for c in cats}
    for i, kw in enumerate(keywords):
        category_keywords[cats[i % cfg.n_categories]].append(kw)
    for c in cats:  # tiny worlds: never leave a pool empty
        if not category_keywords[c]:
            category_keywords[c] = list(keywords)
    category_values = {c: [] for c in cats}
    for i, val in enumerate(values):
        category_values[cats[i % cfg.n_categories]].append(val)

    tag_pref = {t: _pick_distinct(rng, cats, 2) for t in tags}
    seller_cats = {s: _pick_distinct(rng, cats, int(rng.integers(1, 3))) for s in sellers}
    sellers_by_cat = {c: [s for s in sellers if c in seller_cats[s]] for c in cats}

    user_tags = {u: _pick_distinct(rng, tags, int(rng.integers(2, 4))) for u in users}
    user_pref_cats = {u: sorted({c for t in user_tags[u] for c in tag_pref[t]}) for u in users}
    events = [{"type": "user_profile", "user": u, "tags": user_tags[u]} for u in users]

    item_category = {}
    item_categories = {}
    item_title_kws = {}
    item_dense = {}
    items_by_category = {c: [] for c in cats}
    for idx, item in enumerate(items):
        cat = _pick(rng, cats)
        item_category[item] = cat
        items_by_category[cat].append(item)
        item_cats = [cat]
        if cfg.n_categories > 1 and rng.random() < 0.5:
            extra = _pick(rng, cats)
            if extra != cat:
                item_cats.append(extra)
        item_categories[item] = item_cats
        pool = sellers_by_cat[cat] or sellers
        seller = _pick(rng, pool)
        n_kw = int(rng.integers(3, 7))
        title_kws = _pick_distinct(rng, category_keywords[cat], n_kw)
        item_title_kws[item] = title_kws
        props = [
            {"property": PROPERTY_NAMES[p % len(PROPERTY_NAMES)],
             "value": _pick(rng, category_values[cat])}
            for p in range(int(rng.integers(2, 5)))
        ]
        dense = [
            round(float(rng.uniform(5.0, 200.0)), 2),
            float(rng.integers(0, 1000)),
            round(float(rng.uniform(3.0, 5.0)), 2),
            round(float(rng.uniform(0.0, 1.0)), 4),
        ]
        item_dense[item] = dense
        for c in item_cats:
            events.append(
                {
                    "type": "item_listing",
                    "item": item,
                    "category": c,
                    "seller": seller,
                    "properties": props,
                    "title": " ".join(title_kws),
                    "dense": dense,
                }
            )

    user_cluster = {}
    for u in users:
        pool = [it for c in user_pref_cats[u] for it in items_by_category[c]]
        user_cluster[u] = _pick_distinct(rng, pool or items, 20)

    session_user = []
    session_category = []
    for i in range(cfg.n_sessions):
        u = _pick(rng, users)
        prefs = user_pref_cats[u]
        cat = _pick(rng, prefs) if prefs and rng.random() < 0.8 else _pick(rng, cats)
        session_user.append(u)
        session_category.append(cat)
        kws = _pick_distinct(rng, category_keywords[cat], int(rng.integers(6, 10)))
        pool = sellers_by_cat[cat] or sellers
        events.append(
            {
                "type": "session_log",
                "user": u,
                "session": f"sess{i}",
                "seller": _pick(rng, pool),
                "intention": f"intent{i}",
                "keywords": kws,
            }
        )

    tset = ingest_events(events)
    return World(
        cfg=cfg,
        events=events,
        tset=tset,
        user_tags=user_tags,
        user_pref_cats=user_pref_cats,
        user_cluster=user_cluster,
        item_category=item_category,
        item_categories=item_categories,
        item_title_kws=item_title_kws,
        item_dense=item_dense,
        category_keywords=category_keywords,
        items_by_category=items_by_category,
        session_user=session_user,
        session_category=session_category,
    )


@dataclass
class Sample:
    user_id: str
    behaviors: list[list[str]]
    query: str
    candidate_item: str
    categories: list[str]
    dense: list[float]
    label: int

    def to_dict(self) -> dict:
        """The samples.jsonl record: one key per field, in field order."""
        return {key: getattr(self, key) for key in SAMPLE_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "Sample":
        """The Sample of a samples.jsonl record, each field of its JSON type
        (_SAMPLE_TYPES); other keys are ignored."""
        for key, (ok, what) in _SAMPLE_TYPES.items():
            if not ok(d[key]):
                raise TypeError(f"{key} must be {what}, got {shown(d[key])}")
        values = {key: d[key] for key in SAMPLE_KEYS}
        return cls(**{**values, "dense": [float(v) for v in d["dense"]]})


SAMPLE_KEYS = tuple(f.name for f in fields(Sample))
# the JSON type of each samples.jsonl field: field -> (check, what it must be)
_SAMPLE_TYPES = {
    "user_id": (json_string, "a string"),
    "behaviors": (json_array(json_array(json_string)), "an array of arrays of strings"),
    "query": (json_string, "a string"),
    "candidate_item": (json_string, "a string"),
    "categories": (json_array(json_string), "an array of strings"),
    "dense": DENSE_VALUES,
    "label": (lambda v: type(v) is int and v in (0, 1), "0 or 1"),
}


@dataclass
class SampleSplit:
    train: list[Sample] = field(default_factory=list)
    valid: list[Sample] = field(default_factory=list)
    test: list[Sample] = field(default_factory=list)

    def all(self) -> list[Sample]:
        return self.train + self.valid + self.test


def _pair_keys(indptr: np.ndarray, ids: np.ndarray, width: int) -> np.ndarray:
    """The int64 keys row * width + id of a CSR list, for membership tests."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)) * width + ids


class _Pools(NamedTuple):
    """A world's ragged pools as (indptr, ids) CSR pairs over index ids, the
    membership keys of the click model's three terms, and the names."""

    prefs: tuple  # user -> preferred category ids
    pref_items: tuple  # user -> the items of those categories, with multiplicity
    cluster: tuple  # user -> cluster item ids
    keywords: tuple  # category -> keyword ids, in pool order
    item_cat: np.ndarray  # item -> primary category id
    pref_keys: np.ndarray  # user * n_categories + category
    title_keys: np.ndarray  # item * n_keywords + title keyword
    cluster_keys: np.ndarray  # user * n_items + cluster item
    item_names: np.ndarray  # object arrays: the names the ids index
    kw_names: np.ndarray


def _pools(world: World) -> _Pools:
    kw_names = list(dict.fromkeys(
        kw for pool in (*world.category_keywords.values(), *world.item_title_kws.values())
        for kw in pool
    ))
    item_ix = {it: i for i, it in enumerate(world.items)}
    cat_ix = {c: i for i, c in enumerate(world.categories)}
    kw_ix = {kw: i for i, kw in enumerate(kw_names)}
    prefs = [world.user_pref_cats[u] for u in world.users]
    pref = csr_lists(prefs, cat_ix)
    cluster = csr_lists([world.user_cluster[u] for u in world.users], item_ix)
    titles = csr_lists([world.item_title_kws[it] for it in world.items], kw_ix)
    return _Pools(
        prefs=pref,
        pref_items=csr_lists(
            [[it for c in row for it in world.items_by_category[c]] for row in prefs], item_ix
        ),
        cluster=cluster,
        keywords=csr_lists([world.category_keywords[c] for c in world.categories], kw_ix),
        item_cat=np.array([cat_ix[world.item_category[it]] for it in world.items], dtype=np.int64),
        pref_keys=_pair_keys(*pref, len(cat_ix)),
        title_keys=_pair_keys(*titles, len(kw_ix)),
        cluster_keys=_pair_keys(*cluster, len(item_ix)),
        item_names=np.array(world.items, dtype=object),
        kw_names=np.array(kw_names, dtype=object),
    )


def _pick_rows(rng: RngStream, indptr, ids, rows, use, n_all: int) -> np.ndarray:
    """Per entry i, a uniform member of list rows[i] where use[i] holds and
    that list is not empty, else a uniform id below n_all; one integers draw."""
    counts = np.diff(indptr)[rows]
    use = use & (counts > 0)
    counts[~use] = n_all
    picks = rng.integers(0, counts)
    picks[use] = ids[indptr[rows[use]] + picks[use]]
    return picks


def _pick_positions(rng: RngStream, counts: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per row r, k[r] <= counts[r] distinct positions below counts[r] in
    ascending order, concatenated over the rows.

    Each row draws one uniform key per slot of the widest row (keys above 1
    pad the slots at and past counts[r]) and keeps its k[r] smallest keys: a
    uniform k[r]-subset, as _pick_distinct draws it.
    """
    width = int(counts.max(initial=0))
    keys = rng.random((len(counts), width))
    keys[np.arange(width) >= counts[:, None]] = 2.0
    picks = np.argsort(keys, axis=1)[:, : min(int(k.max(initial=0)), width)]
    dropped = np.arange(picks.shape[1]) >= k[:, None]
    picks[dropped] = width  # sorts after the row's kept picks
    picks.sort(axis=1)
    return picks[~dropped]


def _splits(flat: list, counts: np.ndarray) -> list[list]:
    """flat cut into consecutive lists of the given lengths (slices: no spare capacity)."""
    return [flat[a:b] for a, b in pairwise([0, *np.cumsum(counts).tolist()])]


# samples drawn per block. The draws' temporary arrays scale with the block,
# and their heap pages stay resident (see numeric.keep_freed_memory); the
# query keys are a block x widest-pool matrix, kept under 8 MB.
_BLOCK_SAMPLES = 1024
_BLOCK_KEYS = 1 << 20


def _draw_block(
    world: World, pools: _Pools, n: int, click: ClickModel, rng: RngStream
) -> tuple[list[Sample], np.ndarray]:
    # imported here, not in the header: loading numeric (and scipy.sparse with
    # it) before the rest of the package raised kdcn's import peak RSS by 1.5 MB
    from .numeric import sigmoid

    cfg = world.cfg
    n_cats, n_items, n_kws = len(world.categories), len(pools.item_names), len(pools.kw_names)
    user = rng.integers(0, len(world.users), size=n)
    cat = _pick_rows(rng, *pools.prefs, user, rng.random(n) < 0.8, n_cats)
    kw_ptr, kw_ids = pools.keywords
    n_kw = np.diff(kw_ptr)[cat]
    k = np.minimum(rng.integers(2, 5, size=n), n_kw)
    query_kw = kw_ids[np.repeat(kw_ptr[cat], k) + _pick_positions(rng, n_kw, k)]
    query_row = np.repeat(np.arange(n), k)
    item = _pick_rows(rng, *pools.pref_items, user, rng.random(n) < 0.5, n_items)

    tag_match = np.isin(user * n_cats + pools.item_cat[item], pools.pref_keys)
    in_title = np.isin(item[query_row] * n_kws + query_kw, pools.title_keys)
    overlap = np.bincount(query_row[in_title], minlength=n)
    in_cluster = np.isin(user * n_items + item, pools.cluster_keys)
    affinity = (
        click.w_tag_match * tag_match.astype(np.float64)
        + click.w_overlap * overlap
        + click.w_cluster * in_cluster.astype(np.float64)
    )
    p = sigmoid(cfg.affinity_strength * affinity + cfg.noise_std * rng.normal(size=n))
    label = rng.random(n) < p

    lengths = rng.integers(0, 7, size=(n, BEHAVIOR_KINDS))
    owner = np.repeat(user, lengths.sum(axis=1))
    behavior = _pick_rows(rng, *pools.cluster, owner, rng.random(len(owner)) < 0.7, n_items)

    queries = [" ".join(row) for row in _splits(pools.kw_names[query_kw].tolist(), k)]
    behaviors = _splits(pools.item_names[behavior].tolist(), lengths.ravel())
    samples = [
        Sample(
            user_id=world.users[u],
            behaviors=behaviors[BEHAVIOR_KINDS * r : BEHAVIOR_KINDS * (r + 1)],
            query=queries[r],
            candidate_item=it,
            categories=world.item_categories[it],
            dense=world.item_dense[it],
            label=lab,
        )
        for r, (u, it, lab) in enumerate(
            zip(user.tolist(), pools.item_names[item].tolist(), label.astype(int).tolist())
        )
    ]
    return samples, affinity


def draw_samples(
    world: World, n: int, click: ClickModel, rng: RngStream
) -> tuple[list[Sample], np.ndarray]:
    """Draw n labeled samples, with the float64 affinity of each.

    The samples are drawn in blocks, and each field is one array draw for
    the block, in the order of the module docstring. The affinity of sample
    r is exactly the module docstring's sum for its user, query keywords
    and candidate.
    """
    if n < 0:
        raise ConfigError(f"n_samples must be >= 0, got {n}")
    pools = _pools(world)
    widest = int(np.diff(pools.keywords[0]).max(initial=0))
    block = max(1, min(_BLOCK_SAMPLES, _BLOCK_KEYS // max(widest, 1)))
    samples, affinity = [], [np.zeros(0)]
    for start in range(0, n, block):
        drawn, drawn_affinity = _draw_block(world, pools, min(block, n - start), click, rng)
        samples += drawn
        affinity.append(drawn_affinity)
    return samples, np.concatenate(affinity)


def generate_samples(
    world: World, n: int, click: ClickModel, rng: RngStream
) -> SampleSplit:
    """Draw n labeled samples and split them 80/10/10 in generation order.

    Labels are Bernoulli draws of sigmoid(alpha * affinity + noise); half the
    candidates come from the user's preferred categories, half uniformly.
    A negative n is a ConfigError.
    """
    return split_loaded(draw_samples(world, n, click, rng)[0])


def save_samples(samples, path) -> None:
    write_lines(path, (json.dumps(s.to_dict()) for s in samples))


def _sample(line: str) -> Sample:
    try:
        return Sample.from_dict(json.loads(line.strip()))
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise ParseError(f"bad sample record ({exc})") from None


def load_samples(path) -> list[Sample]:
    return read_lines(path, _sample)


def iter_samples(path) -> Iterator[Sample]:
    """load_samples' records one at a time, as the file is read."""
    return iter_lines(path, _sample)


def split_loaded(samples: list[Sample]) -> SampleSplit:
    """Re-derive the 80/10/10 split of a samples.jsonl file by position."""
    n = len(samples)
    n_train = int(0.8 * n)
    n_valid = int(0.1 * n)
    return SampleSplit(
        samples[:n_train], samples[n_train : n_train + n_valid], samples[n_train + n_valid :]
    )

