"""Seeded synthetic world and labeled CTR samples.

The generator plants real structure into the knowledge graph so that
knowledge-derived features carry signal: each user tag prefers two
categories, sellers specialize in categories, item titles and session
keywords draw from per-category pools, and every user gets a planted
preference cluster of items. The click model scores a (user, query, item)
triplet from that planted structure alone, so a feature pipeline that reads
the graph can recover it, and the affinity knob makes the labels anywhere
from pure noise (alpha=0) to near-deterministic.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParseError, require_positive
from .graph import TripleSet, ingest_events
from .rng import RngStream
from .textfile import read_lines, write_lines

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
        require_positive(self, "n_users", "n_items", "n_categories", "n_sellers", "n_tags",
                         "n_keywords", "n_sessions")


@dataclass
class ClickModel:
    """Ground-truth affinity weights for (user, query, item) triplets."""

    w_tag_match: float = 1.0
    w_overlap: float = 0.75
    w_cluster: float = 1.0

    def affinity(self, world: "World", user: str, query_keywords: list[str], item: str) -> float:
        tag_match = 1.0 if world.item_category[item] in world.user_pref_cats[user] else 0.0
        overlap = len(set(query_keywords) & set(world.item_title_kws[item]))
        cluster = 1.0 if item in world.user_cluster_sets[user] else 0.0
        return (
            self.w_tag_match * tag_match
            + self.w_overlap * overlap
            + self.w_cluster * cluster
        )


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
    item_titles: dict[str, str]
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
    item_titles = {}
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
        item_titles[item] = " ".join(title_kws)
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
                    "title": item_titles[item],
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
        item_titles=item_titles,
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
        for key in ("behaviors", "categories", "dense"):
            if not isinstance(d[key], list):
                raise TypeError(f"{key} must be a list, got {d[key]!r}")
        if d["label"] not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {d['label']!r}")
        values = {key: d[key] for key in SAMPLE_KEYS}  # other keys are ignored
        return cls(**{**values, "dense": [float(v) for v in d["dense"]], "label": int(d["label"])})


SAMPLE_KEYS = tuple(f.name for f in fields(Sample))


@dataclass
class SampleSplit:
    train: list[Sample] = field(default_factory=list)
    valid: list[Sample] = field(default_factory=list)
    test: list[Sample] = field(default_factory=list)

    def all(self) -> list[Sample]:
        return self.train + self.valid + self.test


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def generate_samples(
    world: World, n: int, click: ClickModel, rng: RngStream
) -> SampleSplit:
    """Draw n labeled samples and split them 80/10/10 in generation order.

    Labels are Bernoulli draws of sigmoid(alpha * affinity + noise); half the
    candidates come from the user's preferred categories, half uniformly.
    """
    cfg = world.cfg
    samples: list[Sample] = []
    for _ in range(n):
        user = _pick(rng, world.users)
        prefs = world.user_pref_cats[user]
        cat = _pick(rng, prefs) if prefs and rng.random() < 0.8 else _pick(rng, world.categories)
        query_kws = _pick_distinct(rng, world.category_keywords[cat], int(rng.integers(2, 5)))
        if prefs and rng.random() < 0.5:
            pool = [it for c in prefs for it in world.items_by_category[c]]
            item = _pick(rng, pool) if pool else _pick(rng, world.items)
        else:
            item = _pick(rng, world.items)
        affinity = click.affinity(world, user, query_kws, item)
        p = _sigmoid(cfg.affinity_strength * affinity + cfg.noise_std * float(rng.normal()))
        label = 1 if rng.random() < p else 0
        behaviors = []
        cluster = world.user_cluster[user]
        for _kind in range(BEHAVIOR_KINDS):
            length = int(rng.integers(0, 7))
            chosen = []
            for _j in range(length):
                if cluster and rng.random() < 0.7:
                    chosen.append(_pick(rng, cluster))
                else:
                    chosen.append(_pick(rng, world.items))
            behaviors.append(chosen)
        samples.append(
            Sample(
                user_id=user,
                behaviors=behaviors,
                query=" ".join(query_kws),
                candidate_item=item,
                categories=world.item_categories[item],
                dense=world.item_dense[item],
                label=label,
            )
        )
    return split_loaded(samples)


def save_samples(samples, path) -> None:
    write_lines(path, (json.dumps(s.to_dict()) for s in samples))


def _sample(line: str) -> Sample:
    try:
        return Sample.from_dict(json.loads(line.strip()))
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise ParseError(f"bad sample record ({exc})") from None


def load_samples(path) -> list[Sample]:
    return read_lines(path, _sample)


def split_loaded(samples: list[Sample]) -> SampleSplit:
    """Re-derive the 80/10/10 split of a samples.jsonl file by position."""
    n = len(samples)
    n_train = int(0.8 * n)
    n_valid = int(0.1 * n)
    return SampleSplit(
        samples[:n_train], samples[n_train : n_train + n_valid], samples[n_train + n_valid :]
    )


def tag_category_mutual_information(world: World) -> float:
    """Empirical MI between a session user's first tag and the session topic."""
    pairs = [
        (world.user_tags[u][0], c)
        for u, c in zip(world.session_user, world.session_category)
    ]
    return mutual_information(pairs)


def mutual_information(pairs) -> float:
    joint, n = Counter(pairs), len(pairs)
    mx, my = Counter(x for x, _ in pairs), Counter(y for _, y in pairs)
    mi = 0.0
    for (x, y), c in joint.items():
        pxy = c / n
        mi += pxy * math.log(pxy * n * n / (mx[x] * my[y]))
    return mi
