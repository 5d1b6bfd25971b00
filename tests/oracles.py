"""Reference semantics the library's batched code is checked against.

These are the direct, per-entity, per-sample or dense forms of operations
that ``kdcn`` implements with batched arrays and sparse operators. Nothing
under ``src/`` uses them; the tests compare the library against them.
"""

from __future__ import annotations

import numpy as np

from kdcn.errors import CapacityError, DimensionError
from kdcn.features import AttentionParams, BehaviorLog, ConvParams, behavior_matrix
from kdcn.graph import DENSE_ADJACENCY_GUARD, Graph
from kdcn.model import Featurizer, KdcnModel
from kdcn.numeric import relu, sigmoid
from kdcn.pretrain import PretrainConfig
from kdcn.rng import RngStream


def normalized_adjacency(g: Graph, self_loops: bool = True, kind: str = "sym") -> np.ndarray:
    """Dense normalized adjacency for small graphs.

    kind="sym" gives the symmetric normalization D^-1/2 (A + I) D^-1/2;
    kind="mean" gives row normalization D^-1 (A + I), the dense counterpart
    of mean-of-neighbors aggregation. Degree-zero rows stay all-zero.
    """
    n = g.n_entities
    if n > DENSE_ADJACENCY_GUARD:
        raise CapacityError(
            f"graph has {n} entities, above the dense guard of {DENSE_ADJACENCY_GUARD}"
        )
    if kind not in ("sym", "mean"):
        raise ValueError(f"unknown normalization kind '{kind}'")
    a = np.zeros((n, n), dtype=np.float64)
    for i, neigh in enumerate(g.adjacency):
        a[i, neigh] = 1.0
    if self_loops:
        np.fill_diagonal(a, 1.0)
    deg = a.sum(axis=1)
    if kind == "sym":
        with np.errstate(divide="ignore"):
            dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        return dinv[:, None] * a * dinv[None, :]
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / deg, 0.0)
    return dinv[:, None] * a


def sample_neighbors(g: Graph, entity: int, fanout: int, rng: RngStream) -> np.ndarray:
    """Draw exactly fanout neighbor ids for one entity.

    Degree >= fanout samples uniformly without replacement; a smaller positive
    degree samples with replacement up to fanout; an isolated entity falls
    back to itself repeated fanout times.
    """
    if not 0 <= entity < g.n_entities:
        raise IndexError(f"entity {entity} out of range [0, {g.n_entities})")
    if fanout < 1:
        raise ValueError("fanout must be >= 1")
    neigh = g.adjacency[entity]
    if len(neigh) == 0:
        return np.full(fanout, entity, dtype=np.int64)
    if len(neigh) >= fanout:
        return rng.choice(neigh, size=fanout, replace=False).astype(np.int64)
    return rng.choice(neigh, size=fanout, replace=True).astype(np.int64)


def gcn_layer(x: np.ndarray, a_norm: np.ndarray, w: np.ndarray) -> np.ndarray:
    """One propagation step: sigmoid(a_norm @ x @ w)."""
    n = a_norm.shape[0]
    if a_norm.shape != (n, n):
        raise DimensionError(f"a_norm must be square, got {a_norm.shape}")
    if x.shape[0] != n:
        raise DimensionError(f"x has {x.shape[0]} rows, adjacency has {n}")
    if w.shape != (x.shape[1], x.shape[1]):
        raise DimensionError(f"w shape {w.shape} does not match feature dim {x.shape[1]}")
    return sigmoid(a_norm @ x @ w)


def layer_draws(g: Graph, cfg: PretrainConfig, rng: RngStream) -> list[np.ndarray]:
    """Per-layer dense sampled-mode operators, drawn one entity at a time.

    Per entity the draw covers all neighbors when degree <= fanout, otherwise
    a uniform fanout-sized subset without replacement; the entity itself is
    appended when self-loops are on (isolated entities fall back to just
    themselves). Row i holds 1/count at each drawn id. Entities are visited
    in id order, layer by layer.
    """
    operators = []
    for _ in range(cfg.layers):
        s = np.zeros((g.n_entities, g.n_entities))
        for i in range(g.n_entities):
            neigh = g.adjacency[i]
            if len(neigh) == 0:
                chosen = [i]
            else:
                if len(neigh) <= cfg.fanout:
                    chosen = list(neigh)
                else:
                    chosen = list(rng.choice(neigh, size=cfg.fanout, replace=False))
                if cfg.self_loops:
                    chosen.append(i)
            s[i, chosen] = 1.0 / len(chosen)
        operators.append(s)
    return operators


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function from one exp of -|x|, split on the sign of x."""
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def cross_forward(f: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Stacked cross layers on one vector: x <- f * (x . w) + b + x, x0 = f."""
    f = np.asarray(f, dtype=np.float64).ravel()
    x = f
    for w, b in layers:
        w = np.asarray(w, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        if w.shape != f.shape or b.shape != f.shape:
            raise DimensionError(
                f"cross layer shapes {w.shape}/{b.shape} do not match input {f.shape}"
            )
        x = f * float(x @ w) + b + x
    return x


def cross_layers(f: np.ndarray, ws: list[np.ndarray], bs: list[np.ndarray]):
    """The cross tower one batched layer at a time: x <- f * (x @ w) + b.T + x.

    ws and bs hold (F, 1) columns. Returns (x_L, per-layer (x_l, s_l) cache).
    """
    x = f
    layers = []
    for w, b in zip(ws, bs):
        s = x @ w
        layers.append((x, s))
        x = f * s + b.T + x
    return x, layers


def cross_layers_backward(f: np.ndarray, dx: np.ndarray, ws: list[np.ndarray], layers):
    """Gradients (df, dws, dbs) of cross_layers, layer by layer from the top."""
    df = np.zeros_like(f)
    dws, dbs = [None] * len(ws), [None] * len(ws)
    for i in range(len(ws) - 1, -1, -1):
        x, s = layers[i]
        dbs[i] = dx.sum(axis=0)[:, None]
        df += dx * s
        ds = (dx * f).sum(axis=1, keepdims=True)
        dws[i] = x.T @ ds
        dx = dx + ds @ ws[i].T
    df += dx
    return df, dws, dbs


def deep_forward(f: np.ndarray, layers: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Fully-connected ReLU stack on one vector."""
    x = np.asarray(f, dtype=np.float64).ravel()
    for w, b in layers:
        b = np.asarray(b, dtype=np.float64).ravel()
        if w.shape[1] != x.shape[0] or w.shape[0] != b.shape[0]:
            raise DimensionError(f"deep layer shape {w.shape} does not chain from {x.shape}")
        x = relu(w @ x + b)
    return x


def predict(f: np.ndarray, model: KdcnModel) -> float:
    """Probability for one assembled feature vector."""
    cfg = model.cfg
    towers = []
    if cfg.use_cross:
        layers = [
            (model.store.value(f"cross_w{i}").ravel(), model.store.value(f"cross_b{i}").ravel())
            for i in range(cfg.n_cross)
        ]
        towers.append(cross_forward(f, layers))
    if cfg.use_deep:
        layers = [
            (model.store.value(f"deep_w{i}"), model.store.value(f"deep_b{i}").ravel())
            for i in range(cfg.deep_layers)
        ]
        towers.append(deep_forward(f, layers))
    z = np.concatenate(towers)
    return float(sigmoid(z @ model.store.value("logits_w").ravel()))


def conv_params(model: KdcnModel) -> ConvParams:
    """The model's user-state filter banks in per-sample form."""
    cfg = model.cfg
    filters = {
        w: model.store.value(f"conv_w{w}").reshape(cfg.conv_filters, model.dim, w)
        for w in cfg.conv_widths
    }
    biases = {w: model.store.value(f"conv_b{w}")[:, 0] for w in cfg.conv_widths}
    return ConvParams(model.n_behavior_kinds, filters, biases)


def attention_params(model: KdcnModel) -> AttentionParams:
    """The model's dialogue attention projections in per-sample form."""
    return AttentionParams(
        model.cfg.attention_heads,
        model.store.value("attn_query"),
        model.store.value("attn_key"),
        model.store.value("attn_value"),
    )


def sample_features(featurizer: Featurizer, sample) -> tuple[np.ndarray, list, list, np.ndarray]:
    """One sample's (d x k behavior matrix, keyword ids, category slots, dense row)."""
    f = featurizer
    blog = BehaviorLog([[f.item_id(name) for name in beh] for beh in sample.behaviors])
    kw = f.query_keyword_ids(sample.query) + f.title_keyword_ids(sample.candidate_item)
    cats = [f.category_index[c] for c in sample.categories[: f.cfg.n_cat_slots]]
    dense = (np.asarray(sample.dense, dtype=np.float64) - f.dense_mean) / f.dense_std
    return behavior_matrix(blog, f.table), kw, cats, dense


def behavior_scatter(featurizer: Featurizer, samples) -> tuple[np.ndarray, ...]:
    """Flat behavior item ids, their owner rows (i*k + kind) and per-row counts."""
    k = featurizer.n_behavior_kinds
    src, owner = [], []
    counts = np.zeros(len(samples) * k, dtype=np.int64)
    for row, s in enumerate(samples):
        for kind, beh in enumerate(s.behaviors):
            src.extend(featurizer.item_id(name) for name in beh)
            owner.extend([row * k + kind] * len(beh))
            counts[row * k + kind] = len(beh)
    return np.array(src, dtype=np.int64), np.array(owner, dtype=np.int64), counts


def scatter_dtable(src, owner, counts, dmean: np.ndarray, n_entities: int) -> np.ndarray:
    """Fine-tuning gradient of the entity table from per-row mean gradients."""
    dtable = np.zeros((n_entities, dmean.shape[1]))
    np.add.at(dtable, src, (dmean / np.maximum(counts, 1)[:, None])[owner])
    return dtable
