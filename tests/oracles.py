"""Reference semantics the library's batched code is checked against.

These are the direct, per-entity or dense forms of operations that
``kdcn`` implements with sparse operators. Nothing under ``src/`` uses
them; the tests compare the library against them.
"""

from __future__ import annotations

import numpy as np

from kdcn.errors import CapacityError, DimensionError
from kdcn.graph import DENSE_ADJACENCY_GUARD, Graph
from kdcn.numeric import sigmoid
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
