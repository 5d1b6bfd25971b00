"""Joint pretraining of entity embeddings on the conversation graph.

Two modules are trained together: a stacked graph-convolution encoder that
propagates neighbor information through sigmoid layers, and a translation
scorer that rates a triple (h, r, t) by the L2 norm of h + r - t (lower is
more plausible). The encoder output is the entity table the scorer sees, so
one margin ranking loss drives both. Gradients are hand-derived per layer;
the whole loss is checkable against finite differences.

Each encoder layer l is one sparse operator S_l over all entities: forward
is sigmoid(S_l @ x @ W_l) and backward is S_l.T @ (...). The mode only
decides how S_l is built:
  full    - the normalized adjacency (sym or mean), the same for every layer
            and built once per pretrain call (guarded by the dense size
            limit);
  sampled - per batch and layer, row i averages a bounded sample of the
            entity's neighbors (rows scaled by 1/count), the scalable path.
            With fanout >= max degree the sample covers every neighbor and
            sampled mode reproduces full mode under mean normalization.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    FormatError,
    SamplingError,
    TrainingError,
    require_positive,
)
from .graph import DENSE_ADJACENCY_GUARD, Graph, Triple, TripleSet
from .numeric import ParamStore, adam_step, sigmoid
from .rng import RngStream


@dataclass
class PretrainConfig:
    dim: int = 64
    layers: int = 2
    fanout: int = 10
    margin: float = 1.0
    lr: float = 1e-4
    batch_size: int = 512
    epochs: int = 5
    negatives_per_positive: int = 1
    mode: str = "full"  # or "sampled"
    aggregation: str = "sym"  # or "mean"
    self_loops: bool = True

    def __post_init__(self):
        require_positive(self, "dim", "layers", "fanout", "batch_size")
        if self.margin <= 0:
            raise ConfigError("margin must be positive")
        if self.mode not in ("full", "sampled"):
            raise ConfigError(f"unknown mode '{self.mode}'")
        if self.aggregation not in ("sym", "mean"):
            raise ConfigError(f"unknown aggregation '{self.aggregation}'")


class PretrainParams:
    """View over a ParamStore holding the encoder and scorer parameters."""

    def __init__(self, store: ParamStore, layers: int):
        self.store = store
        self.layers = layers

    @property
    def entity_table(self) -> np.ndarray:
        return self.store.value("entity_table")

    @property
    def relation_table(self) -> np.ndarray:
        return self.store.value("relation_table")

    @property
    def gcn_weights(self) -> list[np.ndarray]:
        return [self.store.value(f"gcn_w{i}") for i in range(self.layers)]


def init_params(n_entities: int, n_relations: int, cfg: PretrainConfig, rng: RngStream) -> PretrainParams:
    """Uniform init in [-6/sqrt(d), 6/sqrt(d)] for all tables and weights."""
    bound = 6.0 / np.sqrt(cfg.dim)
    store = ParamStore()
    store.add("entity_table", rng.uniform(-bound, bound, (n_entities, cfg.dim)))
    store.add("relation_table", rng.uniform(-bound, bound, (n_relations, cfg.dim)))
    for i in range(cfg.layers):
        store.add(f"gcn_w{i}", rng.uniform(-bound, bound, (cfg.dim, cfg.dim)))
    return PretrainParams(store, cfg.layers)


def _sparse_norm_adjacency(g: Graph, self_loops: bool, kind: str):
    """Sparse normalized adjacency and its transpose (CSR)."""
    n = g.n_entities
    rows = np.repeat(np.arange(n, dtype=np.int64), g.degrees)
    cols = np.concatenate(g.adjacency) if n else np.zeros(0, dtype=np.int64)
    if self_loops:
        rows = np.concatenate([rows, np.arange(n, dtype=np.int64)])
        cols = np.concatenate([cols, np.arange(n, dtype=np.int64)])
    a = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n), dtype=np.float64)
    deg = np.asarray(a.sum(axis=1)).ravel()
    if kind == "sym":
        with np.errstate(divide="ignore"):
            dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        norm = sp.diags(dinv) @ a @ sp.diags(dinv)
    else:
        with np.errstate(divide="ignore"):
            dinv = np.where(deg > 0, 1.0 / deg, 0.0)
        norm = sp.diags(dinv) @ a
    norm = norm.tocsr()
    return norm, norm.T.tocsr()


def _full_operators(g: Graph, cfg: PretrainConfig) -> list:
    """Full mode's per-layer (S, S.T): the normalized adjacency, shared by every layer."""
    if g.n_entities > DENSE_ADJACENCY_GUARD:
        raise CapacityError(
            f"full mode on {g.n_entities} entities exceeds the guard of "
            f"{DENSE_ADJACENCY_GUARD}; use sampled mode"
        )
    return [_sparse_norm_adjacency(g, cfg.self_loops, cfg.aggregation)] * cfg.layers


def sample_layer_draws(g: Graph, cfg: PretrainConfig, rng: RngStream) -> list:
    """Draw the per-layer operators (S, S.T) of one sampled-mode forward pass.

    Row i of S averages the entity's draw: all neighbors when degree <=
    fanout, otherwise a uniform fanout-sized subset without replacement, plus
    the entity itself when self-loops are on (isolated entities fall back to
    just themselves). Each row is scaled by 1/count. Only entities above the
    fanout consume randomness, one draw each, in id order, layer by layer.
    """
    n, deg = g.n_entities, g.degrees
    ids = np.arange(n, dtype=np.int64)
    has_self = (deg == 0) | cfg.self_loops
    counts = np.minimum(deg, cfg.fanout) + has_self
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    data = np.repeat(1.0 / counts, counts)

    # row slots of the neighbors of entities that keep their whole neighborhood
    neighbors = np.concatenate(g.adjacency) if n else np.zeros(0, dtype=np.int64)
    owner = np.repeat(ids, deg)
    offset = np.arange(len(neighbors)) - np.repeat(np.cumsum(deg) - deg, deg)
    keep = deg[owner] <= cfg.fanout
    keep_slots = indptr[owner[keep]] + offset[keep]
    big = np.flatnonzero(deg > cfg.fanout)
    big_slots = (indptr[big, None] + np.arange(cfg.fanout)).ravel()
    self_slots = indptr[1:][has_self] - 1

    operators = []
    for _ in range(cfg.layers):
        indices = np.empty(indptr[-1], dtype=np.int64)
        indices[keep_slots] = neighbors[keep]
        if len(big):
            indices[big_slots] = np.concatenate(
                [rng.choice(g.adjacency[i], size=cfg.fanout, replace=False) for i in big]
            )
        indices[self_slots] = ids[has_self]
        s = sp.csr_matrix((data, indices, indptr), shape=(n, n))
        operators.append((s, s.T.tocsr()))
    return operators


def _encode_forward(params: PretrainParams, operators: list):
    """Run the encoder, layer l computing sigmoid(S_l @ x @ W_l).

    Returns (output, cache) for the matching backward.
    """
    x = params.entity_table
    cache: dict = {"operators": operators, "inputs": [], "outputs": []}
    for (s, _), w in zip(operators, params.gcn_weights):
        propagated = s @ x
        x = sigmoid(propagated @ w)
        cache["inputs"].append(propagated)
        cache["outputs"].append(x)
    return x, cache


def _encode_backward(params: PretrainParams, cache: dict, d_out: np.ndarray):
    """Backprop through the encoder stack; returns (d_entity_table, [dW...])."""
    weights = params.gcn_weights
    d_ws = [None] * len(weights)
    grad = d_out
    for layer in range(len(weights) - 1, -1, -1):
        out = cache["outputs"][layer]
        pre = grad * out * (1.0 - out)
        d_ws[layer] = cache["inputs"][layer].T @ pre
        grad = cache["operators"][layer][1] @ (pre @ weights[layer].T)
    return grad, d_ws


def _operators(g: Graph, cfg: PretrainConfig, draws, rng: RngStream | None = None) -> list:
    """The given per-layer operators, else full mode's or a fresh draw from rng."""
    if draws is not None:
        return draws
    if cfg.mode == "full":
        return _full_operators(g, cfg)
    if rng is None:
        raise ConfigError("sampled mode needs precomputed draws or an rng stream")
    return sample_layer_draws(g, cfg, rng)


def encode_entities(
    params: PretrainParams,
    g: Graph,
    cfg: PretrainConfig,
    rng: RngStream | None = None,
    draws=None,
) -> np.ndarray:
    """Entity embeddings from the encoder stack, shape n_entities x dim.

    Uses the given per-layer operators; without them, full mode builds its
    own and sampled mode draws them from rng.
    """
    out, _ = _encode_forward(params, _operators(g, cfg, draws, rng))
    return out


def transe_score(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> float:
    """L2 norm of h + r - t; lower means a more plausible triple."""
    h, r, t = (np.asarray(v, dtype=np.float64).ravel() for v in (h, r, t))
    if not (h.shape == r.shape == t.shape):
        raise DimensionError(f"mismatched dims {h.shape}, {r.shape}, {t.shape}")
    return float(np.linalg.norm(h + r - t))


def margin_loss(pos, neg, gamma: float) -> float:
    """Sum over pairs of max(0, pos + gamma - neg)."""
    pos = np.asarray(pos, dtype=np.float64).ravel()
    neg = np.asarray(neg, dtype=np.float64).ravel()
    if pos.shape != neg.shape:
        raise DimensionError(f"pos has {pos.size} scores, neg has {neg.size}")
    return float(np.maximum(0.0, pos + gamma - neg).sum())


def negative_sample(triple: Triple, g: Graph, rng: RngStream, max_attempts: int = 100) -> Triple:
    """Corrupt the head or tail (p=0.5 each) with a uniform entity.

    Resamples until the corrupted triple is absent from the known set;
    relations are never replaced.
    """
    tset = g.triples
    n = tset.n_entities
    if n == 0:
        raise SamplingError("cannot sample from an empty graph")
    for _ in range(max_attempts):
        replace_head = rng.random() < 0.5
        candidate = int(rng.integers(0, n))
        if replace_head:
            corrupted = Triple(candidate, triple.relation, triple.tail)
        else:
            corrupted = Triple(triple.head, triple.relation, candidate)
        if not tset.has(corrupted.head, corrupted.relation, corrupted.tail):
            return corrupted
    raise SamplingError(
        f"no valid corruption found for {triple} after {max_attempts} attempts"
    )


def _pair_scores(x: np.ndarray, rel: np.ndarray, pos: np.ndarray, neg: np.ndarray):
    """Stacked (positives, then negatives) pairs, their residuals h + r - t and norms."""
    pairs = np.concatenate([pos, neg])
    diff = x[pairs[:, 0]] + rel[pairs[:, 1]] - x[pairs[:, 2]]
    return pairs, diff, np.linalg.norm(diff, axis=1)


def pretrain_loss(
    params: PretrainParams,
    g: Graph,
    cfg: PretrainConfig,
    pos: np.ndarray,
    neg: np.ndarray,
    draws=None,
) -> float:
    """Margin ranking loss of fixed positive/negative pairs (pure forward)."""
    x, _ = _encode_forward(params, _operators(g, cfg, draws))
    _, _, s = _pair_scores(x, params.relation_table, pos, neg)
    return margin_loss(s[: len(pos)], s[len(pos) :], cfg.margin)


def pretrain_loss_grads(
    params: PretrainParams,
    g: Graph,
    cfg: PretrainConfig,
    pos: np.ndarray,
    neg: np.ndarray,
    draws=None,
) -> float:
    """Compute the pair loss and accumulate analytic grads into the store."""
    x, cache = _encode_forward(params, _operators(g, cfg, draws))
    rel = params.relation_table
    pairs, diff, s = _pair_scores(x, rel, pos, neg)
    margins = s[: len(pos)] + cfg.margin - s[len(pos) :]
    active = margins > 0
    loss = float(margins[active].sum())

    # d loss / d score: +1 for active positives, -1 for active negatives;
    # a zero residual has no direction and gets no gradient
    sign = np.concatenate([1.0 * active, -1.0 * active]) * (s > 0)
    unit = diff / np.where(s > 0, s, 1.0)[:, None]
    unit *= sign[:, None]

    # one signed incidence operator scatters every pair's direction: + onto
    # its head, - onto its tail, + onto its relation (rows after the entities)
    n = len(x)
    targets = np.stack([pairs[:, 0], pairs[:, 2], n + pairs[:, 1]], axis=1).ravel()
    incidence = sp.csc_matrix(
        (np.tile([1.0, -1.0, 1.0], len(pairs)), targets, np.arange(0, len(targets) + 1, 3)),
        shape=(n + len(rel), len(pairs)),
    )
    d_all = incidence @ unit

    d_entity, d_ws = _encode_backward(params, cache, d_all[:n])
    store = params.store
    store.grad("entity_table")[...] += d_entity
    store.grad("relation_table")[...] += d_all[n:]
    for i, dw in enumerate(d_ws):
        store.grad(f"gcn_w{i}")[...] += dw
    return loss


@dataclass
class PretrainCheckpoint:
    """Final embedding tables: encoder output per entity, learned relations."""

    entity_table: np.ndarray
    relation_table: np.ndarray

    @property
    def dim(self) -> int:
        return self.entity_table.shape[1]


@dataclass
class PretrainResult:
    checkpoint: PretrainCheckpoint
    epoch_losses: list[float] = field(default_factory=list)
    params: PretrainParams | None = None


def pretrain(tset: TripleSet, g: Graph, cfg: PretrainConfig, rng: RngStream) -> PretrainResult:
    """Minibatch joint training of encoder and scorer with Adam.

    Each batch corrupts its positives, encodes the graph with the current
    parameters, applies the margin ranking loss, and steps all parameters.
    Full mode builds its propagation operator once per call; sampled mode
    draws new operators for every batch. Per-epoch mean loss (per positive
    pair) is recorded. The returned checkpoint holds the encoder output as
    the entity table.
    """
    rng_init = rng.child("init")
    rng_shuffle = rng.child("shuffle")
    rng_negative = rng.child("negative")
    rng_encode = rng.child("encode")

    params = init_params(tset.n_entities, tset.n_relations, cfg, rng_init)
    triples = np.array(
        [[tr.head, tr.relation, tr.tail] for tr in tset.triples], dtype=np.int64
    )
    npp = cfg.negatives_per_positive
    full = _full_operators(g, cfg) if cfg.mode == "full" else None
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng_shuffle.permutation(len(triples))
        total, pairs = 0.0, 0
        for bstart in range(0, len(order), cfg.batch_size):
            bidx = order[bstart : bstart + cfg.batch_size]
            pos = np.repeat(triples[bidx], npp, axis=0)
            neg = np.empty_like(pos)
            for i, row in enumerate(pos):
                corrupted = negative_sample(Triple(*row), g, rng_negative)
                neg[i] = (corrupted.head, corrupted.relation, corrupted.tail)
            draws = _operators(g, cfg, full, rng_encode)
            loss = pretrain_loss_grads(params, g, cfg, pos, neg, draws)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} batch {bstart // cfg.batch_size}"
                )
            total += loss
            pairs += len(pos)
            adam_step(params.store, cfg.lr)
        losses.append(total / max(pairs, 1))

    entity_out = encode_entities(params, g, cfg, rng_encode, full)
    ckpt = PretrainCheckpoint(entity_out, params.relation_table.copy())
    return PretrainResult(ckpt, losses, params)


CHECKPOINT_MAGIC = b"CKGE"
CHECKPOINT_VERSION = 1
# header: magic(4) + version u32 + n_entities u64 + n_relations u64 + dim u32
_HEADER = struct.Struct("<4sIQQI")


def export_checkpoint(ckpt: PretrainCheckpoint, path) -> None:
    """Write the checkpoint: fixed header, then f32 little-endian rows."""
    n_e, dim = ckpt.entity_table.shape
    n_r = ckpt.relation_table.shape[0]
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, n_e, n_r, dim))
        fh.write(ckpt.entity_table.astype("<f4").tobytes())
        fh.write(ckpt.relation_table.astype("<f4").tobytes())


def load_checkpoint(path) -> PretrainCheckpoint:
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, n_e, n_r, dim = _HEADER.unpack(raw)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        payload = fh.read()
    expected = 4 * dim * (n_e + n_r)
    if len(payload) != expected:
        raise FormatError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    entity = flat[: n_e * dim].reshape(n_e, dim)
    relation = flat[n_e * dim :].reshape(n_r, dim)
    return PretrainCheckpoint(entity, relation)


def hits_at_k(
    ckpt: PretrainCheckpoint,
    tset: TripleSet,
    eval_triples: list[Triple],
    rng: RngStream,
    k: int = 10,
    n_candidates: int = 50,
) -> float:
    """Filtered tail-prediction Hits@k among uniformly sampled candidates.

    For each triple the true tail competes against n_candidates-1 distinct
    entities that do not form a known-true triple with the same head and
    relation. Rank counts candidates scoring <= the true tail (ties count
    against the hit).
    """
    x, rel = ckpt.entity_table, ckpt.relation_table
    n = tset.n_entities
    hits = 0
    for tr in eval_triples:
        chosen: list[int] = []
        seen = {tr.tail}
        attempts = 0
        while len(chosen) < n_candidates - 1 and attempts < 50 * n_candidates:
            cand = int(rng.integers(0, n))
            attempts += 1
            if cand in seen or tset.has(tr.head, tr.relation, cand):
                continue
            seen.add(cand)
            chosen.append(cand)
        base = x[tr.head] + rel[tr.relation]
        true_score = np.linalg.norm(base - x[tr.tail])
        cand_scores = np.linalg.norm(base[None, :] - x[chosen], axis=1)
        rank = 1 + int(np.sum(cand_scores <= true_score))
        if rank <= k:
            hits += 1
    return hits / max(len(eval_triples), 1)
