"""Joint pretraining of entity embeddings on the conversation graph.

Two modules are trained together: a stacked graph-convolution encoder that
propagates neighbor information through sigmoid layers, and a translation
scorer that rates a triple (h, r, t) by the L2 norm of h + r - t (lower is
more plausible). The encoder output is the entity table the scorer sees, so
one margin ranking loss drives both. Gradients are hand-derived per layer;
the whole loss is checkable against finite differences.

Each encoder layer l is one sparse operator S_l over all entities: forward
is sigmoid(S_l @ x @ W_l) and backward is S_l.T @ (...). sample_layer_draws
builds S_l in both modes, through numeric.incidence; row i holds the
entity's neighbors, capped at the fanout, then the entity itself (the
renormalization trick of Kipf & Welling), so no row is empty:
  sampled - per batch and layer, each entity above the fanout draws one
            uniform key per neighbor and keeps the fanout smallest, all in
            one array sort; each row is scaled by 1/count. This is the
            scalable path.
  full    - the fanout is the maximum degree, so nothing is drawn: one
            operator, shared by every layer and built once per pretrain
            call, normalized sym (1/sqrt(count_i * count_j)) or mean
            (1/count_i). With fanout >= max degree, sampled mode therefore
            reproduces full mode under mean normalization.

A batch computes only the rows its pairs read (the GraphSAGE minibatch
scheme): the top layer keeps those rows of S_L, each lower layer keeps the
rows that the layer above reads (numeric.ragged_rows), and the columns of
each kept block are compacted to them (numeric.incidence). Both modes share
this path; encode_entities is the all-rows case. Negatives are drawn per
batch as arrays: head/tail flips and candidate ids, checked against the
sorted keys of the known triples, with only the rejected rows redrawn;
hits_at_k draws its candidates alike.

The params are a ParamStore with the slots entity_table, relation_table
and gcn_w0 .. gcn_w{L-1}, read by name as the ranker reads its own.
pretrain trains in float32, the precision ckge.bin stores: it builds its
params from the float64 draws of init_draws rounded once, and every operator
below it keeps the dtype of the params it is given, so the parameters, their
gradients, Adam's moments and the returned checkpoint are float32. The
gradient oracle's params, params_from on the float64 draws, stay float64
throughout; they, the translation score, the margin loss and the
forward-only loss are test oracles (tests/oracles.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    FormatError,
    SamplingError,
    TrainingError,
    require_at_least,
    require_finite_positive,
    shown,
)
from .graph import RELATIONS, Graph, Triple, TripleSet
from .numeric import ParamStore, adam_step, incidence, ragged_rows, read_slots, sigmoid, write_slots
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
    mode: str = "full"  # or "sampled"
    aggregation: str = "sym"  # or "mean"; full mode only, sampled mode averages its draw

    def __post_init__(self):
        require_at_least(self, 0, "epochs")
        require_at_least(self, 1, "dim", "layers", "fanout", "batch_size")
        require_finite_positive(self, "margin", "lr")
        if self.mode not in ("full", "sampled"):
            raise ConfigError(f"unknown mode '{self.mode}'")
        if self.aggregation not in ("sym", "mean"):
            raise ConfigError(f"unknown aggregation '{self.aggregation}'")


def init_draws(
    n_entities: int, n_relations: int, cfg: PretrainConfig, rng: RngStream
) -> dict[str, np.ndarray]:
    """Uniform float64 draws in [-6/sqrt(d), 6/sqrt(d)] for all tables and weights, by slot name."""
    bound = 6.0 / np.sqrt(cfg.dim)
    draws = {
        "entity_table": rng.uniform(-bound, bound, (n_entities, cfg.dim)),
        "relation_table": rng.uniform(-bound, bound, (n_relations, cfg.dim)),
    }
    for i in range(cfg.layers):
        draws[f"gcn_w{i}"] = rng.uniform(-bound, bound, (cfg.dim, cfg.dim))
    return draws


def params_from(values: dict[str, np.ndarray]) -> ParamStore:
    """A store whose slots hold values, in their dtype."""
    store = ParamStore()
    for name, value in values.items():
        store.add(name, value)
    return store


def sample_layer_draws(g: Graph, cfg: PretrainConfig, rng: RngStream | None = None) -> list:
    """The per-layer operators S of one encoder pass, in either mode.

    Row i holds the entity's neighbors, then the entity itself, so an
    isolated entity's row holds just itself. Full mode keeps every neighbor
    (its fanout is the maximum degree), never reads rng, and every layer
    shares its one operator, weighted 1/sqrt(count_i * count_j) (sym) or
    1/count_i (mean), counts including the entity itself. Sampled mode keeps
    a uniform fanout-sized subset of a larger neighborhood: per layer, one
    uniform key per neighbor, the fanout smallest kept; it scales each row
    by 1/count.
    """
    full = cfg.mode == "full"
    if rng is None and not full:
        raise ConfigError("sampled mode needs precomputed draws or an rng stream")
    n, deg = g.n_entities, g.degrees
    fanout = g.max_degree() if full else cfg.fanout
    ids = np.arange(n, dtype=np.int64)
    counts = np.minimum(deg, fanout) + 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    sym = full and cfg.aggregation == "sym"
    scale = 1.0 / (np.sqrt(counts) if sym else counts)
    data = np.repeat(scale, counts)

    # row i keeps the first min(deg_i, fanout) of its CSR neighbors; for an
    # entity above the fanout they are first shuffled, by sorting owner + a
    # uniform key over the CSR positions of such entities' neighbors
    owner = np.repeat(ids, deg)
    drawn = np.flatnonzero(deg[owner] > fanout)
    position = np.arange(len(owner)) - g.indptr[owner]
    kept = np.flatnonzero(position < fanout)
    slots = indptr[owner[kept]] + position[kept]
    self_slots = indptr[1:] - 1

    operators = []
    for _ in range(1 if full else cfg.layers):
        indices = np.empty(indptr[-1], dtype=np.int64)
        order = np.arange(len(owner))
        if len(drawn):
            order[drawn] = drawn[np.argsort(owner[drawn] + rng.random(len(drawn)))]
        indices[slots] = g.indices[order[kept]]
        indices[self_slots] = ids
        values = data * scale[indices] if sym else data
        operators.append(incidence(indices, values, n, indptr))
    return operators * cfg.layers if full else operators


def _restrict(operators: list, rows: np.ndarray, dtype: np.dtype):
    """Restrict the encoder stack to the output rows a batch reads.

    Works from the top layer down: layer l keeps the rows of S_l that the
    layer above reads, with its columns compacted to the rows that layer l-1
    must produce. Returns the entity-table rows that layer 1 reads and the
    compact operators A_l of the given dtype, bottom layer first (scipy
    would upcast a float32 product with a float64 operator).
    """
    compact = []
    for s in reversed(operators):
        ptr, pos = ragged_rows(s.indptr, rows)
        cols = s.indices[pos]
        used = np.zeros(s.shape[1], dtype=bool)
        used[cols] = True
        rows = np.flatnonzero(used)
        local = np.empty(s.shape[1], dtype=np.int64)
        local[rows] = np.arange(len(rows))
        compact.append(incidence(local[cols], s.data[pos].astype(dtype, copy=False), len(rows), ptr))
    return rows, compact[::-1]


def _encode_forward(params: ParamStore, operators: list, rows: np.ndarray):
    """Encoder output at the given entity rows, computing only what they need.

    Layer l computes sigmoid(A_l @ x @ W_l) over its compact rows (see
    _restrict), W_l the slot gcn_w{l}. Returns (output, cache) for the
    matching backward.
    """
    table = params.value("entity_table")
    table_rows, compact = _restrict(operators, rows, table.dtype)
    x = table[table_rows]
    cache: dict = {"table_rows": table_rows, "operators": compact, "inputs": [], "outputs": []}
    for i, a in enumerate(compact):
        propagated = a @ x
        x = sigmoid(propagated @ params.value(f"gcn_w{i}"))
        cache["inputs"].append(propagated)
        cache["outputs"].append(x)
    return x, cache


def _encode_backward(params: ParamStore, cache: dict, d_out: np.ndarray):
    """Backprop through the restricted stack.

    Returns (d_table, [dW...]), where d_table holds the gradient of the
    entity-table rows cache["table_rows"].
    """
    d_ws = [None] * len(cache["operators"])
    grad = d_out
    for layer in range(len(d_ws) - 1, -1, -1):
        out = cache["outputs"][layer]
        pre = grad * out * (1.0 - out)
        d_ws[layer] = cache["inputs"][layer].T @ pre
        grad = cache["operators"][layer].T @ (pre @ params.value(f"gcn_w{layer}").T)
    return grad, d_ws


def encode_entities(
    params: ParamStore,
    g: Graph,
    cfg: PretrainConfig,
    rng: RngStream | None = None,
    draws=None,
) -> np.ndarray:
    """Entity embeddings from the encoder stack, shape n_entities x dim.

    Uses the given per-layer operators; without them, full mode builds its
    own and sampled mode draws them from rng.
    """
    operators = draws if draws is not None else sample_layer_draws(g, cfg, rng)
    out, _ = _encode_forward(params, operators, np.arange(g.n_entities))
    return out


def _triple_keys(triples: np.ndarray, n_entities: int) -> np.ndarray:
    """The int64 key (h*R + r)*n + t of each (h, r, t) row, R the relation count.

    Keys run up to R*n*n - 1, and _known_keys closes them with a sentinel at
    the int64 maximum, so n must keep R*n*n within int64 (n up to about
    1.01e9 with the nine relations); a larger graph raises CapacityError
    rather than wrapping around.
    """
    if len(RELATIONS) * int(n_entities) ** 2 > np.iinfo(np.int64).max:
        raise CapacityError(
            f"{n_entities} entities: (head, relation, tail) keys would overflow int64"
        )
    return (triples[:, 0] * len(RELATIONS) + triples[:, 1]) * n_entities + triples[:, 2]


def _member(table: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Which keys occur in table, a sorted key array closed by a sentinel above any key."""
    return table[np.searchsorted(table, keys)] == keys


def _known_keys(tset: TripleSet) -> np.ndarray:
    """Sorted keys of every known triple, closed by a sentinel above any key."""
    keys = np.sort(_triple_keys(tset.array, tset.n_entities))
    return np.append(keys, np.iinfo(np.int64).max)


# rounds of corrupt_batch before a row still without a valid corruption raises
_MAX_ATTEMPTS = 100


def corrupt_batch(pos: np.ndarray, known: np.ndarray, n_entities: int, rng: RngStream) -> np.ndarray:
    """Corrupt the head or tail (p=0.5 each) of every row with a uniform entity.

    known holds the sorted keys of the known triples (_known_keys). Each
    round draws the flips, then the candidates, for the rows still to go;
    rows whose corruption is a known triple are redrawn in the next round.
    Relations are never replaced.
    """
    if n_entities == 0:
        raise SamplingError("cannot sample from an empty graph")
    neg = pos.copy()
    todo = np.arange(len(pos))
    for _ in range(_MAX_ATTEMPTS):
        head = rng.random(len(todo)) < 0.5
        candidate = rng.integers(0, n_entities, len(todo))
        rows = pos[todo]
        rows[:, 0] = np.where(head, candidate, rows[:, 0])
        rows[:, 2] = np.where(head, rows[:, 2], candidate)
        neg[todo] = rows
        keys = _triple_keys(rows, n_entities)
        todo = todo[_member(known, keys)]
        if not len(todo):
            return neg
    first = Triple(*pos[todo[0]].tolist())
    raise SamplingError(
        f"no valid corruption found for {len(todo)} triple(s), e.g. {first}, "
        f"after {_MAX_ATTEMPTS} attempts"
    )


def negative_sample(triple: Triple, g: Graph, rng: RngStream) -> Triple:
    """Corrupt one triple's head or tail: the one-row case of corrupt_batch."""
    pos = np.array([triple], dtype=np.int64)
    row = corrupt_batch(pos, _known_keys(g.triples), g.n_entities, rng)[0]
    return Triple(*row.tolist())


def _pair_scores(params: ParamStore, operators: list, pos: np.ndarray, neg: np.ndarray):
    """Score the stacked pairs (positives, then negatives), encoding only their rows.

    Returns the pairs, each pair's (head, tail) position among the encoded
    rows, the residuals h + r - t, their norms and the encoder cache.
    """
    pairs = np.concatenate([pos, neg])
    rows, ends = np.unique(pairs[:, [0, 2]].ravel(), return_inverse=True)
    ends = ends.reshape(-1, 2)
    x, cache = _encode_forward(params, operators, rows)
    diff = x[ends[:, 0]] + params.value("relation_table")[pairs[:, 1]] - x[ends[:, 1]]
    return pairs, ends, diff, np.linalg.norm(diff, axis=1), cache


def pretrain_loss_grads(
    params: ParamStore,
    g: Graph,
    cfg: PretrainConfig,
    pos: np.ndarray,
    neg: np.ndarray,
    draws=None,
) -> float:
    """Compute the pair loss and accumulate analytic grads into the store.

    Every term takes the dtype of the params, so the gradients keep it too.
    """
    operators = draws if draws is not None else sample_layer_draws(g, cfg)
    pairs, ends, diff, s, cache = _pair_scores(params, operators, pos, neg)
    margins = s[: len(pos)] + cfg.margin - s[len(pos) :]
    active = margins > 0
    loss = float(margins[active].sum())

    # d loss / d score: +1 for active positives, -1 for active negatives;
    # a zero residual has no direction and gets no gradient
    sign = np.concatenate([1.0 * active, -1.0 * active]).astype(s.dtype) * (s > 0)
    unit = diff / np.where(s > 0, s, 1.0)[:, None]
    unit *= sign[:, None]

    # one signed incidence operator, three entries per pair, scatters every
    # pair's direction through its transpose: + onto its head, - onto its
    # tail (encoded rows), + onto its relation (rows after the encoded ones)
    m = cache["operators"][-1].shape[0]
    targets = np.stack([ends[:, 0], ends[:, 1], m + pairs[:, 1]], axis=1).ravel()
    signs = np.tile(np.array([1.0, -1.0, 1.0], dtype=s.dtype), len(pairs))
    pair_ptr = np.arange(0, len(targets) + 1, 3)
    d_all = incidence(targets, signs, m + len(params.value("relation_table")), pair_ptr).T @ unit

    d_table, d_ws = _encode_backward(params, cache, d_all[:m])
    params.grad("entity_table")[cache["table_rows"]] += d_table
    params.grad("relation_table")[...] += d_all[m:]
    for i, dw in enumerate(d_ws):
        params.grad(f"gcn_w{i}")[...] += dw
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


def pretrain(tset: TripleSet, g: Graph, cfg: PretrainConfig, rng: RngStream) -> PretrainResult:
    """Minibatch joint training of encoder and scorer with Adam.

    Each batch corrupts its positives, encodes the rows its pairs read with
    the current parameters, applies the margin ranking loss, and steps all
    parameters. The known-triple keys for corruption are built once per call.
    Full mode builds its propagation operator once per call; sampled mode
    draws new operators for every batch. Per-epoch mean loss (per positive
    pair) is recorded. The returned checkpoint holds the encoder output as
    the entity table. Training runs in float32 on the rounded float64 draws
    of init_draws, so the checkpoint is float32, as ckge.bin stores it.
    """
    rng_init = rng.child("init")
    rng_shuffle = rng.child("shuffle")
    rng_negative = rng.child("negative")
    rng_encode = rng.child("encode")

    drawn = init_draws(tset.n_entities, tset.n_relations, cfg, rng_init)
    params = params_from({name: d.astype(np.float32) for name, d in drawn.items()})
    del drawn  # free the float64 draws before training
    triples = tset.array
    full = sample_layer_draws(g, cfg) if cfg.mode == "full" else None
    known = _known_keys(g.triples)
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng_shuffle.permutation(len(triples))
        total = 0.0
        for bstart in range(0, len(order), cfg.batch_size):
            bidx = order[bstart : bstart + cfg.batch_size]
            pos = triples[bidx]
            neg = corrupt_batch(pos, known, g.n_entities, rng_negative)
            draws = full if full is not None else sample_layer_draws(g, cfg, rng_encode)
            loss = pretrain_loss_grads(params, g, cfg, pos, neg, draws)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch} batch {bstart // cfg.batch_size}"
                )
            total += loss
            adam_step(params, cfg.lr)
        losses.append(total / max(len(triples), 1))

    entity_out = encode_entities(params, g, cfg, rng_encode, full)
    ckpt = PretrainCheckpoint(entity_out, params.value("relation_table").copy())
    return PretrainResult(ckpt, losses)


CHECKPOINT_MAGIC = b"CKGE"
CHECKPOINT_VERSION = 2


def export_checkpoint(ckpt: PretrainCheckpoint, path) -> None:
    """Write the slots entity_table and relation_table in numeric.write_slots's format."""
    write_slots(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, vars(ckpt))


def load_checkpoint(path) -> PretrainCheckpoint:
    """Read a checkpoint back as the float32 tables it stores: exactly the
    slots entity_table and relation_table, of one width >= 1."""
    values = read_slots(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "kdcn pretrain")
    if list(values) != ["entity_table", "relation_table"]:
        raise FormatError(f"{path}: expected slots entity_table, relation_table, got {shown(list(values))}")
    widths = {arr.shape[1] for arr in values.values()}
    if len(widths) != 1 or 0 in widths:
        raise FormatError(f"{path}: both tables need one width (dim) >= 1, got {sorted(widths)}")
    return PretrainCheckpoint(**values)


# candidates scored together by hits_at_k, bounding its temporaries to 4096 * dim floats
_HITS_BLOCK = 4096


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

    Candidates are drawn as arrays, n_candidates-1 per round for each triple
    still short; a triple keeps what it has after 50 * n_candidates draws.
    """
    x, rel = ckpt.entity_table, ckpt.relation_table
    n, m, cap = tset.n_entities, len(eval_triples), 50 * n_candidates
    ev = np.array(eval_triples, dtype=np.int64).reshape(m, 3)
    known = _known_keys(tset)
    # (row, id) keys i*n + id: every row's true tail, then the kept draws in draw order
    taken = np.arange(m) * n + ev[:, 2]
    todo = np.arange(m)
    for attempts in range(0, cap, max(n_candidates - 1, 1)):
        if not len(todo):
            break
        owner = np.repeat(todo, min(n_candidates - 1, cap - attempts))
        rows = ev[owner]
        rows[:, 2] = rng.integers(0, n, len(owner))
        unknown = ~_member(known, _triple_keys(rows, n))
        taken = np.concatenate([taken, owner[unknown] * n + rows[unknown, 2]])
        taken = taken[np.sort(np.unique(taken, return_index=True)[1])]
        todo = np.flatnonzero(np.bincount(taken // n, minlength=m) < n_candidates)
    # per row, in draw order (a stable sort): the true tail, then n_candidates-1 draws at most
    order = np.argsort(taken // n, kind="stable")
    row, ids = taken[order] // n, taken[order] % n
    keep = np.arange(len(row)) - np.searchsorted(row, row) < n_candidates
    row, ids = row[keep], ids[keep]
    score = np.empty(len(row))
    for s in range(0, len(row), _HITS_BLOCK):
        r, t = row[s : s + _HITS_BLOCK], ids[s : s + _HITS_BLOCK]
        score[s : s + _HITS_BLOCK] = np.linalg.norm(x[ev[r, 0]] + rel[ev[r, 1]] - x[t], axis=1)
    # rank: the row's entries scoring <= its true tail (its first entry), the tail included
    rank = np.bincount(row, weights=score <= score[np.searchsorted(row, row)], minlength=m)
    return np.count_nonzero(rank <= k) / max(m, 1)
