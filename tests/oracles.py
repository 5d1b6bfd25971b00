"""Reference semantics the library's batched code is checked against.

These are the direct, per-entity, per-sample, per-layer, per-head or dense
forms of operations that ``kdcn`` implements with batched arrays, a head
axis, in-place updates and sparse operators: the graph's per-entity
neighbor sets, filtered Hits@k drawn one candidate at a time, the graph
encoder's dense adjacency, neighbor draws and unrestricted forward and
backward, Adam's textbook form, the ranker's per-sample feature blocks
(behavior means, user-state convolutions, per-slot dialogue attention and
its query and title means, assembly) and towers, the cross tower layer by
layer, the dialogue attention head by head over a padded view of the
ragged keywords, and AUC by counting every positive-negative pair.

The scalar references of both losses live here too: the finite-difference
checker that every hand-written backward pass is held to, the translation
score and margin loss with the forward-only pretraining loss and its
float64 starting params, the ranker's forward-only log loss, the click
model's affinity of one (user, query, item) triplet, and the mutual
information of the planted tag-topic structure. Nothing under ``src/``
uses them; the tests compare the library against them. widened_checkpoint
lifts pretrain()'s float32 tables to float64, for the ranker build the
gradient oracle checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from kdcn.datagen import BEHAVIOR_KINDS, ClickModel, Sample, SampleSplit, World, _pick, _pick_distinct, split_loaded
from kdcn.errors import CapacityError, DimensionError, MetricError
from kdcn.graph import Graph, TripleSet
from kdcn.model import Dataset, Featurizer, KdcnModel, extract_keywords, log_loss
from kdcn.numeric import ParamStore, relu, sigmoid
from kdcn.pretrain import (
    PretrainCheckpoint,
    PretrainConfig,
    _pair_scores,
    init_draws,
    params_from,
    sample_layer_draws,
)
from kdcn.rng import RngStream

# the dense adjacency oracle holds n*n floats; above this it refuses
DENSE_ADJACENCY_GUARD = 10_000


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def finite_diff_check(
    fn: Callable[[], float],
    store: ParamStore,
    slot_name: str,
    eps: float = 1e-5,
) -> float:
    """Compare the analytic gradient held in a slot against central differences.

    fn must be a pure, deterministic scalar function of the store's current
    values. The analytic gradient for slot_name must already be populated in
    store[slot_name].grad. Returns the maximum over coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    slot = store[slot_name]
    analytic = slot.grad.copy()
    value = slot.value
    flat = value.reshape(-1)
    worst = 0.0
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn()
        flat[i] = orig - eps
        f_minus = fn()
        flat[i] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = analytic.reshape(-1)[i]
        err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
        worst = max(worst, err)
    return worst


def auc_bruteforce(scores, labels) -> float:
    """Quadratic pair-counting oracle for auc."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricError("AUC undefined: need at least one positive and one negative")
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; each row sums to 1."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] < 1:
        raise DimensionError(f"softmax_rows needs a 2-D input with >=1 column, got {m.shape}")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def conv_seq(b: np.ndarray, filt: np.ndarray, bias: float) -> np.ndarray:
    """Valid 1-D convolution of a d x k sequence with a full-height d x N filter.

    Output position t is the sum of the elementwise product of the filter with
    the window b[:, t:t+N], plus the bias. Returns a vector of length k-N+1.
    """
    if b.ndim != 2 or filt.ndim != 2:
        raise DimensionError("conv_seq expects 2-D input and filter")
    d, k = b.shape
    fd, n = filt.shape
    if fd != d:
        raise DimensionError(f"filter height {fd} does not match input height {d}")
    if n > k:
        raise DimensionError(f"filter width {n} exceeds sequence length {k}")
    out = np.empty(k - n + 1, dtype=np.float64)
    for t in range(k - n + 1):
        out[t] = np.sum(b[:, t : t + n] * filt) + bias
    return out


def neighbor_lists(tset: TripleSet) -> list[np.ndarray]:
    """Per-entity adjacency from one Python set per entity: symmetric,
    deduplicated, sorted, self-loops dropped."""
    neighbor_sets: list[set[int]] = [set() for _ in range(tset.n_entities)]
    for tr in tset.triples:
        if tr.head != tr.tail:
            neighbor_sets[tr.head].add(tr.tail)
            neighbor_sets[tr.tail].add(tr.head)
    return [np.array(sorted(s), dtype=np.int64) for s in neighbor_sets]


def hits_at_k_reference(ckpt, tset: TripleSet, eval_triples, rng: RngStream, k: int, n_candidates: int) -> float:
    """Filtered tail-prediction Hits@k, drawing candidates one at a time.

    Per triple: draw uniform ids, skipping the true tail, repeats and ids
    that make a known triple, until n_candidates-1 are chosen or 50 *
    n_candidates draws are spent; rank counts candidates scoring <= the
    true tail.
    """
    x, rel = ckpt.entity_table, ckpt.relation_table
    known = set(tset.triples)
    hits = 0
    for tr in eval_triples:
        chosen: list[int] = []
        seen = {tr.tail}
        attempts = 0
        while len(chosen) < n_candidates - 1 and attempts < 50 * n_candidates:
            cand = int(rng.integers(0, tset.n_entities))
            attempts += 1
            if cand in seen or (tr.head, tr.relation, cand) in known:
                continue
            seen.add(cand)
            chosen.append(cand)
        base = x[tr.head] + rel[tr.relation]
        true_score = np.linalg.norm(base - x[tr.tail])
        cand_scores = np.linalg.norm(base[None, :] - x[chosen], axis=1)
        if 1 + int(np.sum(cand_scores <= true_score)) <= k:
            hits += 1
    return hits / max(len(eval_triples), 1)


def widened_checkpoint(ckpt: PretrainCheckpoint) -> PretrainCheckpoint:
    """The checkpoint with both tables widened (exactly) to float64."""
    return PretrainCheckpoint(ckpt.entity_table.astype(np.float64), ckpt.relation_table.astype(np.float64))


def normalized_adjacency(g: Graph, kind: str = "sym") -> np.ndarray:
    """Dense normalized adjacency with self-loops, for small graphs.

    kind="sym" gives the symmetric normalization D^-1/2 (A + I) D^-1/2;
    kind="mean" gives row normalization D^-1 (A + I), the dense counterpart
    of mean-of-neighbors aggregation. An isolated entity's row holds 1 at
    the entity itself.
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
    np.fill_diagonal(a, 1.0)
    deg = a.sum(axis=1)
    if kind == "sym":
        dinv = 1.0 / np.sqrt(deg)
        return dinv[:, None] * a * dinv[None, :]
    return a / deg[:, None]


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
    appended, so an isolated entity's row holds just itself. Row i holds
    1/count at each drawn id. Entities are visited in id order, layer by
    layer.
    """
    operators = []
    for _ in range(cfg.layers):
        s = np.zeros((g.n_entities, g.n_entities))
        for i in range(g.n_entities):
            neigh = g.adjacency[i]
            if len(neigh) <= cfg.fanout:
                chosen = list(neigh)
            else:
                chosen = list(rng.choice(neigh, size=cfg.fanout, replace=False))
            chosen.append(i)
            s[i, chosen] = 1.0 / len(chosen)
        operators.append(s)
    return operators


def encode_stack(params, operators: list, d_out: np.ndarray):
    """The encoder over every entity, and its backward for d_out.

    Layer l computes sigmoid(S_l @ x @ W_l) for all rows and the backward
    multiplies by S_l.T; nothing is restricted to the rows a batch reads.
    Returns (output, d_entity_table, [dW...]).
    """
    weights = [params.value(f"gcn_w{i}") for i in range(len(operators))]
    x = params.value("entity_table")
    inputs, outputs = [], []
    for s, w in zip(operators, weights):
        inputs.append(s @ x)
        x = sigmoid(inputs[-1] @ w)
        outputs.append(x)
    d_ws = [None] * len(weights)
    grad = d_out
    for layer in range(len(weights) - 1, -1, -1):
        out = outputs[layer]
        pre = grad * out * (1.0 - out)
        d_ws[layer] = inputs[layer].T @ pre
        grad = operators[layer].T @ (pre @ weights[layer].T)
    return x, grad, d_ws


def init_params(n_entities: int, n_relations: int, cfg: PretrainConfig, rng: RngStream) -> ParamStore:
    """The float64 params of init_draws, as the gradient oracles start from them."""
    return params_from(init_draws(n_entities, n_relations, cfg, rng))


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


def pretrain_loss(
    params: ParamStore,
    g: Graph,
    cfg: PretrainConfig,
    pos: np.ndarray,
    neg: np.ndarray,
    draws=None,
) -> float:
    """Margin ranking loss of fixed positive/negative pairs (pure forward)."""
    operators = draws if draws is not None else sample_layer_draws(g, cfg)
    _, _, _, s, _ = _pair_scores(params, operators, pos, neg)
    return margin_loss(s[: len(pos)], s[len(pos) :], cfg.margin)


def adam_reference(store, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One bias-corrected Adam update per slot in the textbook form, then zero grads."""
    for slot in store.slots.values():
        slot.step_count += 1
        t = slot.step_count
        g = slot.grad
        slot.adam_m *= beta1
        slot.adam_m += (1.0 - beta1) * g
        slot.adam_v *= beta2
        slot.adam_v += (1.0 - beta2) * (g * g)
        denom = np.sqrt(slot.adam_v / (1.0 - beta2**t))
        denom += eps
        slot.value -= (lr / (1.0 - beta1**t)) * slot.adam_m / denom
    store.zero_grads()


def two_branch_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function from one exp of -|x|, split on the sign of x, in x's float dtype."""
    x = np.asarray(x)
    x = x if x.dtype == np.float32 else x.astype(np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


@dataclass
class BehaviorLog:
    """Exactly k item-id sequences, one per behavior kind; empties allowed."""

    behaviors: list[list[int]]

    @property
    def k(self) -> int:
        return len(self.behaviors)


@dataclass
class DialogueInput:
    query_keywords: list[int]
    title_keywords: list[int]


@dataclass
class FeatureBundle:
    cat_ids: list[int]
    dense: np.ndarray
    u: np.ndarray
    d: np.ndarray  # dialogue-interaction block: query mean then title mean


@dataclass
class ConvParams:
    """Full-height filter banks for the user-state summary.

    filters maps width -> (F, d, width); biases maps width -> (F,).
    seq_len is the configured behavior-kind count: inputs are padded or
    sliced to max(seq_len, max width) columns, so zero columns appended
    beyond that never change the output.
    """

    seq_len: int
    filters: dict[int, np.ndarray] = field(default_factory=dict)
    biases: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def widths(self) -> list[int]:
        return sorted(self.filters)

    @property
    def output_dim(self) -> int:
        return sum(self.filters[w].shape[0] for w in self.widths)


@dataclass
class AttentionParams:
    """Per-head query/key/value projections, stored row-blocked in d x d."""

    n_heads: int
    query_proj: np.ndarray
    key_proj: np.ndarray
    value_proj: np.ndarray

    def __post_init__(self):
        d = self.query_proj.shape[0]
        if d % self.n_heads != 0:
            raise DimensionError(f"dim {d} not divisible by {self.n_heads} heads")

    @property
    def head_dim(self) -> int:
        return self.query_proj.shape[0] // self.n_heads

    def head(self, which: str, h: int) -> np.ndarray:
        mat = {"q": self.query_proj, "k": self.key_proj, "v": self.value_proj}[which]
        lo = h * self.head_dim
        return mat[lo : lo + self.head_dim, :]


def behavior_vector(items: list[int], table: np.ndarray) -> np.ndarray:
    """Mean embedding of the items in one behavior sequence; empty -> zeros."""
    d = table.shape[1]
    if not items:
        return np.zeros(d, dtype=np.float64)
    rows = []
    for item in items:
        if not 0 <= item < table.shape[0]:
            raise KeyError(f"item id {item} not in embedding table of {table.shape[0]} rows")
        rows.append(table[item])
    return np.mean(rows, axis=0)


def behavior_matrix(log: BehaviorLog, table: np.ndarray) -> np.ndarray:
    """Stack per-kind behavior vectors into columns: shape d x k."""
    cols = [behavior_vector(b, table) for b in log.behaviors]
    return np.stack(cols, axis=1) if cols else np.zeros((table.shape[1], 0))


def user_state(b: np.ndarray, conv: ConvParams) -> np.ndarray:
    """Convolution-pooled summary of the behavior matrix.

    For every filter width, each filter slides over the sequence axis
    (valid convolution, full-height window), goes through ReLU, and is
    max-pooled over positions; the pooled scalars concatenate across filters
    and widths. The input is padded or sliced to max(seq_len, max width)
    columns first, so the output only depends on the real behavior columns.
    """
    d = b.shape[0]
    k_eff = max(conv.seq_len, max(conv.widths))
    if b.shape[1] < k_eff:
        b = np.concatenate([b, np.zeros((d, k_eff - b.shape[1]))], axis=1)
    elif b.shape[1] > k_eff:
        b = b[:, :k_eff]
    pooled = []
    for width in conv.widths:
        filters = conv.filters[width]
        biases = conv.biases[width]
        for f in range(filters.shape[0]):
            vals = relu(conv_seq(b, filters[f], float(biases[f])))
            pooled.append(vals.max())
    return np.array(pooled, dtype=np.float64)


def dialogue_interaction(
    di: DialogueInput,
    table: np.ndarray,
    attn: AttentionParams,
    max_query: int = 8,
    max_title: int = 8,
) -> np.ndarray:
    """Multi-head self-attention over query+title keyword embeddings.

    Per head, attention logits are plain inner products of the projected
    embeddings (no scaling); softmax runs over the real positions only.
    Updated rows are stacked real-first and zero-padded to a fixed
    (max_query + max_title) x d block. No keywords at all yields all zeros.
    """
    ids = list(di.query_keywords[:max_query]) + list(di.title_keywords[:max_title])
    total = max_query + max_title
    d = table.shape[1]
    out = np.zeros((total, d), dtype=np.float64)
    if not ids:
        return out
    x = table[np.array(ids, dtype=np.int64)]
    for h in range(attn.n_heads):
        q = x @ attn.head("q", h).T
        k = x @ attn.head("k", h).T
        v = x @ attn.head("v", h).T
        weights = softmax_rows(q @ k.T)
        lo = h * attn.head_dim
        out[: len(ids), lo : lo + attn.head_dim] = weights @ v
    return out


def group_means(out: np.ndarray, mask: np.ndarray, split: int) -> np.ndarray:
    """The pooled dialogue block from per-slot attention outputs.

    out is (n, P, d) and mask (n, P) is 1 at real slots. Per row, returns
    the mean of out over the real slots before split (the query) and over
    the real slots from split on (the title), concatenated to (n, 2d); a
    group with no real slot gives zeros.
    """
    parts = []
    for cols in (slice(0, split), slice(split, None)):
        real = mask[:, cols]
        total = (out[:, cols] * real[:, :, None]).sum(axis=1)
        parts.append(total / np.maximum(real.sum(axis=1), 1.0)[:, None])
    return np.concatenate(parts, axis=1)


def group_means_backward(dpooled: np.ndarray, mask: np.ndarray, split: int) -> np.ndarray:
    """The (n, P, d) per-slot gradient of group_means from its (n, 2d) gradient."""
    n, p = mask.shape
    d = dpooled.shape[1] // 2
    dout = np.zeros((n, p, d))
    for g, cols in enumerate((slice(0, split), slice(split, None))):
        real = mask[:, cols]
        weight = real / np.maximum(real.sum(axis=1, keepdims=True), 1.0)
        dout[:, cols] = weight[:, :, None] * dpooled[:, None, g * d : (g + 1) * d]
    return dout


def dialogue_means(di: DialogueInput, table, attn: AttentionParams, max_query: int, max_title: int):
    """The pooled dialogue block (2d) of one sample.

    dialogue_interaction's output averaged over its real query rows and over
    its real title rows.
    """
    out = dialogue_interaction(di, table, attn, max_query, max_title)
    n_query = len(di.query_keywords[:max_query])
    n_real = n_query + len(di.title_keywords[:max_title])
    mask = (np.arange(len(out)) < n_real).astype(np.float64)
    return group_means(out[None], mask[None], n_query)[0]


def assemble_features(
    bundle: FeatureBundle, cat_table: np.ndarray, n_cat_slots: int
) -> np.ndarray:
    """Concatenate [categorical embeddings..., dense, u, d] into one vector.

    Missing categorical slots contribute zero vectors; extra ids are cut.
    """
    cat_dim = cat_table.shape[1]
    parts = []
    for s in range(n_cat_slots):
        if s < len(bundle.cat_ids):
            cid = bundle.cat_ids[s]
            if not 0 <= cid < cat_table.shape[0]:
                raise KeyError(f"category id {cid} out of range")
            parts.append(cat_table[cid])
        else:
            parts.append(np.zeros(cat_dim))
    parts.append(np.asarray(bundle.dense, dtype=np.float64).ravel())
    parts.append(np.asarray(bundle.u, dtype=np.float64).ravel())
    parts.append(np.asarray(bundle.d, dtype=np.float64).ravel())
    return np.concatenate(parts)


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


def attention_heads(x: np.ndarray, mask: np.ndarray, wq, wk, wv, n_heads: int):
    """The dialogue attention one head at a time over (n, P, d) keyword embeddings.

    x is zero at padded keywords and mask (n, P) is 1 at real ones. Head h
    projects with row block h of wq, wk and wv, takes the softmax of
    q @ k.T over the real keys and writes attn @ v into column block h.
    Returns the (n, P, d) output, zero at padded rows, and a cache.
    """
    n, p, d = x.shape
    x2 = x.reshape(n * p, d)
    q_all = (x2 @ wq.T).reshape(n, p, d)
    k_all = (x2 @ wk.T).reshape(n, p, d)
    v_all = (x2 @ wv.T).reshape(n, p, d)
    out_all = np.empty((n, p, d))
    head_dim = d // n_heads
    valid = mask[:, None, :]
    weights = []
    for h in range(n_heads):
        lo = h * head_dim
        logits = q_all[:, :, lo : lo + head_dim] @ k_all[:, :, lo : lo + head_dim].transpose(0, 2, 1)
        logits -= logits.max(axis=2, keepdims=True)
        e = np.exp(logits)
        e *= valid
        denom = e.sum(axis=2, keepdims=True)
        np.maximum(denom, 1e-300, out=denom)
        attn = e / denom
        out_all[:, :, lo : lo + head_dim] = attn @ v_all[:, :, lo : lo + head_dim]
        weights.append(attn)
    out_all *= mask[:, :, None]
    return out_all, (x, q_all, k_all, v_all, weights)


def attention_heads_backward(dout: np.ndarray, mask: np.ndarray, cache, wq, wk, wv):
    """Gradients (dwq, dwk, dwv, dx) of attention_heads, head by head; dx is zero at padding."""
    x, q_all, k_all, v_all, weights = cache
    d = x.shape[2]
    head_dim = d // len(weights)
    dstacked = dout * mask[:, :, None]
    dq_all, dk_all, dv_all = np.empty_like(q_all), np.empty_like(k_all), np.empty_like(v_all)
    for h, a in enumerate(weights):
        cols = slice(h * head_dim, (h + 1) * head_dim)
        dhead = dstacked[:, :, cols]
        dattn = dhead @ v_all[:, :, cols].transpose(0, 2, 1)
        dv_all[:, :, cols] = a.transpose(0, 2, 1) @ dhead
        dlog = a * (dattn - (dattn * a).sum(axis=2, keepdims=True))
        dq_all[:, :, cols] = dlog @ k_all[:, :, cols]
        dk_all[:, :, cols] = dlog.transpose(0, 2, 1) @ q_all[:, :, cols]
    x2 = x.reshape(-1, d)
    dq2, dk2, dv2 = (g.reshape(-1, d) for g in (dq_all, dk_all, dv_all))
    dx = dq2 @ wq + dk2 @ wk + dv2 @ wv
    return dq2.T @ x2, dk2.T @ x2, dv2.T @ x2, dx.reshape(x.shape) * mask[:, :, None]


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
        w, b = model.store.value("cross_w"), model.store.value("cross_b")
        towers.append(cross_forward(f, list(zip(w.T, b.T))))
    if cfg.use_deep:
        layers = [
            (model.store.value(f"deep_w{i}"), model.store.value(f"deep_b{i}").ravel())
            for i in range(cfg.deep_layers)
        ]
        towers.append(deep_forward(f, layers))
    z = np.concatenate(towers)
    return float(sigmoid(z @ model.store.value("logits_w").ravel()))


def ranker_loss(model: KdcnModel, batch: Dataset) -> float:
    """The model's mean log loss on a batch (pure forward)."""
    p, _ = model.forward(batch)
    return log_loss(p, batch.labels)


def conv_params(model: KdcnModel) -> ConvParams:
    """The model's user-state filter banks in per-sample form."""
    cfg = model.cfg
    # tap n of filter j is column n * filters + j of conv_taps{w}
    filters = {
        w: model.store.value(f"conv_taps{w}").reshape(model.dim, w, cfg.conv_filters).transpose(2, 0, 1)
        for w in cfg.conv_widths
    }
    biases = {w: model.store.value(f"conv_b{w}")[:, 0] for w in cfg.conv_widths}
    return ConvParams(model.n_behavior_kinds, filters, biases)


def attention_params(model: KdcnModel) -> AttentionParams:
    """The model's dialogue attention projections in per-sample form."""
    return AttentionParams(model.cfg.attention_heads, *np.split(model.store.value("attn_qkv"), 3))


def title_keyword_ids(featurizer: Featurizer, item: str) -> list[int]:
    """The item's title keyword ids, extracted from its metadata."""
    f = featurizer
    return extract_keywords(f.item_meta[item].title, f.keyword_vocab, f.cfg.max_title_keywords)


def sample_features(featurizer: Featurizer, sample) -> tuple[np.ndarray, list, list, list, np.ndarray]:
    """One sample's (d x k behavior matrix, query keyword ids, title keyword
    ids, category slots, dense row)."""
    f = featurizer
    blog = BehaviorLog([[f.item_id(name) for name in beh] for beh in sample.behaviors])
    query = f.query_keyword_ids(sample.query)
    title = title_keyword_ids(f, sample.candidate_item)
    cats = [f.category_index[c] for c in sample.categories[: f.cfg.n_cat_slots]]
    dense = (np.asarray(sample.dense, dtype=np.float64) - f.dense_mean) / f.dense_std
    return behavior_matrix(blog, f.table), query, title, cats, dense


def keyword_lists(batch) -> list[tuple[list[int], list[int]]]:
    """Each row's (query ids, title ids), read from a Dataset's ragged keywords one row at a time."""
    rows = []
    for lo, hi, n_query in zip(batch.kw_ptr[:-1], batch.kw_ptr[1:], batch.n_query):
        ids = batch.kw_ids[lo:hi].tolist()
        rows.append((ids[:n_query], ids[n_query:]))
    return rows


def padded_keywords(batch, split: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The padded (n, width) view of a batch's ragged keywords: (ids, mask).

    Row i's query keywords fill columns [0, n_q) and its title keywords
    columns [split, split + n_t); elsewhere the id is 0 and the float mask 0.
    """
    ids = np.zeros((batch.n, width), dtype=np.int64)
    mask = np.zeros((batch.n, width))
    for i, (query, title) in enumerate(keyword_lists(batch)):
        if len(query) > split or len(title) > width - split:
            raise DimensionError(
                f"row {i}: {len(query)} + {len(title)} keywords exceed {split} + {width - split} slots"
            )
        for lo, group in ((0, query), (split, title)):
            ids[i, lo : lo + len(group)] = group
            mask[i, lo : lo + len(group)] = 1.0
    return ids, mask


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


def click_affinity(click: ClickModel, world: World, user: str, query_keywords: list[str], item: str) -> float:
    """The click model's affinity of one (user, query, item) triplet."""
    tag_match = 1.0 if world.item_category[item] in world.user_pref_cats[user] else 0.0
    overlap = len(set(query_keywords) & set(world.item_title_kws[item]))
    cluster = 1.0 if item in world.user_cluster_sets[user] else 0.0
    return (
        click.w_tag_match * tag_match
        + click.w_overlap * overlap
        + click.w_cluster * cluster
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


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def generate_samples_reference(
    world: World, n: int, click: ClickModel, rng: RngStream
) -> SampleSplit:
    """generate_samples one sample at a time, about 20 scalar draws each.

    The same distribution as the library's array draws, from a different
    random stream: tests compare the two by their statistics.
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
        affinity = click_affinity(click, world, user, query_kws, item)
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
