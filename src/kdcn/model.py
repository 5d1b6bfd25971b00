"""The knowledge-enhanced deep-cross CTR ranker.

The input vector f concatenates categorical embeddings, standardized dense
statistics, the user-state block u and the dialogue-interaction block d.
Two parallel towers process f: a cross network (each layer computes the
scalar x'w and adds f*scalar + bias back onto a residual path) and a deep
ReLU network; their outputs concatenate into a single logits dot product.

The cross tower runs in closed form. A cross layer only rescales f by one
scalar per row and adds a bias, so after l layers x_l = f * c_l + B_l, with
B_l the sum of the first l biases. cross_tower computes all L layer scalars
from one (n, L) GEMM G = f @ [w_0 .. w_{L-1}] and a per-row recursion on
c, then writes the n x F output once; cross_tower_backward mirrors that
with one GEMM into df and one into cross_w's gradient. The cache
holds G, c and the bias prefix sums instead of L copies of the n x F x_l.

The user-state block is a text-CNN over the per-kind behavior means, run
as kn2row: the means are one (contexts, k_eff, d) array, kinds on axis 1
and zero rows past the kind count up to the widest filter. One GEMM takes
every behavior row against every tap of every filter, and a width-w
response at position t sums tap n's product at row t + n over the w taps.
The backward scatters the pooled gradient into those shifted slices and
runs one GEMM for the filter gradients and, fine-tuned, one for the means.

The dialogue block is multi-head self-attention over the query and title
keyword embeddings, run over a head axis, and it returns the mean of the
attention output over the query keywords and over the title keywords:
2 * dim columns of f. Pooling is a design choice of this implementation;
the paper does not fix the shape of the dialogue representation. A batch
holds its keywords ragged, as CSR rows (see Dataset). Each distinct keyword
of the batch is projected once: one GEMM of its U distinct embeddings by
the three stacked projections gives proj_u, and inverse maps every keyword
occurrence to its row. The rows are bucketed by their keyword count L
(sequence bucketing): taken in order of L, the occurrences of each bucket
are one contiguous block of inverse, the bucket gathers its
(n_b, L, 3, heads, head_dim) projections from proj_u, and it runs a plain
softmax over (n_b, heads, L, L) with no mask. A row without keywords
belongs to no bucket and its block output stays zero. Because only
the two means are needed, each bucket pools before the value product: with
G holding 1/n_q at a row's n_q query keywords (which come first) and 1/n_t
at its title keywords, it forms r = G @ attn, (n_b, heads, 2, L), and then
r @ v. G is built once per batch for every keyword, and each bucket takes
a view of its block. The cache keeps no per-occurrence array: the backward
gathers each bucket's projections again, works from the same rank-2 form
and adds the bucket's projection gradients onto the distinct keywords with
scatter_rows. The weight gradient is then one GEMM over the U distinct
keywords, not over every occurrence, and its sum order does not depend on
the BLAS thread count at the batch shapes tested.

Each parameter slot is stored in the layout its GEMM reads, so no pass
regroups one. cross_w and cross_b are (F, n_cross), one layer per column;
attn_qkv stacks the query, key and value projections as one (3 * dim, dim)
array; conv_taps{w} holds the width-w filters as (dim, w * filters) taps,
tap n of filter j at column n * filters + j, with its bias in conv_b{w}.

Training is batched numpy with hand-written backward passes; the per-sample
and per-head forms in tests/oracles.py are the reference semantics and the
batched paths are tested to match them. Ablation flags remove feature
blocks or towers structurally, so a disabled block contributes no parameters
at all.

The model's dtype is its featurizer's table's, with no setting for it: fit
trains in float32, the precision ckge.bin and kdcn.bin store, and rank
serves what those files hold. A model built on a float64 checkpoint table,
as the gradient oracle builds it, stays float64 end to end. Every parameter
slot, batch array and temporary takes that dtype.

Behaviors are ragged too: one CSR row of item ids per (context, kind). The
forward makes them one pooling operator P with 1/count at a row's ids, so
the per-kind means are P @ table and, with the entity table fine-tuned, its
gradient is P.T @ dmean through the same P; frozen and fine-tuned runs share
that path. The user state belongs to the behaviors, not to the candidate,
so a Dataset pools and convolves per behavior context (k behavior rows
each) and its context array gives each row its context: the forward
gathers the contexts' user states onto the rows, and the backward sums the
rows' gradients back per context. P and every other sparse operator here
come from numeric.incidence.

One type, Dataset, holds featurized rows for a split, a training batch
and a rank request alike. Featurizer.prepare and rank_candidates build it
through the same Featurizer.keyword_rows, behavior_rows and standardize,
and Dataset.batch slices it with numeric.ragged_rows; a request gathers
its candidates' titles, category slots and dense statistics from the
per-item arrays the Featurizer builds once.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    FormatError,
    IngestionError,
    ParseError,
    SchemaError,
    TrainingError,
    UnknownNameError,
    cut,
    require_at_least,
    require_finite_positive,
    shown,
)
from .graph import EntityRef, check_event, csr_lists, json_number, json_object
from .metrics import auc
from .numeric import (
    ParamStore, adam_step, as_float, incidence, ragged_rows, read_slots, relu, sigmoid, write_slots
)
from .pretrain import PretrainCheckpoint
from .rng import RngStream
from .textfile import write_lines

_CLAMP = 1e-12
# in exact arithmetic, sigmoid(x) lies in (_CLAMP, 1 - _CLAMP) iff |x| < _CLAMP_LOGIT
_CLAMP_LOGIT = float(np.log((1.0 - _CLAMP) / _CLAMP))
_TOKEN_RE = re.compile(r"[^0-9a-zA-Z_]+")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 512
    epochs: int = 5
    use_user_state: bool = True
    use_dialogue: bool = True
    use_cross: bool = True
    use_deep: bool = True
    n_cross: int = 4
    deep_layers: int = 2
    deep_width: int = 512
    cat_dim: int = 16
    n_cat_slots: int = 1
    conv_filters: int = 8
    conv_widths: tuple[int, ...] = (2, 4)
    attention_heads: int = 4
    max_query_keywords: int = 8
    max_title_keywords: int = 8
    finetune_embeddings: bool = False
    candidate_cap: int = 50

    def __post_init__(self):
        if not (self.use_cross or self.use_deep):
            raise ConfigError("at least one of use_cross/use_deep must be on")
        require_at_least(self, 0, "epochs", "n_cross", "deep_layers", "n_cat_slots",
                         "max_query_keywords", "max_title_keywords")
        require_at_least(self, 1, "batch_size", "deep_width", "cat_dim", "conv_filters",
                         "attention_heads", "candidate_cap")
        require_finite_positive(self, "lr")
        if not self.conv_widths or min(self.conv_widths) < 1:
            raise ConfigError(f"TrainConfig.conv_widths must hold widths >= 1, got {self.conv_widths}")
        if len(set(self.conv_widths)) < len(self.conv_widths):
            raise ConfigError(f"TrainConfig.conv_widths repeats a width: {self.conv_widths}")


# named ablations used by the evaluation report
ABLATIONS: dict[str, dict] = {
    "kdcn": {},
    "dcn": {"use_user_state": False, "use_dialogue": False},
    "cross_only": {"use_deep": False},
    "deep_only": {"use_cross": False},
    "lr_like": {"n_cross": 0, "use_deep": False},
}


def ablation_config(base: TrainConfig, name: str) -> TrainConfig:
    return replace(base, **ABLATIONS[name])


@dataclass
class ItemMeta:
    name: str
    title: str
    categories: list[str]
    dense: list[float]


def item_meta_from_events(events) -> dict[str, ItemMeta]:
    """Collect per-item metadata (title, categories, dense stats) from events.

    An item listed under several categories emits one event per category;
    they merge into one record with the categories in listing order. Every
    record must pass graph.check_event; an IngestionError names the 1-based
    record number.
    """
    meta: dict[str, ItemMeta] = {}
    for number, rec in enumerate(events, start=1):
        try:
            check_event(rec)
        except IngestionError as exc:
            raise IngestionError(f"record {number}: {exc}") from None
        if rec["type"] == "item_listing":
            existing = meta.get(rec["item"])
            if existing is None:
                meta[rec["item"]] = ItemMeta(
                    rec["item"],
                    rec.get("title", ""),
                    [rec["category"]],
                    list(rec.get("dense", [])),
                )
            elif rec["category"] not in existing.categories:
                existing.categories.append(rec["category"])
    return meta


@dataclass
class Dataset:
    """Featurized rows, each read against its behavior context; floats in the table's dtype.

    Featurizer.prepare makes every sample its own context, rank_candidates
    puts a request's candidates in context 0, and batch slices either.
    """

    beh_ptr: np.ndarray  # (contexts * k + 1,) int: context c's kind-j items are CSR row c * k + j
    beh_ids: np.ndarray  # flat int item entity ids of those rows
    context: np.ndarray  # (n,) int, each row's behavior context
    kw_ptr: np.ndarray  # (n + 1,) int: row i's keywords are kw_ids[kw_ptr[i]:kw_ptr[i + 1]]
    kw_ids: np.ndarray  # flat int ids, each row's query keywords and then its title keywords
    n_query: np.ndarray  # (n,) int, query keyword count per row
    cat_idx: np.ndarray  # (n, S) int, -1 where padded
    dense: np.ndarray  # (n, n_dense) standardized
    labels: np.ndarray  # (n,) 0 or 1
    n_behavior_kinds: int  # k

    @property
    def n(self) -> int:
        return len(self.context)

    def batch(self, idx: np.ndarray) -> Dataset:
        """Rows idx in that order, reading the contexts they use once each, in order of first use."""
        idx = np.asarray(idx, dtype=np.int64)
        k = self.n_behavior_kinds
        kw_ptr, kw_positions = ragged_rows(self.kw_ptr, idx)
        used, first, inverse = np.unique(self.context[idx], return_index=True, return_inverse=True)
        order = np.argsort(first)
        beh_rows = (used[order][:, None] * k + np.arange(k)).ravel()
        beh_ptr, beh_positions = ragged_rows(self.beh_ptr, beh_rows)
        return Dataset(
            beh_ptr, self.beh_ids[beh_positions], np.argsort(order)[inverse], kw_ptr, self.kw_ids[kw_positions],
            self.n_query[idx], self.cat_idx[idx], self.dense[idx], self.labels[idx], k,
        )


def dense_rows(dense) -> tuple[np.ndarray, np.ndarray]:
    """Ragged dense vectors as (raw, lengths): row i's first lengths[i]
    columns of the float64 array raw hold vector i, zeros follow them."""
    lengths = np.fromiter(map(len, dense), dtype=np.int64, count=len(dense))
    raw = np.zeros((len(lengths), lengths.max(initial=0)))
    raw[np.arange(raw.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(dense), dtype=np.float64, count=int(lengths.sum())
    )
    return raw, lengths


def extract_keywords(text: str, vocab, cap: int = 8) -> list[int]:
    """Lowercase, split on non-alphanumerics, keep in-vocabulary tokens.

    Deduplicates preserving first occurrence and truncates to cap ids; a
    cap of 0 or less keeps none.
    """
    if cap <= 0:
        return []
    seen: list[int] = []
    found: set[int] = set()
    for token in _TOKEN_RE.split(text.lower()):
        if not token:
            continue
        kid = vocab.get(token)
        if kid is not None and kid not in found:
            found.add(kid)
            seen.append(kid)
            if len(seen) == cap:
                break
    return seen


class Featurizer:
    """Maps raw samples onto entity ids, category indices and dense stats.

    Dense standardization statistics come from the training split only
    (fit_stats must run before prepare). The table keeps the checkpoint's
    float dtype (see numeric.as_float), and the featurized floats take it.

    At construction every item of item_meta gets a row, in item_meta's
    order, in the per-item arrays: its title keyword ids as one CSR pair
    (item row r's are title_ids[title_ptr[r]:title_ptr[r + 1]]), category
    slots (item_cat_idx), entity ids (item_entity_ids, -1 for an item that
    is no graph entity) and raw float64 dense statistics (row r's first
    item_dense_len[r] columns of item_dense, zeros after them). The keyword
    caps apply at extraction. These arrays are a snapshot: a later change
    to item_meta does not reach them, nor the scores rank_candidates gives.
    """

    def __init__(
        self,
        checkpoint: PretrainCheckpoint,
        entities: list[EntityRef],
        item_meta: dict[str, ItemMeta],
        cfg: TrainConfig,
    ):
        self.cfg = cfg
        self.table = as_float(checkpoint.entity_table)
        top = max((e.id for e in entities), default=-1)
        if top >= len(self.table):
            raise DimensionError(f"entity id {top} is outside the entity table of {len(self.table)} rows")
        self.dim = checkpoint.dim
        self.item_meta = item_meta
        self._item_ids = {e.name: e.id for e in entities if e.kind == "item"}
        self.keyword_vocab = {e.name: e.id for e in entities if e.kind == "keyword"}
        cat_names = sorted(e.name for e in entities if e.kind == "category")
        self.category_index = {name: i for i, name in enumerate(cat_names)}
        self.n_categories = len(cat_names)
        self._item_rows = {name: row for row, name in enumerate(item_meta)}
        metas = item_meta.values()
        cap = cfg.max_title_keywords
        self.title_ptr, self.title_ids = csr_lists(
            [extract_keywords(m.title, self.keyword_vocab, cap) for m in metas]
        )
        self.item_cat_idx = self.category_slots([m.categories for m in metas])
        self.item_entity_ids = np.array([self._item_ids.get(n, -1) for n in item_meta], dtype=np.int64)
        self.item_dense, self.item_dense_len = dense_rows([m.dense for m in metas])
        self.n_dense: int | None = None
        self.n_behavior_kinds: int | None = None
        self.dense_mean: np.ndarray | None = None
        self.dense_std: np.ndarray | None = None

    def item_id(self, name: str) -> int:
        if name not in self._item_ids:
            raise UnknownNameError(f"unknown item '{name}'")
        return self._item_ids[name]

    def item_rows(self, names: list[str]) -> np.ndarray:
        """Each named item's row in the per-item arrays; UnknownNameError for an item without metadata."""
        try:
            return np.array([self._item_rows[name] for name in names], dtype=np.int64)
        except KeyError as exc:
            raise UnknownNameError(f"no metadata for item '{exc.args[0]}'") from None

    def query_keyword_ids(self, query: str) -> list[int]:
        return extract_keywords(query, self.keyword_vocab, self.cfg.max_query_keywords)

    def category_slots(self, categories: list[list[str]]) -> np.ndarray:
        """Category indices of the first n_cat_slots categories per row, -1 padded."""
        slots = self.cfg.n_cat_slots
        try:
            indptr, ids = csr_lists([cats[:slots] for cats in categories], self.category_index)
        except KeyError as exc:
            raise UnknownNameError(f"unknown category '{exc.args[0]}'") from None
        out = np.full((len(categories), slots), -1, dtype=np.int64)
        out[np.arange(slots) < np.diff(indptr)[:, None]] = ids
        return out

    def keyword_rows(
        self, q_ptr: np.ndarray, q_ids: np.ndarray, queries: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Keyword row i as one CSR pair (kw_ptr, kw_ids): query queries[i]'s
        keywords (row queries[i] of the CSR pair q_ptr, q_ids), then the
        title keywords of item row rows[i]."""
        row_q_ptr, q_pos = ragged_rows(q_ptr, queries)
        row_t_ptr, t_pos = ragged_rows(self.title_ptr, rows)
        # row i starts after the query and title keywords of the rows before
        # it, so its query keywords shift by the earlier rows' title count and
        # its title keywords by the query count of rows up to i
        kw_ptr = row_q_ptr + row_t_ptr
        kw_ids = np.empty(kw_ptr[-1], dtype=np.int64)
        kw_ids[np.arange(len(q_pos)) + np.repeat(row_t_ptr[:-1], np.diff(row_q_ptr))] = q_ids[q_pos]
        kw_ids[np.arange(len(t_pos)) + np.repeat(row_q_ptr[1:], np.diff(row_t_ptr))] = self.title_ids[t_pos]
        return kw_ptr, kw_ids

    def standardize(self, raw: np.ndarray, lengths: np.ndarray, label) -> np.ndarray:
        """(rows, n_dense) dense statistics, given as dense_rows gives them,
        scaled by the training-split mean and std in float64, then rounded
        to the table's dtype. A row whose length is not n_dense is a
        SchemaError that names label(row)."""
        wrong = np.flatnonzero(lengths != self.n_dense)
        if len(wrong):
            i = int(wrong[0])
            raise SchemaError(f"{label(i)}: dense vector has {lengths[i]} values, expected {self.n_dense}")
        raw = raw[:, : self.n_dense].reshape(len(lengths), self.n_dense)
        return ((raw - self.dense_mean) / self.dense_std).astype(self.table.dtype, copy=False)

    def behavior_rows(self, behaviors: list[list[list[str]]], label) -> tuple[np.ndarray, np.ndarray]:
        """Per-context behavior lists of k kinds as one CSR pair of item entity ids,
        row i * k + kind holding context i's items of that kind. A context
        without k kinds is a SchemaError that names label(context)."""
        k = self.n_behavior_kinds
        for i, per_kind in enumerate(behaviors):
            if len(per_kind) != k:
                raise SchemaError(f"{label(i)}: {len(per_kind)} behavior kinds, expected {k}")
        try:
            return csr_lists(list(chain.from_iterable(behaviors)), self._item_ids)
        except KeyError as exc:
            raise UnknownNameError(f"unknown item '{exc.args[0]}'") from None

    def fit_stats(self, train_samples) -> None:
        if not train_samples:
            raise SchemaError("cannot fit featurizer statistics on an empty split")
        lengths = {len(s.dense) for s in train_samples}
        if len(lengths) != 1:
            raise SchemaError(f"inconsistent dense-vector lengths in train split: {lengths}")
        self.n_dense = lengths.pop()
        kinds = {len(s.behaviors) for s in train_samples}
        if len(kinds) != 1:
            raise SchemaError(f"inconsistent behavior-kind counts in train split: {kinds}")
        self.n_behavior_kinds = kinds.pop()
        dense = np.array([s.dense for s in train_samples], dtype=np.float64)
        self.dense_mean = dense.mean(axis=0)
        std = dense.std(axis=0)
        self.dense_std = np.where(std > 1e-8, std, 1.0)

    def prepare(self, samples) -> Dataset:
        """The samples as Dataset rows, sample i in row i and behavior context i."""
        if self.n_dense is None:
            raise SchemaError("fit_stats must be called before prepare")
        n = len(samples)
        # one CSR row per distinct query; queries[i] is sample i's row
        index = {q: i for i, q in enumerate(dict.fromkeys(s.query for s in samples))}
        q_ptr, q_ids = csr_lists([self.query_keyword_ids(q) for q in index])
        queries = np.fromiter((index[s.query] for s in samples), dtype=np.int64, count=n)
        rows = self.item_rows([s.candidate_item for s in samples])
        kw_ptr, kw_ids = self.keyword_rows(q_ptr, q_ids, queries, rows)
        cat_idx = self.category_slots([s.categories for s in samples])
        dense = self.standardize(*dense_rows([s.dense for s in samples]), lambda i: f"sample {i}")
        beh_ptr, beh_ids = self.behavior_rows([s.behaviors for s in samples], lambda i: f"sample {i}")
        labels = np.array([s.label for s in samples], dtype=self.table.dtype)
        return Dataset(
            beh_ptr, beh_ids, np.arange(n), kw_ptr, kw_ids, np.diff(q_ptr)[queries], cat_idx, dense, labels,
            self.n_behavior_kinds,
        )


def _xavier(rng: RngStream, shape: tuple[int, int], fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, shape)


class KdcnModel:
    """Parameter store plus the batched forward/backward passes."""

    def __init__(self, cfg: TrainConfig, featurizer: Featurizer):
        self.cfg = cfg
        self.store = ParamStore()
        self.dim = featurizer.dim
        self.n_dense = featurizer.n_dense
        self.n_behavior_kinds = featurizer.n_behavior_kinds
        self.frozen_table = featurizer.table
        self.dtype = featurizer.table.dtype
        self.u_dim = len(cfg.conv_widths) * cfg.conv_filters if cfg.use_user_state else 0
        self.d_dim = 2 * self.dim if cfg.use_dialogue else 0
        self.f_width = cfg.n_cat_slots * cfg.cat_dim + self.n_dense + self.u_dim + self.d_dim
        if cfg.use_deep:
            self.deep_out = cfg.deep_width if cfg.deep_layers > 0 else self.f_width
        else:
            self.deep_out = 0
        self.logits_in = (self.f_width if cfg.use_cross else 0) + self.deep_out

    @classmethod
    def build(cls, cfg: TrainConfig, featurizer: Featurizer, rng: RngStream) -> "KdcnModel":
        model = cls(cfg, featurizer)
        d = model.dim

        def add(name: str, value: np.ndarray) -> None:
            # initial values are drawn in float64 and rounded to the model's dtype
            model.store.add(name, value.astype(model.dtype, copy=False))

        if cfg.use_dialogue and d % cfg.attention_heads != 0:
            raise DimensionError(
                f"embedding dim {d} not divisible by {cfg.attention_heads} attention heads"
            )
        add(
            "cat_table",
            rng.uniform(
                -1.0 / np.sqrt(cfg.cat_dim),
                1.0 / np.sqrt(cfg.cat_dim),
                (max(featurizer.n_categories, 1), cfg.cat_dim),
            ),
        )
        if cfg.use_user_state:
            n_f = cfg.conv_filters
            for width in cfg.conv_widths:
                # drawn as (filter, dim * width) rows, stored in tap layout:
                # tap n of filter j is column n * filters + j
                filters = _xavier(rng, (n_f, d * width), d * width, 1).reshape(n_f, d, width)
                add(f"conv_taps{width}", filters.transpose(1, 2, 0).reshape(d, width * n_f))
                add(f"conv_b{width}", np.zeros((n_f, 1)))
        if cfg.use_dialogue:
            # the query, key and value projections, stacked
            add("attn_qkv", _xavier(rng, (3 * d, d), d, d // cfg.attention_heads))
        if cfg.use_cross:
            # one layer per column
            add("cross_w", _xavier(rng, (cfg.n_cross, model.f_width), model.f_width, 1).T)
            add("cross_b", np.zeros((model.f_width, cfg.n_cross)))
        if cfg.use_deep:
            width_in = model.f_width
            for i in range(cfg.deep_layers):
                add(
                    f"deep_w{i}", _xavier(rng, (cfg.deep_width, width_in), width_in, cfg.deep_width)
                )
                add(f"deep_b{i}", np.zeros((cfg.deep_width, 1)))
                width_in = cfg.deep_width
        add("logits_w", _xavier(rng, (model.logits_in, 1), model.logits_in, 1))
        if cfg.finetune_embeddings:
            add("entity_table", featurizer.table.copy())
        return model

    # ---- parameter views -------------------------------------------------

    def entity_table(self) -> np.ndarray:
        if self.cfg.finetune_embeddings:
            return self.store.value("entity_table")
        return self.frozen_table

    # ---- batched forward -------------------------------------------------

    def _behavior_matrices(self, batch: Dataset, table: np.ndarray, cache: dict) -> np.ndarray:
        """(contexts, k_eff, d) per-kind behavior means, kinds on axis 1.

        k_eff is the larger of the kind count and the widest filter; the
        rows past the kind count are zero.
        """
        k = self.n_behavior_kinds
        counts = np.diff(batch.beh_ptr)
        weights = np.repeat(1.0 / np.maximum(counts, 1), counts).astype(self.dtype, copy=False)
        cache["pool"] = incidence(batch.beh_ids, weights, len(table), batch.beh_ptr)
        bmat = np.zeros((len(counts) // k, max(k, max(self.cfg.conv_widths)), self.dim), dtype=self.dtype)
        bmat[:, :k] = (cache["pool"] @ table).reshape(len(bmat), k, self.dim)
        return bmat

    def _user_state_forward(self, bmat: np.ndarray, cache: dict) -> np.ndarray:
        """Each context's max-pooled ReLU filter responses, (contexts, u_dim).

        kn2row: one GEMM applies every tap of every filter to every behavior
        row, and a width-w response at position t adds tap n's product at row
        t + n for n < w.
        """
        n_f = self.cfg.conv_filters
        n_ctx, k_eff, _ = bmat.shape
        # every width's taps side by side, width w's after the smaller widths'
        widths = sorted(self.cfg.conv_widths)
        taps = np.concatenate([self.store.value(f"conv_taps{w}") for w in widths], axis=1)
        y = (bmat.reshape(n_ctx * k_eff, self.dim) @ taps).reshape(n_ctx, k_eff, taps.shape[1])
        pooled_parts, per_width = [], []
        col = 0
        for width in widths:
            p = k_eff - width + 1
            vals = y[:, :p, col : col + n_f] + self.store.value(f"conv_b{width}")[:, 0]
            for n in range(1, width):
                vals += y[:, n : n + p, col + n * n_f : col + (n + 1) * n_f]
            arg = vals.argmax(axis=1)
            m = vals.max(axis=1)
            pooled_parts.append(relu(m))
            per_width.append((width, col, arg, m))
            col += width * n_f
        cache["conv"] = (taps, per_width)
        return np.concatenate(pooled_parts, axis=1)

    def _dialogue_forward(self, batch: Dataset, table: np.ndarray, cache: dict) -> np.ndarray:
        heads = self.cfg.attention_heads
        head_dim = self.dim // heads
        counts = batch.kw_ptr[1:] - batch.kw_ptr[:-1]
        # rows in order of their keyword count, so that the keywords of the
        # rows sharing a count L (a bucket) are one contiguous block; offsets
        # holds the first keyword of each row in that order
        order = np.argsort(counts, kind="stable")
        offsets, slots = ragged_rows(batch.kw_ptr, order)
        # each distinct keyword is projected once: ids[inverse[j]] is the
        # keyword at position j of that order
        ids, inverse = np.unique(batch.kw_ids[slots], return_inverse=True)
        x_u = table[ids]
        # one GEMM; the matrices are row-blocked by head, so row u of proj_u
        # holds distinct keyword u's (3, heads, head_dim)
        proj_u = (x_u @ self.store.value("attn_qkv").T).reshape(len(ids), 3, heads, head_dim)
        # every keyword's two pooling weights, (R, 2) in this order: 1/n_q
        # and 0 at each of a row's n_q query keywords (which come first), 0
        # and 1/n_t at each of its n_t title keywords
        lengths = counts[order]
        n_query = batch.n_query[order]
        n_title = lengths - n_query
        per_group = np.zeros((batch.n, 2, 2), dtype=self.dtype)
        per_group[:, 0, 0] = 1 / np.maximum(n_query, 1)
        per_group[:, 1, 1] = 1 / np.maximum(n_title, 1)
        groups = np.stack([n_query, n_title], axis=1).ravel()
        weights = np.repeat(per_group.reshape(2 * batch.n, 2), groups, axis=0)
        # the buckets' bounds in that order: both ends and every change of L
        change = np.ones(batch.n + 1, dtype=bool)
        np.not_equal(lengths[1:], lengths[:-1], out=change[1:-1])
        bounds = np.flatnonzero(change).tolist()
        out = np.zeros((batch.n, 2, heads, head_dim), dtype=self.dtype)  # rows with L = 0 stay 0
        buckets = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            length = int(lengths[lo])
            if length == 0:
                continue
            rows, block = order[lo:hi], slice(offsets[lo], offsets[hi])
            # gathered per bucket, not kept: the backward gathers them again
            qkv = proj_u[inverse[block]].reshape(hi - lo, length, *proj_u.shape[1:])
            q, k, v = qkv.transpose(2, 0, 3, 1, 4)
            # every key is real: a plain softmax over (n_b, heads, L, L)
            attn = q @ k.transpose(0, 1, 3, 2)
            # the row max as a running maximum over the L key columns: numpy's
            # reduction over a short axis costs several times more per element
            top = attn[..., :1].copy()
            for j in range(1, length):
                np.maximum(top, attn[..., j : j + 1], out=top)
            attn -= top
            np.exp(attn, out=attn)
            attn /= np.einsum("nhij->nhi", attn)[..., None]
            # pool before the value product: with the bucket's weights as
            # G, (n_b, 1, 2, L), r = G @ attn is (n_b, heads, 2, L)
            g = weights[block].reshape(hi - lo, 1, length, 2).transpose(0, 1, 3, 2)
            r = g @ attn
            out[rows] = (r @ v).transpose(0, 2, 1, 3)
            buckets.append((rows, block, attn, g, r))
        cache["attn"] = (ids, inverse, x_u, proj_u, buckets)
        return out.reshape(batch.n, self.d_dim)

    def _assemble(self, batch: Dataset, table: np.ndarray, cache: dict) -> np.ndarray:
        cfg = self.cfg
        cat_table = self.store.value("cat_table")
        gathered = cat_table[np.maximum(batch.cat_idx, 0)]
        gathered *= (batch.cat_idx >= 0)[:, :, None]
        # the known width, since a 0-row batch cannot infer it
        parts = [gathered.reshape(batch.n, cfg.n_cat_slots * cfg.cat_dim), batch.dense]
        if cfg.use_user_state:
            bmat = self._behavior_matrices(batch, table, cache)
            cache["bmat"] = bmat
            parts.append(self._user_state_forward(bmat, cache)[batch.context])
        if cfg.use_dialogue:
            parts.append(self._dialogue_forward(batch, table, cache))
        return np.concatenate(parts, axis=1)

    def forward(self, batch: Dataset):
        """Full forward pass; returns (probabilities, cache)."""
        cfg = self.cfg
        table = self.entity_table()
        cache: dict = {"table": table}
        f = self._assemble(batch, table, cache)
        cache["f"] = f
        towers = []
        if cfg.use_cross:
            x, cache["cross"] = cross_tower(f, self.store.value("cross_w"), self.store.value("cross_b"))
            towers.append(x)
        if cfg.use_deep:
            x = f
            cache["deep"] = []
            for i in range(cfg.deep_layers):
                w = self.store.value(f"deep_w{i}")
                b = self.store.value(f"deep_b{i}")
                z = x @ w.T + b.T
                cache["deep"].append({"x": x, "mask": z > 0})
                x = relu(z)
            towers.append(x)
        z_out = np.concatenate(towers, axis=1)
        cache["z_out"] = z_out
        logit = (z_out @ self.store.value("logits_w"))[:, 0]
        cache["logit"] = logit
        return sigmoid(logit), cache

    def predict_batch(self, batch: Dataset) -> np.ndarray:
        return self.forward(batch)[0]

    # ---- batched backward ------------------------------------------------

    def loss_and_grads(self, batch: Dataset) -> tuple[float, np.ndarray]:
        """Forward + backward; accumulates gradients into the store."""
        cfg = self.cfg
        store = self.store
        p, cache = self.forward(batch)
        y = batch.labels
        loss = log_loss(p, y)
        dlogit = logit_grad(cache["logit"], p, y)

        z_out = cache["z_out"]
        w_logits = store.value("logits_w")
        store.grad("logits_w")[...] += z_out.T @ dlogit[:, None]
        dz = np.outer(dlogit, w_logits[:, 0])

        df = 0.0
        offset = 0
        if cfg.use_cross:
            offset = self.f_width
            df, dw, db = cross_tower_backward(cache["f"], dz[:, :offset], cache["cross"])
            store.grad("cross_w")[...] += dw
            store.grad("cross_b")[...] += db
        if cfg.use_deep:
            dx = dz[:, offset:]
            for i in range(cfg.deep_layers - 1, -1, -1):
                layer = cache["deep"][i]
                dzl = dx * layer["mask"]
                store.grad(f"deep_w{i}")[...] += dzl.T @ layer["x"]
                store.grad(f"deep_b{i}")[...] += dzl.sum(axis=0)[:, None]
                dx = dzl @ store.value(f"deep_w{i}")
            df = df + dx

        self._assemble_backward(batch, cache, df)
        if not np.isfinite(loss):
            raise TrainingError("non-finite loss")
        return loss, p

    def _assemble_backward(self, batch: Dataset, cache: dict, df: np.ndarray) -> None:
        cfg = self.cfg
        store = self.store
        table = cache["table"]
        finetune = cfg.finetune_embeddings
        dtable = store.grad("entity_table") if finetune else None

        s_cat = cfg.n_cat_slots * cfg.cat_dim
        filled = np.flatnonzero(batch.cat_idx >= 0)
        dcat = df[:, :s_cat].reshape(-1, cfg.cat_dim)[filled]
        cat_grad = store.grad("cat_table")
        cat_grad += scatter_rows(batch.cat_idx.ravel()[filled], dcat, len(cat_grad))
        offset = s_cat + self.n_dense

        if cfg.use_user_state:
            bmat, (taps, per_width) = cache["bmat"], cache["conv"]
            n_ctx, k_eff, _ = bmat.shape
            # the rows of a context share its user state, so their gradients add up
            du = scatter_rows(batch.context, df[:, offset : offset + self.u_dim], n_ctx)
            offset += self.u_dim
            n_f = cfg.conv_filters
            # the forward's shifted adds, backwards: tap n of a width-w filter
            # at position t reads behavior row t + n
            dy = np.zeros((n_ctx, k_eff, taps.shape[1]), dtype=self.dtype)
            for i, (width, col, arg, m) in enumerate(per_width):
                p = k_eff - width + 1
                dvals = np.zeros((n_ctx, p, n_f), dtype=self.dtype)
                dpooled = du[:, i * n_f : (i + 1) * n_f] * (m > 0)
                np.put_along_axis(dvals, arg[:, None], dpooled[:, None], axis=1)
                store.grad(f"conv_b{width}")[...] += dvals.sum(axis=(0, 1))[:, None]
                for n in range(width):
                    dy[:, n : n + p, col + n * n_f : col + (n + 1) * n_f] = dvals
            dy = dy.reshape(n_ctx * k_eff, taps.shape[1])
            dtaps = bmat.reshape(n_ctx * k_eff, self.dim).T @ dy
            for width, col, _, _ in per_width:
                store.grad(f"conv_taps{width}")[...] += dtaps[:, col : col + width * n_f]
            if finetune:
                dmean = (dy @ taps.T).reshape(n_ctx, k_eff, self.dim)[:, : self.n_behavior_kinds]
                dtable += cache["pool"].T @ dmean.reshape(-1, self.dim)

        if cfg.use_dialogue:
            ids, inverse, x_u, proj_u, buckets = cache["attn"]
            heads = cfg.attention_heads
            dd = df[:, offset : offset + self.d_dim].reshape(batch.n, 2, heads, proj_u.shape[3])
            dproj_u = np.zeros((len(ids), 3 * self.dim), dtype=self.dtype)
            for rows, block, a, g, r in buckets:
                qkv = proj_u[inverse[block]].reshape(len(rows), -1, *proj_u.shape[1:])
                q, k, v = qkv.transpose(2, 0, 3, 1, 4)
                ddb = dd[rows].transpose(0, 2, 1, 3)
                # rank 2: d weights_ij = G_g(i),i * (dd_g(i) . v_j), then in
                # place the softmax backward to d logits
                dlog = g.transpose(0, 1, 3, 2) @ (ddb @ v.transpose(0, 1, 3, 2))
                dlog -= np.einsum("nhij,nhij->nhi", dlog, a)[..., None]
                dlog *= a
                # the bucket's keyword gradients, added onto their distinct keywords
                dqkv = np.empty_like(qkv)
                np.matmul(dlog, k, out=dqkv[:, :, 0].transpose(0, 2, 1, 3))
                np.matmul(dlog.transpose(0, 1, 3, 2), q, out=dqkv[:, :, 1].transpose(0, 2, 1, 3))
                np.matmul(r.transpose(0, 1, 3, 2), ddb, out=dqkv[:, :, 2].transpose(0, 2, 1, 3))
                dproj_u += scatter_rows(inverse[block], dqkv.reshape(-1, 3 * self.dim), len(ids))
            store.grad("attn_qkv")[...] += dproj_u.T @ x_u
            if finetune:
                dtable[ids] += dproj_u @ store.value("attn_qkv")


def scatter_rows(ids: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, cols) sums of rows by target id: out[ids[j]] += rows[j], repeats adding up.

    The transpose of an incidence operator with one entry per source row,
    much cheaper per row than np.add.at. An id outside [0, n) raises IndexError.
    """
    return incidence(ids, np.ones(len(ids), dtype=rows.dtype), n, np.arange(len(ids) + 1)).T @ rows


def cross_tower(f: np.ndarray, w: np.ndarray, b: np.ndarray):
    """All cross layers x <- f * (x @ w_l) + b_l + x from x_0 = f, in closed form.

    w and b hold one layer per column, (F, L). Every layer only rescales f
    by a per-row scalar and adds a bias, so x_l = f * c_l + B_l with c_0 = 1
    and B_l = b_0 + ... + b_{l-1}. With G = f @ w (one GEMM),
    c_{l+1} = c_l * (1 + G[:, l]) + B_l . w_l, and the n x F output is
    written once. Returns (x_L, cache for cross_tower_backward).
    """
    n_layers = w.shape[1]
    prefix = np.cumsum(np.concatenate([np.zeros((1, len(w)), b.dtype), b.T]), axis=0)  # B_0 .. B_L
    offsets = np.einsum("lf,fl->l", prefix[:-1], w)
    g = f @ w
    c = np.ones((len(f), n_layers + 1), dtype=g.dtype)
    for l in range(n_layers):
        c[:, l + 1] = c[:, l] * (1.0 + g[:, l]) + offsets[l]
    # in place: a second n x F temporary costs more than the arithmetic
    x = f * c[:, -1:]
    x += prefix[-1]
    return x, (w, prefix, g, c)


def cross_tower_backward(f: np.ndarray, dx: np.ndarray, cache) -> tuple[np.ndarray, ...]:
    """Gradients (df, dw, db) of the cross tower from dx = dLoss/dx_L.

    Runs the per-row scalar recursion of cross_tower backwards: dc_{l+1}
    is the gradient of layer l's scalar x_l @ w_l, so dG[:, l] =
    dc_{l+1} * c_l and B_l . w_l collects sum(dc_{l+1}), which reaches
    w_l through B_l and every b_j (j < l) through w_l.
    """
    w, prefix, g, c = cache
    n_layers = w.shape[1]
    dc = np.einsum("ij,ij->i", dx, f)
    dg = np.empty_like(g)
    dw = np.empty_like(w)
    db = np.empty_like(w)
    db_acc = dx.sum(axis=0)
    for l in range(n_layers - 1, -1, -1):
        dg[:, l] = dc * c[:, l]
        d_offset = dc.sum()
        dw[:, l] = prefix[l] * d_offset
        db[:, l] = db_acc
        db_acc = db_acc + w[:, l] * d_offset
        dc = dc * (1.0 + g[:, l])
    df = dg @ w.T
    df += dx * c[:, -1:]
    dw += f.T @ dg
    return df, dw, db


def logit_grad(logit: np.ndarray, p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d mean log_loss / d logit: (p - y) / n, and 0 where log_loss clamps p.

    The clamp is decided on the logit, not on p, so it is the same in every
    dtype: a float32 sigmoid rounds to exactly 1.0 from about 16.6 on, far
    inside the clamp, and a confidently wrong row keeps its gradient.
    """
    return np.where(np.abs(logit) < _CLAMP_LOGIT, p - y, 0.0) / len(p)


def log_loss(p, y) -> float:
    """Mean binary cross-entropy with probabilities clamped away from 0/1."""
    p = np.asarray(p, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if p.shape != y.shape:
        raise DimensionError(f"{p.size} probabilities vs {y.size} labels")
    pc = np.clip(p, _CLAMP, 1.0 - _CLAMP)
    return float(-np.mean(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)))


@dataclass
class EpochStats:
    train_loss: float
    valid_auc: float


@dataclass
class FitResult:
    model: KdcnModel
    featurizer: Featurizer
    history: list[EpochStats] = field(default_factory=list)


def fit(
    train_samples,
    valid_samples,
    checkpoint: PretrainCheckpoint,
    cfg: TrainConfig,
    rng: RngStream,
    entities: list[EntityRef],
    item_meta: dict[str, ItemMeta],
) -> FitResult:
    """Minibatch Adam training with per-epoch loss and validation AUC.

    Trains in float32: an in-memory float64 checkpoint table is rounded to
    float32 first, as export_checkpoint would store it, so training on a
    pretrain() result and on its ckge.bin gives the same model.
    """
    table = np.asarray(checkpoint.entity_table, dtype=np.float32)
    featurizer = Featurizer(replace(checkpoint, entity_table=table), entities, item_meta, cfg)
    featurizer.fit_stats(train_samples)
    model = KdcnModel.build(cfg, featurizer, rng.child("init"))
    train_set = featurizer.prepare(train_samples)
    valid_set = featurizer.prepare(valid_samples) if valid_samples else None
    shuffle_rng = rng.child("shuffle")
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(train_set.n)
        total = 0.0
        for start in range(0, train_set.n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = train_set.batch(idx)
            try:
                loss, _ = model.loss_and_grads(batch)
            except TrainingError as exc:
                raise TrainingError(
                    f"epoch {epoch} batch {start // cfg.batch_size}: {exc}"
                ) from exc
            total += loss * batch.n
            adam_step(model.store, cfg.lr)
        train_loss = total / train_set.n
        valid_auc = float("nan")
        if valid_set is not None and valid_set.n:
            labels = valid_set.labels.astype(int)
            if 0 < labels.sum() < valid_set.n:
                scores = score_dataset(model, valid_set)
                valid_auc = auc(scores, labels.tolist())
        history.append(EpochStats(train_loss, valid_auc))
    return FitResult(model, featurizer, history)


def score_dataset(model: KdcnModel, dataset: Dataset) -> list[float]:
    """The model's click probabilities for every row of dataset, in row order.

    It scores batch_size rows per forward pass, the rows of a training step,
    so scoring never holds more than a step does.
    """
    size = model.cfg.batch_size
    scores: list[float] = []
    for start in range(0, dataset.n, size):
        idx = np.arange(start, min(start + size, dataset.n))
        scores.extend(model.predict_batch(dataset.batch(idx)).tolist())
    return scores


MODEL_MAGIC = b"KDCN"
MODEL_VERSION = 1


def save_model(model: KdcnModel, path) -> None:
    """Write all parameter slots in numeric.write_slots's format."""
    values = {name: slot.value for name, slot in model.store.slots.items()}
    write_slots(path, MODEL_MAGIC, MODEL_VERSION, values)


def load_model_values(path) -> dict[str, np.ndarray]:
    """Read a model file back into name -> float32 array, as stored."""
    return read_slots(path, MODEL_MAGIC, MODEL_VERSION, "kdcn train")


def restore_model_values(model: KdcnModel, values: dict[str, np.ndarray]) -> None:
    if set(values) != set(model.store.names()):
        raise FormatError(
            f"slot names {sorted(values)} do not match model slots {sorted(model.store.names())}"
        )
    for name, arr in values.items():
        slot = model.store[name]
        if slot.value.shape != arr.shape:
            raise FormatError(f"slot '{name}': file shape {arr.shape} vs model {slot.value.shape}")
        slot.value[...] = arr


def save_ranker(model: KdcnModel, featurizer: Featurizer, meta_path, model_path) -> None:
    """Write the served ranker: its slots to model_path (kdcn.bin, see
    save_model) and its TrainConfig and featurizer statistics to meta_path
    (kdcn.meta.json), which load_ranker reads back."""
    save_model(model, model_path)
    meta = {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in model.cfg.__dict__.items()},
        "dense_mean": featurizer.dense_mean.tolist(),
        "dense_std": featurizer.dense_std.tolist(),
        "n_dense": featurizer.n_dense,
        "n_behavior_kinds": featurizer.n_behavior_kinds,
    }
    write_lines(meta_path, [json.dumps(meta, indent=2, sort_keys=True)])


# the JSON form kdcn.meta.json stores each TrainConfig field type in: type ->
# (check, what it must be); a bool is not an int, and an int is a float
_JSON_FORMS = {
    bool: (lambda v: type(v) is bool, "true or false"),
    int: (lambda v: type(v) is int, "an integer"),
    float: (lambda v: type(v) in (int, float), "a number"),
    tuple: (lambda v: isinstance(v, list) and all(type(x) is int for x in v), "a list of integers"),
}


def _load_meta(path) -> tuple[TrainConfig, dict]:
    """kdcn.meta.json as save_ranker writes it; anything else is a FormatError naming the file."""
    try:
        meta = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=json_object)
    except ValueError as exc:  # UnicodeDecodeError included
        raise FormatError(f"{path}: not JSON ({exc})") from None
    except ParseError as exc:  # a repeated key
        raise FormatError(f"{path}: {exc}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise FormatError(f"{path}: expected an object with a 'config' object")
    types = {f.name: type(f.default) for f in fields(TrainConfig)}
    unknown = sorted(set(meta["config"]) - set(types))
    if unknown:
        raise FormatError(f"{path}: unknown config key(s) {cut(', '.join(unknown))}")
    for key, value in meta["config"].items():
        fits, what = _JSON_FORMS[types[key]]
        if not fits(value):
            raise FormatError(f"{path}: config key '{key}' must be {what}, got {shown(value)}")
    missing = [k for k in ("n_dense", "n_behavior_kinds", "dense_mean", "dense_std") if k not in meta]
    if missing:
        raise FormatError(f"{path}: missing {', '.join(missing)}")
    for key in ("n_dense", "n_behavior_kinds"):
        if type(meta[key]) is not int or meta[key] < 1:  # a bool is not a count
            raise FormatError(f"{path}: {key} must be an integer >= 1, got {shown(meta[key])}")
    # fit_stats writes 1.0 for a spread at or below 1e-8, so a stored std is > 0
    for key, low in (("dense_mean", -math.inf), ("dense_std", 0.0)):
        if not isinstance(meta[key], list) or len(meta[key]) != meta["n_dense"]:
            raise FormatError(f"{path}: {key} does not hold n_dense = {shown(meta['n_dense'])} values")
        if not all(json_number(v) and low < v for v in meta[key]):
            raise FormatError(f"{path}: {key} must hold finite float64 values > {low}")
    # JSON has no tuples, and conv_widths is the one list
    stored = {k: tuple(v) if isinstance(v, list) else v for k, v in meta["config"].items()}
    try:
        return TrainConfig(**stored), meta
    except ConfigError as exc:
        raise FormatError(f"{path}: config: {exc}") from None


def load_ranker(
    meta_path,
    model_path,
    checkpoint: PretrainCheckpoint,
    entities: list[EntityRef],
    item_meta: dict[str, ItemMeta],
) -> tuple[KdcnModel, Featurizer]:
    """The served ranker that save_ranker wrote, on the given checkpoint,
    entities and item metadata: (model, featurizer).

    Every TrainConfig setting and the featurizer statistics come from
    meta_path, the slots from model_path. A meta file that is not as
    save_ranker writes it, or whose shapes do not fit the model file, is a
    FormatError naming the file(s).
    """
    cfg, meta = _load_meta(meta_path)
    featurizer = Featurizer(checkpoint, entities, item_meta, cfg)
    featurizer.n_dense = meta["n_dense"]
    featurizer.n_behavior_kinds = meta["n_behavior_kinds"]
    featurizer.dense_mean = np.array(meta["dense_mean"])
    featurizer.dense_std = np.array(meta["dense_std"])
    model = KdcnModel.build(cfg, featurizer, RngStream(0))
    values = load_model_values(model_path)
    try:
        restore_model_values(model, values)
    except FormatError as exc:
        raise FormatError(
            f"{meta_path} does not match {model_path}: {exc} "
            f"(a kdcn.bin written by an earlier build must be retrained)"
        ) from None
    return model, featurizer


def rank_candidates(
    behaviors: list[list[str]],
    query: str,
    candidates: list[str],
    model: KdcnModel,
    featurizer: Featurizer,
) -> list[tuple[str, float]]:
    """Score candidate items for one context; descending probability.

    The behaviors and the query are featurized once per request, and the
    batch pools and convolves the behaviors once: every candidate row
    shares behavior context 0. Each candidate's title keywords, category
    slots and raw dense statistics are rows of the featurizer's per-item
    arrays; the dense rows are standardized per request, with the
    featurizer's current statistics. Ties break by ascending item entity
    id, so the ordering is deterministic and invariant to the input
    candidate order.
    """
    if len(candidates) > model.cfg.candidate_cap:
        raise CapacityError(
            f"{len(candidates)} candidates exceed the cap of {model.cfg.candidate_cap}"
        )
    rows = featurizer.item_rows(candidates)
    ids = featurizer.item_entity_ids[rows]
    if (ids < 0).any():
        raise UnknownNameError(f"unknown item '{candidates[int(np.argmin(ids))]}'")
    # score in a canonical order so results are bit-identical under any
    # permutation of the input list
    canonical = np.argsort(ids, kind="stable")
    rows = rows[canonical]
    n = len(candidates)
    query_ids = featurizer.query_keyword_ids(query)
    # every row takes row 0 of a one-query CSR pair
    q_ptr, q_ids = np.array([0, len(query_ids)]), np.array(query_ids, dtype=np.int64)
    kw_ptr, kw_ids = featurizer.keyword_rows(q_ptr, q_ids, np.zeros(n, dtype=np.int64), rows)
    beh_ptr, beh_ids = featurizer.behavior_rows([behaviors], lambda _: "request behaviors")
    request = Dataset(
        beh_ptr=beh_ptr,
        beh_ids=beh_ids,
        context=np.zeros(n, dtype=np.int64),  # every candidate row reads context 0
        kw_ptr=kw_ptr,
        kw_ids=kw_ids,
        n_query=np.full(n, len(query_ids), dtype=np.int64),
        cat_idx=featurizer.item_cat_idx[rows],
        dense=featurizer.standardize(
            featurizer.item_dense[rows],
            featurizer.item_dense_len[rows],
            lambda i: f"item '{candidates[canonical[i]]}'",
        ),
        labels=np.zeros(n, dtype=model.dtype),
        n_behavior_kinds=featurizer.n_behavior_kinds,
    )
    scores = model.predict_batch(request)
    # the rows are in canonical order, so a stable sort on the score alone
    # breaks ties by ascending id
    order = np.argsort(-scores, kind="stable")
    return list(zip([candidates[i] for i in canonical[order].tolist()], scores[order].tolist()))
