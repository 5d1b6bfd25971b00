"""Knowledge-derived feature representations for the CTR ranker.

Three building blocks, all pure functions of their inputs:

  * user state  - per-behavior-kind mean item embeddings, stacked into a
    d x k matrix and summarized by small full-height convolutions with
    ReLU and max-pooling over positions;
  * dialogue interaction - self-attention over the query and candidate-title
    keyword embeddings, multi-head, flattened to a fixed width with zero
    padding;
  * assembly - concatenation of categorical embeddings, standardized dense
    statistics, the user state, and the dialogue interaction, in that order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError
from .numeric import conv_seq, relu, softmax_rows

_TOKEN_RE = re.compile(r"[^0-9a-zA-Z_]+")


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
    d: np.ndarray  # flattened dialogue-interaction block


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
