"""The knowledge-enhanced deep-cross CTR ranker.

The input vector f concatenates categorical embeddings, standardized dense
statistics, the user-state block u and the dialogue-interaction block d.
Two parallel towers process f: a cross network (each layer computes the
scalar x'w and adds f*scalar + bias back onto a residual path) and a deep
ReLU network; their outputs concatenate into a single logits dot product.

Training is batched numpy with hand-written backward passes; the per-sample
operations in kdcn.features are the reference semantics and the batched
paths are tested to match them. Ablation flags remove feature blocks or
towers structurally, so a disabled block contributes no parameters at all.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    ConfigError,
    DimensionError,
    FormatError,
    SchemaError,
    TrainingError,
)
from .features import AttentionParams, ConvParams, extract_keywords
from .graph import EntityRef
from .metrics import auc
from .numeric import ParamStore, adam_step, relu, sigmoid
from .pretrain import PretrainCheckpoint
from .rng import RngStream

_CLAMP = 1e-12


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 512
    epochs: int = 5
    seed: int = 0
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
        if self.n_cross < 0 or self.deep_layers < 0:
            raise ConfigError("layer counts must be >= 0")


# named ablations used by the evaluation report
ABLATIONS: dict[str, dict] = {
    "kdcn": {},
    "dcn": {"use_user_state": False, "use_dialogue": False},
    "cross_only": {"use_deep": False},
    "deep_only": {"use_cross": False},
    "lr_like": {"n_cross": 0, "use_deep": False},
}


def ablation_config(base: TrainConfig, name: str) -> TrainConfig:
    overrides = ABLATIONS[name]
    kwargs = {**base.__dict__, **overrides}
    return TrainConfig(**kwargs)


@dataclass
class ItemMeta:
    name: str
    title: str
    categories: list[str]
    dense: list[float]


def item_meta_from_events(events) -> dict[str, ItemMeta]:
    """Collect per-item metadata (title, categories, dense stats) from events.

    An item listed under several categories emits one event per category;
    they merge into one record with the categories in listing order.
    """
    meta: dict[str, ItemMeta] = {}
    for rec in events:
        if rec.get("type") == "item_listing":
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
class Batch:
    """Index arrays and constants for one minibatch."""

    n: int
    bmat: np.ndarray | None  # (n, d, k) precomputed behavior matrices (frozen mode)
    beh_src: np.ndarray | None  # flat item ids (finetune mode)
    beh_owner: np.ndarray | None  # flat row index into n*k
    beh_counts: np.ndarray | None  # (n*k,)
    kw_ids: np.ndarray  # (n, P) int, 0 where padded
    kw_mask: np.ndarray  # (n, P) float64, 1 for real keywords
    cat_idx: np.ndarray  # (n, S) int, -1 where padded
    dense: np.ndarray  # (n, n_dense) standardized
    labels: np.ndarray  # (n,) float64


class Dataset:
    """Featurized samples, sliceable into batches by index."""

    def __init__(self, featurizer: "Featurizer", samples):
        f = featurizer
        self.featurizer = f
        self.n = len(samples)
        cfg = f.cfg
        p_total = cfg.max_query_keywords + cfg.max_title_keywords
        self.kw_ids = np.zeros((self.n, p_total), dtype=np.int64)
        self.kw_mask = np.zeros((self.n, p_total), dtype=np.float64)
        self.cat_idx = np.full((self.n, cfg.n_cat_slots), -1, dtype=np.int64)
        self.dense = np.zeros((self.n, f.n_dense), dtype=np.float64)
        self.labels = np.zeros(self.n, dtype=np.float64)
        self.behavior_ids: list[list[np.ndarray]] = []
        k_eff = max(f.n_behavior_kinds, max(cfg.conv_widths))
        self.bmat = np.zeros((self.n, f.dim, k_eff), dtype=np.float64)
        for i, s in enumerate(samples):
            ids = f.sample_keyword_ids(s)
            self.kw_ids[i, : len(ids)] = ids
            self.kw_mask[i, : len(ids)] = 1.0
            for slot, cname in enumerate(s.categories[: cfg.n_cat_slots]):
                self.cat_idx[i, slot] = f.category_index[cname]
            if len(s.dense) != f.n_dense:
                raise SchemaError(
                    f"sample {i}: dense vector has {len(s.dense)} values, expected {f.n_dense}"
                )
            self.dense[i] = (np.asarray(s.dense, dtype=np.float64) - f.dense_mean) / f.dense_std
            self.labels[i] = float(s.label)
            per_kind = [
                np.array([f.item_id(name) for name in beh], dtype=np.int64)
                for beh in s.behaviors
            ]
            if len(per_kind) != f.n_behavior_kinds:
                raise SchemaError(
                    f"sample {i}: {len(per_kind)} behavior kinds, expected {f.n_behavior_kinds}"
                )
            self.behavior_ids.append(per_kind)
            for kind, ids_k in enumerate(per_kind):
                if len(ids_k):
                    self.bmat[i, :, kind] = f.table[ids_k].mean(axis=0)

    def batch(self, idx: np.ndarray, finetune: bool = False) -> Batch:
        idx = np.asarray(idx, dtype=np.int64)
        beh_src = beh_owner = beh_counts = None
        bmat = self.bmat[idx]
        if finetune:
            k = self.featurizer.n_behavior_kinds
            src, owner = [], []
            counts = np.zeros(len(idx) * k, dtype=np.int64)
            for row, i in enumerate(idx):
                for kind, ids_k in enumerate(self.behavior_ids[i]):
                    src.extend(ids_k.tolist())
                    owner.extend([row * k + kind] * len(ids_k))
                    counts[row * k + kind] = len(ids_k)
            beh_src = np.array(src, dtype=np.int64)
            beh_owner = np.array(owner, dtype=np.int64)
            beh_counts = counts
            bmat = None
        return Batch(
            n=len(idx),
            bmat=bmat,
            beh_src=beh_src,
            beh_owner=beh_owner,
            beh_counts=beh_counts,
            kw_ids=self.kw_ids[idx],
            kw_mask=self.kw_mask[idx],
            cat_idx=self.cat_idx[idx],
            dense=self.dense[idx],
            labels=self.labels[idx],
        )


class Featurizer:
    """Maps raw samples onto entity ids, category indices and dense stats.

    Dense standardization statistics come from the training split only
    (fit_stats must run before prepare).
    """

    def __init__(
        self,
        checkpoint: PretrainCheckpoint,
        entities: list[EntityRef],
        item_meta: dict[str, ItemMeta],
        cfg: TrainConfig,
    ):
        self.cfg = cfg
        self.table = np.asarray(checkpoint.entity_table, dtype=np.float64)
        self.dim = checkpoint.dim
        self.item_meta = item_meta
        self._entity_ids = {(e.kind, e.name): e.id for e in entities}
        self.keyword_vocab = {e.name: e.id for e in entities if e.kind == "keyword"}
        cat_names = sorted(e.name for e in entities if e.kind == "category")
        self.category_index = {name: i for i, name in enumerate(cat_names)}
        self.n_categories = len(cat_names)
        self._title_ids_cache: dict[str, list[int]] = {}
        self.n_dense: int | None = None
        self.n_behavior_kinds: int | None = None
        self.dense_mean: np.ndarray | None = None
        self.dense_std: np.ndarray | None = None

    def item_id(self, name: str) -> int:
        key = ("item", name)
        if key not in self._entity_ids:
            raise KeyError(f"unknown item '{name}'")
        return self._entity_ids[key]

    def title_keyword_ids(self, item_name: str) -> list[int]:
        cached = self._title_ids_cache.get(item_name)
        if cached is None:
            if item_name not in self.item_meta:
                raise KeyError(f"no metadata for item '{item_name}'")
            cached = extract_keywords(
                self.item_meta[item_name].title,
                self.keyword_vocab,
                self.cfg.max_title_keywords,
            )
            self._title_ids_cache[item_name] = cached
        return cached

    def query_keyword_ids(self, query: str) -> list[int]:
        return extract_keywords(query, self.keyword_vocab, self.cfg.max_query_keywords)

    def sample_keyword_ids(self, sample) -> list[int]:
        return self.query_keyword_ids(sample.query) + self.title_keyword_ids(
            sample.candidate_item
        )

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
        if self.n_dense is None:
            raise SchemaError("fit_stats must be called before prepare")
        return Dataset(self, samples)


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
        self.u_dim = len(cfg.conv_widths) * cfg.conv_filters if cfg.use_user_state else 0
        p_total = cfg.max_query_keywords + cfg.max_title_keywords
        self.d_dim = p_total * self.dim if cfg.use_dialogue else 0
        self.f_width = cfg.n_cat_slots * cfg.cat_dim + self.n_dense + self.u_dim + self.d_dim
        if cfg.use_deep:
            self.deep_out = cfg.deep_width if cfg.deep_layers > 0 else self.f_width
        else:
            self.deep_out = 0
        self.logits_in = (self.f_width if cfg.use_cross else 0) + self.deep_out

    @classmethod
    def build(cls, cfg: TrainConfig, featurizer: Featurizer, rng: RngStream) -> "KdcnModel":
        model = cls(cfg, featurizer)
        store, d = model.store, model.dim
        if cfg.use_dialogue and d % cfg.attention_heads != 0:
            raise DimensionError(
                f"embedding dim {d} not divisible by {cfg.attention_heads} attention heads"
            )
        store.add(
            "cat_table",
            rng.uniform(
                -1.0 / np.sqrt(cfg.cat_dim),
                1.0 / np.sqrt(cfg.cat_dim),
                (max(featurizer.n_categories, 1), cfg.cat_dim),
            ),
        )
        if cfg.use_user_state:
            for width in cfg.conv_widths:
                store.add(
                    f"conv_w{width}",
                    _xavier(rng, (cfg.conv_filters, d * width), d * width, 1),
                )
                store.add(f"conv_b{width}", np.zeros((cfg.conv_filters, 1)))
        if cfg.use_dialogue:
            head_dim = d // cfg.attention_heads
            for name in ("attn_query", "attn_key", "attn_value"):
                store.add(name, _xavier(rng, (d, d), d, head_dim))
        if cfg.use_cross:
            for i in range(cfg.n_cross):
                store.add(f"cross_w{i}", _xavier(rng, (model.f_width, 1), model.f_width, 1))
                store.add(f"cross_b{i}", np.zeros((model.f_width, 1)))
        if cfg.use_deep:
            width_in = model.f_width
            for i in range(cfg.deep_layers):
                store.add(
                    f"deep_w{i}", _xavier(rng, (cfg.deep_width, width_in), width_in, cfg.deep_width)
                )
                store.add(f"deep_b{i}", np.zeros((cfg.deep_width, 1)))
                width_in = cfg.deep_width
        store.add("logits_w", _xavier(rng, (model.logits_in, 1), model.logits_in, 1))
        if cfg.finetune_embeddings:
            store.add("entity_table", featurizer.table.copy())
        return model

    # ---- parameter views -------------------------------------------------

    def entity_table(self) -> np.ndarray:
        if self.cfg.finetune_embeddings:
            return self.store.value("entity_table")
        return self.frozen_table

    def conv_params(self) -> ConvParams:
        cfg = self.cfg
        filters = {
            w: self.store.value(f"conv_w{w}").reshape(cfg.conv_filters, self.dim, w)
            for w in cfg.conv_widths
        }
        biases = {w: self.store.value(f"conv_b{w}")[:, 0] for w in cfg.conv_widths}
        return ConvParams(self.n_behavior_kinds, filters, biases)

    def attention_params(self) -> AttentionParams:
        return AttentionParams(
            self.cfg.attention_heads,
            self.store.value("attn_query"),
            self.store.value("attn_key"),
            self.store.value("attn_value"),
        )

    # ---- batched forward -------------------------------------------------

    def _behavior_matrices(self, batch: Batch, table: np.ndarray):
        if batch.bmat is not None:
            return batch.bmat, None
        k = self.n_behavior_kinds
        k_eff = max(k, max(self.cfg.conv_widths))
        mean = np.zeros((batch.n * k, self.dim))
        np.add.at(mean, batch.beh_owner, table[batch.beh_src])
        mean /= np.maximum(batch.beh_counts, 1)[:, None]
        bmat = np.zeros((batch.n, self.dim, k_eff))
        bmat[:, :, :k] = mean.reshape(batch.n, k, self.dim).transpose(0, 2, 1)
        return bmat, mean

    def _user_state_forward(self, bmat: np.ndarray, cache: dict) -> np.ndarray:
        cfg = self.cfg
        pooled_parts = []
        cache["conv"] = {}
        for width in sorted(cfg.conv_widths):
            filters = self.store.value(f"conv_w{width}").reshape(
                cfg.conv_filters, self.dim, width
            )
            bias = self.store.value(f"conv_b{width}")[:, 0]
            p = bmat.shape[2] - width + 1
            windows = np.stack([bmat[:, :, t : t + width] for t in range(p)], axis=1)
            vals = np.einsum("bpdn,fdn->bfp", windows, filters) + bias[None, :, None]
            arg = vals.argmax(axis=2)
            m = np.take_along_axis(vals, arg[:, :, None], axis=2)[:, :, 0]
            pooled_parts.append(relu(m))
            cache["conv"][width] = {"windows": windows, "arg": arg, "max": m}
        return np.concatenate(pooled_parts, axis=1)

    def _dialogue_forward(self, batch: Batch, table: np.ndarray, cache: dict) -> np.ndarray:
        cfg = self.cfg
        x = table[batch.kw_ids] * batch.kw_mask[:, :, None]
        n, p = batch.n, x.shape[1]
        x2 = x.reshape(n * p, self.dim)
        # project all heads in one GEMM each; the matrices are row-blocked
        q_all = (x2 @ self.store.value("attn_query").T).reshape(n, p, self.dim)
        k_all = (x2 @ self.store.value("attn_key").T).reshape(n, p, self.dim)
        v_all = (x2 @ self.store.value("attn_value").T).reshape(n, p, self.dim)
        cache["attn"] = {"x": x, "q": q_all, "k": k_all, "v": v_all, "weights": []}
        out_all = np.empty((n, p, self.dim))
        head_dim = self.dim // cfg.attention_heads
        valid = batch.kw_mask[:, None, :]  # (n, 1, P) key mask
        for h in range(cfg.attention_heads):
            lo = h * head_dim
            q = q_all[:, :, lo : lo + head_dim]
            k = k_all[:, :, lo : lo + head_dim]
            logits = q @ k.transpose(0, 2, 1)
            # padded keys have zero embeddings, so their logits are exactly 0;
            # the row max therefore bounds every real logit and shifting by it
            # stays stable. Padded columns are zeroed after the exp.
            logits -= logits.max(axis=2, keepdims=True)
            e = np.exp(logits)
            e *= valid
            denom = e.sum(axis=2, keepdims=True)
            np.maximum(denom, 1e-300, out=denom)  # all-pad rows divide to 0
            attn = e / denom
            out_all[:, :, lo : lo + head_dim] = attn @ v_all[:, :, lo : lo + head_dim]
            cache["attn"]["weights"].append(attn)
        out_all *= batch.kw_mask[:, :, None]
        return out_all.reshape(n, -1)

    def _assemble(self, batch: Batch, table: np.ndarray, cache: dict) -> np.ndarray:
        cfg = self.cfg
        cat_table = self.store.value("cat_table")
        gathered = cat_table[np.maximum(batch.cat_idx, 0)]
        gathered *= (batch.cat_idx >= 0)[:, :, None]
        parts = [gathered.reshape(batch.n, -1), batch.dense]
        if cfg.use_user_state:
            bmat, mean = self._behavior_matrices(batch, table)
            cache["bmat"] = bmat
            cache["beh_mean"] = mean
            parts.append(self._user_state_forward(bmat, cache))
        if cfg.use_dialogue:
            parts.append(self._dialogue_forward(batch, table, cache))
        return np.concatenate(parts, axis=1)

    def forward(self, batch: Batch):
        """Full forward pass; returns (probabilities, cache)."""
        cfg = self.cfg
        table = self.entity_table()
        cache: dict = {"table": table}
        f = self._assemble(batch, table, cache)
        cache["f"] = f
        towers = []
        if cfg.use_cross:
            x = f
            cache["cross"] = []
            for i in range(cfg.n_cross):
                w = self.store.value(f"cross_w{i}")
                b = self.store.value(f"cross_b{i}")
                s = x @ w
                cache["cross"].append({"x": x, "s": s})
                x = f * s + b.T + x
            towers.append(x)
            cache["x_cross"] = x
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
            cache["x_deep"] = x
        z_out = np.concatenate(towers, axis=1)
        cache["z_out"] = z_out
        logit = (z_out @ self.store.value("logits_w"))[:, 0]
        p = sigmoid(logit)
        cache["p"] = p
        return p, cache

    def predict_batch(self, batch: Batch) -> np.ndarray:
        return self.forward(batch)[0]

    def loss(self, batch: Batch) -> float:
        p, _ = self.forward(batch)
        return log_loss(p, batch.labels)

    # ---- batched backward ------------------------------------------------

    def loss_and_grads(self, batch: Batch) -> tuple[float, np.ndarray]:
        """Forward + backward; accumulates gradients into the store."""
        cfg = self.cfg
        store = self.store
        p, cache = self.forward(batch)
        y = batch.labels
        loss = log_loss(p, y)
        unclamped = (p > _CLAMP) & (p < 1.0 - _CLAMP)
        dlogit = np.where(unclamped, p - y, 0.0) / batch.n

        z_out = cache["z_out"]
        w_logits = store.value("logits_w")
        store.grad("logits_w")[...] += z_out.T @ dlogit[:, None]
        dz = dlogit[:, None] @ w_logits.T

        df = np.zeros_like(cache["f"])
        offset = 0
        if cfg.use_cross:
            dx = dz[:, : self.f_width]
            offset = self.f_width
            f = cache["f"]
            for i in range(cfg.n_cross - 1, -1, -1):
                layer = cache["cross"][i]
                w = store.value(f"cross_w{i}")
                store.grad(f"cross_b{i}")[...] += dx.sum(axis=0)[:, None]
                df += dx * layer["s"]
                ds = (dx * f).sum(axis=1, keepdims=True)
                store.grad(f"cross_w{i}")[...] += layer["x"].T @ ds
                dx = dx + ds @ w.T
            df += dx
        if cfg.use_deep:
            dx = dz[:, offset:]
            for i in range(cfg.deep_layers - 1, -1, -1):
                layer = cache["deep"][i]
                dzl = dx * layer["mask"]
                store.grad(f"deep_w{i}")[...] += dzl.T @ layer["x"]
                store.grad(f"deep_b{i}")[...] += dzl.sum(axis=0)[:, None]
                dx = dzl @ store.value(f"deep_w{i}")
            df += dx

        self._assemble_backward(batch, cache, df)
        if not np.isfinite(loss):
            raise TrainingError("non-finite loss")
        return loss, p

    def _assemble_backward(self, batch: Batch, cache: dict, df: np.ndarray) -> None:
        cfg = self.cfg
        store = self.store
        table = cache["table"]
        finetune = cfg.finetune_embeddings
        dtable = store.grad("entity_table") if finetune else None

        s_cat = cfg.n_cat_slots * cfg.cat_dim
        dcat = df[:, :s_cat].reshape(batch.n, cfg.n_cat_slots, cfg.cat_dim).copy()
        dcat *= (batch.cat_idx >= 0)[:, :, None]
        np.add.at(store.grad("cat_table"), np.maximum(batch.cat_idx, 0), dcat)
        offset = s_cat + self.n_dense

        if cfg.use_user_state:
            du = df[:, offset : offset + self.u_dim]
            offset += self.u_dim
            dbmat = np.zeros_like(cache["bmat"]) if finetune else None
            col = 0
            for width in sorted(cfg.conv_widths):
                conv_cache = cache["conv"][width]
                n_f = cfg.conv_filters
                dpooled = du[:, col : col + n_f] * (conv_cache["max"] > 0)
                col += n_f
                p = conv_cache["windows"].shape[1]
                dvals = np.zeros((batch.n, n_f, p))
                np.put_along_axis(dvals, conv_cache["arg"][:, :, None], dpooled[:, :, None], axis=2)
                store.grad(f"conv_w{width}")[...] += np.einsum(
                    "bfp,bpdn->fdn", dvals, conv_cache["windows"]
                ).reshape(n_f, -1)
                store.grad(f"conv_b{width}")[...] += dvals.sum(axis=(0, 2))[:, None]
                if finetune:
                    filters = store.value(f"conv_w{width}").reshape(n_f, self.dim, width)
                    dwin = np.einsum("bfp,fdn->bpdn", dvals, filters)
                    for t in range(p):
                        dbmat[:, :, t : t + width] += dwin[:, t]
            if finetune:
                k = self.n_behavior_kinds
                dmean = dbmat[:, :, :k].transpose(0, 2, 1).reshape(batch.n * k, self.dim)
                dmean = dmean / np.maximum(batch.beh_counts, 1)[:, None]
                np.add.at(dtable, batch.beh_src, dmean[batch.beh_owner])

        if cfg.use_dialogue:
            dd = df[:, offset : offset + self.d_dim]
            p_total = cfg.max_query_keywords + cfg.max_title_keywords
            dstacked = dd.reshape(batch.n, p_total, self.dim) * batch.kw_mask[:, :, None]
            attn_cache = cache["attn"]
            x = attn_cache["x"]
            q_all, k_all, v_all = attn_cache["q"], attn_cache["k"], attn_cache["v"]
            n_heads = cfg.attention_heads
            head_dim = self.dim // n_heads
            dq_all = np.empty_like(q_all)
            dk_all = np.empty_like(k_all)
            dv_all = np.empty_like(v_all)
            for h in range(n_heads):
                lo = h * head_dim
                a = attn_cache["weights"][h]
                dout = dstacked[:, :, lo : lo + head_dim]
                dattn = dout @ v_all[:, :, lo : lo + head_dim].transpose(0, 2, 1)
                dv_all[:, :, lo : lo + head_dim] = a.transpose(0, 2, 1) @ dout
                dlog = a * (dattn - (dattn * a).sum(axis=2, keepdims=True))
                dq_all[:, :, lo : lo + head_dim] = dlog @ k_all[:, :, lo : lo + head_dim]
                dk_all[:, :, lo : lo + head_dim] = dlog.transpose(0, 2, 1) @ q_all[
                    :, :, lo : lo + head_dim
                ]
            x2 = x.reshape(-1, self.dim)
            store.grad("attn_query")[...] += dq_all.reshape(-1, self.dim).T @ x2
            store.grad("attn_key")[...] += dk_all.reshape(-1, self.dim).T @ x2
            store.grad("attn_value")[...] += dv_all.reshape(-1, self.dim).T @ x2
            if finetune:
                dx = dq_all.reshape(-1, self.dim) @ store.value("attn_query")
                dx += dk_all.reshape(-1, self.dim) @ store.value("attn_key")
                dx += dv_all.reshape(-1, self.dim) @ store.value("attn_value")
                dx = dx.reshape(x.shape) * batch.kw_mask[:, :, None]
                np.add.at(dtable, batch.kw_ids, dx)


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
    """Probability for one assembled feature vector (reference path)."""
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
    """Minibatch Adam training with per-epoch loss and validation AUC."""
    featurizer = Featurizer(checkpoint, entities, item_meta, cfg)
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
            batch = train_set.batch(idx, finetune=cfg.finetune_embeddings)
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


def score_dataset(model: KdcnModel, dataset: Dataset, batch_size: int = 1024) -> list[float]:
    scores: list[float] = []
    for start in range(0, dataset.n, batch_size):
        idx = np.arange(start, min(start + batch_size, dataset.n))
        scores.extend(model.predict_batch(dataset.batch(idx)).tolist())
    return scores


MODEL_MAGIC = b"KDCN"
MODEL_VERSION = 1


def save_model(model: KdcnModel, path) -> None:
    """Write all parameter slots: magic, version, manifest, f32 LE payloads."""
    store = model.store
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<I", len(store.slots)))
        for name, slot in store.slots.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<II", *slot.value.shape))
        for slot in store.slots.values():
            fh.write(slot.value.astype("<f4").tobytes())


def load_model_values(path) -> dict[str, np.ndarray]:
    """Read a model file back into name -> float64 array (f32 precision)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != MODEL_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        (n_slots,) = struct.unpack("<I", fh.read(4))
        manifest = []
        for _ in range(n_slots):
            (name_len,) = struct.unpack("<H", fh.read(2))
            name = fh.read(name_len).decode("utf-8")
            rows, cols = struct.unpack("<II", fh.read(8))
            manifest.append((name, rows, cols))
        values = {}
        for name, rows, cols in manifest:
            raw = fh.read(4 * rows * cols)
            if len(raw) != 4 * rows * cols:
                raise FormatError(f"{path}: truncated payload for slot '{name}'")
            values[name] = np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(rows, cols)
    return values


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


def rank_candidates(
    behaviors: list[list[str]],
    query: str,
    candidates: list[str],
    model: KdcnModel,
    featurizer: Featurizer,
) -> list[tuple[str, float]]:
    """Score candidate items for one context; descending probability.

    Ties break by ascending item entity id, so the ordering is deterministic
    and invariant to the input candidate order.
    """
    if len(candidates) > model.cfg.candidate_cap:
        raise CapacityError(
            f"{len(candidates)} candidates exceed the cap of {model.cfg.candidate_cap}"
        )
    from .datagen import Sample  # avoid a module cycle at import time

    for name in candidates:
        if name not in featurizer.item_meta:
            raise KeyError(f"unknown candidate item '{name}'")
    # score in a canonical order so results are bit-identical under any
    # permutation of the input list
    canonical = sorted(range(len(candidates)), key=lambda i: featurizer.item_id(candidates[i]))
    pseudo = []
    for i in canonical:
        meta = featurizer.item_meta[candidates[i]]
        pseudo.append(
            Sample(
                user_id="",
                behaviors=behaviors,
                query=query,
                candidate_item=candidates[i],
                categories=meta.categories,
                dense=meta.dense,
                label=0,
            )
        )
    dataset = featurizer.prepare(pseudo)
    canonical_scores = model.predict_batch(dataset.batch(np.arange(dataset.n)))
    scores = np.empty(len(candidates))
    scores[np.array(canonical, dtype=np.int64)] = canonical_scores
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-scores[i], featurizer.item_id(candidates[i])),
    )
    return [(candidates[i], float(scores[i])) for i in order]
