"""Fixed-shape layer probes that run after the traced phase, unwrapped.

* Block costs: forward and forward+backward of the ranker at batch 512 on
  the ctr-train world, for every named ablation. A block's cost is the
  difference between two ablations that differ only in that block.
* Deep GEMM reference: the 512 x f_width x 512 product of the first deep
  layer in float64 and float32.
* Traffic ratios: per pretraining batch, the share of entities the batch's
  triples reference and the share inside their 2-hop field.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

from kdcn import model as km
from kdcn.datagen import ClickModel, WorldConfig, generate_samples, generate_world
from kdcn.pretrain import PretrainCheckpoint
from kdcn.rng import RngStream

BATCH = 512
REPS = 7
GEMM_REPS = 21

# cost of one block = first ablation minus the second (same shape otherwise)
BLOCKS = {
    "user_dialogue": ("kdcn", "dcn"),
    "deep": ("kdcn", "cross_only"),
    "cross": ("kdcn", "deep_only"),
}


def _median_ms(fn, reps: int) -> float:
    fn()  # warm caches and allocator pools
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def block_costs(world_cfg: dict, seed: int) -> dict[str, dict]:
    """Per-ablation forward / forward+backward ms at batch 512, plus block costs."""
    world = generate_world(WorldConfig(**world_cfg, seed=seed))
    rng = RngStream(seed).child("block-probe")
    split = generate_samples(world, 2 * BATCH, ClickModel(), rng.child("samples"))
    # values do not change the shapes or the work, so an untrained table will do
    n_e, n_r, dim = world.tset.n_entities, world.tset.n_relations, 64
    ckpt = PretrainCheckpoint(
        rng.child("table").uniform(-0.5, 0.5, (n_e, dim)),
        rng.child("relations").uniform(-0.5, 0.5, (n_r, dim)),
    )
    meta = km.item_meta_from_events(world.events)
    base = km.TrainConfig(lr=1e-3, batch_size=BATCH)
    out: dict[str, dict] = {}
    fwd, fwdbwd = {}, {}
    kdcn_model = None
    for name in km.ABLATIONS:
        cfg = km.ablation_config(base, name)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        batch = feat.prepare(split.train[:BATCH]).batch(np.arange(BATCH))
        model = km.KdcnModel.build(cfg, feat, rng.child(f"init:{name}"))
        fwd[name] = _median_ms(lambda: model.forward(batch), REPS)

        def step():
            model.loss_and_grads(batch)
            model.store.zero_grads()

        fwdbwd[name] = _median_ms(step, REPS)
        out[f"model.fwd_ms.{name}"] = {"value": fwd[name], "unit": "ms"}
        out[f"model.fwdbwd_ms.{name}"] = {"value": fwdbwd[name], "unit": "ms"}
        if name == "kdcn":
            kdcn_model = model
    for block, (full, ablated) in BLOCKS.items():
        out[f"model.block_fwd_ms.{block}"] = {"value": fwd[full] - fwd[ablated], "unit": "ms"}
        out[f"model.block_fwdbwd_ms.{block}"] = {
            "value": fwdbwd[full] - fwdbwd[ablated],
            "unit": "ms",
        }
    out.update(tower_work(kdcn_model))
    out.update(gemm_reference(kdcn_model.f_width, kdcn_model.cfg.deep_width, rng))
    return out


def tower_work(model) -> dict[str, dict]:
    """Computed forward FLOPs and float64 bytes per batch of 512 for each tower.

    Deep layer (in -> out): 2*B*in*out FLOPs for the GEMM plus 2*B*out for
    bias and ReLU; bytes read the weights, bias and input and write the
    output. Cross layer on width F: x.w is 2*B*F FLOPs and f*s + b + x is
    3*B*F; bytes read x twice and f once, write x, and read w and b.
    """
    cfg = model.cfg
    b, f = BATCH, model.f_width
    deep_flop = deep_bytes = 0
    width_in = f
    for _ in range(cfg.deep_layers):
        w = cfg.deep_width
        deep_flop += 2 * b * width_in * w + 2 * b * w
        deep_bytes += 8 * (width_in * w + w + b * width_in + b * w)
        width_in = w
    cross_flop = cfg.n_cross * 5 * b * f
    cross_bytes = cfg.n_cross * 8 * (4 * b * f + 2 * f)
    return {
        "model.deep.fwd_flop": {"value": deep_flop, "unit": "flop"},
        "model.deep.fwd_bytes": {"value": deep_bytes, "unit": "B"},
        "model.cross.fwd_flop": {"value": cross_flop, "unit": "flop"},
        "model.cross.fwd_bytes": {"value": cross_bytes, "unit": "B"},
    }


def gemm_reference(f_width: int, deep_width: int, rng: RngStream) -> dict[str, dict]:
    """The first deep layer's product, (512 x f_width) @ (f_width x width)."""
    x = rng.child("gemm-x").uniform(-1.0, 1.0, (BATCH, f_width))
    w = rng.child("gemm-w").uniform(-1.0, 1.0, (deep_width, f_width))
    out = {}
    for dtype, label in ((np.float64, "f64"), (np.float32, "f32")):
        xd, wd = x.astype(dtype), w.astype(dtype)
        out[f"model.deep_gemm_ms.{label}"] = {
            "value": _median_ms(lambda: xd @ wd.T, GEMM_REPS),
            "unit": "ms",
        }
    return out


class BatchRecorder:
    """Keeps (graph, positives, negatives) of every pretraining batch.

    Installed as a tracer hook on ``pretrain_loss_grads``; the ratios are
    computed afterwards so the traced timings do not include them.
    """

    def __init__(self):
        self.batches: list[tuple[object, np.ndarray, np.ndarray]] = []

    def __call__(self, args, kwargs):
        names = ("params", "g", "cfg", "pos", "neg")
        bound = dict(zip(names, args))
        bound.update(kwargs)
        if all(k in bound for k in ("g", "pos", "neg")):
            self.batches.append((bound["g"], bound["pos"], bound["neg"]))

    def ratios(self) -> dict[str, dict]:
        """Median over batches of the rows-used and 2-hop-field ratios."""
        if not self.batches:
            return {
                "pretrain.rows_used_ratio": {"value": None, "unit": "ratio", "missing": True},
                "graph.field_2hop_ratio": {"value": None, "unit": "ratio", "missing": True},
            }
        adjacency: dict[int, sp.csr_matrix] = {}
        rows_used, field = [], []
        for g, pos, neg in self.batches:
            n = g.n_entities
            a = adjacency.get(id(g))
            if a is None:
                owner = np.repeat(np.arange(n), [len(nb) for nb in g.adjacency])
                cols = np.concatenate(g.adjacency) if n else np.zeros(0, dtype=np.int64)
                a = sp.csr_matrix((np.ones(len(cols)), (owner, cols)), shape=(n, n))
                adjacency[id(g)] = a
            touched = np.unique(np.concatenate([pos[:, 0], pos[:, 2], neg[:, 0], neg[:, 2]]))
            reach = np.zeros(n)
            reach[touched] = 1.0
            for _ in range(2):
                reach = np.minimum(reach + a @ reach, 1.0)
            rows_used.append(len(touched) / n)
            field.append(float(np.count_nonzero(reach)) / n)
        return {
            "pretrain.rows_used_ratio": {"value": statistics.median(rows_used), "unit": "ratio"},
            "graph.field_2hop_ratio": {"value": statistics.median(field), "unit": "ratio"},
        }
