"""The four benchmark workloads, each a seeded set-up plus a timed loop.

Every input comes from the seed. A run is ``workers`` fresh processes, one
after another; each sets up ``setups`` times and then repeats the
workload's operation until its share of ``seconds`` has passed and at least
``min_ops`` ran. ``run`` returns ``ops``, a (work units, seconds) pair per
timed operation, and ``combine`` merges the processes' outputs. The traced
process instead does exactly ``trace_ops`` so its span counts repeat.

An operation is a pretrain epoch, a fit epoch or a rank request; a check
that fails marks its operations failed, it is never skipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kdcn import cli, datagen, graph, metrics
from kdcn import model as km
from kdcn import pretrain as pt
from kdcn.errors import KdcnError
from kdcn.graph import RELATIONS, TripleSet
from kdcn.rng import RngStream

# acceptance criterion 3's world: about 2.1k entities and 9k triples
CRITERION3_WORLD = dict(
    n_users=220, n_tags=24, n_items=560, n_categories=10, n_sellers=30,
    n_keywords=130, n_sessions=540,
)
# criterion 3 scaled 5.2x: about 10.9k entities, just above the 10k guard
SAMPLED_WORLD = dict(
    n_users=1170, n_tags=24, n_items=2980, n_categories=10, n_sellers=160,
    n_keywords=690, n_sessions=2900,
)
# the uplift world of acceptance criteria 4 and 5
UPLIFT_WORLD = dict(
    n_users=300, n_items=400, n_categories=10, n_sellers=24, n_tags=12,
    n_keywords=150, n_sessions=300, affinity_strength=3.0, noise_std=0.5,
)
# the README walkthrough config
README_CONFIG = """\
n_users = 120
n_items = 200
n_categories = 8
n_sellers = 12
n_tags = 8
n_keywords = 64
n_sessions = 150
n_samples = 5000
alpha = 3.0

dim = 32
pretrain_epochs = 10
pretrain_lr = 0.01

epochs = 5
lr = 0.001
deep_width = 128
"""


@dataclass
class Accounting:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ops: int, problems: list[str]) -> None:
        """Count ``ops`` operations; all of them fail if any check failed."""
        self.attempted += ops
        if problems:
            self.failed += ops
            self.failures.extend(problems[:3])


class Loop:
    """Decides when the timed loop stops: by time, or at a fixed count."""

    def __init__(self, seconds: float, min_ops: int, fixed_ops: int | None):
        self.seconds, self.min_ops, self.fixed_ops = seconds, min_ops, fixed_ops
        self.done = 0
        self.start = time.perf_counter()

    def more(self) -> bool:
        if self.fixed_ops is not None:
            return self.done < self.fixed_ops
        return self.done < self.min_ops or time.perf_counter() - self.start < self.seconds


def pooled_rate(outs: list[dict]) -> float:
    """Work per second over the timed operations of every process."""
    ops = [op for o in outs for op in o["ops"]]
    seconds = sum(s for _, s in ops)
    return sum(w for w, _ in ops) / seconds if seconds else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def holdout_split(tset: TripleSet, n_holdout: int, rng: RngStream):
    """Criterion 3's split: all entities kept, ``n_holdout`` triples held out."""
    held = set(rng.permutation(len(tset.triples))[:n_holdout].tolist())
    train = TripleSet()
    for ent in tset.entities:
        train.entity_id(ent.kind, ent.name, create=True)
    held_out = []
    for i, tr in enumerate(tset.triples):
        if i in held:
            held_out.append(tr)
        else:
            train.add(tset.name_of(tr.head), RELATIONS[tr.relation], tset.name_of(tr.tail))
    return train, held_out


def shard(tset: TripleSet, n_triples: int, rng: RngStream) -> TripleSet:
    """A seeded subset of the triples over the same entity ids."""
    keep = sorted(rng.permutation(len(tset.triples))[:n_triples].tolist())
    out = TripleSet()
    for ent in tset.entities:
        out.entity_id(ent.kind, ent.name, create=True)
    for i in keep:
        tr = tset.triples[i]
        out.add(tset.name_of(tr.head), RELATIONS[tr.relation], tset.name_of(tr.tail))
    return out


def loss_problems(losses: list[float], what: str) -> list[str]:
    if not losses or not all(math.isfinite(x) for x in losses):
        return [f"{what}: non-finite or missing losses {losses}"]
    if len(losses) > 1 and not losses[-1] < losses[0]:
        return [f"{what}: loss did not fall ({losses[0]:.6f} -> {losses[-1]:.6f})"]
    return []


# --------------------------------------------------------------------------


class PretrainWorkload:
    """Graph pretraining: one op is one ``pretrain()`` call of ``epochs`` epochs.

    Every call uses the same seed, so the calls must agree bit for bit. The
    first call warms caches and is checked but not timed. Hits@10 follows
    criterion 3: filtered tail prediction among 50 candidates on the
    held-out triples, from the first call's checkpoint.
    """

    workers = 3
    setups = 1
    trace_ops = 2

    def __init__(self, name, world, n_holdout, cfg, shard_triples, hits_floor, min_ops):
        self.name, self.min_ops = name, min_ops
        self.world, self.n_holdout, self.cfg = world, n_holdout, cfg
        self.shard_triples, self.hits_floor = shard_triples, hits_floor

    def setup(self, seed: int, scratch: Path) -> dict:
        world = datagen.generate_world(datagen.WorldConfig(**self.world, seed=seed))
        rng = RngStream(seed)
        train, held_out = holdout_split(world.tset, self.n_holdout, rng.child("holdout"))
        g = graph.Graph(train)
        trained = train if self.shard_triples is None else shard(
            train, self.shard_triples, rng.child("shard")
        )
        return {"seed": seed, "tset": world.tset, "g": g, "trained": trained, "held_out": held_out}

    def sizes(self, st: dict) -> dict:
        return {
            "entities": st["tset"].n_entities,
            "triples": len(st["tset"]),
            "graph_triples": len(st["g"].triples),
            "trained_triples": len(st["trained"]),
            "held_out": len(st["held_out"]),
        }

    def run(self, st: dict, loop: Loop, acct: Accounting) -> dict:
        cfg = self.cfg
        ops, first = [], None
        while loop.more():
            loop.done += 1
            start = time.perf_counter()
            try:
                result = pt.pretrain(st["trained"], st["g"], cfg, RngStream(st["seed"]).child("pretrain"))
            except KdcnError as exc:
                acct.record(cfg.epochs, [f"pretrain raised {exc!r}"])
                continue
            elapsed = time.perf_counter() - start
            ops.append((len(st["trained"]) * cfg.epochs, elapsed))
            problems = loss_problems(result.epoch_losses, "pretrain")
            if first is None:
                first = result
            elif result.epoch_losses != first.epoch_losses or not np.array_equal(
                result.checkpoint.entity_table, first.checkpoint.entity_table
            ):
                problems.append("pretrain: repeated call with the same seed differs")
            acct.record(cfg.epochs, problems)
            result = None  # free it before the next call, so peak RSS does not grow with calls
        hits = 0.0
        if first is not None:
            hits = pt.hits_at_k(
                first.checkpoint, st["tset"], st["held_out"], RngStream(st["seed"]).child("hits"),
                k=10, n_candidates=50,
            )
        acct.record(1, [] if hits >= self.hits_floor else [f"hits@10 {hits:.4f} < {self.hits_floor}"])
        call_rates = [w / s for w, s in ops]
        return {"ops": ops[1:] or ops, "named": {"hits_at_10": hits, "call_rates": call_rates}}

    @staticmethod
    def combine(outs: list[dict]) -> dict:
        return {
            "pretrain_triples_per_s": pooled_rate(outs),
            "hits_at_10": outs[0]["named"]["hits_at_10"],
            "call_rates": [o["named"]["call_rates"] for o in outs],
        }


class CtrTrainWorkload:
    """Ranker training: one op is one epoch of ``fit`` with the kdcn config.

    Set-up builds the uplift world and its samples and makes the checkpoint
    with a 10-epoch full pretrain. After the fits, the test split is
    featurized and scored ``score_reps`` times; the scores must repeat.
    """

    name = "ctr-train"
    workers = 1  # a fit takes most of a run; the set-ups repeat in-process
    setups = 3
    min_ops = 1
    trace_ops = 1
    epochs = 2
    score_reps = 5
    auc_floor = 0.55

    def setup(self, seed: int, scratch: Path) -> dict:
        world = datagen.generate_world(datagen.WorldConfig(**UPLIFT_WORLD, seed=seed))
        split = datagen.generate_samples(
            world, 20_000, datagen.ClickModel(), RngStream(seed).child("samples")
        )
        g = graph.Graph(world.tset)
        ckpt = pt.pretrain(
            world.tset, g, pt.PretrainConfig(dim=64, layers=2, lr=0.01, epochs=10),
            RngStream(seed).child("pretrain"),
        ).checkpoint
        meta = km.item_meta_from_events(world.events)
        return {"seed": seed, "world": world, "split": split, "ckpt": ckpt, "meta": meta}

    def sizes(self, st: dict) -> dict:
        split = st["split"]
        return {
            "entities": st["world"].tset.n_entities,
            "triples": len(st["world"].tset),
            "train": len(split.train),
            "valid": len(split.valid),
            "test": len(split.test),
        }

    def run(self, st: dict, loop: Loop, acct: Accounting) -> dict:
        split = st["split"]
        cfg = km.ablation_config(
            km.TrainConfig(epochs=self.epochs, lr=1e-3, batch_size=512), "kdcn"
        )
        ops, first = [], None
        while loop.more():
            loop.done += 1
            start = time.perf_counter()
            try:
                result = km.fit(
                    split.train, split.valid, st["ckpt"], cfg, RngStream(st["seed"]).child("train"),
                    st["world"].tset.entities, st["meta"],
                )
            except KdcnError as exc:
                acct.record(cfg.epochs, [f"fit raised {exc!r}"])
                continue
            elapsed = time.perf_counter() - start
            ops.append((len(split.train) * cfg.epochs, elapsed))
            losses = [h.train_loss for h in result.history]
            problems = loss_problems(losses, "fit")
            if not all(math.isfinite(h.valid_auc) for h in result.history):
                problems.append("fit: non-finite validation AUC")
            if first is None:
                first = result
            elif losses != [h.train_loss for h in first.history]:
                problems.append("fit: repeated call with the same seed differs")
            acct.record(cfg.epochs, problems)
            result = None

        test_auc, score_rate = 0.0, 0.0
        if first is not None:
            score_rates, runs = [], []
            for _ in range(self.score_reps):
                start = time.perf_counter()
                test_set = first.featurizer.prepare(split.test)
                scores = km.score_dataset(first.model, test_set)
                score_rates.append(len(split.test) / (time.perf_counter() - start))
                runs.append(scores)
            score_rate = statistics.median(score_rates)
            labels = test_set.labels.astype(int).tolist()
            test_auc = metrics.auc(runs[0], labels)
            problems = [] if all(r == runs[0] for r in runs) else ["score: repeated scoring differs"]
            if not all(0.0 < p < 1.0 for p in runs[0]):
                problems.append("score: probability outside (0, 1)")
            if not test_auc >= self.auc_floor:
                problems.append(f"test AUC {test_auc:.4f} < {self.auc_floor}")
            acct.record(1, problems)
        else:
            acct.record(1, ["no fit completed"])
        return {"ops": ops, "named": {"score_samples_per_s": score_rate, "test_auc": test_auc}}

    @staticmethod
    def combine(outs: list[dict]) -> dict:
        return {
            "fit_samples_per_s": pooled_rate(outs),
            "score_samples_per_s": statistics.median(o["named"]["score_samples_per_s"] for o in outs),
            "test_auc": outs[0]["named"]["test_auc"],
        }


def load_for_rank(out: Path):
    """Load the artifacts the way ``kdcn rank`` does."""
    samples = datagen.load_samples(out / "samples.jsonl")
    ckpt = pt.load_checkpoint(out / "ckge.bin")
    entities = graph.load_vocab(out / "ckge.vocab.tsv")
    item_meta = km.item_meta_from_events(graph.load_events(out / "events.jsonl"))
    with open(out / "kdcn.meta.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    stored = dict(meta["config"])
    stored["conv_widths"] = tuple(stored.get("conv_widths", (2, 4)))
    tcfg = km.TrainConfig(**stored)
    featurizer = km.Featurizer(ckpt, entities, item_meta, tcfg)
    featurizer.n_dense = meta["n_dense"]
    featurizer.n_behavior_kinds = meta["n_behavior_kinds"]
    featurizer.dense_mean = np.array(meta["dense_mean"])
    featurizer.dense_std = np.array(meta["dense_std"])
    mdl = km.KdcnModel.build(tcfg, featurizer, RngStream(0))
    km.restore_model_values(mdl, km.load_model_values(out / "kdcn.bin"))
    return samples, featurizer, mdl


class RankServeWorkload:
    """Serving: one op is one ``rank_candidates`` request in a closed loop.

    One client sends its next request when the previous one returns. Each
    request ranks 50 distinct seeded candidates with the behaviors and
    query of a seeded sample. Every response must be a permutation of its
    candidates with probabilities in (0, 1), sorted descending; one request
    in ``check_every`` is also compared with ``predict_batch``.
    """

    name = "rank-serve"
    workers = 3
    setups = 1
    min_ops = 334  # per process: the pooled p99 then has at least ten samples beyond it
    trace_ops = 1000
    n_candidates = 50
    pool_size = 1024
    check_every = 50
    auc_floor = 0.55
    subcommands = ("gen-data", "build-kg", "pretrain", "train")

    def setup(self, seed: int, scratch: Path) -> dict:
        out = scratch / "rank-serve"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        config = out / "config.txt"
        config.write_text(README_CONFIG, encoding="utf-8")
        times = {}
        for sub in self.subcommands:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([sub, "--seed", str(seed), "--config", str(config), "--out", str(out)])
            times[sub] = time.perf_counter() - start
            if code != 0:
                raise RuntimeError(f"kdcn {sub} exited with code {code}")
        start = time.perf_counter()
        samples, featurizer, mdl = load_for_rank(out)
        times["load"] = time.perf_counter() - start
        return {"seed": seed, "samples": samples, "featurizer": featurizer, "model": mdl, "cli_s": times}

    def sizes(self, st: dict) -> dict:
        return {
            "entities": len(st["featurizer"].table),
            "items": len(st["featurizer"].item_meta),
            "samples": len(st["samples"]),
            "candidates": self.n_candidates,
        }

    def _requests(self, st: dict) -> list:
        featurizer, samples = st["featurizer"], st["samples"]
        items = sorted(featurizer.item_meta, key=featurizer.item_id)
        rng = RngStream(st["seed"]).child("requests")
        pool = []
        for _ in range(self.pool_size):
            s = samples[int(rng.integers(0, len(samples)))]
            chosen = rng.choice(len(items), size=self.n_candidates, replace=False)
            pool.append((s.behaviors, s.query, [items[int(i)] for i in chosen]))
        return pool

    @staticmethod
    def _response_problems(response, candidates) -> list[str]:
        names = [name for name, _ in response]
        probs = [p for _, p in response]
        problems = []
        if sorted(names) != sorted(candidates) or len(set(names)) != len(names):
            problems.append("rank: response is not a permutation of the candidates")
        if not all(0.0 < p < 1.0 for p in probs):
            problems.append("rank: probability outside (0, 1)")
        if any(a < b for a, b in zip(probs, probs[1:])):
            problems.append("rank: probabilities not sorted descending")
        return problems

    def _batch_problems(self, st: dict, behaviors, query, candidates, response) -> list[str]:
        featurizer, mdl = st["featurizer"], st["model"]
        ordered = sorted(candidates, key=featurizer.item_id)
        pseudo = []
        for name in ordered:
            meta = featurizer.item_meta[name]
            pseudo.append(datagen.Sample("", behaviors, query, name, meta.categories, meta.dense, 0))
        probs = mdl.predict_batch(featurizer.prepare(pseudo).batch(np.arange(len(pseudo))))
        expected = dict(zip(ordered, probs.tolist()))
        if any(abs(p - expected[name]) > 1e-6 for name, p in response):
            return ["rank: scores differ from predict_batch on the same pseudo-samples"]
        return []

    def run(self, st: dict, loop: Loop, acct: Accounting) -> dict:
        pool = self._requests(st)
        latencies, sampled = [], []
        while loop.more():
            i = loop.done
            loop.done += 1
            behaviors, query, candidates = pool[i % len(pool)]
            start = time.perf_counter()
            try:
                response = km.rank_candidates(behaviors, query, candidates, st["model"], st["featurizer"])
            except (KdcnError, KeyError) as exc:
                acct.record(1, [f"rank raised {exc!r}"])
                continue
            latencies.append(time.perf_counter() - start)
            problems = self._response_problems(response, candidates)
            if i % self.check_every == 0 and not problems:
                sampled.append((behaviors, query, candidates, response))
                continue  # counted once its batch check below has run
            acct.record(1, problems)
        wall = time.perf_counter() - loop.start
        for request in sampled:
            acct.record(1, self._batch_problems(st, *request))

        # all samples, not only the 500-sample test split: at this size the
        # test AUC swings too much between seeds to hold a floor
        dataset = st["featurizer"].prepare(st["samples"])
        served_auc = metrics.auc(km.score_dataset(st["model"], dataset), dataset.labels.astype(int).tolist())
        acct.record(1, [] if served_auc >= self.auc_floor else [f"served AUC {served_auc:.4f} < {self.auc_floor}"])
        return {
            "ops": [(1, x) for x in latencies],
            "named": {"requests": len(latencies), "wall_s": wall, "served_auc": served_auc},
        }

    @staticmethod
    def combine(outs: list[dict]) -> dict:
        ms = [1000.0 * s for o in outs for _, s in o["ops"]] or [float("inf")]
        requests = sum(o["named"]["requests"] for o in outs)
        return {
            "rank_ms.p50": percentile(ms, 50),
            "rank_ms.p99": percentile(ms, 99),
            "rank_per_s": requests / sum(o["named"]["wall_s"] for o in outs),
            "requests": requests,
            "served_auc": outs[0]["named"]["served_auc"],
        }


WORKLOADS = {
    w.name: w
    for w in (
        PretrainWorkload(
            "pretrain-full",
            CRITERION3_WORLD,
            n_holdout=400,
            cfg=pt.PretrainConfig(dim=64, layers=2, lr=0.01, batch_size=512, epochs=2, mode="full"),
            shard_triples=None,
            hits_floor=0.6,
            min_ops=3,
        ),
        PretrainWorkload(
            "pretrain-sampled",
            SAMPLED_WORLD,
            n_holdout=1000,
            cfg=pt.PretrainConfig(
                dim=64, layers=2, lr=0.01, batch_size=2048, epochs=2, mode="sampled", fanout=10
            ),
            # a full epoch takes about 15 s, so train 2 batches of the graph's triples
            shard_triples=2 * 2048,
            hits_floor=0.4,
            min_ops=3,
        ),
        CtrTrainWorkload(),
        RankServeWorkload(),
    )
}
