"""Command-line pipeline: gen-data, build-kg, pretrain, train, eval, rank.

Exit codes: 0 success, 1 usage error, 2 data/format error. All subcommands
take --seed, --config (flat key=value file) and --out (artifact directory);
with a fixed seed every run writes byte-identical artifacts, except for the
wall-time column of the evaluation report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from . import datagen, graph, model as model_mod, pretrain as pretrain_mod
from .errors import ConfigError, KdcnError
from .metrics import auc, epochs_to_threshold
from .rng import RngStream


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


# every key a config file may set; any other key is an error
CONFIG_KEYS = frozenset(
    {
        # world and click model (gen-data)
        "n_users", "n_items", "n_categories", "n_sellers", "n_tags", "n_keywords",
        "n_sessions", "n_samples", "alpha", "noise_std", "w_tag_match", "w_overlap",
        "w_cluster",
        # graph and pretraining (build-kg, pretrain)
        "prune_min_count", "dim", "layers", "fanout", "margin", "pretrain_lr",
        "pretrain_batch_size", "pretrain_epochs", "negatives_per_positive", "mode",
        "aggregation", "self_loops",
        # ranker (train, eval, rank)
        "lr", "batch_size", "epochs", "use_user_state", "use_dialogue", "use_cross",
        "use_deep", "n_cross", "deep_layers", "deep_width", "cat_dim", "n_cat_slots",
        "conv_filters", "attention_heads", "max_query_keywords", "max_title_keywords",
        "finetune_embeddings", "candidate_cap", "loss_threshold",
    }
)


def load_config(path) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment, blank lines ignored."""
    cfg: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise KdcnError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _get(cfg: dict, key: str, cast, default):
    if key not in CONFIG_KEYS:
        raise ValueError(f"'{key}' is missing from CONFIG_KEYS")
    if key not in cfg:
        return default
    raw = cfg[key]
    if cast is bool:
        return raw.lower() in ("1", "true", "yes", "on")
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"config key '{key}': {raw!r} is not a valid {cast.__name__}") from None


def _world_config(cfg: dict, seed: int) -> datagen.WorldConfig:
    return datagen.WorldConfig(
        n_users=_get(cfg, "n_users", int, 200),
        n_items=_get(cfg, "n_items", int, 300),
        n_categories=_get(cfg, "n_categories", int, 10),
        n_sellers=_get(cfg, "n_sellers", int, 20),
        n_tags=_get(cfg, "n_tags", int, 12),
        n_keywords=_get(cfg, "n_keywords", int, 120),
        n_sessions=_get(cfg, "n_sessions", int, 400),
        seed=seed,
        affinity_strength=_get(cfg, "alpha", float, 3.0),
        noise_std=_get(cfg, "noise_std", float, 0.5),
    )


def _pretrain_config(cfg: dict) -> pretrain_mod.PretrainConfig:
    return pretrain_mod.PretrainConfig(
        dim=_get(cfg, "dim", int, 64),
        layers=_get(cfg, "layers", int, 2),
        fanout=_get(cfg, "fanout", int, 10),
        margin=_get(cfg, "margin", float, 1.0),
        lr=_get(cfg, "pretrain_lr", float, 1e-4),
        batch_size=_get(cfg, "pretrain_batch_size", int, 512),
        epochs=_get(cfg, "pretrain_epochs", int, 5),
        negatives_per_positive=_get(cfg, "negatives_per_positive", int, 1),
        mode=_get(cfg, "mode", str, "full"),
        aggregation=_get(cfg, "aggregation", str, "sym"),
        self_loops=_get(cfg, "self_loops", bool, True),
    )


def _train_config(cfg: dict, seed: int) -> model_mod.TrainConfig:
    return model_mod.TrainConfig(
        lr=_get(cfg, "lr", float, 1e-4),
        batch_size=_get(cfg, "batch_size", int, 512),
        epochs=_get(cfg, "epochs", int, 5),
        seed=seed,
        use_user_state=_get(cfg, "use_user_state", bool, True),
        use_dialogue=_get(cfg, "use_dialogue", bool, True),
        use_cross=_get(cfg, "use_cross", bool, True),
        use_deep=_get(cfg, "use_deep", bool, True),
        n_cross=_get(cfg, "n_cross", int, 4),
        deep_layers=_get(cfg, "deep_layers", int, 2),
        deep_width=_get(cfg, "deep_width", int, 512),
        cat_dim=_get(cfg, "cat_dim", int, 16),
        n_cat_slots=_get(cfg, "n_cat_slots", int, 1),
        conv_filters=_get(cfg, "conv_filters", int, 8),
        attention_heads=_get(cfg, "attention_heads", int, 4),
        max_query_keywords=_get(cfg, "max_query_keywords", int, 8),
        max_title_keywords=_get(cfg, "max_title_keywords", int, 8),
        finetune_embeddings=_get(cfg, "finetune_embeddings", bool, False),
        candidate_cap=_get(cfg, "candidate_cap", int, 50),
    )


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def cmd_gen_data(args, cfg: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    world = datagen.generate_world(_world_config(cfg, args.seed))
    click = datagen.ClickModel(
        w_tag_match=_get(cfg, "w_tag_match", float, 1.0),
        w_overlap=_get(cfg, "w_overlap", float, 0.75),
        w_cluster=_get(cfg, "w_cluster", float, 1.0),
    )
    n = _get(cfg, "n_samples", int, 5000)
    split = datagen.generate_samples(world, n, click, RngStream(args.seed).child("samples"))
    graph.save_events(world.events, out / "events.jsonl")
    graph.save_triples(world.tset, out / "triples.tsv")
    datagen.save_samples(split.all(), out / "samples.jsonl")
    print(f"wrote {len(world.events)} events, {len(world.tset)} triples, {n} samples to {out}")


def cmd_build_kg(args, cfg: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    events = graph.load_events(args.events or out / "events.jsonl")
    tset = graph.ingest_events(events)
    min_count = _get(cfg, "prune_min_count", int, 1)
    tset = graph.prune_triples(tset, min_count)
    graph.save_triples(tset, out / "triples.tsv")
    graph.save_vocab(tset, out / "vocab.tsv")
    print(f"built graph: {tset.n_entities} entities, {len(tset)} triples")


def cmd_pretrain(args, cfg: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pcfg = _pretrain_config(cfg)
    tset = graph.load_triples(args.triples or out / "triples.tsv")
    g = graph.Graph(tset)
    result = pretrain_mod.pretrain(tset, g, pcfg, RngStream(args.seed).child("pretrain"))
    pretrain_mod.export_checkpoint(result.checkpoint, out / "ckge.bin")
    graph.save_vocab(tset, out / "ckge.vocab.tsv")
    _write_csv(
        out / "pretrain_loss.csv",
        ["epoch", "mean_loss"],
        [[str(i + 1), f"{loss:.6f}"] for i, loss in enumerate(result.epoch_losses)],
    )
    print(f"pretrained {tset.n_entities} entities for {pcfg.epochs} epochs -> {out / 'ckge.bin'}")


def _load_train_inputs(args, out: Path):
    samples = datagen.load_samples(args.samples or out / "samples.jsonl")
    split = datagen.split_loaded(samples)
    ckpt = pretrain_mod.load_checkpoint(args.checkpoint or out / "ckge.bin")
    entities = graph.load_vocab(args.vocab or out / "ckge.vocab.tsv")
    events = graph.load_events(args.events or out / "events.jsonl")
    item_meta = model_mod.item_meta_from_events(events)
    return split, ckpt, entities, item_meta


def cmd_train(args, cfg: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tcfg = _train_config(cfg, args.seed)
    split, ckpt, entities, item_meta = _load_train_inputs(args, out)
    result = model_mod.fit(
        split.train, split.valid, ckpt, tcfg, RngStream(args.seed).child("train"),
        entities, item_meta,
    )
    model_mod.save_model(result.model, out / "kdcn.bin")
    meta = {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in tcfg.__dict__.items()},
        "dense_mean": result.featurizer.dense_mean.tolist(),
        "dense_std": result.featurizer.dense_std.tolist(),
        "n_dense": result.featurizer.n_dense,
        "n_behavior_kinds": result.featurizer.n_behavior_kinds,
    }
    with open(out / "kdcn.meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_csv(
        out / "history.csv",
        ["epoch", "train_loss", "valid_auc"],
        [
            [str(i + 1), f"{h.train_loss:.6f}", f"{h.valid_auc:.4f}"]
            for i, h in enumerate(result.history)
        ],
    )
    print(f"trained {tcfg.epochs} epochs -> {out / 'kdcn.bin'}")


def cmd_eval(args, cfg: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = sorted(model_mod.ABLATIONS)
    if args.configs:
        requested = args.configs.split(",")
        unknown = [n for n in requested if n not in model_mod.ABLATIONS]
        if unknown:
            raise UsageError(f"unknown eval config(s) {unknown}; choose from {names}")
        names = sorted(requested)
    split, ckpt, entities, item_meta = _load_train_inputs(args, out)
    base = _train_config(cfg, args.seed)
    threshold = _get(cfg, "loss_threshold", float, None)
    rows = []
    for name in names:
        tcfg = model_mod.ablation_config(base, name)
        started = time.perf_counter()
        result = model_mod.fit(
            split.train, split.valid, ckpt, tcfg,
            RngStream(args.seed).child(f"eval:{name}"), entities, item_meta,
        )
        elapsed = time.perf_counter() - started
        test_set = result.featurizer.prepare(split.test)
        scores = model_mod.score_dataset(result.model, test_set)
        test_auc = auc(scores, test_set.labels.astype(int).tolist())
        losses = [h.train_loss for h in result.history]
        reached = epochs_to_threshold(losses, threshold) if threshold is not None else None
        rows.append(
            [
                name,
                f"{test_auc:.4f}",
                f"{losses[-1]:.6f}" if losses else "nan",
                str(reached) if reached is not None else "none",
                f"{elapsed:.3f}",
            ]
        )
    _write_csv(
        out / "report.csv",
        ["config", "test_auc", "final_train_loss", "epochs_to_threshold", "wall_time_s"],
        rows,
    )
    for row in rows:
        print(f"{row[0]}: test_auc={row[1]} final_train_loss={row[2]}")


def cmd_rank(args, cfg: dict) -> None:
    out = Path(args.out)
    split, ckpt, entities, item_meta = _load_train_inputs(args, out)
    with open(args.meta or out / "kdcn.meta.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    stored = dict(meta["config"])
    stored["conv_widths"] = tuple(stored.get("conv_widths", (2, 4)))
    tcfg = model_mod.TrainConfig(**stored)
    featurizer = model_mod.Featurizer(ckpt, entities, item_meta, tcfg)
    featurizer.n_dense = meta["n_dense"]
    featurizer.n_behavior_kinds = meta["n_behavior_kinds"]
    featurizer.dense_mean = np.array(meta["dense_mean"])
    featurizer.dense_std = np.array(meta["dense_std"])
    mdl = model_mod.KdcnModel.build(tcfg, featurizer, RngStream(0))
    model_mod.restore_model_values(mdl, model_mod.load_model_values(args.model or out / "kdcn.bin"))

    behaviors = next((s.behaviors for s in split.all() if s.user_id == args.user), None)
    if behaviors is None:
        path = args.samples or out / "samples.jsonl"
        raise KdcnError(f"user '{args.user}' has no sample in {path}")
    if args.candidates:
        candidates = args.candidates.split(",")
        repeated = sorted(name for name, n in Counter(candidates).items() if n > 1)
        if repeated:
            raise KdcnError(f"--candidates lists {', '.join(repeated)} more than once")
    else:
        candidates = sorted(item_meta, key=lambda n: featurizer.item_id(n))
        candidates = candidates[: tcfg.candidate_cap]
    ranked = model_mod.rank_candidates(behaviors, args.query, candidates, mdl, featurizer)
    print(f"{'rank':>4}  {'item':<16} {'p_click':>8}")
    for i, (name, p) in enumerate(ranked, start=1):
        print(f"{i:>4}  {name:<16} {p:>8.4f}")


def build_parser() -> _Parser:
    parser = _Parser(prog="kdcn", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, fn in (
        ("gen-data", cmd_gen_data),
        ("build-kg", cmd_build_kg),
        ("pretrain", cmd_pretrain),
        ("train", cmd_train),
        ("eval", cmd_eval),
        ("rank", cmd_rank),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=".")
    for name in ("build-kg",):
        sub.choices[name].add_argument("--events", type=str, default=None)
    sub.choices["pretrain"].add_argument("--triples", type=str, default=None)
    for name in ("train", "eval", "rank"):
        p = sub.choices[name]
        p.add_argument("--samples", type=str, default=None)
        p.add_argument("--checkpoint", type=str, default=None)
        p.add_argument("--vocab", type=str, default=None)
        p.add_argument("--events", type=str, default=None)
    sub.choices["eval"].add_argument("--configs", type=str, default=None)
    rank = sub.choices["rank"]
    rank.add_argument("--user", type=str, required=True)
    rank.add_argument("--query", type=str, required=True)
    rank.add_argument("--candidates", type=str, default=None)
    rank.add_argument("--model", type=str, default=None)
    rank.add_argument("--meta", type=str, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError("missing subcommand")
        cfg = load_config(args.config) if args.config else {}
        unknown = sorted(set(cfg) - CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"{args.config}: unknown config key(s) {', '.join(unknown)}")
        args.fn(args, cfg)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 1
    except (KdcnError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
