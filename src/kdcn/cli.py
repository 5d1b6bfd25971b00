"""Command-line pipeline: gen-data, build-kg, pretrain, train, eval, rank.

Exit codes: 0 success, 1 usage error, 2 data/format error. All subcommands
take --seed, --config (flat key=value file) and --out (artifact directory);
with a fixed seed and BLAS thread count every run writes byte-identical
artifacts, except for the wall-time column of the evaluation report.

The config file's keys are the scalar fields of WorldConfig, ClickModel,
PretrainConfig and TrainConfig (see SECTIONS, which renames four of them),
plus n_samples and loss_threshold; each field's default and type are the
key's default and cast. A boolean takes 1/true/yes/on or 0/false/no/off.
An unknown, empty or repeated key, or a value that does not parse or is out
of range (a negative epoch count, a loss_threshold that is not finite), is
a data error. `rank` takes every TrainConfig setting from kdcn.meta.json,
so a config file that sets one of those keys to another value is a data
error too.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from collections import Counter
from dataclasses import fields
from pathlib import Path

from . import datagen, graph, model as model_mod, pretrain as pretrain_mod
from .errors import ConfigError, FormatError, KdcnError, ParseError, cut
from .metrics import auc, epochs_to_threshold
from .rng import RngStream
from .textfile import read_lines, write_lines


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


# Config file sections: section -> (dataclass, {field: key} for the keys not
# named after their field). Every scalar field with a default is a key, with
# the default's type as its cast, so float defaults are written as float
# literals (1.0, not 1). `seed` comes from --seed, not from the file.
SECTIONS = {
    "world": (datagen.WorldConfig, {"affinity_strength": "alpha"}),
    "click": (datagen.ClickModel, {}),
    "pretrain": (
        pretrain_mod.PretrainConfig,
        {"lr": "pretrain_lr", "batch_size": "pretrain_batch_size", "epochs": "pretrain_epochs"},
    ),
    "train": (model_mod.TrainConfig, {}),
}
# keys read outside any dataclass: key -> (cast, default)
LOOSE_KEYS = {"n_samples": (int, 5000), "loss_threshold": (float, None)}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _section_keys(section: str) -> list[tuple[str, str, type]]:
    """(key, field, cast) for every config key of one section."""
    cls, renames = SECTIONS[section]
    return [
        (renames.get(f.name, f.name), f.name, type(f.default))
        for f in fields(cls)
        if f.name != "seed" and type(f.default) in (bool, int, float, str)
    ]


# every key a config file may set; any other key is an error
CONFIG_KEYS = frozenset(
    [key for section in SECTIONS for key, _, _ in _section_keys(section)] + list(LOOSE_KEYS)
)


def _config_pair(line: str) -> tuple[str, str] | None:
    key, eq, value = line.split("#", 1)[0].partition("=")
    if not eq and key.strip():
        raise ParseError("expected key=value")
    if eq and not key.strip():
        raise ParseError("empty config key")
    return (key.strip(), value.strip()) if eq else None


def load_config(path) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment, blank lines ignored. A
    repeated key is a ParseError at its line."""
    cfg: dict[str, str] = {}

    def add(line: str) -> None:
        pair = _config_pair(line)
        if pair:
            if pair[0] in cfg:
                raise ParseError(f"repeated config key '{cut(pair[0])}'")
            cfg[pair[0]] = pair[1]

    read_lines(path, add)
    return cfg


def _cast(key: str, cast, raw: str):
    try:
        return _BOOLS[raw.lower()] if cast is bool else cast(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"config key '{key}': {raw!r} is not a valid {cast.__name__}") from None


def _get(cfg: dict, key: str):
    cast, default = LOOSE_KEYS[key]
    return _cast(key, cast, cfg[key]) if key in cfg else default


def _section(cfg: dict, section: str, **fixed):
    """The section's dataclass built from the keys the file sets, defaults elsewhere."""
    values = {f: _cast(key, cast, cfg[key]) for key, f, cast in _section_keys(section) if key in cfg}
    return SECTIONS[section][0](**values, **fixed)


def _names(flag: str, value: str) -> list[str]:
    """A comma-separated option value; an empty list or an empty name is a usage error."""
    names = value.split(",")
    if "" in names:
        raise UsageError(f"{flag} {value!r} names an empty item")
    return names


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    write_lines(path, (",".join(row) for row in [header, *rows]))


def cmd_gen_data(args, cfg: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    world = datagen.generate_world(_section(cfg, "world", seed=args.seed))
    n = _get(cfg, "n_samples")
    split = datagen.generate_samples(
        world, n, _section(cfg, "click"), RngStream(args.seed).child("samples")
    )
    graph.save_events(world.events, out / "events.jsonl")
    graph.save_triples(world.tset, out / "triples.tsv")
    datagen.save_samples(split.all(), out / "samples.jsonl")
    print(f"wrote {len(world.events)} events, {len(world.tset)} triples, {n} samples to {out}")


def cmd_build_kg(args, cfg: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    events = graph.load_events(args.events or out / "events.jsonl")
    tset = graph.ingest_events(events)
    graph.save_triples(tset, out / "triples.tsv")
    graph.save_vocab(tset, out / "vocab.tsv")
    print(f"built graph: {tset.n_entities} entities, {len(tset)} triples")


def cmd_pretrain(args, cfg: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pcfg = _section(cfg, "pretrain")
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
    return (datagen.split_loaded(samples), *_load_ranker_inputs(args, out))


def _load_ranker_inputs(args, out: Path):
    """The checkpoint, its entities and the item metadata, checked against each other."""
    ckpt_path = args.checkpoint or out / "ckge.bin"
    vocab_path = args.vocab or out / "ckge.vocab.tsv"
    ckpt = pretrain_mod.load_checkpoint(ckpt_path)
    entities = graph.load_vocab(vocab_path)
    if len(entities) != len(ckpt.entity_table):
        raise FormatError(
            f"{vocab_path}: {len(entities)} entities, but {ckpt_path} has {len(ckpt.entity_table)}"
        )
    stray = next((i for i, e in enumerate(entities) if e.id != i), None)
    if stray is not None:
        raise FormatError(f"{vocab_path}: entry {stray + 1} has id {entities[stray].id}, expected {stray}")
    events = graph.load_events(args.events or out / "events.jsonl")
    item_meta = model_mod.item_meta_from_events(events)
    return ckpt, entities, item_meta


def cmd_train(args, cfg: dict) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tcfg = _section(cfg, "train")
    split, ckpt, entities, item_meta = _load_train_inputs(args, out)
    result = model_mod.fit(
        split.train, split.valid, ckpt, tcfg, RngStream(args.seed).child("train"),
        entities, item_meta,
    )
    model_mod.save_ranker(result.model, result.featurizer, out / "kdcn.meta.json", out / "kdcn.bin")
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
    if args.configs is not None:
        requested = _names("--configs", args.configs)
        unknown = [n for n in requested if n not in model_mod.ABLATIONS]
        if unknown:
            raise UsageError(f"unknown eval config(s) {unknown}; choose from {names}")
        repeated = sorted(n for n, count in Counter(requested).items() if count > 1)
        if repeated:
            raise UsageError(f"--configs names {', '.join(repeated)} more than once")
        names = sorted(requested)
    base = _section(cfg, "train")
    threshold = _get(cfg, "loss_threshold")
    if threshold is not None and not math.isfinite(threshold):
        raise ConfigError(f"loss_threshold must be finite, got {threshold}")
    split, ckpt, entities, item_meta = _load_train_inputs(args, out)
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
        del result, test_set, scores  # the next fit reuses their memory
    _write_csv(
        out / "report.csv",
        ["config", "test_auc", "final_train_loss", "epochs_to_threshold", "wall_time_s"],
        rows,
    )
    for row in rows:
        print(f"{row[0]}: test_auc={row[1]} final_train_loss={row[2]}")


def cmd_rank(args, cfg: dict) -> None:
    out = Path(args.out)
    candidates = None if args.candidates is None else _names("--candidates", args.candidates)
    # the user's first sample ends the read: the lines before it are
    # parsed and checked, the rest of the file is not read
    samples_path = args.samples or out / "samples.jsonl"
    behaviors = next(
        (s.behaviors for s in datagen.iter_samples(samples_path) if s.user_id == args.user), None
    )
    ckpt, entities, item_meta = _load_ranker_inputs(args, out)
    meta_path = args.meta or out / "kdcn.meta.json"
    mdl, featurizer = model_mod.load_ranker(
        meta_path, args.model or out / "kdcn.bin", ckpt, entities, item_meta
    )
    for key, name, cast in _section_keys("train"):
        if key in cfg and _cast(key, cast, cfg[key]) != getattr(mdl.cfg, name):
            raise ConfigError(
                f"config key '{key}' = {cfg[key]} differs from {meta_path}, which has "
                f"{getattr(mdl.cfg, name)!r}; rank takes its settings from {meta_path}"
            )

    if behaviors is None:
        raise KdcnError(f"user '{args.user}' has no sample in {samples_path}")
    if candidates is None:
        # the listed items that are graph entities, in entity-id order
        ids = dict(zip(item_meta, featurizer.item_entity_ids.tolist()))
        candidates = sorted((name for name in ids if ids[name] >= 0), key=ids.get)[: mdl.cfg.candidate_cap]
        if not candidates:
            path = args.events or out / "events.jsonl"
            vocab = args.vocab or out / "ckge.vocab.tsv"
            raise KdcnError(
                f"{path} has no item_listing of an entity in {vocab}, so rank has no candidate to score"
            )
    repeated = sorted(name for name, n in Counter(candidates).items() if n > 1)
    if repeated:
        raise KdcnError(f"--candidates lists {', '.join(repeated)} more than once")
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
            raise ConfigError(f"{args.config}: unknown config key(s) {cut(', '.join(unknown))}")
        args.fn(args, cfg)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (KdcnError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
