"""The names bench/ reaches into kdcn by must keep resolving.

bench/tracer.py wraps kdcn functions by module and attribute path, and
bench/probes.py binds pretrain_loss_grads' arguments by position and reads
Graph's adjacency. bench/workloads.load_for_rank keeps its own copy of
model.load_ranker: it builds the rank-serve Featurizer by assigning the four
statistics kdcn.meta.json stores, and restores kdcn.bin's slots. A name
that moves makes a traced run report a null metric instead of failing, so
these tests pin the names here, along with the access patterns bench/
relies on and the ranker bench's loader builds.
"""

import dataclasses
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import kdcn.model as km
from kdcn import cli, graph, pretrain
from kdcn.datagen import ClickModel, WorldConfig, generate_samples, generate_world
from kdcn.graph import Graph, TripleSet
from kdcn.rng import RngStream
from test_cli import TINY_CONFIG

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("span,module,path", tracer.SPANS, ids=[s for s, _, _ in tracer.SPANS])
def test_every_span_resolves(span, module, path):
    found = tracer._resolve(module, path)
    assert found is not None, f"{span}: {module}.{path} no longer exists"
    owner, attr = found
    assert callable(getattr(owner, attr))


def test_bench_config_sets_only_known_keys(tmp_path):
    # rank-serve's set-up runs gen-data .. train on README_CONFIG; a key kdcn
    # no longer knows would fail that run with exit code 2
    path = tmp_path / "config.txt"
    path.write_text(workloads.README_CONFIG, encoding="utf-8")
    assert set(cli.load_config(path)) - cli.CONFIG_KEYS == set()


def test_loss_grads_takes_its_batch_by_position():
    # probes.BatchRecorder binds the wrapped call's positional arguments by name
    params = list(inspect.signature(pretrain.pretrain_loss_grads).parameters)
    assert params[:5] == ["params", "g", "cfg", "pos", "neg"]


def test_graph_exposes_per_entity_adjacency():
    ts = TripleSet()
    ts.add("u1", "user-has-tag", "female")
    ts.add("u2", "user-has-tag", "female")
    g = Graph(ts)
    assert g.n_entities == 3
    assert len(g.adjacency) == g.n_entities
    assert all(neighbors.dtype.kind == "i" for neighbors in g.adjacency)
    assert [neighbors.tolist() for neighbors in g.adjacency] == [[1], [0, 2], [1]]


def test_triples_is_one_stored_list_between_adds():
    # workloads.shard() indexes tset.triples[i] in a loop, so reading it must not rebuild it
    ts = TripleSet()
    ts.add("u1", "user-has-tag", "female")
    ts.add("u2", "user-has-tag", "male")
    triples = ts.triples
    assert isinstance(triples, list)
    assert ts.triples is triples and ts.triples[1] is triples[1]
    ts.add("u3", "user-has-tag", "male")
    assert ts.triples is ts.triples and len(ts.triples) == 3


def test_adjacency_rows_are_csr_slices():
    ts = TripleSet()
    for user, tags in (("u1", ["a", "b"]), ("u2", ["a"]), ("u3", [])):
        for tag in tags:
            ts.add(user, "user-has-tag", tag)
    ts.entity_id("user", "lonely", create=True)
    g = Graph(ts)
    assert len(g.adjacency) == g.n_entities == 5
    for i, row in enumerate(g.adjacency):
        assert np.array_equal(row, g.indices[g.indptr[i] : g.indptr[i + 1]])


def test_featurizer_with_assigned_stats_matches_fit_stats():
    world = generate_world(
        WorldConfig(n_users=6, n_items=10, n_categories=3, n_sellers=3, n_tags=3,
                    n_keywords=12, n_sessions=8, seed=4)
    )
    split = generate_samples(world, 60, ClickModel(), RngStream(4).child("samples"))
    rng = RngStream(5)
    ckpt = pretrain.PretrainCheckpoint(
        rng.uniform(-0.5, 0.5, (world.tset.n_entities, 8)).astype(np.float32),
        rng.uniform(-0.5, 0.5, (world.tset.n_relations, 8)).astype(np.float32),
    )
    meta = km.item_meta_from_events(world.events)
    cfg = km.TrainConfig(cat_dim=3, deep_width=6, conv_filters=2, attention_heads=2,
                         max_query_keywords=3, max_title_keywords=3)
    fitted = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
    fitted.fit_stats(split.train)
    # the four fields as kdcn.meta.json stores them, read back
    stored = json.loads(json.dumps({
        "n_dense": fitted.n_dense, "n_behavior_kinds": fitted.n_behavior_kinds,
        "dense_mean": fitted.dense_mean.tolist(), "dense_std": fitted.dense_std.tolist(),
    }))
    assigned = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
    assigned.n_dense = stored["n_dense"]
    assigned.n_behavior_kinds = stored["n_behavior_kinds"]
    assigned.dense_mean = np.array(stored["dense_mean"])
    assigned.dense_std = np.array(stored["dense_std"])

    model = km.KdcnModel.build(cfg, fitted, RngStream(6))
    idx = np.array([4, 0, 9, 9, 2])
    a, b = (f.prepare(split.train[:12]).batch(idx) for f in (fitted, assigned))
    for f in dataclasses.fields(km.Dataset):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert np.asarray(x).dtype == np.asarray(y).dtype and np.array_equal(x, y), f.name
    assert np.array_equal(model.predict_batch(a), model.predict_batch(b))
    s, candidates = split.train[0], sorted(meta)[:7]
    ranked = [km.rank_candidates(s.behaviors, s.query, candidates, model, f) for f in (fitted, assigned)]
    assert ranked[0] == ranked[1]


def test_load_for_rank_matches_load_ranker(tmp_path):
    config = tmp_path / "config.txt"
    config.write_text(TINY_CONFIG)
    for sub in ("gen-data", "build-kg", "pretrain", "train"):
        assert cli.main([sub, "--seed", "3", "--config", str(config), "--out", str(tmp_path)]) == 0, sub
    samples, bench_feat, bench_model = workloads.load_for_rank(tmp_path)
    model, feat = km.load_ranker(
        tmp_path / "kdcn.meta.json",
        tmp_path / "kdcn.bin",
        pretrain.load_checkpoint(tmp_path / "ckge.bin"),
        graph.load_vocab(tmp_path / "ckge.vocab.tsv"),
        km.item_meta_from_events(graph.load_events(tmp_path / "events.jsonl")),
    )
    assert bench_model.cfg == model.cfg
    assert bench_model.store.names() == model.store.names()
    for name in model.store.names():
        x, y = bench_model.store.value(name), model.store.value(name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    for name in ("n_dense", "n_behavior_kinds", "dense_mean", "dense_std"):
        x, y = getattr(bench_feat, name), getattr(feat, name)
        assert type(x) is type(y) and np.asarray(x).dtype == np.asarray(y).dtype, name
        assert np.array_equal(x, y), name
    items = sorted(feat.item_meta, key=feat.item_id)
    rng = RngStream(3)
    for s in samples[::25]:
        candidates = [items[int(i)] for i in rng.choice(len(items), size=8, replace=False)]
        ranked = [km.rank_candidates(s.behaviors, s.query, candidates, m, f)
                  for m, f in ((bench_model, bench_feat), (model, feat))]
        assert ranked[0] == ranked[1]
