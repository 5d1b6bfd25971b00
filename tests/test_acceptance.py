"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with -s). The heavy
experiments share module-scoped fixtures so the whole module stays inside
its runtime budgets on a 2-core box.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import kdcn.model as km
import kdcn.pretrain as pt
from kdcn.cli import main as cli_main
from kdcn.datagen import ClickModel, WorldConfig, generate_samples, generate_world, load_samples, save_samples
from kdcn.graph import RELATIONS, Graph, TripleSet, load_triples, save_triples
from kdcn.metrics import auc, epochs_to_threshold
from kdcn.rng import RngStream
from oracles import (
    AttentionParams,
    DialogueInput,
    auc_bruteforce,
    cross_forward,
    dialogue_interaction,
    finite_diff_check,
    init_params,
    margin_loss,
    pretrain_loss,
    ranker_loss,
    softmax_rows,
    transe_score,
    widened_checkpoint,
)


def report(num: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


# --------------------------------------------------------------------------
# criterion 1: gradient oracle
# --------------------------------------------------------------------------


def tiny_triple_set() -> TripleSet:
    ts = TripleSet()
    for i in range(3):
        ts.add(f"u{i}", "user-has-tag", f"t{i % 2}")
    for i in range(5):
        ts.add(f"i{i}", "item-belongs-to-category", f"c{i % 2}")
        ts.add(f"s{i % 2}", "seller-has-item", f"i{i}")
    for i in range(3):
        ts.add(f"u{i}", "user-created-session", f"sess{i}")
    return ts


def _pretrain_gradcheck(mode: str) -> float:
    ts = tiny_triple_set()
    assert ts.n_entities <= 20
    g = Graph(ts)
    cfg = pt.PretrainConfig(dim=5, layers=2, mode=mode, fanout=3)
    worst_overall = None
    for attempt in range(3):
        rng = RngStream(31 + attempt)
        params = init_params(ts.n_entities, ts.n_relations, cfg, rng.child("init"))
        triples = np.array([[t.head, t.relation, t.tail] for t in ts.triples])
        pos = triples
        rng_neg = rng.child("neg")
        neg = np.array(
            [
                [c.head, c.relation, c.tail]
                for c in (pt.negative_sample(pt.Triple(*r), g, rng_neg) for r in pos)
            ]
        )
        draws = pt.sample_layer_draws(g, cfg, rng.child("draws")) if mode == "sampled" else None
        params.zero_grads()
        pt.pretrain_loss_grads(params, g, cfg, pos, neg, draws)
        worst = max(
            finite_diff_check(
                lambda: pretrain_loss(params, g, cfg, pos, neg, draws), params, name
            )
            for name in params.names()
        )
        worst_overall = worst if worst_overall is None else min(worst_overall, worst)
        if worst < 1e-4:
            return worst
    return worst_overall


def _kdcn_gradcheck(finetune: bool) -> float:
    world = generate_world(
        WorldConfig(
            n_users=6, n_items=10, n_categories=3, n_sellers=3, n_tags=3,
            n_keywords=12, n_sessions=8, seed=77,
        )
    )
    g = Graph(world.tset)
    ckpt = pt.pretrain(
        world.tset, g, pt.PretrainConfig(dim=8, layers=1, epochs=1, lr=0.01), RngStream(77)
    ).checkpoint
    # pretrain() returns float32; widened, the table builds the float64 ranker the oracle checks
    ckpt = widened_checkpoint(ckpt)
    split = generate_samples(world, 40, ClickModel(), RngStream(77).child("s"))
    meta = km.item_meta_from_events(world.events)
    cfg = km.TrainConfig(
        epochs=1, batch_size=10, cat_dim=3, n_cross=2, deep_layers=2, deep_width=6,
        conv_filters=2, attention_heads=2, max_query_keywords=2, max_title_keywords=2,
        finetune_embeddings=finetune,
    )
    feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
    feat.fit_stats(split.train)
    worst_overall = None
    for attempt in range(3):
        model = km.KdcnModel.build(cfg, feat, RngStream(88))
        # the oracle checks the float64 build; a float32 one would need a looser bound
        assert {slot.value.dtype for slot in model.store.slots.values()} == {np.dtype(np.float64)}
        jitter = RngStream(400 + attempt)
        for name in model.store.names():
            model.store.value(name)[...] += jitter.uniform(
                -0.05, 0.05, model.store.value(name).shape
            )
        batch = feat.prepare(split.train[:10]).batch(np.arange(10))
        model.store.zero_grads()
        model.loss_and_grads(batch)
        worst = max(
            finite_diff_check(lambda: ranker_loss(model, batch), model.store, name)
            for name in model.store.names()
        )
        worst_overall = worst if worst_overall is None else min(worst_overall, worst)
        if worst < 1e-4:
            return worst
    return worst_overall


def test_criterion_1_gradient_oracle():
    started = time.perf_counter()
    errs = {
        "pretrain/full": _pretrain_gradcheck("full"),
        "pretrain/sampled": _pretrain_gradcheck("sampled"),
        "kdcn/frozen": _kdcn_gradcheck(finetune=False),
        "kdcn/finetune": _kdcn_gradcheck(finetune=True),
    }
    elapsed = time.perf_counter() - started
    ok = all(e < 1e-4 for e in errs.values()) and elapsed < 120
    detail = ", ".join(f"{k} err={v:.2e}" for k, v in errs.items()) + f", {elapsed:.1f}s (<120s)"
    report(1, ok, f"gradients vs central differences: {detail}")


# --------------------------------------------------------------------------
# criterion 2: structural encoder oracle
# --------------------------------------------------------------------------


def random_triple_set(rng: RngStream, n_left: int, n_right: int, n_edges: int) -> TripleSet:
    ts = TripleSet()
    for _ in range(n_edges):
        ts.add(
            f"u{int(rng.integers(0, n_left))}",
            "user-has-tag",
            f"t{int(rng.integers(0, n_right))}",
        )
    return ts


def test_criterion_2_sampled_equals_full():
    rng = RngStream(510)
    worst = 0.0
    for trial in range(20):
        if trial % 2 == 0:
            ts = random_triple_set(
                rng.child(f"g{trial}"), 20 + trial, 20 + trial, 60 + 5 * trial
            )
        else:
            ts = generate_world(
                WorldConfig(
                    n_users=8 + trial, n_items=12, n_categories=3, n_sellers=3,
                    n_tags=3, n_keywords=9, n_sessions=6, seed=trial,
                )
            ).tset
        g = Graph(ts)
        assert g.n_entities <= 100 or trial % 2 == 1
        fanout = max(g.max_degree(), 1)
        cfg_full = pt.PretrainConfig(dim=6, layers=2, aggregation="mean", mode="full")
        cfg_samp = pt.PretrainConfig(
            dim=6, layers=2, aggregation="mean", mode="sampled", fanout=fanout
        )
        params = init_params(g.n_entities, 9, cfg_full, rng.child(f"p{trial}"))
        full = pt.encode_entities(params, g, cfg_full)
        samp = pt.encode_entities(params, g, cfg_samp, rng.child(f"s{trial}"))
        worst = max(worst, float(np.abs(full - samp).max()))
    report(2, worst < 1e-9, f"20 graphs, max |sampled - full| = {worst:.2e} (<1e-9)")


# --------------------------------------------------------------------------
# criterion 3: pretraining sanity (filtered Hits@10)
# --------------------------------------------------------------------------


def test_criterion_3_pretraining_hits_at_10():
    started = time.perf_counter()
    world = generate_world(
        WorldConfig(
            n_users=220, n_tags=24, n_items=560, n_categories=10, n_sellers=30,
            n_keywords=130, n_sessions=540, seed=101,
        )
    )
    tset = world.tset
    assert 1900 <= tset.n_entities <= 2200, tset.n_entities
    assert 8000 <= len(tset) <= 12000, len(tset)

    holdout = RngStream(101).child("holdout").permutation(len(tset.triples))
    eval_idx = set(holdout[:400].tolist())
    train_ts = TripleSet()
    for ent in tset.entities:
        train_ts.entity_id(ent.kind, ent.name, create=True)
    eval_triples = []
    for i, tr in enumerate(tset.triples):
        if i in eval_idx:
            eval_triples.append(tr)
        else:
            train_ts.add(tset.name_of(tr.head), RELATIONS[tr.relation], tset.name_of(tr.tail))
    g = Graph(train_ts)
    cfg = pt.PretrainConfig(dim=64, layers=2, margin=1.0, lr=0.01, batch_size=512, epochs=20)
    result = pt.pretrain(train_ts, g, cfg, RngStream(7))
    hits = pt.hits_at_k(result.checkpoint, tset, eval_triples, RngStream(55), k=10, n_candidates=50)
    elapsed = time.perf_counter() - started
    ok = hits >= 0.6 and elapsed < 300
    report(
        3,
        ok,
        f"{tset.n_entities} entities / {len(tset)} triples, 20 epochs: "
        f"filtered Hits@10 = {hits:.3f} (>=0.6, random 0.2), {elapsed:.1f}s (<300s)",
    )


# --------------------------------------------------------------------------
# criteria 4 + 5: uplift and convergence vs the ablated baseline
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def uplift_runs():
    started = time.perf_counter()
    world = generate_world(
        WorldConfig(
            n_users=300, n_items=400, n_categories=10, n_sellers=24, n_tags=12,
            n_keywords=150, n_sessions=300, seed=202, affinity_strength=3.0, noise_std=0.5,
        )
    )
    split = generate_samples(world, 20_000, ClickModel(), RngStream(202).child("samples"))
    g = Graph(world.tset)
    ckpt = pt.pretrain(
        world.tset, g, pt.PretrainConfig(dim=64, layers=2, lr=0.01, epochs=10), RngStream(11)
    ).checkpoint
    meta = km.item_meta_from_events(world.events)
    runs = {"kdcn": [], "dcn": []}
    for seed in range(5):
        for name, epochs in (("kdcn", 7), ("dcn", 10)):
            cfg = km.ablation_config(
                km.TrainConfig(epochs=epochs, lr=1e-3, batch_size=512), name
            )
            result = km.fit(
                split.train, split.valid, ckpt, cfg, RngStream(1000 + seed),
                world.tset.entities, meta,
            )
            test_set = result.featurizer.prepare(split.test)
            test_auc = auc(
                km.score_dataset(result.model, test_set), test_set.labels.astype(int).tolist()
            )
            runs[name].append(
                {"auc": test_auc, "losses": [h.train_loss for h in result.history]}
            )
    runs["elapsed"] = time.perf_counter() - started
    return runs


def test_criterion_4_uplift_over_ablation(uplift_runs):
    kdcn_med = float(np.median([r["auc"] for r in uplift_runs["kdcn"]]))
    dcn_med = float(np.median([r["auc"] for r in uplift_runs["dcn"]]))
    elapsed = uplift_runs["elapsed"]
    ok = kdcn_med >= dcn_med + 0.01 and elapsed < 600
    report(
        4,
        ok,
        f"median test AUC over 5 seeds: kdcn={kdcn_med:.4f} vs dcn={dcn_med:.4f} "
        f"(diff {kdcn_med - dcn_med:+.4f} >= 0.01), {elapsed:.1f}s (<600s)",
    )


def test_criterion_5_convergence_speed(uplift_runs):
    reached = []
    for kd, dc in zip(uplift_runs["kdcn"], uplift_runs["dcn"]):
        threshold = dc["losses"][9]  # the ablation's epoch-10 training loss
        epoch = epochs_to_threshold(kd["losses"], threshold)
        reached.append(epoch if epoch is not None else len(kd["losses"]) + 1)
    median = float(np.median(reached))
    report(
        5,
        median <= 7,
        f"epochs for kdcn to reach dcn's epoch-10 loss: {reached}, median {median} (<=7)",
    )


# --------------------------------------------------------------------------
# criterion 6: AUC metric oracle
# --------------------------------------------------------------------------


def test_criterion_6_auc_equals_bruteforce():
    rng = RngStream(606)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 501))
        scores = np.round(rng.uniform(0, 1, n), 2)  # ties guaranteed
        labels = (rng.random(n) < 0.5).astype(int)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) == auc_bruteforce(scores, labels)
        checked += 1
    report(6, checked == 100, f"auc == brute-force pair counting on {checked}/100 instances")


# --------------------------------------------------------------------------
# criterion 7: closed-form example checks
# --------------------------------------------------------------------------


def test_criterion_7_closed_form_examples():
    checks = []

    def chk(name, cond):
        checks.append((name, bool(cond)))

    # translation scorer
    chk("transe exact", transe_score([1, 0], [0, 1], [1, 1]) == 0.0)
    chk("transe sqrt52", math.isclose(transe_score([1, 2], [3, 4], [0, 0]), math.sqrt(52), rel_tol=1e-12))
    h, r, t = (RngStream(70).uniform(-1, 1, 4) for _ in range(3))
    chk("transe reversal", math.isclose(transe_score(h, r, t), transe_score(t, -r, h), rel_tol=1e-12))
    # margin ranking loss
    chk("margin satisfied", margin_loss([0.5], [2.0], 1.0) == 0.0)
    chk("margin violated", margin_loss([2.0], [1.0], 1.0) == 2.0)
    chk("margin boundary", math.isclose(margin_loss([0.7, 0.7], [0.7, 0.7], 1.0), 2.0, rel_tol=1e-12))
    # cross layer
    chk("cross hand", np.array_equal(cross_forward([1.0, 0.0], [(np.array([1.0, 0.0]), np.zeros(2))]), [2.0, 0.0]))
    f0 = RngStream(71).uniform(-1, 1, 4)
    chk("cross identity", np.array_equal(cross_forward(f0, [(np.zeros(4), np.zeros(4))] * 2), f0))
    layers = [(RngStream(72).uniform(-1, 1, 3), RngStream(73).uniform(-1, 1, 3)) for _ in range(2)]
    chk("cross zero input", np.allclose(cross_forward(np.zeros(3), layers), layers[0][1] + layers[1][1], atol=1e-12))
    # log loss
    chk("logloss ln2", math.isclose(km.log_loss([0.5], [1]), math.log(2), rel_tol=1e-12))
    chk("logloss perfect", km.log_loss([1.0 - 1e-13], [1]) < 1e-10)
    chk("logloss flip", math.isclose(km.log_loss([0.3, 0.8], [1, 0]), km.log_loss([0.7, 0.2], [0, 1]), rel_tol=1e-12))
    # softmax
    chk("softmax quarter", np.allclose(softmax_rows(np.array([[0.0, math.log(3)]])), [[0.25, 0.75]], atol=1e-12))
    chk("softmax uniform", np.allclose(softmax_rows(np.full((1, 4), 2.2)), 0.25, atol=1e-15))
    chk("softmax single", np.array_equal(softmax_rows(np.array([[5.0]])), [[1.0]]))
    # attention
    rng = RngStream(74)
    table = rng.uniform(-1, 1, (12, 8))
    attn = AttentionParams(2, rng.uniform(-1, 1, (8, 8)), rng.uniform(-1, 1, (8, 8)), rng.uniform(-1, 1, (8, 8)))
    single = dialogue_interaction(DialogueInput([3], []), table, attn, 2, 2)
    chk("attention single", np.allclose(single[0], attn.value_proj @ table[3], atol=1e-12))
    twin = dialogue_interaction(DialogueInput([3], [3]), table, attn, 2, 2)
    chk("attention identical pair", np.allclose(twin[0], twin[1], atol=1e-12))
    from test_features import attention_oracle

    ids = [2, 7, 9]
    got = dialogue_interaction(DialogueInput(ids[:2], ids[2:]), table, attn, 4, 4)
    chk("attention loop oracle", np.abs(got - attention_oracle(ids, table, attn, 4, 4)).max() < 1e-10)

    failed = [name for name, ok in checks if not ok]
    report(7, not failed, f"{len(checks)} closed-form examples checked" + (f"; failed: {failed}" if failed else ""))


# --------------------------------------------------------------------------
# criterion 8: pipeline determinism
# --------------------------------------------------------------------------

PIPELINE_CONFIG = """
n_users = 12
n_items = 20
n_categories = 3
n_sellers = 4
n_tags = 4
n_keywords = 18
n_sessions = 16
n_samples = 300
alpha = 1.0
noise_std = 1.5
dim = 8
layers = 1
pretrain_epochs = 2
pretrain_lr = 0.01
epochs = 2
lr = 0.003
batch_size = 64
cat_dim = 4
deep_width = 8
conv_filters = 2
attention_heads = 2
max_query_keywords = 3
max_title_keywords = 3
"""


def run_cli_pipeline(out: Path, cfg: Path, seed: int) -> None:
    base = ["--seed", str(seed), "--config", str(cfg), "--out", str(out)]
    for cmd in ("gen-data", "build-kg", "pretrain", "train"):
        assert cli_main([cmd] + base) == 0, cmd
    assert cli_main(["eval"] + base + ["--configs", "kdcn,dcn"]) == 0


def test_criterion_8_pipeline_determinism(tmp_path):
    cfg = tmp_path / "config.txt"
    cfg.write_text(PIPELINE_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli_pipeline(out_a, cfg, seed=9)
    run_cli_pipeline(out_b, cfg, seed=9)
    identical = []
    for name in (
        "events.jsonl", "triples.tsv", "samples.jsonl", "vocab.tsv",
        "ckge.bin", "ckge.vocab.tsv", "pretrain_loss.csv",
        "kdcn.bin", "kdcn.meta.json", "history.csv",
    ):
        identical.append(((out_a / name).read_bytes() == (out_b / name).read_bytes(), name))
    # the wall-time column of the report is the one non-reproducible field
    strip = lambda p: "\n".join(
        ",".join(line.split(",")[:-1]) for line in p.read_text().splitlines()
    )
    identical.append((strip(out_a / "report.csv") == strip(out_b / "report.csv"), "report.csv"))
    bad = [name for ok, name in identical if not ok]
    report(
        8,
        not bad,
        f"two seeded runs byte-identical across {len(identical)} artifacts"
        + (f"; differing: {bad}" if bad else " (report.csv compared without wall-time column)"),
    )


# --------------------------------------------------------------------------
# criterion 9: format round-trips
# --------------------------------------------------------------------------


def test_criterion_9_format_round_trips(tmp_path):
    results = []
    rng = RngStream(909)

    ts = TripleSet()
    relations = list(RELATIONS)
    for _ in range(300):
        rel = relations[int(rng.integers(0, len(relations)))]
        ts.add(f"h{int(rng.integers(0, 40))}", rel, f"t{int(rng.integers(0, 40))}")
    save_triples(ts, tmp_path / "t.tsv")
    results.append((load_triples(tmp_path / "t.tsv") == ts, "triples.tsv"))

    world = generate_world(
        WorldConfig(n_users=8, n_items=12, n_categories=3, n_sellers=3, n_tags=3,
                    n_keywords=12, n_sessions=8, seed=3)
    )
    split = generate_samples(world, 50, ClickModel(), RngStream(3).child("s"))
    save_samples(split.all(), tmp_path / "s.jsonl")
    loaded = load_samples(tmp_path / "s.jsonl")
    results.append(
        ([s.to_dict() for s in loaded] == [s.to_dict() for s in split.all()], "samples.jsonl")
    )

    ckpt = pt.PretrainCheckpoint(rng.uniform(-1, 1, (7, 6)), rng.uniform(-1, 1, (9, 6)))
    pt.export_checkpoint(ckpt, tmp_path / "c.bin")
    got = pt.load_checkpoint(tmp_path / "c.bin")
    results.append(
        (
            np.array_equal(got.entity_table, ckpt.entity_table.astype(np.float32))
            and np.array_equal(got.relation_table, ckpt.relation_table.astype(np.float32)),
            "ckge.bin (f32 precision)",
        )
    )

    g = Graph(world.tset)
    ck2 = pt.pretrain(world.tset, g, pt.PretrainConfig(dim=8, layers=1, epochs=1, lr=0.01), RngStream(4)).checkpoint
    meta = km.item_meta_from_events(world.events)
    cfg = km.TrainConfig(epochs=1, batch_size=16, cat_dim=3, deep_width=6, conv_filters=2,
                         attention_heads=2, max_query_keywords=2, max_title_keywords=2)
    fit_res = km.fit(split.train, split.valid, ck2, cfg, RngStream(5), world.tset.entities, meta)
    km.save_model(fit_res.model, tmp_path / "m.bin")
    values = km.load_model_values(tmp_path / "m.bin")
    ok_model = set(values) == set(fit_res.model.store.names()) and all(
        np.array_equal(values[n], fit_res.model.store.value(n).astype(np.float32))
        for n in values
    )
    results.append((ok_model, "kdcn.bin (f32 precision)"))

    bad = [name for ok, name in results if not ok]
    report(9, not bad, "triples/samples/checkpoint/model round-trips" + (f"; failed: {bad}" if bad else " all lossless"))
