import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdcn.model as km
import kdcn.pretrain as pt
from kdcn.datagen import ClickModel, Sample, WorldConfig, generate_samples, generate_world
from kdcn.errors import CapacityError, ConfigError, DimensionError, FormatError, IngestionError, SchemaError
from kdcn.graph import Graph, csr_lists
from kdcn.numeric import adam_step, ragged_rows, sigmoid
from kdcn.rng import RngStream
from oracles import (
    attention_heads,
    attention_heads_backward,
    attention_params,
    behavior_scatter,
    conv_params,
    cross_forward,
    cross_layers,
    cross_layers_backward,
    deep_forward,
    finite_diff_check,
    group_means,
    group_means_backward,
    keyword_lists,
    padded_keywords,
    predict,
    ranker_loss,
    sample_features,
    scatter_dtable,
    title_keyword_ids,
    widened_checkpoint,
)


def small_setup(seed=2, n_samples=60, **cfg_overrides):
    world = generate_world(
        WorldConfig(
            n_users=6, n_items=10, n_categories=3, n_sellers=3, n_tags=3,
            n_keywords=12, n_sessions=8, seed=seed,
        )
    )
    g = Graph(world.tset)
    ckpt = pt.pretrain(
        world.tset, g, pt.PretrainConfig(dim=8, layers=1, epochs=1, lr=0.01),
        RngStream(seed),
    ).checkpoint
    # pretrain() returns float32; widened, the table builds the float64 ranker the oracles check
    ckpt = widened_checkpoint(ckpt)
    split = generate_samples(world, n_samples, ClickModel(), RngStream(seed).child("s"))
    meta = km.item_meta_from_events(world.events)
    cfg_kwargs = dict(
        epochs=1, batch_size=16, lr=1e-3, cat_dim=3, n_cross=2, deep_layers=2,
        deep_width=6, conv_filters=2, attention_heads=2,
        max_query_keywords=3, max_title_keywords=3,
    )
    cfg_kwargs.update(cfg_overrides)
    cfg = km.TrainConfig(**cfg_kwargs)
    return world, ckpt, split, meta, cfg


class TestCrossForward:
    def test_hand_example(self):
        out = cross_forward([1.0, 0.0], [(np.array([1.0, 0.0]), np.zeros(2))])
        assert np.array_equal(out, [2.0, 0.0])

    def test_zero_params_identity(self):
        f = RngStream(0).uniform(-1, 1, 5)
        layers = [(np.zeros(5), np.zeros(5))] * 3
        assert np.array_equal(cross_forward(f, layers), f)

    def test_zero_input_sums_biases(self):
        rng = RngStream(1)
        layers = [(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)) for _ in range(3)]
        out = cross_forward(np.zeros(4), layers)
        assert np.allclose(out, sum(b for _, b in layers), atol=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            cross_forward(np.zeros(3), [(np.zeros(4), np.zeros(3))])


def cross_case(n_cross, n=37, width=23, seed=0):
    """Random input, (F, 1) cross slots with nonzero biases, and an upstream gradient."""
    rng = RngStream(seed)
    f = rng.uniform(-1, 1, (n, width))
    ws = [rng.uniform(-0.4, 0.4, (width, 1)) for _ in range(n_cross)]
    bs = [rng.uniform(-0.5, 0.5, (width, 1)) for _ in range(n_cross)]
    return f, ws, bs, rng.uniform(-1, 1, (n, width))


def close(a, b, tol=1e-12):
    return np.abs(a - b).max() <= tol * max(1.0, np.abs(b).max())


class TestCrossTower:
    @pytest.mark.parametrize("n_cross", [0, 1, 4])
    def test_matches_layer_reference(self, n_cross):
        f, ws, bs, dx = cross_case(n_cross)
        stack = lambda cols: np.concatenate(cols, axis=1) if cols else np.zeros((f.shape[1], 0))
        x, cache = km.cross_tower(f, stack(ws), stack(bs))
        x_ref, layers = cross_layers(f, ws, bs)
        assert close(x, x_ref)
        df, dw, db = km.cross_tower_backward(f, dx, cache)
        df_ref, dws_ref, dbs_ref = cross_layers_backward(f, dx, ws, layers)
        assert close(df, df_ref)
        assert dw.shape == db.shape == (f.shape[1], n_cross)
        for i in range(n_cross):
            assert close(dw[:, i : i + 1], dws_ref[i])
            assert close(db[:, i : i + 1], dbs_ref[i])
        if n_cross == 0:
            assert np.array_equal(x, f) and np.array_equal(df, dx)

    def test_batched_equals_per_sample(self):
        f, ws, bs, _ = cross_case(4, seed=1)
        x, _ = km.cross_tower(f, np.concatenate(ws, axis=1), np.concatenate(bs, axis=1))
        layers = [(w.ravel(), b.ravel()) for w, b in zip(ws, bs)]
        for i, row in enumerate(f):
            assert close(x[i], cross_forward(row, layers))

    def test_model_cross_slots_match_finite_differences(self):
        world, ckpt, split, meta, cfg = small_setup(n_cross=3)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        model = km.KdcnModel.build(cfg, feat, RngStream(30))
        rng = RngStream(31)
        model.store.value("cross_b")[...] = rng.uniform(-0.5, 0.5, (model.f_width, cfg.n_cross))
        batch = feat.prepare(split.train[:10]).batch(np.arange(10))
        model.store.zero_grads()
        model.loss_and_grads(batch)
        # the cross slots act after f, past every ReLU and max-pool kink
        for name in model.store.names():
            if name.startswith("cross_"):
                err = finite_diff_check(lambda: ranker_loss(model, batch), model.store, name)
                assert err < 1e-6, (name, err)


def dialogue_model(heads, finetune, n, **cfg_overrides):
    """A model with large random attention weights and a batch of its first n samples."""
    world, ckpt, split, meta, cfg = small_setup(
        attention_heads=heads, finetune_embeddings=finetune, **cfg_overrides
    )
    feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
    feat.fit_stats(split.train)
    model = km.KdcnModel.build(cfg, feat, RngStream(40))
    rng = RngStream(41)
    w = model.store.value("attn_qkv")
    w[...] = rng.uniform(-2.0, 2.0, w.shape)
    return model, feat.prepare(split.train[:n]).batch(np.arange(n))


def with_keywords(batch, rows):
    """The batch with row i's keywords replaced by rows[i] = (query ids, title ids)."""
    ids = [query + title for query, title in rows]
    return dataclasses.replace(
        batch,
        kw_ptr=np.cumsum([0] + [len(r) for r in ids]),
        kw_ids=np.array([i for r in ids for i in r], dtype=np.int64),
        n_query=np.array([len(query) for query, _ in rows], dtype=np.int64),
    )


def dialogue_case(heads, finetune, n=12, use_user_state=False):
    """A model (without the user-state block unless asked) with large random
    attention weights, and a batch whose first rows are edge cases.

    Row 0 has no keyword at all, row 1 query keywords only, row 2 title
    keywords only and row 3 exactly one (title) keyword; keyword id 5
    repeats across rows.
    """
    model, batch = dialogue_model(heads, finetune, n, use_user_state=use_user_state)
    rows = [([], []), ([5, 7], []), ([], [5, 7]), ([], [5])] + keyword_lists(batch)[4:]
    assert max(len(query) for query, _ in rows[4:]) > 1 and max(len(title) for _, title in rows[4:]) > 1
    return model, with_keywords(batch, rows)


# (query, title) real keyword counts per row of bucket_case: every total
# 0..16, the total 7 four times and every other total once
BUCKET_ROWS = [
    (0, 0), (1, 0), (0, 2), (2, 1), (0, 4), (5, 0), (3, 3), (4, 3), (8, 0), (1, 8),
    (5, 5), (3, 8), (8, 4), (6, 7), (7, 7), (8, 7), (8, 8), (7, 0), (0, 7), (2, 5),
]


def bucket_case(heads, finetune):
    """A dialogue_model (without the user-state block) with 8 query and 8 title
    keywords at most, and a batch with BUCKET_ROWS' (query, title) keyword
    counts in shuffled row order.

    The keyword ids are drawn from six entities, so they repeat within and
    across rows.
    """
    model, batch = dialogue_model(
        heads, finetune, len(BUCKET_ROWS), use_user_state=False,
        max_query_keywords=8, max_title_keywords=8,
    )
    rng = RngStream(43)
    rows = [None] * len(BUCKET_ROWS)
    for row, (n_query, n_title) in zip(rng.permutation(len(BUCKET_ROWS)), BUCKET_ROWS):
        rows[row] = (rng.integers(0, 6, n_query).tolist(), rng.integers(0, 6, n_title).tolist())
    return model, with_keywords(batch, rows)


def assert_matches_per_head_reference(model, batch):
    """The dialogue block output, the attention gradients and (when fine-tuned)
    the entity-table gradient equal the per-head oracle's within 1e-12.

    The oracle runs over padded_keywords' view of the batch, with the query
    in the first max_query_keywords slots. Returns the (n, 2 * dim) block
    output.
    """
    cfg = model.cfg
    heads, split = cfg.attention_heads, cfg.max_query_keywords
    ids, mask = padded_keywords(batch, split, split + cfg.max_title_keywords)
    table = model.entity_table()
    x = table[ids] * mask[:, :, None]
    wq, wk, wv = np.split(model.store.value("attn_qkv"), 3)

    _, cache = model.forward(batch)
    out = cache["f"][:, -model.d_dim :]
    slots, ref_cache = attention_heads(x, mask, wq, wk, wv, heads)
    assert close(out, group_means(slots, mask, split))

    rng = RngStream(42)
    df = rng.uniform(-1.0, 1.0, cache["f"].shape)
    model.store.zero_grads()
    model._assemble_backward(batch, cache, df)
    dout = group_means_backward(df[:, -model.d_dim :], mask, split)
    dwq, dwk, dwv, dx = attention_heads_backward(dout, mask, ref_cache, wq, wk, wv)
    assert close(model.store.grad("attn_qkv"), np.concatenate([dwq, dwk, dwv]))
    if model.cfg.finetune_embeddings:
        dtable = np.zeros_like(table)
        np.add.at(dtable, ids, dx)
        assert close(model.store.grad("entity_table"), dtable)
    for name in model.store.names():
        assert np.isfinite(model.store.grad(name)).all(), name
    return out


class TestDialogueAttention:
    @pytest.mark.parametrize("finetune", [False, True])
    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_matches_per_head_reference(self, heads, finetune):
        model, batch = dialogue_case(heads, finetune)
        assert model.dim == 8 and model.d_dim == 16
        half, table = model.dim, model.entity_table()
        out = assert_matches_per_head_reference(model, batch)
        assert not out[0].any() and not out[1, half:].any() and not out[2:4, :half].any()
        assert close(out[3, half:], np.split(model.store.value("attn_qkv"), 3)[2] @ table[5])

    @pytest.mark.parametrize("finetune", [False, True])
    @pytest.mark.parametrize("heads", [1, 4])
    def test_every_keyword_count_matches_per_head_reference(self, heads, finetune):
        model, batch = bucket_case(heads, finetune)
        n_query, n_title = batch.n_query, np.diff(batch.kw_ptr) - batch.n_query
        lengths, rows = np.unique(n_query + n_title, return_counts=True)
        assert lengths.tolist() == list(range(17)) and rows.max() == 4 and rows.min() == 1
        out = assert_matches_per_head_reference(model, batch)
        # no keyword, or no keyword in a group: exact zeros, not small values
        assert not out[n_query + n_title == 0].any()
        assert not out[n_query == 0, : model.dim].any() and not out[n_title == 0, model.dim :].any()
        assert (out[n_query > 0, : model.dim] != 0).all() and (out[n_title > 0, model.dim :] != 0).all()

    @pytest.mark.parametrize("finetune", [False, True])
    def test_all_padding_batch_gives_zeros(self, finetune):
        model, batch = dialogue_case(2, finetune)
        batch = with_keywords(batch, [([], [])] * batch.n)
        _, cache = model.forward(batch)
        assert not cache["f"][:, -model.d_dim :].any()
        model.store.zero_grads()
        model._assemble_backward(batch, cache, np.ones_like(cache["f"]))
        assert not model.store.grad("attn_qkv").any()
        if finetune:
            assert not model.store.grad("entity_table").any()

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_real_keyword_projection_equals_padded_gather(self, heads):
        model, batch = dialogue_case(heads, False)
        _, cache = model.forward(batch)
        ids, inverse, x_u, proj_u = cache["attn"][:4]
        # each distinct keyword once, ascending
        assert np.array_equal(ids, np.unique(batch.kw_ids))
        assert np.array_equal(x_u, model.entity_table()[ids])
        # inverse lists the keywords with rows taken in order of keyword count
        order = np.argsort(np.diff(batch.kw_ptr), kind="stable")
        slots = ragged_rows(batch.kw_ptr, order)[1]
        assert np.array_equal(ids[inverse], batch.kw_ids[slots])
        q = model.cfg.max_query_keywords
        padded_ids, mask = padded_keywords(batch, q, q + model.cfg.max_title_keywords)
        # the real slots of the padded view, row-major, list the keywords in kw_ids' order
        padded_slots = np.flatnonzero(mask)[slots]
        padded = model.entity_table()[padded_ids] * mask[:, :, None]
        assert np.array_equal(x_u[inverse], padded.reshape(-1, model.dim)[padded_slots])
        assert proj_u.shape == (len(ids), 3, heads, model.dim // heads)
        for i, w in enumerate(np.split(model.store.value("attn_qkv"), 3)):
            ref = (padded @ w.T).reshape(-1, heads, model.dim // heads)
            assert close(proj_u[inverse, i], ref[padded_slots])

    @pytest.mark.parametrize("finetune", [False, True])
    def test_edge_rows_match_finite_differences(self, finetune):
        def build():
            return dialogue_case(2, finetune, use_user_state=True)[0]

        errs = gradient_errors(build, dialogue_case(2, finetune)[1], range(430, 433))
        assert max(errs.values()) < 1e-4, errs
        assert ("entity_table" in errs) == finetune

    @pytest.mark.parametrize("finetune", [False, True])
    def test_every_keyword_count_matches_finite_differences(self, finetune):
        errs = gradient_errors(
            lambda: bucket_case(2, finetune)[0], bucket_case(2, finetune)[1], range(434, 437)
        )
        assert max(errs.values()) < 1e-4, errs
        assert ("entity_table" in errs) == finetune

    def test_ctr_train_width(self):
        # the ctr-train shape: dim 64, default TrainConfig, 4 dense statistics
        world, ckpt, split, meta, _ = small_setup()
        rng = RngStream(44)
        wide = pt.PretrainCheckpoint(
            rng.uniform(-0.5, 0.5, (len(ckpt.entity_table), 64)),
            rng.uniform(-0.5, 0.5, ckpt.relation_table.shape[:1] + (64,)),
        )
        feat = km.Featurizer(wide, world.tset.entities, meta, km.TrainConfig())
        feat.fit_stats(split.train)
        model = km.KdcnModel(km.TrainConfig(), feat)
        assert feat.n_dense == 4 and model.d_dim == 128
        assert model.f_width == 164


class TestItemMeta:
    def test_merges_categories_in_listing_order(self):
        rec = {"type": "item_listing", "item": "i", "category": "c2", "seller": "s", "title": "t"}
        meta = km.item_meta_from_events([rec, {**rec, "category": "c1"}, {**rec, "title": "u"}])
        assert meta == {"i": km.ItemMeta("i", "t", ["c2", "c1"], [])}

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"type": "item_listing", "category": "c"}, "missing field(s) ['item', 'seller']"),
            ({"type": "bogus"}, "unknown event type 'bogus'"),
            ({"item": "i"}, "missing 'type' field"),
            ([], "missing 'type' field"),
        ],
    )
    def test_runs_the_event_check(self, bad, message):
        good = {"type": "user_profile", "user": "u", "tags": []}
        with pytest.raises(IngestionError, match=re.escape(f"record 2: {message}")):
            km.item_meta_from_events([good, bad])


class TestScatterRows:
    def test_matches_add_at(self):
        rng = RngStream(45)
        ids = np.array([3, 0, 3, 7, 3, 0, 9])
        rows = rng.uniform(-1.0, 1.0, (len(ids), 5))
        expected = np.zeros((10, 5))
        np.add.at(expected, ids, rows)
        assert close(km.scatter_rows(ids, rows, 10), expected)
        assert km.scatter_rows(ids[:0], rows[:0], 4).shape == (4, 5)

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_out_of_range_id_raises(self, bad):
        with pytest.raises(IndexError):
            km.scatter_rows(np.array([3, bad, 0]), np.ones((3, 2)), 10)

    def test_cat_table_gradient_matches_add_at(self):
        world, ckpt, split, meta, cfg = small_setup(n_cat_slots=2)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        model = km.KdcnModel.build(cfg, feat, RngStream(46))
        batch = feat.prepare(split.train[:10]).batch(np.arange(10))
        batch.cat_idx[:, 0] = [0, 1, 0, 0, 2, 1, 0, 2, 2, 0]
        batch.cat_idx[::3, 1] = -1
        batch.cat_idx[1::3, 1] = 0
        _, cache = model.forward(batch)
        df = RngStream(47).uniform(-1.0, 1.0, cache["f"].shape)
        model.store.zero_grads()
        model._assemble_backward(batch, cache, df)
        dcat = df[:, : 2 * cfg.cat_dim].reshape(10, 2, cfg.cat_dim) * (batch.cat_idx >= 0)[:, :, None]
        expected = np.zeros_like(model.store.value("cat_table"))
        np.add.at(expected, np.maximum(batch.cat_idx, 0), dcat)
        assert close(model.store.grad("cat_table"), expected)


class TestDeepForward:
    def test_zero_params_zero_output(self):
        out = deep_forward(np.ones(4), [(np.zeros((3, 4)), np.zeros(3))])
        assert np.array_equal(out, np.zeros(3))

    def test_positive_region_is_linear(self):
        w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        out = deep_forward([2.0, 3.0, 9.0], [(w, np.zeros(2))])
        assert np.array_equal(out, [2.0, 3.0])

    def test_against_loop_oracle(self):
        rng = RngStream(2)
        x = rng.uniform(-1, 1, 5)
        layers = [
            (rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, 4)),
            (rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 3)),
        ]
        out = deep_forward(x, layers)
        cur = x
        for w, b in layers:
            nxt = np.zeros(w.shape[0])
            for i in range(w.shape[0]):
                acc = b[i]
                for j in range(w.shape[1]):
                    acc += w[i, j] * cur[j]
                nxt[i] = max(acc, 0.0)
            cur = nxt
        assert np.abs(out - cur).max() < 1e-12

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            deep_forward(np.zeros(3), [(np.zeros((2, 4)), np.zeros(2))])


class TestLogitGrad:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_confidently_wrong_row_keeps_its_gradient(self, dtype):
        logit = np.array([20.0, -0.5, 30.0, -40.0], dtype)
        y = np.array([0, 1, 1, 0], dtype)
        p = sigmoid(logit)
        d = km.logit_grad(logit, p, y)
        assert d.dtype == dtype
        # p rounds to 1.0 at logit 20 in float32, inside log((1 - 1e-12) / 1e-12)
        assert d[0] == pytest.approx(1 / 4, rel=1e-8)
        assert d[1] == (p[1] - 1) / 4
        assert d[2] == d[3] == 0.0

    def test_same_decision_as_the_probability_clamp_in_float64(self):
        logit = np.linspace(-40.0, 40.0, 80_001)
        p = sigmoid(logit)
        clamped = ~((p > km._CLAMP) & (p < 1.0 - km._CLAMP))
        assert clamped.any() and not clamped.all()
        assert np.array_equal(km.logit_grad(logit, p, np.zeros_like(p)) == 0.0, clamped)


class TestLogLoss:
    def test_half_probability(self):
        assert km.log_loss([0.5], [1]) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_perfect_prediction(self):
        assert km.log_loss([1.0 - 1e-13], [1]) < 1e-10

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            km.log_loss([0.5, 0.5], [1])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.001, 0.999), st.integers(0, 1)), min_size=1, max_size=8))
    def test_label_flip_symmetry(self, pairs):
        p = [x for x, _ in pairs]
        y = [l for _, l in pairs]
        flipped = km.log_loss([1.0 - x for x in p], [1 - l for l in y])
        assert km.log_loss(p, y) == pytest.approx(flipped, rel=1e-9)


class TestPredict:
    def build(self, **overrides):
        world, ckpt, split, meta, cfg = small_setup(**overrides)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        model = km.KdcnModel.build(cfg, feat, RngStream(3))
        return model, feat, split

    def test_zero_logits_gives_half(self):
        model, _, _ = self.build()
        model.store.value("logits_w")[...] = 0.0
        f = RngStream(4).uniform(-1, 1, model.f_width)
        assert predict(f, model) == 0.5

    def test_negated_logits_flip_probability(self):
        model, _, _ = self.build()
        f = RngStream(5).uniform(-1, 1, model.f_width)
        p = predict(f, model)
        model.store.value("logits_w")[...] *= -1.0
        assert predict(f, model) == pytest.approx(1.0 - p, rel=1e-9)

    def test_strictly_inside_unit_interval(self):
        model, _, _ = self.build()
        f = RngStream(6).uniform(-1, 1, model.f_width)
        assert 0.0 < predict(f, model) < 1.0

    def test_matches_composed_oracle(self):
        model, _, _ = self.build()
        cfg = model.cfg
        f = RngStream(7).uniform(-1, 1, model.f_width)
        w, b = model.store.value("cross_w"), model.store.value("cross_b")
        assert w.shape == b.shape == (model.f_width, cfg.n_cross)
        x_c = cross_forward(f, list(zip(w.T, b.T)))
        x_d = deep_forward(
            f,
            [
                (model.store.value(f"deep_w{i}"), model.store.value(f"deep_b{i}").ravel())
                for i in range(cfg.deep_layers)
            ],
        )
        z = np.concatenate([x_c, x_d])
        expected = float(sigmoid(z @ model.store.value("logits_w").ravel()))
        assert predict(f, model) == pytest.approx(expected, abs=1e-12)

    def test_batched_equals_per_sample(self):
        model, feat, split = self.build()
        ds = feat.prepare(split.train[:8])
        p_batch = model.predict_batch(ds.batch(np.arange(8)))
        from oracles import BehaviorLog, DialogueInput, FeatureBundle
        from oracles import assemble_features, behavior_matrix, dialogue_means, user_state

        conv, attn = conv_params(model), attention_params(model)
        for i, s in enumerate(split.train[:8]):
            blog = BehaviorLog([[feat.item_id(n) for n in b] for b in s.behaviors])
            u = user_state(behavior_matrix(blog, feat.table), conv)
            d = dialogue_means(
                DialogueInput(
                    feat.query_keyword_ids(s.query), title_keyword_ids(feat, s.candidate_item)
                ),
                feat.table,
                attn,
                model.cfg.max_query_keywords,
                model.cfg.max_title_keywords,
            )
            dense = (np.array(s.dense) - feat.dense_mean) / feat.dense_std
            bundle = FeatureBundle([feat.category_index[c] for c in s.categories], dense, u, d)
            f = assemble_features(bundle, model.store.value("cat_table"), model.cfg.n_cat_slots)
            assert predict(f, model) == pytest.approx(p_batch[i], abs=1e-10)


def edge_samples(feat, samples):
    """Copies of samples, the first few turned into featurization edge cases."""
    out = [
        dataclasses.replace(s, behaviors=[list(b) for b in s.behaviors], categories=list(s.categories))
        for s in samples
    ]
    out[0].behaviors = [[] for _ in out[0].behaviors]
    out[1].behaviors = [b if kind % 2 else [] for kind, b in enumerate(out[1].behaviors)]
    out[2].query = "no known keyword here"
    out[3].categories = sorted(feat.category_index)
    out[4].categories = []
    out[5].behaviors = [b[:1] * 3 for b in out[5].behaviors]
    return out


def pooled_means(feat, batch, cache=None) -> np.ndarray:
    """A batch's (contexts, k, d) per-kind behavior means, pooled as the model's forward pools them."""
    bmat = km.KdcnModel(feat.cfg, feat)._behavior_matrices(batch, feat.table, {} if cache is None else cache)
    return bmat[:, : feat.n_behavior_kinds]


@st.composite
def ragged_case(draw):
    """Lists of ints (empty ones too) and a selection of their rows, repeats and any order allowed."""
    lists = draw(st.lists(st.lists(st.integers(0, 99), max_size=5), max_size=8))
    rows = draw(st.lists(st.integers(0, len(lists) - 1), max_size=12)) if lists else []
    return lists, rows


@st.composite
def keyword_case(draw):
    """Query and title keyword lists (empty ones too), and each row's query and title."""
    q_lists = draw(st.lists(st.lists(st.integers(0, 99), max_size=5), min_size=1, max_size=6))
    t_lists = draw(st.lists(st.lists(st.integers(0, 99), max_size=5), min_size=1, max_size=8))
    n = draw(st.integers(0, 12))
    queries = draw(st.lists(st.integers(0, len(q_lists) - 1), min_size=n, max_size=n))
    rows = draw(st.lists(st.integers(0, len(t_lists) - 1), min_size=n, max_size=n))
    return q_lists, t_lists, queries, rows


class TestRagged:
    """csr_lists (with and without a lookup) and ragged_rows equal per-row Python slicing."""

    @settings(max_examples=200, deadline=None)
    @given(ragged_case())
    @example(([[], [3, 1], [], [7]], [3, 1, 1, 0, 2]))
    @example(([[4], []], []))
    @example(([], []))
    def test_match_per_row_slicing(self, case):
        lists, rows = case
        indptr, ids = csr_lists(lists)
        assert indptr.dtype == ids.dtype == np.int64
        assert indptr.tolist() == [sum(map(len, lists[:i])) for i in range(len(lists) + 1)]
        assert [ids[indptr[i] : indptr[i + 1]].tolist() for i in range(len(lists))] == lists
        names = [[f"e{i}" for i in row] for row in lists]
        by_lookup = csr_lists(names, {f"e{i}": i for i in range(100)})
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(by_lookup, (indptr, ids)))
        out, positions = ragged_rows(indptr, rows)
        picked = [lists[r] for r in rows]
        assert out.tolist() == [sum(map(len, picked[:j])) for j in range(len(rows) + 1)]
        assert [ids[positions[out[j] : out[j + 1]]].tolist() for j in range(len(rows))] == picked

    @settings(max_examples=200, deadline=None)
    @given(keyword_case())
    @example(([[], [5]], [[], [3, 1], []], [1, 0, 1], [2, 1, 1]))
    @example(([[]], [[]], [], []))
    def test_keyword_rows_join_query_and_title_per_row(self, case):
        q_lists, t_lists, queries, rows = case
        feat = km.Featurizer.__new__(km.Featurizer)
        feat.title_ptr, feat.title_ids = csr_lists(t_lists)
        kw_ptr, kw_ids = feat.keyword_rows(
            *csr_lists(q_lists), np.array(queries, dtype=np.int64), np.array(rows, dtype=np.int64)
        )
        assert kw_ptr.dtype == kw_ids.dtype == np.int64 and kw_ptr[-1] == len(kw_ids)
        joined = [q_lists[q] + t_lists[r] for q, r in zip(queries, rows)]
        assert [kw_ids[kw_ptr[i] : kw_ptr[i + 1]].tolist() for i in range(len(rows))] == joined


class TestDataset:
    def build(self, **overrides):
        world, ckpt, split, meta, cfg = small_setup(**overrides)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        return feat, edge_samples(feat, split.train[:12])

    @pytest.mark.parametrize("n_cat_slots", [1, 2])
    def test_matches_per_sample_oracle(self, n_cat_slots):
        feat, samples = self.build(n_cat_slots=n_cat_slots)
        assert len(samples[3].categories) > n_cat_slots
        ds = feat.prepare(samples)
        k = feat.n_behavior_kinds
        means = pooled_means(feat, ds.batch(np.arange(ds.n)))
        keywords = keyword_lists(ds)
        assert ds.kw_ptr[-1] == len(ds.kw_ids) and ds.beh_ptr[-1] == len(ds.beh_ids)
        assert len(ds.beh_ptr) == ds.n * k + 1
        for i, s in enumerate(samples):
            bmat, query, title, cats, dense = sample_features(feat, s)
            assert np.abs(means[i].T - bmat).max() <= 1e-15
            for kind, names in enumerate(s.behaviors):
                lo, hi = ds.beh_ptr[i * k + kind], ds.beh_ptr[i * k + kind + 1]
                assert ds.beh_ids[lo:hi].tolist() == [feat.item_id(n) for n in names]
            assert keywords[i] == (query, title)
            assert ds.cat_idx[i].tolist() == cats + [-1] * (n_cat_slots - len(cats))
            assert np.abs(ds.dense[i] - dense).max() <= 1e-15
        assert not means[0].any() and feat.query_keyword_ids(samples[2].query) == []
        idx = np.array([7, 0, 5, 5, 2])
        batch = ds.batch(idx)
        # a repeated row reads its context once; contexts keep the order of first use
        assert batch.context.tolist() == [0, 1, 2, 2, 3]
        assert np.array_equal(pooled_means(feat, batch)[batch.context], means[idx])
        assert batch.beh_ptr.dtype == batch.beh_ids.dtype == np.int64
        assert keyword_lists(batch) == [keywords[i] for i in idx]
        assert batch.kw_ptr[-1] == len(batch.kw_ids)

    def test_no_query_keyword_slots(self):
        feat, samples = self.build(max_query_keywords=0)
        ds = feat.prepare(samples)
        assert not ds.n_query.any()
        for (query, title), s in zip(keyword_lists(ds), samples):
            assert query == [] and title == title_keyword_ids(feat, s.candidate_item)

    def test_empty_sample_list(self):
        feat, _ = self.build()
        ds = feat.prepare([])
        assert ds.n == 0 and ds.beh_ptr.tolist() == [0] and len(ds.beh_ids) == 0
        assert ds.kw_ptr.tolist() == [0] and len(ds.kw_ids) == len(ds.n_query) == 0
        assert ds.dense.shape == (0, feat.n_dense)

    def test_schema_errors_name_the_sample(self):
        feat, samples = self.build()
        short = list(samples)
        short[5] = dataclasses.replace(samples[5], dense=samples[5].dense[:-1])
        with pytest.raises(SchemaError, match="sample 5: dense"):
            feat.prepare(short)
        kinds = list(samples)
        kinds[6] = dataclasses.replace(samples[6], behaviors=samples[6].behaviors[:-1])
        with pytest.raises(SchemaError, match="sample 6: .* behavior kinds"):
            feat.prepare(kinds)

    def test_unknown_behavior_item_is_key_error(self):
        feat, samples = self.build()
        samples[8].behaviors[1] = ["no-such-item"]
        with pytest.raises(KeyError, match="no-such-item"):
            feat.prepare(samples)

    def test_finetune_dtable_equals_scatter_add(self):
        feat, samples = self.build()
        idx = np.array([5, 0, 3, 3, 9, 1])
        batch = feat.prepare(samples).batch(idx)
        contexts = list(dict.fromkeys(idx.tolist()))  # in order of first use
        dmean = RngStream(21).uniform(-1, 1, (len(contexts) * feat.n_behavior_kinds, feat.dim))
        src, owner, counts = behavior_scatter(feat, [samples[i] for i in contexts])
        expected = scatter_dtable(src, owner, counts, dmean, len(feat.table))
        cache = {}
        pooled_means(feat, batch, cache)
        assert np.abs(cache["pool"].T @ dmean - expected).max() <= 1e-15

    @pytest.mark.parametrize("finetune", [False, True])
    def test_entity_id_past_the_table_is_dimension_error(self, finetune):
        # without the dialogue block only behavior pooling reads the table,
        # through an operator that scipy would not bounds-check
        world, ckpt, split, meta, cfg = small_setup(use_dialogue=False, finetune_embeddings=finetune)
        top_item = max(e.id for e in world.tset.entities if e.kind == "item")
        short = dataclasses.replace(ckpt, entity_table=ckpt.entity_table[:top_item])
        with pytest.raises(DimensionError, match=f"outside the entity table of {top_item} rows"):
            km.Featurizer(short, world.tset.entities, meta, cfg)
        with pytest.raises(DimensionError):
            km.fit(split.train, split.valid, short, cfg, RngStream(22), world.tset.entities, meta)


@functools.cache
def pooling_setup():
    """A fitted featurizer over 10 items and a sample whose behaviors the property replaces."""
    world, ckpt, split, meta, cfg = small_setup()
    feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
    feat.fit_stats(split.train)
    return feat, world.items, split.train[0]


@st.composite
def pooling_case(draw):
    """Behaviors of 4 kinds per sample, as indices into 10 items (empty kinds
    and repeated items allowed), and batch rows (any order, repeats, none)."""
    n = draw(st.integers(1, 6))
    kinds = st.lists(st.lists(st.integers(0, 9), max_size=5), min_size=4, max_size=4)
    behaviors = draw(st.lists(kinds, min_size=n, max_size=n))
    return behaviors, draw(st.lists(st.integers(0, n - 1), max_size=10))


class TestBehaviorPooling:
    """The ragged behavior rows of a Dataset batch pool to the per-kind means,
    and their operator's transpose scatters as np.add.at does."""

    @settings(max_examples=100, deadline=None)
    @given(pooling_case())
    @example(([[[], [], [], []]], []))
    @example(([[[3, 3, 1], [], [9], [0, 0]], [[], [2], [], []]], [1, 0, 1, 1]))
    def test_means_and_gradient_match_per_row_oracle(self, case):
        behaviors, idx = case
        feat, items, base = pooling_setup()
        samples = [dataclasses.replace(base, behaviors=[[items[j] for j in b] for b in per_kind])
                   for per_kind in behaviors]
        batch = feat.prepare(samples).batch(np.array(idx, dtype=np.int64))
        cache = {}
        means = pooled_means(feat, batch, cache)
        contexts = list(dict.fromkeys(idx))  # each row's own context, read once, in order of first use
        assert [contexts[c] for c in batch.context] == idx
        k, table = feat.n_behavior_kinds, feat.table
        ids = [[feat.item_id(items[j]) for j in b] for i in contexts for b in behaviors[i]]
        tol = 16 * np.finfo(table.dtype).eps * np.abs(table).max()
        assert means.shape == (len(contexts), k, feat.dim)
        for r, row in enumerate(ids):
            expected = table[row].mean(axis=0) if row else np.zeros(feat.dim)
            assert np.abs(means[r // k, r % k] - expected).max() <= tol
        # each |dmean / count| <= 1, so a sum of m of them is off by at most about m ulps of m
        dmean = RngStream(len(ids)).uniform(-1, 1, (len(ids), feat.dim))
        dtable = np.zeros_like(table)
        for r, row in enumerate(ids):
            np.add.at(dtable, row, dmean[r] / max(len(row), 1))
        m = max(sum(map(len, ids)), 1)
        assert np.abs(cache["pool"].T @ dmean - dtable).max() <= 4 * m * m * np.finfo(table.dtype).eps


def gradient_errors(build, batch, jitter_seeds) -> dict[str, float]:
    """finite_diff_check of every slot at jittered points, until one passes.

    Evaluate at a generic point: zero-initialized biases sit exactly on ReLU
    kinks, and any point with a pre-activation inside the probe window makes
    central differences undefined. Each try jitters a fresh model from
    build(); returns the errors of the first passing try, or of the last.
    """
    for seed in jitter_seeds:
        model = build()
        jitter = RngStream(seed)
        for name in model.store.names():
            model.store.value(name)[...] += jitter.uniform(
                -0.05, 0.05, model.store.value(name).shape
            )
        model.store.zero_grads()
        model.loss_and_grads(batch)
        errs = {
            name: finite_diff_check(lambda: ranker_loss(model, batch), model.store, name)
            for name in model.store.names()
        }
        if max(errs.values()) < 1e-4:
            break
    return errs


class TestGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_slots_match_finite_differences(self, seed):
        world, ckpt, split, meta, cfg = small_setup(
            seed=seed, finetune_embeddings=(seed % 2 == 0)
        )
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        batch = feat.prepare(split.train[:10]).batch(np.arange(10))
        errs = gradient_errors(
            lambda: km.KdcnModel.build(cfg, feat, RngStream(100 + seed)),
            batch,
            [200 + 7 * seed + attempt for attempt in range(3)],
        )
        assert max(errs.values()) < 1e-4, f"seed {seed}: gradient mismatch at 3 generic points: {errs}"


# the behavior context of each of shared_context_case's 10 rows: 3 contexts,
# shared by 4, 3 and 3 rows in mixed order
SHARED_CONTEXT = np.array([0, 2, 0, 1, 1, 0, 2, 1, 0, 2])


def shared_context_case(finetune, **overrides):
    """A build function, a batch of 10 rows over 3 shared behavior contexts,
    and the same batch with each row's context repeated as its own.

    The rows take their keywords, categories and dense statistics from 10
    training samples and their behaviors from 3 others.
    """
    world, ckpt, split, meta, cfg = small_setup(seed=3, finetune_embeddings=finetune, **overrides)
    feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
    feat.fit_stats(split.train)
    rows = feat.prepare(split.train[:10]).batch(np.arange(10))
    contexts = feat.prepare(split.train[10:13]).batch(np.arange(3))
    shared = dataclasses.replace(
        rows, beh_ptr=contexts.beh_ptr, beh_ids=contexts.beh_ids, context=SHARED_CONTEXT
    )
    k = feat.n_behavior_kinds
    beh_ptr, positions = ragged_rows(contexts.beh_ptr, (SHARED_CONTEXT[:, None] * k + np.arange(k)).ravel())
    per_row = dataclasses.replace(
        rows, beh_ptr=beh_ptr, beh_ids=contexts.beh_ids[positions], context=np.arange(10)
    )
    return (lambda: km.KdcnModel.build(cfg, feat, RngStream(120))), shared, per_row


class TestSharedContext:
    """Rows that share a behavior context share its user state and sum their gradients into it."""

    @pytest.mark.parametrize("finetune", [False, True])
    def test_slots_match_finite_differences(self, finetune):
        build, batch, _ = shared_context_case(finetune)
        assert len(batch.beh_ptr) - 1 < batch.n * build().n_behavior_kinds
        errs = gradient_errors(build, batch, [300, 301, 302])
        checked = [name for name in errs if name.startswith(("conv_taps", "conv_b"))]
        assert len(checked) == 2 * len(build().cfg.conv_widths)
        assert ("entity_table" in errs) == finetune
        assert max(errs.values()) < 1e-4, f"gradient mismatch at 3 generic points: {errs}"

    @pytest.mark.parametrize("finetune", [False, True])
    def test_equals_one_context_per_row(self, finetune):
        assert_shared_equals_per_row(finetune)


def assert_shared_equals_per_row(finetune, **overrides):
    build, shared, per_row = shared_context_case(finetune, **overrides)
    grads = []
    for batch in (shared, per_row):
        model = build()
        _, p = model.loss_and_grads(batch)
        grads.append((p, {name: model.store.grad(name).copy() for name in model.store.names()}))
    (p_shared, g_shared), (p_rows, g_rows) = grads
    assert np.array_equal(p_shared, p_rows)
    assert g_shared.keys() == g_rows.keys()
    for name in g_shared:
        assert np.abs(g_shared[name] - g_rows[name]).max() <= 1e-15, name


class TestConvWidths:
    """The user-state block at filter widths below, at and above the 4 behavior kinds.

    A width above the kind count pads the behavior rows with zeros (k_eff).
    """

    WIDTHS = [(1,), (3,), (2, 4), (1, 5)]

    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_user_state_matches_oracle(self, widths):
        from oracles import BehaviorLog, behavior_matrix, user_state

        world, ckpt, split, meta, cfg = small_setup(conv_widths=widths)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        assert feat.n_behavior_kinds == 4
        model = km.KdcnModel.build(cfg, feat, RngStream(3))
        # nonzero biases, so that a misplaced bias shows
        for width in widths:
            bias = model.store.value(f"conv_b{width}")
            bias[...] = RngStream(4).uniform(-0.05, 0.05, bias.shape)
        samples = edge_samples(feat, split.train[:12])
        batch = feat.prepare(samples).batch(np.arange(len(samples)))
        u = model._user_state_forward(model._behavior_matrices(batch, feat.table, {}), {})
        assert u.shape == (len(samples), len(widths) * cfg.conv_filters)
        assert (u > 0).reshape(len(samples), len(widths), -1).any(axis=(0, 2)).all()
        conv = conv_params(model)
        for i, s in enumerate(samples):
            blog = BehaviorLog([[feat.item_id(n) for n in b] for b in s.behaviors])
            assert np.abs(u[i] - user_state(behavior_matrix(blog, feat.table), conv)).max() <= 1e-12

    @pytest.mark.parametrize("finetune", [False, True])
    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_slots_match_finite_differences(self, widths, finetune):
        world, ckpt, split, meta, cfg = small_setup(
            seed=5, conv_widths=widths, finetune_embeddings=finetune
        )
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        batch = feat.prepare(split.train[:10]).batch(np.arange(10))
        build = lambda: km.KdcnModel.build(cfg, feat, RngStream(131))
        model = build()
        # every width has a live (positive) pooled response, so its slots get a gradient
        u = model._user_state_forward(model._behavior_matrices(batch, feat.table, {}), {})
        assert (u > 0).reshape(batch.n, len(widths), -1).any(axis=(0, 2)).all()
        errs = gradient_errors(build, batch, [310, 311, 312])
        assert sorted(n for n in errs if n.startswith("conv_")) == sorted(
            f"conv_{kind}{w}" for w in widths for kind in ("b", "taps")
        )
        assert ("entity_table" in errs) == finetune
        assert max(errs.values()) < 1e-4, f"gradient mismatch at 3 generic points: {errs}"

    @pytest.mark.parametrize("finetune", [False, True])
    @pytest.mark.parametrize("widths", WIDTHS, ids=str)
    def test_shared_context_equals_one_context_per_row(self, widths, finetune):
        assert_shared_equals_per_row(finetune, conv_widths=widths)


def float_dtypes(obj) -> set:
    """The dtypes of the float arrays anywhere in a nest of dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return {obj.dtype} if obj.dtype.kind == "f" else set()
    if isinstance(obj, dict):
        obj = list(obj.values())
    if not isinstance(obj, (list, tuple)):
        return set()
    return set().union(*map(float_dtypes, obj))


def slot_dtypes(store) -> set:
    return {a.dtype for s in store.slots.values() for a in (s.value, s.grad, s.adam_m, s.adam_v)}


class RejectsFloat64(np.ndarray):
    """A view whose ufuncs fail on a float64 operand, such as `grad += <float64 array>`,
    which numpy would otherwise round to float32 without a word."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        assert not any(getattr(a, "dtype", None) == np.float64 for a in inputs), ufunc.__name__
        plain = lambda arrays: tuple(a.view(np.ndarray) if isinstance(a, RejectsFloat64) else a for a in arrays)
        if out:
            kwargs["out"] = plain(out)
        return getattr(ufunc, method)(*plain(inputs), **kwargs)


class TestDtype:
    @pytest.mark.parametrize("finetune", [False, True])
    def test_fit_trains_in_float32_throughout(self, finetune):
        world, ckpt, split, meta, cfg = small_setup(finetune_embeddings=finetune)
        assert ckpt.entity_table.dtype == np.float64
        result = km.fit(split.train, split.valid, ckpt, cfg, RngStream(20), world.tset.entities, meta)
        model, f32 = result.model, {np.dtype(np.float32)}
        assert model.dtype == result.featurizer.table.dtype == np.float32
        batch = result.featurizer.prepare(split.train[:16]).batch(np.arange(16))
        ints = (batch.kw_ptr, batch.kw_ids, batch.n_query, batch.beh_ptr, batch.beh_ids)
        assert {a.dtype for a in ints} == {np.dtype(np.int64)}
        assert float_dtypes([batch.dense, batch.labels]) == f32
        _, cache = model.forward(batch)
        assert float_dtypes([cache, cache["pool"].data]) == f32
        # the backward adds into the gradients; none of its terms may be float64
        for slot in model.store.slots.values():
            slot.grad = slot.grad.view(RejectsFloat64)
        model.loss_and_grads(batch)
        assert slot_dtypes(model.store) == f32
        assert any(np.any(slot.grad) for slot in model.store.slots.values())

    @pytest.mark.parametrize("finetune", [False, True])
    def test_float64_checkpoint_builds_a_float64_model(self, finetune):
        world, ckpt, split, meta, cfg = small_setup(finetune_embeddings=finetune)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        model = km.KdcnModel.build(cfg, feat, RngStream(21))
        batch = feat.prepare(split.train[:16]).batch(np.arange(16))
        f64 = {np.dtype(np.float64)}
        assert float_dtypes([batch.dense, batch.labels]) == f64
        _, cache = model.forward(batch)
        assert float_dtypes([cache, cache["pool"].data]) == f64
        model.loss_and_grads(batch)
        adam_step(model.store, cfg.lr)
        assert slot_dtypes(model.store) == f64

    def test_fit_on_pretrain_result_equals_fit_on_its_file(self, tmp_path):
        world, ckpt, split, meta, cfg = small_setup(epochs=2)
        pt.export_checkpoint(ckpt, tmp_path / "ckge.bin")
        loaded = pt.load_checkpoint(tmp_path / "ckge.bin")
        assert loaded.entity_table.dtype == loaded.relation_table.dtype == np.float32
        runs = [
            km.fit(split.train, split.valid, c, cfg, RngStream(22), world.tset.entities, meta)
            for c in (ckpt, loaded)
        ]
        assert [h.train_loss for h in runs[0].history] == [h.train_loss for h in runs[1].history]
        for name in runs[0].model.store.names():
            assert np.array_equal(runs[0].model.store.value(name), runs[1].model.store.value(name))


class TestFit:
    def test_zero_epochs_keeps_init(self):
        world, ckpt, split, meta, cfg = small_setup(epochs=0)
        rng = RngStream(8)
        result = km.fit(split.train, split.valid, ckpt, cfg, rng, world.tset.entities, meta)
        # fit trains on the table rounded to float32
        f32 = dataclasses.replace(ckpt, entity_table=ckpt.entity_table.astype(np.float32))
        feat = km.Featurizer(f32, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        fresh = km.KdcnModel.build(cfg, feat, RngStream(8).child("init"))
        for name in fresh.store.names():
            assert np.array_equal(result.model.store.value(name), fresh.store.value(name))
        assert result.history == []

    def test_same_seed_identical_history_and_params(self):
        world, ckpt, split, meta, cfg = small_setup(epochs=2)
        r1 = km.fit(split.train, split.valid, ckpt, cfg, RngStream(9), world.tset.entities, meta)
        r2 = km.fit(split.train, split.valid, ckpt, cfg, RngStream(9), world.tset.entities, meta)
        for h1, h2 in zip(r1.history, r2.history):
            assert h1.train_loss == h2.train_loss
            assert h1.valid_auc == h2.valid_auc or (
                np.isnan(h1.valid_auc) and np.isnan(h2.valid_auc)
            )
        for name in r1.model.store.names():
            assert np.array_equal(r1.model.store.value(name), r2.model.store.value(name))

    def test_loss_decreases(self):
        world, ckpt, split, meta, cfg = small_setup(epochs=4, n_samples=120, lr=3e-3)
        result = km.fit(split.train, split.valid, ckpt, cfg, RngStream(10), world.tset.entities, meta)
        losses = [h.train_loss for h in result.history]
        assert losses[-1] < losses[0]

    def test_ablation_drops_blocks_structurally(self):
        world, ckpt, split, meta, cfg = small_setup(
            use_user_state=False, use_dialogue=False
        )
        result = km.fit(split.train, split.valid, ckpt, cfg, RngStream(11), world.tset.entities, meta)
        names = result.model.store.names()
        assert not any(n.startswith(("conv_", "attn_")) for n in names)
        # identical to a model built with those blocks absent from the start
        again = km.fit(split.train, split.valid, ckpt, cfg, RngStream(11), world.tset.entities, meta)
        ds = result.featurizer.prepare(split.test)
        a = result.model.predict_batch(ds.batch(np.arange(ds.n)))
        b = again.model.predict_batch(again.featurizer.prepare(split.test).batch(np.arange(ds.n)))
        assert np.array_equal(a, b)

    def test_cross_or_deep_required(self):
        with pytest.raises(ValueError):
            km.TrainConfig(use_cross=False, use_deep=False)

    @pytest.mark.parametrize("widths", [(), (-1,), (0,), (2, 0), (2, 2)])
    def test_conv_widths_must_be_one_or_more_positive_widths(self, widths):
        # at the parent: () failed in fit on max() of an empty sequence, (-1,)
        # overflowed, (0,) trained a zero-width filter, and (2, 2) failed in
        # KdcnModel.build on a slot added twice
        with pytest.raises(ConfigError, match=r"TrainConfig\.conv_widths"):
            km.TrainConfig(conv_widths=widths)

    def test_inconsistent_dense_length_is_schema_error(self):
        from kdcn.errors import SchemaError

        world, ckpt, split, meta, cfg = small_setup()
        broken = [s for s in split.train]
        broken[3].dense = broken[3].dense[:-1]
        with pytest.raises(SchemaError):
            km.fit(broken, split.valid, ckpt, cfg, RngStream(16), world.tset.entities, meta)

    def test_wrong_dense_length_in_prepared_samples_names_the_sample(self):
        from kdcn.errors import SchemaError

        world, ckpt, split, meta, cfg = small_setup()
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        broken = [dataclasses.replace(s) for s in split.valid[:4]]
        broken[2].dense = broken[2].dense[:-1]
        with pytest.raises(SchemaError, match="^sample 2: dense vector has 3 values, expected 4$"):
            feat.prepare(broken)

    def test_unknown_category_names_itself(self):
        world, ckpt, split, meta, cfg = small_setup()
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        broken = dataclasses.replace(split.train[0], categories=["nope"])
        with pytest.raises(KeyError, match="unknown category 'nope'"):
            feat.prepare([split.train[1], broken])

    def test_lr_like_config_runs(self):
        world, ckpt, split, meta, cfg = small_setup(n_cross=0, use_deep=False, epochs=1)
        result = km.fit(split.train, split.valid, ckpt, cfg, RngStream(12), world.tset.entities, meta)
        assert result.model.logits_in == result.model.f_width


class TestRankCandidates:
    def build(self):
        world, ckpt, split, meta, cfg = small_setup(epochs=1)
        result = km.fit(split.train, split.valid, ckpt, cfg, RngStream(13), world.tset.entities, meta)
        return world, split, result

    def test_single_candidate(self):
        world, split, result = self.build()
        s = split.train[0]
        ranked = km.rank_candidates(
            s.behaviors, s.query, [s.candidate_item], result.model, result.featurizer
        )
        assert len(ranked) == 1 and ranked[0][0] == s.candidate_item

    def test_duplicate_candidates_tie_break(self):
        world, split, result = self.build()
        s = split.train[0]
        items = sorted(world.items[:2], key=result.featurizer.item_id)
        ranked = km.rank_candidates(
            s.behaviors, s.query, [items[0], items[0]], result.model, result.featurizer
        )
        assert ranked[0][1] == ranked[1][1]
        assert [r[0] for r in ranked] == [items[0], items[0]]

    def test_matches_individual_predictions(self):
        world, split, result = self.build()
        s = split.train[0]
        cands = world.items[:5]
        ranked = km.rank_candidates(s.behaviors, s.query, cands, result.model, result.featurizer)
        scores = dict(ranked)
        for name in cands:
            solo = km.rank_candidates(s.behaviors, s.query, [name], result.model, result.featurizer)
            assert scores[name] == solo[0][1]

    def test_permutation_invariant_order(self):
        world, split, result = self.build()
        s = split.train[0]
        cands = world.items[:6]
        a = km.rank_candidates(s.behaviors, s.query, cands, result.model, result.featurizer)
        b = km.rank_candidates(
            s.behaviors, s.query, list(reversed(cands)), result.model, result.featurizer
        )
        assert a == b

    @pytest.mark.parametrize("n_cands", [1, 7, 50])
    @pytest.mark.parametrize("empty_behaviors", [False, True])
    def test_matches_pseudo_sample_batch(self, n_cands, empty_behaviors):
        world, split, result = self.build()
        feat, s = result.featurizer, split.train[1]
        behaviors = [[] for _ in s.behaviors] if empty_behaviors else s.behaviors
        # a stride of 3 over 10 items: distinct up to 10 candidates, repeated beyond
        cands = [world.items[(3 * j) % len(world.items)] for j in range(n_cands)]
        ranked = km.rank_candidates(behaviors, s.query, cands, result.model, feat)
        ordered = sorted(cands, key=feat.item_id)
        pseudo = [
            Sample("", behaviors, s.query, name, feat.item_meta[name].categories,
                   feat.item_meta[name].dense, 0)
            for name in ordered
        ]
        probs = result.model.predict_batch(feat.prepare(pseudo).batch(np.arange(len(pseudo))))
        # row for row the same batch; a repeated candidate may differ by an
        # ulp between its rows, so the pairs are compared, not a name lookup
        assert sorted(ranked) == sorted(zip(ordered, probs.tolist()))

    def test_no_candidates(self):
        world, split, result = self.build()
        s = split.train[0]
        assert km.rank_candidates(s.behaviors, s.query, [], result.model, result.featurizer) == []

    @pytest.mark.parametrize("n_samples", [0, 5])
    def test_zero_row_batch(self, n_samples):
        world, split, result = self.build()
        ds = result.featurizer.prepare(split.train[:n_samples])
        p = result.model.predict_batch(ds.batch(np.arange(0)))
        assert p.shape == (0,) and p.dtype == result.model.dtype

    def test_unknown_item(self):
        world, split, result = self.build()
        with pytest.raises(KeyError):
            km.rank_candidates([[]] * 4, "kw1", ["no-such-item"], result.model, result.featurizer)

    def test_candidate_cap(self):
        world, split, result = self.build()
        too_many = [world.items[0]] * (result.model.cfg.candidate_cap + 1)
        with pytest.raises(CapacityError):
            km.rank_candidates([[]] * 4, "kw1", too_many, result.model, result.featurizer)


class TestRankContext:
    """rank_candidates scores over one behavior context and the per-item arrays."""

    def test_forward_sees_one_context(self, monkeypatch):
        world, split, result = TestRankCandidates().build()
        s, model = split.train[0], result.model
        seen = []
        forward = km.KdcnModel.forward

        def spy(self, batch):
            seen.append(batch)
            return forward(self, batch)

        monkeypatch.setattr(km.KdcnModel, "forward", spy)
        cands = world.items[:7]
        km.rank_candidates(s.behaviors, s.query, cands, model, result.featurizer)
        assert len(seen) == 1
        batch = seen[0]
        assert batch.n == len(cands)
        assert len(batch.beh_ptr) == model.n_behavior_kinds + 1
        assert batch.beh_ids.tolist() == [result.featurizer.item_id(n) for b in s.behaviors for n in b]
        assert batch.context.shape == (len(cands),) and not batch.context.any()

    def test_batch_of_a_request_scores_rows_as_the_request(self, monkeypatch):
        world, split, result = TestRankCandidates().build()
        s, model = split.train[0], result.model
        seen = []
        forward = km.KdcnModel.forward
        monkeypatch.setattr(
            km.KdcnModel, "forward", lambda self, batch: seen.append(batch) or forward(self, batch)
        )
        km.rank_candidates(s.behaviors, s.query, world.items[:7], model, result.featurizer)
        (request,) = seen
        assert request.beh_ptr[-1] > 0 and not request.context.any()
        full = model.predict_batch(request)
        k = model.n_behavior_kinds
        for idx in ([3], [6, 0, 2], [1, 1, 5, 4], []):
            part = request.batch(np.array(idx, dtype=np.int64))
            # the rows share the request's one context, pooled and convolved once
            assert part.context.tolist() == [0] * len(idx)
            assert len(part.beh_ptr) == (k + 1 if idx else 1)
            assert part.beh_ids.tolist() == (request.beh_ids.tolist() if idx else [])
            np.testing.assert_allclose(model.predict_batch(part), full[idx], rtol=1e-5)

    @pytest.mark.parametrize("query", ["no such word", "kw1", "kw0 kw1 kw2 kw3 kw4 kw5"])
    def test_request_batch_equals_dataset_batch(self, monkeypatch, query):
        world, ckpt, split, meta, cfg = small_setup(epochs=1)
        result = km.fit(split.train, [], ckpt, cfg, RngStream(13), world.tset.entities, meta)
        meta[world.items[2]].title = "no keyword here"
        table = result.featurizer.table
        feat = km.Featurizer(dataclasses.replace(ckpt, entity_table=table), world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        seen = []
        forward = km.KdcnModel.forward
        monkeypatch.setattr(
            km.KdcnModel, "forward", lambda self, batch: seen.append(batch) or forward(self, batch)
        )
        s, cands = split.train[0], world.items[7::-1]
        km.rank_candidates(s.behaviors, query, cands, result.model, feat)
        ordered = sorted(cands, key=feat.item_id)
        pseudo = [Sample("", s.behaviors, query, n, meta[n].categories, meta[n].dense, 0) for n in ordered]
        expected = feat.prepare(pseudo).batch(np.arange(len(pseudo)))
        (got,) = seen
        for name in ("kw_ptr", "kw_ids", "n_query", "cat_idx", "dense"):
            x, y = getattr(got, name), getattr(expected, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
        # the request's one behavior context is every pseudo-sample's
        k = feat.n_behavior_kinds
        assert np.array_equal(got.beh_ptr, expected.beh_ptr[: k + 1])
        assert np.array_equal(got.beh_ids, expected.beh_ids[: expected.beh_ptr[k]])
        # the edge cases are there: no query keyword, no title keyword, titles cut at the cap
        assert (got.n_query == 0).all() == (query == "no such word")
        titles = np.diff(got.kw_ptr) - got.n_query
        assert (titles == 0).any() and (titles == cfg.max_title_keywords).any()
        uncapped = [len(km.extract_keywords(meta[n].title, feat.keyword_vocab, 99)) for n in ordered]
        assert max(uncapped) > cfg.max_title_keywords

    @pytest.mark.parametrize("n_cat_slots", [1, 2])
    def test_per_item_arrays_match_item_by_item(self, n_cat_slots):
        world, ckpt, split, meta, cfg = small_setup(n_cat_slots=n_cat_slots)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        assert len(feat.title_ptr) == len(meta) + 1
        assert feat.item_cat_idx.shape == (len(meta), n_cat_slots)
        for row, (name, item) in enumerate(meta.items()):
            title = km.extract_keywords(item.title, feat.keyword_vocab, cfg.max_title_keywords)
            assert feat.title_ids[feat.title_ptr[row] : feat.title_ptr[row + 1]].tolist() == title
            n = feat.item_dense_len[row]
            assert feat.item_dense[row, :n].tolist() == item.dense and not feat.item_dense[row, n:].any()
            assert feat.item_cat_idx[row].tolist() == feat.category_slots([item.categories])[0].tolist()
            assert feat.item_entity_ids[row] == feat.item_id(name)
            assert feat.item_rows([name]).tolist() == [row]
        assert any(len(item.categories) > 1 for item in meta.values())

    def test_item_without_entity_is_key_error(self):
        world, ckpt, split, meta, cfg = small_setup()
        result = km.fit(split.train, [], ckpt, cfg, RngStream(13), world.tset.entities, meta)
        s, item = split.train[0], meta[world.items[0]]
        meta["ghost"] = km.ItemMeta("ghost", item.title, item.categories, item.dense)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        assert feat.item_entity_ids[feat.item_rows(["ghost"])].tolist() == [-1]
        with pytest.raises(KeyError, match="ghost"):
            km.rank_candidates(s.behaviors, s.query, [world.items[1], "ghost"], result.model, feat)

    def test_wrong_behavior_kind_count_names_the_request(self):
        world, ckpt, split, meta, cfg = small_setup()
        result = km.fit(split.train, [], ckpt, cfg, RngStream(13), world.tset.entities, meta)
        s = split.train[0]
        with pytest.raises(SchemaError, match=r"^request behaviors: 3 behavior kinds, expected 4$"):
            km.rank_candidates(s.behaviors[:3], s.query, world.items[:2], result.model, result.featurizer)

    def test_wrong_dense_length_is_schema_error(self):
        world, ckpt, split, meta, cfg = small_setup()
        result = km.fit(split.train, [], ckpt, cfg, RngStream(13), world.tset.entities, meta)
        s, name = split.train[0], world.items[1]
        meta[name].dense.append(0.0)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        with pytest.raises(SchemaError, match=f"item '{name}': dense vector has 5 values, expected 4"):
            km.rank_candidates(s.behaviors, s.query, [world.items[0], name], result.model, feat)

    def test_item_meta_changed_after_construction_leaves_scores(self):
        world, ckpt, split, meta, cfg = small_setup(epochs=1)
        result = km.fit(split.train, [], ckpt, cfg, RngStream(13), world.tset.entities, meta)
        feat, s, cands = result.featurizer, split.train[0], world.items[:6]
        before = km.rank_candidates(s.behaviors, s.query, cands, result.model, feat)
        other = sorted(feat.category_index)
        for j, name in enumerate(cands):
            meta[name].title = "kw0 kw1 kw2"
            meta[name].categories[:] = [other[j % len(other)]]
            meta[name].dense[0] += 100.0
        assert km.rank_candidates(s.behaviors, s.query, cands, result.model, feat) == before
        # a featurizer built after the change reads it
        stored = dataclasses.replace(ckpt, entity_table=feat.table)
        fresh = km.Featurizer(stored, world.tset.entities, meta, cfg)
        fresh.fit_stats(split.train)
        assert km.rank_candidates(s.behaviors, s.query, cands, result.model, fresh) != before
        meta[cands[0]].dense.append(0.0)
        assert km.rank_candidates(s.behaviors, s.query, cands, result.model, feat) == before


def per_layer_draws(model: km.KdcnModel, seed: int) -> dict[str, np.ndarray]:
    """The initial weights drawn one slot per layer or projection, in float64
    and in the order of the per-layer layout: cat_table, each conv width's
    (filters, dim * width) filters in conv_widths order, the query, key and
    value projections, each cross layer's (F, 1) weights, the deep layers
    and the logits. Bias slots draw nothing and are left out."""
    cfg, d, rng = model.cfg, model.dim, RngStream(seed)

    def xavier(shape, fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, shape)

    bound = 1.0 / np.sqrt(cfg.cat_dim)
    n_cat = model.store.value("cat_table").shape[0]
    draws = {"cat_table": rng.uniform(-bound, bound, (n_cat, cfg.cat_dim))}
    for w in cfg.conv_widths:
        draws[f"conv_w{w}"] = xavier((cfg.conv_filters, d * w), d * w, 1)
    for name in ("attn_query", "attn_key", "attn_value"):
        draws[name] = xavier((d, d), d, d // cfg.attention_heads)
    for i in range(cfg.n_cross):
        draws[f"cross_w{i}"] = xavier((model.f_width, 1), model.f_width, 1)
    width_in = model.f_width
    for i in range(cfg.deep_layers):
        draws[f"deep_w{i}"] = xavier((cfg.deep_width, width_in), width_in, cfg.deep_width)
        width_in = cfg.deep_width
    draws["logits_w"] = xavier((model.logits_in, 1), model.logits_in, 1)
    return draws


class TestSlotLayout:
    """Each slot is stored in the layout its GEMM reads, and holds the values
    the per-layer layout drew from the same stream, regrouped."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slots_regroup_the_per_layer_draws(self, dtype):
        world, ckpt, split, meta, cfg = small_setup(conv_widths=(4, 2), n_cross=3, conv_filters=3)
        table = dataclasses.replace(ckpt, entity_table=ckpt.entity_table.astype(dtype))
        feat = km.Featurizer(table, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        model = km.KdcnModel.build(cfg, feat, RngStream(17))
        draws = per_layer_draws(model, 17)
        d, n_f = model.dim, cfg.conv_filters
        expected = {
            "cat_table": draws["cat_table"],
            "attn_qkv": np.concatenate([draws[n] for n in ("attn_query", "attn_key", "attn_value")]),
            "cross_w": np.concatenate([draws[f"cross_w{i}"] for i in range(cfg.n_cross)], axis=1),
            "cross_b": np.zeros((model.f_width, cfg.n_cross)),
            "logits_w": draws["logits_w"],
        }
        for w in cfg.conv_widths:
            # tap n of filter j at column n * filters + j
            filters = draws[f"conv_w{w}"].reshape(n_f, d, w)
            expected[f"conv_taps{w}"] = filters.transpose(1, 2, 0).reshape(d, w * n_f)
            expected[f"conv_b{w}"] = np.zeros((n_f, 1))
        for i in range(cfg.deep_layers):
            expected[f"deep_w{i}"] = draws[f"deep_w{i}"]
            expected[f"deep_b{i}"] = np.zeros((cfg.deep_width, 1))
        assert model.store.names() == [
            "cat_table", "conv_taps4", "conv_b4", "conv_taps2", "conv_b2", "attn_qkv", "cross_w",
            "cross_b", "deep_w0", "deep_b0", "deep_w1", "deep_b1", "logits_w",
        ]
        for name, value in expected.items():
            slot = model.store.value(name)
            assert slot.dtype == dtype and slot.flags.c_contiguous, name
            assert np.array_equal(slot, value.astype(dtype)), name

    def test_no_cross_layer_is_an_empty_slot(self):
        world, ckpt, split, meta, cfg = small_setup(**km.ABLATIONS["lr_like"])
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        model = km.KdcnModel.build(cfg, feat, RngStream(18))
        assert model.store.value("cross_w").shape == model.store.value("cross_b").shape == (model.f_width, 0)
        batch = feat.prepare(split.train[:10]).batch(np.arange(10))
        model.loss_and_grads(batch)
        adam_step(model.store, cfg.lr)

    def test_per_layer_slots_are_refused_where_the_shapes_coincide(self):
        # conv_filters == dim and no cross or dialogue block: conv_w{w} and
        # conv_taps{w} are both (dim, dim * w), so only the names tell them apart
        world, ckpt, split, meta, cfg = small_setup(conv_filters=8, use_cross=False, use_dialogue=False)
        feat = km.Featurizer(ckpt, world.tset.entities, meta, cfg)
        feat.fit_stats(split.train)
        model = km.KdcnModel.build(cfg, feat, RngStream(19))
        values = {name: slot.value for name, slot in model.store.slots.items()}
        for w in cfg.conv_widths:
            values[f"conv_w{w}"] = values.pop(f"conv_taps{w}")
            assert values[f"conv_w{w}"].shape == (cfg.conv_filters, model.dim * w)
        with pytest.raises(FormatError, match="slot names"):
            km.restore_model_values(model, values)


class TestModelFile:
    def test_round_trip_within_f32(self, tmp_path):
        world, ckpt, split, meta, cfg = small_setup(epochs=1)
        result = km.fit(split.train, split.valid, ckpt, cfg, RngStream(14), world.tset.entities, meta)
        path = tmp_path / "m.bin"
        km.save_model(result.model, path)
        values = km.load_model_values(path)
        assert set(values) == set(result.model.store.names())
        for name, arr in values.items():
            assert np.array_equal(arr, result.model.store.value(name).astype(np.float32))

    def test_restore_into_model(self, tmp_path):
        world, ckpt, split, meta, cfg = small_setup(epochs=1)
        result = km.fit(split.train, split.valid, ckpt, cfg, RngStream(15), world.tset.entities, meta)
        path = tmp_path / "m.bin"
        km.save_model(result.model, path)
        feat = result.featurizer
        clone = km.KdcnModel.build(cfg, feat, RngStream(999))
        km.restore_model_values(clone, km.load_model_values(path))
        ds = feat.prepare(split.test)
        a = result.model.predict_batch(ds.batch(np.arange(ds.n)))
        b = clone.predict_batch(ds.batch(np.arange(ds.n)))
        assert np.array_equal(a, b)  # the model is float32, as the file stores it

    def test_ranker_round_trip(self, tmp_path):
        world, ckpt, split, meta, cfg = small_setup(epochs=1, lr=0.01)
        result = km.fit(split.train, split.valid, ckpt, cfg, RngStream(15), world.tset.entities, meta)
        meta_path, model_path = tmp_path / "m.json", tmp_path / "m.bin"
        km.save_ranker(result.model, result.featurizer, meta_path, model_path)
        stored = json.loads(meta_path.read_text())
        stored["config"]["lr"] = 1  # a float setting may be stored as an integer
        meta_path.write_text(json.dumps(stored))
        # the float32 table, as ckge.bin stores it
        stored_ckpt = dataclasses.replace(ckpt, entity_table=result.featurizer.table)
        model, feat = km.load_ranker(meta_path, model_path, stored_ckpt, world.tset.entities, meta)
        assert dataclasses.replace(model.cfg, lr=cfg.lr) == cfg and model.cfg.lr == 1
        for name in ("n_dense", "n_behavior_kinds", "dense_mean", "dense_std"):
            x, y = getattr(feat, name), getattr(result.featurizer, name)
            assert np.asarray(x).dtype == np.asarray(y).dtype and np.array_equal(x, y), name
        for name in result.model.store.names():
            x, y = model.store.value(name), result.model.store.value(name)
            assert x.dtype == y.dtype == np.float32 and np.array_equal(x, y), name
        ds = feat.prepare(split.test)
        a = result.model.predict_batch(ds.batch(np.arange(ds.n)))
        assert np.array_equal(a, model.predict_batch(ds.batch(np.arange(ds.n))))


# the uplift world of criteria 4 and 5, whose 512-row batches hold about 3,900 keywords
UPLIFT_WORLD = dict(
    n_users=300, n_items=400, n_categories=10, n_sellers=24, n_tags=12,
    n_keywords=150, n_sessions=300, seed=202, affinity_strength=3.0, noise_std=0.5,
)

# fits one ckge.bin (argv[1]) frozen and fine-tuned, writes both kdcn.bin
# files (argv[2] + "-frozen.bin", "-finetuned.bin") and prints the keyword
# count of the first 512 training rows
THREAD_FIT = f"""
import sys
import kdcn.model as km
import kdcn.pretrain as pt
from kdcn.datagen import ClickModel, WorldConfig, generate_samples, generate_world
from kdcn.rng import RngStream

world = generate_world(WorldConfig(**{UPLIFT_WORLD!r}))
split = generate_samples(world, 6000, ClickModel(), RngStream(3).child("samples"))
meta = km.item_meta_from_events(world.events)
ckpt = pt.load_checkpoint(sys.argv[1])
for name, finetune in (("frozen", False), ("finetuned", True)):
    cfg = km.TrainConfig(epochs=2, lr=1e-3, batch_size=512, finetune_embeddings=finetune)
    result = km.fit(split.train, split.valid, ckpt, cfg, RngStream(3), world.tset.entities, meta)
    km.save_model(result.model, sys.argv[2] + "-" + name + ".bin")
print(len(result.featurizer.prepare(split.train[:512]).kw_ids))
"""


class TestBlasThreads:
    def test_kdcn_bin_is_the_same_at_one_and_two_threads(self, tmp_path):
        # one checkpoint for both runs: pretraining at dim 64 is not yet thread-independent
        world = generate_world(WorldConfig(**UPLIFT_WORLD))
        rng = RngStream(3)
        pt.export_checkpoint(
            pt.PretrainCheckpoint(
                rng.uniform(-0.5, 0.5, (world.tset.n_entities, 64)).astype(np.float32),
                rng.uniform(-0.5, 0.5, (world.tset.n_relations, 64)).astype(np.float32),
            ),
            tmp_path / "ckge.bin",
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        for threads in (1, 2):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", THREAD_FIT, str(tmp_path / "ckge.bin"), str(tmp_path / f"t{threads}")],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            # past the 2048 keywords at which a thread-split float32 product kept its bits
            assert int(proc.stdout) > 3800
        for name in ("frozen", "finetuned"):
            one, two = (km.load_model_values(tmp_path / f"t{t}-{name}.bin") for t in (1, 2))
            differ = [slot for slot in one if not np.array_equal(one[slot], two[slot])]
            assert not differ, f"{name}: slots differ at 1 and 2 threads: {differ}"
            assert (tmp_path / f"t1-{name}.bin").read_bytes() == (tmp_path / f"t2-{name}.bin").read_bytes()
