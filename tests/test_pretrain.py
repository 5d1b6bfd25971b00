import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdcn.pretrain as pt
from kdcn.datagen import WorldConfig, generate_world
from kdcn.errors import CapacityError, ConfigError, DimensionError, FormatError, SamplingError
from kdcn.graph import RELATIONS, Graph, Triple, TripleSet
from kdcn.numeric import sigmoid, write_slots
from kdcn.rng import RngStream
from oracles import (
    encode_stack,
    finite_diff_check,
    gcn_layer,
    hits_at_k_reference,
    init_params,
    layer_draws,
    margin_loss,
    normalized_adjacency,
    pretrain_loss,
    transe_score,
)
from test_model import RejectsFloat64, float_dtypes, slot_dtypes


def small_world(seed=2, **overrides):
    cfg = dict(
        n_users=6, n_items=10, n_categories=3, n_sellers=3, n_tags=3,
        n_keywords=12, n_sessions=8, seed=seed,
    )
    cfg.update(overrides)
    return generate_world(WorldConfig(**cfg))


def float32_params(n_entities, cfg, rng):
    """The params pretrain() starts from: the draws of init_draws rounded to float32."""
    draws = pt.init_draws(n_entities, 9, cfg, rng)
    return pt.params_from({name: d.astype(np.float32) for name, d in draws.items()})


class TestGcnLayer:
    def test_zero_row_gives_half(self):
        out = gcn_layer(np.zeros((1, 3)), np.array([[1.0]]), np.eye(3))
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_identical_rows_stay_identical(self):
        x = np.array([[0.3, -0.7], [0.3, -0.7]])
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = gcn_layer(x, a, RngStream(0).uniform(-1, 1, (2, 2)))
        assert np.allclose(out[0], out[1], atol=1e-15)

    def test_hand_product(self):
        x = np.eye(2)
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        out = gcn_layer(x, a, np.eye(2))
        assert np.allclose(out, sigmoid(np.full((2, 2), 0.5)), atol=1e-15)
        assert out[0, 0] == pytest.approx(0.62245933, abs=1e-7)

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            gcn_layer(np.zeros((2, 3)), np.zeros((3, 3)), np.eye(3))


class TestEncode:
    def test_single_layer_matches_gcn_layer(self):
        w = small_world()
        g = Graph(w.tset)
        cfg = pt.PretrainConfig(dim=4, layers=1)
        params = init_params(g.n_entities, 9, cfg, RngStream(1))
        out = pt.encode_entities(params, g, cfg)
        dense = normalized_adjacency(g, kind="sym")
        expected = gcn_layer(params.value("entity_table"), dense, params.value("gcn_w0"))
        assert np.abs(out - expected).max() < 1e-12

    def test_isolated_nodes_no_mixing(self):
        ts = TripleSet()
        for i in range(3):
            ts.entity_id("user", f"u{i}", create=True)
        g = Graph(ts)
        cfg = pt.PretrainConfig(dim=4, layers=1)
        params = init_params(3, 9, cfg, RngStream(2))
        out = pt.encode_entities(params, g, cfg)
        expected = sigmoid(params.value("entity_table") @ params.value("gcn_w0"))
        assert np.abs(out - expected).max() < 1e-12

    def test_sparse_normalization_matches_dense_op(self):
        w = small_world(seed=9)
        for i in range(3):
            w.tset.entity_id("user", f"lonely{i}", create=True)
        g = Graph(w.tset)
        for kind in ("sym", "mean"):
            cfg = pt.PretrainConfig(dim=4, layers=2, aggregation=kind)
            operators = pt.sample_layer_draws(g, cfg)
            assert len(operators) == cfg.layers and operators[0] is operators[1]
            dense = normalized_adjacency(g, kind=kind)
            assert np.abs(operators[0].toarray() - dense).max() < 1e-14

    def test_full_mode_consumes_no_randomness(self):
        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"full mode read rng.{name}")

        g = Graph(small_world(seed=9).tset)
        cfg = pt.PretrainConfig(dim=4, layers=2, fanout=1)  # the fanout is for sampled mode only
        drawn = pt.sample_layer_draws(g, cfg, Untouchable())
        built = pt.sample_layer_draws(g, cfg)
        assert all((a != b).nnz == 0 for a, b in zip(drawn, built))

    def test_full_mode_encodes_past_the_dense_oracle_guard(self):
        ts = TripleSet()
        for i in range(10_001):
            ts.entity_id("user", f"u{i}", create=True)
        g = Graph(ts)
        cfg = pt.PretrainConfig(dim=2, layers=1)
        params = init_params(g.n_entities, 9, cfg, RngStream(0))
        out = pt.encode_entities(params, g, cfg)
        expected = sigmoid(params.value("entity_table") @ params.value("gcn_w0"))
        assert np.abs(out - expected).max() < 1e-12

    def test_sampled_equals_full_mean_at_covering_fanout(self):
        w = small_world(seed=5)
        g = Graph(w.tset)
        fanout = max(g.max_degree(), 1)
        cfg_full = pt.PretrainConfig(dim=6, layers=2, aggregation="mean", mode="full")
        cfg_samp = pt.PretrainConfig(
            dim=6, layers=2, aggregation="mean", mode="sampled", fanout=fanout
        )
        params = init_params(g.n_entities, 9, cfg_full, RngStream(3))
        full = pt.encode_entities(params, g, cfg_full)
        samp = pt.encode_entities(params, g, cfg_samp, RngStream(4))
        assert np.abs(full - samp).max() < 1e-9

    def test_sampled_equals_full_mean_at_covering_fanout_in_float32(self):
        # the same operators in the precision pretrain() trains in: bit-equal outputs
        g = Graph(small_world(seed=5).tset)
        cfg_full = pt.PretrainConfig(dim=6, layers=2, aggregation="mean", mode="full")
        cfg_samp = dataclasses.replace(cfg_full, mode="sampled", fanout=max(g.max_degree(), 1))
        params = float32_params(g.n_entities, cfg_full, RngStream(3))
        full = pt.encode_entities(params, g, cfg_full)
        samp = pt.encode_entities(params, g, cfg_samp, RngStream(4))
        assert full.dtype == samp.dtype == np.float32
        assert np.array_equal(full, samp)


class TestSampleLayerDraws:
    """The array-built operators match the per-entity reference draw.

    At or above the max degree nothing is drawn and the operators equal the
    reference exactly. Below it, the rows of entities above the fanout hold
    a different uniform subset, so they are checked for their pattern:
    fanout distinct neighbors plus the entity itself, each weighted 1/count.
    """

    @pytest.mark.parametrize("fanout", [3, 10, 12])  # below, at and above the max degree 10
    @pytest.mark.parametrize("isolated", [0, 3])
    def test_matches_per_entity_reference(self, fanout, isolated):
        w = small_world(seed=2)
        for i in range(isolated):
            w.tset.entity_id("user", f"lonely{i}", create=True)
        g = Graph(w.tset)
        assert g.max_degree() == 10 and int((g.degrees == 0).sum()) == isolated
        cfg = pt.PretrainConfig(dim=4, layers=2, mode="sampled", fanout=fanout)
        rng_new, rng_ref = RngStream(21), RngStream(21)
        operators = pt.sample_layer_draws(g, cfg, rng_new)
        reference = layer_draws(g, cfg, rng_ref)
        assert len(operators) == len(reference) == cfg.layers
        big = g.degrees > fanout
        for s, ref in zip(operators, reference):
            dense = s.toarray()
            assert np.array_equal(dense[~big], ref[~big])
            for i in np.flatnonzero(big):
                chosen = s.indices[s.indptr[i] : s.indptr[i + 1]]
                neighbors = chosen[chosen != i]
                assert len(neighbors) == fanout == len(set(neighbors.tolist()))
                assert set(neighbors.tolist()) <= set(g.adjacency[i].tolist())
                assert len(chosen) == fanout + 1
                assert np.all(s.data[s.indptr[i] : s.indptr[i + 1]] == 1.0 / len(chosen))
        if not big.any():  # neither side drew anything
            assert rng_new.integers(0, 2**62) == rng_ref.integers(0, 2**62)

    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20),
        isolated=st.integers(0, 3),
        mode=st.sampled_from([("full", "sym"), ("full", "mean"), ("sampled", "mean")]),
        offset=st.sampled_from([-1, 0, 1]),  # sampled fanout below, at or above the max degree
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_row_holds_its_entity_once(self, edges, isolated, mode, offset, seed):
        ts = TripleSet()
        for u, t in edges:
            ts.add(f"u{u}", "user-has-tag", f"t{t}")
        for i in range(isolated):
            ts.entity_id("user", f"lonely{i}", create=True)
        g = Graph(ts)
        kind, aggregation = mode
        fanout = max(g.max_degree() + offset, 1)
        cfg = pt.PretrainConfig(dim=2, layers=2, mode=kind, aggregation=aggregation, fanout=fanout)
        kept = g.degrees if kind == "full" else np.minimum(g.degrees, fanout)
        for s in pt.sample_layer_draws(g, cfg, RngStream(seed)):
            count = np.diff(s.indptr)
            assert np.array_equal(count, kept + 1)
            for i in range(g.n_entities):
                cols = s.indices[s.indptr[i] : s.indptr[i + 1]]
                weights = s.data[s.indptr[i] : s.indptr[i + 1]]
                assert np.count_nonzero(cols == i) == 1
                others = cols[cols != i].tolist()
                assert len(set(others)) == len(others)
                assert set(others) <= set(g.indices[g.indptr[i] : g.indptr[i + 1]].tolist())
                if aggregation == "sym":
                    assert np.allclose(weights, 1.0 / np.sqrt(count[i] * count[cols]), rtol=1e-14, atol=0)
                else:
                    assert np.all(weights == 1.0 / count[i])

    def test_inclusion_rate_is_fanout_over_degree(self):
        # an entity of degree 10 keeps each neighbor with probability 3/10
        ts = TripleSet()
        for i in range(10):
            ts.add("hub", "user-has-tag", f"tag{i}")
        g = Graph(ts)
        draws = 4000
        cfg = pt.PretrainConfig(dim=2, layers=draws, mode="sampled", fanout=3)
        hub = ts.entity_id("user", "hub")
        counts = np.zeros(g.n_entities)
        for s in pt.sample_layer_draws(g, cfg, RngStream(22)):
            counts[s.indices[s.indptr[hub] : s.indptr[hub + 1]]] += 1
        p = cfg.fanout / g.degrees[hub]
        sigma = np.sqrt(p * (1 - p) / draws)
        rates = counts[g.adjacency[hub]] / draws
        assert np.all(np.abs(rates - p) < 4 * sigma), rates


class TestRestrictedEncoder:
    """Encoding only a batch's rows equals the unrestricted encoder there."""

    MODES = {
        "full-sym": dict(mode="full", aggregation="sym"),
        "full-mean": dict(mode="full", aggregation="mean"),
        "sampled": dict(mode="sampled", fanout=3),
    }

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("batch", ["one-triple", "random", "isolated", "all"])
    def test_matches_unrestricted_oracle(self, mode, batch):
        w = small_world(seed=4)
        for i in range(3):
            w.tset.entity_id("user", f"lonely{i}", create=True)
        g = Graph(w.tset)
        n = g.n_entities
        cfg = pt.PretrainConfig(dim=5, layers=2, **self.MODES[mode])
        params = init_params(n, 9, cfg, RngStream(23))
        operators = pt.sample_layer_draws(g, cfg, RngStream(24))
        rng = RngStream(25)
        tr = w.tset.triples[0]
        rows = {
            "one-triple": np.unique([tr.head, tr.tail]),
            "random": np.unique(rng.integers(0, n, 12)),
            "isolated": np.array([0, n - 2, n - 1]),
            "all": np.arange(n),
        }[batch]
        out, cache = pt._encode_forward(params, operators, rows)
        d_rows = rng.normal(0.0, 1.0, out.shape)
        d_table, d_ws = pt._encode_backward(params, cache, d_rows)

        d_out = np.zeros((n, cfg.dim))
        d_out[rows] = d_rows
        ref_out, ref_entity, ref_ws = encode_stack(params, operators, d_out)
        d_entity = np.zeros((n, cfg.dim))
        d_entity[cache["table_rows"]] = d_table
        assert np.abs(out - ref_out[rows]).max() < 1e-12
        assert np.abs(d_entity - ref_entity).max() < 1e-12
        for dw, ref in zip(d_ws, ref_ws):
            assert np.abs(dw - ref).max() < 1e-12


class TestCorruptBatch:
    def batch(self, rows=4000):
        w = small_world(seed=6)
        g = Graph(w.tset)
        triples = np.array([[t.head, t.relation, t.tail] for t in w.tset.triples], dtype=np.int64)
        pos = np.resize(triples, (rows, 3))
        return w.tset, g, pos

    def corrupt(self, g, pos, seed):
        return pt.corrupt_batch(pos, pt._known_keys(g.triples), g.n_entities, RngStream(seed))

    def test_never_known_and_relation_kept(self):
        tset, g, pos = self.batch()
        neg = self.corrupt(g, pos, 26)
        known = set(tset.triples)
        assert not any(tuple(map(int, row)) in known for row in neg)
        assert np.array_equal(neg[:, 1], pos[:, 1])
        # exactly one end changed
        assert np.all((neg[:, 0] != pos[:, 0]) ^ (neg[:, 2] != pos[:, 2]))

    def test_head_flip_rate_is_binomial(self):
        _, g, pos = self.batch()
        neg = self.corrupt(g, pos, 27)
        rate = np.mean(neg[:, 0] != pos[:, 0])
        assert abs(rate - 0.5) < 4 * np.sqrt(0.25 / len(pos)), rate

    def test_same_seed_repeats_bit_for_bit(self):
        _, g, pos = self.batch()
        assert np.array_equal(self.corrupt(g, pos, 28), self.corrupt(g, pos, 28))
        assert not np.array_equal(self.corrupt(g, pos, 28), self.corrupt(g, pos, 29))

    def test_saturated_graph_raises(self):
        # over two entities, every (h, 0, t) is known, so no corruption is valid
        saturated = np.array([[h, 0, t] for h in range(2) for t in range(2)], dtype=np.int64)
        known = np.append(np.sort(pt._triple_keys(saturated, 2)), np.iinfo(np.int64).max)
        pos = np.array([[0, 0, 1]] * 5, dtype=np.int64)
        with pytest.raises(SamplingError, match="5 triple"):
            pt.corrupt_batch(pos, known, 2, RngStream(30))

    def test_key_overflow_is_capacity_error(self):
        # keys run up to R*n*n - 1; n_max is the largest n that keeps that,
        # and the sentinel at the int64 maximum above it, within int64
        r = len(RELATIONS)
        n_max = math.isqrt(np.iinfo(np.int64).max // r)
        corner = np.array([[n_max - 1, r - 1, n_max - 1]], dtype=np.int64)
        assert pt._triple_keys(corner, n_max)[0] == r * n_max**2 - 1
        with pytest.raises(CapacityError, match=f"{n_max + 1} entities"):
            pt._triple_keys(corner, n_max + 1)
        known = np.array([np.iinfo(np.int64).max])
        with pytest.raises(CapacityError):
            pt.corrupt_batch(corner, known, np.int64(n_max + 1), RngStream(31))


class TestTranseScore:
    def test_exact_translation(self):
        assert transe_score([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]) == 0.0

    def test_hand_norm(self):
        assert transe_score([1.0, 2.0], [3.0, 4.0], [0.0, 0.0]) == pytest.approx(
            np.sqrt(52.0), rel=1e-12
        )

    def test_reversal_symmetry(self):
        h, r, t = (RngStream(6).uniform(-1, 1, 3) for _ in range(3))
        assert transe_score(h, r, t) == pytest.approx(transe_score(t, -r, h), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            transe_score([1.0], [1.0, 2.0], [1.0])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=4))
    def test_translation_invariance(self, c):
        rng = RngStream(7)
        h, r, t = (rng.uniform(-1, 1, len(c)) for _ in range(3))
        shift = np.array(c)
        assert transe_score(h + shift, r, t + shift) == pytest.approx(
            transe_score(h, r, t), abs=1e-9
        )


class TestNegativeSample:
    def test_two_entity_enumeration(self):
        ts = TripleSet()
        ts.add("a", "user-has-tag", "b")
        g = Graph(ts)
        seen = set()
        for seed in range(50):
            c = pt.negative_sample(ts.triples[0], g, RngStream(seed))
            seen.add((c.head, c.relation, c.tail))
        assert seen == {(1, 0, 1), (0, 0, 0)}

    def test_relation_preserved(self):
        w = small_world()
        g = Graph(w.tset)
        rng = RngStream(8)
        for tr in w.tset.triples[:20]:
            assert pt.negative_sample(tr, g, rng).relation == tr.relation

    def test_fixed_seed_replays(self):
        w = small_world()
        g = Graph(w.tset)
        tr = w.tset.triples[0]
        assert pt.negative_sample(tr, g, RngStream(9)) == pt.negative_sample(
            tr, g, RngStream(9)
        )

    def test_saturated_graph_raises(self):
        # the schema keeps a TripleSet from ever saturating, so the graph is
        # built over a stand-in whose array holds every (h, 0, t) of two entities
        class Saturated:
            n_entities = 2
            array = np.array([[h, 0, t] for h in range(2) for t in range(2)], dtype=np.int64)

        g = Graph(Saturated())
        with pytest.raises(SamplingError, match="1 triple"):
            pt.negative_sample(Triple(0, 0, 1), g, RngStream(10))


class TestHitsAtK:
    def checkpoint(self, n, seed, dim=4):
        rng = RngStream(seed)
        return pt.PretrainCheckpoint(rng.normal(0.0, 1.0, (n, dim)), rng.normal(0.0, 1.0, (9, dim)))

    def valid_count(self, tset, tr):
        """Entities that may stand in for tr's tail: not the tail, no known triple."""
        known = set(tset.triples)
        return sum(
            c != tr.tail and (tr.head, tr.relation, c) not in known for c in range(tset.n_entities)
        )

    @pytest.mark.parametrize("k", [5, 10, 20, 40, 60])
    def test_fixed_candidate_set_matches_oracle(self, k):
        # n_candidates - 1 >= n_entities: every valid entity is a candidate,
        # so the draw order cannot matter
        w = small_world(seed=3)
        n = w.tset.n_entities
        ckpt = self.checkpoint(n, 40)
        # the last two are not in the set, so only the tail rule keeps their tail out
        eval_triples = w.tset.triples[::3] + [Triple(2, 0, 2), Triple(5, 0, 3)]
        got = pt.hits_at_k(ckpt, w.tset, eval_triples, RngStream(41), k=k, n_candidates=n + 1)
        ref = hits_at_k_reference(ckpt, w.tset, eval_triples, RngStream(42), k=k, n_candidates=n + 1)
        assert got == ref
        assert 0.0 < got < 1.0

    def test_ties_count_against_the_hit(self):
        w = small_world(seed=3)
        n = w.tset.n_entities
        tied = pt.PretrainCheckpoint(np.zeros((n, 4)), np.zeros((9, 4)))
        tr = w.tset.triples[5]
        v = self.valid_count(w.tset, tr)
        for n_candidates, rank in ((n + 1, v + 1), (20, 20)):
            # every candidate scores exactly what the true tail scores
            for k, hit in ((rank - 1, 0.0), (rank, 1.0)):
                args = (tied, w.tset, [tr])
                assert pt.hits_at_k(*args, RngStream(43), k=k, n_candidates=n_candidates) == hit
                assert hits_at_k_reference(*args, RngStream(43), k, n_candidates) == hit

    def test_sampled_candidates_match_oracle_on_average(self):
        # fewer candidates than valid entities: both draw a uniform subset,
        # so their Hits@3 agree on average over seeds
        w = small_world(seed=3)
        ckpt = self.checkpoint(w.tset.n_entities, 48)
        means = [
            np.mean([hits(ckpt, w.tset, w.tset.triples, RngStream(s), 3, 10) for s in range(20)])
            for hits in (pt.hits_at_k, hits_at_k_reference)
        ]
        assert 0.2 < means[0] < 0.8
        assert abs(means[0] - means[1]) < 0.05, means

    def test_same_seed_repeats(self):
        w = small_world(seed=3)
        ckpt = self.checkpoint(w.tset.n_entities, 44)
        runs = [
            pt.hits_at_k(ckpt, w.tset, w.tset.triples, RngStream(45), k=5, n_candidates=10)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_no_triples_scores_zero(self):
        w = small_world(seed=3)
        assert pt.hits_at_k(self.checkpoint(w.tset.n_entities, 46), w.tset, [], RngStream(47)) == 0.0


class TestMarginLoss:
    def test_margin_satisfied(self):
        assert margin_loss([0.5], [2.0], 1.0) == 0.0

    def test_margin_violated(self):
        assert margin_loss([2.0], [1.0], 1.0) == 2.0

    def test_boundary(self):
        assert margin_loss([1.3, 0.2], [1.3, 0.2], 1.0) == pytest.approx(2.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            margin_loss([1.0], [1.0, 2.0], 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(0, 5), min_size=1, max_size=6),
        st.floats(0.1, 3),
    )
    def test_nonnegative_and_zero_iff_satisfied(self, pos, gamma):
        neg = [p + gamma + 0.1 for p in pos]
        assert margin_loss(pos, neg, gamma) == 0.0
        neg_bad = [p + gamma - 0.05 for p in pos]
        assert margin_loss(pos, neg_bad, gamma) > 0.0


class TestGradients:
    @pytest.mark.parametrize("seed", range(10))
    def test_loss_matches_finite_differences(self, seed):
        w = small_world(seed=seed)
        g = Graph(w.tset)
        mode = "full" if seed % 2 == 0 else "sampled"
        cfg = pt.PretrainConfig(dim=4, layers=2, mode=mode, fanout=3)
        rng = RngStream(seed)
        params = init_params(g.n_entities, 9, cfg, rng.child("init"))
        triples = np.array([[t.head, t.relation, t.tail] for t in w.tset.triples])
        pos = triples[:8]
        rng_neg = rng.child("neg")
        neg = np.array(
            [
                [c.head, c.relation, c.tail]
                for c in (pt.negative_sample(Triple(*r), g, rng_neg) for r in pos)
            ]
        )
        draws = pt.sample_layer_draws(g, cfg, rng.child("draws")) if mode == "sampled" else None
        params.zero_grads()
        pt.pretrain_loss_grads(params, g, cfg, pos, neg, draws)
        for name in params.names():
            err = finite_diff_check(
                lambda: pretrain_loss(params, g, cfg, pos, neg, draws),
                params,
                name,
            )
            assert err < 1e-4, f"seed {seed} slot {name}: {err}"


class TestPretrainLoop:
    def test_zero_epochs_returns_initial_encoding(self):
        w = small_world()
        g = Graph(w.tset)
        cfg = pt.PretrainConfig(dim=6, epochs=0)
        rng = RngStream(11)
        result = pt.pretrain(w.tset, g, cfg, rng)
        fresh = float32_params(w.tset.n_entities, cfg, RngStream(11).child("init"))
        expected = pt.encode_entities(fresh, g, cfg)
        assert np.array_equal(result.checkpoint.entity_table, expected)
        assert np.array_equal(result.checkpoint.relation_table, fresh.value("relation_table"))
        assert result.epoch_losses == []

    def test_same_seed_byte_identical_checkpoints(self, tmp_path):
        w = small_world()
        g = Graph(w.tset)
        cfg = pt.PretrainConfig(dim=6, epochs=2, batch_size=64, lr=0.01)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        pt.export_checkpoint(pt.pretrain(w.tset, g, cfg, RngStream(12)).checkpoint, p1)
        pt.export_checkpoint(pt.pretrain(w.tset, g, cfg, RngStream(12)).checkpoint, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loss_nonincreasing_early_epochs(self):
        w = generate_world(
            WorldConfig(
                n_users=40, n_items=60, n_categories=5, n_sellers=8, n_tags=6,
                n_keywords=30, n_sessions=40, seed=3,
            )
        )
        assert 150 <= w.tset.n_entities <= 260
        g = Graph(w.tset)
        ok = 0
        for seed in range(5):
            cfg = pt.PretrainConfig(dim=16, epochs=5, batch_size=128, lr=0.01)
            losses = pt.pretrain(w.tset, g, cfg, RngStream(seed)).epoch_losses
            diffs = np.diff(losses)
            if np.all(diffs <= 1e-9):
                ok += 1
        assert ok >= 4

    def test_full_mode_builds_adjacency_once(self, monkeypatch):
        w = small_world()
        g = Graph(w.tset)
        cfg = pt.PretrainConfig(dim=6, epochs=2, batch_size=40, lr=0.01)
        assert len(w.tset) > 2 * cfg.batch_size  # at least 3 batches per epoch
        calls = []
        build = pt.sample_layer_draws

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(pt, "sample_layer_draws", counting)
        pt.pretrain(w.tset, g, cfg, RngStream(12))
        assert len(calls) == 1


class TestPretrainDtype:
    """pretrain() trains in float32; operators keep the dtype of the params they get."""

    F32, F64 = {np.dtype(np.float32)}, {np.dtype(np.float64)}

    def batch(self, g, cfg, dtype):
        if dtype == np.float32:
            params = float32_params(g.n_entities, cfg, RngStream(1))
        else:
            params = init_params(g.n_entities, 9, cfg, RngStream(1))
        pos = g.triples.array[:16]
        neg = pt.corrupt_batch(pos, pt._known_keys(g.triples), g.n_entities, RngStream(2))
        draws = pt.sample_layer_draws(g, cfg, RngStream(3))
        return params, pos, neg, draws

    @pytest.mark.parametrize("mode", ["full", "sampled"])
    def test_pretrain_keeps_every_slot_and_the_checkpoint_float32(self, mode, monkeypatch):
        g = Graph(small_world().tset)
        cfg = pt.PretrainConfig(dim=6, epochs=2, batch_size=64, lr=0.01, mode=mode, fanout=3)
        stores = []
        step = pt.adam_step
        monkeypatch.setattr(pt, "adam_step", lambda store, lr: (stores.append(store), step(store, lr)))
        ckpt = pt.pretrain(g.triples, g, cfg, RngStream(12)).checkpoint
        assert stores and all(s is stores[0] for s in stores)
        assert slot_dtypes(stores[0]) == self.F32
        assert float_dtypes([ckpt.entity_table, ckpt.relation_table]) == self.F32

    @pytest.mark.parametrize("mode", ["full", "sampled"])
    def test_one_step_computes_in_float32(self, mode):
        g = Graph(small_world(seed=4).tset)
        cfg = pt.PretrainConfig(dim=6, layers=2, mode=mode, fanout=3)
        params, pos, neg, draws = self.batch(g, cfg, np.float32)
        *_, s, cache = pt._pair_scores(params, draws, pos, neg)
        assert s.dtype == np.float32
        assert float_dtypes(cache) == self.F32
        assert {a.dtype for a in cache["operators"]} == self.F32
        # the backward adds into the gradients; none of its terms may be float64
        for slot in params.slots.values():
            slot.grad = slot.grad.view(RejectsFloat64)
        pt.pretrain_loss_grads(params, g, cfg, pos, neg, draws)
        assert slot_dtypes(params) == self.F32
        assert all(np.any(slot.grad) for slot in params.slots.values())

    def test_float64_params_stay_float64(self):
        g = Graph(small_world(seed=4).tset)
        cfg = pt.PretrainConfig(dim=6, layers=2, mode="sampled", fanout=3)
        params, pos, neg, draws = self.batch(g, cfg, np.float64)
        *_, cache = pt._pair_scores(params, draws, pos, neg)
        assert float_dtypes(cache) == self.F64
        assert {a.dtype for a in cache["operators"]} == self.F64
        pt.pretrain_loss_grads(params, g, cfg, pos, neg, draws)
        assert slot_dtypes(params) == self.F64
        assert pt.encode_entities(params, g, cfg, draws=draws).dtype == np.float64

    def test_checkpoint_file_round_trip_is_bit_exact(self, tmp_path):
        g = Graph(small_world().tset)
        cfg = pt.PretrainConfig(dim=6, epochs=1, batch_size=64, lr=0.01)
        ckpt = pt.pretrain(g.triples, g, cfg, RngStream(13)).checkpoint
        pt.export_checkpoint(ckpt, tmp_path / "c.bin")
        loaded = pt.load_checkpoint(tmp_path / "c.bin")
        for got, want in ((loaded.entity_table, ckpt.entity_table), (loaded.relation_table, ckpt.relation_table)):
            assert got.dtype == want.dtype == np.float32
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestConfigErrors:
    @pytest.mark.parametrize(
        "kwargs", [{"mode": "dense"}, {"fanout": 0}, {"aggregation": "max"}, {"margin": 0.0}]
    )
    def test_bad_values_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            pt.PretrainConfig(**kwargs)

    def test_sampled_mode_without_rng_or_draws(self):
        w = small_world()
        g = Graph(w.tset)
        cfg = pt.PretrainConfig(dim=4, mode="sampled")
        params = init_params(g.n_entities, 9, cfg, RngStream(0))
        pos = np.array([[t.head, t.relation, t.tail] for t in w.tset.triples[:2]])
        with pytest.raises(ConfigError):
            pt.encode_entities(params, g, cfg)
        with pytest.raises(ConfigError):
            pt.pretrain_loss_grads(params, g, cfg, pos, pos)


class TestCheckpointFormat:
    def make(self):
        rng = RngStream(13)
        return pt.PretrainCheckpoint(rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (9, 4)))

    def test_round_trip_within_f32(self, tmp_path):
        ckpt = self.make()
        path = tmp_path / "c.bin"
        pt.export_checkpoint(ckpt, path)
        loaded = pt.load_checkpoint(path)
        assert np.array_equal(loaded.entity_table, ckpt.entity_table.astype(np.float32))
        assert np.array_equal(loaded.relation_table, ckpt.relation_table.astype(np.float32))

    def test_file_size_matches_layout(self, tmp_path):
        # magic(4) + version u32 + slot count u32, then per slot a u16 name
        # length, the name and rows, cols u32: 12 + 22 + 24 header bytes
        ckpt = self.make()
        path = tmp_path / "c.bin"
        pt.export_checkpoint(ckpt, path)
        assert path.stat().st_size == 58 + 4 * 4 * (5 + 9)

    @pytest.mark.parametrize(
        "shapes, error",
        [
            ({"entity_table": (5, 4)}, "expected slots"),
            ({"entity_table": (5, 4), "relation_table": (9, 4), "gcn_w0": (4, 4)}, "expected slots"),
            ({"relation_table": (9, 4), "entity_table": (5, 4)}, "expected slots"),
            ({"entity_table": (5, 4), "relation_table": (9, 3)}, r"both tables need .*, got \[3, 4\]"),
            ({"entity_table": (5, 0), "relation_table": (9, 0)}, r"both tables need .*, got \[0\]"),
        ],
        ids=["missing", "extra", "reordered", "two-widths", "width-0"],
    )
    def test_slots_must_be_the_two_tables(self, tmp_path, shapes, error):
        path = tmp_path / "c.bin"
        values = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        write_slots(path, pt.CHECKPOINT_MAGIC, pt.CHECKPOINT_VERSION, values)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {error}"):
            pt.load_checkpoint(path)
