import math
from collections import Counter

import numpy as np
import pytest

from kdcn import datagen
from kdcn.datagen import (
    BEHAVIOR_KINDS,
    ClickModel,
    Sample,
    WorldConfig,
    draw_samples,
    generate_samples,
    generate_world,
    load_samples,
    save_samples,
    split_loaded,
)
from kdcn.errors import ConfigError
from kdcn.metrics import auc
from kdcn.rng import RngStream
from oracles import (
    click_affinity,
    generate_samples_reference,
    mutual_information,
    tag_category_mutual_information,
)

# the criterion-4/5 world of tests/test_acceptance.py
UPLIFT_WORLD = dict(
    n_users=300, n_items=400, n_categories=10, n_sellers=24, n_tags=12,
    n_keywords=150, n_sessions=300, seed=202, affinity_strength=3.0, noise_std=0.5,
)


def default_world(seed=0, **overrides):
    cfg = dict(
        n_users=60, n_items=80, n_categories=6, n_sellers=10, n_tags=8,
        n_keywords=48, n_sessions=80, seed=seed,
    )
    cfg.update(overrides)
    return generate_world(WorldConfig(**cfg))


class TestGenerateWorld:
    def test_minimal_config_connected_toy(self):
        w = generate_world(
            WorldConfig(
                n_users=1, n_items=1, n_categories=1, n_sellers=1, n_tags=1,
                n_keywords=1, n_sessions=1, seed=0,
            )
        )
        assert len(w.tset) >= 6
        assert w.tset.n_entities >= 6

    def test_same_seed_identical(self):
        a = default_world(seed=4)
        b = default_world(seed=4)
        assert a.tset == b.tset
        assert a.events == b.events

    def test_all_nine_relations_emitted(self):
        w = default_world()
        used = {t.relation for t in w.tset.triples}
        assert used == set(range(9))

    def test_items_have_three_to_six_title_keywords(self):
        w = default_world()
        for item, kws in w.item_title_kws.items():
            assert 3 <= len(kws) <= 6
            cat = w.item_category[item]
            assert all(k in w.category_keywords[cat] for k in kws)

    def test_tag_category_mi_beats_shuffled_control(self):
        w = default_world(seed=1)
        real = tag_category_mutual_information(w)
        rng = RngStream(123)
        tags = [w.user_tags[u][0] for u in w.session_user]
        cats = list(w.session_category)
        controls = []
        for _ in range(20):
            shuffled = list(cats)
            rng.shuffle(shuffled)
            controls.append(mutual_information(list(zip(tags, shuffled))))
        assert real > np.mean(controls) + 3 * np.std(controls)


class TestGenerateSamples:
    def test_zero_alpha_base_rate_near_half(self):
        w = default_world(seed=2, affinity_strength=0.0)
        split = generate_samples(w, 10_000, ClickModel(), RngStream(7).child("s"))
        labels = [s.label for s in split.all()]
        assert abs(np.mean(labels) - 0.5) < 0.03

    def test_empty(self):
        w = default_world()
        split = generate_samples(w, 0, ClickModel(), RngStream(0))
        assert split.train == [] and split.valid == [] and split.test == []

    def test_split_sizes_and_disjoint(self):
        w = default_world()
        n = 1234
        split = generate_samples(w, n, ClickModel(), RngStream(1).child("s"))
        assert len(split.train) == int(0.8 * n)
        assert len(split.valid) == int(0.1 * n)
        assert len(split.test) == n - int(0.8 * n) - int(0.1 * n)

    def test_pure_function_of_seed(self):
        w = default_world()
        a = generate_samples(w, 50, ClickModel(), RngStream(3).child("s"))
        b = generate_samples(w, 50, ClickModel(), RngStream(3).child("s"))
        c = generate_samples(w, 50, ClickModel(), RngStream(4).child("s"))
        assert [s.to_dict() for s in a.all()] == [s.to_dict() for s in b.all()]
        assert [s.to_dict() for s in a.all()] != [s.to_dict() for s in c.all()]

    def test_behavior_kind_count(self):
        w = default_world()
        split = generate_samples(w, 20, ClickModel(), RngStream(4).child("s"))
        assert all(len(s.behaviors) == BEHAVIOR_KINDS for s in split.all())

    def test_oracle_auc_high_at_strong_alpha(self):
        w = default_world(seed=5, affinity_strength=4.0)
        click = ClickModel()
        split = generate_samples(w, 4000, click, RngStream(5).child("s"))
        samples = split.test
        scores, labels = [], []
        for s in samples:
            kws = s.query.split()
            scores.append(click_affinity(click, w, s.user_id, kws, s.candidate_item))
            labels.append(s.label)
        assert auc(scores, labels) >= 0.85

    def test_oracle_auc_chance_at_zero_alpha(self):
        w = default_world(seed=6, affinity_strength=0.0)
        click = ClickModel()
        split = generate_samples(w, 4000, click, RngStream(6).child("s"))
        scores, labels = [], []
        for s in split.all():
            kws = s.query.split()
            scores.append(click_affinity(click, w, s.user_id, kws, s.candidate_item))
            labels.append(s.label)
        assert abs(auc(scores, labels) - 0.5) <= 0.02


class TestSampleDraws:
    """The array draws: exact per-sample values, invariants and edge cases."""

    def test_negative_n_is_config_error(self):
        with pytest.raises(ConfigError, match="n_samples must be >= 0, got -5"):
            generate_samples(default_world(), -5, ClickModel(), RngStream(0))

    def test_one_sample(self):
        w = default_world()
        split = generate_samples(w, 1, ClickModel(), RngStream(2).child("s"))
        assert len(split.all()) == 1 and split.train == [] and split.valid == []
        check_invariants(w, split.all())

    def test_affinity_is_click_model_affinity_exactly(self):
        w = default_world(seed=3)
        click = ClickModel(w_tag_match=0.3, w_overlap=0.1, w_cluster=0.7)
        samples, affinity = draw_samples(w, 3000, click, RngStream(3).child("s"))
        assert affinity.dtype == np.float64 and len(affinity) == len(samples)
        for s, a in zip(samples, affinity.tolist()):
            assert a == click_affinity(click, w, s.user_id, s.query.split(), s.candidate_item)
        assert len(set(affinity.tolist())) > 4  # every term varies

    def test_invariants(self):
        w = default_world(seed=4)
        samples, _ = draw_samples(w, 3000, ClickModel(), RngStream(4).child("s"))
        check_invariants(w, samples)
        assert Counter(len(s.query.split()) for s in samples).keys() == {2, 3, 4}
        lengths = {len(b) for s in samples for b in s.behaviors}
        assert lengths == set(range(7))

    def test_wide_keyword_pools_shrink_the_block(self, monkeypatch):
        monkeypatch.setattr(datagen, "_BLOCK_KEYS", 20)  # pools of 8: blocks of 2 samples
        w = default_world()
        click = ClickModel()
        samples, affinity = draw_samples(w, 301, click, RngStream(11).child("s"))
        assert len(samples) == len(affinity) == 301
        check_invariants(w, samples)
        for s, a in zip(samples, affinity.tolist()):
            assert a == click_affinity(click, w, s.user_id, s.query.split(), s.candidate_item)

    def test_user_without_preferred_categories(self):
        w = default_world(seed=5)
        for u in w.users:
            w.user_pref_cats[u] = []
        click = ClickModel()
        samples, affinity = draw_samples(w, 2000, click, RngStream(5).child("s"))
        check_invariants(w, samples)
        assert {query_category(w, s.query) for s in samples} == set(w.categories)
        for s, a in zip(samples, affinity.tolist()):
            assert a == click_affinity(click, w, s.user_id, s.query.split(), s.candidate_item)

    def test_empty_preferred_item_pool_falls_back_to_uniform_items(self):
        w = default_world(seed=6)
        empty = "cat_empty"
        w.items_by_category[empty] = []
        w.category_keywords[empty] = ["kw_empty"]
        w.categories.append(empty)
        for u in w.users:
            w.user_pref_cats[u] = [empty]
        samples, _ = draw_samples(w, 2000, ClickModel(), RngStream(6).child("s"))
        check_invariants(w, samples)
        assert len({s.candidate_item for s in samples}) > 60  # of 80 items
        share = np.mean([s.query == "kw_empty" for s in samples])
        assert 0.75 < share < 0.9  # 0.8 preferred, plus 1/7 of the rest

    def test_empty_cluster_falls_back_to_uniform_behaviors(self):
        w = default_world(seed=7)
        for u in w.users:
            w.user_cluster[u] = []
            w.user_cluster_sets[u] = set()
        samples, _ = draw_samples(w, 2000, ClickModel(), RngStream(7).child("s"))
        check_invariants(w, samples)
        counts = Counter(it for s in samples for b in s.behaviors for it in b)
        assert len(counts) == len(w.items)  # 24k uniform draws over 80 items

    @pytest.mark.parametrize("n_keywords, pool", [(6, 1), (12, 2), (18, 3)])
    def test_keyword_pool_smaller_than_drawn_count(self, n_keywords, pool):
        w = default_world(n_keywords=n_keywords)
        samples, _ = draw_samples(w, 500, ClickModel(), RngStream(8).child("s"))
        check_invariants(w, samples)
        lengths = Counter(len(s.query.split()) for s in samples)
        assert set(lengths) == set(range(min(pool, 2), pool + 1))

    def test_empty_keyword_pool_gives_empty_query(self):
        w = default_world()
        for c in w.categories:
            w.category_keywords[c] = []
        samples, _ = draw_samples(w, 50, ClickModel(), RngStream(9).child("s"))
        assert all(s.query == "" for s in samples)


def query_category(world, query: str) -> str:
    """The category whose keyword pool holds the query, in pool order."""
    kws = query.split()
    for c in world.categories:
        pool = world.category_keywords[c]
        if all(k in pool for k in kws) and sorted(kws, key=pool.index) == kws:
            return c
    raise AssertionError(f"query {query!r} is in no category's pool order")


def check_invariants(world, samples) -> None:
    for s in samples:
        kws = s.query.split()
        assert len(set(kws)) == len(kws) <= 4
        query_category(world, s.query)
        assert s.user_id in world.user_tags
        assert s.categories == world.item_categories[s.candidate_item]
        assert s.dense == world.item_dense[s.candidate_item]
        assert len(s.behaviors) == BEHAVIOR_KINDS
        assert all(len(b) <= 6 and all(it in world.item_category for it in b) for b in s.behaviors)
        assert s.label in (0, 1)


def sample_statistics(world, click, samples) -> dict:
    """Each compared statistic as (value, standard error)."""
    n = len(samples)

    def share(hits, total):
        p = hits / total
        return p, math.sqrt(p * (1 - p) / total)

    labels = [s.label for s in samples]
    stats = {
        "label_rate": share(sum(labels), n),
        "preferred_candidates": share(
            sum(world.item_category[s.candidate_item] in world.user_pref_cats[s.user_id] for s in samples), n
        ),
    }
    stats["preferred_queries"] = share(
        sum(query_category(world, s.query) in world.user_pref_cats[s.user_id] for s in samples), n
    )
    q_lengths = Counter(len(s.query.split()) for s in samples)
    for length in range(2, 5):
        stats[f"query_length_{length}"] = share(q_lengths[length], n)
    for kind in range(BEHAVIOR_KINDS):
        b_lengths = Counter(len(s.behaviors[kind]) for s in samples)
        for length in range(7):
            stats[f"behavior_{kind}_length_{length}"] = share(b_lengths[length], n)
    behavior = [(s.user_id, it) for s in samples for b in s.behaviors for it in b]
    stats["cluster_behaviors"] = share(
        sum(it in world.user_cluster_sets[u] for u, it in behavior), len(behavior)
    )
    scores = [click_affinity(click, world, s.user_id, s.query.split(), s.candidate_item) for s in samples]
    a, n_pos = auc(scores, labels), sum(labels)
    n_neg = n - n_pos
    q1, q2 = a / (2 - a), 2 * a * a / (1 + a)  # Hanley & McNeil (1982)
    var = (a * (1 - a) + (n_pos - 1) * (q1 - a * a) + (n_neg - 1) * (q2 - a * a)) / (n_pos * n_neg)
    stats["oracle_auc"] = (a, math.sqrt(var))
    return stats


def test_array_draws_match_reference_loop_statistics():
    world = generate_world(WorldConfig(**UPLIFT_WORLD))
    click = ClickModel()
    rng = RngStream(202)
    array = sample_statistics(world, click, generate_samples(world, 20_000, click, rng.child("array")).all())
    loop = sample_statistics(
        world, click, generate_samples_reference(world, 20_000, click, rng.child("loop")).all()
    )
    assert array.keys() == loop.keys()
    for key, (value, se) in array.items():
        ref, ref_se = loop[key]
        assert abs(value - ref) <= 3 * math.hypot(se, ref_se), (key, value, ref)
    assert 0.8 < array["label_rate"][0] < 0.87 and array["oracle_auc"][0] > 0.83


class TestSampleIO:
    def test_round_trip(self, tmp_path):
        w = default_world()
        split = generate_samples(w, 30, ClickModel(), RngStream(8).child("s"))
        path = tmp_path / "samples.jsonl"
        save_samples(split.all(), path)
        loaded = load_samples(path)
        assert [s.to_dict() for s in loaded] == [s.to_dict() for s in split.all()]
        resplit = split_loaded(loaded)
        assert len(resplit.train) == len(split.train)
        assert [s.to_dict() for s in resplit.test] == [s.to_dict() for s in split.test]

    def test_bad_line(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        path.write_text('{"user_id": "u"}\n')
        from kdcn.errors import ParseError

        with pytest.raises(ParseError, match=":1"):
            load_samples(path)

    def test_sample_dict_round_trip(self):
        s = Sample("u1", [["i1"], [], [], []], "kw1 kw2", "i1", ["cat0"], [1.0, 2.0], 1)
        assert Sample.from_dict(s.to_dict()) == s
