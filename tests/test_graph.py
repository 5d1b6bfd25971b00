import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdcn.errors import CapacityError, IngestionError, ParseError, SchemaError
from kdcn.graph import (
    ENTITY_KINDS,
    RELATION_SIGNATURES,
    RELATIONS,
    Graph,
    TripleSet,
    ingest_events,
    load_triples,
    load_vocab,
    save_triples,
    save_vocab,
)
from kdcn.rng import RngStream
from oracles import neighbor_lists, normalized_adjacency


def two_node_graph():
    ts = TripleSet()
    ts.add("u1", "user-has-tag", "female")
    return Graph(ts)


class TestIngest:
    def test_user_profile_tag_triple(self):
        ts = ingest_events([{"type": "user_profile", "user": "u1", "tags": ["female"]}])
        assert len(ts) == 1
        tr = ts.triples[0]
        assert ts.name_of(tr.head) == "u1"
        assert RELATIONS[tr.relation] == "user-has-tag"
        assert ts.name_of(tr.tail) == "female"

    def test_empty_stream(self):
        ts = ingest_events([])
        assert len(ts) == 0 and ts.n_entities == 0

    def test_session_log_emits_four_triples(self):
        ts = ingest_events(
            [
                {
                    "type": "session_log",
                    "user": "u1",
                    "session": "s1",
                    "seller": "sh1",
                    "intention": "i1",
                    "keywords": ["dress"],
                }
            ]
        )
        rels = [RELATIONS[t.relation] for t in ts.triples]
        assert rels == [
            "user-created-session",
            "session-relates-to-seller",
            "session-has-intention",
            "intention-has-keyword",
        ]

    def test_item_listing_triples(self):
        ts = ingest_events(
            [
                {
                    "type": "item_listing",
                    "item": "i1",
                    "category": "c1",
                    "seller": "s1",
                    "properties": [{"property": "color", "value": "red"}],
                }
            ]
        )
        rels = [RELATIONS[t.relation] for t in ts.triples]
        assert rels == [
            "item-belongs-to-category",
            "seller-has-item",
            "item-has-value",
            "property-has-value",
        ]

    def test_extra_fields_ignored(self):
        ts = ingest_events(
            [
                {
                    "type": "item_listing",
                    "item": "i1",
                    "category": "c1",
                    "seller": "s1",
                    "title": "red dress",
                    "dense": [1.0],
                }
            ]
        )
        assert len(ts) == 2

    def test_unknown_event_kind(self):
        with pytest.raises(IngestionError, match="record 2"):
            ingest_events(
                [
                    {"type": "user_profile", "user": "u1", "tags": []},
                    {"type": "bogus"},
                ]
            )

    def test_missing_field(self):
        with pytest.raises(IngestionError, match="record 1"):
            ingest_events([{"type": "session_log", "user": "u1"}])

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "ab\r", 5, ["u"], {"u": 1}])
    def test_name_tsv_cannot_hold_is_schema_error(self, name):
        good = {"type": "user_profile", "user": "u1", "tags": ["t"]}
        with pytest.raises(SchemaError, match=re.escape(f"record 2: user name {name!r}")):
            ingest_events([good, {**good, "user": name}])

    def test_name_with_inner_cr_round_trips(self, tmp_path):
        ts = ingest_events([{"type": "user_profile", "user": "a\rb", "tags": ["t\r "]}])
        save_triples(ts, tmp_path / "t.tsv")
        assert load_triples(tmp_path / "t.tsv") == ts

    def test_idempotent(self):
        events = [
            {"type": "user_profile", "user": "u1", "tags": ["a", "b"]},
            {"type": "user_profile", "user": "u1", "tags": ["a", "b"]},
        ]
        once = ingest_events(events[:1])
        twice = ingest_events(events)
        assert once == twice

    def test_unknown_relation_rejected(self):
        ts = TripleSet()
        with pytest.raises(SchemaError):
            ts.add("a", "not-a-relation", "b")

    def test_unknown_kind_rejected(self):
        ts = TripleSet()
        with pytest.raises(SchemaError):
            ts.entity_id("martian", "x", create=True)


class TestNormalizedAdjacency:
    def test_two_nodes_one_edge_self_loops(self):
        g = two_node_graph()
        assert np.allclose(
            normalized_adjacency(g), [[0.5, 0.5], [0.5, 0.5]], atol=1e-15
        )

    def test_single_node_self_loop(self):
        ts = TripleSet()
        ts.entity_id("user", "only", create=True)
        assert np.array_equal(normalized_adjacency(Graph(ts)), [[1.0]])

    def test_symmetric_and_bounded(self):
        rng = RngStream(5)
        ts = TripleSet()
        for i in range(40):
            ts.add(f"u{int(rng.integers(0, 10))}", "user-has-tag", f"t{int(rng.integers(0, 8))}")
        a = normalized_adjacency(Graph(ts))
        assert np.abs(a - a.T).max() < 1e-12
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_uniform_degree_entries(self):
        # a 4-cycle: every node has degree 2; with self-loops entries are 1/3
        ts = TripleSet()
        ts.add("u0", "user-has-tag", "t0")
        ts.add("u1", "user-has-tag", "t0")
        ts.add("u1", "user-has-tag", "t1")
        ts.add("u0", "user-has-tag", "t1")
        a = normalized_adjacency(Graph(ts))
        nz = a[a > 0]
        assert np.allclose(nz, 1.0 / 3.0, atol=1e-12)

    def test_capacity_guard(self):
        ts = TripleSet()
        for i in range(10_001):
            ts.entity_id("user", f"u{i}", create=True)
        with pytest.raises(CapacityError):
            normalized_adjacency(Graph(ts))


class TestTriplesRoundTrip:
    def test_empty_set(self, tmp_path):
        path = tmp_path / "t.tsv"
        save_triples(TripleSet(), path)
        assert path.read_text() == "head\trelation\ttail\n"

    def test_single_triple_format(self, tmp_path):
        ts = TripleSet()
        ts.add("u1", "user-has-tag", "female")
        path = tmp_path / "t.tsv"
        save_triples(ts, path)
        assert path.read_text().splitlines()[1] == "u1\tuser-has-tag\tfemale"

    def test_thousand_random_triples_round_trip(self, tmp_path):
        rng = RngStream(7)
        ts = TripleSet()
        relations = list(RELATIONS)
        for _ in range(1000):
            rel = relations[int(rng.integers(0, len(relations)))]
            ts.add(f"h{int(rng.integers(0, 100))}", rel, f"t{int(rng.integers(0, 100))}")
        path = tmp_path / "t.tsv"
        save_triples(ts, path)
        loaded = load_triples(path)
        assert loaded == ts  # includes entity ids

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("head\trelation\ttail\na\tuser-has-tag\tb\nbroken line\n")
        with pytest.raises(ParseError, match=":3"):
            load_triples(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("nope\n")
        with pytest.raises(ParseError, match=":1"):
            load_triples(path)

    def test_unknown_relation_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("head\trelation\ttail\na\tbogus-rel\tb\n")
        with pytest.raises(ParseError, match="bogus-rel"):
            load_triples(path)

    def test_vocab_round_trip(self, tmp_path):
        ts = TripleSet()
        ts.add("u1", "user-has-tag", "female")
        path = tmp_path / "v.tsv"
        save_vocab(ts, path)
        assert load_vocab(path) == ts.entities


class TestGraphStructure:
    def test_adjacency_symmetric(self):
        ts = ingest_events(
            [
                {"type": "user_profile", "user": "u1", "tags": ["a", "b"]},
                {"type": "user_profile", "user": "u2", "tags": ["a"]},
            ]
        )
        g = Graph(ts)
        for i in range(g.n_entities):
            for j in g.adjacency[i]:
                assert i in g.adjacency[j]
            assert g.degrees[i] == len(g.adjacency[i])

    def test_schema_makes_a_simple_graph(self):
        # Graph relies on this: no relation joins a kind to itself and no two
        # join the same pair of kinds, so no edge repeats and none is a loop
        pairs = [frozenset(sig) for sig in RELATION_SIGNATURES.values()]
        assert all(len(pair) == 2 for pair in pairs)
        assert len(set(pairs)) == len(pairs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(sorted(ENTITY_KINDS)), st.integers(0, 3)), max_size=4),
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from(RELATIONS), st.integers(0, 3)), max_size=40),
        st.lists(st.tuples(st.sampled_from(sorted(ENTITY_KINDS)), st.integers(0, 3)), max_size=4),
    )
    def test_csr_matches_per_entity_sets(self, before, triples, after):
        # entities named only before or after the triples may stay isolated
        ts = TripleSet()
        for kind, i in before:
            ts.entity_id(kind, f"e{i}", create=True)
        for h, rel, t in triples:
            ts.add(f"e{h}", rel, f"e{t}")
        for kind, i in after:
            ts.entity_id(kind, f"e{i}", create=True)
        assert ts.array.dtype == np.int64 and ts.array.shape == (len(ts), 3)
        assert ts.array.tolist() == [list(tr) for tr in ts.triples]
        g = Graph(ts)
        expected = neighbor_lists(ts)
        assert len(g.adjacency) == g.n_entities == ts.n_entities
        assert [a.tolist() for a in g.adjacency] == [a.tolist() for a in expected]
        assert g.degrees.tolist() == [len(a) for a in expected]
        assert g.indptr.tolist() == np.concatenate([[0], np.cumsum(g.degrees)]).tolist()
        assert g.indices.tolist() == [j for a in expected for j in a.tolist()]

    def test_empty_graph(self):
        g = Graph(TripleSet())
        assert g.adjacency == [] and g.max_degree() == 0
        assert g.indptr.tolist() == [0] and len(g.indices) == len(g.degrees) == 0

    def test_array_follows_adds(self):
        ts = TripleSet()
        ts.add("u1", "user-has-tag", "t1")
        first = ts.array
        assert ts.array is first and not first.flags.writeable
        assert not ts.add("u1", "user-has-tag", "t1")  # a duplicate leaves the array
        assert ts.array is first
        ts.add("u2", "user-has-tag", "t1")
        assert ts.array.tolist() == [[0, 0, 1], [2, 0, 1]]
