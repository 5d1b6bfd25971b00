"""The names bench/ reaches into kdcn by must keep resolving.

bench/tracer.py wraps kdcn functions by module and attribute path, and
bench/probes.py binds pretrain_loss_grads' arguments by position and reads
Graph's adjacency. A name that moves makes a traced run report a null
metric instead of failing, so these tests pin the names here, along with
the access patterns bench/ relies on.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from kdcn import pretrain
from kdcn.graph import Graph, TripleSet

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")


@pytest.mark.parametrize("span,module,path", tracer.SPANS, ids=[s for s, _, _ in tracer.SPANS])
def test_every_span_resolves(span, module, path):
    found = tracer._resolve(module, path)
    assert found is not None, f"{span}: {module}.{path} no longer exists"
    owner, attr = found
    assert callable(getattr(owner, attr))


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
