"""Conversation knowledge graph storage.

The graph holds typed triples over ten entity kinds connected by exactly
nine schema relations (user tags, item catalog facts, and conversation
session facts). Triples keep their direction for the translation scorer;
the structural encoder sees an undirected, deduplicated adjacency. Numeric
code reads one array form of each: TripleSet.array, the triples as a k x 3
int64 array, and Graph's CSR arrays (indptr, indices, degrees). csr_lists
builds that CSR layout from ragged Python lists: the generator's pools and
the featurizer's keyword, category and behavior rows, which batches carry.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import IngestionError, ParseError, SchemaError, shown
from .textfile import read_lines, write_lines

# relation name -> (head kind, tail kind); ids are assigned in this order
RELATION_SIGNATURES: dict[str, tuple[str, str]] = {
    "user-has-tag": ("user", "user_tag"),
    "item-belongs-to-category": ("item", "category"),
    "seller-has-item": ("seller", "item"),
    "item-has-value": ("item", "value"),
    "property-has-value": ("property", "value"),
    "user-created-session": ("user", "session"),
    "session-relates-to-seller": ("session", "seller"),
    "session-has-intention": ("session", "intention"),
    "intention-has-keyword": ("intention", "keyword"),
}
RELATIONS: tuple[str, ...] = tuple(RELATION_SIGNATURES)
RELATION_IDS: dict[str, int] = {name: i for i, name in enumerate(RELATIONS)}
ENTITY_KINDS: frozenset[str] = frozenset(
    kind for sig in RELATION_SIGNATURES.values() for kind in sig
)


@dataclass(frozen=True)
class EntityRef:
    id: int
    kind: str
    name: str


class Triple(NamedTuple):
    head: int
    relation: int
    tail: int


class TripleSet:
    """Entity vocabulary plus an ordered, deduplicated list of triples.

    Entity ids are dense and assigned at first mention, scanning each triple
    head-first; serializing and re-reading a TripleSet therefore reproduces
    the same ids. The list and the dedup set share one Triple per triple.
    """

    def __init__(self):
        self.entities: list[EntityRef] = []
        self.triples: list[Triple] = []
        self._id_by_key: dict[tuple[str, str], int] = {}
        self._seen: set[Triple] = set()
        self._array: np.ndarray | None = None

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(RELATIONS)

    def __len__(self) -> int:
        return len(self.triples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripleSet):
            return NotImplemented
        return self.entities == other.entities and self.triples == other.triples

    def entity_id(self, kind: str, name: str, create: bool = False) -> int:
        key = (kind, name)
        try:
            eid = self._id_by_key.get(key)
        except TypeError:  # an unhashable name, such as a JSON array: _check_name rejects it
            eid = None
        if eid is None:
            if not create:
                raise KeyError(f"unknown entity {kind}:{name}")
            if kind not in ENTITY_KINDS:
                raise SchemaError(f"unknown entity kind '{kind}'")
            _check_name(kind, name)
            eid = len(self.entities)
            self.entities.append(EntityRef(eid, kind, name))
            self._id_by_key[key] = eid
        return eid

    def add(self, head_name: str, relation: str, tail_name: str) -> bool:
        """Add one triple by entity names; returns False if it was a duplicate."""
        sig = RELATION_SIGNATURES.get(relation)
        if sig is None:
            raise SchemaError(f"unknown relation '{relation}'")
        h = self.entity_id(sig[0], head_name, create=True)
        t = self.entity_id(sig[1], tail_name, create=True)
        tr = Triple(h, RELATION_IDS[relation], t)
        if tr in self._seen:
            return False
        self._seen.add(tr)
        self.triples.append(tr)
        self._array = None
        return True

    @property
    def array(self) -> np.ndarray:
        """The triples as a read-only k x 3 int64 array, in order; rebuilt after an add."""
        if self._array is None:
            flat = chain.from_iterable(self.triples)
            self._array = np.fromiter(flat, dtype=np.int64, count=3 * len(self)).reshape(-1, 3)
            self._array.flags.writeable = False
        return self._array

    def name_of(self, eid: int) -> str:
        return self.entities[eid].name


def _check_name(kind: str, name) -> None:
    """Raise SchemaError unless name can be a field of triples.tsv and vocab.tsv.

    A TSV field holds no TAB or LF, and the line reader drops a CR before
    the LF, so a name may not end in CR either.
    """
    if not isinstance(name, str):
        raise SchemaError(f"{kind} name {shown(name)} is not a string")
    if "\t" in name or "\n" in name or name.endswith("\r"):
        raise SchemaError(f"{kind} name {shown(name)} holds a TAB or LF or ends in CR")


_EVENT_FIELDS = {
    "user_profile": ("user", "tags"),
    "item_listing": ("item", "category", "seller"),
    "session_log": ("user", "session", "seller", "intention", "keywords"),
}


def json_array(item_ok=lambda x: True):
    """A check for a JSON array whose every item passes item_ok."""
    return lambda v: isinstance(v, list) and all(map(item_ok, v))


def json_number(x) -> bool:
    """Whether x is a JSON number that is a finite float64. A bool is not a
    number here; json reads NaN, Infinity and a literal past the float64
    range (1e400) as non-finite floats, and an integer must fit, as the
    featurizer stores dense values in one."""
    return (type(x) is float and math.isfinite(x)) or (type(x) is int and abs(x) <= sys.float_info.max)


def json_string(x) -> bool:
    return isinstance(x, str)


# the check of a dense statistics field, in events and in samples.jsonl alike
DENSE_VALUES = (json_array(json_number), "an array of finite numbers that fit a float64")


# the JSON type of each field an event type reads beyond its names (which
# _check_name checks): field -> (check, what it must be); checked when present
_EVENT_TYPES = {
    "user_profile": {"tags": (json_array(), "an array")},
    "item_listing": {
        "properties": (
            json_array(lambda p: isinstance(p, dict) and "property" in p and "value" in p),
            "an array of objects with 'property' and 'value'",
        ),
        "title": (json_string, "a string"),
        "dense": DENSE_VALUES,
    },
    "session_log": {"keywords": (json_array(), "an array")},
}


def check_event(rec) -> None:
    """Raise IngestionError unless rec is a dict of a known event type with its
    fields, each field of the JSON type the event type reads it as."""
    if not isinstance(rec, dict) or "type" not in rec:
        raise IngestionError("missing 'type' field")
    etype = rec["type"]
    required = _EVENT_FIELDS.get(etype) if isinstance(etype, str) else None
    if required is None:
        raise IngestionError(f"unknown event type {shown(etype)}")
    missing = [f for f in required if f not in rec]
    if missing:
        raise IngestionError(f"missing field(s) {missing} for '{etype}'")
    for name, (ok, what) in _EVENT_TYPES[etype].items():
        if name in rec and not ok(rec[name]):
            raise IngestionError(f"field '{name}' of '{etype}' must be {what}")


def ingest_events(records) -> TripleSet:
    """Turn an iterable of event dicts into schema triples.

    Three event types are understood: user_profile (tag facts), item_listing
    (catalog facts; its "title" and "dense" fields add no triple), and
    session_log (conversation facts). Identical triples are deduplicated and
    entities are created on first mention. A malformed record or entity name
    raises IngestionError or SchemaError naming the 1-based record number.
    """
    tset = TripleSet()
    for number, rec in enumerate(records, start=1):
        try:
            check_event(rec)
            _ingest_event(rec, tset)
        except (IngestionError, SchemaError) as exc:
            raise type(exc)(f"record {number}: {exc}") from None
    return tset


def _ingest_event(rec: dict, tset: TripleSet) -> None:
    etype = rec["type"]
    if etype == "user_profile":
        for tag in rec["tags"]:
            tset.add(rec["user"], "user-has-tag", tag)
    elif etype == "item_listing":
        tset.add(rec["item"], "item-belongs-to-category", rec["category"])
        tset.add(rec["seller"], "seller-has-item", rec["item"])
        for prop in rec.get("properties", []):
            tset.add(rec["item"], "item-has-value", prop["value"])
            tset.add(prop["property"], "property-has-value", prop["value"])
    else:  # session_log
        tset.add(rec["user"], "user-created-session", rec["session"])
        tset.add(rec["session"], "session-relates-to-seller", rec["seller"])
        tset.add(rec["session"], "session-has-intention", rec["intention"])
        for kw in rec["keywords"]:
            tset.add(rec["intention"], "intention-has-keyword", kw)


def _event(line: str) -> dict:
    try:
        record = json.loads(line.strip())  # any Unicode whitespace around a record is ignored
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ParseError(f"invalid JSON ({exc})") from None
    if not isinstance(record, dict):
        raise ParseError(f"expected a JSON object, got {type(record).__name__}")
    check_event(record)
    return record


def load_events(path) -> list[dict]:
    """Read events.jsonl; a line that is not JSON or not an event (check_event)
    raises ParseError with the offending line number."""
    return read_lines(path, _event)


def save_events(records, path) -> None:
    write_lines(path, (json.dumps(rec) for rec in records))


class Graph:
    """Undirected view of a TripleSet for structural aggregation, in CSR form.

    The neighbors of entity i are indices[indptr[i]:indptr[i+1]], sorted,
    from one sort of the edge keys u*n + v of both directions. No relation
    joins a kind to itself and no two join the same pair of kinds, so no
    edge repeats and no entity is its own neighbor (pretrain.sample_layer_draws
    adds each entity to its own operator row).
    """

    def __init__(self, tset: TripleSet):
        self.triples = tset
        n = self.n_entities = tset.n_entities
        u, v = tset.array[:, 0], tset.array[:, 2]
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        self.indices = keys % n
        self.degrees = np.bincount(keys // n, minlength=n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])

    @cached_property
    def adjacency(self) -> list[np.ndarray]:
        """Per-entity views of indices: row i is entity i's neighbor ids."""
        return np.split(self.indices, self.indptr[1:-1]) if self.n_entities else []

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n_entities else 0


def csr_lists(lists, lookup=None) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers (len(lists) + 1,) and the flat int64 ids of lists of ints, or
    of lists of keys that lookup maps to ints: that spares a list of ints per
    row, which for the 64k behavior lists of 16k samples cost 3 MB of RSS."""
    counts = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
    indptr = np.concatenate([[0], np.cumsum(counts)])
    flat = chain.from_iterable(lists)
    flat = flat if lookup is None else map(lookup.__getitem__, flat)
    return indptr, np.fromiter(flat, dtype=np.int64, count=int(indptr[-1]))


TRIPLES_HEADER = "head\trelation\ttail"


def _tsv_fields(line: str) -> list[str]:
    parts = line.split("\t")
    if len(parts) != 3:
        raise ParseError("expected 3 tab-separated fields")
    return parts


def save_triples(tset: TripleSet, path) -> None:
    """Write a TripleSet as TSV: header line, then name\trelation\tname rows."""
    rows = (
        f"{tset.name_of(tr.head)}\t{RELATIONS[tr.relation]}\t{tset.name_of(tr.tail)}"
        for tr in tset.triples
    )
    write_lines(path, chain([TRIPLES_HEADER], rows))


def load_triples(path) -> TripleSet:
    tset = TripleSet()
    # TripleSet.add rejects an unknown relation
    read_lines(path, lambda line: tset.add(*_tsv_fields(line)), header=TRIPLES_HEADER)
    return tset


def save_vocab(tset: TripleSet, path) -> None:
    """Write the entity vocabulary as TSV lines id\tkind\tname."""
    write_lines(path, (f"{ent.id}\t{ent.kind}\t{ent.name}" for ent in tset.entities))


def _entity(line: str) -> EntityRef:
    eid, kind, name = _tsv_fields(line)
    try:
        return EntityRef(int(eid), kind, name)
    except ValueError:
        raise ParseError(f"bad entity id '{eid}'") from None


def load_vocab(path) -> list[EntityRef]:
    """The entities of a vocab file; a repeated (kind, name) is a ParseError at its line."""
    seen: set[tuple[str, str]] = set()

    def entity(line: str) -> EntityRef:
        ent = _entity(line)
        if (ent.kind, ent.name) in seen:
            raise ParseError(f"repeated entity {ent.kind} '{ent.name}'")
        seen.add((ent.kind, ent.name))
        return ent

    return read_lines(path, entity)
