"""The shared text-file rules, and fuzz tests of every text reader built on them."""

import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdcn.cli import load_config
from kdcn.datagen import SAMPLE_KEYS, Sample, load_samples, save_samples
from kdcn.errors import KdcnError, ParseError
from kdcn.graph import (
    TRIPLES_HEADER,
    EntityRef,
    TripleSet,
    load_events,
    load_triples,
    load_vocab,
    save_events,
    save_triples,
    save_vocab,
)
from kdcn.textfile import iter_lines, read_lines, write_lines


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # hypothesis reruns a test body many times, so the file lives in a module-scoped directory
    return tmp_path_factory.mktemp("fuzz")


class TestReadLines:
    def test_skips_blank_lines_and_drops_line_ends(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a \r\n\n \t\r\n\x0b\xc2\xa0\n b\nc")
        assert read_lines(path, str) == ["a ", " b", "c"]

    def test_header_is_checked_and_not_parsed(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"h\r\nx\n")
        assert read_lines(path, str, header="h") == ["x"]
        path.write_bytes(b"")
        with pytest.raises(ParseError, match=re.escape(f"{path}:1: expected header 'h', got ''")):
            read_lines(path, str, header="h")

    @pytest.mark.parametrize("error", [KdcnError, ValueError, TypeError, KeyError])
    def test_parse_error_names_path_and_line(self, tmp_path, error):
        path = tmp_path / "f.txt"
        path.write_text("ok\n\nbad\n")

        def parse(line):
            if line == "bad":
                raise error("boom")
            return line

        with pytest.raises(ParseError, match=re.escape(f"{path}:3: ") + ".*boom"):
            read_lines(path, parse)

    def test_iter_lines_reads_only_as_far_as_asked(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"h\na\n\nb\n\xff\n")
        lines = iter_lines(path, str, header="h")
        assert [next(lines), next(lines)] == ["a", "b"]  # line 5 is not UTF-8
        with pytest.raises(ParseError, match=re.escape(f"{path}:5: ")):
            next(lines)

    def test_non_utf8_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\n\xffok\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: 'utf-8' codec")):
            read_lines(path, str)

    def test_write_lines_is_utf8_with_lf(self, tmp_path):
        path = tmp_path / "f.txt"
        write_lines(path, ["é", "", "x"])
        assert path.read_bytes() == "é\n\nx\n".encode("utf-8")


# --- fuzz: each format's reader over valid, blank and bad lines ------------

# text that keeps a TSV field or config token in one piece
_token = st.text(st.characters(blacklist_characters="\t\n\r#=", blacklist_categories=("Cs",)), min_size=1)
_name = _token.filter(lambda s: s.strip() == s)
_blank = st.text(st.sampled_from(" \t\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"), max_size=4)
_not_utf8 = st.tuples(
    st.text(st.characters(blacklist_characters="\n", blacklist_categories=("Cs",)), max_size=5),
    st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]),
).map(lambda t: t[0].encode("utf-8") + t[1])


def _sample_record(user):
    return Sample(user, [["i1"], [], [], []], "kw1", "i1", ["c0"], [1.5], 1)


def _triple_set(pairs) -> TripleSet:
    tset = TripleSet()
    for head, tail in pairs:
        tset.add(head, "user-has-tag", tail)
    return tset


# format -> (reader, header, valid (line, item) strategy, malformed-record strategy,
#            expected reader result from the valid items)
FORMATS = {
    "config": (
        load_config,
        None,
        st.tuples(_name, _name).map(lambda kv: (f" {kv[0]} = {kv[1]} # note", kv)),
        _name.filter(lambda s: "=" not in s),
        dict,
    ),
    "events": (
        load_events,
        None,
        _name.map(lambda u: {"type": "user_profile", "user": u, "tags": []}).map(
            lambda rec: (json.dumps(rec), rec)
        ),
        st.sampled_from(
            [
                "{", "[1,", "nope", '{"a": }', "[" * 100_000, "5", "[]",
                '{"type": "user_profile", "user": "u"}', '{"type": ["x"]}', '{"user": "u"}',
                '{"type": "user_profile", "user": "u", "tags": "ab"}',
            ]
        ),
        list,
    ),
    "samples": (
        load_samples,
        None,
        _name.map(lambda u: (json.dumps(_sample_record(u).to_dict()), _sample_record(u))),
        st.sampled_from(
            [
                "{", "{}", "[]", "5", "[" * 100_000,
                json.dumps({**_sample_record("u").to_dict(), "label": 2}),
                json.dumps({**_sample_record("u").to_dict(), "dense": [10**400]}),  # no float holds it
            ]
        ),
        list,
    ),
    "vocab": (
        load_vocab,
        None,
        st.builds(EntityRef, st.integers(0, 99), st.just("user"), _name).map(
            lambda e: (f"{e.id}\t{e.kind}\t{e.name}", e)
        ),
        st.sampled_from(["a\tb", "1\t2\t3\t4", "x\tuser\tname", "only"]),
        list,
    ),
    "triples": (
        load_triples,
        TRIPLES_HEADER,
        st.tuples(_name, _name).map(lambda t: (f"{t[0]}\tuser-has-tag\t{t[1]}", t)),
        st.sampled_from(["a\tb", "a\tbogus-rel\tb", "a\tuser-has-tag\tb\tc"]),
        _triple_set,
    ),
}


def _line(valid, malformed):
    return st.one_of(
        valid.map(lambda v: ("valid", v[0].encode("utf-8"), v[1])),
        _blank.map(lambda s: ("blank", s.encode("utf-8"), None)),
        malformed.map(lambda s: ("bad", s.encode("utf-8"), None)),
        _not_utf8.map(lambda b: ("bad", b, None)),
    )


def _file_bytes(header, lines, crlf, final_newline) -> bytes:
    end = b"\r\n" if crlf else b"\n"
    body = end.join(([header.encode("utf-8")] if header else []) + lines)
    return body + end if final_newline else body


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reader_fails_at_first_bad_line_or_reads_every_record(fuzz_dir, fmt, data):
    reader, header, valid, malformed, expect = FORMATS[fmt]
    lines = data.draw(st.lists(_line(valid, malformed), max_size=8))
    # a repeated config key, or a repeated vocab (kind, name), is a bad line
    key_of = {"config": lambda item: item[0], "vocab": lambda item: (item.kind, item.name)}.get(fmt)
    if key_of:
        keys = [key_of(item) if kind == "valid" else None for kind, _, item in lines]
        lines = [
            ("bad", raw, None) if key is not None and key in keys[:i] else (kind, raw, item)
            for i, ((kind, raw, item), key) in enumerate(zip(lines, keys))
        ]
    crlf, final_newline = data.draw(st.booleans()), data.draw(st.booleans())
    path = fuzz_dir / f"{fmt}.txt"
    path.write_bytes(_file_bytes(header, [raw for _, raw, _ in lines], crlf, final_newline))
    first_bad = next((i for i, (kind, _, _) in enumerate(lines) if kind == "bad"), None)
    if first_bad is None:
        assert reader(path) == expect([item for kind, _, item in lines if kind == "valid"])
    else:
        lineno = first_bad + 1 + (header is not None)
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:{lineno}: ")):
            reader(path)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reader_on_arbitrary_bytes_ends_in_kdcn_error_or_result(fuzz_dir, fmt, data):
    reader, header, _, _, _ = FORMATS[fmt]
    line = st.one_of(st.binary(max_size=12), st.text(max_size=12).map(str.encode))
    lines = data.draw(st.lists(line, max_size=6))
    if header is not None and data.draw(st.booleans()):
        lines = [header.encode("utf-8"), *lines]
    path = fuzz_dir / f"{fmt}.any"
    path.write_bytes(b"\n".join(lines))
    try:
        result = reader(path)
    except KdcnError as exc:
        assert re.match(re.escape(str(path)) + r":\d+: ", str(exc)), exc
    else:
        assert isinstance(result, (list, dict, TripleSet))


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


def _is_strings(v) -> bool:
    return type(v) is list and all(type(x) is str for x in v)


def _has_declared_types(s: Sample) -> bool:
    return (
        all(type(v) is str for v in (s.user_id, s.query, s.candidate_item))
        and type(s.behaviors) is list and all(map(_is_strings, s.behaviors))
        and _is_strings(s.categories)
        and type(s.dense) is list and all(type(x) is float for x in s.dense)
        and type(s.label) is int and s.label in (0, 1)
    )


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(SAMPLE_KEYS), value=_json)
def test_sample_with_any_json_field_loads_typed_or_names_its_line(fuzz_dir, field, value):
    good = _sample_record("u").to_dict()
    path = fuzz_dir / "field.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    try:
        loaded = load_samples(path)[1]
    except ParseError as exc:
        assert str(exc).startswith(f"{path}:2: "), exc
    else:
        assert _has_declared_types(loaded), loaded
        assert field == "dense" or getattr(loaded, field) == value


# --- write_lines -> reader round trips ----------------------------------------

# a TSV field may hold anything but TAB and LF, and may not end in CR
_field = st.text(st.characters(blacklist_characters="\t\n", blacklist_categories=("Cs",))).filter(
    lambda s: not s.endswith("\r")
)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(_field, _field), max_size=10))
def test_triples_and_vocab_round_trip_random_names(fuzz_dir, pairs):
    tset = _triple_set(pairs)
    save_triples(tset, fuzz_dir / "t.tsv")
    save_vocab(tset, fuzz_dir / "v.tsv")
    assert load_triples(fuzz_dir / "t.tsv") == tset
    assert load_vocab(fuzz_dir / "v.tsv") == tset.entities


@settings(max_examples=60, deadline=None)
@given(names=st.lists(st.text(), max_size=10))
def test_jsonl_round_trips_random_names(fuzz_dir, names):
    records = [{"type": "user_profile", "user": name, "tags": [name]} for name in names]
    save_events(records, fuzz_dir / "e.jsonl")
    assert load_events(fuzz_dir / "e.jsonl") == records
    samples = [_sample_record(name) for name in names]
    save_samples(samples, fuzz_dir / "s.jsonl")
    assert load_samples(fuzz_dir / "s.jsonl") == samples
