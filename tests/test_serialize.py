from __future__ import annotations

import base64
import hashlib
import json
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oit import (
    Information,
    Profile,
    ReflectionRecord,
    StateRecord,
    ValidationError,
    emit_instance,
    generate_synthetic,
    instance_digest,
    parse_decoder,
    parse_document,
    parse_instance,
    parse_target,
    parse_weights_file,
    validity,
    volume,
)
from oit import serialize
from oit.model import brief, brief_repr
from oit.serialize import (
    MALFORMED,
    SCHEMA,
    document_to_text,
    text_digest,
)

from . import reader_differential as differential
from .paths import FIXTURES, REPO_ROOT, load_script
from .strategies import ANY_NAMES, ANY_TICKS, ANY_VALUES, informations, weight_tables

oracle = load_script("oracle", REPO_ROOT / "bench")
BASE_MEMBERS = differential.base_members()
# The profile of the benchmark's 8k-link ingest document.
INGEST_PROFILE = Profile(entities=2000, media=250, tick_span=64, replication=3, aggregation=0.25)
# (count, kinds, sizes) at and across the writer's 256-record batches.
BATCH_EDGES = [(count, kinds, sizes) for count in (1, 255, 256, 257, 513)
               for kinds, sizes in ((1, 1), (4, 1), (1, 3), (4, 3))]


def batch_edge_instance(count: int, kinds: int, sizes: int):
    """``count`` states, reflections and links; values cycle through the first
    ``kinds`` of text, integer, bytes and rational, and token sets through 1 to
    ``sizes`` tokens."""
    def value(i):
        return ("v%d" % i, i - 100, b"\x00b%d" % i, Fraction(i, 7))[i % kinds]

    def tokens(prefix, i):
        return {"%s%d" % (prefix, (i + k) % 5) for k in range(1 + i % sizes)}

    return Information(
        [StateRecord("s%d" % i, tokens("e", i), i, value(i)) for i in range(count)],
        [ReflectionRecord("r%d" % i, tokens("m", i + 1), i, value(i + 1)) for i in range(count)],
        [("s%d" % i, "r%d" % (count - 1 - i)) for i in range(count)],
    )

# Text that json writes in every way it has: plain, non-ASCII, control characters
# and lone surrogates, each escaped by the C quoting the writer uses.
JSON_TEXT = st.text(st.one_of(
    st.characters(),
    st.characters(max_codepoint=0x1F),
    st.characters(categories=["Cs"]),
), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(10**80), 10**80),
        st.floats(),
        JSON_TEXT,
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=16,
)


def reference_value(value):
    if isinstance(value, bytes):
        return {"b64": base64.b64encode(value).decode("ascii")}
    if isinstance(value, Fraction):
        return {"rational": str(value)}
    return value


def reference_doc(info, weights=None) -> dict:
    """The instance document as a tree of JSON values, for the oracle to write."""
    doc = {
        "version": 1,
        "entities": sorted(info.ontology),
        "media": sorted(info.carrier),
        "state_records": [
            {"id": rec.id, "entities": sorted(rec.entities), "tick": rec.tick,
             "value": reference_value(rec.value)}
            for rec in sorted(info.states, key=lambda r: r.id)
        ],
        "reflection_records": [
            {"id": rec.id, "media": sorted(rec.media), "tick": rec.tick,
             "value": reference_value(rec.value)}
            for rec in sorted(info.reflections, key=lambda r: r.id)
        ],
        "links": [{"from": a, "to": b} for a, b in sorted(info.links)],
    }
    if weights:
        doc["weights"] = {
            universe: {str(k): str(w) for k, w in table.items()}
            for universe, table in weights.items()
        }
    return doc


def codes(excinfo):
    return {d.code for d in excinfo.value.diagnostics}


class TestRoundTrip:
    def test_example_document(self, ex1, fixtures_dir):
        text = (fixtures_dir / "ex1.json").read_text()
        assert parse_instance(text) == ex1

    def test_parse_emit_parse_identity(self, ex1):
        text = emit_instance(ex1)
        again = parse_instance(text)
        assert again == ex1
        assert emit_instance(again) == text

    def test_emit_is_byte_stable(self, ex1):
        assert emit_instance(ex1) == emit_instance(ex1)

    def test_digest_is_content_addressed(self, ex1):
        reordered = json.loads(emit_instance(ex1))
        reordered["links"] = list(reversed(reordered["links"]))
        assert parse_instance(json.dumps(reordered)) == ex1
        assert instance_digest(parse_instance(json.dumps(reordered))) == instance_digest(ex1)

    @given(informations())
    @settings(max_examples=60)
    def test_round_trip_on_generated_instances(self, info):
        text = emit_instance(info)
        assert parse_instance(text) == info
        assert emit_instance(parse_instance(text)) == text


class TestCanonicalWriter:
    @given(st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=5))
    @settings(max_examples=200)
    def test_writes_what_json_dumps_writes(self, doc):
        assert document_to_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
    def test_non_finite_and_extreme_floats(self, value):
        doc = {"approx": value, "list": [value]}
        assert document_to_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @given(st.data())
    @settings(max_examples=80)
    def test_emit_and_digest_match_the_benchmark_oracle(self, data):
        names = data.draw(st.sampled_from([None, ANY_NAMES]))
        info = data.draw(informations(values=ANY_VALUES, names=names, ticks=ANY_TICKS))
        weights = data.draw(weight_tables(info))
        text = emit_instance(info, weights)
        assert text == oracle.canonical_text(reference_doc(info, weights))
        assert parse_document(text) == (info, weights)
        assert instance_digest(info) == text_digest(emit_instance(info))

    @pytest.mark.parametrize("count, kinds, sizes", BATCH_EDGES)
    def test_batch_edges_match_the_benchmark_oracle(self, count, kinds, sizes):
        """Emitted, and digested both from the streamed text and from the text
        that emitting keeps."""
        info = batch_edge_instance(count, kinds, sizes)
        assert len(info.states) == len(info.reflections) == len(info.links) == count
        streamed = instance_digest(info)
        text = emit_instance(info)
        assert vars(info)[serialize._TEXT] is text
        assert text == oracle.canonical_text(reference_doc(info))
        assert instance_digest(info) == streamed == text_digest(text)

    def test_text_is_kept_only_without_weights(self, ex1):
        info = Information(ex1.states, ex1.reflections, ex1.links)
        emit_instance(info, {"entities": {"a": 1, "b": 2}})
        assert serialize._TEXT not in vars(info)
        assert instance_digest(info) == text_digest(emit_instance(info))
        assert serialize._TEXT in vars(info)

    @pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")])
    def test_digests_equal_hashlib_with_or_without_the_built_in_hash(self, monkeypatch,
                                                                      blocked):
        """The built-in SHA-256, and ``hashlib`` when no built-in module imports,
        give ``hashlib``'s digest of every batch-edge text."""
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)
        assert (type(serialize._sha256()) is type(hashlib.sha256())) == bool(blocked)
        for edges in BATCH_EDGES:
            text = emit_instance(batch_edge_instance(*edges))
            expected = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert serialize._sha256(text.encode("utf-8")).hexdigest() == expected
            assert text_digest(text) == "sha256:" + expected

    def test_digest_streams_the_text(self):
        """Hashing holds a bounded part of the text, whether it is written as it
        is hashed or was kept by ``emit_instance``."""
        info = generate_synthetic(1, Profile(entities=2000, media=250, replication=3))
        text = emit_instance(info)
        assert len(info.links) > 7500
        fresh = Information(info.states, info.reflections, info.links)
        for instance in (fresh, info):
            tracemalloc.start()
            try:
                digest = instance_digest(instance)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert digest == text_digest(text)
            assert peak < len(text) / 4
        assert serialize._TEXT not in vars(fresh)

    def test_documents_round_trip_byte_for_byte(self):
        texts = [path.read_text() for path in sorted(FIXTURES.glob("ex1*.json"))]
        texts += [emit_instance(generate_synthetic(seed)) for seed in range(100)]
        for text in texts:
            assert emit_instance(*parse_document(text)) == text
            assert oracle.canonical_text(json.loads(text)) == text


class TestRepeatedLinks:
    """A link listed more than once is read as listed once, where it first appears."""

    @staticmethod
    def _with_links(info, links) -> str:
        doc = json.loads(emit_instance(info))
        doc["links"] = [{"from": a, "to": b} for a, b in links]
        return json.dumps(doc)

    @pytest.mark.parametrize("parse", [parse_document, parse_target])
    def test_repeats_parse_like_the_links_listed_once(self, ex1, parse):
        links = sorted(ex1.links)
        first, second = links[:2]
        repeated = [first, first, *links, second, first]
        assert parse(self._with_links(ex1, repeated)) == parse(emit_instance(ex1))

    @pytest.mark.parametrize("parse", [parse_document, parse_target])
    def test_repeated_dangling_links_are_reported_once_in_first_seen_order(self, ex1, parse):
        links = sorted(ex1.links)
        late, early = ("s9", "r1"), ("s8", "r1")
        repeated = [*links[:2], late, *links[2:], early, late, early, late]
        with pytest.raises(ValidationError) as exc:
            parse(self._with_links(ex1, repeated))
        assert [d.message for d in exc.value.diagnostics] == [
            "dangling link source: s9 is not a declared state record",
            "dangling link source: s8 is not a declared state record",
        ]


def parse_outcome(parse, text):
    """What ``parse(text)`` returns, or the diagnostics it raises."""
    try:
        return parse(text)
    except ValidationError as exc:
        return exc.diagnostics


class TestMemberReader:
    """Every document is read one top-level member at a time, and read as json
    reads it."""

    @given(st.randoms(use_true_random=True))
    @settings(max_examples=300)
    def test_decodes_what_json_loads_decodes(self, rng):
        text = differential.mutated_text(rng, BASE_MEMBERS)
        assert (differential.outcome(differential.read_members, text)
                == differential.outcome(json.loads, text))
        assert not differential.untaken_object(text)
        assert not differential.repeats_differ(text)

    @given(st.randoms(use_true_random=True))
    @settings(max_examples=150)
    def test_documents_read_as_json_reads_them(self, rng):
        """A text json decodes is read as json's own reading of it, written
        again: whitespace and escapes change nothing.  A text that names a
        member twice in one object is refused instead: by every reader, before
        anything else, at the top level, and by the instance reader, which
        reads every member, anywhere."""
        text = differential.mutated_text(rng, BASE_MEMBERS)
        try:
            doc = json.loads(text, object_pairs_hook=serialize._object_from_pairs)
        except (ValueError, RecursionError):
            return
        parses = (parse_document, parse_target, parse_decoder, parse_weights_file)
        if type(doc) is serialize._Repeated:
            for parse in parses:
                with pytest.raises(ValidationError) as exc:
                    parse(text)
                assert [d.message for d in exc.value.diagnostics] == [
                    "$: repeated member %s" % brief_repr(doc.name)]
        elif differential.json_repeats(text):
            with pytest.raises(ValidationError):
                parse_document(text)
        else:
            for parse in parses:
                assert parse_outcome(parse, text) == parse_outcome(parse, json.dumps(doc))

    def test_well_formed_documents_are_read_member_by_member(self, monkeypatch):
        texts = [path.read_text() for path in sorted(FIXTURES.glob("*.json"))]
        texts += [json.dumps(json.loads(texts[0])), " \r\n%s\t" % texts[0]]
        assert all(map(differential.taken, texts))
        members, taken = serialize._MemberReader._members, []

        def spy(self, s):
            doc = members(self, s)
            taken.extend(doc)
            return doc

        monkeypatch.setattr(serialize._MemberReader, "_members", spy)
        for parse, name in ((parse_document, "ex1"), (parse_target, "ex1_s1"),
                            (parse_decoder, "decoder_const_s1"), (parse_weights_file, "weights_ex1")):
            text = (FIXTURES / (name + ".json")).read_text()
            taken.clear()
            parse(text)
            assert taken == list(json.loads(text)), parse.__name__

    @pytest.mark.parametrize("parse", [parse_document, parse_target, parse_decoder,
                                       parse_weights_file])
    def test_a_repeated_member_is_refused(self, ex1, parse):
        """Wherever it stands and whatever either value is, and before the version."""
        text = emit_instance(ex1)
        for repeated in (text.replace("{", '{"state_records": [{"id": 1}],', 1),
                         text[:-3] + ',\n  "state_records": 5' + text[-3:],
                         text.replace("{", '{"state_records": 5,', 1).replace('"version": 1',
                                                                              '"version": 2')):
            with pytest.raises(ValidationError) as exc:
                parse(repeated)
            assert [(d.code, d.message, d.subjects) for d in exc.value.diagnostics] == [
                (SCHEMA, "$: repeated member 'state_records'", ("$",))]

    def test_parse_holds_one_member_tree_at_a_time(self):
        """Parsing the ingest document allocates little beyond the instance it
        returns: no whole-document JSON tree is held."""
        text = emit_instance(generate_synthetic(1, INGEST_PROFILE))
        tracemalloc.start()
        try:
            info, _ = parse_document(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(info.links) > 8000
        assert peak - held < 2.5 * 2**20


def json_objects(value, path="$"):
    """Each JSON object in ``value`` with its path, ``$`` for the top level."""
    if isinstance(value, dict):
        yield path, value
        for name, member in value.items():
            yield from json_objects(member, name if path == "$" else "%s.%s" % (path, name))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_objects(item, "%s[%d]" % (path, i))


def text_with_member(value, target, name, extra, at) -> str:
    """``value`` as JSON text, with the member ``name: extra`` put at index ``at``
    of the object ``target``, whether or not ``target`` already names it."""
    def write(value):
        if isinstance(value, dict):
            pairs = list(value.items())
            if value is target:
                pairs.insert(at, (name, extra))
            return "{%s}" % ", ".join("%s: %s" % (json.dumps(k), write(v)) for k, v in pairs)
        if isinstance(value, list):
            return "[%s]" % ", ".join(map(write, value))
        return json.dumps(value)

    return write(value)


# Every member name of every object an instance, target, decoder or weights document holds.
DECLARED = frozenset(("version", "entities", "media", "state_records", "reflection_records",
                      "links", "weights", "id", "tick", "value", "from", "to", "b64", "rational",
                      "kind", "distance", "entries", "reflection", "state"))
ENTRY = '{"reflection": {"media": ["m1"], "tick": 4, "value": "v1"}, %s"state": %s}'
STATE_SIDE = '{"entities": ["a"], "tick": 1, "value": "v1"%s}'


class TestDeclaredMembers:
    """Each kind of object a document holds declares its members once: a name
    repeated in an object, or outside its members, is refused and named."""

    @given(informations(values=ANY_VALUES), st.data())
    @settings(max_examples=150)
    def test_a_repeated_or_unknown_member_is_refused_in_any_object(self, info, data):
        doc = json.loads(emit_instance(info))
        path, obj = data.draw(st.sampled_from(list(json_objects(doc))), label="object")
        if data.draw(st.booleans(), label="repeated"):
            name = data.draw(st.sampled_from(sorted(obj)), label="name")
            subject, message = path, "repeated member %s" % brief_repr(name)
        else:
            name = data.draw(ANY_NAMES.filter(lambda n: n not in DECLARED), label="name")
            subject = brief(name) if path == "$" else "%s.%s" % (path, brief(name))
            message = "unknown member"
        extra = data.draw(JSON_VALUES, label="value")
        text = text_with_member(doc, obj, name, extra, data.draw(st.integers(0, len(obj))))
        with pytest.raises(ValidationError) as exc:
            parse_document(text)
        assert [(d.code, d.message, d.subjects) for d in exc.value.diagnostics] == [
            (SCHEMA, "%s: %s" % (subject, message), (subject,))]

    @pytest.mark.parametrize("parse, text, expected", [
        (parse_decoder, '{"version": 1, "kind": "preimage", "distanse": "numeric-l1"}',
         ["distanse: unknown member"]),
        (parse_decoder, '{"version": 1, "kind": "table", "entries": [%s]}'
         % ENTRY % ('"weight": 1, ', STATE_SIDE % ""), ["entries[0].weight: unknown member"]),
        (parse_decoder, '{"version": 1, "kind": "table", "entries": [%s]}'
         % ENTRY % ("", STATE_SIDE % ', "id": "s1"'), ["entries[0].state.id: unknown member"]),
        (parse_decoder, '{"version": 1, "kind": "table", "entries": [%s]}'
         % ENTRY % ("", STATE_SIDE % ', "tick": 2'), ["entries[0].state: repeated member 'tick'"]),
        (parse_decoder, '{"version": 1, "kind": "table", "entries": [{"reflection": {}}]}',
         ["entries[0].state: expected an object"]),
        (parse_weights_file, '{"version": 1, "weights": {"entities": {"a": 1, "a": 2}}}',
         ["weights.entities: repeated member 'a'"]),
        (parse_weights_file, '{"version": 1, "weights": {"media": {}, "media": {}}}',
         ["weights: repeated member 'media'"]),
        (parse_weights_file, '{"version": 1, "weights": {}, "colour": 1}',
         ["colour: unknown member"]),
        (parse_decoder, '{"version": 1, "kind": "preimage", "entries": [{"reflection": 5}]}',
         ["entries[0].reflection: expected an object", "entries[0].state: expected an object"]),
        (parse_decoder, '{"version": 1, "kind": "table", "distance": "l2", "entries": 7}',
         ["entries: expected a list"]),
        (parse_decoder, '{"version": 1, "kind": "table"}', ["entries: expected a list"]),
        (parse_target, '{"version": 1, "stat_records": []}', ["stat_records: unknown member"]),
        (parse_target, '{"version": 1, "weights": {"entities": {"a": "x"}, "colour": 5}}',
         ["weights.entities.a: invalid weight literal 'x'", "weights.colour: unknown universe"]),
        (parse_document, '{"version": 1, "stat_records": []}', ["stat_records: unknown member"]),
        (parse_document, '{"version": 1, "kind": "preimage"}', ["kind: unknown member"]),
    ], ids=["decoder-distance", "decoder-entry", "decoder-side", "decoder-side-repeat",
            "decoder-side-missing", "weights-table", "weights-universes", "weights-top",
            "decoder-preimage-entries", "decoder-entries-first", "decoder-table-no-entries",
            "target-top", "target-weights",
            "instance-top", "decoder-as-instance"])
    def test_side_documents_and_top_levels(self, parse, text, expected):
        """Every member a document declares is read, whatever its other members say,
        and a reader fault ends the parse."""
        with pytest.raises(ValidationError) as exc:
            parse(text)
        assert [d.message for d in exc.value.diagnostics] == expected
        assert {d.code for d in exc.value.diagnostics} == {SCHEMA}


class TestValues:
    def test_bytes_and_rationals_round_trip(self):
        info = Information(
            [StateRecord("s1", {"a"}, 1, b"\x00\x01"), StateRecord("s2", {"a"}, 2, Fraction(1, 3))],
            [ReflectionRecord("r1", {"m"}, 3, 7)],
            [("s1", "r1"), ("s2", "r1")],
        )
        assert parse_instance(emit_instance(info)) == info

    # All but the first are at the limit: mantissa digits and point plus the
    # exponent's magnitude make 4300, and the text of each part fits in 4300 digits.
    @pytest.mark.parametrize("literal", ["1e4000", "1e4299", "-1e-4299", ".3e-4298", "1.5E4297"])
    def test_large_exponents_within_the_limit_round_trip(self, ex1, literal):
        doc = json.loads(emit_instance(ex1))
        doc["state_records"][0]["value"] = {"rational": literal}
        info = parse_instance(json.dumps(doc))
        assert parse_instance(emit_instance(info)) == info

    @pytest.mark.parametrize("literal", ["1e100000000", "1e-100000000", "1e4300", ".3e-4299"])
    def test_exponents_beyond_the_limit_rejected_quickly(self, ex1, literal):
        doc = json.loads(emit_instance(ex1))
        doc["state_records"][0]["value"] = {"rational": literal}
        start = time.perf_counter()
        with pytest.raises(ValidationError) as exc:
            parse_instance(json.dumps(doc))
        assert time.perf_counter() - start < 1
        diag = exc.value.diagnostics[0]
        assert diag.message == "state_records[0].value: invalid rational literal %r" % literal

    def test_float_value_rejected(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["state_records"][0]["value"] = 0.5
        with pytest.raises(ValidationError) as exc:
            parse_instance(json.dumps(doc))
        assert SCHEMA in codes(exc)

    def test_unknown_value_shape_rejected(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["state_records"][0]["value"] = {"hex": "00"}
        with pytest.raises(ValidationError):
            parse_instance(json.dumps(doc))


class TestDiagnostics:
    def test_malformed_json(self):
        with pytest.raises(ValidationError) as exc:
            parse_instance("{not json")
        assert codes(exc) == {MALFORMED}

    def test_bad_version(self):
        with pytest.raises(ValidationError) as exc:
            parse_instance(json.dumps({"version": 2}))
        assert codes(exc) == {SCHEMA}

    @pytest.mark.parametrize("where", ["version", "rational", "weight"])
    def test_echoed_input_is_bounded(self, ex1, where):
        nested = "x"
        for _ in range(900):
            nested = [nested]
        doc = json.loads(emit_instance(ex1))
        if where == "version":
            doc = {"version": nested}
        elif where == "rational":
            doc["state_records"][0]["value"] = {"rational": "9" * 2000 + "/x"}
        else:
            doc["weights"] = {"media": {"m1": "1/" + "x" * 2000}}
        with pytest.raises(ValidationError) as exc:
            parse_document(json.dumps(doc))
        assert exc.value.diagnostics[0].code == SCHEMA
        assert max(len(d.message) for d in exc.value.diagnostics) < 120

    @pytest.mark.parametrize("reader", [parse_document, parse_target, parse_decoder,
                                        parse_weights_file])
    def test_an_integer_beyond_the_digit_limit_is_malformed(self, reader):
        text = '{"version": 1, "n": %s}'
        with pytest.raises(ValidationError) as exc:
            reader(text % ("9" * 4301))
        assert [(d.code, d.message) for d in exc.value.diagnostics] == [
            (MALFORMED, "malformed JSON: an integer literal exceeds 4300 digits")]
        with pytest.raises(ValidationError) as exc:
            reader(text % ("9" * 4300))
        assert MALFORMED not in codes(exc)

    def test_empty_links_reports_nonvoid(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["links"] = []
        with pytest.raises(ValidationError) as exc:
            parse_instance(json.dumps(doc))
        messages = " ".join(d.message for d in exc.value.diagnostics)
        assert "links" in messages

    def test_duplicate_record_id(self, ex1):
        doc = json.loads(emit_instance(ex1))
        clone = dict(doc["state_records"][0])
        clone["value"] = "different"
        doc["state_records"].append(clone)
        with pytest.raises(ValidationError) as exc:
            parse_instance(json.dumps(doc))
        assert any("identity clash" in d.message for d in exc.value.diagnostics)

    def test_non_integer_tick(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["state_records"][0]["tick"] = 1.5
        with pytest.raises(ValidationError) as exc:
            parse_instance(json.dumps(doc))
        assert SCHEMA in codes(exc)

    def test_diagnostics_carry_json_paths(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["state_records"][1]["tick"] = "two"
        with pytest.raises(ValidationError) as exc:
            parse_instance(json.dumps(doc))
        assert any("state_records[1].tick" in d.message for d in exc.value.diagnostics)


class TestReaderDiagnostics:
    """The reader's full ordered diagnostics for one bad record or link added to
    the example.  In the messages, ``{r}`` is the added record's JSON path,
    ``{t}`` its token field, ``{o}`` the other kind's and ``{k}`` its kind; ``{unlinked}`` and
    ``{violation}`` name the kind's totality or surjectivity check."""

    KINDS = {
        "state_records": dict(r="state_records[3]", t="entities", o="media", k="state",
                              unlinked="unlinked-state", violation="totality"),
        "reflection_records": dict(r="reflection_records[3]", t="media", o="entities",
                                   k="reflection", unlinked="unlinked-reflection",
                                   violation="surjectivity"),
    }
    MISSING = object()
    SHAPE = '{r}.value: value must be text, integer, {{"b64": ...}} or {{"rational": ...}}'
    BAD_TOKENS = [(SCHEMA, "{r}.{t}: expected a list of token strings")]
    # A record with no token field is read whole, with no tokens, and the model refuses it.
    NO_TOKENS = [
        ("empty-record-tokens", "{k} record x9 has an empty {t} set"),
        ("{unlinked}", "{violation} violation: {k} record x9 has no link"),
    ]
    # A bad record: the whole record, or the members that differ from a good one
    # (MISSING deletes the member); then the diagnostics it gives.
    BAD_RECORDS = [
        ([1, 2], [(SCHEMA, "{r}: expected a record object")]),
        ("s9", [(SCHEMA, "{r}: expected a record object")]),
        ({"id": MISSING}, [(SCHEMA, "{r}.id: record id must be a nonempty string")]),
        ({"id": ""}, [(SCHEMA, "{r}.id: record id must be a nonempty string")]),
        ({"id": 9}, [(SCHEMA, "{r}.id: record id must be a nonempty string")]),
        ({"tokens": "a"}, BAD_TOKENS),
        ({"tokens": ["a", 1]}, BAD_TOKENS),
        ({"tokens": MISSING}, NO_TOKENS),
        ({"tick": MISSING}, [(SCHEMA, "{r}.tick: tick must be a JSON integer")]),
        ({"tick": 1.0}, [(SCHEMA, "{r}.tick: tick must be a JSON integer")]),
        ({"tick": True}, [(SCHEMA, "{r}.tick: tick must be a JSON integer")]),
        ({"tokens": [None], "tick": "1"}, [(SCHEMA, "{r}.{t}: expected a list of token strings"),
                                           (SCHEMA, "{r}.tick: tick must be a JSON integer")]),
        ({"value": MISSING}, [(SCHEMA, SHAPE)]),
        ({"value": None}, [(SCHEMA, SHAPE)]),
        ({"value": 0.5}, [(SCHEMA, SHAPE)]),
        ({"value": False}, [(SCHEMA, SHAPE)]),
        ({"value": ["v"]}, [(SCHEMA, SHAPE)]),
        ({"value": {"hex": "00"}}, [(SCHEMA, "{r}.value.hex: unknown member")]),
        ({"value": {"b64": "AA==", "rational": "1"}}, [(SCHEMA, SHAPE)]),
        ({"value": {"b64": 5}}, [(SCHEMA, SHAPE)]),
        ({"value": {"b64": "!!"}}, [(SCHEMA, "{r}.value: invalid base64 payload")]),
        ({"value": {"rational": 3}}, [(SCHEMA, SHAPE)]),
        ({"value": {"rational": "1/x"}}, [(SCHEMA, "{r}.value: invalid rational literal '1/x'")]),
        ({"value": {"rational": "1/0"}}, [(SCHEMA, "{r}.value: invalid rational literal '1/0'")]),
        ({"value": {"rational": "1e1.5"}},
         [(SCHEMA, "{r}.value: invalid rational literal '1e1.5'")]),
        ({"value": {}}, [(SCHEMA, SHAPE)]),
        ({"value": {"b64": "AA==", "colour": 1}}, [(SCHEMA, "{r}.value.colour: unknown member")]),
        ({"colour": "red"}, [(SCHEMA, "{r}.colour: unknown member")]),
        ({"colour": "red", "weight": 1, "tick": "1"},
         [(SCHEMA, "{r}.colour: unknown member"), (SCHEMA, "{r}.weight: unknown member")]),
        ({"{o}": ["a"]}, [(SCHEMA, "{r}.{o}: unknown member")]),
    ]
    LINK = 'links[4]: expected {"from": state id, "to": reflection id}'

    @staticmethod
    def _diagnostics(doc) -> list:
        with pytest.raises(ValidationError) as exc:
            parse_document(json.dumps(doc))
        return [(d.code, d.message) for d in exc.value.diagnostics]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad, expected", BAD_RECORDS)
    def test_bad_record(self, ex1, kind, bad, expected):
        words = self.KINDS[kind]
        record = bad
        if isinstance(bad, dict):
            record = {"id": "x9", words["t"]: ["a" if words["k"] == "state" else "m1"],
                      "tick": 9, "value": "v9"}
            for member, value in bad.items():
                member = words["t"] if member == "tokens" else member.format(**words)
                if value is self.MISSING:
                    del record[member]
                else:
                    record[member] = value
        doc = json.loads(emit_instance(ex1))
        doc[kind].append(record)
        assert self._diagnostics(doc) == [
            (code.format(**words), message.format(**words)) for code, message in expected
        ]

    @pytest.mark.parametrize("link", ["s1", {"from": 1, "to": "r1"}, {"from": "s1"},
                                      {"from": "s1", "to": ["r1"]}])
    def test_bad_link(self, ex1, link):
        doc = json.loads(emit_instance(ex1))
        doc["links"].append(link)
        assert self._diagnostics(doc) == [(SCHEMA, self.LINK)]

    def test_a_link_with_an_unknown_member(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["links"].append({"from": "s1", "to": "r1", "weight": 1})
        assert self._diagnostics(doc) == [(SCHEMA, "links[4].weight: unknown member")]

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("bad", [5, 0.5, True, False, None, "s1", "", {"id": "s1"}, {}])
    def test_records_not_a_list(self, ex1, kind, bad):
        """A record member that is not a list ends the parse with its one diagnostic."""
        doc = json.loads(emit_instance(ex1))
        doc[kind] = bad
        assert self._diagnostics(doc) == [(SCHEMA, "%s: expected a list of record objects" % kind)]

    def test_links_not_a_list(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["links"] = {"from": "s1", "to": "r1"}
        assert self._diagnostics(doc) == [(SCHEMA, "links: expected a list of {from, to} objects")]


class TestWeights:
    def test_instance_weights_parsed_as_specs(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["weights"] = {
            "entities": {"a": "0.5", "b": 2},
            "ticks": {"1": "1", "2": "1", "3": "10"},
        }
        info, tables = parse_document(json.dumps(doc))
        assert info == ex1
        assert tables == {"entities": {"a": Fraction(1, 2), "b": 2}, "ticks": {1: 1, 2: 1, 3: 10}}

    def test_weights_round_trip_through_emit(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["weights"] = {"entities": {"a": "1/3", "b": "2"}}
        info, tables = parse_document(json.dumps(doc))
        text = emit_instance(info, tables)
        assert parse_document(text) == (info, tables)

    def test_library_tables_are_written_canonically(self, ex1):
        text = emit_instance(ex1, {"entities": {"a": 0.5, "b": "2.0"}})
        assert json.loads(text)["weights"] == {"entities": {"a": "1/2", "b": "2"}}
        with pytest.raises(ValueError, match="^weight must be nonnegative$"):
            emit_instance(ex1, {"entities": {"a": -1}})

    # Each table is one the reader would refuse, or read back as another table.
    @pytest.mark.parametrize("weights, message", [
        ({"colour": {"a": 1}}, "unknown universe"),
        ({"colour": {}}, "unknown universe"),
        ({"ticks": {"x": 1}}, "tick keys must be integers"),
        ({"ticks": {"1": 1}}, "tick keys must be integers"),
        ({"ticks": {True: 1}}, "tick keys must be integers"),
        ({"ticks": {10**4300: 1}}, "tick keys must be integers"),
        ({"entities": {1: 1}}, "weight keys must be strings"),
        ({"state_records": {("s1",): 1}}, "weight keys must be strings"),
        ({"entities": None}, "expected a token-to-weight object"),
        ({"entities": ["a"]}, "expected a token-to-weight object"),
        ({"media": 3}, "expected a token-to-weight object"),
        ({"entities": [("a", 1)]}, "expected a token-to-weight object"),
        (["a"], "expected an object keyed by universe"),
        (3, "expected an object keyed by universe"),
        ([("entities", {"a": 1})], "expected an object keyed by universe"),
        ([], "expected an object keyed by universe"),
    ], ids=["universe", "empty-universe", "text-tick", "digit-tick", "bool-tick", "long-tick",
            "int-entity", "tuple-record", "null-table", "list-table", "int-table", "pair-table",
            "list-weights", "int-weights", "pair-weights", "empty-list-weights"])
    def test_tables_the_reader_would_not_read_back_are_refused(self, ex1, weights, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            emit_instance(ex1, weights)

    def test_tick_keys_at_the_digit_limit_round_trip(self, ex1):
        weights = {"ticks": {10**4300 - 1: 1, -(10**4300 - 1): 2}}
        assert parse_document(emit_instance(ex1, weights)) == (ex1, weights)

    def test_negative_weight_rejected(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["weights"] = {"entities": {"a": "-1"}}
        with pytest.raises(ValidationError):
            parse_document(json.dumps(doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_weight_rejected_with_path(self, ex1, literal):
        text = emit_instance(ex1)[:-2] + ', "weights": {"media": {"m1": %s}}}' % literal
        with pytest.raises(ValidationError) as exc:
            parse_document(text)
        assert codes(exc) == {SCHEMA}
        assert exc.value.diagnostics[0].subjects == ("weights.media.m1",)

    @pytest.mark.parametrize(
        "weights, subject",
        [
            ({"u" * 5000: {}}, "weights." + "u" * 37 + "..."),
            ({"media": {"m" * 5000: "-1"}}, "weights.media." + "m" * 37 + "..."),
            ({"ticks": {"t" * 40: "1"}}, "weights.ticks." + "t" * 40),
        ],
        ids=["long-universe", "long-token", "token-at-the-limit"],
    )
    def test_weight_keys_are_echoed_briefly(self, ex1, weights, subject):
        doc = json.loads(emit_instance(ex1))
        doc["weights"] = weights
        with pytest.raises(ValidationError) as exc:
            parse_document(json.dumps(doc))
        (diag,) = exc.value.diagnostics
        assert diag.subjects == (subject,)
        assert diag.message.startswith(subject + ": ")
        assert len(diag.message) < 100

    @pytest.mark.parametrize("key", ["+1", " 1", "1 ", "01", "1_0", "-0", "\uff11"])
    def test_tick_keys_are_canonical_integers(self, key):
        with pytest.raises(ValidationError) as exc:
            parse_weights_file(
                json.dumps({"version": 1, "weights": {"ticks": {"1": "1", key: "5"}}}))
        (diag,) = exc.value.diagnostics
        assert diag.message == "weights.ticks.%s: tick keys must be integers" % key
        tables = parse_weights_file(
            json.dumps({"version": 1, "weights": {"ticks": {"-3": 1, "0": 1, "10": 2}}}))
        assert tables == {"ticks": {-3: 1, 0: 1, 10: 2}}

    def test_standalone_weights_file(self, ex1, fixtures_dir):
        tables = parse_weights_file((fixtures_dir / "weights_ex1.json").read_text())
        assert volume(ex1, tables["media"]) == 250

    def test_null_weights_give_no_tables(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["weights"] = None
        assert parse_document(json.dumps(doc)) == (ex1, {})
        assert parse_weights_file('{"version": 1, "weights": null}') == {}

    @pytest.mark.parametrize("text, expected", [
        ('{"version": 1}', ["weights: expected an object keyed by universe"]),
        ((FIXTURES / "ex1.json").read_text(),
         ["%s: unknown member" % name for name in ("entities", "links", "media",
                                                   "reflection_records", "state_records")]),
    ], ids=["version-only", "ex1"])
    def test_a_weights_file_without_its_member_is_refused(self, text, expected):
        """An instance is no weights file: its other members are unknown there."""
        with pytest.raises(ValidationError) as exc:
            parse_weights_file(text)
        assert [d.message for d in exc.value.diagnostics] == expected


class TestSideDocuments:
    def test_parse_target_tolerates_demand_shapes(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["media"].append("m-future")  # no closure requirement for demands
        del doc["links"][0]  # no totality requirement either
        target = parse_target(json.dumps(doc))
        assert "m-future" in target.media

    def test_parse_target_rejects_a_record_declared_twice(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["reflection_records"].append(doc["reflection_records"][1])
        with pytest.raises(ValidationError) as exc:
            parse_target(json.dumps(doc))
        assert [d.message for d in exc.value.diagnostics] == [
            "record identity clash: reflection record id r2 declared twice"
        ]

    def test_parse_decoder_fixtures(self, ex1, fixtures_dir):
        mapping = parse_decoder((fixtures_dir / "decoder_const_s1.json").read_text())
        assert validity(ex1, mapping) == Fraction(2, 3)
        mapping = parse_decoder((fixtures_dir / "decoder_preimage.json").read_text())
        assert validity(ex1, mapping) == 0

    @pytest.mark.parametrize("at, flagged", [(0, 1), (3, 3)])
    def test_decoder_entry_mapping_a_reflection_to_another_state_is_rejected(
            self, fixtures_dir, at, flagged):
        doc = json.loads((fixtures_dir / "decoder_const_s1.json").read_text())
        clash = json.loads(json.dumps(doc["entries"][0]))
        clash["state"]["value"] = "other"
        doc["entries"].insert(at, clash)
        with pytest.raises(ValidationError) as exc:
            parse_decoder(json.dumps(doc))
        assert [d.message for d in exc.value.diagnostics] == [
            "entries[%d].reflection: already mapped to a different state by entries[0]" % flagged
        ]
        assert [d.subjects for d in exc.value.diagnostics] == [
            ("entries[%d].reflection" % flagged,)]
        assert codes(exc) == {SCHEMA}

    def test_decoder_entries_with_unreadable_tokens_are_not_compared(self):
        entries = [{"reflection": {"media": 5, "tick": 4, "value": "v1"},
                    "state": {"entities": ["a"], "tick": 1, "value": value}}
                   for value in ("v1", "v2")]
        with pytest.raises(ValidationError) as exc:
            parse_decoder(json.dumps({"version": 1, "kind": "table", "entries": entries}))
        assert [d.subjects for d in exc.value.diagnostics] == [
            ("entries[0].reflection.media",), ("entries[1].reflection.media",)]

    def test_decoder_entry_repeated_with_the_same_state_is_accepted(self, ex1, fixtures_dir):
        doc = json.loads((fixtures_dir / "decoder_const_s1.json").read_text())
        doc["entries"] = doc["entries"] + doc["entries"][:1]
        assert validity(ex1, parse_decoder(json.dumps(doc))) == Fraction(2, 3)

    @pytest.mark.parametrize("side", ["reflection", "state"])
    def test_decoder_entry_side_must_be_an_object(self, side):
        entry = {"reflection": {"media": ["m1"], "tick": 4, "value": "v1"},
                 "state": {"entities": ["a"], "tick": 1, "value": "v1"}}
        entry[side] = "m1"
        with pytest.raises(ValidationError) as exc:
            parse_decoder(json.dumps({"version": 1, "kind": "table", "entries": [entry]}))
        assert [d.subjects for d in exc.value.diagnostics] == [("entries[0].%s" % side,)]
        assert codes(exc) == {SCHEMA}

    @pytest.mark.parametrize("parse", [parse_document, parse_target, parse_decoder,
                                       parse_weights_file])
    def test_deeply_nested_json_is_malformed(self, parse):
        with pytest.raises(ValidationError) as exc:
            parse("[" * 100_000 + "]" * 100_000)
        assert codes(exc) == {MALFORMED}

    @pytest.mark.parametrize("side", ["reflection", "state"])
    @pytest.mark.parametrize("field, bad", [("tick", "4"), ("value", 1.5)])
    def test_decoder_entry_reports_the_bad_part(self, side, field, bad):
        entry = {"reflection": {"media": ["m1"], "tick": 4, "value": "v1"},
                 "state": {"entities": ["a"], "tick": 1, "value": "v1"}}
        entry[side][field] = bad
        with pytest.raises(ValidationError) as exc:
            parse_decoder(json.dumps({"version": 1, "kind": "table", "entries": [entry]}))
        assert [d.subjects for d in exc.value.diagnostics] == [
            ("entries[0].%s.%s" % (side, field),)
        ]

    @pytest.mark.parametrize("parse", [parse_document, parse_target, parse_decoder,
                                       parse_weights_file])
    def test_top_level_must_be_an_object(self, parse):
        with pytest.raises(ValidationError) as exc:
            parse("[]")
        assert [d.message for d in exc.value.diagnostics] == ["$: top level must be an object"]

    @pytest.mark.parametrize("parse, name", [
        (parse_document, "ex1"), (parse_target, "ex1_s1"), (parse_decoder, "decoder_preimage"),
        (parse_weights_file, "weights_ex1")])
    @pytest.mark.parametrize("version, echo", [
        (True, "True"), (1.0, "1.0"), ("1", "'1'"), (None, "None"), (99, "99")],
        ids=["true", "float", "text", "null", "99"])
    def test_version_must_be_the_json_integer_1(self, parse, name, version, echo):
        doc = json.loads((FIXTURES / (name + ".json")).read_text())
        parse(json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            parse(json.dumps(dict(doc, version=version)))
        assert [d.message for d in exc.value.diagnostics] == [
            "version: unsupported document version " + echo]

    def test_decoder_version_uses_the_document_wording(self):
        with pytest.raises(ValidationError) as exc:
            parse_decoder(json.dumps({"version": 2, "kind": "preimage"}))
        assert [d.message for d in exc.value.diagnostics] == [
            "version: unsupported document version 2"
        ]

    def test_decoder_requires_known_kind(self):
        with pytest.raises(ValidationError):
            parse_decoder(json.dumps({"version": 1, "kind": "magic"}))
