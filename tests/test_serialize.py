from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from oit import (
    ReflectionRecord,
    StateRecord,
    ValidationError,
    assemble,
    emit_instance,
    instance_digest,
    parse_decoder,
    parse_document,
    parse_instance,
    parse_target,
    parse_weights_file,
    validity,
)
from oit.serialize import MALFORMED, SCHEMA

from .strategies import informations


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


class TestValues:
    def test_bytes_and_rationals_round_trip(self):
        info = assemble(
            [StateRecord("s1", {"a"}, 1, b"\x00\x01"), StateRecord("s2", {"a"}, 2, Fraction(1, 3))],
            [ReflectionRecord("r1", {"m"}, 3, 7)],
            [("s1", "r1"), ("s2", "r1")],
        )
        assert parse_instance(emit_instance(info)) == info

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


class TestWeights:
    def test_instance_weights_parsed_as_specs(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["weights"] = {
            "entities": {"a": "0.5", "b": 2},
            "ticks": {"1": "1", "2": "1", "3": "10"},
        }
        info, specs = parse_document(json.dumps(doc))
        assert info == ex1
        assert specs["entities"].measure({"a", "b"}) == Fraction(5, 2)
        assert specs["ticks"].measure({1, 2, 3}) == 12

    def test_weights_round_trip_through_emit(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["weights"] = {"entities": {"a": "1/3", "b": "2"}}
        info, specs = parse_document(json.dumps(doc))
        text = emit_instance(info, specs)
        _, specs2 = parse_document(text)
        assert specs2["entities"].weights == specs["entities"].weights

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

    def test_standalone_weights_file(self, fixtures_dir):
        specs = parse_weights_file((fixtures_dir / "weights_ex1.json").read_text())
        assert specs["media"].measure({"m1", "m2", "m3"}) == 250


class TestSideDocuments:
    def test_parse_target_tolerates_demand_shapes(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["media"].append("m-future")  # no closure requirement for demands
        del doc["links"][0]  # no totality requirement either
        target = parse_target(json.dumps(doc))
        assert "m-future" in target.carrier

    def test_parse_decoder_fixtures(self, ex1, fixtures_dir):
        mapping, distance = parse_decoder((fixtures_dir / "decoder_const_s1.json").read_text())
        assert validity(ex1, mapping, distance) == Fraction(2, 3)
        mapping, distance = parse_decoder((fixtures_dir / "decoder_preimage.json").read_text())
        assert validity(ex1, mapping, distance) == 0

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

    def test_decoder_requires_known_kind(self):
        with pytest.raises(ValidationError):
            parse_decoder(json.dumps({"version": 1, "kind": "magic"}))
