"""Canonical JSON ingestion and emission for instances and side documents.

The instance document (version 1) has the members ``version``, ``entities``,
``media``, ``state_records``, ``reflection_records``, ``links`` and an
optional ``weights`` section.  Emission is canonical: tokens, record ids and
links are sorted and object keys are emitted in sorted order, so equal
instances serialize to identical bytes and the digest is well defined.

Record values are JSON strings (text), JSON integers, ``{"b64": ...}`` for
byte strings, or ``{"rational": "p/q"}`` for exact rationals.  Floats are
rejected: they have no exact rational reading.  Weights are written as
exact rational strings and accepted as integers, decimal strings or
fraction strings.
"""

from __future__ import annotations

import base64
import hashlib
import json
from fractions import Fraction
from typing import Mapping

from . import model
from .measures import UNIVERSES, weighted
from .model import (
    Diagnostic,
    Information,
    RawSextuple,
    ReflectionRecord,
    StateRecord,
    ValidationError,
)
from .semantics import (
    JACCARD,
    NUMERIC_L1,
    DistanceSpec,
    SemanticMapping,
    TargetSextuple,
)

SCHEMA_VERSION = 1

MALFORMED = "malformed-json"
SCHEMA = "schema"


def _diag(diags, path, message):
    diags.append(Diagnostic(SCHEMA, "%s: %s" % (path, message), (path,)))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def value_from_json(raw, path, diags):
    if isinstance(raw, str):
        return raw
    if _is_int(raw):
        return raw
    if isinstance(raw, dict) and set(raw) == {"b64"} and isinstance(raw["b64"], str):
        try:
            return base64.b64decode(raw["b64"], validate=True)
        except Exception:
            _diag(diags, path, "invalid base64 payload")
            return None
    if isinstance(raw, dict) and set(raw) == {"rational"} and isinstance(raw["rational"], str):
        try:
            return Fraction(raw["rational"])
        except Exception:
            _diag(diags, path, "invalid rational literal %r" % raw["rational"])
            return None
    _diag(diags, path, "value must be text, integer, {\"b64\": ...} or {\"rational\": ...}")
    return None


def value_to_json(value):
    if isinstance(value, bytes):
        return {"b64": base64.b64encode(value).decode("ascii")}
    if isinstance(value, Fraction):
        return {"rational": str(value)}
    return value


def _token_list(raw, path, diags):
    if not isinstance(raw, list) or not all(isinstance(t, str) for t in raw):
        _diag(diags, path, "expected a list of token strings")
        return []
    return raw


def _record_from_json(raw, path, token_field, cls, diags):
    if not isinstance(raw, dict):
        _diag(diags, path, "expected a record object")
        return None
    rid = raw.get("id")
    if not isinstance(rid, str) or not rid:
        _diag(diags, path + ".id", "record id must be a nonempty string")
        return None
    tokens = _token_list(raw.get(token_field, []), "%s.%s" % (path, token_field), diags)
    tick = raw.get("tick")
    if not _is_int(tick):
        _diag(diags, path + ".tick", "tick must be a JSON integer")
        return None
    value = value_from_json(raw.get("value"), path + ".value", diags)
    if value is None:
        return None
    return cls(rid, frozenset(tokens), tick, value)


def _weight_from_json(raw, path, diags) -> Fraction | None:
    if isinstance(raw, bool):
        _diag(diags, path, "weight must be a number or numeric string")
        return None
    if isinstance(raw, int):
        w = Fraction(raw)
    elif isinstance(raw, (float, str)):
        # NaN and Infinity have no exact reading and fail like any bad literal.
        try:
            w = Fraction(str(raw))
        except (ValueError, ZeroDivisionError):
            _diag(diags, path, "invalid weight literal %r" % raw)
            return None
    else:
        _diag(diags, path, "weight must be a number or numeric string")
        return None
    if w < 0:
        _diag(diags, path, "weight must be nonnegative")
        return None
    return w


def _weights_from_json(raw, diags) -> dict:
    specs: dict = {}
    if raw is None:
        return specs
    if not isinstance(raw, dict):
        _diag(diags, "weights", "expected an object keyed by universe")
        return specs
    for universe, table in raw.items():
        if universe not in UNIVERSES:
            _diag(diags, "weights.%s" % universe, "unknown universe")
            continue
        if not isinstance(table, dict):
            _diag(diags, "weights.%s" % universe, "expected a token-to-weight object")
            continue
        parsed = {}
        for token, value in table.items():
            path = "weights.%s.%s" % (universe, token)
            w = _weight_from_json(value, path, diags)
            if w is None:
                continue
            if universe == "ticks":
                try:
                    key = int(token)
                except ValueError:
                    _diag(diags, path, "tick keys must be integers")
                    continue
                parsed[key] = w
            else:
                parsed[token] = w
        specs[universe] = weighted(universe, parsed)
    return specs


def _load_json(text: str):
    """Decode JSON text; malformed or too deeply nested input is a diagnostic."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError([Diagnostic(MALFORMED, "malformed JSON: %s" % exc, ())]) from None


def _document_from_text(text: str) -> dict:
    doc = _load_json(text)
    diags: list = []
    if not isinstance(doc, dict):
        _diag(diags, "$", "top level must be an object")
    elif doc.get("version") != SCHEMA_VERSION:
        _diag(diags, "version", "unsupported document version %r" % doc.get("version"))
    if diags:
        raise ValidationError(diags)
    return doc


def _raw_from_document(doc: dict, diags) -> RawSextuple:
    entities = _token_list(doc.get("entities", []), "entities", diags)
    media = _token_list(doc.get("media", []), "media", diags)

    states = []
    for i, raw in enumerate(doc.get("state_records", []) or []):
        rec = _record_from_json(raw, "state_records[%d]" % i, "entities", StateRecord, diags)
        if rec is not None:
            states.append(rec)
    reflections = []
    for i, raw in enumerate(doc.get("reflection_records", []) or []):
        rec = _record_from_json(
            raw, "reflection_records[%d]" % i, "media", ReflectionRecord, diags
        )
        if rec is not None:
            reflections.append(rec)

    links = []
    raw_links = doc.get("links", [])
    if not isinstance(raw_links, list):
        _diag(diags, "links", "expected a list of {from, to} objects")
        raw_links = []
    for i, raw in enumerate(raw_links):
        if (
            not isinstance(raw, dict)
            or not isinstance(raw.get("from"), str)
            or not isinstance(raw.get("to"), str)
        ):
            _diag(diags, "links[%d]" % i, "expected {\"from\": state id, \"to\": reflection id}")
            continue
        pair = (raw["from"], raw["to"])
        if pair not in links:
            links.append(pair)

    return RawSextuple.of(dict.fromkeys(entities), dict.fromkeys(media), states, reflections, links)


def parse_document(text: str):
    """Parse an instance document; returns the instance and its weight specs.

    Schema diagnostics come first, then the model's, from its one validation.
    """
    doc = _document_from_text(text)
    diags: list = []
    raw = _raw_from_document(doc, diags)
    weights = _weights_from_json(doc.get("weights"), diags)
    try:
        info = model.build(raw)
    except ValidationError as exc:
        diags.extend(exc.diagnostics)
    if diags:
        raise ValidationError(diags)
    return info, weights


def parse_instance(text: str) -> Information:
    """Parse and validate one instance document."""
    return parse_document(text)[0]


def instance_to_document(info: Information, weights: Mapping | None = None) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "entities": sorted(info.ontology),
        "media": sorted(info.carrier),
        "state_records": [
            {
                "id": rec.id,
                "entities": sorted(rec.entities),
                "tick": rec.tick,
                "value": value_to_json(rec.value),
            }
            for rec in sorted(info.states, key=lambda r: r.id)
        ],
        "reflection_records": [
            {
                "id": rec.id,
                "media": sorted(rec.media),
                "tick": rec.tick,
                "value": value_to_json(rec.value),
            }
            for rec in sorted(info.reflections, key=lambda r: r.id)
        ],
        "links": [{"from": a, "to": b} for a, b in sorted(info.links)],
    }
    if weights:
        doc["weights"] = {
            universe: {str(k): str(w) for k, w in spec.weights.items()}
            for universe, spec in sorted(weights.items())
        }
    return doc


def document_to_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit_instance(info: Information, weights: Mapping | None = None) -> str:
    """Serialize an instance to its canonical byte-stable document text."""
    return document_to_text(instance_to_document(info, weights))


def instance_digest(info: Information) -> str:
    """Content digest of the canonical serialization."""
    return "sha256:" + hashlib.sha256(emit_instance(info).encode("utf-8")).hexdigest()


def parse_target(text: str) -> TargetSextuple:
    """Parse a document as a demand sextuple (no totality/surjectivity/closure)."""
    doc = _document_from_text(text)
    diags: list = []
    raw = _raw_from_document(doc, diags)
    if diags:
        raise ValidationError(diags)
    return TargetSextuple(
        frozenset(raw.entities),
        frozenset(rec.tick for rec in raw.states),
        frozenset(raw.states),
        frozenset(raw.media),
        frozenset(rec.tick for rec in raw.reflections),
        frozenset(raw.reflections),
        frozenset(raw.links),
    )


def parse_decoder(text: str):
    """Parse a decoder document; returns the mapping and its distance spec."""
    diags: list = []
    doc = _load_json(text)
    if not isinstance(doc, dict) or doc.get("version") != SCHEMA_VERSION:
        raise ValidationError([Diagnostic(SCHEMA, "version: unsupported decoder version", ())])
    kind = doc.get("kind")
    distance_kind = doc.get("distance", JACCARD)
    if distance_kind not in (JACCARD, NUMERIC_L1):
        raise ValidationError(
            [Diagnostic(SCHEMA, "distance: must be %r or %r" % (JACCARD, NUMERIC_L1), ())]
        )
    distance = DistanceSpec(distance_kind)
    if kind == "preimage":
        return SemanticMapping.preimage(), distance
    if kind != "table":
        raise ValidationError([Diagnostic(SCHEMA, "kind: must be 'preimage' or 'table'", ())])
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ValidationError([Diagnostic(SCHEMA, "entries: expected a list", ())])
    table = {}
    for i, raw in enumerate(entries):
        path = "entries[%d]" % i
        if not isinstance(raw, dict) or "reflection" not in raw or "state" not in raw:
            _diag(diags, path, "expected {reflection, state} objects")
            continue
        not_objects = [side for side in ("reflection", "state") if not isinstance(raw[side], dict)]
        for side in not_objects:
            _diag(diags, "%s.%s" % (path, side), "expected an object")
        if not_objects:
            continue
        refl = raw["reflection"]
        st = raw["state"]
        key_tokens = _token_list(refl.get("media", []), path + ".reflection.media", diags)
        val_tokens = _token_list(st.get("entities", []), path + ".state.entities", diags)
        if not _is_int(refl.get("tick")) or not _is_int(st.get("tick")):
            _diag(diags, path, "ticks must be JSON integers")
            continue
        key_value = value_from_json(refl.get("value"), path + ".reflection.value", diags)
        val_value = value_from_json(st.get("value"), path + ".state.value", diags)
        if key_value is None or val_value is None:
            continue
        key = (frozenset(key_tokens), refl["tick"], key_value)
        val = (frozenset(val_tokens), st["tick"], val_value)
        table[key] = val
    if diags:
        raise ValidationError(diags)
    return SemanticMapping.from_table(table), distance


def parse_weights_file(text: str) -> dict:
    """Parse a standalone weights document into per-universe measure specs."""
    diags: list = []
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ValidationError([Diagnostic(SCHEMA, "$: top level must be an object", ())])
    body = doc.get("weights", doc)
    specs = _weights_from_json(body, diags)
    if diags:
        raise ValidationError(diags)
    return specs
