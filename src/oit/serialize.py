"""Canonical JSON ingestion and emission for instances and side documents.

The instance document (version 1) has the members ``version``, ``entities``,
``media``, ``state_records``, ``reflection_records``, ``links`` and an
optional ``weights`` section.  Emission is canonical: tokens, record ids and
links are sorted and object keys are emitted in sorted order, so equal
instances serialize to identical bytes and the digest is well defined.

Every document and report is written byte for byte as ``json.dumps(doc,
indent=2, sort_keys=True)`` writes it.  Reports and side documents are written
by ``json.dumps`` itself; an instance is written straight from its records, one
fixed template per record kind with its members in sorted order and strings
quoted by json's C ``encode_basestring_ascii``.  Each record kind's fields are
read as C iterators over its records sorted by id and filled into a template of
``_BATCH`` records by one ``%`` call.  ``instance_digest`` hashes the text one
such batch at a time and never holds the whole text.

Instance and target documents are read one top-level member at a time: each
member's JSON tree is turned into records, and freed, before the next member
is decoded, so a reader never holds the whole document's tree.

Record values are JSON strings (text), JSON integers, ``{"b64": ...}`` for
byte strings, or ``{"rational": "p/q"}`` for exact rationals.  Floats are
rejected: they have no exact rational reading.  Weights are written as
exact rational strings and accepted as integers, decimal strings or
fraction strings.
"""

from __future__ import annotations

import base64
import json
from fractions import Fraction
from functools import partial
from itertools import chain, islice
from json import JSONDecoder
from json.decoder import WHITESPACE, scanstring
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from typing import Mapping

from . import model
from .measures import UNIVERSES, _read_weight
from .model import (
    MAX_LITERAL_DIGITS,
    Diagnostic,
    Information,
    RawSextuple,
    ReflectionRecord,
    StateRecord,
    ValidationError,
    brief,
    brief_repr,
    read_fraction,
)
from .semantics import JACCARD, NUMERIC_L1, SemanticMapping

SCHEMA_VERSION = 1

MALFORMED = "malformed-json"
SCHEMA = "schema"


def _schema(path, message) -> Diagnostic:
    return Diagnostic(SCHEMA, "%s: %s" % (path, message), (path,))


def _diag(diags, path, message):
    diags.append(_schema(path, message))


def _tagged_value(raw, path, i, diags):
    """A record value given as ``{"b64": ...}`` or ``{"rational": ...}``, else None
    with a diagnostic at ``path % i``."""
    if type(raw) is dict and len(raw) == 1:
        if type(raw.get("b64")) is str:
            try:
                return base64.b64decode(raw["b64"], validate=True)
            except ValueError:
                _diag(diags, path % i + ".value", "invalid base64 payload")
                return None
        if type(raw.get("rational")) is str:
            try:
                return read_fraction(raw["rational"])
            except (ValueError, ZeroDivisionError):
                _diag(diags, path % i + ".value",
                      "invalid rational literal %s" % brief_repr(raw["rational"]))
                return None
    _diag(diags, path % i + ".value",
          "value must be text, integer, {\"b64\": ...} or {\"rational\": ...}")
    return None


def _shared_tokens(raw, shared: dict):
    """``raw`` as a token set, one per distinct token list of a document, or None
    when it is not a list of strings.  ``shared`` holds the sets made so far,
    keyed by the single token or by the tuple of tokens."""
    if type(raw) is not list:
        return None
    if len(raw) == 1:
        key = raw[0]
        if type(key) is not str:
            return None
    else:
        key = tuple(raw)
        if not all(type(t) is str for t in key):
            return None
    tokens = shared.get(key)
    if tokens is None:
        tokens = shared[key] = frozenset(raw)
    return tokens


def _triple(raw: dict, path: str, i: int, token_field: str, shared: dict, diags):
    """Read a record object's (token set, tick, value) content triple, else None.

    ``path % i`` is the object's JSON path; it is built only for a diagnostic.
    """
    tokens = _shared_tokens(raw.get(token_field, []), shared)
    if tokens is None:
        _diag(diags, "%s.%s" % (path % i, token_field), "expected a list of token strings")
        tokens = frozenset()
    tick = raw.get("tick")
    if type(tick) is not int:
        _diag(diags, path % i + ".tick", "tick must be a JSON integer")
        return None
    value = raw.get("value")
    if type(value) is not str and type(value) is not int:
        value = _tagged_value(value, path, i, diags)
        if value is None:
            return None
    return tokens, tick, value


def _declared_tokens(raw, shared: dict, diags, member: str) -> tuple:
    """The document's ``entities`` or ``media`` list, each token once."""
    tokens = _shared_tokens(raw, shared)
    if tokens is None:
        _diag(diags, member, "expected a list of token strings")
    return tuple(tokens or ())


def _records(raw_records, shared: dict, diags, member: str, token_field: str, cls) -> tuple:
    """One record kind's records, read in one pass from the document's ``member``."""
    records = []
    if type(raw_records) is not list:
        _diag(diags, member, "expected a list of record objects")
        return ()
    path = member + "[%d]"
    for i, raw in enumerate(raw_records):
        if type(raw) is not dict:
            _diag(diags, path % i, "expected a record object")
            continue
        rid = raw.get("id")
        if type(rid) is not str or not rid:
            _diag(diags, path % i + ".id", "record id must be a nonempty string")
            continue
        triple = _triple(raw, path, i, token_field, shared, diags)
        if triple is not None:
            records.append(cls(rid, *triple))
    return tuple(records)


def _links(raw_links, diags) -> tuple:
    """The document's links, in first-seen order, each once."""
    links: dict = {}
    if type(raw_links) is not list:
        _diag(diags, "links", "expected a list of {from, to} objects")
        raw_links = ()
    for i, raw in enumerate(raw_links):
        if type(raw) is dict:
            a, b = raw.get("from"), raw.get("to")
            if type(a) is str and type(b) is str:
                links[a, b] = None
                continue
        _diag(diags, "links[%d]" % i, "expected {\"from\": state id, \"to\": reflection id}")
    return tuple(links)


def _weights_from_json(raw, diags) -> dict:
    tables: dict = {}
    if raw is None:
        return tables
    if not isinstance(raw, dict):
        _diag(diags, "weights", "expected an object keyed by universe")
        return tables
    for universe, table in raw.items():
        if universe not in UNIVERSES:
            _diag(diags, "weights.%s" % brief(universe), "unknown universe")
            continue
        if not isinstance(table, dict):
            _diag(diags, "weights.%s" % universe, "expected a token-to-weight object")
            continue
        parsed = {}
        for token, value in table.items():
            path = "weights.%s.%s" % (universe, brief(token))
            try:
                w = _read_weight(value)
            except ValueError as exc:
                _diag(diags, path, str(exc))
                continue
            if universe == "ticks":
                try:
                    key = int(token)
                    if str(key) != token:  # "+1", " 1", "01" and "1_0" would alias "1"
                        raise ValueError
                except ValueError:
                    _diag(diags, path, "tick keys must be integers")
                    continue
                parsed[key] = w
            else:
                parsed[token] = w
        tables[universe] = parsed
    return tables


class _NotTaken(Exception):
    """Text that the member loop leaves to json's own decoder."""


_WHITESPACE = WHITESPACE.match


class _MemberReader(JSONDecoder):
    """Decodes a top-level object one member at a time, handing each member's
    value to ``read(name, value)`` as soon as json's C scanner has decoded it, so
    that no member's JSON tree outlives its reading.  ``decode`` returns
    ``{name: read(name, value)}``, the last of a repeated name winning, as in
    json's own objects.  Text the loop does not take cleanly, such as a top level
    that is not an object or a syntax error between members, is decoded whole by
    ``JSONDecoder.decode``, so that every value and every error message is json's.
    """

    def __init__(self, read):
        super().__init__()
        self.read = read

    def decode(self, s):
        try:
            return self._members(s)
        except _NotTaken:
            doc = super().decode(s)
        if type(doc) is not dict:
            return doc
        return {name: self.read(name, value) for name, value in doc.items()}

    def _members(self, s) -> dict:
        members = {}
        end, sep = _past(s, 0, "{"), ","
        while sep == ",":
            try:
                name, end = scanstring(s, _past(s, end, '"'))
                value, end = self.scan_once(s, _WHITESPACE(s, _past(s, end, ":")).end())
            except (StopIteration, ValueError, RecursionError):
                raise _NotTaken from None
            members[name] = self.read(name, value)
            del value  # so that this member's tree is freed before the next is decoded
            end = _WHITESPACE(s, end).end() + 1
            sep = s[end - 1:end]
        if sep != "}" or _WHITESPACE(s, end).end() != len(s):
            raise _NotTaken
        return members


def _past(s: str, end: int, char: str) -> int:
    """The index just past ``char``, which must be the first character at or
    after ``end`` that is not JSON whitespace."""
    end = _WHITESPACE(s, end).end()
    if s[end:end + 1] != char:
        raise _NotTaken
    return end + 1


def _object_from_text(text: str, **decoder) -> dict:
    """Decode JSON whose top level must be an object, through ``json.loads(text,
    **decoder)``; malformed or too deep is a diagnostic."""
    try:
        doc = json.loads(text, **decoder)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError([Diagnostic(MALFORMED, "malformed JSON: %s" % exc, ())]) from None
    except ValueError:  # the int digit limit; JSONDecodeError, a subclass, is caught above
        raise ValidationError([Diagnostic(
            MALFORMED, "malformed JSON: an integer literal exceeds %d digits" % MAX_LITERAL_DIGITS,
            ())]) from None
    if not isinstance(doc, dict):
        raise ValidationError([_schema("$", "top level must be an object")])
    return doc


def _document_from_text(text: str, **decoder) -> dict:
    """The reader front of instance, target and decoder documents."""
    doc = _object_from_text(text, **decoder)
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            [_schema("version", "unsupported document version %s" % brief_repr(version))]
        )
    return doc


# The members of a demand's raw sextuple, in the order their diagnostics are
# reported, each with its reader: (JSON value, shared token sets, diagnostics)
# -> the sextuple's part.  An instance document adds its weight tables.
_TARGET_READERS = {
    "entities": partial(_declared_tokens, member="entities"),
    "media": partial(_declared_tokens, member="media"),
    "state_records": partial(_records, member="state_records", token_field="entities",
                             cls=StateRecord),
    "reflection_records": partial(_records, member="reflection_records", token_field="media",
                                  cls=ReflectionRecord),
    "links": lambda raw, shared, diags: _links(raw, diags),
}
_INSTANCE_READERS = dict(_TARGET_READERS,
                         weights=lambda raw, shared, diags: _weights_from_json(raw, diags))


def _members_from_text(text: str, readers: dict) -> dict:
    """A document's members, each read as soon as it is decoded: name -> (what
    its reader made of it, the reader's diagnostics).  ``version`` is kept as
    it is; members without a reader are dropped.  Equal token lists in any
    member share one token set."""
    shared: dict = {}

    def read(name, value):
        reader = readers.get(name)
        if reader is None:
            return value if name == "version" else None
        diags: list = []
        return reader(value, shared, diags), diags

    return _document_from_text(text, cls=_MemberReader, read=read)


def _raw_from_members(members: dict, diags) -> RawSextuple:
    """The raw sextuple of a document's read members; an absent member is empty."""
    parts = []
    for name in _TARGET_READERS:
        part, found = members.get(name, ((), ()))
        parts.append(part)
        diags.extend(found)
    return RawSextuple(*parts)


def parse_document(text: str):
    """Parse an instance document; returns the instance and its weight tables.

    Schema diagnostics come first, in member order, then the model's, from its
    one validation.  The text is dropped once its members are read.
    """
    members = _members_from_text(text, _INSTANCE_READERS)
    del text
    diags: list = []
    raw = _raw_from_members(members, diags)
    weights, found = members.get("weights", ({}, ()))
    diags.extend(found)
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


def document_to_text(doc: dict) -> str:
    """The canonical text of a document: sorted keys, two-space indent, one final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# The instance text's fixed layouts: one per record kind, with members in sorted
# order, and a record's tagged values, which sit at indent 6.
_STATE = ('    {\n      "entities": %s,\n      "id": %s,\n'
          '      "tick": %s,\n      "value": %s\n    }')
_REFLECTION = ('    {\n      "id": %s,\n      "media": %s,\n'
               '      "tick": %s,\n      "value": %s\n    }')
_LINK = '    {\n      "from": %s,\n      "to": %s\n    }'
# Each record kind's layout, then the same for records that all hold one token.
_STATES = (_STATE, _STATE.replace('"entities": %s', '"entities": [\n        %s\n      ]'))
_REFLECTIONS = (_REFLECTION, _REFLECTION.replace('"media": %s', '"media": [\n        %s\n      ]'))
_B64 = '{\n        "b64": "%s"\n      }'
_RATIONAL = '{\n        "rational": %s\n      }'
# Records per format call and digest update, so that hashing holds little text.
_BATCH = 256
# A record's id, token set, tick and value, as C getters on its tuple.
_ID, _TOKENS, _TICK, _VALUE = map(itemgetter, range(4))


def _tokens_text(tokens, indent: str = "      ") -> str:
    """Tokens as a sorted JSON list whose closing bracket sits at ``indent``."""
    if len(tokens) == 1:  # the common case, which needs no sort
        (token,) = tokens
        body = _quote(token)
    else:
        body = (",\n  " + indent).join(map(_quote, sorted(tokens)))
    return "[\n  %s%s\n%s]" % (indent, body, indent)


def _value_text(value) -> str:
    """A record value at indent 6: text, integer, ``{"b64": ...}`` or ``{"rational": ...}``."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, bytes):
        return _B64 % base64.b64encode(value).decode("ascii")
    if isinstance(value, Fraction):
        return _RATIONAL % _quote(str(value))
    return int.__repr__(value)


def _record_list(template: str, fields):
    """A top-level list of records, each ``template`` filled from the flat
    iterator ``fields``, in pieces of ``_BATCH`` records written by one ``%``."""
    width = template.count("%s")
    full = ",\n".join([template] * _BATCH)
    opening = "[\n"
    while batch := tuple(islice(fields, width * _BATCH)):
        count = len(batch) // width
        yield opening + (full if count == _BATCH else ",\n".join([template] * count)) % batch
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n  ]"


def _columns(records, layouts):
    """The layout of one record kind and the id, token, tick and value texts of
    its records sorted by id, each a C iterator.  When every record holds one
    token, tokens are quoted directly into the layout that brackets them, as
    values are when every one is exactly text."""
    records = sorted(records, key=_ID)
    value_text = _quote if {str}.issuperset(map(type, map(_VALUE, records))) else _value_text
    if {1}.issuperset(map(len, map(_TOKENS, records))):
        layout, tokens = layouts[1], map(_quote, chain.from_iterable(map(_TOKENS, records)))
    else:
        layout, tokens = layouts[0], map(_tokens_text, map(_TOKENS, records))
    return layout, (map(_quote, map(_ID, records)), tokens, map(int.__repr__, map(_TICK, records)),
                    map(value_text, map(_VALUE, records)))


def _instance_chunks(info: Information, weights: Mapping | None):
    """The canonical text of an instance, written straight from its records."""
    yield '{\n  "entities": %s,\n  "links": ' % _tokens_text(info.ontology, "  ")
    yield from _record_list(_LINK, map(_quote, chain.from_iterable(sorted(info.links))))
    yield ',\n  "media": %s,\n  "reflection_records": ' % _tokens_text(info.carrier, "  ")
    layout, columns = _columns(info.reflections, _REFLECTIONS)
    yield from _record_list(layout, chain.from_iterable(zip(*columns)))
    yield ',\n  "state_records": '
    layout, (ids, tokens, ticks, values) = _columns(info.states, _STATES)
    yield from _record_list(layout, chain.from_iterable(zip(tokens, ids, ticks, values)))
    yield ',\n  "version": %d' % SCHEMA_VERSION
    if weights:
        tables = {universe: {str(k): str(_read_weight(w)) for k, w in table.items()}
                  for universe, table in weights.items()}
        text = json.dumps(tables, indent=2, sort_keys=True)
        yield ',\n  "weights": ' + text.replace("\n", "\n  ")
    yield "\n}\n"


def emit_instance(info: Information, weights: Mapping | None = None) -> str:
    """Serialize an instance to its canonical byte-stable document text."""
    return "".join(_instance_chunks(info, weights))


def text_digest(text: str) -> str:
    """The ``sha256:`` digest reports give a text: the hash of its UTF-8 bytes."""
    import hashlib  # here, not at the top: loading OpenSSL slows calls that write no digest

    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def instance_digest(info: Information) -> str:
    """``text_digest(emit_instance(info))``, hashed piece by piece as it is written."""
    import hashlib

    digest = hashlib.sha256()
    for chunk in _instance_chunks(info, None):
        digest.update(chunk.encode("ascii"))
    return "sha256:" + digest.hexdigest()


def parse_target(text: str) -> RawSextuple:
    """Parse a document as a demand: its raw sextuple, with well-formed nonvoid
    components and links that name declared records, but no totality,
    surjectivity or closure; its ``weights`` member is not read."""
    diags: list = []
    raw = _raw_from_members(_members_from_text(text, _TARGET_READERS), diags)
    if not diags:
        # A demand's tick sets are its records' ticks, so they are empty with them.
        model._check_well_formed(
            (("ontology", raw.entities), ("occurrence_ticks", raw.states),
             ("states", raw.states), ("carrier", raw.media),
             ("reflection_ticks", raw.reflections), ("reflections", raw.reflections)),
            raw.states, raw.reflections, raw.links, diags,
        )
    if diags:
        raise ValidationError(diags)
    return raw


def parse_decoder(text: str) -> SemanticMapping:
    """Parse a decoder document into its mapping, which carries the document's distance."""
    diags: list = []
    doc = _document_from_text(text)
    kind = doc.get("kind")
    distance = doc.get("distance", JACCARD)
    if distance not in (JACCARD, NUMERIC_L1):
        raise ValidationError([_schema("distance", "must be %r or %r" % (JACCARD, NUMERIC_L1))])
    if kind == "preimage":
        return SemanticMapping.preimage(distance)
    if kind != "table":
        raise ValidationError([_schema("kind", "must be 'preimage' or 'table'")])
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise ValidationError([_schema("entries", "expected a list")])
    table = {}
    first: dict = {}  # reflection triple -> the index of its first entry
    shared: dict = {}
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
        errors = len(diags)
        key = _triple(raw["reflection"], "entries[%d].reflection", i, "media", shared, diags)
        value = _triple(raw["state"], "entries[%d].state", i, "entities", shared, diags)
        if len(diags) == errors:
            if table.setdefault(key, value) != value:
                _diag(diags, path + ".reflection",
                      "already mapped to a different state by entries[%d]" % first[key])
            first.setdefault(key, i)
    if diags:
        raise ValidationError(diags)
    return SemanticMapping.from_table(table, distance)


def parse_weights_file(text: str) -> dict:
    """Parse a standalone weights document into per-universe weight tables."""
    diags: list = []
    doc = _object_from_text(text)
    tables = _weights_from_json(doc.get("weights", doc), diags)
    if diags:
        raise ValidationError(diags)
    return tables
