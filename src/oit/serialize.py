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
``_BATCH`` records by one ``%`` call.  ``emit_instance`` keeps the text it
writes without weights on the instance; ``instance_digest`` hashes that text in
slices, or else the text one batch at a time as it is written, and never
encodes the whole text.

Every document is read one top-level member at a time, through one front: a
member with a reader is turned into records, and its JSON tree freed, before
the next member is decoded; a member without one is kept as json decoded it.
Each kind of object declares its members: a name repeated or undeclared is refused.

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
from functools import lru_cache, partial
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
    _within_digits,
    brief,
    brief_repr,
    read_fraction,
)
from .semantics import JACCARD, NUMERIC_L1, SemanticMapping

SCHEMA_VERSION = 1

MALFORMED = "malformed-json"
SCHEMA = "schema"
# What the weights reader says of a value that is no weights member, or no table.
_NOT_UNIVERSES = "expected an object keyed by universe"
_NOT_TABLE = "expected a token-to-weight object"


def _schema(path, message) -> Diagnostic:
    return Diagnostic(SCHEMA, "%s: %s" % (path, message), (path,))


def _diag(diags, path, message):
    diags.append(_schema(path, message))


class _Repeated(dict):
    """A JSON object, read as json reads it, whose member ``name`` is repeated."""


def _object_from_pairs(pairs) -> dict:
    """The object of ``pairs``; a :class:`_Repeated` if a name is repeated."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj, seen = _Repeated(obj), set()
        obj.name = next(name for name, _ in pairs if name in seen or seen.add(name))
    return obj


def _object(raw, path: str, i, names, diags, expected: str) -> bool:
    """Whether ``raw`` is a JSON object naming each member once, all in ``names``
    unless it is None.  Else each fault is a diagnostic: ``expected``, the repeated
    name, or each unknown one at its own path.  ``path % i`` is the object's JSON
    path, ``$`` for the top level; it is built only for a diagnostic."""
    if type(raw) is dict and (names is None or raw.keys() <= names):
        return True
    where = path % i
    if not isinstance(raw, dict):
        _diag(diags, where, expected)
        return False
    if type(raw) is _Repeated:
        _diag(diags, where, "repeated member %s" % brief_repr(raw.name))
    for name in () if names is None else raw:
        if name not in names:
            _diag(diags, brief(name) if where == "$" else where + "." + brief(name),
                  "unknown member")
    return False


# The members of each object below a document's top level, and two shapes' wording.
_LINK_MEMBERS, _TAGS = frozenset(("from", "to")), frozenset(("b64", "rational"))
_ENTRY_SIDES = {"reflection": frozenset(("media", "tick", "value")),
                "state": frozenset(("entities", "tick", "value"))}
_VALUE_SHAPE = "value must be text, integer, {\"b64\": ...} or {\"rational\": ...}"
_LINK_SHAPE = "expected {\"from\": state id, \"to\": reflection id}"


def _tagged_value(raw, path, i, diags):
    """A record value given as ``{"b64": ...}`` or ``{"rational": ...}``, else None
    with a diagnostic at ``path % i + ".value"``."""
    path += ".value"
    if not _object(raw, path, i, _TAGS, diags, _VALUE_SHAPE):
        return None
    if len(raw) == 1:
        if type(raw.get("b64")) is str:
            try:
                return base64.b64decode(raw["b64"], validate=True)
            except ValueError:
                _diag(diags, path % i, "invalid base64 payload")
                return None
        if type(raw.get("rational")) is str:
            try:
                return read_fraction(raw["rational"])
            except (ValueError, ZeroDivisionError):
                _diag(diags, path % i, "invalid rational literal %s" % brief_repr(raw["rational"]))
                return None
    _diag(diags, path % i, _VALUE_SHAPE)
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
    names = frozenset(("id", token_field, "tick", "value"))
    for i, raw in enumerate(raw_records):
        if not _object(raw, path, i, names, diags, "expected a record object"):
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
        if _object(raw, "links[%d]", i, _LINK_MEMBERS, diags, _LINK_SHAPE):
            a, b = raw.get("from"), raw.get("to")
            if type(a) is str and type(b) is str:
                links[a, b] = None
            else:
                _diag(diags, "links[%d]" % i, _LINK_SHAPE)
    return tuple(links)


def _weights_from_json(raw, diags) -> dict:
    tables: dict = {}
    if raw is None or not _object(raw, "weights", (), None, diags, _NOT_UNIVERSES):
        return tables
    for universe, table in raw.items():
        if universe not in UNIVERSES:
            _diag(diags, "weights.%s" % brief(universe), "unknown universe")
            continue
        if not _object(table, "weights.%s", universe, None, diags, _NOT_TABLE):
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
    ``{name: read(name, value)}``.  Every object, the top level too, is built by
    one hook: as json builds it, the last of a repeated name winning, but as a
    :class:`_Repeated` that names the repetition, which every reader refuses.
    Text the loop does not take cleanly, such as a top level that is not an
    object or a syntax error between members, is decoded whole by
    ``JSONDecoder.decode``, so that every value and every error message is json's;
    the only object such text holds is the empty one, which has no member to read.
    """

    def __init__(self, read):
        super().__init__(object_pairs_hook=_object_from_pairs)
        self.read = read

    def decode(self, s):
        try:
            return self._members(s)
        except _NotTaken:
            return super().decode(s)

    def _members(self, s) -> dict:
        members = []
        end, sep = _past(s, 0, "{"), ","
        while sep == ",":
            try:
                name, end = scanstring(s, _past(s, end, '"'))
                value, end = self.scan_once(s, _WHITESPACE(s, _past(s, end, ":")).end())
            except (StopIteration, ValueError, RecursionError):
                raise _NotTaken from None
            members.append((name, self.read(name, value)))
            del value  # so that this member's tree is freed before the next is decoded
            end = _WHITESPACE(s, end).end() + 1
            sep = s[end - 1:end]
        if sep != "}" or _WHITESPACE(s, end).end() != len(s):
            raise _NotTaken
        return _object_from_pairs(members)


def _past(s: str, end: int, char: str) -> int:
    """The index just past ``char``, which must be the first character at or
    after ``end`` that is not JSON whitespace."""
    end = _WHITESPACE(s, end).end()
    if s[end:end + 1] != char:
        raise _NotTaken
    return end + 1


def _members_from_text(text: str, readers: dict) -> dict:
    """The reader front of every document: a JSON object whose ``version`` is
    the JSON integer 1, each member read as soon as it is decoded.  A member
    with a reader becomes (what its reader made of it, its diagnostics), and
    equal token lists in any member share one token set; a member whose reader
    is None is kept as json decoded it, and one not in ``readers`` is refused,
    after the version, as a repeated name is before it.  Malformed or too deep
    JSON is a diagnostic."""
    shared: dict = {}

    def read(name, value):
        reader = readers.get(name)
        if reader is None:
            return value
        diags: list = []
        return reader(value, shared, diags), diags

    try:
        doc = json.loads(text, cls=_MemberReader, read=read)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError([Diagnostic(MALFORMED, "malformed JSON: %s" % exc, ())]) from None
    except ValueError:  # the int digit limit; JSONDecodeError, a subclass, is caught above
        raise ValidationError([Diagnostic(
            MALFORMED, "malformed JSON: an integer literal exceeds %d digits" % MAX_LITERAL_DIGITS,
            ())]) from None
    diags: list = []
    if not _object(doc, "$", (), None, diags, "top level must be an object"):
        raise ValidationError(diags)
    version = doc.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1.0 == 1
        raise ValidationError(
            [_schema("version", "unsupported document version %s" % brief_repr(version))]
        )
    if not _object(doc, "$", (), readers.keys(), diags, ""):
        raise ValidationError(diags)
    return doc


# The members of a demand's raw sextuple, in the order their diagnostics are
# reported, each with its reader: (JSON value, shared token sets, diagnostics)
# -> the sextuple's part.
_SEXTUPLE_READERS = {
    "entities": partial(_declared_tokens, member="entities"),
    "media": partial(_declared_tokens, member="media"),
    "state_records": partial(_records, member="state_records", token_field="entities",
                             cls=StateRecord),
    "reflection_records": partial(_records, member="reflection_records", token_field="media",
                                  cls=ReflectionRecord),
    "links": lambda raw, shared, diags: _links(raw, diags),
}
# Each document kind's members, each with its reader, or None for a member kept
# as json decoded it.  A target holds an instance's members but reads no weights.
_TARGET_READERS = dict(_SEXTUPLE_READERS, version=None, weights=None)
_INSTANCE_READERS = dict(_TARGET_READERS,
                         weights=lambda raw, shared, diags: _weights_from_json(raw, diags))
_DECODER_READERS = dict.fromkeys(("version", "kind", "distance", "entries"))
_WEIGHTS_READERS = {"version": None, "weights": _INSTANCE_READERS["weights"]}


def _raw_from_members(members: dict, diags) -> RawSextuple:
    """The raw sextuple of a document's read members; an absent member is empty."""
    parts = []
    for name in _SEXTUPLE_READERS:
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
          '      "tick": %d,\n      "value": %s\n    }')
_REFLECTION = ('    {\n      "id": %s,\n      "media": %s,\n'
               '      "tick": %d,\n      "value": %s\n    }')
_LINK = '    {\n      "from": %s,\n      "to": %s\n    }'
_B64 = '{\n        "b64": "%s"\n      }'
_RATIONAL = '{\n        "rational": %s\n      }'
# Records per format call and digest update, so that hashing holds little text.
_BATCH = 256
# Characters of a kept text hashed per update, so that hashing it holds little more.
_SLICE = 1 << 16
# A record's id, token set, tick and value, as C getters on its tuple.
_ID, _TOKENS, _TICK, _VALUE = map(itemgetter, range(4))
# Where an instance keeps the text ``emit_instance`` wrote for it: a plain entry
# of its ``__dict__``, which is not an index and takes no part in equality.
_TEXT = "_emitted_text"


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
    width = template.count("%")
    full = ",\n".join([template] * _BATCH)
    opening = "[\n"
    while batch := tuple(islice(fields, width * _BATCH)):
        count = len(batch) // width
        yield opening + (full if count == _BATCH else ",\n".join([template] * count)) % batch
        opening = ",\n"
    yield "[]" if opening == "[\n" else "\n  ]"


def _columns(records):
    """The id, token, tick and value columns of records sorted by id, each a C
    iterator.  A token set's text is written once while it is among the last
    ``_BATCH`` distinct sets written, so that records sharing few sets write each
    once and a digest holds few texts; values are quoted directly when every one
    is exactly text."""
    records = sorted(records, key=_ID)
    value_text = _quote if {str}.issuperset(map(type, map(_VALUE, records))) else _value_text
    tokens_text = lru_cache(maxsize=_BATCH)(_tokens_text)
    return (map(_quote, map(_ID, records)), map(tokens_text, map(_TOKENS, records)),
            map(_TICK, records), map(value_text, map(_VALUE, records)))


def _weight_table(universe, table: Mapping) -> dict:
    """A weight table's keys and weights as the texts that read back as them, else
    ``ValueError``, in the reader's wording where it has one."""
    if universe not in UNIVERSES:
        raise ValueError("unknown universe")
    if not isinstance(table, Mapping):
        raise ValueError(_NOT_TABLE)
    if universe == "ticks" and not all(type(k) is int and _within_digits(k) for k in table):
        raise ValueError("tick keys must be integers")
    if universe != "ticks" and not all(type(k) is str for k in table):
        raise ValueError("weight keys must be strings")
    return {str(k): str(_read_weight(w)) for k, w in table.items()}


def _instance_chunks(info: Information, weights: Mapping | None):
    """The canonical text of an instance, written straight from its records."""
    yield '{\n  "entities": %s,\n  "links": ' % _tokens_text(info.ontology, "  ")
    yield from _record_list(_LINK, map(_quote, chain.from_iterable(sorted(info.links))))
    yield ',\n  "media": %s,\n  "reflection_records": ' % _tokens_text(info.carrier, "  ")
    yield from _record_list(_REFLECTION, chain.from_iterable(zip(*_columns(info.reflections))))
    yield ',\n  "state_records": '
    ids, tokens, ticks, values = _columns(info.states)
    yield from _record_list(_STATE, chain.from_iterable(zip(tokens, ids, ticks, values)))
    yield ',\n  "version": %d' % SCHEMA_VERSION
    if weights:
        tables = {universe: _weight_table(universe, table) for universe, table in weights.items()}
        text = json.dumps(tables, indent=2, sort_keys=True)
        yield ',\n  "weights": ' + text.replace("\n", "\n  ")
    yield "\n}\n"


def emit_instance(info: Information, weights: Mapping | None = None) -> str:
    """Serialize an instance to its canonical byte-stable document text.

    Without weights the text is also kept on the instance, for
    :func:`instance_digest` to hash instead of writing it again.
    """
    if weights is not None and not isinstance(weights, Mapping):
        raise ValueError(_NOT_UNIVERSES)
    text = "".join(_instance_chunks(info, weights))
    if not weights:
        info.__dict__[_TEXT] = text
    return text


def _sha256(data: bytes = b""):
    """A sha256 object fed ``data``, from CPython's built-in module, not ``hashlib``,
    which loads OpenSSL (about 3.5 MiB); ``hashlib`` only in a CPython built without
    it.  Imported here: a command that writes no digest loads no hash module."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data)


def text_digest(text: str) -> str:
    """The ``sha256:`` digest reports give a text: the hash of its UTF-8 bytes."""
    return "sha256:" + _sha256(text.encode("utf-8")).hexdigest()


def instance_digest(info: Information) -> str:
    """``text_digest(emit_instance(info))``: the text ``emit_instance`` kept on
    ``info``, else the text hashed piece by piece as it is written.  Either way
    at most one piece is encoded at a time."""
    digest = _sha256()
    text = info.__dict__.get(_TEXT)
    if text is None:
        pieces = _instance_chunks(info, None)
    else:
        pieces = (text[i:i + _SLICE] for i in range(0, len(text), _SLICE))
    for piece in pieces:
        digest.update(piece.encode("ascii"))
    return "sha256:" + digest.hexdigest()


def parse_target(text: str) -> RawSextuple:
    """Parse a document as a demand: its raw sextuple, with nonvoid entities,
    media, state records and reflection records, well-formed records and links
    that name declared records, but no totality, surjectivity or closure, each
    worded as :func:`oit.model.validate` words it.  Its tick sets are its records'
    ticks, nonvoid with them; its ``weights`` member is not read."""
    diags: list = []
    raw = _raw_from_members(_members_from_text(text, _TARGET_READERS), diags)
    if not diags:
        model._check_well_formed(raw, diags, nonvoid=4)  # all components but the links
    if diags:
        raise ValidationError(diags)
    return raw


def parse_decoder(text: str) -> SemanticMapping:
    """Parse a decoder document into its mapping, which carries the document's distance."""
    diags: list = []
    doc = _members_from_text(text, _DECODER_READERS)
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
        if not _object(raw, "entries[%d]", i, _ENTRY_SIDES.keys(), diags,
                       "expected {reflection, state} objects"):
            continue
        errors = len(diags)
        for side, names in _ENTRY_SIDES.items():
            _object(raw.get(side), "entries[%d]." + side, i, names, diags, "expected an object")
        if len(diags) > errors:
            continue
        key = _triple(raw["reflection"], "entries[%d].reflection", i, "media", shared, diags)
        value = _triple(raw["state"], "entries[%d].state", i, "entities", shared, diags)
        if len(diags) == errors:
            if table.setdefault(key, value) != value:
                _diag(diags, "entries[%d].reflection" % i,
                      "already mapped to a different state by entries[%d]" % first[key])
            first.setdefault(key, i)
    if diags:
        raise ValidationError(diags)
    return SemanticMapping.from_table(table, distance)


def parse_weights_file(text: str) -> dict:
    """Parse a weights document, ``{"version": 1, "weights": {...}}``, with the
    instance's own ``weights`` reader: ``null`` gives no tables, a missing member is refused."""
    members = _members_from_text(text, _WEIGHTS_READERS)
    tables, diags = members.get("weights", ({}, [_schema("weights", _NOT_UNIVERSES)]))
    if diags:
        raise ValidationError(diags)
    return tables
