"""Immutable record/link instances and their algebra.

An instance (:class:`Information`) couples two finite record sets through its
links, a set of (state id, reflection id) pairs: state records, valued
observations of entity sets at integer ticks, and reflection records, valued
entries hosted on media sets at ticks.  The link relation is total on state
records and surjective onto reflection records; every component set is
nonempty; and the entity, medium and tick sets are exactly the ones induced by
the records (canonical closure).

Records compare across instances by content, the (token set, tick, value)
triple.  Ids are local handles: restriction and combination keep them, but
they carry no meaning of their own.
"""

from __future__ import annotations

import re
import reprlib
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Iterable

Value = str | int | bytes | Fraction
VALUE_TYPES = frozenset(Value.__args__)
LinkPair = tuple[str, str]


class OitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(OitError):
    """A raw sextuple failed validation; carries the full diagnostic list."""

    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("invalid instance: " + brief_ids([d.message for d in self.diagnostics]))


class EmptySelectionError(OitError):
    """A selection produced no links; instances must stay nonvoid."""


class RecordIdentityClash(OitError):
    """One record id bound to two different content triples."""


class InconsistentOverlap(OitError):
    """Strict combination rejected a state whose links mix both operands."""


class InterfaceMismatch(OitError):
    """Composition interfaces do not match record for record."""

    def __init__(self, unmatched_reflections=(), unmatched_states=()):
        self.unmatched_reflections = tuple(unmatched_reflections)
        self.unmatched_states = tuple(unmatched_states)
        parts = []
        if self.unmatched_reflections:
            parts.append("unmatched first-stage reflections: %s" % brief_ids(self.unmatched_reflections))
        if self.unmatched_states:
            parts.append("unmatched second-stage states: %s" % brief_ids(self.unmatched_states))
        super().__init__("composition interface mismatch: " + "; ".join(parts))


class UnknownRecord(OitError):
    """An id does not refer to any declared record of the instance."""


class Frozen(tuple):
    """An immutable value held as the tuple of its fields.

    A subclass's fields are the parameters of its ``__new__``, in order:
    ``__new__`` checks them and returns ``tuple.__new__(cls, fields)``.  Each
    field reads as an attribute through a C item getter.  No attribute can be
    set.  Two values are equal, and hash equal, when they are of one class with
    equal fields.  A subclass without ``__slots__ = ()`` gets an instance dict,
    where its ``cached_property`` entries live; copies and pickles leave that
    dict behind.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        new = cls.__new__
        cls._fields = new.__code__.co_varnames[1:new.__code__.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other):
        # Not NotImplemented: the reflected tuple.__eq__ would then equal plain tuples.
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is immutable: %r cannot change" % (type(self).__name__, name))

    __delattr__ = __setattr__

    def __getnewargs__(self):
        return tuple(self)

    def __getstate__(self):
        return None  # cached entries are rebuilt on use, not copied or pickled

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % field for field in zip(self._fields, self[:])))


class Diagnostic(Frozen):
    """One validation finding: a stable code, a message, the offending ids."""

    __slots__ = ()

    def __new__(cls, code: str, message: str, subjects: tuple[str, ...] = ()):
        return tuple.__new__(cls, (code, message, subjects))


def brief(text) -> str:
    """Untrusted text for a diagnostic: at most 40 characters; anything but a
    string is shown by its bounded ``repr``."""
    if not isinstance(text, str):
        text = reprlib.repr(text)
    return text if len(text) <= 40 else text[:37] + "..."


def brief_repr(value) -> str:
    """``repr`` of untrusted input for a diagnostic: bounded nesting, at most 40 characters."""
    return brief(reprlib.repr(value))


# The default limit on the digits of an int read from or written as text.
MAX_LITERAL_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_LITERAL_DIGITS


def _within_digits(number) -> bool:
    """Whether an int, or a ``Fraction``'s numerator and denominator, has at most
    ``MAX_LITERAL_DIGITS`` digits, so that it can be written as text; anything
    else passes."""
    if type(number) is Fraction:
        return _within_digits(number.numerator) and _within_digits(number.denominator)
    return type(number) is not int or -_DIGIT_BOUND < number < _DIGIT_BOUND


def _is_real(value) -> bool:
    """Whether a library number parameter is an int, float or ``Fraction``, not a bool."""
    return isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)


# The one number grammar of weights, rationals and command-line numbers, in ASCII
# digits: a decimal with an optional exponent, or ``p/q``.  ``Fraction`` alone
# would also read ``1_0`` from 3.11 on, padding, and any Unicode digit.
_NUMBER = re.compile(r"[+-]?(?:[0-9]+/[0-9]+|(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)")


def read_fraction(text: str) -> Fraction:
    """``Fraction(text)`` for a literal of the ``_NUMBER`` grammar, refusing first
    one whose exponent would expand it beyond ``MAX_LITERAL_DIGITS`` digits:
    ``1e10000000`` alone takes seconds.

    The mantissa's digits and point plus the exponent's magnitude bound both
    numerator and denominator (``.3e-4299`` needs the point), so every accepted
    literal can be written back as text.
    """
    if not _NUMBER.fullmatch(text):
        raise ValueError("invalid number literal %s" % brief_repr(text))
    mantissa, e, exponent = text.lower().partition("e")
    if e and len(mantissa.lstrip("+-")) + abs(int(exponent)) > MAX_LITERAL_DIGITS:
        raise ValueError("literal exceeds %d digits" % MAX_LITERAL_DIGITS)
    return Fraction(text)


def _id_order(i):
    """Sort key for ids that need not all be strings: strings first, in their own order."""
    return (0, i) if isinstance(i, str) else (1, repr(i))


LISTED_IDS = 10


def brief_ids(ids, quote=str) -> str:
    """Untrusted ids for a diagnostic: the first ``LISTED_IDS``, each through ``brief``
    and, if it is a string, then ``quote``, joined by commas, then how many more there are."""
    shown = ", ".join(
        quote(brief(i)) if isinstance(i, str) else brief(i) for i in ids[:LISTED_IDS]
    )
    more = len(ids) - LISTED_IDS
    return shown + (", ... and %d more" % more if more > 0 else "")


EMPTY_COMPONENT = "empty-component"
EMPTY_RECORD_TOKENS = "empty-record-tokens"
DUPLICATE_RECORD_ID = "duplicate-record-id"
DUPLICATE_RECORD_CONTENT = "duplicate-record-content"
DANGLING_LINK_SOURCE = "dangling-link-source"
DANGLING_LINK_TARGET = "dangling-link-target"
UNLINKED_STATE = "unlinked-state"
UNLINKED_REFLECTION = "unlinked-reflection"
CLOSURE_MISMATCH = "closure-mismatch"
UNWRITABLE_RECORD = "unwritable-record"
MALFORMED_LINK = "malformed-link"


_ID, _IDENTITY = itemgetter(0), itemgetter(slice(1, 4))  # a record's id and content triple


class StateRecord(Frozen):
    """A valued observation of a nonempty entity set at one tick; ``identity``
    is its content triple."""

    __slots__ = ()
    identity = property(_IDENTITY)

    def __new__(cls, id: str, entities, tick: int, value: Value):
        return tuple.__new__(cls, (id, frozenset(entities), tick, value))


class ReflectionRecord(Frozen):
    """A valued carrier entry hosted on a nonempty media set at one tick; its
    tuple is laid out as a state record's."""

    __slots__ = ()
    identity = property(_IDENTITY)

    def __new__(cls, id: str, media, tick: int, value: Value):
        return tuple.__new__(cls, (id, frozenset(media), tick, value))


def _token_union(records) -> frozenset:
    """Every token of the records' entity or media sets."""
    return frozenset(chain.from_iterable(map(itemgetter(1), records)))


class LinkRelation(Frozen):
    """A view of an instance's link set: its size and its two endpoint sets,
    which ``bench/tracing.py`` reads."""

    def __new__(cls, links: Iterable[LinkPair]):
        return tuple.__new__(cls, (frozenset(links),))

    def __len__(self):
        return len(self.links)

    sources = property(lambda self: frozenset(a for a, _ in self.links))
    targets = property(lambda self: frozenset(b for _, b in self.links))


def _grouped(pairs) -> dict:
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return {key: tuple(sorted(values)) for key, values in out.items()}


class Information(Frozen):
    """A validated instance: states, reflections and the set of (state id,
    reflection id) links, a total surjective relation.

    Construction validates, as :func:`build` does, over the entity and media
    sets the records induce, and raises :class:`ValidationError` on invalid
    input; so do copies and pickles.

    The four token/tick components (ontology, occurrence ticks, carrier,
    reflection ticks) are derived from the records, which canonical closure
    makes the only consistent choice.  The other indexes, the endpoint maps
    ``successors`` and ``predecessors`` among them, are built on first use.
    """

    def __new__(cls, states: Iterable[StateRecord], reflections: Iterable[ReflectionRecord],
                links: Iterable[LinkPair]):
        states, reflections = tuple(states), tuple(reflections)
        return build(RawSextuple(_token_union(states), _token_union(reflections), states,
                                 reflections, links))

    def __repr__(self):
        return "Information(states=%d, reflections=%d, links=%d)" % (
            len(self.states),
            len(self.reflections),
            len(self.links),
        )

    @property
    def relation(self) -> LinkRelation:
        # Not cached: bench/tracing.py reads it inside its wrapper of every cached index.
        return LinkRelation(self.links)

    @cached_property
    def ontology(self) -> frozenset:
        return _token_union(self.states)

    @cached_property
    def occurrence_ticks(self) -> frozenset:
        return frozenset(rec.tick for rec in self.states)

    @cached_property
    def carrier(self) -> frozenset:
        return _token_union(self.reflections)

    @cached_property
    def reflection_ticks(self) -> frozenset:
        return frozenset(rec.tick for rec in self.reflections)

    @cached_property
    def state_by_id(self) -> dict:
        return {rec.id: rec for rec in self.states}

    @cached_property
    def reflection_by_id(self) -> dict:
        return {rec.id: rec for rec in self.reflections}

    @cached_property
    def state_id_by_identity(self) -> dict:
        return {rec.identity: rec.id for rec in self.states}

    @cached_property
    def reflection_id_by_identity(self) -> dict:
        return {rec.identity: rec.id for rec in self.reflections}

    # From the maps' keys, so that both indexes share one triple per record.
    @cached_property
    def state_identities(self) -> frozenset:
        return frozenset(self.state_id_by_identity)

    @cached_property
    def reflection_identities(self) -> frozenset:
        return frozenset(self.reflection_id_by_identity)

    @cached_property
    def successors(self) -> dict:
        """State id -> sorted tuple of the reflection ids it links to."""
        return _grouped(self.links)

    @cached_property
    def predecessors(self) -> dict:
        """Reflection id -> sorted tuple of the state ids linked to it."""
        return _grouped((b, a) for a, b in self.links)


class RawSextuple(Frozen):
    """An unchecked sextuple description, the input to :func:`validate` and the
    form of a demand.  Each part is held as a tuple, and so is a link given as a list."""

    __slots__ = ()

    def __new__(cls, entities, media, states, reflections, links):
        return tuple.__new__(cls, (tuple(entities), tuple(media), tuple(states), tuple(reflections),
                                   tuple(tuple(p) if isinstance(p, list) else p for p in links)))


def _hashable(item) -> bool:
    try:
        hash(item)
    except TypeError:
        return False
    return True


def _check_records(records, token_field: str, label: str, diags: list):
    """Report empty token sets and id or content clashes; return the declared ids.
    A record with an unhashable id declares none, and one with an unhashable
    tick or value clashes with no content: either is unwritable."""
    by_id: dict = {}  # id -> the content triple it was first declared with
    by_identity: dict = {}
    for rec in records:
        rec_id, identity = rec.id, rec.identity
        if not identity[0]:
            diags.append(
                Diagnostic(
                    EMPTY_RECORD_TOKENS,
                    "%s record %s has an empty %s set" % (label, brief(rec_id), token_field),
                    (rec_id,),
                )
            )
        try:
            prev = by_id.get(rec_id)
        except TypeError:
            continue
        if prev is not None:
            code = DUPLICATE_RECORD_ID if prev != identity else DUPLICATE_RECORD_CONTENT
            diags.append(
                Diagnostic(
                    code,
                    "record identity clash: %s record id %s declared twice" % (label, brief(rec_id)),
                    (rec_id,),
                )
            )
        else:
            by_id[rec_id] = identity
        try:
            prev_id = by_identity.get(identity)
        except TypeError:
            continue
        if prev_id is not None and prev_id != rec_id:
            diags.append(
                Diagnostic(
                    DUPLICATE_RECORD_CONTENT,
                    "%s records %s and %s share one content triple"
                    % (label, brief(prev_id), brief(rec_id)),
                    (prev_id, rec_id),
                )
            )
        else:
            by_identity[identity] = rec_id
    return by_id.keys()


def _is_pair(link) -> bool:
    """Whether ``link`` is a tuple of two hashable endpoints."""
    return isinstance(link, tuple) and len(link) == 2 and _hashable(link)


def _check_well_formed(raw: RawSextuple, diags: list, nonvoid: int = 5):
    """The checks instances and demands share: the first ``nonvoid`` components
    are nonvoid (a demand's links may be empty), then the two record sets, then
    every link is a pair whose endpoints name declared records.  Returns the
    declared state and reflection ids and the links whose endpoints are declared.
    """
    names = ("entities", "media", "state records", "reflection records", "links")
    for name, component in zip(names[:nonvoid], raw):
        if not component:
            diags.append(Diagnostic(EMPTY_COMPONENT, "component %r is empty" % name, (name,)))
    state_ids = _check_records(raw.states, "entities", "state", diags)
    reflection_ids = _check_records(raw.reflections, "media", "reflection", diags)
    good_links = set()
    for link in raw.links:
        if not _is_pair(link):
            message = "malformed link %s: expected a pair of record ids" % brief_repr(link)
            diags.append(Diagnostic(MALFORMED_LINK, message))
            continue
        a, b = link
        if a in state_ids and b in reflection_ids:
            good_links.add(link)
            continue
        if a not in state_ids:
            diags.append(
                Diagnostic(
                    DANGLING_LINK_SOURCE,
                    "dangling link source: %s is not a declared state record" % brief(a),
                    (a,),
                )
            )
        if b not in reflection_ids:
            diags.append(
                Diagnostic(
                    DANGLING_LINK_TARGET,
                    "dangling link target: %s is not a declared reflection record" % brief(b),
                    (b,),
                )
            )
    return state_ids, reflection_ids, good_links


# A high surrogate then a low one: json reads their two escapes back as one character.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _writable(ids, tokens, ticks, values) -> bool:
    """Whether an instance document can hold records with these parts: nonempty
    string ids, string tokens, integer ticks, and text, integer, byte or rational
    values, with no surrogate pair in any id, token or text and no tick or number
    beyond ``MAX_LITERAL_DIGITS`` digits."""
    value_types = set(map(type, values))
    if not ("" not in ids and set(map(type, chain(ids, tokens))) <= {str}
            and set(map(type, ticks)) <= {int} and value_types <= VALUE_TYPES
            and _within_digits(min(ticks, default=0)) and _within_digits(max(ticks, default=0))
            and (value_types <= {str, bytes} or all(map(_within_digits, values)))):
        return False
    # NUL between the parts, so that no pair spans two of them.
    texts = "\0".join(chain(ids, tokens, (v for v in values if type(v) is str)))
    return texts.isascii() or not _SURROGATE_PAIR.search(texts)


def _listed_tokens(tokens: list) -> str:
    return "[%s]" % brief_ids(tokens, repr) if tokens else "none"


def validate(raw: RawSextuple) -> list:
    """Check every instance invariant; an empty list means the input is valid.

    Diagnostics name the violated invariant and the offending ids.  A raw
    sextuple that validates cleanly is accepted by :func:`build`, and its
    resulting instance satisfies the precondition of every operation in
    this module.
    """
    diags: list = []
    state_ids, reflection_ids, good_links = _check_well_formed(raw, diags)

    linked_sources = {a for a, _ in good_links}
    linked_targets = {b for _, b in good_links}
    for rec_id in sorted(state_ids - linked_sources, key=_id_order):
        diags.append(
            Diagnostic(
                UNLINKED_STATE,
                "totality violation: state record %s has no link" % brief(rec_id),
                (rec_id,),
            )
        )
    for rec_id in sorted(reflection_ids - linked_targets, key=_id_order):
        diags.append(
            Diagnostic(
                UNLINKED_REFLECTION,
                "surjectivity violation: reflection record %s has no link" % brief(rec_id),
                (rec_id,),
            )
        )

    induced_entities, induced_media = _token_union(raw.states), _token_union(raw.reflections)
    # Whole parts are checked first, so that valid records are not walked one by one.
    for label, records, tokens in (
        ("state", raw.states, induced_entities),
        ("reflection", raw.reflections, induced_media),
    ):
        ids, ticks, values = (list(map(attrgetter(f), records)) for f in ("id", "tick", "value"))
        if not _writable(ids, tokens, ticks, values):
            diags.extend(
                Diagnostic(
                    UNWRITABLE_RECORD,
                    "%s record %s has an id, token, tick or value that no instance "
                    "document can hold" % (label, brief(rec.id)),
                    (rec.id,),
                )
                for rec in records
                if not _writable([rec.id], rec.identity[0], [rec.tick], [rec.value])
            )
    for name, tokens, induced in (
        ("entities", raw.entities, induced_entities),
        ("media", raw.media, induced_media),
    ):
        try:
            declared, unhashable = frozenset(tokens), []
        except TypeError:  # such a token is in no record's set: it is declared only
            declared = frozenset(t for t in tokens if _hashable(t))
            unhashable = [t for t in tokens if not _hashable(t)]
        if declared != induced or unhashable:
            extra = sorted([*(declared - induced), *unhashable], key=_id_order)
            missing = sorted(induced - declared, key=_id_order)
            diags.append(
                Diagnostic(
                    CLOSURE_MISMATCH,
                    "canonical closure violated for %s (declared-only: %s; record-only: %s)"
                    % (name, _listed_tokens(extra), _listed_tokens(missing)),
                    tuple(extra + missing),
                )
            )

    return diags


def build(raw: RawSextuple) -> Information:
    """Validate ``raw`` and return the canonical instance, else raise.

    This is the one validation boundary.  The algebra below builds its
    results unchecked: its operations keep every invariant of valid operands.
    """
    diags = validate(raw)
    if diags:
        raise ValidationError(diags)
    return _information(raw.states, raw.reflections, raw.links)


def _information(states, reflections, links) -> Information:
    """The instance of parts known to be valid, built without checking them."""
    return tuple.__new__(Information, (frozenset(states), frozenset(reflections), frozenset(links)))


def _containment(candidate: Information, parent: Information) -> tuple:
    """Map ``candidate``'s records into ``parent`` by content: the parent id of each
    candidate state (None where the parent has no state of its content), and the
    candidate's links whose content the parent lacks."""
    state_ids, reflection_ids = parent.state_id_by_identity, parent.reflection_id_by_identity
    states = {rec.id: state_ids.get(rec.identity) for rec in candidate.states}
    reflections = {rec.id: reflection_ids.get(rec.identity) for rec in candidate.reflections}
    links = parent.links
    return states, [(a, b) for a, b in candidate.links if (states[a], reflections[b]) not in links]


def is_sub_information(candidate: Information, parent: Information) -> bool:
    """True when every link of ``candidate`` appears in ``parent`` by content.

    Link containment plus canonical closure implies containment of all six
    components, so nothing else needs checking.
    """
    return not _containment(candidate, parent)[1]


def is_proper_sub_information(candidate: Information, parent: Information) -> bool:
    """True when the containment is strict in at least one of the six components.

    Records of one instance differ in content, so a contained candidate's
    records map one to one into the parent's, and the four token/tick components
    follow from the records: the containment is strict exactly when the
    candidate has fewer state or fewer reflection records.  Dropping a replica
    link between otherwise-covered records keeps every record, so it is not proper.
    """
    return is_sub_information(candidate, parent) and (
        len(candidate.states) < len(parent.states)
        or len(candidate.reflections) < len(parent.reflections))


def _induced(parent: Information, selected) -> Information:
    states = {parent.state_by_id[a] for a, _ in selected}
    reflections = {parent.reflection_by_id[b] for _, b in selected}
    return _information(states, reflections, selected)


def restrict(parent: Information, keep: Callable) -> Information:
    """Sub-information induced by the links for which ``keep(state, reflection)`` holds."""
    selected = {
        (a, b)
        for a, b in parent.links
        if keep(parent.state_by_id[a], parent.reflection_by_id[b])
    }
    if not selected:
        raise EmptySelectionError("empty sub-information")
    return _induced(parent, selected)


def _check_known(kind: str, wanted: set, known) -> None:
    """Raise :class:`UnknownRecord` listing, briefly, the ``wanted`` ids not in ``known``."""
    unknown = wanted - known
    if unknown:
        raise UnknownRecord("unknown %s: %s" % (kind, brief_ids(sorted(unknown, key=_id_order))))


def restrict_links(parent: Information, link_ids: Iterable[LinkPair]) -> Information:
    """Sub-information induced by an explicit set of parent link pairs."""
    selected = {tuple(p) for p in link_ids}
    _check_known("links", selected, parent.links)
    if not selected:
        raise EmptySelectionError("empty sub-information")
    return _induced(parent, selected)


def _merge_record_class(recs_a, recs_b, label: str) -> tuple:
    """The records of both operands, one per content triple with the smallest id
    winning, and the renames: each losing id -> its winner's id.  The smallest id
    bound to two triples raises."""
    records = sorted({*recs_a, *recs_b}, key=_ID, reverse=True)
    by_id = dict(zip(map(_ID, records), records))
    if len(by_id) < len(records):  # two unequal records share an id
        clash = min(rec.id for rec in records if by_id[rec.id] is not rec)
        raise RecordIdentityClash("record identity clash: %s record %s" % (label, brief(clash)))
    # Records run from the largest id down, so the smallest id is written last.
    merged = dict(zip(map(_IDENTITY, records), records))
    renames = {}
    if len(merged) < len(records):
        renames = {rec[0]: merged[_IDENTITY(rec)][0] for rec in records
                   if merged[_IDENTITY(rec)] is not rec}
    return merged.values(), renames


def combine(a: Information, b: Information, mode: str = "strict") -> Information:
    """Union of two instances; both operands become sub-informations of the result.

    Records with equal content triples are identified (the smaller id wins).
    Strict mode additionally requires each state of the result to take its
    full link set from one operand alone, so a state whose replicas are
    split across the operands is rejected; lax mode keeps every link.

    Links are rewritten only when some record lost its id to a smaller one of
    the same content; otherwise, as for two restrictions of one instance, both
    operands' link sets are taken as they are.
    """
    if mode not in ("strict", "lax"):
        raise ValueError("combine mode must be 'strict' or 'lax', got %s" % brief_repr(mode))

    states, state_renames = _merge_record_class(a.states, b.states, "state")
    reflections, reflection_renames = _merge_record_class(a.reflections, b.reflections,
                                                          "reflection")
    links_a, links_b = a.links, b.links
    if state_renames or reflection_renames:
        def rewritten(links) -> set:
            return {(state_renames.get(s, s), reflection_renames.get(r, r)) for s, r in links}

        links_a, links_b = rewritten(links_a), rewritten(links_b)
    if mode == "strict":
        # A state takes its links from one operand alone unless it has a link
        # that only ``a`` holds and one that only ``b`` holds.
        split = {s for s, _ in links_a - links_b} & {s for s, _ in links_b - links_a}
        if split:
            raise InconsistentOverlap("inconsistent overlap at %s" % brief(min(split)))

    return _information(states, reflections, links_a | links_b)


def compose(first: Information, second: Information) -> Information:
    """Chain two stages whose interface records match content for content.

    Every reflection of ``first`` must reappear as a state of ``second``
    (same token set, tick and value, with the media tokens acting as the
    second stage's entities), and vice versa.  The result keeps the first
    stage's state side and the second stage's reflection side, with the
    relational composition of the two link sets.
    """
    match: dict = {}
    unmatched_reflections = []
    for rec in sorted(first.reflections, key=attrgetter("id")):
        sid = second.state_id_by_identity.get(rec.identity)
        if sid is None:
            unmatched_reflections.append(rec.id)
        else:
            match[rec.id] = sid
    matched = set(match.values())
    unmatched_states = sorted(rec.id for rec in second.states if rec.id not in matched)
    if unmatched_reflections or unmatched_states:
        raise InterfaceMismatch(unmatched_reflections, unmatched_states)

    successors = second.successors
    links = {(a, c) for a, b in first.links for c in successors[match[b]]}
    return _information(first.states, second.reflections, links)


class Atom(Frozen):
    """One link as the two records it joins; ``info`` is its one-link instance."""

    __slots__ = ()

    def __new__(cls, state: StateRecord, reflection: ReflectionRecord):
        return tuple.__new__(cls, (state, reflection))

    link = property(lambda self: (self.state.id, self.reflection.id))
    link_identity = property(lambda self: (self.state.identity, self.reflection.identity))

    @property
    def info(self) -> Information:
        return _information((self.state,), (self.reflection,), (self.link,))


def atoms(info: Information) -> tuple:
    """All atoms of the instance, one per link, sorted by link ids."""
    states, reflections = info.state_by_id, info.reflection_by_id
    return tuple(Atom(states[a], reflections[b]) for a, b in sorted(info.links))


def image(info: Information, state_ids: Iterable[str]) -> frozenset:
    """Reflection record ids linked from any of the given state records."""
    wanted = set(state_ids)
    _check_known("state records", wanted, info.state_by_id.keys())
    return frozenset(b for a in wanted for b in info.successors.get(a, ()))


def preimage(info: Information, reflection_ids: Iterable[str]) -> frozenset:
    """State record ids linked to any of the given reflection records.

    This is the set-valued inverse of the relation; it is single-valued
    exactly when the instance is reducible (see :func:`is_reducible`).
    """
    wanted = set(reflection_ids)
    _check_known("reflection records", wanted, info.reflection_by_id.keys())
    return frozenset(a for b in wanted for a in info.predecessors.get(b, ()))


class ReducibilityReport(Frozen):
    """Whether the relation, read as a function, loses nothing: the sorted ids of
    the states and of the reflections with more than one link, from which the
    properties ``functional``, ``injective`` and ``reducible`` (its truth) derive."""

    __slots__ = ()

    def __new__(cls, multi_target_states: tuple, multi_source_reflections: tuple):
        return tuple.__new__(cls, (multi_target_states, multi_source_reflections))

    functional = property(lambda self: not self.multi_target_states)
    injective = property(lambda self: not self.multi_source_reflections)
    reducible = property(lambda self: self.functional and self.injective)

    def __bool__(self):
        return self.reducible


def is_reducible(info: Information) -> ReducibilityReport:
    """Report functionality and injectivity of the relation.

    Exact lossless reduction (preimage after image is the identity on
    singletons) holds iff the relation is both functional and injective.
    """
    return ReducibilityReport(
        tuple(sorted(a for a, bs in info.successors.items() if len(bs) > 1)),
        tuple(sorted(b for b, xs in info.predecessors.items() if len(xs) > 1)),
    )
