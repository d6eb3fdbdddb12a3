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
    where its ``cached_property`` entries live.  ``__new__`` may keep items
    derived from the fields after them: they take part in equality and
    hashing, and copies and pickles rebuild them from the fields.
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
        return self[:len(self._fields)]

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


def read_fraction(text: str) -> Fraction:
    """``Fraction(text)``, refusing first a literal whose exponent would expand it
    beyond ``MAX_LITERAL_DIGITS`` digits: ``1e10000000`` alone takes seconds.

    The mantissa's digits and point plus the exponent's magnitude bound both
    numerator and denominator (``.3e-4299`` needs the point), so every accepted
    literal can be written back as text.
    """
    mantissa, e, exponent = text.lower().partition("e")
    if e:
        try:
            size = sum(c.isdigit() or c == "." for c in mantissa) + abs(int(exponent))
        except ValueError:
            size = 0  # no integer exponent: Fraction rejects the literal itself
        if size > MAX_LITERAL_DIGITS:
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


class StateRecord(Frozen):
    """A valued observation of a nonempty entity set at one tick.

    Its tuple is ``(id, entities, tick, value, identity)``: ``identity``, the
    content triple (token set, tick, value), is built once, with the record.
    """

    __slots__ = ()
    identity = property(itemgetter(4))

    def __new__(cls, id: str, entities, tick: int, value: Value):
        entities = frozenset(entities)
        return tuple.__new__(cls, (id, entities, tick, value, (entities, tick, value)))


class ReflectionRecord(Frozen):
    """A valued carrier entry hosted on a nonempty media set at one tick; its
    tuple is laid out as a state record's."""

    __slots__ = ()
    identity = property(itemgetter(4))

    def __new__(cls, id: str, media, tick: int, value: Value):
        media = frozenset(media)
        return tuple.__new__(cls, (id, media, tick, value, (media, tick, value)))


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

    The four token/tick components (ontology, occurrence ticks, carrier,
    reflection ticks) are derived from the records, which canonical closure
    makes the only consistent choice.  The other indexes, the endpoint maps
    ``successors`` and ``predecessors`` among them, are built on first use.
    """

    def __new__(cls, states: Iterable[StateRecord], reflections: Iterable[ReflectionRecord],
                links: Iterable[LinkPair]):
        return tuple.__new__(cls, (frozenset(states), frozenset(reflections), frozenset(links)))

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

    @cached_property
    def state_identities(self) -> frozenset:
        return frozenset(rec.identity for rec in self.states)

    @cached_property
    def reflection_identities(self) -> frozenset:
        return frozenset(rec.identity for rec in self.reflections)

    @cached_property
    def link_identities(self) -> frozenset:
        return frozenset(
            (self.state_by_id[a].identity, self.reflection_by_id[b].identity)
            for a, b in self.links
        )

    @cached_property
    def successors(self) -> dict:
        """State id -> sorted tuple of the reflection ids it links to."""
        return _grouped(self.links)

    @cached_property
    def predecessors(self) -> dict:
        """Reflection id -> sorted tuple of the state ids linked to it."""
        return _grouped((b, a) for a, b in self.links)


class RawSextuple(Frozen):
    """An unchecked sextuple description, the input to :func:`validate`."""

    __slots__ = ()

    def __new__(cls, entities: tuple, media: tuple, states: tuple, reflections: tuple,
                links: tuple):
        return tuple.__new__(cls, (entities, media, states, reflections, links))

    @classmethod
    def of(cls, entities, media, states, reflections, links) -> RawSextuple:
        return cls(
            tuple(entities),
            tuple(media),
            tuple(states),
            tuple(reflections),
            tuple(tuple(p) if isinstance(p, list) else p for p in links),
        )


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


def _check_well_formed(components, states, reflections, links, diags: list):
    """The checks instances and demand sextuples share: each named component
    is nonvoid, then the two record sets, then every link is a pair whose
    endpoints name declared records.  Returns the declared state and
    reflection ids and the links whose two endpoints are declared.
    """
    for name, component in components:
        if not component:
            diags.append(Diagnostic(EMPTY_COMPONENT, "component %r is empty" % name, (name,)))
    state_ids = _check_records(states, "entities", "state", diags)
    reflection_ids = _check_records(reflections, "media", "reflection", diags)
    good_links = set()
    for link in links:
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
    values, with no surrogate pair in any id, token or text."""
    if not ("" not in ids and set(map(type, chain(ids, tokens))) <= {str}
            and set(map(type, ticks)) <= {int} and set(map(type, values)) <= VALUE_TYPES):
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
    state_ids, reflection_ids, good_links = _check_well_formed(
        (("entities", raw.entities), ("media", raw.media), ("state records", raw.states),
         ("reflection records", raw.reflections), ("links", raw.links)),
        raw.states, raw.reflections, raw.links, diags,
    )

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
    results directly: its operations keep every invariant of valid operands.
    """
    diags = validate(raw)
    if diags:
        raise ValidationError(diags)
    return Information(raw.states, raw.reflections, raw.links)


def assemble(states, reflections, links) -> Information:
    """Build an instance from records and links, deriving the token sets."""
    states = tuple(states)
    reflections = tuple(reflections)
    return build(RawSextuple.of(_token_union(states), _token_union(reflections), states,
                                reflections, links))


def is_sub_information(candidate: Information, parent: Information) -> bool:
    """True when every link of ``candidate`` appears in ``parent`` by content.

    Link containment plus canonical closure implies containment of all six
    components, so nothing else needs checking.  Each candidate record is
    mapped to the parent's record of the same content, and each mapped link is
    looked up among the parent's links.
    """
    state_ids, reflection_ids = parent.state_id_by_identity, parent.reflection_id_by_identity
    states = {rec.id: state_ids.get(rec.identity) for rec in candidate.states}
    reflections = {rec.id: reflection_ids.get(rec.identity) for rec in candidate.reflections}
    links = parent.links
    return all((states[a], reflections[b]) in links for a, b in candidate.links)


def is_proper_sub_information(candidate: Information, parent: Information) -> bool:
    """True when the containment is strict in at least one of the six components.

    Dropping a link while keeping every record (a replica link between
    otherwise-covered records) leaves all six components equal, so a strict
    link subset alone does not make the containment proper.
    """
    if not is_sub_information(candidate, parent):
        return False
    return (
        candidate.ontology < parent.ontology
        or candidate.occurrence_ticks < parent.occurrence_ticks
        or candidate.state_identities < parent.state_identities
        or candidate.carrier < parent.carrier
        or candidate.reflection_ticks < parent.reflection_ticks
        or candidate.reflection_identities < parent.reflection_identities
    )


def _induced(parent: Information, selected) -> Information:
    states = {parent.state_by_id[a] for a, _ in selected}
    reflections = {parent.reflection_by_id[b] for _, b in selected}
    return Information(states, reflections, selected)


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


def _merge_record_class(recs_a, recs_b, label: str) -> dict:
    """Content triple -> merged record, the smallest id winning; the smallest
    id bound to two triples raises."""
    records = sorted({*recs_a, *recs_b}, key=attrgetter("id"), reverse=True)
    by_id = dict(zip(map(attrgetter("id"), records), records))
    if len(by_id) < len(records):  # two unequal records share an id
        clash = min(rec.id for rec in records if by_id[rec.id] is not rec)
        raise RecordIdentityClash("record identity clash: %s record %s" % (label, brief(clash)))
    # Records run from the largest id down, so the smallest id is written last.
    return dict(zip(map(attrgetter("identity"), records), records))


def combine(a: Information, b: Information, mode: str = "strict") -> Information:
    """Union of two instances; both operands become sub-informations of the result.

    Records with equal content triples are identified (the smaller id wins).
    Strict mode additionally requires each state of the result to take its
    full link set from one operand alone, so a state whose replicas are
    split across the operands is rejected; lax mode keeps every link.
    """
    if mode not in ("strict", "lax"):
        raise ValueError("combine mode must be 'strict' or 'lax', got %s" % brief_repr(mode))

    states = _merge_record_class(a.states, b.states, "state")
    reflections = _merge_record_class(a.reflections, b.reflections, "reflection")

    def rewritten(info: Information) -> set:
        return {(states[s].id, reflections[r].id) for s, r in info.link_identities}

    links_a, links_b = rewritten(a), rewritten(b)
    if mode == "strict":
        # A state takes its links from one operand alone unless it has a link
        # that only ``a`` holds and one that only ``b`` holds.
        split = {s for s, _ in links_a - links_b} & {s for s, _ in links_b - links_a}
        if split:
            raise InconsistentOverlap("inconsistent overlap at %s" % brief(min(split)))

    return Information(states.values(), reflections.values(), links_a | links_b)


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
    return Information(first.states, second.reflections, links)


class Atom(Frozen):
    """One link as the two records it joins; ``info`` is its one-link instance."""

    __slots__ = ()

    def __new__(cls, state: StateRecord, reflection: ReflectionRecord):
        return tuple.__new__(cls, (state, reflection))

    link = property(lambda self: (self.state.id, self.reflection.id))
    link_identity = property(lambda self: (self.state.identity, self.reflection.identity))

    @property
    def info(self) -> Information:
        return Information((self.state,), (self.reflection,), (self.link,))


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
    """Whether the relation, read as a function, loses nothing."""

    __slots__ = ()

    def __new__(cls, functional: bool, injective: bool, reducible: bool,
                multi_target_states: tuple, multi_source_reflections: tuple):
        return tuple.__new__(
            cls, (functional, injective, reducible, multi_target_states, multi_source_reflections))

    def __bool__(self):
        return self.reducible


def is_reducible(info: Information) -> ReducibilityReport:
    """Report functionality and injectivity of the relation.

    Exact lossless reduction (preimage after image is the identity on
    singletons) holds iff the relation is both functional and injective.
    """
    multi_target = tuple(sorted(a for a, bs in info.successors.items() if len(bs) > 1))
    multi_source = tuple(sorted(b for b, xs in info.predecessors.items() if len(xs) > 1))
    functional = not multi_target
    injective = not multi_source
    return ReducibilityReport(
        functional=functional,
        injective=injective,
        reducible=functional and injective,
        multi_target_states=multi_target,
        multi_source_reflections=multi_source,
    )
