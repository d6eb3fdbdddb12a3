"""Immutable record/link instances and their algebra.

An instance (:class:`Information`) couples two finite record sets through a
link relation: state records, valued observations of entity sets at integer
ticks, and reflection records, valued entries hosted on media sets at ticks.
The relation is total on state records and surjective onto reflection
records; every component set is nonempty; and the entity, medium and tick
sets are exactly the ones induced by the records (canonical closure).

Records compare across instances by content, the (token set, tick, value)
triple.  Ids are local handles: restriction and combination keep them, but
they carry no meaning of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable

Value = str | int | bytes | Fraction
LinkPair = tuple[str, str]
Identity = tuple[frozenset, int, Value]


class OitError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(OitError):
    """A raw sextuple failed validation; carries the full diagnostic list."""

    def __init__(self, diagnostics: Iterable[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__(
            "invalid instance: " + "; ".join(d.message for d in self.diagnostics)
        )


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
            parts.append("unmatched first-stage reflections: %s" % ", ".join(self.unmatched_reflections))
        if self.unmatched_states:
            parts.append("unmatched second-stage states: %s" % ", ".join(self.unmatched_states))
        super().__init__("composition interface mismatch: " + "; ".join(parts))


class UnknownRecord(OitError):
    """An id does not refer to any declared record of the instance."""


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: a stable code, a message, the offending ids."""

    code: str
    message: str
    subjects: tuple[str, ...] = ()


EMPTY_COMPONENT = "empty-component"
EMPTY_RECORD_TOKENS = "empty-record-tokens"
DUPLICATE_RECORD_ID = "duplicate-record-id"
DUPLICATE_RECORD_CONTENT = "duplicate-record-content"
DANGLING_LINK_SOURCE = "dangling-link-source"
DANGLING_LINK_TARGET = "dangling-link-target"
UNLINKED_STATE = "unlinked-state"
UNLINKED_REFLECTION = "unlinked-reflection"
CLOSURE_MISMATCH = "closure-mismatch"


def _tokens(raw: Iterable[str]) -> frozenset:
    return raw if isinstance(raw, frozenset) else frozenset(raw)


@dataclass(frozen=True)
class StateRecord:
    """A valued observation of a nonempty entity set at one tick."""

    id: str
    entities: frozenset
    tick: int
    value: Value

    def __post_init__(self):
        object.__setattr__(self, "entities", _tokens(self.entities))

    @property
    def identity(self) -> Identity:
        return (self.entities, self.tick, self.value)


@dataclass(frozen=True)
class ReflectionRecord:
    """A valued carrier entry hosted on a nonempty media set at one tick."""

    id: str
    media: frozenset
    tick: int
    value: Value

    def __post_init__(self):
        object.__setattr__(self, "media", _tokens(self.media))

    @property
    def identity(self) -> Identity:
        return (self.media, self.tick, self.value)


@dataclass(frozen=True)
class LinkRelation:
    """The link set from state record ids to reflection record ids."""

    links: frozenset

    def __post_init__(self):
        object.__setattr__(
            self, "links", frozenset((str(a), str(b)) for a, b in self.links)
        )

    def __iter__(self):
        return iter(self.links)

    def __len__(self):
        return len(self.links)

    def __contains__(self, pair):
        return tuple(pair) in self.links

    @cached_property
    def sources(self) -> frozenset:
        return frozenset(a for a, _ in self.links)

    @cached_property
    def targets(self) -> frozenset:
        return frozenset(b for _, b in self.links)

    def image_of(self, state_ids: Iterable[str]) -> frozenset:
        wanted = set(state_ids)
        return frozenset(b for a, b in self.links if a in wanted)

    def preimage_of(self, reflection_ids: Iterable[str]) -> frozenset:
        wanted = set(reflection_ids)
        return frozenset(a for a, b in self.links if b in wanted)


@dataclass(frozen=True)
class Information:
    """A validated instance: states, reflections and a total surjective relation.

    The four token/tick components (ontology, occurrence ticks, carrier,
    reflection ticks) are derived from the records, which canonical closure
    makes the only consistent choice.
    """

    states: frozenset
    reflections: frozenset
    relation: LinkRelation

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "reflections", frozenset(self.reflections))

    def __repr__(self):
        return "Information(states=%d, reflections=%d, links=%d)" % (
            len(self.states),
            len(self.reflections),
            len(self.relation),
        )

    @property
    def links(self) -> frozenset:
        return self.relation.links

    @cached_property
    def ontology(self) -> frozenset:
        return frozenset(t for rec in self.states for t in rec.entities)

    @cached_property
    def occurrence_ticks(self) -> frozenset:
        return frozenset(rec.tick for rec in self.states)

    @cached_property
    def carrier(self) -> frozenset:
        return frozenset(t for rec in self.reflections for t in rec.media)

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
    def state_identities(self) -> frozenset:
        return frozenset(rec.identity for rec in self.states)

    @cached_property
    def reflection_identities(self) -> frozenset:
        return frozenset(rec.identity for rec in self.reflections)

    @cached_property
    def link_identities(self) -> frozenset:
        return frozenset(
            (self.state_by_id[a].identity, self.reflection_by_id[b].identity)
            for a, b in self.relation
        )


@dataclass(frozen=True)
class RawSextuple:
    """An unchecked sextuple description, the input to :func:`validate`."""

    entities: tuple
    media: tuple
    states: tuple
    reflections: tuple
    links: tuple

    @classmethod
    def of(cls, entities, media, states, reflections, links) -> RawSextuple:
        return cls(
            tuple(entities),
            tuple(media),
            tuple(states),
            tuple(reflections),
            tuple(tuple(p) for p in links),
        )


def _check_records(records, token_field: str, label: str, diags: list) -> None:
    by_id: dict = {}
    by_identity: dict = {}
    for rec in records:
        tokens = getattr(rec, token_field)
        if not tokens:
            diags.append(
                Diagnostic(
                    EMPTY_RECORD_TOKENS,
                    "%s record %s has an empty %s set" % (label, rec.id, token_field),
                    (rec.id,),
                )
            )
        prev = by_id.get(rec.id)
        if prev is not None:
            code = (
                DUPLICATE_RECORD_ID
                if prev.identity != rec.identity
                else DUPLICATE_RECORD_CONTENT
            )
            diags.append(
                Diagnostic(
                    code,
                    "record identity clash: %s record id %s declared twice" % (label, rec.id),
                    (rec.id,),
                )
            )
        else:
            by_id[rec.id] = rec
        prev_id = by_identity.get(rec.identity)
        if prev_id is not None and prev_id != rec.id:
            diags.append(
                Diagnostic(
                    DUPLICATE_RECORD_CONTENT,
                    "%s records %s and %s share one content triple" % (label, prev_id, rec.id),
                    (prev_id, rec.id),
                )
            )
        else:
            by_identity[rec.identity] = rec.id


def _check_links(links, state_ids, reflection_ids, diags: list) -> set:
    """Report every link endpoint that names no declared record; return the good links."""
    good_links = set()
    for a, b in links:
        if a not in state_ids:
            diags.append(
                Diagnostic(
                    DANGLING_LINK_SOURCE,
                    "dangling link source: %s is not a declared state record" % a,
                    (a,),
                )
            )
        if b not in reflection_ids:
            diags.append(
                Diagnostic(
                    DANGLING_LINK_TARGET,
                    "dangling link target: %s is not a declared reflection record" % b,
                    (b,),
                )
            )
        if a in state_ids and b in reflection_ids:
            good_links.add((a, b))
    return good_links


def validate(raw: RawSextuple) -> list:
    """Check every instance invariant; an empty list means the input is valid.

    Diagnostics name the violated invariant and the offending ids.  A raw
    sextuple that validates cleanly is accepted by :func:`build`, and its
    resulting instance satisfies the precondition of every operation in
    this module.
    """
    diags: list = []

    for name, component in (
        ("entities", raw.entities),
        ("media", raw.media),
        ("state records", raw.states),
        ("reflection records", raw.reflections),
        ("links", raw.links),
    ):
        if not component:
            diags.append(
                Diagnostic(EMPTY_COMPONENT, "component %r is empty" % name, (name,))
            )

    _check_records(raw.states, "entities", "state", diags)
    _check_records(raw.reflections, "media", "reflection", diags)

    state_ids = {rec.id for rec in raw.states}
    reflection_ids = {rec.id for rec in raw.reflections}
    good_links = _check_links(raw.links, state_ids, reflection_ids, diags)

    linked_sources = {a for a, _ in good_links}
    linked_targets = {b for _, b in good_links}
    for rec_id in sorted(state_ids - linked_sources):
        diags.append(
            Diagnostic(
                UNLINKED_STATE,
                "totality violation: state record %s has no link" % rec_id,
                (rec_id,),
            )
        )
    for rec_id in sorted(reflection_ids - linked_targets):
        diags.append(
            Diagnostic(
                UNLINKED_REFLECTION,
                "surjectivity violation: reflection record %s has no link" % rec_id,
                (rec_id,),
            )
        )

    induced_entities = frozenset(t for rec in raw.states for t in rec.entities)
    induced_media = frozenset(t for rec in raw.reflections for t in rec.media)
    for name, declared, induced in (
        ("entities", frozenset(raw.entities), induced_entities),
        ("media", frozenset(raw.media), induced_media),
    ):
        if declared != induced:
            extra = sorted(declared - induced)
            missing = sorted(induced - declared)
            diags.append(
                Diagnostic(
                    CLOSURE_MISMATCH,
                    "canonical closure violated for %s (declared-only: %s; record-only: %s)"
                    % (name, extra or "none", missing or "none"),
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
    return Information(
        frozenset(raw.states), frozenset(raw.reflections), LinkRelation(frozenset(raw.links))
    )


def assemble(states, reflections, links) -> Information:
    """Build an instance from records and links, deriving the token sets."""
    states = tuple(states)
    reflections = tuple(reflections)
    return build(
        RawSextuple.of(
            frozenset(t for rec in states for t in rec.entities),
            frozenset(t for rec in reflections for t in rec.media),
            states,
            reflections,
            links,
        )
    )


def is_sub_information(candidate: Information, parent: Information) -> bool:
    """True when every link of ``candidate`` appears in ``parent`` by content.

    Link containment plus canonical closure implies containment of all six
    components, so nothing else needs checking.
    """
    return candidate.link_identities <= parent.link_identities


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
    return Information(states, reflections, LinkRelation(selected))


def restrict(parent: Information, keep: Callable) -> Information:
    """Sub-information induced by the links for which ``keep(state, reflection)`` holds."""
    selected = {
        (a, b)
        for a, b in parent.relation
        if keep(parent.state_by_id[a], parent.reflection_by_id[b])
    }
    if not selected:
        raise EmptySelectionError("empty sub-information")
    return _induced(parent, selected)


def restrict_links(parent: Information, link_ids: Iterable[LinkPair]) -> Information:
    """Sub-information induced by an explicit set of parent link pairs."""
    selected = {tuple(p) for p in link_ids}
    unknown = selected - parent.links
    if unknown:
        raise UnknownRecord("unknown links: %s" % sorted(unknown))
    if not selected:
        raise EmptySelectionError("empty sub-information")
    return _induced(parent, selected)


def _merge_record_class(recs_a, recs_b, label: str) -> dict:
    by_id: dict = {}
    for rec in list(recs_a) + list(recs_b):
        prev = by_id.get(rec.id)
        if prev is not None and prev.identity != rec.identity:
            raise RecordIdentityClash("record identity clash: %s record %s" % (label, rec.id))
        by_id.setdefault(rec.id, rec)
    by_identity: dict = {}
    for rec in sorted(list(recs_a) + list(recs_b), key=lambda r: r.id):
        by_identity.setdefault(rec.identity, rec)
    return by_identity


def combine(a: Information, b: Information, mode: str = "strict") -> Information:
    """Union of two instances; both operands become sub-informations of the result.

    Records with equal content triples are identified (the smaller id wins).
    Strict mode additionally requires each state of the result to take its
    full link set from one operand alone, so a state whose replicas are
    split across the operands is rejected; lax mode keeps every link.
    """
    if mode not in ("strict", "lax"):
        raise ValueError("combine mode must be 'strict' or 'lax', got %r" % mode)

    states = _merge_record_class(a.states, b.states, "state")
    reflections = _merge_record_class(a.reflections, b.reflections, "reflection")

    def rewritten(info: Information) -> frozenset:
        return frozenset(
            (
                states[info.state_by_id[x].identity].id,
                reflections[info.reflection_by_id[y].identity].id,
            )
            for x, y in info.relation
        )

    links_a = rewritten(a)
    links_b = rewritten(b)
    union = links_a | links_b

    if mode == "strict":
        def links_of(pool, sid):
            return frozenset(p for p in pool if p[0] == sid)

        for sid in sorted({x for x, _ in union}):
            merged = links_of(union, sid)
            if merged != links_of(links_a, sid) and merged != links_of(links_b, sid):
                raise InconsistentOverlap("inconsistent overlap at %s" % sid)

    return Information(states.values(), reflections.values(), LinkRelation(union))


def compose(first: Information, second: Information) -> Information:
    """Chain two stages whose interface records match content for content.

    Every reflection of ``first`` must reappear as a state of ``second``
    (same token set, tick and value, with the media tokens acting as the
    second stage's entities), and vice versa.  The result keeps the first
    stage's state side and the second stage's reflection side, with the
    relational composition of the two link sets.
    """
    second_state_by_identity = {rec.identity: rec.id for rec in second.states}
    match: dict = {}
    unmatched_reflections = []
    for rec in sorted(first.reflections, key=lambda r: r.id):
        sid = second_state_by_identity.get(rec.identity)
        if sid is None:
            unmatched_reflections.append(rec.id)
        else:
            match[rec.id] = sid
    matched = set(match.values())
    unmatched_states = sorted(rec.id for rec in second.states if rec.id not in matched)
    if unmatched_reflections or unmatched_states:
        raise InterfaceMismatch(unmatched_reflections, unmatched_states)

    by_source: dict = {}
    for x, y in second.relation:
        by_source.setdefault(x, set()).add(y)
    links = {
        (a, c)
        for a, b in first.relation
        for c in by_source[match[b]]
    }
    return Information(first.states, second.reflections, LinkRelation(links))


@dataclass(frozen=True)
class Atom:
    """One link together with the one-link instance it induces."""

    link: LinkPair
    info: Information

    @property
    def link_identity(self):
        a, b = self.link
        return (
            self.info.state_by_id[a].identity,
            self.info.reflection_by_id[b].identity,
        )


def atoms(info: Information) -> tuple:
    """All atoms of the instance, one per link, sorted by link ids."""
    return tuple(
        Atom(pair, restrict_links(info, [pair])) for pair in sorted(info.links)
    )


def image(info: Information, state_ids: Iterable[str]) -> frozenset:
    """Reflection record ids linked from any of the given state records."""
    wanted = set(state_ids)
    unknown = wanted - set(info.state_by_id)
    if unknown:
        raise UnknownRecord("unknown state records: %s" % sorted(unknown))
    return info.relation.image_of(wanted)


def preimage(info: Information, reflection_ids: Iterable[str]) -> frozenset:
    """State record ids linked to any of the given reflection records.

    This is the set-valued inverse of the relation; it is single-valued
    exactly when the instance is reducible (see :func:`is_reducible`).
    """
    wanted = set(reflection_ids)
    unknown = wanted - set(info.reflection_by_id)
    if unknown:
        raise UnknownRecord("unknown reflection records: %s" % sorted(unknown))
    return info.relation.preimage_of(wanted)


@dataclass(frozen=True)
class ReducibilityReport:
    """Whether the relation, read as a function, loses nothing."""

    functional: bool
    injective: bool
    reducible: bool
    multi_target_states: tuple
    multi_source_reflections: tuple

    def __bool__(self):
        return self.reducible


def is_reducible(info: Information) -> ReducibilityReport:
    """Report functionality and injectivity of the relation.

    Exact lossless reduction (preimage after image is the identity on
    singletons) holds iff the relation is both functional and injective.
    """
    out_degree: dict = {}
    in_degree: dict = {}
    for a, b in info.relation:
        out_degree.setdefault(a, set()).add(b)
        in_degree.setdefault(b, set()).add(a)
    multi_target = tuple(sorted(a for a, bs in out_degree.items() if len(bs) > 1))
    multi_source = tuple(sorted(b for b, xs in in_degree.items() if len(xs) > 1))
    functional = not multi_target
    injective = not multi_source
    return ReducibilityReport(
        functional=functional,
        injective=injective,
        reducible=functional and injective,
        multi_target_states=multi_target,
        multi_source_reflections=multi_source,
    )
