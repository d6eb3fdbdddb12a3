"""Decoders, the validity metric, and the suitability metric.

Validity is the distance between what a decoder claims the states were and
what they actually were, so zero is perfect and larger is worse.
Suitability is a weighted sum of per-component distances between an
instance and a target sextuple expressing demand; with normalized component
distances it stays in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .model import (
    Diagnostic,
    EMPTY_COMPONENT,
    Information,
    OitError,
    ValidationError,
    _check_links,
    _check_records,
)

JACCARD = "jaccard"
NUMERIC_L1 = "numeric-l1"


class PartialDecoder(OitError):
    """A table decoder is missing an entry for a reflection record."""


class WeightVectorError(OitError):
    """Suitability weights must be six nonnegative rationals summing to one."""


@dataclass(frozen=True)
class SemanticMapping:
    """A decoder from reflection records back to claimed state triples.

    The ``preimage`` kind replays the instance's own relation and is
    therefore perfect by construction; the ``table`` kind looks reflection
    content triples up in a finite table and must cover every reflection
    record it is applied to.
    """

    kind: str
    table: Mapping | None = None

    def __post_init__(self):
        if self.kind not in ("preimage", "table"):
            raise ValueError("decoder kind must be 'preimage' or 'table'")
        if self.kind == "table" and self.table is None:
            raise ValueError("table decoder needs a table")

    @classmethod
    def preimage(cls) -> SemanticMapping:
        return cls("preimage")

    @classmethod
    def from_table(cls, table: Mapping) -> SemanticMapping:
        return cls("table", dict(table))


def decode(info: Information, mapping: SemanticMapping) -> frozenset:
    """Claimed state triples for all reflections of the instance."""
    if mapping.kind == "preimage":
        return frozenset(info.state_by_id[a].identity for a in info.relation.sources)
    claimed = set()
    for rec in info.reflections:
        try:
            claimed.add(mapping.table[rec.identity])
        except KeyError:
            raise PartialDecoder(
                "partial decoder: no entry for reflection record %s" % rec.id
            ) from None
    return frozenset(claimed)


def jaccard_distance(a: frozenset, b: frozenset) -> Fraction:
    """1 minus intersection-over-union; empty versus empty is zero."""
    a, b = frozenset(a), frozenset(b)
    if not a and not b:
        return Fraction(0)
    return 1 - Fraction(len(a & b), len(a | b))


def _is_numeric(v) -> bool:
    return isinstance(v, (int, Fraction)) and not isinstance(v, bool)


def _value_cost(va: frozenset, vb: frozenset) -> Fraction:
    if va == vb:
        return Fraction(0)
    if len(va) == 1 and len(vb) == 1:
        (x,), (y,) = tuple(va), tuple(vb)
        if _is_numeric(x) and _is_numeric(y):
            return min(Fraction(1), abs(Fraction(x) - Fraction(y)))
    return Fraction(1)


def numeric_l1_distance(a: Iterable, b: Iterable) -> Fraction:
    """Mean per-key difference between two triple sets.

    Triples are grouped under their (token set, tick) key.  Keys present on
    one side only cost 1; shared keys cost the absolute value difference,
    capped at 1 so the triangle inequality survives the normalization by
    the key-union size.
    """

    def grouped(triples):
        out: dict = {}
        for tokens, tick, value in triples:
            out.setdefault((tokens, tick), set()).add(value)
        return {k: frozenset(v) for k, v in out.items()}

    ga, gb = grouped(a), grouped(b)
    keys = set(ga) | set(gb)
    if not keys:
        return Fraction(0)
    total = Fraction(0)
    for k in keys:
        if k in ga and k in gb:
            total += _value_cost(ga[k], gb[k])
        else:
            total += 1
    return total / len(keys)


@dataclass(frozen=True)
class DistanceSpec:
    """A normalized distance on record triple sets."""

    kind: str = JACCARD

    def __post_init__(self):
        if self.kind not in (JACCARD, NUMERIC_L1):
            raise ValueError("distance kind must be %r or %r" % (JACCARD, NUMERIC_L1))

    def between(self, a, b) -> Fraction:
        if self.kind == JACCARD:
            return jaccard_distance(frozenset(a), frozenset(b))
        return numeric_l1_distance(a, b)


def validity(
    info: Information, mapping: SemanticMapping, distance: DistanceSpec | None = None
) -> Fraction:
    """Distance between the actual state triples and the decoded ones."""
    distance = distance or DistanceSpec()
    return distance.between(info.state_identities, decode(info, mapping))


@dataclass(frozen=True)
class TargetSextuple:
    """A demand expressed in the same six component shapes as an instance.

    Unlike an instance, a target needs no totality or surjectivity and no
    canonical closure, only nonvoid well-formed components, so demands may
    name media or ticks that no record uses yet.
    """

    ontology: frozenset
    occurrence_ticks: frozenset
    states: frozenset
    carrier: frozenset
    reflection_ticks: frozenset
    reflections: frozenset
    links: frozenset = frozenset()

    def __post_init__(self):
        for name in ("ontology", "occurrence_ticks", "states", "carrier",
                     "reflection_ticks", "reflections"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        object.__setattr__(self, "links", frozenset(tuple(p) for p in self.links))
        diags: list = []
        for name in ("ontology", "occurrence_ticks", "states", "carrier",
                     "reflection_ticks", "reflections"):
            if not getattr(self, name):
                diags.append(Diagnostic(EMPTY_COMPONENT, "component %r is empty" % name, (name,)))
        _check_records(self.states, "entities", "state", diags)
        _check_records(self.reflections, "media", "reflection", diags)
        state_ids = {rec.id for rec in self.states}
        reflection_ids = {rec.id for rec in self.reflections}
        _check_links(self.links, state_ids, reflection_ids, diags)
        if diags:
            raise ValidationError(diags)

    @classmethod
    def from_information(cls, info: Information) -> TargetSextuple:
        return cls(
            info.ontology,
            info.occurrence_ticks,
            info.states,
            info.carrier,
            info.reflection_ticks,
            info.reflections,
            info.links,
        )

    @property
    def state_identities(self) -> frozenset:
        return frozenset(rec.identity for rec in self.states)

    @property
    def reflection_identities(self) -> frozenset:
        return frozenset(rec.identity for rec in self.reflections)


EQUAL_WEIGHTS = (Fraction(1, 6),) * 6


def suitability(
    info: Information,
    target: TargetSextuple,
    weights: Iterable = EQUAL_WEIGHTS,
    distance: DistanceSpec | None = None,
) -> Fraction:
    """Weighted sum of per-component distances between instance and demand.

    Token and tick components always use the normalized set distance; the
    two record components use the supplied distance.  A weighted sum of
    metrics is again a metric on the product space.
    """
    distance = distance or DistanceSpec()
    ws = tuple(w if isinstance(w, Fraction) else Fraction(str(w)) for w in weights)
    if len(ws) != 6 or any(w < 0 for w in ws) or sum(ws) != 1:
        raise WeightVectorError("weight vector not normalized: %s" % (ws,))
    components = (
        jaccard_distance(info.ontology, target.ontology),
        jaccard_distance(info.occurrence_ticks, target.occurrence_ticks),
        distance.between(info.state_identities, target.state_identities),
        jaccard_distance(info.carrier, target.carrier),
        jaccard_distance(info.reflection_ticks, target.reflection_ticks),
        distance.between(info.reflection_identities, target.reflection_identities),
    )
    return sum(w * d for w, d in zip(ws, components))
