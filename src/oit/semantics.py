"""Decoders, the validity metric, and the suitability metric.

Validity is the distance between what a decoder claims the states were and
what they actually were, so zero is perfect and larger is worse.
Suitability is a weighted sum of per-component distances between an
instance and a demand, the raw sextuple of a target document; with
normalized component distances it stays in [0, 1].
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .measures import _read_weight
from .model import (Frozen, Information, OitError, RawSextuple, _id_order, brief, brief_ids,
                    brief_repr)

JACCARD = "jaccard"
NUMERIC_L1 = "numeric-l1"


class PartialDecoder(OitError):
    """A table decoder is missing an entry for a reflection record."""


class WeightVectorError(OitError):
    """Suitability weights must be six nonnegative rationals summing to one."""


class SemanticMapping(Frozen):
    """A decoder from reflection records back to claimed state triples.

    Without a ``table``, its ``kind`` is ``preimage``: it replays the
    instance's own relation and is therefore perfect by construction.  With
    one, even an empty one, its ``kind`` is ``table``: it looks reflection
    content triples up in that finite table and must cover every reflection
    record it is applied to; the mapping holds its own copy of the table.
    ``distance`` names the distance that :func:`validity` scores the decoded
    states with.
    """

    __slots__ = ()

    def __new__(cls, table: Mapping | None = None, distance: str = JACCARD):
        if table is not None and not isinstance(table, Mapping):
            raise ValueError("decoder table must be a mapping or None")
        if distance not in (JACCARD, NUMERIC_L1):
            raise ValueError("decoder distance must be %r or %r" % (JACCARD, NUMERIC_L1))
        return tuple.__new__(cls, (None if table is None else dict(table), distance))

    kind = property(lambda self: "preimage" if self.table is None else "table")

    def __hash__(self):
        # A dict cannot be hashed; equal mappings still hash equal on kind and distance.
        return hash((self.kind, self.distance))

    @classmethod
    def preimage(cls, distance: str = JACCARD) -> SemanticMapping:
        return cls(None, distance)

    @classmethod
    def from_table(cls, table: Mapping, distance: str = JACCARD) -> SemanticMapping:
        return cls(table, distance)


def decode(info: Information, mapping: SemanticMapping) -> frozenset:
    """Claimed state triples for all reflections of the instance."""
    if mapping.kind == "preimage":
        # The preimage of all reflections is every state, since the relation is total.
        return info.state_identities
    table = mapping.table
    missing = [rec.id for rec in info.reflections if rec.identity not in table]
    if missing:
        raise PartialDecoder("partial decoder: no entry for reflection record %s"
                             % brief(min(missing, key=_id_order)))
    return frozenset(table[rec.identity] for rec in info.reflections)


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


# The normalized distances on record triple sets that a decoder may name.
DISTANCES = {JACCARD: jaccard_distance, NUMERIC_L1: numeric_l1_distance}


def validity(info: Information, mapping: SemanticMapping) -> Fraction:
    """The decoder's distance between the actual state triples and the decoded ones."""
    return DISTANCES[mapping.distance](info.state_identities, decode(info, mapping))


EQUAL_WEIGHTS = (Fraction(1, 6),) * 6


def suitability(
    info: Information,
    target: RawSextuple,
    weights: Iterable = EQUAL_WEIGHTS,
) -> Fraction:
    """Weighted sum of per-component distances between instance and demand.

    The demand is a raw sextuple, as :func:`oit.serialize.parse_target` reads
    it; its tick sets are its records' ticks.  Every component uses the
    normalized set (Jaccard) distance.  A weighted sum of metrics is again a
    metric on the product space.
    """
    try:
        weights = iter(weights)
    except TypeError:
        raise WeightVectorError("suitability weights must be iterable, got %s"
                                % brief_repr(weights)) from None
    try:
        ws = tuple(_read_weight(w) for w in weights)
    except ValueError as exc:
        raise WeightVectorError("bad suitability weight: %s" % exc) from None
    if len(ws) != 6 or sum(ws) != 1:
        raise WeightVectorError("weight vector not normalized: (%s)"
                                % brief_ids([str(w) for w in ws]))
    components = (
        jaccard_distance(info.ontology, target.entities),
        jaccard_distance(info.occurrence_ticks, {rec.tick for rec in target.states}),
        jaccard_distance(info.state_identities, {rec.identity for rec in target.states}),
        jaccard_distance(info.carrier, target.media),
        jaccard_distance(info.reflection_ticks, {rec.tick for rec in target.reflections}),
        jaccard_distance(info.reflection_identities,
                         {rec.identity for rec in target.reflections}),
    )
    return sum(w * d for w, d in zip(ws, components))
