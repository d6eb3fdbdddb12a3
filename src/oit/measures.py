"""Finite measures over instance universes and the five measure metrics.

On a finite universe a measure is fixed by the weight of each element, so a
measure is its weight table: a mapping from element to nonnegative rational,
or ``None`` for the counting measure.  Every metric value is therefore an
exact rational and the monotonicity properties can be checked without
tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .model import (
    MAX_LITERAL_DIGITS,
    Information,
    OitError,
    _id_order,
    _within_digits,
    brief_ids,
    brief_repr,
    read_fraction,
)

UNIVERSES = ("entities", "ticks", "state_records", "media")


class UncoveredElement(OitError):
    """A weight table is missing an entry for a measured element."""


def _read_weight(raw) -> Fraction:
    """A weight as an exact nonnegative rational.

    Accepts an int, a ``Fraction``, a finite float, or a decimal or fraction
    string; anything else raises ``ValueError``.  An int's or a ``Fraction``'s
    numerator and denominator are bounded like a literal's, so that every weight
    can be written as text.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, Fraction, float, str)):
        raise ValueError("weight must be a number or numeric string")
    if isinstance(raw, (int, Fraction)):
        w = Fraction(raw)
        if not _within_digits(w):
            raise ValueError("weight exceeds %d digits" % MAX_LITERAL_DIGITS)
    else:
        # NaN and Infinity have no exact reading and fail like any bad literal.
        try:
            w = read_fraction(str(raw))
        except (ValueError, ZeroDivisionError):
            raise ValueError("invalid weight literal %s" % brief_repr(raw)) from None
    if w < 0:
        raise ValueError("weight must be nonnegative")
    return w


def _measure(weights: Mapping | None, universe: str):
    """The measure of finite sets that ``weights`` defines: cardinality, or the weight sum.

    The whole table is read up front, so a bad weight fails even when its
    element is never measured.
    """
    if weights is None:
        return lambda elements: Fraction(len(set(elements)))
    table = {k: _read_weight(w) for k, w in weights.items()}

    def measure(elements) -> Fraction:
        elems = set(elements)
        missing = elems - table.keys()
        if missing:
            raise UncoveredElement("uncovered element %s in %s measure"
                                   % (brief_ids([min(missing, key=_id_order)], repr), universe))
        return sum((table[e] for e in elems), Fraction(0))

    return measure


def scope(info: Information, mu: Mapping | None = None) -> Fraction:
    """Measure of the ontology, how much of the world the instance reflects."""
    return _measure(mu, "entities")(info.ontology)


def granularity(info: Information, mu: Mapping | None = None) -> Fraction:
    """Largest entity-set measure over the atoms of the instance.

    With one atom per link this is the maximum over linked state records,
    and totality makes every state record linked.
    """
    if mu is None:  # the largest count, as one Fraction: no Fraction per state
        return Fraction(max(len(rec.entities) for rec in info.states))
    measure = _measure(mu, "entities")
    return max(measure(rec.entities) for rec in info.states)


def sustainability(info: Information, tau: Mapping | None = None) -> Fraction:
    """Measure of the occurrence tick set."""
    return _measure(tau, "ticks")(info.occurrence_ticks)


def richness(info: Information, rho: Mapping | None = None) -> Fraction:
    """Measure of the state record set, keyed by record id."""
    return _measure(rho, "state_records")(rec.id for rec in info.states)


def volume(info: Information, sigma: Mapping | None = None) -> Fraction:
    """Measure of the carrier media set."""
    return _measure(sigma, "media")(info.carrier)
