"""Finite measures over instance universes and the five measure metrics.

Only counting and weighted measures over finite universes are supported, so
every metric value is an exact rational and the monotonicity properties can
be checked without tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .model import Information, OitError, _id_order, brief_ids

UNIVERSES = ("entities", "ticks", "state_records", "media")
COUNTING = "counting"
WEIGHTED = "weighted"


class UncoveredElement(OitError):
    """A weighted measure is missing an entry for a measured element."""


class MeasureMismatch(OitError):
    """A measure was applied to a metric over a different universe."""


def _as_weight(value) -> Fraction:
    w = value if isinstance(value, Fraction) else Fraction(str(value))
    if w < 0:
        raise ValueError("weights must be nonnegative, got %s" % w)
    return w


@dataclass(frozen=True)
class MeasureSpec:
    """A finitely additive measure over one universe.

    Counting measures need no table; weighted measures need a nonnegative
    weight for every element they will ever be asked to measure.
    """

    universe: str
    kind: str = COUNTING
    weights: Mapping | None = None

    def __post_init__(self):
        if self.universe not in UNIVERSES:
            raise ValueError("unknown universe %r" % (self.universe,))
        if self.kind not in (COUNTING, WEIGHTED):
            raise ValueError("measure kind must be counting or weighted")
        if self.kind == WEIGHTED:
            if self.weights is None:
                raise ValueError("weighted measure needs a weight table")
            table = {k: _as_weight(v) for k, v in self.weights.items()}
            object.__setattr__(self, "weights", table)
        elif self.weights is not None:
            raise ValueError("counting measure takes no weight table")

    def measure(self, elements: Iterable) -> Fraction:
        """Measure of a finite set: cardinality, or the sum of its weights."""
        elems = set(elements)
        if self.kind == COUNTING:
            return Fraction(len(elems))
        missing = elems - self.weights.keys()
        if missing:
            raise UncoveredElement("uncovered element %s in %s measure"
                                   % (brief_ids([min(missing, key=_id_order)], repr), self.universe))
        return sum((self.weights[e] for e in elems), Fraction(0))


def counting(universe: str) -> MeasureSpec:
    return MeasureSpec(universe, COUNTING)


def weighted(universe: str, weights: Mapping) -> MeasureSpec:
    return MeasureSpec(universe, WEIGHTED, dict(weights))


def _expect(spec: MeasureSpec | None, universe: str) -> MeasureSpec:
    if spec is None:
        return counting(universe)
    if spec.universe != universe:
        raise MeasureMismatch(
            "metric needs a measure over %r, got %r" % (universe, spec.universe)
        )
    return spec


def scope(info: Information, mu: MeasureSpec | None = None) -> Fraction:
    """Measure of the ontology, how much of the world the instance reflects."""
    return _expect(mu, "entities").measure(info.ontology)


def granularity(info: Information, mu: MeasureSpec | None = None) -> Fraction:
    """Largest entity-set measure over the atoms of the instance.

    With one atom per link this is the maximum over linked state records,
    and totality makes every state record linked.
    """
    spec = _expect(mu, "entities")
    return max(spec.measure(rec.entities) for rec in info.states)


def sustainability(info: Information, tau: MeasureSpec | None = None) -> Fraction:
    """Measure of the occurrence tick set."""
    return _expect(tau, "ticks").measure(info.occurrence_ticks)


def richness(info: Information, rho: MeasureSpec | None = None) -> Fraction:
    """Measure of the state record set, keyed by record id."""
    return _expect(rho, "state_records").measure(rec.id for rec in info.states)


def volume(info: Information, sigma: MeasureSpec | None = None) -> Fraction:
    """Measure of the carrier media set."""
    return _expect(sigma, "media").measure(info.carrier)
