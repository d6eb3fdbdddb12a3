"""Example fixtures and seeded synthetic instance generation.

The synthetic generator is a pure function of (seed, profile): the same
inputs always produce the same instance, which the property suites rely on.
Replication controls how many carrier copies a state record gets;
aggregation controls both multi-entity state records and merged reflection
records, so a profile with replication 1 and aggregation 0 yields a
bijective instance (functional relation, every reflection single-sourced).
"""

from __future__ import annotations

import random
from operator import itemgetter

from .model import (
    Frozen,
    Information,
    OitError,
    ReflectionRecord,
    StateRecord,
    _information,
    _is_real,
    _token_union,
    _writable,
)


class DegenerateProfile(OitError):
    """The generation profile has no valid instances."""


class Profile(Frozen):
    """Size and shape knobs for synthetic instances."""

    __slots__ = ()

    def __new__(cls, entities: int = 4, media: int = 4, tick_span: int = 8,
                replication: int = 2, aggregation: float = 0.25):
        if {type(entities), type(media), type(tick_span), type(replication)} != {int}:
            raise DegenerateProfile("entity, media, tick-span and replication counts must be ints")
        if entities < 1 or media < 1 or tick_span < 1:
            raise DegenerateProfile("entity, media and tick-span counts must be >= 1")
        if replication < 1:
            raise DegenerateProfile("replication factor must be >= 1")
        if not _is_real(aggregation) or not 0.0 <= aggregation <= 1.0:
            raise DegenerateProfile("aggregation probability must lie in [0, 1]")
        return tuple.__new__(cls, (entities, media, tick_span, replication, aggregation))


def generate_synthetic(seed: int, profile: Profile = Profile()) -> Information:
    """Deterministic valid instance for the given seed and profile."""
    rng = random.Random(seed)
    entities, media, tick_span, replication, aggregation = profile
    entity_pool = ["e%d" % i for i in range(1, entities + 1)]
    media_pool = ["m%d" % i for i in range(1, media + 1)]

    states = []
    n_states = 2 * entities
    for i in range(1, n_states + 1):
        if entities >= 2 and rng.random() < aggregation:
            size = rng.randint(2, min(3, entities))
            ents = rng.sample(entity_pool, size)
        else:
            ents = [rng.choice(entity_pool)]
        tick = rng.randint(1, tick_span)
        states.append(StateRecord("s%d" % i, frozenset(ents), tick, "v%d" % i))

    reflections = []
    links = []
    used_identities = set()
    rid = 0

    def fresh_reflection(state):
        nonlocal rid
        rid += 1
        medium = rng.choice(media_pool)
        tick = state.tick + rng.randint(0, 2)
        value = state.value
        while (frozenset({medium}), tick, value) in used_identities:
            tick += 1
        used_identities.add((frozenset({medium}), tick, value))
        rec = ReflectionRecord("r%d" % rid, frozenset({medium}), tick, value)
        reflections.append(rec)
        return rec

    for state in states:
        if reflections and rng.random() < aggregation:
            # merge: this state reuses a previous carrier record
            target = rng.choice(reflections)
            links.append((state.id, target.id))
        else:
            links.append((state.id, fresh_reflection(state).id))
        for _ in range(rng.randrange(replication)):
            links.append((state.id, fresh_reflection(state).id))

    # Valid by construction: every state is linked, every reflection is made
    # linked, and the values and the tick walk keep every content triple distinct.
    return _information(states, reflections, links)


def random_link_subset(info: Information, rng: random.Random) -> frozenset:
    """A random nonempty link subset, usable as a sub-information selector."""
    links = sorted(info.links)
    size = rng.randint(1, len(links))
    return frozenset(rng.sample(links, size))


def nested_link_subsets(info: Information, rng: random.Random):
    """Two nonempty link subsets with the first contained in the second."""
    outer = sorted(random_link_subset(info, rng))
    size = rng.randint(1, len(outer))
    inner = frozenset(rng.sample(outer, size))
    return inner, frozenset(outer)


def example_instance() -> Information:
    """The small worked instance used across the docs, tests and fixtures.

    Two entities observed by three state records (one of them aggregated
    over both entities) and carried by three reflection records, with the
    first state replicated onto two media and the last two states merged
    into one carrier record.
    """
    states = [
        StateRecord("s1", frozenset({"a"}), 1, "v1"),
        StateRecord("s2", frozenset({"b"}), 2, "v2"),
        StateRecord("s3", frozenset({"a", "b"}), 3, "v3"),
    ]
    reflections = [
        ReflectionRecord("r1", frozenset({"m1"}), 4, "v1"),
        ReflectionRecord("r2", frozenset({"m2"}), 3, "v23"),
        ReflectionRecord("r3", frozenset({"m3"}), 4, "v1"),
    ]
    links = [("s1", "r1"), ("s1", "r3"), ("s2", "r2"), ("s3", "r2")]
    return Information(states, reflections, links)


def identity_relay(info: Information, media_map: dict, tick_shift: int = 0) -> Information:
    """A second stage re-carrying every reflection of ``info`` onto new media.

    The relay's states mirror the reflections content for content (media
    tokens acting as entities), so composing ``info`` with the relay always
    satisfies the interface precondition.

    Mirrored from a valid instance, the relay is valid unless ``media_map`` or
    ``tick_shift`` makes two relay reflections equal in content, a medium that
    no document can hold, or a tick that is not an int.  Only those are checked;
    a relay failing them goes through the validating :class:`Information`
    constructor and raises its :class:`ValidationError`.  So a map that is not
    injective is refused only where it makes two reflections equal.
    """
    states = []
    reflections = []
    links = []
    for rec_id, media, tick, value in sorted(info.reflections, key=itemgetter(0)):
        sid = "t_%s" % rec_id
        rid = "y_%s" % rec_id
        states.append(StateRecord(sid, media, tick, value))
        reflections.append(
            ReflectionRecord(rid, frozenset(media_map[m] for m in media), tick + tick_shift, value)
        )
        links.append((sid, rid))
    if not (_writable((), _token_union(reflections), [rec.tick for rec in reflections], ())
            and len({rec.identity for rec in reflections}) == len(reflections)):
        return Information(states, reflections, links)
    return _information(states, reflections, links)
