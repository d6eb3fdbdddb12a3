"""Hypothesis strategies for small valid instances and related inputs."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from oit import ReflectionRecord, StateRecord, assemble, weighted

ENTITY_POOL = ["ea", "eb", "ec"]
MEDIA_POOL = ["ma", "mb", "mc"]
VALUES = ["x", "y", "z"]
# Every kind of record value: text (non-ASCII too), integer, bytes and rational.
ANY_VALUES = st.one_of(
    st.text(max_size=3),
    st.integers(-(10**30), 10**30),
    st.binary(max_size=3),
    st.fractions(max_denominator=9),
)


def _identity_key(identity):
    tokens, tick, value = identity
    return (tuple(sorted(tokens)), tick, repr(value))


def _token_sets(pool):
    return st.sets(st.sampled_from(pool), min_size=1, max_size=2).map(frozenset)


def _identities(pool, max_size, values):
    return st.sets(
        st.tuples(_token_sets(pool), st.integers(0, 5), values),
        min_size=1,
        max_size=max_size,
    )


@st.composite
def informations(draw, max_states=4, max_reflections=4, values=st.sampled_from(VALUES)):
    state_ids = sorted(draw(_identities(ENTITY_POOL, max_states, values)), key=_identity_key)
    refl_ids = sorted(draw(_identities(MEDIA_POOL, max_reflections, values)), key=_identity_key)
    states = [
        StateRecord("s%d" % i, tokens, tick, value)
        for i, (tokens, tick, value) in enumerate(state_ids, start=1)
    ]
    reflections = [
        ReflectionRecord("r%d" % i, tokens, tick, value)
        for i, (tokens, tick, value) in enumerate(refl_ids, start=1)
    ]
    links = set()
    for rec in states:
        targets = draw(
            st.sets(st.sampled_from([r.id for r in reflections]), min_size=1, max_size=2)
        )
        links |= {(rec.id, t) for t in targets}
    linked = {b for _, b in links}
    for rec in reflections:
        if rec.id not in linked:
            source = draw(st.sampled_from([s.id for s in states]))
            links.add((source, rec.id))
    return assemble(states, reflections, links)


@st.composite
def weight_specs(draw, info):
    """Weighted measures over some of the instance's universes, some elements left out."""
    elements = {
        "entities": sorted(info.ontology),
        "ticks": sorted(info.occurrence_ticks),
        "state_records": sorted(rec.id for rec in info.states),
        "media": sorted(info.carrier),
    }
    specs = {}
    for universe in draw(st.sets(st.sampled_from(sorted(elements)))):
        keys = draw(st.sets(st.sampled_from(elements[universe])))
        specs[universe] = weighted(universe, {
            key: draw(st.fractions(min_value=0, max_denominator=9)) for key in sorted(keys)})
    return specs


@st.composite
def informations_with_sublinks(draw, **kwargs):
    info = draw(informations(**kwargs))
    links = sorted(info.links)
    subset = draw(st.sets(st.sampled_from(links), min_size=1).map(frozenset))
    return info, subset


@st.composite
def triple_sets(draw, max_size=4):
    triples = draw(
        st.sets(
            st.tuples(
                _token_sets(ENTITY_POOL),
                st.integers(0, 3),
                st.one_of(
                    st.sampled_from(VALUES),
                    st.integers(-3, 3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4),
                ),
            ),
            max_size=max_size,
        )
    )
    return frozenset(triples)


@st.composite
def distributions(draw, max_size=6):
    raw = draw(st.lists(st.integers(1, 50), min_size=1, max_size=max_size))
    total = sum(raw)
    return tuple(Fraction(x, total) for x in raw)
