"""Hypothesis strategies for small valid instances and related inputs."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from oit import Information, ReflectionRecord, StateRecord, combine, restrict_links

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
# Ids and tokens the writer must escape: quotes, backslashes, control characters,
# non-ASCII and lone surrogates.  Only high surrogates: json reads a high one
# written before a low one back as the one character the pair encodes, so no
# instance may hold such a pair.
ANY_NAMES = st.text(st.one_of(
    st.sampled_from('"\\/'),
    st.characters(max_codepoint=0x1F),
    st.characters(exclude_categories=["Cs"]),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDBFF),
), min_size=1, max_size=4)
# Ticks beyond the small nonnegative ones: negative, and wider than 64 bits.
ANY_TICKS = st.one_of(st.integers(-5, 5), st.integers(-(2**80), 2**80))


def _identity_key(identity):
    tokens, tick, value = identity
    return (tuple(sorted(tokens)), tick, repr(value))


def _token_sets(pool):
    return st.sets(st.sampled_from(pool), min_size=1, max_size=2).map(frozenset)


def _identities(pool, max_size, values, ticks):
    return st.sets(
        st.tuples(_token_sets(pool), ticks, values),
        min_size=1,
        max_size=max_size,
    )


@st.composite
def informations(draw, max_states=4, max_reflections=4, values=st.sampled_from(VALUES),
                 names=None, ticks=st.integers(0, 5)):
    """A valid instance; ``names``, if given, draws its record ids and tokens."""
    entity_pool, media_pool = ENTITY_POOL, MEDIA_POOL
    if names is not None:
        entity_pool = draw(st.lists(names, min_size=1, max_size=3, unique=True))
        media_pool = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    state_ids = sorted(draw(_identities(entity_pool, max_states, values, ticks)),
                       key=_identity_key)
    refl_ids = sorted(draw(_identities(media_pool, max_reflections, values, ticks)),
                      key=_identity_key)
    if names is None:
        ids = ["s%d" % i for i in range(1, len(state_ids) + 1)]
        ids += ["r%d" % i for i in range(1, len(refl_ids) + 1)]
    else:
        size = len(state_ids) + len(refl_ids)
        ids = draw(st.lists(names, min_size=size, max_size=size, unique=True))
    states = [
        StateRecord(rid, tokens, tick, value)
        for rid, (tokens, tick, value) in zip(ids, state_ids)
    ]
    reflections = [
        ReflectionRecord(rid, tokens, tick, value)
        for rid, (tokens, tick, value) in zip(ids[len(state_ids):], refl_ids)
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
    return Information(states, reflections, links)


def renamed(info: Information, prefix: str) -> Information:
    """The same instance with every record id prefixed."""
    return Information(
        [StateRecord(prefix + r.id, r.entities, r.tick, r.value) for r in info.states],
        [ReflectionRecord(prefix + r.id, r.media, r.tick, r.value) for r in info.reflections],
        [(prefix + a, prefix + b) for a, b in info.links],
    )


@st.composite
def containment_pairs(draw):
    """A candidate and a parent, each way round: a restriction; a restriction
    that drops one replica link and so keeps every record; either of those under
    other ids; an operand and its lax union with an independent instance; or two
    independent instances."""
    parent = draw(informations())
    kind = draw(st.sampled_from(["restriction", "replica", "union", "foreign"]))
    if kind == "foreign":
        candidate = draw(informations())
    elif kind == "union":
        candidate, parent = parent, combine(parent, renamed(draw(informations()), "u_"), "lax")
    else:
        links = sorted(parent.links)
        if kind == "replica":
            successors, predecessors = parent.successors, parent.predecessors
            droppable = [(a, b) for a, b in links
                         if len(successors[a]) > 1 and len(predecessors[b]) > 1]
            if droppable:
                links.remove(draw(st.sampled_from(droppable)))
        else:
            links = draw(st.sets(st.sampled_from(links), min_size=1))
        candidate = restrict_links(parent, links)
        if draw(st.booleans()):
            candidate = renamed(candidate, "z_")
    return (candidate, parent) if draw(st.booleans()) else (parent, candidate)


def link_contents(info: Information) -> frozenset:
    """Each link of the instance as the content triples of the two records it joins."""
    states, reflections = info.state_by_id, info.reflection_by_id
    return frozenset((states[a].identity, reflections[b].identity) for a, b in info.links)


@st.composite
def record_sets(draw):
    """States, reflections and links drawn with no regard to validity: ids from
    one small pool, so that they clash and dangle, token sets that may be empty,
    a tick that no document holds, and links that may be no pairs."""
    ids = st.sampled_from(["s1", "s2", "r1", "r2", 3])
    ticks = st.one_of(st.integers(0, 1), st.just(0.5))

    def records(cls, pool):
        tokens = st.frozensets(st.sampled_from(pool), max_size=2)
        return st.lists(st.builds(cls, ids, tokens, ticks, st.sampled_from(VALUES[:2])),
                        max_size=3)

    states = draw(records(StateRecord, ENTITY_POOL[:2]))
    reflections = draw(records(ReflectionRecord, MEDIA_POOL[:2]))
    return states, reflections, draw(st.lists(st.one_of(st.tuples(ids, ids), st.tuples(ids)),
                                              max_size=4))


@st.composite
def weight_tables(draw, info, complete=False):
    """Weight tables over the instance's universes; unless ``complete``, some
    universes and elements are left out."""
    elements = {
        "entities": sorted(info.ontology),
        "ticks": sorted(info.occurrence_ticks),
        "state_records": sorted(rec.id for rec in info.states),
        "media": sorted(info.carrier),
    }
    universes = sorted(elements) if complete else draw(st.sets(st.sampled_from(sorted(elements))))
    tables = {}
    for universe in universes:
        keys = elements[universe] if complete else draw(st.sets(st.sampled_from(elements[universe])))
        tables[universe] = {
            key: draw(st.fractions(min_value=0, max_denominator=9)) for key in sorted(keys)}
    return tables


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
