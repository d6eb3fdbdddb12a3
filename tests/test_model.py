from __future__ import annotations

import copy
import functools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oit import (
    Atom,
    CodingDemo,
    Diagnostic,
    Distribution,
    EmptySelectionError,
    InconsistentOverlap,
    Information,
    InterfaceMismatch,
    Profile,
    RawSextuple,
    RecordIdentityClash,
    ReducibilityReport,
    ReflectionRecord,
    SemanticMapping,
    StateRecord,
    UnknownRecord,
    ValidationError,
    assemble,
    atoms,
    build,
    combine,
    compose,
    delay,
    emit_instance,
    generate_synthetic,
    identity_relay,
    image,
    is_proper_sub_information,
    is_reducible,
    is_sub_information,
    parse_document,
    preimage,
    restrict,
    restrict_links,
    validate,
)
from oit import model
from oit.model import LinkRelation

from .strategies import informations, informations_with_sublinks

# Record ids, ticks and values that cannot be hashed.
UNHASHABLE = st.one_of(
    st.lists(st.text(max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def renamed(info: Information, prefix: str) -> Information:
    """The same instance with every record id prefixed."""
    return assemble(
        [StateRecord(prefix + r.id, r.entities, r.tick, r.value) for r in info.states],
        [ReflectionRecord(prefix + r.id, r.media, r.tick, r.value) for r in info.reflections],
        [(prefix + a, prefix + b) for a, b in info.links],
    )


def raw_of(info: Information) -> RawSextuple:
    return RawSextuple.of(
        info.ontology, info.carrier, info.states, info.reflections, info.links
    )


class TestRecords:
    """Records are immutable values that carry their content triple."""

    KINDS = [(StateRecord, "entities"), (ReflectionRecord, "media")]

    @pytest.mark.parametrize("cls, tokens", KINDS)
    def test_identity_is_the_content_triple_built_once(self, cls, tokens):
        rec = cls("x", ["a", "b"], 1, "v")
        assert rec.identity is rec.identity
        assert rec.identity == (frozenset("ab"), 1, "v")
        assert rec.identity[0] is getattr(rec, tokens)
        with pytest.raises(AttributeError):
            rec.identity = "changed"

    @pytest.mark.parametrize("cls, tokens", KINDS)
    def test_equal_and_hashing_equal_by_id_and_content(self, cls, tokens):
        rec = cls("x", {"a"}, 1, "v")
        same = cls(**{"id": "x", tokens: ["a"], "tick": 1, "value": "v"})
        assert rec == same and hash(rec) == hash(same)
        for other in (cls("y", {"a"}, 1, "v"), cls("x", {"b"}, 1, "v"),
                      cls("x", {"a"}, 2, "v"), cls("x", {"a"}, 1, "w")):
            assert rec != other

    def test_kinds_and_plain_tuples_never_equal(self):
        state, reflection = StateRecord("x", {"a"}, 1, "v"), ReflectionRecord("x", {"a"}, 1, "v")
        assert state != reflection and reflection != state
        assert len({state, reflection}) == 2
        for plain in (("x", frozenset({"a"}), 1, "v"), (frozenset({"a"}), 1, "v")):
            assert state != plain and reflection != plain

    def test_repr(self):
        assert repr(StateRecord("s1", {"a"}, 1, "v1")) == (
            "StateRecord(id='s1', entities=frozenset({'a'}), tick=1, value='v1')")
        assert repr(ReflectionRecord("r1", {"m1"}, 4, Fraction(1, 3))) == (
            "ReflectionRecord(id='r1', media=frozenset({'m1'}), tick=4, value=Fraction(1, 3))")

    def test_a_parse_shares_equal_token_sets(self):
        info, _ = parse_document(emit_instance(generate_synthetic(3, Profile(entities=40, media=8))))
        records = (*info.states, *info.reflections)
        shared: dict = {}
        for rec in records:
            tokens = rec.identity[0]
            assert shared.setdefault(tokens, tokens) is tokens
        assert len(shared) < len(records) / 2


_STATE, _REFLECTION = StateRecord("s1", {"a"}, 1, "v1"), ReflectionRecord("r1", {"m1"}, 4, "v1")
_LINKS = frozenset({("s1", "r1")})
_INFO = Information({_STATE}, {_REFLECTION}, _LINKS)


class TestValueClasses:
    """The package's immutable value classes, each with arguments as its field
    names map them, in order."""

    VALUES = [
        (Diagnostic, dict(code="unlinked-state", message="m", subjects=("s1",))),
        (LinkRelation, dict(links=frozenset({("s1", "r1"), ("s1", "r2")}))),
        (Information, dict(states=frozenset({_STATE}), reflections=frozenset({_REFLECTION}),
                           links=_LINKS)),
        (RawSextuple, dict(entities=("a",), media=("m1",), states=(_STATE,),
                           reflections=(_REFLECTION,), links=(("s1", "r1"),))),
        (Atom, dict(state=_STATE, reflection=_REFLECTION)),
        (ReducibilityReport, dict(functional=True, injective=False, reducible=False,
                                  multi_target_states=(), multi_source_reflections=("r1",))),
        (SemanticMapping, dict(kind="table", table={(frozenset({"m1"}), 4, "v1"):
                                                    (frozenset({"a"}), 1, "v1")},
                               distance="numeric-l1")),
        (Distribution, dict(probabilities=(0.25, 0.75))),
        (CodingDemo, dict(alphabet_size=2, length=1, seed=7, message=(0,), info=_INFO, volume=1,
                          hartley=1.0, entropy_bound=0.8)),
        (Profile, dict(entities=2, media=3, tick_span=4, replication=1, aggregation=0.5)),
        (StateRecord, dict(id="s1", entities=frozenset({"a"}), tick=1, value="v1")),
        (ReflectionRecord, dict(id="r1", media=frozenset({"m1"}), tick=4, value=Fraction(1, 3))),
    ]
    DEFAULTS = [
        (Diagnostic, dict(subjects=()), ("c", "m")),
        (SemanticMapping, dict(table=None, distance="jaccard"), ("preimage",)),
        (Profile, dict(entities=4, media=4, tick_span=8, replication=2, aggregation=0.25), ()),
    ]

    @pytest.mark.parametrize("cls, fields", VALUES)
    def test_equal_arguments_give_equal_values_with_equal_hashes(self, cls, fields):
        value = cls(*fields.values())
        same = cls(**fields)
        assert value == same and not value != same and hash(value) == hash(same)
        assert {name: getattr(value, name) for name in fields} == fields
        assert value != tuple(fields.values()) and tuple(fields.values()) != value

    @pytest.mark.parametrize("cls, fields", VALUES)
    def test_no_field_can_be_set(self, cls, fields):
        value = cls(**fields)
        for name in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, "changed")
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(**fields)

    @pytest.mark.parametrize("cls, fields", VALUES)
    def test_copies_and_pickles_are_equal(self, cls, fields):
        value = cls(**fields)
        for copied in (copy.copy(value), copy.deepcopy(value),
                       pickle.loads(pickle.dumps(value))):
            assert copied == value and type(copied) is cls

    @pytest.mark.parametrize("cls, defaults, required", DEFAULTS)
    def test_omitted_fields_take_their_defaults(self, cls, defaults, required):
        value = cls(*required)
        assert {name: getattr(value, name) for name in defaults} == defaults
        assert value == cls(*required, **defaults)

    def test_information_repr_counts_its_parts(self):
        assert repr(_INFO) == "Information(states=1, reflections=1, links=1)"

    def test_indexes_are_cached_in_each_instance(self):
        info = Information(_INFO.states, _INFO.reflections, _LINKS)
        for name in ("state_by_id", "successors", "predecessors"):
            assert isinstance(vars(Information)[name], functools.cached_property)
        assert info.state_by_id is info.state_by_id and "state_by_id" in vars(info)
        assert info.successors == {"s1": ("r1",)} and "successors" in vars(info)
        assert info.predecessors == {"r1": ("s1",)} and "predecessors" in vars(info)


class TestValidate:
    def test_example_is_valid(self, ex1):
        assert validate(raw_of(ex1)) == []

    def test_dangling_link_source(self, ex1):
        raw = raw_of(ex1)
        bad = RawSextuple.of(
            raw.entities, raw.media, raw.states, raw.reflections,
            list(raw.links) + [("s9", "r1")],
        )
        codes = [d.code for d in validate(bad)]
        assert codes == [model.DANGLING_LINK_SOURCE]

    def test_missing_reflection_gives_dangling_target_and_closure(self, ex1):
        raw = raw_of(ex1)
        bad = RawSextuple.of(
            raw.entities, raw.media, raw.states,
            [r for r in raw.reflections if r.id != "r3"],
            raw.links,
        )
        codes = {d.code for d in validate(bad)}
        assert model.DANGLING_LINK_TARGET in codes
        assert model.CLOSURE_MISMATCH in codes

    def test_closure_mismatch_shows_non_string_tokens_unquoted(self, ex1):
        raw = raw_of(ex1)
        bad = RawSextuple.of(
            set(raw.entities) | {1}, raw.media, raw.states, raw.reflections, raw.links
        )
        [diag] = validate(bad)
        assert diag.code == model.CLOSURE_MISMATCH
        assert "(declared-only: [1]; record-only: none)" in diag.message

    def test_empty_components(self):
        diags = validate(RawSextuple.of([], [], [], [], []))
        assert {d.code for d in diags} == {model.EMPTY_COMPONENT}
        assert len(diags) == 5

    def test_duplicate_id_is_identity_clash(self, ex1):
        raw = raw_of(ex1)
        extra = StateRecord("s1", {"b"}, 5, "other")
        bad = RawSextuple.of(
            raw.entities, raw.media, list(raw.states) + [extra],
            raw.reflections, raw.links,
        )
        codes = [d.code for d in validate(bad)]
        assert model.DUPLICATE_RECORD_ID in codes

    def test_duplicate_content_triple(self, ex1):
        raw = raw_of(ex1)
        clone = StateRecord("s9", {"a"}, 1, "v1")
        bad = RawSextuple.of(
            raw.entities, raw.media, list(raw.states) + [clone],
            raw.reflections, list(raw.links) + [("s9", "r1")],
        )
        codes = {d.code for d in validate(bad)}
        assert model.DUPLICATE_RECORD_CONTENT in codes

    @pytest.mark.parametrize("link", [("s1",), "s1r1", ("s1", "r1", "x"), (["s1"], "r1"), 5],
                             ids=["one", "text", "three", "unhashable", "not-iterable"])
    def test_malformed_link(self, ex1, link):
        raw = raw_of(ex1)
        bad = RawSextuple.of(raw.entities, raw.media, raw.states, raw.reflections,
                             [*raw.links, link])
        expected = Diagnostic(model.MALFORMED_LINK, "malformed link %s: expected a pair of "
                              "record ids" % model.brief_repr(link))
        assert validate(bad) == [expected]
        with pytest.raises(ValidationError) as exc:
            build(bad)
        assert exc.value.diagnostics == (expected,)

    def test_a_listed_link_is_a_pair(self, ex1):
        raw = raw_of(ex1)
        assert build(RawSextuple.of(raw.entities, raw.media, raw.states, raw.reflections,
                                    [list(link) for link in raw.links])) == ex1

    def test_unlinked_records(self):
        states = [StateRecord("s1", {"a"}, 1, "x"), StateRecord("s2", {"a"}, 2, "y")]
        refl = [ReflectionRecord("r1", {"m"}, 3, "x"), ReflectionRecord("r2", {"m"}, 3, "y")]
        raw = RawSextuple.of({"a"}, {"m"}, states, refl, [("s1", "r1")])
        codes = {d.code for d in validate(raw)}
        assert codes == {model.UNLINKED_STATE, model.UNLINKED_REFLECTION}

    @pytest.mark.parametrize("state", [
        StateRecord(1, {"a"}, 1, "v"),
        StateRecord("", {"a"}, 1, "v"),
        StateRecord("s", {"a", 1}, 1, "v"),
        StateRecord("s", {"a"}, 1.0, "v"),
        StateRecord("s", {"a"}, True, "v"),
        StateRecord("s", {"a"}, 1, True),
        StateRecord("s", {"a"}, 1, 1.5),
        StateRecord("s", {"a"}, 1, None),
        # json reads the escapes of a high then a low surrogate back as one character,
        # so two unequal instances would share one text and one digest.
        StateRecord("s\ud800\udc00", {"a"}, 1, "v"),
        StateRecord("s", {"a\ud800\udc00"}, 1, "v"),
        StateRecord("s", {"a"}, 1, "v\ud800\udc00"),
    ])
    def test_build_accepts_only_what_a_document_can_hold(self, state):
        reflection = ReflectionRecord("r", {"m"}, 1, "v")
        raw = RawSextuple.of(state.entities, {"m"}, [state], [reflection], [(state.id, "r")])
        with pytest.raises(ValidationError) as exc:
            delay(build(raw))
        assert [(d.code, d.subjects) for d in exc.value.diagnostics] == [
            (model.UNWRITABLE_RECORD, (state.id,))
        ]
        assert exc.value.diagnostics[0].message == (
            "state record %s has an id, token, tick or value that no instance document can hold"
            % state.id
        )

    def test_surrogates_that_form_no_pair_round_trip(self):
        odd = chr(0xDC00) + chr(0xD800) + "\0" + chr(0xDC00)
        info = assemble([StateRecord(odd, {odd}, 1, odd)], [ReflectionRecord("r", {odd}, 1, odd)],
                        [(odd, "r")])
        assert parse_document(emit_instance(info))[0] == info

    def test_ids_that_are_no_strings_are_reported_not_raised(self):
        states = [StateRecord("s1", {"a"}, 1, "x"), StateRecord(2, {"a"}, 2, "y")]
        raw = RawSextuple.of({"a"}, {"m"}, states, [ReflectionRecord("r1", {"m"}, 3, "x")],
                             [(9, ("r", 1)), ("s0", "r1")])
        assert [d.message for d in validate(raw)] == [
            "dangling link source: 9 is not a declared state record",
            "dangling link target: ('r', 1) is not a declared reflection record",
            "dangling link source: s0 is not a declared state record",
            "totality violation: state record s1 has no link",
            "totality violation: state record 2 has no link",
            "surjectivity violation: reflection record r1 has no link",
            "state record 2 has an id, token, tick or value that no instance document can hold",
        ]

    @pytest.mark.parametrize("state", [
        StateRecord(["s1"], ["a"], 1, "v"),
        StateRecord({"s1": 1}, ["a"], 1, "v"),
        StateRecord("s1", ["a"], [1], "v"),
        StateRecord("s1", ["a"], 1, ["v"]),
        StateRecord("s1", ["a"], 1, {"v": 1}),
    ])
    def test_unhashable_ids_ticks_and_values_are_reported_not_raised(self, state):
        """A record whose id is hashable still declares it, so only the record is
        reported; one whose id is not declares none, so its link dangles too."""
        raw = RawSextuple.of(["a"], ["m"], [state], [ReflectionRecord("r1", ["m"], 1, "v")],
                             [("s1", "r1")])
        expected = [] if isinstance(state.id, str) else [
            "dangling link source: s1 is not a declared state record",
            "surjectivity violation: reflection record r1 has no link",
        ]
        expected.append("state record %s has an id, token, tick or value that no instance "
                        "document can hold" % model.brief(state.id))
        assert [d.message for d in validate(raw)] == expected
        assert [d.subjects for d in validate(raw) if d.code == model.UNWRITABLE_RECORD] == [
            (state.id,)]
        with pytest.raises(ValidationError):
            build(raw)

    @pytest.mark.parametrize("component", ["entities", "media"])
    @pytest.mark.parametrize("token", [["a"], {"m": 1}])
    def test_unhashable_declared_tokens_are_a_closure_mismatch(self, component, token):
        parts = {"entities": ["a"], "media": ["m"]}
        (induced,) = parts[component]
        parts[component] = [token]
        raw = RawSextuple.of(parts["entities"], parts["media"], [StateRecord("s1", ["a"], 1, "v")],
                             [ReflectionRecord("r1", ["m"], 1, "v")], [("s1", "r1")])
        assert validate(raw) == [Diagnostic(
            model.CLOSURE_MISMATCH,
            "canonical closure violated for %s (declared-only: [%s]; record-only: [%r])"
            % (component, model.brief_repr(token), induced),
            (token, induced),
        )]
        with pytest.raises(ValidationError):
            build(raw)

    def test_an_unhashable_token_beside_declared_ones_is_declared_only(self):
        raw = RawSextuple.of(["a", ["x"]], ["m"], [StateRecord("s1", ["a"], 1, "v")],
                             [ReflectionRecord("r1", ["m"], 1, "v")], [("s1", "r1")])
        assert ["%s: %s" % (d.code, d.message) for d in validate(raw)] == [
            "closure-mismatch: canonical closure violated for entities "
            "(declared-only: [['x']]; record-only: none)"
        ]

    @given(informations(), st.data())
    @settings(max_examples=80)
    def test_records_with_unhashable_parts_give_one_diagnostic_each(self, info, data):
        kind = data.draw(st.sampled_from(["states", "reflections"]))
        records = sorted(getattr(info, kind), key=lambda r: r.id)
        broken = data.draw(st.sets(st.sampled_from(range(len(records))), min_size=1))
        for i in broken:
            field = data.draw(st.sampled_from(["id", "tick", "value"]))
            part = data.draw(UNHASHABLE)
            rec = records[i]
            records[i] = type(rec)(*(part if f == field else getattr(rec, f) for f in rec._fields))
        parts = {"states": info.states, "reflections": info.reflections, kind: records}
        raw = RawSextuple.of(info.ontology, info.carrier, parts["states"], parts["reflections"],
                             info.links)
        unwritable = [d.subjects for d in validate(raw) if d.code == model.UNWRITABLE_RECORD]
        assert unwritable == [(records[i].id,) for i in sorted(broken)]
        with pytest.raises(ValidationError):
            build(raw)

    def test_empty_record_tokens(self):
        states = [StateRecord("s1", frozenset(), 1, "x")]
        refl = [ReflectionRecord("r1", {"m"}, 1, "x")]
        raw = RawSextuple.of([], {"m"}, states, refl, [("s1", "r1")])
        codes = {d.code for d in validate(raw)}
        assert model.EMPTY_RECORD_TOKENS in codes


class TestSubInformation:
    def test_reflexive_not_proper(self, ex1):
        assert is_sub_information(ex1, ex1)
        assert not is_proper_sub_information(ex1, ex1)

    def test_restriction_is_proper(self, ex1):
        sub = restrict_links(ex1, [("s1", "r1")])
        assert is_sub_information(sub, ex1)
        assert is_proper_sub_information(sub, ex1)

    def test_foreign_link_is_not_sub(self, ex1):
        other = assemble(
            ex1.states,
            ex1.reflections,
            list(ex1.links) + [("s1", "r2")],
        )
        assert not is_sub_information(other, ex1)
        assert not is_proper_sub_information(other, ex1)

    def test_dropped_replica_link_with_equal_components_is_not_proper(self):
        # two states fully cross-linked to two reflections: dropping one
        # link keeps every component set equal, so nothing is strict
        states = [StateRecord("s1", {"a"}, 1, "x"), StateRecord("s2", {"a"}, 1, "y")]
        refl = [ReflectionRecord("r1", {"m"}, 2, "x"), ReflectionRecord("r2", {"m"}, 2, "y")]
        full = assemble(states, refl, [("s1", "r1"), ("s1", "r2"), ("s2", "r1"), ("s2", "r2")])
        sub = restrict_links(full, [("s1", "r1"), ("s2", "r1"), ("s2", "r2")])
        assert is_sub_information(sub, full)
        assert not is_proper_sub_information(sub, full)

    @given(informations(), informations(), st.data())
    @settings(max_examples=150)
    def test_link_containment_by_content(self, a, b, data):
        """Against the whole-instance link identity sets, on independent pairs,
        which are mostly not subs, and on restrictions, which always are."""
        links = data.draw(st.sets(st.sampled_from(sorted(a.links)), min_size=1))
        sub = restrict_links(a, links)
        for candidate, parent in ((a, b), (b, a), (sub, a), (sub, b), (a, sub)):
            assert is_sub_information(candidate, parent) == (
                candidate.link_identities <= parent.link_identities)
        assert is_sub_information(sub, a)

    def test_content_based_comparison_ignores_ids(self, ex1):
        renamed = assemble(
            [StateRecord("z1", {"a"}, 1, "v1")],
            [ReflectionRecord("w1", {"m1"}, 4, "v1")],
            [("z1", "w1")],
        )
        assert is_sub_information(renamed, ex1)


class TestRestrict:
    def test_by_state(self, ex1):
        sub = restrict(ex1, lambda s, r: s.id == "s1")
        assert {s.id for s in sub.states} == {"s1"}
        assert {r.id for r in sub.reflections} == {"r1", "r3"}
        assert sub.carrier == {"m1", "m3"}

    def test_by_occurrence_tick(self, ex1):
        sub = restrict(ex1, lambda s, r: s.tick <= 2)
        assert {s.id for s in sub.states} == {"s1", "s2"}
        assert sub.links == {("s1", "r1"), ("s1", "r3"), ("s2", "r2")}

    def test_empty_selection(self, ex1):
        with pytest.raises(EmptySelectionError, match="empty sub-information"):
            restrict(ex1, lambda s, r: "m9" in r.media)
        with pytest.raises(EmptySelectionError, match="empty sub-information"):
            restrict_links(ex1, [])

    def test_unknown_link(self, ex1):
        with pytest.raises(UnknownRecord):
            restrict_links(ex1, [("s1", "r2")])


class TestCombine:
    def test_strict_reassembles_example(self, ex1):
        a = restrict(ex1, lambda s, r: s.id == "s1")
        b = restrict(ex1, lambda s, r: s.id in ("s2", "s3"))
        assert combine(a, b, "strict") == ex1

    def test_idempotent(self, ex1):
        sub = restrict(ex1, lambda s, r: s.id == "s1")
        assert combine(sub, sub, "strict") == sub

    def test_split_replicas_strict_rejected_lax_kept(self, ex1):
        a = restrict_links(ex1, [("s1", "r1")])
        b = restrict_links(ex1, [("s1", "r3")])
        with pytest.raises(InconsistentOverlap, match="inconsistent overlap at s1"):
            combine(a, b, "strict")
        lax = combine(a, b, "lax")
        assert lax.links == {("s1", "r1"), ("s1", "r3")}

    def test_id_clash(self, ex1):
        other = assemble(
            [StateRecord("s1", {"q"}, 9, "other")],
            [ReflectionRecord("rx", {"mx"}, 9, "other")],
            [("s1", "rx")],
        )
        with pytest.raises(RecordIdentityClash, match="record identity clash"):
            combine(ex1, other, "lax")

    def test_identifies_equal_content_across_ids(self, ex1):
        clone = assemble(
            [StateRecord("zz", {"a"}, 1, "v1")],
            [ReflectionRecord("ww", {"m1"}, 4, "v1")],
            [("zz", "ww")],
        )
        merged = combine(ex1, clone, "lax")
        assert merged == ex1

    def test_bad_mode(self, ex1):
        with pytest.raises(ValueError):
            combine(ex1, ex1, "loose")

    def test_operands_are_sub_informations(self, ex1):
        a = restrict_links(ex1, [("s1", "r1")])
        b = restrict_links(ex1, [("s2", "r2"), ("s3", "r2")])
        out = combine(a, b, "lax")
        assert is_sub_information(a, out)
        assert is_sub_information(b, out)


class TestCompose:
    MEDIA_MAP = {"m1": "m4", "m2": "m5", "m3": "m6"}

    def test_identity_relay(self, ex1):
        second = identity_relay(ex1, self.MEDIA_MAP)
        out = compose(ex1, second)
        assert out.carrier == {"m4", "m5", "m6"}
        assert out.states == ex1.states
        assert len(out.links) == len(ex1.links)

    def test_zero_shift_relay_preserves_state_side_metrics(self, ex1):
        from oit import delay, richness, scope, sustainability

        out = compose(ex1, identity_relay(ex1, self.MEDIA_MAP, tick_shift=0))
        assert scope(out) == scope(ex1)
        assert sustainability(out) == sustainability(ex1)
        assert richness(out) == richness(ex1)
        assert delay(out) == delay(ex1)

    def test_interface_mismatch(self, ex1):
        second = identity_relay(ex1, self.MEDIA_MAP)
        trimmed = restrict(second, lambda s, r: "m3" not in s.entities)
        with pytest.raises(InterfaceMismatch, match="composition interface mismatch"):
            compose(ex1, trimmed)

    def test_associative_on_chain(self, ex1):
        maps = [
            {"m1": "n1", "m2": "n2", "m3": "n3"},
            {"n1": "o1", "n2": "o2", "n3": "o3"},
        ]
        b = identity_relay(ex1, maps[0], tick_shift=1)
        c = identity_relay(b, maps[1], tick_shift=2)
        left = compose(compose(ex1, b), c)
        right = compose(ex1, compose(b, c))
        assert left == right

    @given(informations())
    @settings(max_examples=40)
    def test_associative_on_generated_chains(self, info):
        b = identity_relay(info, {m: "n_" + m for m in info.carrier}, tick_shift=1)
        c = identity_relay(b, {m: "o_" + m for m in b.carrier}, tick_shift=1)
        assert compose(compose(info, b), c) == compose(info, compose(b, c))


class TestAtomsAndInverse:
    def test_atom_count(self, ex1):
        got = atoms(ex1)
        assert [a.link for a in got] == [
            ("s1", "r1"), ("s1", "r3"), ("s2", "r2"), ("s3", "r2"),
        ]

    def test_single_link_atom_is_itself(self, ex1):
        one = restrict_links(ex1, [("s1", "r1")])
        (atom,) = atoms(one)
        assert atom.info == one

    def test_an_atom_is_the_same_in_every_instance_holding_its_link(self, ex1):
        by_link = {atom.link: atom for atom in atoms(ex1)}
        for link in ex1.links:
            (atom,) = atoms(restrict_links(ex1, [link]))
            assert atom == by_link[link] and hash(atom) == hash(by_link[link])

    @given(informations())
    def test_atoms_are_the_one_link_restrictions(self, info):
        got = atoms(info)
        assert len(got) == len(info.links)
        for atom in got:
            assert atom.info == restrict_links(info, [atom.link])
            assert atom.link_identity in info.link_identities

    def test_atoms_of_restriction_are_contained(self, ex1):
        sub = restrict(ex1, lambda s, r: s.id == "s1")
        assert {a.link_identity for a in atoms(sub)} <= {
            a.link_identity for a in atoms(ex1)
        }

    def test_preimage_examples(self, ex1):
        assert preimage(ex1, {"r2"}) == {"s2", "s3"}
        assert preimage(ex1, {"r1", "r3"}) == {"s1"}
        assert preimage(ex1, {r.id for r in ex1.reflections}) == {
            s.id for s in ex1.states
        }

    def test_image_examples(self, ex1):
        assert image(ex1, {"s1"}) == {"r1", "r3"}
        assert image(ex1, {"s2", "s3"}) == {"r2"}
        assert image(ex1, {s.id for s in ex1.states}) == {"r1", "r2", "r3"}

    def test_unknown_ids(self, ex1):
        with pytest.raises(UnknownRecord):
            preimage(ex1, {"nope"})
        with pytest.raises(UnknownRecord):
            image(ex1, {"nope"})


# An error message lists at most LISTED_IDS items, each cut to 40 characters, so
# none needs more than this, however large the input.
MESSAGE_BOUND = 600


class TestBoundedMessages:
    @pytest.mark.parametrize("count, length", [(1, 5000), (20_000, 2), (100, 100)])
    def test_unknown_records(self, ex1, count, length):
        ids = ["x" * length + str(i) for i in range(count)]
        for call in (lambda: restrict_links(ex1, [(i, "r1") for i in ids]),
                     lambda: image(ex1, ids), lambda: preimage(ex1, ids)):
            with pytest.raises(UnknownRecord) as exc:
                call()
            assert len(str(exc.value)) < MESSAGE_BOUND
            assert str(exc.value).endswith("more") == (count > model.LISTED_IDS)

    @pytest.mark.parametrize("count, length", [(1, 5000), (20_000, 2), (100, 100)])
    def test_validation_error(self, ex1, count, length):
        raw = raw_of(ex1)
        links = list(raw.links) + [("x" * length + str(i), "r1") for i in range(count)]
        with pytest.raises(ValidationError) as exc:
            build(RawSextuple.of(raw.entities, raw.media, raw.states, raw.reflections, links))
        assert len(exc.value.diagnostics) == count
        assert len(str(exc.value)) < MESSAGE_BOUND


class TestReducibility:
    def test_example_is_not_reducible(self, ex1):
        report = is_reducible(ex1)
        assert not report.functional
        assert not report.injective
        assert not report
        assert report.multi_target_states == ("s1",)
        assert report.multi_source_reflections == ("r2",)

    def test_one_to_one_chain(self):
        info = assemble(
            [StateRecord("s1", {"a"}, 1, "x")],
            [ReflectionRecord("r1", {"m"}, 2, "x")],
            [("s1", "r1")],
        )
        assert is_reducible(info).reducible

    def test_functional_but_merging(self):
        info = assemble(
            [StateRecord("s1", {"a"}, 1, "x"), StateRecord("s2", {"b"}, 1, "y")],
            [ReflectionRecord("r1", {"m"}, 2, "xy")],
            [("s1", "r1"), ("s2", "r1")],
        )
        report = is_reducible(info)
        assert report.functional
        assert not report.injective
        assert not report.reducible


class TestProperties:
    @given(informations_with_sublinks())
    def test_restriction_is_sub_information(self, case):
        info, links = case
        assert is_sub_information(restrict_links(info, links), info)

    @given(informations_with_sublinks(), st.integers(0, 2**16))
    @settings(max_examples=50)
    def test_lax_combine_of_restrictions_is_restriction_of_union(self, case, salt):
        info, l1 = case
        rng = random.Random(salt)
        l2 = frozenset(rng.sample(sorted(info.links), rng.randint(1, len(info.links))))
        merged = combine(restrict_links(info, l1), restrict_links(info, l2), "lax")
        assert merged == restrict_links(info, l1 | l2)

    @given(informations_with_sublinks())
    def test_restrict_is_idempotent(self, case):
        info, links = case

        def keep(s, r):
            return (s.id, r.id) in links

        once = restrict(info, keep)
        assert restrict(once, keep) == once

    @given(informations())
    def test_lax_combine_of_all_atoms_keeps_every_link(self, info):
        merged = functools.reduce(lambda a, b: combine(a, b, "lax"),
                                  (atom.info for atom in atoms(info)))
        assert merged.link_identities == info.link_identities

    @given(informations())
    def test_image_preimage_round_trips(self, info):
        for rec in info.states:
            assert rec.id in preimage(info, image(info, {rec.id}))
        for rec in info.reflections:
            assert rec.id in image(info, preimage(info, {rec.id}))

    @given(informations_with_sublinks(), st.integers(0, 2**16))
    @settings(max_examples=50)
    def test_algebra_results_are_valid_by_construction(self, case, salt):
        info, l1 = case
        rng = random.Random(salt)
        l2 = frozenset(rng.sample(sorted(info.links), rng.randint(1, len(info.links))))
        a = restrict_links(info, l1)
        b = renamed(restrict_links(info, l2), "a_")  # equal content under smaller ids
        results = [
            a,
            restrict(info, lambda s, r: s.tick <= r.tick or (s.id, r.id) in l1),
            combine(a, info, "strict"),
            combine(a, b, "lax"),
            compose(info, identity_relay(info, {m: m + "'" for m in info.carrier})),
        ]
        try:
            results.append(combine(a, b, "strict"))
        except InconsistentOverlap:
            pass
        results += [atom.info for atom in atoms(info)]
        for result in results:
            assert validate(raw_of(result)) == []

    def test_validate_runs_once_per_parse_and_never_in_the_algebra(self, ex1, monkeypatch):
        calls = []

        def counted(raw):
            calls.append(raw)
            return real_validate(raw)

        real_validate = model.validate
        relay = identity_relay(ex1, {"m1": "m4", "m2": "m5", "m3": "m6"})
        monkeypatch.setattr(model, "validate", counted)
        text = emit_instance(ex1)
        parse_document(text)
        assert len(calls) == 1
        with pytest.raises(ValidationError):
            parse_document(text.replace('"tick": 1', '"tick": "one"'))
        assert len(calls) == 2

        sub = restrict_links(ex1, [("s1", "r1"), ("s2", "r2")])
        restrict(ex1, lambda s, r: s.tick > 1)
        combine(sub, ex1, "strict")
        combine(sub, ex1, "lax")
        compose(ex1, relay)
        atoms(ex1)
        assert len(calls) == 2

    @given(informations())
    def test_valid_instances_support_every_operation(self, info):
        atoms(info)
        is_reducible(info)
        assert restrict_links(info, info.links) == info
        assert image(info, {s.id for s in info.states}) == {
            r.id for r in info.reflections
        }


def scanned_successors(links) -> dict:
    """State id -> sorted reflection ids, by one scan of the links per state."""
    return {a: tuple(sorted(y for x, y in links if x == a)) for a, _ in links}


def scanned_predecessors(links) -> dict:
    """Reflection id -> sorted state ids, by one scan of the links per reflection."""
    return {b: tuple(sorted(x for x, y in links if y == b)) for _, b in links}


def rescanned_overlap(a: Information, b: Information, merged: Information):
    """The first state id, in sorted order, whose links in the union match neither
    operand's, found by rescanning the whole union once per state; None if none."""
    state_id = merged.state_id_by_identity
    reflection_id = {rec.identity: rec.id for rec in merged.reflections}

    def rewritten(info):
        return frozenset(
            (state_id[info.state_by_id[x].identity], reflection_id[info.reflection_by_id[y].identity])
            for x, y in info.links
        )

    def links_of(pool, sid):
        return frozenset(p for p in pool if p[0] == sid)

    links_a, links_b = rewritten(a), rewritten(b)
    union = links_a | links_b
    for sid in sorted({x for x, _ in union}):
        mixed = links_of(union, sid)
        if mixed != links_of(links_a, sid) and mixed != links_of(links_b, sid):
            return sid
    return None


class TestEndpointIndex:
    """The instance's endpoint index against plain scans of ``info.links``."""

    @given(informations(), st.integers(0, 2**16))
    def test_lookups_match_a_scan_of_the_links(self, info, salt):
        assert info.successors == scanned_successors(info.links)
        assert info.predecessors == scanned_predecessors(info.links)
        relation = info.relation
        assert len(relation) == len(info.links)
        assert relation.sources == {a for a, _ in info.links}
        assert relation.targets == {b for _, b in info.links}
        rng = random.Random(salt)
        state_ids = {s.id for s in info.states if rng.random() < 0.5}
        reflection_ids = {r.id for r in info.reflections if rng.random() < 0.5}
        assert image(info, state_ids) == {b for a, b in info.links if a in state_ids}
        assert preimage(info, reflection_ids) == {a for a, b in info.links if b in reflection_ids}
        report = is_reducible(info)
        assert report.multi_target_states == tuple(
            sorted(a for a, bs in scanned_successors(info.links).items() if len(bs) > 1)
        )
        assert report.multi_source_reflections == tuple(
            sorted(b for b, xs in scanned_predecessors(info.links).items() if len(xs) > 1)
        )
        assert report.reducible == (not report.multi_target_states
                                    and not report.multi_source_reflections)

    @given(informations_with_sublinks(), st.integers(0, 2**16), st.sampled_from(["", "a_", "z_"]))
    @settings(max_examples=200)
    def test_combine_matches_the_rescan(self, case, salt, prefix):
        info, l1 = case
        rng = random.Random(salt)
        l2 = frozenset(rng.sample(sorted(info.links), rng.randint(1, len(info.links))))
        a = restrict_links(info, l1)
        b = restrict_links(info, l2)
        if prefix:
            b = renamed(b, prefix)
        lax = combine(a, b, "lax")
        assert lax.link_identities == a.link_identities | b.link_identities
        for rec in lax.states | lax.reflections:
            assert rec.id == min(
                r.id
                for r in a.states | a.reflections | b.states | b.reflections
                if r.identity == rec.identity and type(r) is type(rec)
            )
        overlap = rescanned_overlap(a, b, lax)
        if overlap is None:
            assert combine(a, b, "strict") == lax
        else:
            with pytest.raises(InconsistentOverlap, match="^inconsistent overlap at %s$" % overlap):
                combine(a, b, "strict")

    def test_the_first_split_state_is_named(self):
        info = assemble(
            [StateRecord("s%d" % i, {"e"}, i, "v") for i in (1, 2)],
            [ReflectionRecord("r%d" % i, {"m"}, i, "v") for i in (1, 2, 3, 4)],
            [("s1", "r1"), ("s1", "r2"), ("s2", "r3"), ("s2", "r4")],
        )
        a = restrict_links(info, [("s1", "r1"), ("s2", "r3")])
        b = restrict_links(info, [("s1", "r2"), ("s2", "r4")])
        assert rescanned_overlap(a, b, combine(a, b, "lax")) == "s1"
        with pytest.raises(InconsistentOverlap, match="^inconsistent overlap at s1$"):
            combine(a, b, "strict")


def contents(info: Information) -> frozenset:
    """The content triples of the instance's records."""
    return frozenset(rec.identity for rec in info.states | info.reflections)


@st.composite
def overlapping_operands(draw, count=2):
    """``count`` instances drawn independently from few contents, each with its
    own id prefix; the first two share at least one record's content."""
    few = informations(values=st.just("x"), ticks=st.integers(0, 1))
    operands = [draw(few) for _ in range(count)]
    assume(contents(operands[0]) & contents(operands[1]))
    return [renamed(info, prefix) for info, prefix in zip(operands, ("a_", "b_", "c_"))]


def split_state(a: Information, b: Information) -> bool:
    """Whether some state has links in both operands and neither operand holds all of them."""
    def successors(info):
        out = {}
        for state, reflection in info.link_identities:
            out.setdefault(state, set()).add(reflection)
        return out

    links_a, links_b = successors(a), successors(b)
    return any(not (links_a[s] <= links_b[s] or links_b[s] <= links_a[s])
               for s in links_a.keys() & links_b.keys())


class TestCombineLaws:
    """``combine`` on operands that overlap in content under other ids, compared by content."""

    @given(overlapping_operands())
    def test_lax_is_commutative_and_contains_its_operands(self, operands):
        a, b = operands
        ab = combine(a, b, "lax")
        assert ab.link_identities == combine(b, a, "lax").link_identities
        assert ab.link_identities == a.link_identities | b.link_identities
        assert is_sub_information(a, ab) and is_sub_information(b, ab)

    @given(overlapping_operands(count=3))
    def test_lax_is_associative(self, operands):
        a, b, c = operands
        left = combine(combine(a, b, "lax"), c, "lax")
        right = combine(a, combine(b, c, "lax"), "lax")
        assert left.link_identities == right.link_identities

    @given(overlapping_operands())
    def test_strict_is_lax_unless_a_state_is_split(self, operands):
        a, b = operands
        if split_state(a, b):
            with pytest.raises(InconsistentOverlap):
                combine(a, b, "strict")
        else:
            assert combine(a, b, "strict") == combine(a, b, "lax")
