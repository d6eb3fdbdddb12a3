from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oit import (
    EmptySelectionError,
    InconsistentOverlap,
    Information,
    InterfaceMismatch,
    RawSextuple,
    RecordIdentityClash,
    ReflectionRecord,
    StateRecord,
    UnknownRecord,
    ValidationError,
    assemble,
    atoms,
    combine,
    compose,
    emit_instance,
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

from .strategies import informations, informations_with_sublinks


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

    def test_unlinked_records(self):
        states = [StateRecord("s1", {"a"}, 1, "x"), StateRecord("s2", {"a"}, 2, "y")]
        refl = [ReflectionRecord("r1", {"m"}, 3, "x"), ReflectionRecord("r2", {"m"}, 3, "y")]
        raw = RawSextuple.of({"a"}, {"m"}, states, refl, [("s1", "r1")])
        codes = {d.code for d in validate(raw)}
        assert codes == {model.UNLINKED_STATE, model.UNLINKED_REFLECTION}

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

    def test_dropped_replica_link_with_equal_components_is_not_proper(self):
        # two states fully cross-linked to two reflections: dropping one
        # link keeps every component set equal, so nothing is strict
        states = [StateRecord("s1", {"a"}, 1, "x"), StateRecord("s2", {"a"}, 1, "y")]
        refl = [ReflectionRecord("r1", {"m"}, 2, "x"), ReflectionRecord("r2", {"m"}, 2, "y")]
        full = assemble(states, refl, [("s1", "r1"), ("s1", "r2"), ("s2", "r1"), ("s2", "r2")])
        sub = restrict_links(full, [("s1", "r1"), ("s2", "r1"), ("s2", "r2")])
        assert is_sub_information(sub, full)
        assert not is_proper_sub_information(sub, full)

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
