from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings

from oit import (
    DistanceSpec,
    PartialDecoder,
    SemanticMapping,
    TargetSextuple,
    ValidationError,
    WeightVectorError,
    decode,
    jaccard_distance,
    numeric_l1_distance,
    restrict,
    suitability,
    validity,
)

from .strategies import informations, triple_sets

S1 = (frozenset({"a"}), 1, "v1")
S2 = (frozenset({"b"}), 2, "v2")


def constant_decoder(info, triple):
    return SemanticMapping.from_table({r.identity: triple for r in info.reflections})


class TestDecode:
    def test_preimage_recovers_all_states(self, ex1):
        assert decode(ex1, SemanticMapping.preimage()) == ex1.state_identities

    def test_constant_table(self, ex1):
        assert decode(ex1, constant_decoder(ex1, S1)) == {S1}

    def test_partial_table_rejected(self, ex1):
        table = {
            r.identity: S1 for r in ex1.reflections if r.id != "r3"
        }
        with pytest.raises(PartialDecoder, match="partial decoder"):
            decode(ex1, SemanticMapping.from_table(table))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SemanticMapping("oracle")


class TestValidity:
    def test_preimage_is_perfect(self, ex1):
        assert validity(ex1, SemanticMapping.preimage()) == 0
        assert validity(ex1, SemanticMapping.preimage(), DistanceSpec("numeric-l1")) == 0

    def test_constant_decoder(self, ex1):
        assert validity(ex1, constant_decoder(ex1, S1)) == Fraction(2, 3)

    def test_two_correct_decodings(self, ex1):
        table = {}
        for rec in ex1.reflections:
            table[rec.identity] = S2 if rec.id == "r2" else S1
        assert validity(ex1, SemanticMapping.from_table(table)) == Fraction(1, 3)

    def test_not_monotone_under_sub_information(self, ex1):
        # the same decoder gets better on one restriction and worse on
        # another, so no monotone relation with instance size exists
        sub = restrict(ex1, lambda s, r: s.id == "s1")
        good_for_s1 = constant_decoder(ex1, S1)
        assert validity(sub, constant_decoder(sub, S1)) < validity(ex1, good_for_s1)
        bad_for_s1 = constant_decoder(ex1, S2)
        assert validity(sub, constant_decoder(sub, S2)) > validity(ex1, bad_for_s1)


class TestDistances:
    def test_jaccard_basics(self):
        assert jaccard_distance(frozenset(), frozenset()) == 0
        assert jaccard_distance(frozenset({S1}), frozenset({S1})) == 0
        assert jaccard_distance(frozenset({S1}), frozenset({S2})) == 1

    def test_numeric_l1_counts_value_differences(self):
        a = frozenset({(frozenset({"a"}), 1, 2)})
        b = frozenset({(frozenset({"a"}), 1, 3)})
        assert numeric_l1_distance(a, b) == 1

        c = frozenset({(frozenset({"a"}), 1, Fraction(5, 2))})
        assert numeric_l1_distance(a, c) == Fraction(1, 2)

    def test_numeric_l1_unmatched_key_penalty(self):
        a = frozenset({(frozenset({"a"}), 1, 0)})
        b = frozenset({(frozenset({"b"}), 1, 0)})
        assert numeric_l1_distance(a, b) == 1
        assert numeric_l1_distance(a, frozenset()) == 1

    @pytest.mark.parametrize("kind", ["jaccard", "numeric-l1"])
    @given(triple_sets(), triple_sets(), triple_sets())
    @settings(max_examples=150)
    def test_metric_axioms(self, kind, a, b, c):
        d = DistanceSpec(kind).between
        assert d(a, a) == 0
        assert d(a, b) == d(b, a)
        assert d(a, b) >= 0
        assert d(a, c) <= d(a, b) + d(b, c)

    @given(triple_sets(), triple_sets())
    def test_identity_of_indiscernibles(self, a, b):
        d = DistanceSpec("jaccard").between
        assert (d(a, b) == 0) == (a == b)


class TestSuitability:
    def test_self_distance_zero(self, ex1):
        assert suitability(ex1, TargetSextuple.from_information(ex1)) == 0

    def test_worked_component_vector(self, ex1):
        target = TargetSextuple.from_information(
            restrict(ex1, lambda s, r: s.id == "s1")
        )
        assert suitability(ex1, target) == Fraction(1, 2)

    def test_disjoint_target_is_one(self, ex1):
        other = restrict(ex1, lambda s, r: True)  # copy
        from oit import ReflectionRecord, StateRecord, assemble

        foreign = assemble(
            [StateRecord("q1", {"zz"}, 77, "qq")],
            [ReflectionRecord("w1", {"yy"}, 88, "qq")],
            [("q1", "w1")],
        )
        assert suitability(ex1, TargetSextuple.from_information(foreign)) == 1
        assert other == ex1

    def test_weight_vector_must_normalize(self, ex1):
        target = TargetSextuple.from_information(ex1)
        with pytest.raises(WeightVectorError, match="not normalized"):
            suitability(ex1, target, weights=(1, 1, 1, 1, 1, 1))
        with pytest.raises(WeightVectorError):
            suitability(ex1, target, weights=(Fraction(1, 2),) * 2)

    def test_custom_weights(self, ex1):
        target = TargetSextuple.from_information(
            restrict(ex1, lambda s, r: s.id == "s1")
        )
        # all weight on the carrier component
        w = (0, 0, 0, 1, 0, 0)
        assert suitability(ex1, target, weights=w) == Fraction(1, 3)

    def test_not_monotone_under_sub_information(self, ex1):
        sub = restrict(ex1, lambda s, r: s.id == "s1")
        target_sub = TargetSextuple.from_information(sub)
        target_full = TargetSextuple.from_information(ex1)
        # shrinking the instance moves it towards one demand and away
        # from the other
        assert suitability(sub, target_sub) < suitability(ex1, target_sub)
        assert suitability(sub, target_full) > suitability(ex1, target_full)

    @given(informations(), informations())
    @settings(max_examples=60)
    def test_symmetry_and_range(self, a, b):
        d_ab = suitability(a, TargetSextuple.from_information(b))
        d_ba = suitability(b, TargetSextuple.from_information(a))
        assert d_ab == d_ba
        assert 0 <= d_ab <= 1


class TestTargetSextuple:
    def test_nonvoid_enforced(self):
        with pytest.raises(ValidationError):
            TargetSextuple(
                frozenset(), frozenset({1}), frozenset(), frozenset({"m"}),
                frozenset({2}), frozenset(),
            )

    def test_dangling_link_uses_model_wording(self, ex1):
        with pytest.raises(ValidationError) as exc:
            TargetSextuple(
                ex1.ontology, ex1.occurrence_ticks, ex1.states, ex1.carrier,
                ex1.reflection_ticks, ex1.reflections, {("s9", "r9")},
            )
        assert [d.message for d in exc.value.diagnostics] == [
            "dangling link source: s9 is not a declared state record",
            "dangling link target: r9 is not a declared reflection record",
        ]

    def test_demand_may_name_unused_media(self, ex1):
        target = TargetSextuple(
            ex1.ontology,
            ex1.occurrence_ticks,
            ex1.states,
            ex1.carrier | {"m-future"},
            ex1.reflection_ticks,
            ex1.reflections,
        )
        assert suitability(ex1, target) == Fraction(1, 6) * Fraction(1, 4)
