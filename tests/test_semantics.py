from __future__ import annotations

import json
from fractions import Fraction
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from oit import (
    PartialDecoder,
    SemanticMapping,
    ValidationError,
    WeightVectorError,
    decode,
    emit_instance,
    jaccard_distance,
    numeric_l1_distance,
    parse_target,
    restrict,
    suitability,
    validity,
)

from oit.semantics import DISTANCES

from .strategies import ANY_VALUES, informations, triple_sets

# The six components suitability compares, in its weight order.
COMPONENTS = attrgetter("ontology", "occurrence_ticks", "state_identities", "carrier",
                        "reflection_ticks", "reflection_identities")


def demand(info):
    """The demand a target document holding ``info`` reads into."""
    return parse_target(emit_instance(info))


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

    @pytest.mark.parametrize("args, message", [
        (("preimage",), "decoder table must be a mapping or None"),
        (({}, "cosine"), "decoder distance must be 'jaccard' or 'numeric-l1'"),
    ], ids=["not-a-table", "bad-distance"])
    def test_each_bad_argument_names_its_fault(self, args, message):
        with pytest.raises(ValueError, match=message):
            SemanticMapping(*args)

    def test_mappings_hash_by_value(self, ex1):
        a, b = constant_decoder(ex1, S1), constant_decoder(ex1, S1)
        assert a == b and hash(a) == hash(b)
        assert a != constant_decoder(ex1, S2)
        assert {a, b, SemanticMapping.preimage(), SemanticMapping.from_table({})} == {
            a, SemanticMapping.preimage(), SemanticMapping.from_table({})}

    def test_the_mapping_keeps_its_own_table(self, ex1):
        table = {r.identity: S1 for r in ex1.reflections}
        mapping = SemanticMapping(table)
        before = hash(mapping)
        table.clear()
        assert validity(ex1, mapping) == Fraction(2, 3)
        assert hash(mapping) == before and mapping == constant_decoder(ex1, S1)


class TestValidity:
    def test_preimage_is_perfect(self, ex1):
        assert validity(ex1, SemanticMapping.preimage()) == 0
        assert validity(ex1, SemanticMapping.preimage("numeric-l1")) == 0

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
        d = DISTANCES[kind]
        assert d(a, a) == 0
        assert d(a, b) == d(b, a)
        assert d(a, b) >= 0
        assert d(a, c) <= d(a, b) + d(b, c)

    @given(triple_sets(), triple_sets())
    def test_identity_of_indiscernibles(self, a, b):
        d = DISTANCES["jaccard"]
        assert (d(a, b) == 0) == (a == b)


class TestSuitability:
    def test_self_distance_zero(self, ex1):
        assert suitability(ex1, demand(ex1)) == 0

    def test_worked_component_vector(self, ex1):
        target = demand(restrict(ex1, lambda s, r: s.id == "s1"))
        assert suitability(ex1, target) == Fraction(1, 2)

    def test_disjoint_target_is_one(self, ex1):
        other = restrict(ex1, lambda s, r: True)  # copy
        from oit import Information, ReflectionRecord, StateRecord

        foreign = Information(
            [StateRecord("q1", {"zz"}, 77, "qq")],
            [ReflectionRecord("w1", {"yy"}, 88, "qq")],
            [("q1", "w1")],
        )
        assert suitability(ex1, demand(foreign)) == 1
        assert other == ex1

    def test_weight_vector_must_normalize(self, ex1):
        target = demand(ex1)
        with pytest.raises(WeightVectorError, match="not normalized"):
            suitability(ex1, target, weights=(1, 1, 1, 1, 1, 1))
        with pytest.raises(WeightVectorError):
            suitability(ex1, target, weights=(Fraction(1, 2),) * 2)

    @pytest.mark.parametrize("weights, message", [
        ((float("nan"),) * 6, "invalid weight literal nan"),
        ((float("inf"),) * 6, "invalid weight literal inf"),
        ((True,) + (0,) * 5, "weight must be a number or numeric string"),
    ])
    def test_weights_without_an_exact_reading(self, ex1, weights, message):
        with pytest.raises(WeightVectorError) as exc:
            suitability(ex1, demand(ex1), weights)
        assert str(exc.value) == "bad suitability weight: " + message

    @pytest.mark.parametrize("weights", [None, 5])
    def test_weights_must_be_iterable(self, ex1, weights):
        with pytest.raises(WeightVectorError) as exc:
            suitability(ex1, demand(ex1), weights)
        assert str(exc.value) == "suitability weights must be iterable, got %r" % weights

    def test_custom_weights(self, ex1):
        target = demand(restrict(ex1, lambda s, r: s.id == "s1"))
        # all weight on the carrier component
        w = (0, 0, 0, 1, 0, 0)
        assert suitability(ex1, target, weights=w) == Fraction(1, 3)

    def test_not_monotone_under_sub_information(self, ex1):
        sub = restrict(ex1, lambda s, r: s.id == "s1")
        target_sub = demand(sub)
        target_full = demand(ex1)
        # shrinking the instance moves it towards one demand and away
        # from the other
        assert suitability(sub, target_sub) < suitability(ex1, target_sub)
        assert suitability(sub, target_full) > suitability(ex1, target_full)

    @given(informations(), informations())
    @settings(max_examples=60)
    def test_symmetry_and_range(self, a, b):
        d_ab = suitability(a, demand(b))
        d_ba = suitability(b, demand(a))
        assert d_ab == d_ba
        assert 0 <= d_ab <= 1


class TestDemand:
    """A demand is the raw sextuple of a target document; its tick sets are its records' ticks."""

    def test_nonvoid_enforced(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["state_records"], doc["links"] = [], []
        with pytest.raises(ValidationError) as exc:
            parse_target(json.dumps(doc))
        assert [d.message for d in exc.value.diagnostics] == ["component 'state records' is empty"]

    def test_dangling_link_uses_model_wording(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["links"].append({"from": "s9", "to": "r9"})
        with pytest.raises(ValidationError) as exc:
            parse_target(json.dumps(doc))
        assert [d.message for d in exc.value.diagnostics] == [
            "dangling link source: s9 is not a declared state record",
            "dangling link target: r9 is not a declared reflection record",
        ]

    def test_demand_may_name_unused_media(self, ex1):
        doc = json.loads(emit_instance(ex1))
        doc["media"].append("m-future")
        assert suitability(ex1, parse_target(json.dumps(doc))) == Fraction(1, 6) * Fraction(1, 4)

    @given(informations(values=ANY_VALUES), informations(values=ANY_VALUES),
           st.lists(st.integers(0, 3), min_size=6, max_size=6).filter(any))
    @settings(max_examples=60)
    def test_suitability_is_the_jaccard_sum_over_the_components(self, a, b, parts):
        weights = tuple(Fraction(p, sum(parts)) for p in parts)
        expected = sum(
            w * jaccard_distance(x, y) for w, x, y in zip(weights, COMPONENTS(a), COMPONENTS(b))
        )
        assert suitability(a, parse_target(emit_instance(b)), weights) == expected
