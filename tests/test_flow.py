from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from oit import (
    CoverageMode,
    EnumerationGuardExceeded,
    Profile,
    ReflectionRecord,
    StateRecord,
    assemble,
    atoms,
    coverage,
    delay,
    generate_synthetic,
    nested_link_subsets,
    restrict_links,
    synonymy_class,
)

from .strategies import informations_with_sublinks


class TestDelay:
    def test_example(self, ex1):
        assert delay(ex1) == 3

    def test_prediction_is_negative(self):
        info = assemble(
            [StateRecord("s", {"a"}, 5, "x")],
            [ReflectionRecord("r", {"m"}, 3, "x")],
            [("s", "r")],
        )
        assert delay(info) == -2

    @given(informations_with_sublinks())
    def test_monotone_under_atom_containment(self, case):
        info, links = case
        sub = restrict_links(info, links)
        assert {a.link_identity for a in atoms(sub)} <= {
            a.link_identity for a in atoms(info)
        }
        assert delay(sub) <= delay(info)


class TestSynonymy:
    def test_atom_class_collects_replicas(self, ex1):
        target = restrict_links(ex1, [("s1", "r1")])
        members = {frozenset(m.links) for m in synonymy_class(ex1, target)}
        assert members == {
            frozenset({("s1", "r1")}),
            frozenset({("s1", "r3")}),
            frozenset({("s1", "r1"), ("s1", "r3")}),
        }

    def test_unreplicated_target_is_alone(self, ex1):
        target = restrict_links(ex1, [("s2", "r2"), ("s3", "r2")])
        members = synonymy_class(ex1, target)
        assert len(members) == 1
        assert members[0] == target

    def test_functional_instance_classes_are_singletons(self):
        info = generate_synthetic(3, Profile(replication=1, aggregation=0.0))
        rng = random.Random(3)
        links = sorted(rng.sample(sorted(info.links), 2))
        target = restrict_links(info, links)
        assert synonymy_class(info, target) == [target]

    def test_target_always_a_member(self, ex1):
        target = restrict_links(ex1, [("s1", "r3"), ("s2", "r2")])
        assert any(m == target for m in synonymy_class(ex1, target))

    def test_guard(self, ex1):
        target = restrict_links(ex1, [("s1", "r1")])
        with pytest.raises(EnumerationGuardExceeded, match="too large for exhaustive"):
            synonymy_class(ex1, target, guard=1)

    def test_non_sub_target_rejected(self, ex1):
        foreign = assemble(
            [StateRecord("q", {"qq"}, 1, "q")],
            [ReflectionRecord("w", {"ww"}, 2, "q")],
            [("q", "w")],
        )
        with pytest.raises(ValueError, match="not a sub-information"):
            synonymy_class(ex1, foreign)


class TestCoverage:
    def test_union_atom(self, ex1):
        target = restrict_links(ex1, [("s1", "r1")])
        assert coverage(ex1, target, "union") == Fraction(2, 3)
        assert coverage(ex1, target, "union", brute_force=True) == Fraction(2, 3)

    def test_replica_atom(self, ex1):
        target = restrict_links(ex1, [("s1", "r1")])
        assert coverage(ex1, target, "replica") == Fraction(2, 3)
        assert coverage(ex1, target, "replica", brute_force=True) == Fraction(2, 3)

    def test_mode_disagreement_fixture(self, ex1):
        # the two readings split on a target mixing a replicated state
        # with an unreplicated one
        target = restrict_links(ex1, [("s1", "r1"), ("s2", "r2")])
        assert coverage(ex1, target, "replica") == 0
        assert coverage(ex1, target, "union") == 1

    def test_union_grows_with_target(self, ex1):
        small = restrict_links(ex1, [("s1", "r1")])
        large = restrict_links(ex1, [("s1", "r1"), ("s2", "r2")])
        assert coverage(ex1, small, "union") <= coverage(ex1, large, "union")

    def test_whole_instance_replica_in_unit_interval(self, ex1):
        value = coverage(ex1, restrict_links(ex1, ex1.links), "replica")
        assert 0 <= value <= 1

    def test_single_medium_whole_target_is_one(self):
        info = assemble(
            [StateRecord("s1", {"a"}, 1, "x"), StateRecord("s2", {"b"}, 2, "y")],
            [ReflectionRecord("r1", {"m"}, 3, "x"), ReflectionRecord("r2", {"m"}, 4, "y")],
            [("s1", "r1"), ("s2", "r2")],
        )
        assert coverage(info, restrict_links(info, info.links), "replica") == 1
        assert coverage(info, restrict_links(info, info.links), "union") == 1

    def test_mode_enum_round_trip(self, ex1):
        target = restrict_links(ex1, [("s1", "r1")])
        assert coverage(ex1, target, CoverageMode.UNION) == coverage(ex1, target, "union")

    @given(informations_with_sublinks(max_states=3, max_reflections=3))
    @settings(max_examples=60)
    def test_union_fast_path_equals_brute_force(self, case):
        info, links = case
        target = restrict_links(info, links)
        fast = coverage(info, target, "union")
        brute = coverage(info, target, "union", brute_force=True, guard=20)
        assert fast == brute

    @given(informations_with_sublinks(max_states=3, max_reflections=3))
    @settings(max_examples=60)
    def test_replica_fast_path_equals_brute_force(self, case):
        info, links = case
        target = restrict_links(info, links)
        fast = coverage(info, target, "replica")
        brute = coverage(info, target, "replica", brute_force=True, guard=20)
        assert fast == brute


class TestReplicaMonotonicity:
    def test_nested_targets_on_singleton_preimage_instances(self):
        profile = Profile(replication=3, aggregation=0.0)
        for seed in range(150):
            info = generate_synthetic(seed, profile)
            rng = random.Random(seed + 1)
            inner, outer = nested_link_subsets(info, rng)
            small = restrict_links(info, inner)
            large = restrict_links(info, outer)
            assert coverage(info, large, "replica") <= coverage(info, small, "replica")
