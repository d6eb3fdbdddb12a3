from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

from oit import (
    EnumerationGuardExceeded,
    Information,
    Profile,
    ReflectionRecord,
    StateRecord,
    atoms,
    coverage,
    delay,
    emit_instance,
    generate_synthetic,
    nested_link_subsets,
    restrict_links,
    synonymy_class,
)

from . import small_scope
from .paths import REPO_ROOT, load_script
from .strategies import informations_with_sublinks

oracle = load_script("oracle", REPO_ROOT / "bench")


class TestDelay:
    def test_example(self, ex1):
        assert delay(ex1) == 3

    def test_prediction_is_negative(self):
        info = Information(
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
        with pytest.raises(EnumerationGuardExceeded, match="too large for exhaustive"):
            coverage(ex1, target, "union", brute_force=True, guard=1)

    def test_non_sub_target_rejected(self, ex1):
        foreign = Information(
            [StateRecord("q", {"qq"}, 1, "q")],
            [ReflectionRecord("w", {"ww"}, 2, "q")],
            [("q", "w")],
        )
        with pytest.raises(ValueError, match="not a sub-information"):
            synonymy_class(ex1, foreign)
        with pytest.raises(ValueError, match="not a sub-information"):
            coverage(ex1, foreign, "union", brute_force=True)

    @pytest.mark.parametrize("call", [
        lambda info, target, guard: synonymy_class(info, target, guard),
        lambda info, target, guard: coverage(info, target, "union", True, guard),
        lambda info, target, guard: coverage(info, target, "union", False, guard),
        lambda info, target, guard: coverage(info, target, "replica", True, guard),
        lambda info, target, guard: coverage(info, target, "replica", False, guard),
    ], ids=["synonymy_class", "union_brute", "union", "replica_brute", "replica"])
    @pytest.mark.parametrize("guard, shown", [
        (math.nan, "nan"), (math.inf, "inf"), ("3", "'3'"), (None, "None"), (2.5, "2.5"),
        (True, "True"), (-1, "-1"),
    ], ids=["nan", "inf", "str", "None", "float", "bool", "negative"])
    def test_guard_must_be_an_int_of_at_least_0(self, ex1, call, guard, shown):
        """A guard of another type would lift the bound, or fail inside the walk."""
        target = restrict_links(ex1, [("s1", "r1")])
        with pytest.raises(ValueError) as exc:
            call(ex1, target, guard)
        assert str(exc.value) == "guard must be an int of at least 0, got %s" % shown


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
        info = Information(
            [StateRecord("s1", {"a"}, 1, "x"), StateRecord("s2", {"b"}, 2, "y")],
            [ReflectionRecord("r1", {"m"}, 3, "x"), ReflectionRecord("r2", {"m"}, 4, "y")],
            [("s1", "r1"), ("s2", "r2")],
        )
        assert coverage(info, restrict_links(info, info.links), "replica") == 1
        assert coverage(info, restrict_links(info, info.links), "union") == 1

    @pytest.mark.parametrize("mode", ["UNION", "lax", None])
    def test_unknown_mode_is_rejected(self, ex1, mode):
        with pytest.raises(ValueError, match="coverage mode must be 'union' or 'replica'"):
            coverage(ex1, ex1, mode)

    def test_union_brute_force_holds_one_member_at_a_time(self):
        """Seven target states of two links each: 3^7 = 2,187 members among
        2^14 - 1 subsets, none of which the walk keeps."""
        info = Information(
            [StateRecord("s%d" % i, {"e%d" % i}, i, i) for i in range(7)],
            [ReflectionRecord("r%d_%d" % (i, j), {"m%d" % j}, i, i)
             for i in range(7) for j in range(2)],
            [("s%d" % i, "r%d_%d" % (i, j)) for i in range(7) for j in range(2)],
        )
        target = restrict_links(info, [("s%d" % i, "r%d_0" % i) for i in range(7)])
        assert coverage(info, target, "union") == 1  # builds the instance's indexes
        tracemalloc.start()
        try:
            value = coverage(info, target, "union", brute_force=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1
        assert peak < 2**20

    @given(informations_with_sublinks(max_states=3, max_reflections=3))
    @settings(max_examples=60)
    def test_union_fast_path_equals_brute_force(self, case):
        info, links = case
        target = restrict_links(info, links)
        fast = coverage(info, target, "union")
        brute = coverage(info, target, "union", brute_force=True, guard=20)
        assert fast == brute
        pooled = set().union(*(m.carrier for m in synonymy_class(info, target, guard=20)))
        assert brute == Fraction(len(pooled), len(info.carrier))

    @given(informations_with_sublinks(max_states=4, max_reflections=4))
    @settings(max_examples=80)
    def test_replica_fast_path_equals_brute_force(self, case):
        """Non-brute replica coverage, which reads only the records linked from
        target states, against the exhaustive walk and the plain-JSON reference."""
        info, links = case
        target = restrict_links(info, links)
        fast = coverage(info, target, "replica")
        brute = coverage(info, target, "replica", brute_force=True, guard=20)
        assert fast == brute
        assert fast == oracle.coverage(oracle.Doc.load(emit_instance(info)),
                                       oracle.Doc.load(emit_instance(target)), "replica")


def test_small_scope_check_finds_no_mismatch():
    """Every target of ex1 and of the small profile's seeded instances."""
    n_instances, n_targets, found = small_scope.check()
    assert (n_instances, n_targets) == (small_scope.SEEDS + 1, 9271)
    assert found == []


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
