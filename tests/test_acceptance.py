"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All comparisons on measure metrics are exact rational comparisons;
the float tolerances appear only where floats are the contract (entropy).
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction

import pytest

from oit import (
    InconsistentOverlap,
    Profile,
    SemanticMapping,
    combine,
    compose,
    coverage,
    delay,
    emit_instance,
    example_instance,
    generate_synthetic,
    granularity,
    hartley_information,
    identity_relay,
    is_reducible,
    nested_link_subsets,
    parse_instance,
    random_link_subset,
    restrict_links,
    richness,
    run_cli,
    scope,
    shannon_entropy,
    sustainability,
    validity,
    volume,
    volume_entropy_demo,
)

from .conftest import load_script

TOL = 1e-9
sweep = load_script("proposition_sweep")


def ok(criterion: int, text: str) -> None:
    print("ACCEPTANCE %d PASS - %s" % (criterion, text))


def test_criterion_1_monotone_propositions():
    started = time.monotonic()
    checked = 0
    for seed in range(1000):
        info = generate_synthetic(seed, Profile())
        rng = random.Random(seed ^ 0xA5A5)
        sub = restrict_links(info, random_link_subset(info, rng))
        for specs in (sweep.counting_measures(), sweep.random_measures(info, rng)):
            assert scope(sub, specs["entities"]) <= scope(info, specs["entities"])
            assert granularity(sub, specs["entities"]) <= granularity(info, specs["entities"])
            assert sustainability(sub, specs["ticks"]) <= sustainability(info, specs["ticks"])
            assert richness(sub, specs["state_records"]) <= richness(info, specs["state_records"])
            assert volume(sub, specs["media"]) <= volume(info, specs["media"])
            assert delay(sub) <= delay(info)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    ok(1, "propositions 1-6 on %d pair evaluations, 0 violations, %.1fs" % (checked, elapsed))


def test_criterion_2_replica_monotonicity_and_union_counterexample():
    profile = Profile(replication=3, aggregation=0.0)
    for seed in range(1000):
        info = generate_synthetic(seed, profile)
        assert is_reducible(info).injective  # singleton preimages by construction
        rng = random.Random(seed + 7)
        inner, outer = nested_link_subsets(info, rng)
        small = restrict_links(info, inner)
        large = restrict_links(info, outer)
        assert coverage(info, large, "replica") <= coverage(info, small, "replica")

    ex1 = example_instance()
    target0 = restrict_links(ex1, [("s1", "r1")])
    target1 = restrict_links(ex1, [("s1", "r1"), ("s2", "r2")])
    assert coverage(ex1, target0, "union") == Fraction(2, 3)
    assert coverage(ex1, target1, "union") == Fraction(1)
    assert coverage(ex1, target0, "replica") == Fraction(2, 3)
    assert coverage(ex1, target1, "replica") == Fraction(0)
    ok(2, "replica coverage monotone on 1000 singleton-preimage instances; "
          "union fixture violates (2/3 -> 1) while replica obeys (2/3 -> 0)")


def test_criterion_3_union_oracle_equivalence():
    profile = Profile(entities=2, media=3, tick_span=5, replication=2, aggregation=0.3)
    for seed in range(200):
        info = generate_synthetic(seed, profile)
        assert len(info.reflections) <= 12
        rng = random.Random(seed + 13)
        target = restrict_links(info, random_link_subset(info, rng))
        fast = coverage(info, target, "union")
        brute = coverage(info, target, "union", brute_force=True, guard=20)
        assert fast == brute
    ok(3, "union fast path == exhaustive enumeration on 200 instances (<= 12 reflections)")


def test_criterion_4_example_metric_vector():
    ex1 = example_instance()
    assert scope(ex1) == 2
    assert granularity(ex1) == 2
    assert sustainability(ex1) == 3
    assert richness(ex1) == 3
    assert volume(ex1) == 3
    assert delay(ex1) == 3
    ok(4, "example vector scope 2, granularity 2, sustainability 3, richness 3, volume 3, delay 3")


def test_criterion_5_reducibility_and_validity():
    bijective = Profile(replication=1, aggregation=0.0)
    for seed in range(100):
        info = generate_synthetic(seed, bijective)
        report = is_reducible(info)
        assert report.functional and report.injective
        assert validity(info, SemanticMapping.preimage()) == 0

    ex1 = example_instance()
    s1_triple = (frozenset({"a"}), 1, "v1")
    const = SemanticMapping.from_table({r.identity: s1_triple for r in ex1.reflections})
    assert validity(ex1, const) == Fraction(2, 3)
    ok(5, "preimage decoding exact 0 on 100 bijective instances; constant decoder exactly 2/3")


def test_criterion_6_entropy_and_hartley():
    assert shannon_entropy((0.5, 0.5)) == pytest.approx(1.0, abs=TOL)
    assert shannon_entropy((0.5, 0.25, 0.25)) == pytest.approx(1.5, abs=TOL)
    for n, s in [(1, 2), (2, 2), (3, 2), (2, 3), (2, 5)]:
        outcomes = s**n
        uniform = [Fraction(1, outcomes)] * outcomes
        assert shannon_entropy(uniform) == pytest.approx(hartley_information(n, s), abs=TOL)

    rng = random.Random(2024)
    for case in range(100):
        size = rng.randint(2, 6)
        raw = [rng.randint(1, 40) for _ in range(size)]
        dist = [Fraction(x, sum(raw)) for x in raw]
        n = rng.randint(1, 10)
        demo = volume_entropy_demo(dist, n, seed=case)
        assert demo.volume >= demo.entropy_bound - TOL
    ok(6, "entropy fixtures exact to 1e-9; uniform == log-count; 100 demo volume bounds hold")


def test_criterion_7_algebra():
    ex1 = example_instance()
    a = restrict_links(ex1, [("s1", "r1")])
    b = restrict_links(ex1, [("s1", "r3")])
    with pytest.raises(InconsistentOverlap):
        combine(a, b, "strict")
    rest = restrict_links(ex1, [("s2", "r2"), ("s3", "r2")])
    assert combine(combine(a, b, "lax"), rest, "lax") == ex1

    relay = identity_relay(ex1, {"m1": "m4", "m2": "m5", "m3": "m6"}, tick_shift=2)
    composed = compose(ex1, relay)
    assert scope(composed) == scope(ex1)
    assert granularity(composed) == granularity(ex1)
    assert sustainability(composed) == sustainability(ex1)
    assert richness(composed) == richness(ex1)

    # brute-force oracle: walk every two-hop path by hand
    match = {
        rec.id: next(
            s.id for s in relay.states if s.identity == rec.identity
        )
        for rec in ex1.reflections
    }
    end_to_end = max(
        relay.reflection_by_id[c].tick - ex1.state_by_id[x].tick
        for x, y in ex1.links
        for s2, c in relay.links
        if s2 == match[y]
    )
    assert delay(composed) == end_to_end == delay(ex1) + 2
    ok(7, "strict rejects split replicas; lax reassembles; composed delay matches path oracle")


def test_criterion_8_round_trip_and_determinism(capsys, tmp_path):
    for seed in range(1000):
        info = generate_synthetic(seed, Profile(entities=3))
        text = emit_instance(info)
        again = parse_instance(text)
        assert again == info
        assert emit_instance(again) == text

    instance_path = tmp_path / "ex1.json"
    target_path = tmp_path / "target.json"
    ex1 = example_instance()
    instance_path.write_text(emit_instance(ex1))
    target_path.write_text(emit_instance(restrict_links(ex1, [("s1", "r1"), ("s1", "r3")])))
    argv = ["metrics", str(instance_path), "--target", str(target_path), "--out", "json"]
    assert run_cli(argv) == 0
    first = capsys.readouterr().out
    assert run_cli(argv) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()
    assert json.loads(first)["metrics"]
    ok(8, "1000 round trips are identities; identical argv gives byte-identical reports")
