from __future__ import annotations

import random

import pytest

from oit import (
    DegenerateProfile,
    Profile,
    RawSextuple,
    emit_instance,
    generate_synthetic,
    is_reducible,
    is_sub_information,
    nested_link_subsets,
    random_link_subset,
    restrict_links,
    validate,
)


def test_same_seed_same_document():
    a = generate_synthetic(42)
    b = generate_synthetic(42)
    assert a == b
    assert emit_instance(a) == emit_instance(b)


def test_different_seeds_differ():
    assert generate_synthetic(1) != generate_synthetic(2)


def test_every_seed_validates():
    for seed in range(50):
        info = generate_synthetic(seed)
        raw = RawSextuple(
            info.ontology, info.carrier, info.states, info.reflections, info.links
        )
        assert validate(raw) == []


def test_bijective_profile():
    profile = Profile(replication=1, aggregation=0.0)
    for seed in range(30):
        report = is_reducible(generate_synthetic(seed, profile))
        assert report.functional
        assert report.injective


def test_replication_creates_multi_target_links():
    profile = Profile(replication=4, aggregation=0.0)
    assert any(
        not is_reducible(generate_synthetic(seed, profile)).functional
        for seed in range(10)
    )


def test_aggregation_creates_multi_entity_states():
    profile = Profile(aggregation=1.0)
    info = generate_synthetic(5, profile)
    assert any(len(s.entities) > 1 for s in info.states)


def test_aggregation_creates_merged_reflections():
    profile = Profile(aggregation=1.0, replication=1)
    merged = False
    for seed in range(10):
        if not is_reducible(generate_synthetic(seed, profile)).injective:
            merged = True
    assert merged


@pytest.mark.parametrize(
    "kwargs",
    [
        {"entities": 0},
        {"media": 0},
        {"tick_span": 0},
        {"replication": 0},
        {"aggregation": 1.5},
        {"aggregation": -0.1},
        {"entities": 2.5},
        {"media": float("nan")},
        {"tick_span": "8"},
        {"replication": True},
        {"aggregation": "0.5"},
        {"aggregation": True},
        {"aggregation": None},
    ],
)
def test_degenerate_profiles_rejected(kwargs):
    with pytest.raises(DegenerateProfile):
        Profile(**kwargs)


def test_link_subsets_are_usable_sub_informations():
    info = generate_synthetic(9)
    rng = random.Random(9)
    subset = random_link_subset(info, rng)
    assert is_sub_information(restrict_links(info, subset), info)
    inner, outer = nested_link_subsets(info, rng)
    assert inner <= outer
    assert is_sub_information(restrict_links(info, inner), restrict_links(info, outer))
