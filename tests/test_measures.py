from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oit import (
    Profile,
    UncoveredElement,
    ValidationError,
    atoms,
    combine,
    compose,
    delay,
    emit_instance,
    generate_synthetic,
    granularity,
    identity_relay,
    parse_document,
    restrict,
    restrict_links,
    richness,
    scope,
    sustainability,
    volume,
)
from oit.cli import MEASURE_METRICS
from oit.measures import _measure

from .paths import REPO_ROOT, load_script
from .strategies import informations, informations_with_sublinks, weight_tables

oracle = load_script("oracle", REPO_ROOT / "bench")


class TestWeightTable:
    def test_negative_weight_rejected(self, ex1):
        # "z" is never measured; the whole table is read all the same.
        with pytest.raises(ValueError, match="^weight must be nonnegative$"):
            scope(ex1, {"a": 1, "b": 1, "z": -1})

    def test_uncovered_element(self, ex1):
        with pytest.raises(UncoveredElement, match="uncovered element 'b' in entities measure"):
            scope(ex1, {"a": 1})

    def test_exact_fraction_coercion(self):
        table = {"a": "0.5", "b": 2, "c": 0.25, "d": Fraction(1, 3), "e": "2/3"}
        assert _measure(table, "entities")("abcde") == Fraction(15, 4)

    @pytest.mark.parametrize("weight, message", [
        (True, "weight must be a number or numeric string"),
        ([1], "weight must be a number or numeric string"),
        ("x", "invalid weight literal 'x'"),
        ("nan", "invalid weight literal 'nan'"),
        (float("nan"), "invalid weight literal nan"),
        (float("inf"), "invalid weight literal inf"),
        (-1, "weight must be nonnegative"),
        ("-1", "weight must be nonnegative"),
        ("1/0", "invalid weight literal '1/0'"),
        ("1e100000000", "invalid weight literal '1e100000000'"),
    ])
    def test_library_and_document_reader_say_the_same(self, ex1, weight, message):
        with pytest.raises(ValueError) as exc:
            scope(ex1, {"a": weight, "b": 1})
        assert str(exc.value) == message
        doc = json.loads(emit_instance(ex1))
        doc["weights"] = {"entities": {"a": weight, "b": 1}}
        with pytest.raises(ValidationError) as diag:
            parse_document(json.dumps(doc))
        (line,) = diag.value.diagnostics
        assert (line.code, line.message) == ("schema", "weights.entities.a: " + message)

    # json can neither write nor read an integer of more than 4300 digits, so only
    # a library table can hold these; they fail as soon as the table is read.
    @pytest.mark.parametrize("weight", [10**4400, -(10**4400), 10**4300, Fraction(1, 10**4300),
                                        Fraction(10**4300 + 1, 3)],
                             ids=["1e4400", "-1e4400", "1e4300", "1/1e4300", "(1e4300+1)/3"])
    def test_weights_beyond_the_digit_limit_rejected(self, ex1, weight):
        with pytest.raises(ValueError) as exc:
            scope(ex1, {"a": weight, "b": 1})
        assert str(exc.value) == "weight exceeds 4300 digits"
        with pytest.raises(ValueError) as exc:
            emit_instance(ex1, {"entities": {"a": weight, "b": 1}})
        assert str(exc.value) == "weight exceeds 4300 digits"

    @pytest.mark.parametrize("weight", [10**4300 - 1, Fraction(1, 10**4300 - 1)],
                             ids=["1e4300-1", "1/(1e4300-1)"])
    def test_weights_at_the_digit_limit_round_trip(self, ex1, weight):
        weights = {"entities": {"a": weight, "b": 1}}
        assert scope(ex1, weights["entities"]) == weight + 1
        assert parse_document(emit_instance(ex1, weights)) == (ex1, weights)

    @given(st.sets(st.sampled_from("abcdef")), st.sets(st.sampled_from("ghijkl")))
    def test_finite_additivity_on_disjoint_sets(self, left, right):
        rng = random.Random(17)
        table = {t: Fraction(rng.randint(0, 9), rng.randint(1, 5)) for t in "abcdefghijkl"}
        measure = _measure(table, "entities")
        assert measure(left | right) == measure(left) + measure(right)

    @given(st.sets(st.sampled_from("abcdef")), st.sets(st.sampled_from("abcdef")))
    def test_monotone_under_containment(self, small, extra):
        measure = _measure({t: Fraction(i, 3) for i, t in enumerate("abcdef")}, "entities")
        assert measure(small) <= measure(small | extra)


class TestScope:
    def test_counting(self, ex1):
        assert scope(ex1) == 2

    def test_weighted(self, ex1):
        assert scope(ex1, {"a": "0.5", "b": 2}) == Fraction(5, 2)

    def test_restricted(self, ex1):
        assert scope(restrict(ex1, lambda s, r: s.id == "s1")) == 1


class TestGranularity:
    def test_counting_dominated_by_aggregate_record(self, ex1):
        assert granularity(ex1) == 2

    def test_all_singletons(self, ex1):
        sub = restrict(ex1, lambda s, r: s.id != "s3")
        assert granularity(sub) == 1

    def test_weighted(self, ex1):
        assert granularity(ex1, {"a": 3, "b": 1}) == 4

    def test_matches_atom_maximum(self, ex1):
        table = {"a": 3, "b": 1}
        assert granularity(ex1, table) == max(scope(a.info, table) for a in atoms(ex1))


class TestSustainability:
    def test_counting(self, ex1):
        assert sustainability(ex1) == 3

    def test_weighted(self, ex1):
        assert sustainability(ex1, {1: 1, 2: 1, 3: 10}) == 12

    def test_restricted(self, ex1):
        assert sustainability(restrict(ex1, lambda s, r: s.id == "s1")) == 1


class TestRichness:
    def test_counting(self, ex1):
        assert richness(ex1) == 3

    def test_weighted_by_value_length(self, ex1):
        assert richness(ex1, {s.id: len(s.value) for s in ex1.states}) == 6

    def test_restricted(self, ex1):
        assert richness(restrict(ex1, lambda s, r: s.tick <= 2)) == 2


class TestVolume:
    def test_counting(self, ex1):
        assert volume(ex1) == 3

    def test_weighted_bytes(self, ex1):
        assert volume(ex1, {"m1": 100, "m2": 50, "m3": 100}) == 250

    def test_restricted(self, ex1):
        assert volume(restrict(ex1, lambda s, r: s.id in ("s2", "s3"))) == 1


def _random_measures(info, rng):
    def table(keys):
        return {k: Fraction(rng.randint(0, 10), rng.randint(1, 4)) for k in keys}

    return {
        "entities": table(info.ontology),
        "ticks": table(info.occurrence_ticks),
        "state_records": table(r.id for r in info.states),
        "media": table(info.carrier),
    }


class TestMonotonePropositions:
    @given(informations_with_sublinks(), st.integers(0, 2**16))
    @settings(max_examples=80)
    def test_measure_metrics_monotone_under_sub_information(self, case, salt):
        info, links = case
        sub = restrict_links(info, links)
        tables = _random_measures(info, random.Random(salt))
        assert scope(sub) <= scope(info)
        assert scope(sub, tables["entities"]) <= scope(info, tables["entities"])
        assert sustainability(sub) <= sustainability(info)
        assert sustainability(sub, tables["ticks"]) <= sustainability(info, tables["ticks"])
        assert richness(sub) <= richness(info)
        assert richness(sub, tables["state_records"]) <= richness(info, tables["state_records"])
        assert volume(sub) <= volume(info)
        assert volume(sub, tables["media"]) <= volume(info, tables["media"])

    @given(informations_with_sublinks(), st.integers(0, 2**16))
    @settings(max_examples=80)
    def test_granularity_monotone_under_atom_containment(self, case, salt):
        info, links = case
        sub = restrict_links(info, links)
        assert {a.link_identity for a in atoms(sub)} <= {
            a.link_identity for a in atoms(info)
        }
        tables = _random_measures(info, random.Random(salt))
        assert granularity(sub) <= granularity(info)
        assert granularity(sub, tables["entities"]) <= granularity(info, tables["entities"])


class TestOracle:
    @given(st.data())
    @settings(max_examples=80)
    def test_measure_metrics_match_the_benchmark_oracle(self, data):
        info = data.draw(informations())
        weights = data.draw(st.none() | weight_tables(info, complete=True))
        doc = json.loads(emit_instance(info, weights))
        want = oracle.metric_values(oracle.Doc(doc), weights=doc.get("weights"))
        for name, metric, universe in MEASURE_METRICS:
            assert metric(info, (weights or {}).get(universe)) == want[name], name


class TestMetricLaws:
    """How the counting metrics behave under lax ``combine``, written ``a ∨ b``,
    and under ``compose``, on instances of ``LAW_PROFILE``."""

    LAW_PROFILE = Profile(entities=6, media=4, tick_span=6, replication=2)

    @given(st.integers(0, 2**16), st.integers(0, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_metrics_under_lax_combine_and_compose(self, seed, shift, data):
        info = generate_synthetic(seed, self.LAW_PROFILE)
        links = sorted(info.links)
        a, b = (restrict_links(info, data.draw(st.sets(st.sampled_from(links), min_size=1)))
                for _ in range(2))
        ab = combine(a, b, "lax")
        for metric in (scope, sustainability, richness, volume):
            assert max(metric(a), metric(b)) <= metric(ab) <= metric(a) + metric(b), metric
        for metric in (granularity, delay):
            assert metric(ab) == max(metric(a), metric(b)), metric
        relay = identity_relay(ab, {m: "relay-" + m for m in ab.carrier}, shift)
        composed = compose(ab, relay)
        for metric in (scope, sustainability, richness, granularity):
            assert metric(composed) == metric(ab), metric
        assert volume(composed) == volume(relay)
        assert delay(composed) == delay(ab) + shift
