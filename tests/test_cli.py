from __future__ import annotations

import json

import pytest

from oit import emit_instance, example_instance, parse_instance, restrict_links, run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def ex1_path(fixtures_dir):
    return str(fixtures_dir / "ex1.json")


class TestValidate:
    def test_valid_document(self, capsys, ex1_path):
        code, out, err = run(capsys, "validate", ex1_path)
        assert code == 0
        assert err == ""

    def test_invalid_document(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads(emit_instance(example_instance()))
        doc["links"].append({"from": "s9", "to": "r1"})
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "dangling link source" in err
        assert out == ""

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.json")
        assert code == 1
        assert err

    def test_usage_error(self, capsys):
        assert run(capsys, "validate")[0] == 2
        assert run(capsys, "frobnicate")[0] == 2

    def test_deeply_nested_json_is_malformed(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "validate", str(deep))
        assert code == 1
        assert "malformed JSON" in err
        assert out == ""


class TestMetrics:
    def test_counting_vector(self, capsys, ex1_path):
        code, out, _ = run(capsys, "metrics", ex1_path, "--out", "json")
        assert code == 0
        doc = json.loads(out)
        values = {m["name"]: m["value"] for m in doc["metrics"]}
        assert values == {
            "scope": "2",
            "granularity": "2",
            "sustainability": "3",
            "richness": "3",
            "volume": "3",
            "delay": "3",
        }

    def test_weighted_report(self, capsys, ex1_path, fixtures_dir):
        code, out, _ = run(
            capsys, "metrics", ex1_path, "--weights", str(fixtures_dir / "weights_ex1.json")
        )
        assert code == 0
        values = {m["name"]: m["value"] for m in json.loads(out)["metrics"]}
        assert values["scope"] == "5/2"
        assert values["sustainability"] == "12"
        assert values["richness"] == "6"
        assert values["volume"] == "250"

    def test_target_adds_coverage_and_suitability(self, capsys, ex1_path, fixtures_dir):
        code, out, _ = run(
            capsys, "metrics", ex1_path,
            "--target", str(fixtures_dir / "ex1_s1.json"),
            "--coverage-mode", "union",
        )
        assert code == 0
        values = {m["name"]: m["value"] for m in json.loads(out)["metrics"]}
        assert values["coverage"] == "2/3"
        assert values["suitability"] == "1/2"

    def test_decoder_adds_validity(self, capsys, ex1_path, fixtures_dir):
        code, out, _ = run(
            capsys, "metrics", ex1_path,
            "--decoder", str(fixtures_dir / "decoder_const_s1.json"),
        )
        values = {m["name"]: m["value"] for m in json.loads(out)["metrics"]}
        assert values["validity"] == "2/3"

    def test_suit_weights_flag(self, capsys, ex1_path, fixtures_dir):
        code, out, _ = run(
            capsys, "metrics", ex1_path,
            "--target", str(fixtures_dir / "ex1_s1.json"),
            "--suit-weights", "0", "0", "0", "1", "0", "0",
        )
        values = {m["name"]: m["value"] for m in json.loads(out)["metrics"]}
        assert values["suitability"] == "1/3"

    def test_table_output(self, capsys, ex1_path):
        code, out, _ = run(capsys, "metrics", ex1_path, "--out", "table")
        assert code == 0
        assert "scope" in out and "delay" in out

    def test_byte_identical_reports(self, capsys, ex1_path, fixtures_dir):
        argv = (
            "metrics", ex1_path,
            "--target", str(fixtures_dir / "ex1_s1r1.json"),
            "--decoder", str(fixtures_dir / "decoder_preimage.json"),
        )
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_brute_force_metrics_match_fast_path(self, capsys, tmp_path):
        import random

        from oit import generate_synthetic, Profile, random_link_subset

        profile = Profile(entities=2, media=3, tick_span=4, replication=2, aggregation=0.3)
        for seed in range(5):
            info = generate_synthetic(seed, profile)
            target = restrict_links(info, random_link_subset(info, random.Random(seed)))
            instance_path = tmp_path / ("i%d.json" % seed)
            target_path = tmp_path / ("t%d.json" % seed)
            instance_path.write_text(emit_instance(info))
            target_path.write_text(emit_instance(target))
            base = ["metrics", str(instance_path), "--target", str(target_path),
                    "--coverage-mode", "union"]
            _, fast, _ = run(capsys, *base)
            _, brute, _ = run(capsys, *base, "--brute-force")
            fast_cov = {m["name"]: m["value"] for m in json.loads(fast)["metrics"]}
            brute_cov = {m["name"]: m["value"] for m in json.loads(brute)["metrics"]}
            assert fast_cov == brute_cov

    def test_decoder_entry_not_object(self, capsys, ex1_path, tmp_path):
        decoder = tmp_path / "decoder.json"
        decoder.write_text(json.dumps({
            "version": 1, "kind": "table",
            "entries": [{"reflection": "m1",
                         "state": {"entities": ["a"], "tick": 1, "value": "v1"}}],
        }))
        code, out, err = run(capsys, "metrics", ex1_path, "--decoder", str(decoder))
        assert code == 1
        assert err == "schema: entries[0].reflection: expected an object\n"
        assert out == ""

    def test_dangling_target_link_reports_each_endpoint(self, capsys, ex1_path, tmp_path):
        target = tmp_path / "target.json"
        doc = json.loads(emit_instance(example_instance()))
        doc["links"].append({"from": "s9", "to": "r9"})
        target.write_text(json.dumps(doc))
        code, _, err = run(capsys, "metrics", ex1_path, "--target", str(target))
        assert code == 1
        assert err.splitlines()[1:] == [
            "dangling-link-source: dangling link source: s9 is not a declared state record",
            "dangling-link-target: dangling link target: r9 is not a declared reflection record",
        ]

    def test_non_sub_target_skips_coverage(self, capsys, ex1_path, tmp_path):
        foreign = tmp_path / "foreign.json"
        doc = json.loads(emit_instance(example_instance()))
        doc["state_records"][0]["value"] = "changed"
        foreign.write_text(json.dumps(doc))
        code, out, err = run(capsys, "metrics", ex1_path, "--target", str(foreign))
        assert code == 0
        names = {m["name"] for m in json.loads(out)["metrics"]}
        assert "coverage" not in names
        assert "suitability" in names
        assert "coverage skipped" in err


class TestCoverage:
    def test_union_brute_force(self, capsys, ex1_path, fixtures_dir):
        code, out, _ = run(
            capsys, "coverage", ex1_path,
            "--target", str(fixtures_dir / "ex1_s1r1.json"),
            "--mode", "union", "--brute-force",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == "2/3"
        assert abs(doc["approx"] - 0.6666666666666666) < 1e-12

    def test_replica_counterexample_fixture(self, capsys, ex1_path, fixtures_dir):
        target = str(fixtures_dir / "ex1_s1r1_s2r2.json")
        _, out_r, _ = run(capsys, "coverage", ex1_path, "--target", target)
        _, out_u, _ = run(capsys, "coverage", ex1_path, "--target", target, "--mode", "union")
        assert json.loads(out_r)["value"] == "0"
        assert json.loads(out_u)["value"] == "1"

    def test_non_sub_target_fails(self, capsys, ex1_path, tmp_path):
        foreign = tmp_path / "foreign.json"
        doc = json.loads(emit_instance(example_instance()))
        doc["state_records"][0]["value"] = "changed"
        foreign.write_text(json.dumps(doc))
        code, _, err = run(capsys, "coverage", ex1_path, "--target", str(foreign))
        assert code == 1
        assert "not a sub-information" in err

    def test_guard_env_override(self, capsys, ex1_path, fixtures_dir, monkeypatch):
        monkeypatch.setenv("OIT_GUARD", "1")
        code, _, err = run(
            capsys, "coverage", ex1_path,
            "--target", str(fixtures_dir / "ex1_s1r1.json"),
            "--mode", "union", "--brute-force",
        )
        assert code == 1
        assert "too large for exhaustive" in err

    def brute_union(self, capsys, ex1_path, fixtures_dir, *extra):
        return run(
            capsys, "coverage", ex1_path,
            "--target", str(fixtures_dir / "ex1_s1r1.json"),
            "--mode", "union", "--brute-force", *extra,
        )

    def test_guard_zero_is_kept(self, capsys, ex1_path, fixtures_dir, monkeypatch):
        monkeypatch.delenv("OIT_GUARD", raising=False)
        code, _, err = self.brute_union(capsys, ex1_path, fixtures_dir, "--guard", "0")
        assert code == 1
        assert "over guard 0" in err

    def test_guard_flag_beats_env(self, capsys, ex1_path, fixtures_dir, monkeypatch):
        monkeypatch.setenv("OIT_GUARD", "1")
        code, out, _ = self.brute_union(capsys, ex1_path, fixtures_dir, "--guard", "15")
        assert code == 0
        assert json.loads(out)["value"] == "2/3"

    def test_non_integer_guard_env_is_usage_error(
        self, capsys, ex1_path, fixtures_dir, monkeypatch
    ):
        monkeypatch.setenv("OIT_GUARD", "many")
        code, out, err = self.brute_union(capsys, ex1_path, fixtures_dir)
        assert code == 2
        assert "OIT_GUARD" in err
        assert out == ""


class TestAlgebraCommands:
    def test_combine_lax_reassembles(self, capsys, ex1_path, tmp_path):
        ex1 = example_instance()
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(emit_instance(restrict_links(ex1, [("s1", "r1")])))
        b.write_text(emit_instance(restrict_links(ex1, [("s1", "r3")])))
        out_path = tmp_path / "out.json"

        code, _, err = run(capsys, "combine", str(a), str(b), "-o", str(out_path))
        assert code == 1
        assert "inconsistent overlap at s1" in err

        code, _, _ = run(capsys, "combine", str(a), str(b), "--lax", "-o", str(out_path))
        assert code == 0
        merged = parse_instance(out_path.read_text())
        assert merged == restrict_links(ex1, [("s1", "r1"), ("s1", "r3")])

    def test_compose_writes_valid_document(self, capsys, ex1_path, tmp_path):
        from oit import identity_relay

        relay_path = tmp_path / "relay.json"
        relay_path.write_text(
            emit_instance(identity_relay(example_instance(), {"m1": "m4", "m2": "m5", "m3": "m6"}))
        )
        out_path = tmp_path / "composed.json"
        code, _, _ = run(capsys, "compose", ex1_path, str(relay_path), "-o", str(out_path))
        assert code == 0
        composed = parse_instance(out_path.read_text())
        assert composed.carrier == {"m4", "m5", "m6"}

    def test_atoms(self, capsys, ex1_path):
        code, out, _ = run(capsys, "atoms", ex1_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["atoms"] == [
            {"from": "s1", "to": "r1"},
            {"from": "s1", "to": "r3"},
            {"from": "s2", "to": "r2"},
            {"from": "s3", "to": "r2"},
        ]


class TestClassicCommands:
    def test_entropy(self, capsys):
        code, out, _ = run(capsys, "entropy", "--probs", "0.5,0.25,0.25")
        assert code == 0
        assert float(out) == pytest.approx(1.5, abs=1e-9)

    def test_entropy_rejects_bad_distribution(self, capsys):
        code, _, err = run(capsys, "entropy", "--probs", "0.5,0.6")
        assert code == 1
        assert "sum" in err

    def test_hartley(self, capsys):
        code, out, _ = run(capsys, "hartley", "--n", "4", "--s", "10")
        assert float(out) == pytest.approx(13.287712379549449, abs=1e-9)

    def test_demo_shannon(self, capsys):
        code, out, _ = run(
            capsys, "demo", "shannon", "--probs", "0.5,0.5", "--n", "8", "--seed", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["volume"] == 8
        assert doc["hartley"] == pytest.approx(8.0)
        assert doc["entropy_bound"] == pytest.approx(8.0)


class TestGen:
    def test_deterministic_output(self, capsys, tmp_path):
        out1 = tmp_path / "one.json"
        out2 = tmp_path / "two.json"
        run(capsys, "gen", "--seed", "42", "-o", str(out1))
        run(capsys, "gen", "--seed", "42", "-o", str(out2))
        assert out1.read_text() == out2.read_text()
        parse_instance(out1.read_text())

    def test_gen_to_stdout_validates(self, capsys):
        code, out, _ = run(capsys, "gen", "--seed", "3", "--replication", "1",
                           "--aggregation", "0", "-o", "-")
        assert code == 0
        parse_instance(out)

    def test_degenerate_profile(self, capsys):
        code, _, err = run(capsys, "gen", "--seed", "1", "--entities", "0", "-o", "-")
        assert code == 1
        assert "must be >= 1" in err
