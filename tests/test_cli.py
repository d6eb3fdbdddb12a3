from __future__ import annotations

import builtins
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oit
from oit import (
    Profile,
    emit_instance,
    example_instance,
    generate_synthetic,
    hartley_information,
    parse_instance,
    restrict_links,
    run_cli,
    shannon_entropy,
)
from oit.model import LISTED_IDS

from .paths import FIXTURES, REPO_ROOT


# A diagnostic line lists at most two groups of LISTED_IDS ids, each cut to 40
# characters, so no line needs more than this, however large the input.
LINE_BOUND = 1000


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subprocess_env():
    """The environment of a CLI child that imports this checkout's ``oit``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


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


    def test_deeply_nested_version_is_echoed_briefly(self, capsys, tmp_path):
        version = 1
        for _ in range(900):
            version = [version]
        doc = tmp_path / "deep_version.json"
        doc.write_text(json.dumps({"version": version}))
        code, out, err = run(capsys, "validate", str(doc))
        assert code == 1
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("schema: version: unsupported document version [[[")
        assert len(line) < 80

    @pytest.mark.parametrize("length", [40, 5000])
    def test_record_ids_in_diagnostics_are_echoed_briefly(self, capsys, tmp_path, length):
        sid, rid, src, dst = (c * length for c in "srty")
        doc = json.loads(emit_instance(example_instance()))
        state = {"id": sid, "entities": [], "tick": 9, "value": "x"}
        doc["state_records"] += [state, state]
        doc["reflection_records"].append(dict(doc["reflection_records"][0], id=rid))
        doc["links"].append({"from": src, "to": dst})
        path = tmp_path / "long_ids.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))

        def shown(rec_id):
            return rec_id if len(rec_id) <= 40 else rec_id[:37] + "..."

        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "empty-record-tokens: state record %s has an empty entities set" % shown(sid),
            "empty-record-tokens: state record %s has an empty entities set" % shown(sid),
            "duplicate-record-content: record identity clash: state record id %s declared twice"
            % shown(sid),
            "duplicate-record-content: reflection records r1 and %s share one content triple"
            % shown(rid),
            "dangling-link-source: dangling link source: %s is not a declared state record"
            % shown(src),
            "dangling-link-target: dangling link target: %s is not a declared reflection record"
            % shown(dst),
            "unlinked-state: totality violation: state record %s has no link" % shown(sid),
            "unlinked-reflection: surjectivity violation: reflection record %s has no link"
            % shown(rid),
        ]


    def test_closure_mismatch_lists_a_bounded_number_of_brief_tokens(self, capsys, tmp_path):
        doc = json.loads(emit_instance(generate_synthetic(1, Profile(entities=200))))
        induced = {t for rec in doc["state_records"] for t in rec["entities"]}
        doc["entities"] = ["x" * 5000]
        path = tmp_path / "long_token.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith(
            "closure-mismatch: canonical closure violated for entities (declared-only: ['%s...']"
            % ("x" * 37))
        assert line.endswith(", ... and %d more])" % (len(induced) - LISTED_IDS))
        assert len(line) < LINE_BOUND


def _accented_crlf(path, doc):
    """Write ``doc`` with CRLF line ends and non-ASCII text; return its bytes."""
    data = json.dumps(doc, indent=2, ensure_ascii=False).replace("\n", "\r\n").encode("utf-8")
    path.write_bytes(data)
    return data


def _with(doc, path, value):
    """A copy of ``doc`` with the member at ``path`` set to ``value``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


class TestSchemaDiagnostics:
    """Each boundary check of the readers, pinned by the first line it prints."""

    @pytest.mark.parametrize("path, value, line", [
        (("state_records", 0, "value"), {"b64": "!!"},
         "schema: state_records[0].value: invalid base64 payload"),
        (("entities",), "a", "schema: entities: expected a list of token strings"),
        (("state_records", 0), "s1", "schema: state_records[0]: expected a record object"),
        (("state_records", 0, "id"), "",
         "schema: state_records[0].id: record id must be a nonempty string"),
        (("state_records", 0, "id"), 7,
         "schema: state_records[0].id: record id must be a nonempty string"),
        (("weights",), {"entities": {"a": True}},
         "schema: weights.entities.a: weight must be a number or numeric string"),
        (("weights",), {"entities": {"a": [1]}},
         "schema: weights.entities.a: weight must be a number or numeric string"),
        (("weights",), [], "schema: weights: expected an object keyed by universe"),
        (("weights",), {"entities": 1},
         "schema: weights.entities: expected a token-to-weight object"),
        (("links",), {}, "schema: links: expected a list of {from, to} objects"),
        (("links", 0), ["s1", "r1"],
         'schema: links[0]: expected {"from": state id, "to": reflection id}'),
    ])
    def test_instance_document(self, capsys, tmp_path, path, value, line):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_with(json.loads(emit_instance(example_instance())), path, value)))
        code, out, err = run(capsys, "validate", str(bad))
        assert (code, out, err.splitlines()[0]) == (1, "", line)

    @pytest.mark.parametrize("flag, doc, line", [
        ("--target", _with(json.loads(emit_instance(example_instance())), ("links", 0), 5),
         'schema: links[0]: expected {"from": state id, "to": reflection id}'),
        ("--decoder", {"version": 1, "kind": "preimage", "distance": "cosine"},
         "schema: distance: must be 'jaccard' or 'numeric-l1'"),
        ("--decoder", {"version": 1, "kind": "table", "entries": {}},
         "schema: entries: expected a list"),
        ("--decoder", {"version": 1, "kind": "table", "entries": [1]},
         "schema: entries[0]: expected {reflection, state} objects"),
        ("--weights", {"version": 1, "weights": {"media": {"m1": "x"}}},
         "schema: weights.media.m1: invalid weight literal 'x'"),
    ])
    def test_side_document(self, capsys, tmp_path, ex1_path, flag, doc, line):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "metrics", ex1_path, flag, str(bad))
        assert (code, out, err) == (1, "", line + "\n")


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
        assert err.splitlines() == [
            "dangling-link-source: dangling link source: s9 is not a declared state record",
            "dangling-link-target: dangling link target: r9 is not a declared reflection record",
        ]

    def test_target_declaring_a_record_twice_is_rejected_like_validate(
        self, capsys, ex1_path, tmp_path
    ):
        target = tmp_path / "target.json"
        doc = json.loads(emit_instance(example_instance()))
        doc["state_records"].append(doc["state_records"][0])
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, "metrics", ex1_path, "--target", str(target))
        assert (code, out) == (1, "")
        assert run(capsys, "validate", str(target)) == (1, "", err)
        assert err == (
            "duplicate-record-content: record identity clash: state record id s1 declared twice\n"
        )

    def test_non_sub_target_skips_coverage(self, capsys, ex1_path, tmp_path):
        foreign = tmp_path / "foreign.json"
        for state_id, shown in (("s1", "s1"), ("s" * 50, "s" * 37 + "...")):
            doc = json.loads(emit_instance(example_instance()))
            doc["state_records"][0]["value"] = "changed"
            doc["state_records"][0]["id"] = state_id
            for link in doc["links"]:
                link["from"] = state_id if link["from"] == "s1" else link["from"]
            foreign.write_text(json.dumps(doc))
            code, out, err = run(capsys, "metrics", ex1_path, "--target", str(foreign))
            assert code == 0
            names = {m["name"] for m in json.loads(out)["metrics"]}
            assert "coverage" not in names
            assert "suitability" in names
            # Both of the changed state's links are missing; the smaller is named.
            assert err == ("note: target is not a sub-information (the input lacks its link "
                           "%s -> r1); coverage skipped\n" % shown)

    def test_valid_demand_that_is_no_instance_gets_only_the_note(
        self, capsys, ex1_path, tmp_path
    ):
        target = tmp_path / "target.json"
        doc = json.loads(emit_instance(example_instance()))
        doc["links"] = [link for link in doc["links"] if link["from"] != "s3"]
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, "metrics", ex1_path, "--target", str(target))
        assert code == 0
        assert "suitability" in {m["name"] for m in json.loads(out)["metrics"]}
        assert err == "note: target is not an instance (unlinked-state: s3); coverage skipped\n"

    def test_target_weights_are_read_as_an_instance_reads_them(self, capsys, ex1_path, tmp_path):
        target = tmp_path / "target.json"
        doc = json.loads(emit_instance(restrict_links(example_instance(), [("s1", "r1")])))
        doc["weights"] = {"no-such-universe": {"x": "-1"}, "entities": {"a": "x"}}
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, "metrics", ex1_path, "--target", str(target))
        assert (code, out) == (1, "")
        assert err == run(capsys, "validate", str(target))[2] == (
            "schema: weights.no-such-universe: unknown universe\n"
            "schema: weights.entities.a: invalid weight literal 'x'\n")
        doc["weights"] = {"entities": {"a": "1/2"}}
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, "metrics", ex1_path, "--target", str(target))
        assert (code, err) == (0, "")
        values = {m["name"]: m["value"] for m in json.loads(out)["metrics"]}
        assert values["coverage"] == "2/3"

    def test_digests_name_the_bytes_read(self, capsys, tmp_path):
        doc = json.loads(emit_instance(example_instance()))
        for rec in doc["state_records"] + doc["reflection_records"]:
            rec["value"] += "\u00e9t\u00e9"
        instance, target, decoder = (tmp_path / n for n in ("i.json", "t.json", "d.json"))
        _accented_crlf(instance, doc)
        target_bytes = _accented_crlf(target, doc)
        decoder_bytes = _accented_crlf(decoder, {"version": 1, "kind": "preimage"})
        code, out, _ = run(capsys, "metrics", str(instance), "--target", str(target),
                           "--decoder", str(decoder))
        assert code == 0
        provenance = {m["name"]: m["provenance"] for m in json.loads(out)["metrics"]}
        target_digest = "sha256:" + hashlib.sha256(target_bytes).hexdigest()
        assert provenance["coverage"]["target"] == target_digest
        assert provenance["suitability"]["target"] == target_digest
        assert provenance["validity"]["source"] == (
            "sha256:" + hashlib.sha256(decoder_bytes).hexdigest())

    def test_each_input_is_read_decoded_and_validated_once(
        self, capsys, monkeypatch, ex1_path, fixtures_dir
    ):
        target_path = str(fixtures_dir / "ex1_s1r1.json")
        decoder_path = str(fixtures_dir / "decoder_const_s1.json")
        paths = (ex1_path, target_path, decoder_path)
        opened, decoded, validated = Counter(), Counter(), Counter()

        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened[str(file)] += 1
            return real_open(file, *args, **kwargs)

        def counting_loads(text, *args, **kwargs):
            decoded[text] += 1
            return json.loads(text, *args, **kwargs)

        real_validate = oit.model.validate

        def counting_validate(raw):
            validated[frozenset(raw.links)] += 1
            return real_validate(raw)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(oit.serialize, "json", types.SimpleNamespace(
            loads=counting_loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError))
        real_parse_target = oit.cli.parse_target
        targets_parsed = []

        def counting_parse_target(text):
            targets_parsed.append(text)
            return real_parse_target(text)

        monkeypatch.setattr(oit.model, "validate", counting_validate)
        monkeypatch.setattr(oit.cli, "parse_target", counting_parse_target)
        code, out, _ = run(capsys, "metrics", ex1_path, "--target", target_path,
                           "--decoder", decoder_path)
        monkeypatch.undo()

        assert code == 0
        assert {m["name"] for m in json.loads(out)["metrics"]} >= {
            "coverage", "suitability", "validity"}
        assert {p: opened[p] for p in paths} == {p: 1 for p in paths}
        texts = [open(p, encoding="utf-8", newline="").read() for p in paths]
        assert decoded == Counter(texts)
        instance_links = frozenset(parse_instance(texts[0]).links)
        target_links = frozenset(parse_instance(texts[1]).links)
        assert validated[instance_links] == 1
        assert validated[target_links] <= 1
        assert set(validated) <= {instance_links, target_links}
        assert targets_parsed == [texts[1]]


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

    def brute_union(self, capsys, ex1_path, fixtures_dir, *extra):
        return run(
            capsys, "coverage", ex1_path,
            "--target", str(fixtures_dir / "ex1_s1r1.json"),
            "--mode", "union", "--brute-force", *extra,
        )

    def test_guard_env_is_ignored(self, capsys, ex1_path, fixtures_dir, monkeypatch):
        monkeypatch.setenv("OIT_GUARD", "1")
        code, out, err = self.brute_union(capsys, ex1_path, fixtures_dir)
        assert (code, err) == (0, "")
        assert json.loads(out)["value"] == "2/3"

    def test_replica_brute_force_guard(self, capsys, ex1_path, fixtures_dir):
        code, out, err = run(capsys, "coverage", ex1_path, "--target",
                             str(fixtures_dir / "ex1_s1r1.json"), "--brute-force", "--guard", "0")
        assert (code, out, err) == (
            1, "", "error: instance too large for exhaustive synonymy (1 records over guard 0)\n")

    def test_guard_zero_is_kept(self, capsys, ex1_path, fixtures_dir):
        code, _, err = self.brute_union(capsys, ex1_path, fixtures_dir, "--guard", "0")
        assert code == 1
        assert "over guard 0" in err


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

    def test_combine_clash_names_the_smallest_id_under_any_hash_seed(self, ex1_path, tmp_path):
        doc = json.loads(emit_instance(example_instance()))
        for rec in doc["state_records"]:
            rec["value"] += "-changed"
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        for seed in ("0", "1", "2", "3"):
            result = subprocess.run(
                [sys.executable, "-m", "oit",
                 "combine", ex1_path, str(other), "-o", "-"],
                capture_output=True, text=True, timeout=60,
                env=dict(_subprocess_env(), PYTHONHASHSEED=seed),
            )
            assert (result.returncode, result.stdout, result.stderr) == (
                1, "", "error: record identity clash: state record s1\n"), seed

    def test_interface_mismatch_lists_a_bounded_number_of_ids(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(emit_instance(generate_synthetic(1, Profile(entities=200))))
        code, out, err = run(capsys, "compose", str(path), str(path), "-o", "-")
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith("error: composition interface mismatch: ")
        assert line.count("more") == 2
        assert len(line) < LINE_BOUND

    @pytest.mark.parametrize("lax, message", [
        (False, "error: inconsistent overlap at %s\n"),
        (True, "error: record identity clash: state record %s\n"),
    ])
    def test_combine_errors_quote_ids_briefly(self, capsys, tmp_path, lax, message):
        long_id = "s" * 5000
        ex1 = example_instance()
        paths = []
        for i, kept in enumerate([("s1", "r1"), ("s1", "r3")]):
            doc = json.loads(emit_instance(restrict_links(ex1, [kept])))
            doc["state_records"][0]["id"] = doc["links"][0]["from"] = long_id
            if lax:
                doc["state_records"][0]["value"] += str(i)
            paths.append(tmp_path / ("part%d.json" % i))
            paths[-1].write_text(json.dumps(doc))
        argv = ["combine", *map(str, paths), "-o", "-"] + (["--lax"] if lax else [])
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", message % (long_id[:37] + "..."))

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

    @pytest.mark.parametrize("n, s", [("1" + "0" * 400, "2"), ("1" + "0" * 308, "10")],
                             ids=["n-beyond-float", "product-beyond-float"])
    def test_hartley_beyond_a_float_names_n_and_s(self, capsys, n, s):
        code, out, err = run(capsys, "hartley", "--n", n, "--s", s)
        assert (code, out) == (1, "")
        assert err == ("error: n * log(s) is too large for a float: "
                       "n=100000000000000000...0000000000000000000, s=%s\n" % s)

    @pytest.mark.parametrize("argv, message", [
        (["entropy", "--probs", "0.5,0.5", "--base", "nan"], "log base must exceed 1, got nan"),
        (["entropy", "--probs", "0.5,0.5", "--base", "inf"], "log base must exceed 1, got inf"),
        (["entropy", "--probs", "0.5,0.5", "--k", "nan"], "scale k must be positive, got nan"),
        (["entropy", "--probs", "0.5,0.5", "--k", "inf"], "scale k must be positive, got inf"),
        (["hartley", "--n", "3", "--s", "2", "--base", "nan"], "log base must exceed 1, got nan"),
    ])
    def test_non_finite_parameters_rejected(self, capsys, argv, message):
        """The number grammar refuses nan and inf as usage errors, ahead of the
        library's own check, which still names the fault for the same value."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(": invalid float value: %r" % argv[-1])
        command = {"entropy": lambda **kw: shannon_entropy([0.5, 0.5], **kw),
                   "hartley": lambda **kw: hartley_information(3, 2, **kw)}[argv[0]]
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            command(**{argv[-2].lstrip("-"): float(argv[-1])})

    def test_demo_shannon(self, capsys):
        code, out, _ = run(
            capsys, "demo", "shannon", "--probs", "0.5,0.5", "--n", "8", "--seed", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["volume"] == 8
        assert doc["hartley"] == pytest.approx(8.0)
        assert doc["entropy_bound"] == pytest.approx(8.0)


LONG = "x" * 5000


class TestUsageErrors:
    """argparse echoes the offending argument; a long one is cut, a short message kept."""

    @pytest.mark.parametrize("argv, head", [
        (["hartley", "--n", LONG, "--s", "2"],
         "oit hartley: error: argument --n: invalid int value: 'xxx"),
        (["hartley", "--n", "9" * 5000, "--s", "2"],
         "oit hartley: error: argument --n: invalid int value: '999"),
        (["gen", "--seed", "0", "--aggregation", LONG, "-o", "-"],
         "oit gen: error: argument --aggregation: invalid float value: 'xxx"),
        (["coverage", "{ex1}", "--target", "{ex1}", "--guard", LONG],
         "oit coverage: error: argument --guard: invalid int value: 'xxx"),
        ([LONG], "oit: error: argument command: invalid choice: 'xxx"),
        (["metrics", "{ex1}", "--coverage-mode", LONG],
         "oit metrics: error: argument --coverage-mode: invalid choice: 'xxx"),
        (["coverage", "{ex1}", "--target", "{ex1}", "--mode", LONG],
         "oit coverage: error: argument --mode: invalid choice: 'xxx"),
        (["metrics", "{ex1}", "--out", LONG], "oit metrics: error: argument --out: invalid choice: 'xxx"),
        (["demo", LONG], "oit demo: error: argument demo: invalid choice: 'xxx"),
        (["validate", "{ex1}", LONG], "oit: error: unrecognized arguments: xxx"),
        (["validate", "{ex1}", *["x"] * 2500], "oit: error: unrecognized arguments: x x x"),
    ], ids=["int", "int-digits", "float", "guard", "command", "coverage-mode", "mode", "out", "demo",
            "unrecognized", "many-unrecognized"])
    def test_a_long_argument_is_cut(self, capsys, ex1_path, argv, head):
        code, out, err = run(capsys, *[arg.format(ex1=ex1_path) for arg in argv])
        assert (code, out) == (2, "")
        last = err.splitlines()[-1]
        assert last.startswith(head) and "..." in last
        assert len(last) < len("oit coverage: error: ") + oit.cli.USAGE_BOUND
        assert all(len(line) < LINE_BOUND for line in err.splitlines())

    @pytest.mark.parametrize("command", ["metrics", "coverage"])
    def test_a_negative_guard_is_a_usage_error(self, capsys, ex1_path, command):
        target = ["--target", ex1_path] if command == "coverage" else []
        code, out, err = run(capsys, command, ex1_path, *target, "--guard", "-1")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == (
            "oit %s: error: argument --guard: must be at least 0, got -1" % command)

    @pytest.mark.parametrize("argv", [
        ["hartley", "--n", "{}", "--s", "2"],
        ["hartley", "--n", "4", "--s", "{}"],
        ["demo", "shannon", "--probs", "1", "--n", "{}", "--seed", "1"],
        ["demo", "shannon", "--probs", "1", "--n", "2", "--seed", "{}"],
        *(["gen", *option, "-o", "-"] for option in (
            ["--seed", "{}"], ["--seed", "0", "--entities", "{}"], ["--seed", "0", "--media", "{}"],
            ["--seed", "0", "--tick-span", "{}"], ["--seed", "0", "--replication", "{}"])),
        ["metrics", "{ex1}", "--guard", "{}"],
        ["coverage", "{ex1}", "--target", "{ex1}", "--guard", "{}"],
    ])
    def test_integers_are_ascii_digits_after_an_optional_sign(self, capsys, ex1_path, argv):
        for value in ("1_0", " 7 ", "\u0661\u0665", "0x1", "+-1", ""):
            code, out, err = run(capsys, *[a.format(value, ex1=ex1_path) for a in argv])
            assert (code, out) == (2, ""), value
            assert err.splitlines()[-1].endswith(": invalid int value: %r" % value)
        assert run(capsys, *[a.format("+3", ex1=ex1_path) for a in argv])[0] != 2

    @pytest.mark.parametrize("argv", [
        ["entropy", "--probs", "0.5,0.5", "--base", "{}"],
        ["entropy", "--probs", "0.5,0.5", "--k", "{}"],
        ["hartley", "--n", "3", "--s", "2", "--base", "{}"],
        ["gen", "--seed", "0", "--aggregation", "{}", "-o", "-"],
    ])
    def test_floats_are_literals_of_the_one_number_grammar(self, capsys, argv):
        """Non-finite values, too, are refused here, before the library's checks."""
        for value in ("nan", "inf", "1_0", " 1 ", "\u0661", "1/0", "1e400", ""):
            code, out, err = run(capsys, *[a.format(value) for a in argv])
            assert (code, out) == (2, ""), value
            assert err.splitlines()[-1].endswith(": invalid float value: %r" % value)
        assert run(capsys, *[a.format("1/2") for a in argv])[0] != 2

    @pytest.mark.parametrize("target", [False, True], ids=["alone", "with-target"])
    def test_suit_weights_are_literals_of_the_one_number_grammar(self, capsys, ex1_path, target):
        """Read before any document, and whether or not a target uses them; a
        negative or unnormalised vector is the library's to refuse."""
        head = ["metrics", ex1_path, *(["--target", ex1_path] if target else []), "--suit-weights"]
        for value in ("1/0", "1_0", " 1 ", "\u0661", "nan", "1e100000000", ""):
            code, out, err = run(capsys, *head, value, "0", "0", "0", "0", "0")
            assert (code, out) == (2, ""), value
            assert err.splitlines()[-1] == (
                "oit metrics: error: argument --suit-weights: invalid number value: %r" % value)
        for value in ("-1", "2"):
            assert run(capsys, *head, value, "0", "0", "0", "0", "0")[0] == (1 if target else 0)

    @pytest.mark.parametrize("head", [["entropy"], ["demo", "shannon", "--n", "2", "--seed", "0"]])
    def test_probs_are_literals_of_the_one_number_grammar(self, capsys, head):
        """Each item is read as a float option is, before the library's checks."""
        for item in ("1/0", "1e400", "nan", "inf", "1_0", " 1 ", "\u0661"):
            for value in (item, "0.5," + item):
                code, out, err = run(capsys, *head, "--probs", value)
                assert (code, out) == (2, ""), value
                assert err.splitlines()[-1].endswith(
                    ": error: argument --probs: invalid float value: %r" % item)
        for value, message in ((",", "distribution is empty"),
                               ("-0.5,1.5", "negative probabilities: [-0.5]")):
            code, out, err = run(capsys, *head, "--probs=" + value)
            assert (code, out, err) == (1, "", "error: %s\n" % message)

    def test_a_short_message_is_kept(self, capsys):
        code, _, err = run(capsys, "hartley", "--n", "x", "--s", "2")
        assert code == 2
        assert err.splitlines()[-1] == "oit hartley: error: argument --n: invalid int value: 'x'"

    @pytest.mark.parametrize("excess", [0, 1])
    def test_the_bound_is_on_the_message(self, capsys, excess):
        bound = oit.cli.USAGE_BOUND
        message = "".join(chr(ord("a") + i % 26) for i in range(bound + excess))
        with pytest.raises(SystemExit):
            oit.cli.build_parser().error(message)
        last = capsys.readouterr().err.splitlines()[-1]
        half = (bound - 3) // 2
        kept = message[:half] + "..." + message[-half:] if excess else message
        assert last == "oit: error: " + kept


class TestArithmeticErrors:
    """A number with no exact or no float reading ends in one diagnostic, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["entropy", "--probs", "0.5,0.5", "--k", "1e308", "--base", "1.0000001"],
        ["metrics", "{ex1}", "--weights", "{weights}"],
    ])
    def test_ends_in_one_diagnostic(self, capsys, tmp_path, ex1_path, argv):
        weights = tmp_path / "huge_weight.json"
        weights.write_text(json.dumps(
            {"version": 1, "weights": {"entities": {"a": "1e400", "b": "1"}}}))
        argv = [arg.format(ex1=ex1_path, weights=weights) for arg in argv]
        code, out, err = run(capsys, *argv)
        assert code in (1, 2)
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ")
        assert len(line) < 80

    @pytest.mark.parametrize("out", ["json", "table"])
    def test_a_metric_with_no_float_reading_names_itself(self, capsys, tmp_path, ex1_path, out):
        weights = tmp_path / "huge_weight.json"
        weights.write_text(json.dumps(
            {"version": 1, "weights": {"entities": {"a": "1e400", "b": "1"}}}))
        code, stdout, err = run(capsys, "metrics", ex1_path, "--weights", str(weights), "--out", out)
        assert (code, stdout, err) == (1, "", "error: scope is too large for a float approximation\n")

    @pytest.mark.parametrize("out", ["json", "table"])
    def test_a_metric_beyond_the_digit_limit_names_itself(self, capsys, tmp_path, ex1_path, out):
        # Each weight can be written, but scope, their sum, has 4301 digits.
        weights = tmp_path / "huge_weights.json"
        weights.write_text(json.dumps(
            {"version": 1, "weights": {"entities": {"a": "9e4299", "b": "9e4299"}}}))
        code, stdout, err = run(capsys, "metrics", ex1_path, "--weights", str(weights), "--out", out)
        assert (code, stdout, err) == (1, "", "error: scope exceeds 4300 digits\n")


    @pytest.mark.parametrize("where, message", [
        ("value", "schema: state_records[0].value: invalid rational literal '1e100000000'"),
        ("weight", "schema: weights.entities.a: invalid weight literal '1e100000000'"),
        ("suit-weights",
         "oit metrics: error: argument --suit-weights: invalid number value: '1e100000000'"),
    ])
    def test_a_huge_exponent_ends_quickly(self, capsys, tmp_path, ex1_path, where, message):
        doc = json.loads(emit_instance(example_instance()))
        path = tmp_path / "huge.json"
        if where == "value":
            doc["state_records"][0]["value"] = {"rational": "1e100000000"}
            argv = ["validate", str(path)]
        elif where == "weight":
            doc = {"version": 1, "weights": {"entities": {"a": "1e100000000", "b": "1"}}}
            argv = ["metrics", ex1_path, "--weights", str(path)]
        else:
            argv = ["metrics", ex1_path, "--target", ex1_path,
                    "--suit-weights", "1e100000000", "0", "0", "0", "0", "0"]
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        # A usage error's message follows the usage; a diagnostic comes first.
        expected, line = (2, -1) if where == "suit-weights" else (1, 0)
        assert (code, out, err.splitlines()[line]) == (expected, "", message)


class TestLibraryErrors:
    """Errors the library raises reach stderr short, and the same under any hash seed."""

    @staticmethod
    def _ex1_with(tmp_path, entity="a", reflection="r1") -> str:
        doc = json.loads(emit_instance(example_instance()))
        doc["entities"] = [entity if t == "a" else t for t in doc["entities"]]
        for rec in doc["state_records"]:
            rec["entities"] = [entity if t == "a" else t for t in rec["entities"]]
        doc["reflection_records"][0]["id"] = reflection
        for link in doc["links"]:
            link["to"] = reflection if link["to"] == "r1" else link["to"]
        path = tmp_path / ("ex1_%d_%d.json" % (len(entity), len(reflection)))
        path.write_text(json.dumps(doc))
        return str(path)

    @staticmethod
    def _side_documents(tmp_path):
        decoder = tmp_path / "empty_table.json"
        decoder.write_text(json.dumps({"version": 1, "kind": "table", "entries": []}))
        weights = tmp_path / "no_entity_weights.json"
        weights.write_text(json.dumps({"version": 1, "weights": {"entities": {}}}))
        return str(decoder), str(weights)

    @pytest.mark.parametrize("case, prefix", [
        ("uncovered", "error: uncovered element 'aaaa"),
        ("partial", "error: partial decoder: no entry for reflection record aaaa"),
        ("suit-weights", "error: weight vector not normalized: (1" + "0" * 36 + "..."),
        ("probs", "error: negative probabilities: [-1.0, -1.0"),
    ])
    def test_messages_stay_short(self, capsys, tmp_path, case, prefix):
        decoder, weights = self._side_documents(tmp_path)
        long_entity = self._ex1_with(tmp_path, entity="a" * 5000)
        argv = {
            "uncovered": ["metrics", long_entity, "--weights", weights],
            "partial": ["metrics", self._ex1_with(tmp_path, reflection="a" * 5000),
                        "--decoder", decoder],
            "suit-weights": ["metrics", long_entity, "--target", long_entity,
                             "--suit-weights", "1" + "0" * 3000, "0", "0", "0", "0", "0"],
            "probs": ["entropy", "--probs=" + ",".join(["-1"] * 3000)],
        }[case]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        [line] = err.splitlines()
        assert line.startswith(prefix)
        assert len(line) < 200

    def test_running_out_of_memory_ends_in_one_diagnostic(self, capsys, monkeypatch, ex1_path):
        def exhausted(text):
            raise MemoryError

        monkeypatch.setattr(oit.cli, "parse_document", exhausted)
        assert run(capsys, "validate", ex1_path) == (1, "", "error: out of memory\n")

    @pytest.mark.parametrize("option, expected", [
        ("--decoder", "error: partial decoder: no entry for reflection record r1\n"),
        ("--weights", "error: uncovered element 'a' in entities measure\n"),
    ])
    def test_the_smallest_item_is_named_under_any_hash_seed(self, tmp_path, ex1_path,
                                                            option, expected):
        decoder, weights = self._side_documents(tmp_path)
        argv = [sys.executable, "-m", "oit", "metrics", ex1_path,
                option, decoder if option == "--decoder" else weights]
        for seed in ("0", "1", "2", "3"):
            result = subprocess.run(argv, capture_output=True, text=True, timeout=60,
                                    env=dict(_subprocess_env(), PYTHONHASHSEED=seed))
            assert (result.returncode, result.stdout, result.stderr) == (1, "", expected), seed


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["oit", "oit.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        missing = str(tmp_path / "missing.json")
        result = subprocess.run([sys.executable, "-m", module, "validate", missing],
                                capture_output=True, text=True, timeout=60, env=_subprocess_env())
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.splitlines()[-1] == (
            "error: [Errno 2] No such file or directory: %r" % missing)

    # Run the CLI, then print which of these modules the process had loaded at exit.
    LOADED_AT_EXIT = ("import atexit, sys; atexit.register(lambda: print(sorted("
                      "set(sys.modules) & {'dataclasses', 'inspect', 'hashlib', '_hashlib'})));"
                      "from oit.cli import main; main()")

    @pytest.mark.parametrize("argv", [
        ["validate", "fixtures/ex1.json"],
        ["metrics", "fixtures/ex1.json", "--target", "fixtures/ex1_s1r1.json",
         "--decoder", "fixtures/decoder_const_s1.json"],
        ["atoms", "fixtures/ex1.json"],
        ["coverage", "fixtures/ex1.json", "--target", "fixtures/ex1_s1r1.json"],
        ["demo", "shannon", "--probs", "0.5,0.5", "--n", "8", "--seed", "7"],
    ], ids=["validate", "metrics", "atoms", "coverage", "demo"])
    def test_cli_loads_no_class_machinery_and_no_openssl(self, argv):
        """Digests come from CPython's built-in SHA-256, so no command loads
        ``hashlib`` and, through it, OpenSSL."""
        result = subprocess.run([sys.executable, "-c", self.LOADED_AT_EXIT, *argv],
                                cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
                                env=_subprocess_env())
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.splitlines()[-1] == "[]"


class TestCollectorPolicy:
    """Only the CLI process turns the cyclic collector off; ``run_cli`` and the
    library leave the collector's global state alone."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_cli_leaves_the_collector_as_it_found_it(self, capsys, ex1_path, enabled):
        was_enabled, threshold = gc.isenabled(), gc.get_threshold()
        (gc.enable if enabled else gc.disable)()
        try:
            for argv, code in ((["validate", ex1_path], 0),
                               (["metrics", ex1_path, "--target", ex1_path], 0),
                               (["validate", "no-such-file.json"], 1)):
                assert run(capsys, *argv)[0] == code
                assert (gc.isenabled(), gc.get_threshold()) == (enabled, threshold)
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_main_runs_without_the_collector(self, ex1_path):
        code = ("import atexit, gc; atexit.register(lambda: print(gc.isenabled()));"
                "from oit.cli import main; main()")
        result = subprocess.run([sys.executable, "-c", code, "validate", ex1_path],
                                capture_output=True, text=True, timeout=60, env=_subprocess_env())
        assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")


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


# What a mutation puts in place of a document node: JSON atoms, empty and wrong
# containers, lone surrogates, text and keys longer than any line may be, and
# record values with no exact reading.
_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**80), 10**80),
    st.floats(),
    st.text(max_size=4),
    st.text(st.characters(categories=["Cs"]), min_size=1, max_size=2),
    st.sampled_from(["x" * 5000, ["x" * 5000], {"x" * 5000: "1"}]),
    st.sampled_from([
        [], {}, "", [[]], {"rational": "1e99999"}, {"rational": "-.3e-4299"},
        {"rational": "1/0"}, {"rational": "nan"}, {"b64": "!"}, {"b64": 5},
        {"from": "s1", "to": "r1"}, ["a", "a"], "9e99999", 2**63,
    ]),
)
_INPUTS = {role: json.loads((FIXTURES / (name + ".json")).read_text()) for role, name in (
    ("instance", "ex1"), ("target", "ex1_s1r1"), ("decoder", "decoder_const_s1"),
    ("weights", "weights_ex1"))}


def _nodes(doc, path=()):
    """The path of every node of a JSON tree, the root included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(child, (*path, key))


@st.composite
def _mutated_inputs(draw):
    """The input documents with one to three nodes replaced, each drawn from a
    document as it then is."""
    docs = dict(_INPUTS)
    for _ in range(draw(st.integers(1, 3))):
        role = draw(st.sampled_from(sorted(docs)))
        path = draw(st.sampled_from(list(_nodes(docs[role]))))
        docs[role] = _with(docs[role], path, draw(_ATOMS)) if path else draw(_ATOMS)
    return docs


class TestContractUnderMutation:
    """Every command ends in exit 0, 1 or 2 on any input, and explains a failure
    on stderr in bounded lines."""

    COMMANDS = [
        ["validate", "{instance}"],
        ["metrics", "{instance}", "--target", "{target}", "--decoder", "{decoder}",
         "--weights", "{weights}"],
        ["atoms", "{instance}"],
        ["combine", "{instance}", "{target}", "-o", "-"],
        ["combine", "{instance}", "{target}", "--lax", "-o", "-"],
        ["compose", "{instance}", "{target}", "-o", "-"],
        ["coverage", "{instance}", "--target", "{target}", "--brute-force"],
    ]

    @given(_mutated_inputs())
    @settings(max_examples=120, deadline=None)
    def test_mutated_documents_end_in_a_known_exit_code(self, docs):
        with tempfile.TemporaryDirectory() as work:
            paths = {}
            for role, doc in docs.items():
                paths[role] = os.path.join(work, role + ".json")
                with open(paths[role], "w", encoding="ascii") as f:
                    json.dump(doc, f)
            for command in self.COMMANDS:
                argv = [arg.format(**paths) for arg in command]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_cli(argv)
                assert code in (0, 1, 2), argv
                assert code == 0 or err.getvalue(), argv
                assert all(len(line) < LINE_BOUND for line in err.getvalue().splitlines()), argv


# Whole input files of three kinds: any JSON value; a version 1 object with any
# values under the member names the four document kinds declare; raw bytes.
_JSON = st.recursive(_ATOMS, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=8)
_DECLARED = ("entities", "media", "state_records", "reflection_records", "links", "weights",
             "kind", "distance", "entries")
_WHOLE_FILES = st.one_of(
    _JSON.map(json.dumps),
    st.fixed_dictionaries({}, optional=dict.fromkeys(_DECLARED, _JSON)).map(
        lambda members: json.dumps({"version": 1, **members})),
    st.binary(max_size=64),
)


class TestContractOnWholeFiles:
    """Every file argument of every command ends in exit 0, 1 or 2 on any file,
    and explains a failure on stderr in bounded lines."""

    COMMANDS = [
        ["validate", "{file}"],
        ["metrics", "{file}"],
        ["metrics", "{ex1}", "--target", "{file}"],
        ["metrics", "{ex1}", "--decoder", "{file}"],
        ["metrics", "{ex1}", "--weights", "{file}"],
        ["atoms", "{file}"],
        ["coverage", "{file}", "--target", "{ex1}"],
        ["coverage", "{ex1}", "--target", "{file}"],
        ["combine", "{file}", "{ex1}", "-o", "-"],
        ["compose", "{file}", "{ex1}", "-o", "-"],
    ]

    @given(_WHOLE_FILES)
    @settings(max_examples=300, deadline=None)
    def test_any_file_ends_in_a_known_exit_code(self, content):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "file.json")
            with open(path, "wb") as f:
                f.write(content.encode("utf-8", "surrogatepass") if isinstance(content, str)
                        else content)
            for command in self.COMMANDS:
                argv = [arg.format(file=path, ex1=FIXTURES / "ex1.json") for arg in command]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_cli(argv)
                assert code in (0, 1, 2), argv
                assert code == 0 or err.getvalue(), argv
                assert all(len(line) < LINE_BOUND for line in err.getvalue().splitlines()), argv


# Command-line numbers: valid and invalid literals, signs, exponents that no
# float or exact reading holds, non-numbers and arguments of any length.
_NUMBER_TEXT = st.one_of(
    st.integers(-3, 20).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.fractions(max_denominator=99).map(str),
    st.sampled_from(["nan", "-inf", "1e400", "1e-400", "1e100000000", "-0", "0x10", "1_0", "",
                     "9" * 5000, LONG]),
    st.text(max_size=6),
)
_PROBS_TEXT = st.one_of(
    st.sampled_from(["1", "1,0", "0.5,0.5", "1/3,2/3", "0.25,0.25,0.5"]),
    st.lists(_NUMBER_TEXT, min_size=1, max_size=4).map(",".join),
)


class TestContractOnNumbers:
    """Every number option ends in exit 0, 1 or 2, and explains a failure on
    stderr in bounded lines."""

    @given(st.fixed_dictionaries({
        "guard": _NUMBER_TEXT,
        "suit_weights": st.lists(_NUMBER_TEXT, min_size=6, max_size=6),
        "probs": _PROBS_TEXT,
        "base": _NUMBER_TEXT,
        "k": _NUMBER_TEXT,
        "n": _NUMBER_TEXT,
        "s": _NUMBER_TEXT,
        "demo_n": st.one_of(st.integers(-1, 6).map(str), st.sampled_from(["", "x", "1e3", LONG])),
        "seed": _NUMBER_TEXT,
    }))
    @settings(max_examples=60, deadline=None)
    def test_numbers_end_in_a_known_exit_code(self, v):
        ex1, target = str(FIXTURES / "ex1.json"), str(FIXTURES / "ex1_s1r1.json")
        commands = [
            ["metrics", ex1, "--target", target, "--coverage-mode", "union", "--brute-force",
             "--guard", v["guard"], "--suit-weights", *v["suit_weights"]],
            ["coverage", ex1, "--target", target, "--brute-force", "--guard", v["guard"]],
            ["entropy", "--probs", v["probs"], "--base", v["base"], "--k", v["k"]],
            ["hartley", "--n", v["n"], "--s", v["s"], "--base", v["base"]],
            ["demo", "shannon", "--probs", v["probs"], "--n", v["demo_n"], "--seed", v["seed"]],
        ]
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
            assert code in (0, 1, 2), argv
            assert code == 0 or err.getvalue(), argv
            assert all(len(line) < LINE_BOUND for line in err.getvalue().splitlines()), argv
