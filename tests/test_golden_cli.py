"""Golden CLI outputs: the exit code, stdout and stderr of a fixed corpus of calls.

``tests/golden_cli.json`` maps each call, written with fixture paths relative
to the repository root and generated inputs under ``$WORK/``, to its ``exit``
code and the text of its ``stdout`` and ``stderr``, each a list of lines that
keep their line ends, in which the work directory is written as ``$WORK``.
Reports and diagnostics must stay byte-identical, so any difference fails.
The check needs no pytest; run from the repository root::

    PYTHONPATH=src python -m tests.test_golden_cli --check

It names every call that differs, shows a unified diff of the first few, and
exits 1 if any does.  Without ``--check`` the same command pins the corpus
again, against the commit whose outputs are the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import itertools
import json
import re
import sys
import tempfile
from pathlib import Path

from oit import emit_instance, example_instance, identity_relay, model, run_cli, serialize

from .paths import FIXTURES, REPO_ROOT

GOLDEN = Path(__file__).with_name("golden_cli.json")
INSTANCES = ("ex1", "ex1_s1", "ex1_s1r1", "ex1_s1r1_s2r2")
DECODERS = ("decoder_const_s1", "decoder_preimage")
# Generated edits of ex1, each causing one diagnostic code and nothing else.
DIAGNOSED = ("empty_record_tokens", "duplicate_record_id", "duplicate_record_content",
             "unlinked_state", "closure_mismatch")
# The diagnostic codes that no document can cause, so that no call prints them.
LIBRARY_ONLY = {
    model.UNWRITABLE_RECORD: "the reader refuses every record part no document can hold",
    model.MALFORMED_LINK: "the reader reads every link as a pair of strings",
}


def _fixture(name: str) -> str:
    return "fixtures/%s.json" % name


def write_generated(work: Path) -> None:
    """Inputs that no fixture covers, written byte-for-byte the same every time."""
    ex1 = example_instance()
    doc = json.loads(emit_instance(ex1))

    def dump(name, value, newline="\n"):
        text = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        (work / name).write_bytes(text.replace("\n", newline).encode("utf-8"))

    (work / "relay.json").write_text(
        emit_instance(identity_relay(ex1, {"m1": "m4", "m2": "m5", "m3": "m6"})))
    foreign = json.loads(json.dumps(doc))
    foreign["state_records"][0]["value"] = "changed"
    dump("foreign.json", foreign)
    unlinked = json.loads(json.dumps(doc))
    del unlinked["links"][0]
    dump("unlinked.json", unlinked)
    dangling = json.loads(json.dumps(doc))
    dangling["links"].append({"from": "s9", "to": "r9"})
    dump("dangling.json", dangling)
    accented = json.loads(json.dumps(doc))
    for rec in accented["state_records"] + accented["reflection_records"]:
        rec["value"] = rec["value"] + "é"
    dump("crlf_accented.json", accented, newline="\r\n")
    dump("records_not_a_list.json",
         {"version": 1, "state_records": 5, "reflection_records": {"id": "r1"}})
    # json.dumps cannot write an int of more digits than Python writes as text.
    (work / "long_integer.json").write_text('{"version": 1, "links": %s}\n' % ("9" * 4301))
    dump("decoder_l1.json", {"version": 1, "kind": "preimage", "distance": "numeric-l1"})
    dump("decoder_bad_tick.json", {"version": 1, "kind": "table", "entries": [
        {"reflection": {"media": ["m1"], "tick": "4", "value": "v1"},
         "state": {"entities": ["a"], "tick": 1, "value": "v1"}}]})
    dump("weights_grammar.json",
         {"version": 1, "weights": {"entities": {"a": "1_0", "b": "\u0661"}}})
    rational = json.loads(json.dumps(doc))
    rational["state_records"][0]["value"] = {"rational": "1_0/3"}
    dump("rational_grammar.json", rational)
    decoder = json.loads((FIXTURES / "decoder_const_s1.json").read_text())
    clash = json.loads(json.dumps(decoder["entries"][0]))
    clash["state"]["value"] = "other"
    for name, entries in (("decoder_clash_last", decoder["entries"] + [clash]),
                          ("decoder_clash_first", [clash] + decoder["entries"]),
                          ("decoder_repeat", decoder["entries"] + decoder["entries"][:1])):
        dump(name + ".json", dict(decoder, entries=entries))
    dump("decoder_partial.json", dict(decoder, entries=decoder["entries"][:1]))
    integers = json.loads(json.dumps(doc))
    for rec, value in zip(integers["state_records"] + integers["reflection_records"],
                          (1, 2, 3, 1, 23, 1)):
        rec["value"] = value
    dump("integers.json", integers)

    def entry(media, tick, value, entities, state_tick, state_value):
        return {"reflection": {"media": media, "tick": tick, "value": value},
                "state": {"entities": entities, "tick": state_tick, "value": state_value}}

    dump("decoder_l1_table.json", {"version": 1, "kind": "table", "distance": "numeric-l1",
                                   "entries": [entry(["m1"], 4, 1, ["a"], 1, 1),
                                               entry(["m2"], 3, 23, ["a", "b"], 3, 3),
                                               entry(["m3"], 4, 1, ["b"], 2, 3)]})
    dump("weights_uncovered.json", {"version": 1, "weights": {"entities": {"a": "0.5"}}})
    dump("weights_overflow.json", {"version": 1, "weights": {"entities": {"a": "1e400", "b": "1"}}})
    dump("weights_digits.json",
         {"version": 1, "weights": {"entities": {"a": "9e4299", "b": "9e4299"}}})
    # Weights documents outside the one envelope, and an instance with its own weights.
    weights = json.loads((FIXTURES / "weights_ex1.json").read_text())
    for name, value in (("weights_bare", weights["weights"]),
                        ("weights_unversioned", {"weights": weights["weights"]}),
                        ("weights_v99", dict(weights, version=99)),
                        ("weights_missing", {"version": 1}),
                        ("weights_true", dict(weights, version=True)),
                        ("weights_float", dict(weights, version=1.0)),
                        ("weighted", dict(doc, weights=weights["weights"]))):
        dump(name + ".json", value)
    # With fixtures/ex1_s1r1.json, s1 is split between two operands; with ex1, s1's
    # content is also held by s0.
    dump("split.json", dict(doc, entities=["a"], media=["m3"],
                            state_records=doc["state_records"][:1],
                            reflection_records=doc["reflection_records"][2:],
                            links=[{"from": "s1", "to": "r3"}]))
    renamed = json.loads(json.dumps(doc))
    renamed["state_records"][0]["id"] = "s0"
    for link in renamed["links"]:
        if link["from"] == "s1":
            link["from"] = "s0"
    dump("renamed.json", renamed)
    values = json.loads(json.dumps(doc))
    for rec, value in zip(values["state_records"] + values["reflection_records"],
                          ({"b64": "AAE="}, {"rational": "1/3"}, 7, 7, {"b64": "AAE="},
                           {"rational": "-2/4"})):
        rec["value"] = value
    dump("values.json", values)
    edits = {name: json.loads(json.dumps(doc)) for name in DIAGNOSED}
    s1 = doc["state_records"][0]
    edits["empty_record_tokens"]["state_records"][1]["entities"] = []
    edits["duplicate_record_id"]["state_records"].append(dict(s1, tick=5, value="v5"))
    edits["duplicate_record_content"]["state_records"].append(dict(s1, id="s4"))
    edits["duplicate_record_content"]["links"].append({"from": "s4", "to": "r1"})
    edits["unlinked_state"]["links"].remove({"from": "s2", "to": "r2"})
    edits["closure_mismatch"]["entities"].append("c")
    for name, edited in edits.items():
        dump(name + ".json", edited)
    # A repeated or unknown member name in each kind of object a reader takes.
    text = (FIXTURES / "ex1.json").read_text()
    (work / "repeated_tick.json").write_text(
        text.replace('"tick": 1,', '"tick": 1,\n      "tick": 7,', 1))
    colour, weight = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
    colour["state_records"][0]["colour"] = "red"
    weight["links"][0]["weight"] = 1
    dump("unknown_colour.json", colour)
    dump("unknown_weight.json", weight)
    misspelt = dict(doc)
    misspelt["stat_records"] = misspelt.pop("state_records")
    dump("misspelt_member.json", misspelt)
    dump("decoder_distanse.json", {"version": 1, "kind": "preimage", "distanse": "numeric-l1"})
    (work / "weights_repeated.json").write_text(
        '{"version": 1, "weights": {"entities": {"a": 1, "a": 2}}}\n')
    # Every member a document declares is read: a target's weights, and a decoder's
    # entries whatever its kind, before its distance.
    dump("target_bad_weights.json", dict(doc, weights={"entities": {"a": "x"}, "colour": 5}))
    dump("decoder_preimage_entries.json",
         {"version": 1, "kind": "preimage", "entries": [{"reflection": 5}]})
    dump("decoder_l2_entries.json", {"version": 1, "kind": "table", "distance": "l2", "entries": 7})


def corpus() -> list:
    """Every call of the golden corpus, as argv lists."""
    fixtures = sorted(p.stem for p in FIXTURES.glob("*.json"))
    instances = [_fixture(n) for n in INSTANCES]
    generated = ["$WORK/%s.json" % n for n in ("foreign", "unlinked", "dangling", "crlf_accented")]
    decoders = [_fixture(n) for n in DECODERS] + ["$WORK/decoder_l1.json",
                                                  "$WORK/decoder_bad_tick.json"]
    weights = _fixture("weights_ex1")
    calls = []
    for name in fixtures:
        path = _fixture(name)
        calls += [["validate", path], ["metrics", path], ["metrics", path, "--out", "table"],
                  ["atoms", path]]
    for path in generated:
        calls += [["validate", path], ["metrics", path]]
    calls.append(["validate", "$WORK/missing.json"])
    for inst in instances:
        calls.append(["metrics", inst, "--weights", weights])
        for dec in decoders:
            calls.append(["metrics", inst, "--decoder", dec])
        for target in instances + generated:
            for mode in ("replica", "union"):
                calls.append(["metrics", inst, "--target", target, "--coverage-mode", mode])
        for target in instances:
            for mode, brute in itertools.product(("replica", "union"), ((), ("--brute-force",))):
                calls.append(["coverage", inst, "--target", target, "--mode", mode, *brute])
    for target in instances + generated:
        for dec in decoders:
            calls.append(["metrics", _fixture("ex1"), "--target", target, "--decoder", dec,
                          "--weights", weights, "--out", "table"])
    calls += [
        ["metrics", _fixture("ex1"), "--target", _fixture("ex1_s1r1"), "--coverage-mode",
         "union", "--brute-force"],
        ["metrics", _fixture("ex1"), "--target", _fixture("ex1_s1r1"), "--brute-force"],
        ["metrics", _fixture("ex1"), "--target", _fixture("ex1_s1"),
         "--suit-weights", "0", "0", "0", "1", "0", "0"],
        ["coverage", _fixture("ex1"), "--target", "$WORK/foreign.json"],
        ["coverage", _fixture("ex1"), "--target", _fixture("ex1_s1r1"), "--brute-force",
         "--guard", "-1"],
        ["metrics", _fixture("ex1"), "--target", _fixture("ex1_s1r1"), "--brute-force",
         "--guard", "-1"],
        ["validate", "$WORK/records_not_a_list.json"],
        ["metrics", _fixture("ex1"), "--target", "$WORK/records_not_a_list.json"],
    ]
    for option in ("--target", "--decoder", "--weights"):
        calls.append(["metrics", _fixture("ex1"), option, "$WORK/long_integer.json"])
    calls.append(["validate", "$WORK/long_integer.json"])
    for name in ("decoder_clash_last", "decoder_clash_first", "decoder_repeat"):
        calls.append(["metrics", _fixture("ex1"), "--decoder", "$WORK/%s.json" % name])
    for first, second in itertools.product(instances + ["$WORK/relay.json"], repeat=2):
        calls += [["combine", first, second, "-o", "-"],
                  ["combine", first, second, "--lax", "-o", "-"],
                  ["compose", first, second, "-o", "-"]]
    calls += [["gen", "--seed", str(seed), "-o", "-"] for seed in range(10)]
    calls += [
        ["entropy", "--probs", "0.5,0.25,0.25"],
        ["entropy", "--probs", "1"],
        ["hartley", "--n", "4", "--s", "10"],
        ["hartley", "--n", "1" + "0" * 400, "--s", "2"],
        ["demo", "shannon", "--probs", "0.5,0.5", "--n", "8", "--seed", "7"],
        ["demo", "shannon", "--probs", "1,0", "--n", "2", "--seed", "1"],
        # A sum within the tolerance of 1, whose entropy bound exceeds the volume.
        ["demo", "shannon", "--probs", ",".join(["0.2500000002"] * 4), "--n", "4", "--seed", "0"],
        ["entropy", "--probs", "0.5,0.5", "--k", "1e308", "--base", "1.0000001"],
    ]
    # Integers that int() reads but the CLI does not: an underscore, padding, non-ASCII digits.
    calls += [
        ["hartley", "--n", "1_0", "--s", "2"],
        ["hartley", "--n", " 7 ", "--s", "2"],
        ["hartley", "--n", "\u0661\u0665", "--s", "2"],
        ["demo", "shannon", "--probs", "0.5,0.5", "--n", "8", "--seed", "1_0"],
        ["gen", "--seed", "0", "--entities", " 7 ", "-o", "-"],
        ["coverage", _fixture("ex1"), "--target", _fixture("ex1_s1r1"), "--guard",
         "\u0661\u0665"],
    ]
    # Numbers that Fraction reads on some interpreters but the one number grammar
    # does not: an underscore, padding, non-ASCII digits.
    suit = ["metrics", _fixture("ex1"), "--target", _fixture("ex1_s1"), "--suit-weights"]
    calls += [
        ["metrics", _fixture("ex1"), "--weights", "$WORK/weights_grammar.json"],
        ["validate", "$WORK/rational_grammar.json"],
        ["entropy", "--probs", "0.5,0.2_5,0.25"],
        ["entropy", "--probs", "0.5, 0.5"],
        ["entropy", "--probs", "\u0661"],
        suit + ["0", "0", "0", "1_0", "0", "0"],
        suit + ["0", "0", "0", "\u0661", "0", "0"],
    ]
    # Floats that float() reads but the one number grammar does not, and one that
    # the grammar reads but no float holds.
    for head in (["entropy", "--probs", "0.5,0.5", "--base"],
                 ["entropy", "--probs", "0.5,0.5", "--k"],
                 ["hartley", "--n", "4", "--s", "10", "--base"],
                 ["gen", "--seed", "0", "-o", "-", "--aggregation"]):
        calls += [head + [text] for text in ("1_0", "\u0661", " 1 ", "nan", "1e400")]
    # Paths that no call above reaches: the input errors of the classic commands and
    # gen, table decoders that fail or score numbers, weights that a metric cannot
    # use, the guard's bounds, strict combine's refusals and renames, and values
    # that are not text.
    ex1 = _fixture("ex1")
    calls += [
        ["entropy", "--probs", "0.5,0.6"],
        ["entropy", "--probs=-0.5,1.5"],
        # argparse takes a separate value that starts with "-" and is no plain
        # negative number for an option: a usage error.
        ["entropy", "--probs", "-0.5,1.5"],
        ["entropy", "--probs", ","],
        ["entropy", "--probs", "0.5,0.5", "--base", "1"],
        ["entropy", "--probs", "0.5,0.5", "--k", "0"],
        ["hartley", "--n", "0", "--s", "2"],
        ["hartley", "--n", "2", "--s", "1"],
        ["demo", "shannon", "--probs", "1", "--n", "2", "--seed", "0"],
        ["demo", "shannon", "--probs", "0.5,0.5", "--n", "0", "--seed", "0"],
        ["gen", "--seed", "0", "--entities", "0", "-o", "-"],
        ["gen", "--seed", "0", "--replication", "0", "-o", "-"],
        ["gen", "--seed", "0", "--aggregation", "2", "-o", "-"],
        ["metrics", ex1, "--decoder", "$WORK/decoder_partial.json"],
        ["metrics", "$WORK/integers.json", "--decoder", "$WORK/decoder_l1_table.json"],
        suit + ["0", "0", "0", "0", "0", "0"],
        suit + ["-1", "1", "1", "0", "0", "0"],
        suit + ["-1/6", "1", "1", "0", "0", "0"],
        ["metrics", ex1, "--weights", "$WORK/weights_uncovered.json"],
        ["metrics", ex1, "--weights", "$WORK/weights_overflow.json"],
        ["metrics", ex1, "--weights", "$WORK/weights_digits.json"],
        ["coverage", ex1, "--target", ex1, "--brute-force", "--guard", "2", "--mode", "union"],
        ["coverage", ex1, "--target", ex1, "--brute-force", "--guard", "0", "--mode", "replica"],
        ["combine", _fixture("ex1_s1r1"), "$WORK/split.json", "-o", "-"],
        ["combine", ex1, "$WORK/foreign.json", "-o", "-"],
        ["combine", ex1, "$WORK/renamed.json", "-o", "-"],
        ["combine", "$WORK/values.json", "$WORK/values.json", "-o", "-"],
        ["atoms", "$WORK/values.json"],
        ["gen", "--seed", "0", "-o", "$WORK/gen0.json"],
        ["validate", "$WORK/gen0.json"],
    ]
    # A weights file is {"version": 1, "weights": {...}}, and nothing else.
    for name in ("weights_bare", "weights_unversioned", "weights_v99", "weights_missing",
                 "weights_true", "weights_float", "weighted"):
        calls.append(["metrics", ex1, "--weights", "$WORK/%s.json" % name])
    calls.append(["metrics", ex1, "--weights", ex1])
    for name in DIAGNOSED:
        calls += [["validate", "$WORK/%s.json" % name], ["metrics", "$WORK/%s.json" % name]]
    # A demand with no component but its links names them as an instance's diagnostics do.
    calls.append(["metrics", ex1, "--target", _fixture("weights_ex1")])
    # Each document declares its members once: a repeated or unknown name is refused.
    for name in ("repeated_tick", "unknown_colour", "unknown_weight", "misspelt_member"):
        calls += [["validate", "$WORK/%s.json" % name], ["metrics", "$WORK/%s.json" % name]]
    calls += [["metrics", ex1, "--target", "$WORK/repeated_tick.json"],
              ["metrics", ex1, "--decoder", "$WORK/decoder_distanse.json"],
              ["metrics", ex1, "--weights", "$WORK/weights_repeated.json"]]
    # Suitability weights are read as the one number grammar, with or without a target.
    calls += [["metrics", ex1, "--suit-weights", w, "0", "0", "0", "0", "0"]
              for w in ("1/0", "1_0")]
    calls += [["metrics", ex1, "--target", "$WORK/target_bad_weights.json"],
              ["metrics", ex1, "--decoder", "$WORK/decoder_preimage_entries.json"],
              ["metrics", ex1, "--decoder", "$WORK/decoder_l2_entries.json"]]
    # Probabilities are read as float options are: one with no float reading is a usage error.
    calls += [["entropy", "--probs", p] for p in ("1/0", "1e400")]
    return calls


def run_corpus(work: Path) -> dict:
    """Run every corpus call in-process; map each call to its exit code and the
    lines of its stdout and stderr."""
    write_generated(work)
    results = {}
    for argv in corpus():
        real = [str(REPO_ROOT / a) if a.startswith("fixtures/")
                else a.replace("$WORK", str(work)) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(real)
        results[" ".join(argv)] = {
            "exit": code,
            "stdout": out.getvalue().splitlines(keepends=True),
            "stderr": err.getvalue().replace(str(work), "$WORK").splitlines(keepends=True),
        }
    return results


def differences(results: dict, golden: dict) -> list:
    """The calls, in order, whose results differ from the pinned ones or that only
    one of the two holds.  Lines keep their ends, so equal lines are equal bytes."""
    return sorted(call for call in results.keys() | golden.keys()
                  if results.get(call) != golden.get(call))


# How much of the differences a report shows: a diff for the first calls, each cut short.
DIFFED_CALLS = 10
DIFF_LINES = 30


def report(changed: list, results: dict, golden: dict) -> str:
    """Every differing call by name, and a unified diff, pinned against new, of
    the first ``DIFFED_CALLS`` of them, at most ``DIFF_LINES`` lines each."""
    lines = []
    for i, call in enumerate(changed):
        lines.append("differs: %s" % call)
        got, pinned = results.get(call), golden.get(call)
        if i >= DIFFED_CALLS:
            continue
        if got is None or pinned is None:
            lines.append("  pinned only" if got is None else "  not pinned")
            continue
        diff = [] if got["exit"] == pinned["exit"] else [
            "  exit %d, pinned %d" % (got["exit"], pinned["exit"])]
        for stream in ("stdout", "stderr"):
            diff += ("  " + line.rstrip("\n") for line in difflib.unified_diff(
                pinned[stream], got[stream], "pinned " + stream, "new " + stream))
        lines += diff[:DIFF_LINES]
        if len(diff) > DIFF_LINES:
            lines.append("  ... %d more lines" % (len(diff) - DIFF_LINES))
    return "".join(line + "\n" for line in lines)


def test_cli_outputs_match_the_golden_corpus(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    results = run_corpus(tmp_path)
    changed = differences(results, golden)
    assert not changed, report(changed, results, golden)


def test_every_diagnostic_code_is_pinned_or_library_only():
    """Each code constant of ``oit.model`` and ``oit.serialize`` starts a line of
    some pinned stderr, unless no document can cause it."""
    codes = set()
    for module in (model, serialize):
        text = Path(module.__file__).read_text(encoding="utf-8")
        codes.update(re.findall(r'^[A-Z][A-Z_]* = "([a-z-]+)"$', text, re.M))
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    printed = {line.split(": ", 1)[0] for entry in golden.values() for line in entry["stderr"]}
    assert codes - printed == LIBRARY_ONLY.keys()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.test_golden_cli")
    parser.add_argument("--check", action="store_true",
                        help="compare with the pinned corpus instead of pinning it again")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        results = run_corpus(Path(work))
    if args.check:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        changed = differences(results, golden)
        sys.stdout.write(report(changed, results, golden))
        sys.stdout.write("%d of %d calls differ\n" % (len(changed), len(results)))
        return 1 if changed else 0
    GOLDEN.write_text(json.dumps(results, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    sys.stdout.write("pinned %d calls in %s\n" % (len(results), GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
