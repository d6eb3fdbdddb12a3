"""Seeded inputs, operations and reference checks of the three workloads.

Inputs are made with the library's own generator from the workload seed;
the expected outputs come from ``oracle``, which does not import ``oit``.
An operation is one or more CLI steps (argv, expected exit code, output
check) for the CLI workloads, or one derivation round for ``algebra_write``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

INGEST_PROFILE = dict(entities=2000, media=250, tick_span=64, replication=3, aggregation=0.25)
ALGEBRA_PROFILE = dict(INGEST_PROFILE, entities=500)
# Small enough that a CLI call is dominated by start-up, large enough (~1k
# links) that the parse still shows.
SMALL_PROFILE = dict(entities=250, media=64, tick_span=32, replication=3, aggregation=0.25)
# Many media per record keeps every medium far under the brute-force guard.
REPLICA_PROFILE = dict(entities=60, media=120, tick_span=16, replication=2, aggregation=0.25)
GEN_ARGS = ["--entities", "40", "--media", "8"]

# Brute-force union targets: k relevant links as states of out-degree 2
# (plus one of degree 3 for odd k), so the 2^k - 1 subsets and the
# product-of-(2^d - 1) synonymy members are the same for every seed.
BRUTE_LINKS = (12, 13, 14)

ALGEBRA_LOW_TICK = 40
ALGEBRA_HIGH_TICK = 25
ALGEBRA_PICKED_LINKS = 256

PREIMAGE_DECODER = b'{"kind": "preimage", "version": 1}\n'
# The worked example's counting vector, pinned by hand in the acceptance
# tests: scope, granularity, sustainability, richness, volume, delay.
EX1_VECTOR = {"scope": 2, "granularity": 2, "sustainability": 3, "richness": 3, "volume": 3,
              "delay": 3}
TRACEBACK = "Traceback (most recent call last)"


def relay_map(carrier) -> dict:
    return {m: "relay-" + m for m in carrier}


def _emit(oit, info) -> bytes:
    return oit.emit_instance(info).encode()


def brute_target(oit, info, k: int):
    """The sub-instance of the first states (by id) of out-degree 2, plus one
    of degree 3 when ``k`` is odd, that together hold ``k`` links."""
    pattern = (2,) * (k // 2) if k % 2 == 0 else (2,) * (k // 2 - 1) + (3,)
    degree: dict = {}
    for a, _ in info.links:
        degree[a] = degree.get(a, 0) + 1
    chosen = set()
    for want in pattern:
        chosen.add(next(s for s in sorted(degree) if degree[s] == want and s not in chosen))
    return oit.restrict(info, lambda s, r: s.id in chosen)


def replica_case(oit, seed: int) -> tuple:
    """An instance for brute-force replica coverage, and its target."""
    info = oit.generate_synthetic(seed + 1, oit.Profile(**REPLICA_PROFILE))
    return info, oit.restrict(info, lambda s, r: s.tick <= 3)


def make_inputs(oit, workload: str, seed: int, fixtures: Path) -> dict:
    """Every input file of one workload, by file name; a pure function of the seed."""
    if workload == "cli_ingest":
        info = oit.generate_synthetic(seed, oit.Profile(**INGEST_PROFILE))
        target = oit.restrict(info, lambda s, r: s.tick <= 8)
        return {
            "doc.json": _emit(oit, info),
            "target.json": _emit(oit, target),
            "decoder.json": PREIMAGE_DECODER,
        }
    if workload == "algebra_write":
        info = oit.generate_synthetic(seed, oit.Profile(**ALGEBRA_PROFILE))
        return {"doc.json": _emit(oit, info)}
    if workload != "cli_small":
        raise ValueError("unknown workload %r" % workload)

    a = oit.generate_synthetic(seed, oit.Profile(**SMALL_PROFILE))
    c, c_target = replica_case(oit, seed)
    low = oit.restrict(a, lambda s, r: s.tick <= 20)
    high = oit.restrict(a, lambda s, r: s.tick >= 12)
    files = {
        "a.json": _emit(oit, a),
        "a_target.json": _emit(oit, oit.restrict(a, lambda s, r: s.tick <= 4)),
        "a_low.json": _emit(oit, low),
        "a_high.json": _emit(oit, high),
        "a_relay.json": _emit(oit, oit.identity_relay(low, relay_map(low.carrier))),
        "c.json": _emit(oit, c),
        "c_target.json": _emit(oit, c_target),
    }
    for k in BRUTE_LINKS:
        files["a_k%d.json" % k] = _emit(oit, brute_target(oit, a, k))

    ex1 = json.loads((fixtures / "ex1.json").read_text())
    dangling = dict(ex1, links=ex1["links"] + [{"from": "s9", "to": "r1"}])
    closure = dict(ex1, entities=ex1["entities"] + ["zeta"])
    bad_decoder = {
        "version": 1,
        "kind": "table",
        "entries": [{"reflection": "m1", "state": {"entities": ["a"], "tick": 1, "value": "v1"}}],
    }
    files.update({
        "malformed.json": b'{"version": 1, "entities": [\n',
        "dangling.json": oracle.canonical_text(dangling).encode(),
        "closure.json": oracle.canonical_text(closure).encode(),
        "bad_decoder.json": oracle.canonical_text(bad_decoder).encode(),
        "deep.json": b"[" * 100_000 + b"]" * 100_000,
    })
    return files


@dataclass
class Step:
    """One CLI call: its arguments, the exit code it must end with, its output check."""

    args: list
    code: int = 0
    check: Callable | None = None


@dataclass
class Op:
    name: str
    steps: list


def judge(step: Step, code: int, out: bytes, err: str) -> str | None:
    """None when the call behaved; otherwise why it failed."""
    if TRACEBACK in err:
        return "traceback: " + err.strip().splitlines()[-1]
    if code != step.code:
        return "exit code %d, expected %d (%s)" % (code, step.code, err.strip()[:200])
    if step.check is None:
        return None
    try:
        return step.check(out, err)
    except Exception as exc:  # a garbled output is a failed operation, not a crash
        return "output check raised %r" % (exc,)


def _silent(out, err):
    return None if not out else "unexpected output on stdout"


def _exact(value) -> tuple:
    return (str(value), float(value))


def _report_check(want: dict, instance: str):
    want = {k: _exact(v) for k, v in want.items()}

    def check(out, err):
        doc = json.loads(out)
        got = {m["name"]: (m["value"], m["approx"]) for m in doc["metrics"]}
        if got != want:
            return "metrics %s, reference %s" % (got, want)
        if doc["instance"] != instance:
            return "instance digest %s, input file %s" % (doc["instance"], instance)
        return None

    return check


def _table_check(want: dict):
    want = {k: _exact(v) for k, v in want.items()}

    def check(out, err):
        got = {}
        for line in out.decode().splitlines():
            name, value, approx = line.split()
            got[name] = (value, float(approx))
        return None if got == want else "table %s, reference %s" % (got, want)

    return check


def _atoms_check(doc: oracle.Doc, instance: str):
    want = {"version": 1, "instance": instance,
            "atoms": [{"from": a, "to": b} for a, b in doc.links]}

    def check(out, err):
        return None if json.loads(out) == want else "atom list differs from the reference"

    return check


def _coverage_check(doc, target, mode, brute, instance, target_digest):
    value = oracle.coverage(doc, target, mode)
    want = {"version": 1, "instance": instance, "target": target_digest, "mode": mode,
            "brute_force": brute, "value": str(value), "approx": float(value)}

    def check(out, err):
        got = json.loads(out)
        return None if got == want else "coverage %s, reference %s" % (got, want)

    return check


def _bytes_check(want: bytes, what: str):
    def check(out, err):
        return None if out == want else "%s differs from the reference bytes" % what

    return check


def _stderr_check(fragment: str):
    def check(out, err):
        return None if fragment in err else "stderr lacks %r" % fragment

    return check


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _float_check(want: float):
    def check(out, err):
        got = float(out)
        return None if _close(got, want) else "%r != %r" % (got, want)

    return check


def _repeat_check():
    first = []

    def check(out, err):
        oracle.Doc.load(out)
        if not first:
            first.append(out)
        return None if out == first[0] else "gen output differs between repeats"

    return check


def _demo_check(want: dict):
    def check(out, err):
        got = json.loads(out)
        for key in ("hartley", "entropy_bound"):
            if not _close(got.pop(key), want[key]):
                return "demo %s differs from the reference" % key
        exact = {k: v for k, v in want.items() if k not in ("hartley", "entropy_bound")}
        return None if got == dict(exact, version=1) else "demo %s, reference %s" % (got, exact)

    return check


def _load(path: Path) -> oracle.Doc:
    return oracle.Doc.load(path.read_bytes())


def ingest_ops(work: Path) -> list:
    """The single cli_ingest operation: validate, then the full metric report."""
    doc, target = _load(work / "doc.json"), _load(work / "target.json")
    decoder = json.loads((work / "decoder.json").read_bytes())
    want = oracle.metric_values(doc, target=target, decoder=decoder)
    if want["validity"] != 0:
        raise AssertionError("the preimage decoder must be exact")
    instance = oracle.digest((work / "doc.json").read_bytes())
    return [Op("validate_then_metrics", [
        Step(["validate", str(work / "doc.json")], 0, _silent),
        Step(["metrics", str(work / "doc.json"), "--target", str(work / "target.json"),
              "--decoder", str(work / "decoder.json")], 0, _report_check(want, instance)),
    ])]


def small_ops(work: Path, fixtures: Path, seed: int):
    """The cli_small cycle and the inputs known to crash today, as two op lists."""

    def w(name):
        return str(work / name)

    def f(name):
        return str(fixtures / name)

    def digest_of(path):
        return oracle.digest(Path(path).read_bytes())

    ex1, a, c = _load(fixtures / "ex1.json"), _load(work / "a.json"), _load(work / "c.json")
    ex1_s1, a_target = _load(fixtures / "ex1_s1.json"), _load(work / "a_target.json")
    weights = json.loads((fixtures / "weights_ex1.json").read_bytes())["weights"]
    const_decoder = json.loads((fixtures / "decoder_const_s1.json").read_bytes())
    preimage = json.loads((fixtures / "decoder_preimage.json").read_bytes())
    ex1_digest, a_digest = digest_of(f("ex1.json")), digest_of(w("a.json"))

    def coverage_op(name, doc, doc_path, target_file, mode, brute):
        args = ["coverage", doc_path, "--target", target_file, "--mode", mode]
        check = _coverage_check(doc, _load(Path(target_file)), mode, brute,
                                digest_of(doc_path), digest_of(target_file))
        return Op(name, [Step(args + (["--brute-force"] if brute else []), 0, check)])

    if oracle.metric_values(ex1) != EX1_VECTOR:
        raise AssertionError("the reference no longer gives the pinned vector on ex1.json")
    probs = [0.5, 0.25, 0.25]
    composed = oracle.compose(_load(work / "a_low.json"), _load(work / "a_relay.json"))
    ops = [
        Op("validate_ex1", [Step(["validate", f("ex1.json")], 0, _silent)]),
        Op("validate_small", [Step(["validate", w("a.json")], 0, _silent)]),
        Op("metrics_ex1_table", [Step(["metrics", f("ex1.json"), "--out", "table"], 0,
                                      _table_check(EX1_VECTOR))]),
        Op("metrics_ex1_weights", [Step(
            ["metrics", f("ex1.json"), "--weights", f("weights_ex1.json")], 0,
            _report_check(oracle.metric_values(ex1, weights=weights), ex1_digest))]),
        Op("metrics_ex1_table_decoder", [Step(
            ["metrics", f("ex1.json"), "--target", f("ex1_s1.json"),
             "--decoder", f("decoder_const_s1.json")], 0,
            _report_check(oracle.metric_values(ex1, target=ex1_s1, decoder=const_decoder),
                          ex1_digest))]),
        Op("metrics_small_target", [Step(
            ["metrics", w("a.json"), "--target", w("a_target.json"),
             "--decoder", f("decoder_preimage.json")], 0,
            _report_check(oracle.metric_values(a, target=a_target, decoder=preimage),
                          a_digest))]),
        Op("atoms_ex1", [Step(["atoms", f("ex1.json")], 0, _atoms_check(ex1, ex1_digest))]),
        Op("atoms_small", [Step(["atoms", w("a.json")], 0, _atoms_check(a, a_digest))]),
        coverage_op("coverage_replica", a, w("a.json"), w("a_target.json"), "replica", False),
        coverage_op("coverage_union", a, w("a.json"), w("a_target.json"), "union", False),
        coverage_op("coverage_replica_brute", c, w("c.json"), w("c_target.json"),
                    "replica", True),
    ] + [
        coverage_op("coverage_union_brute_k%d" % k, a, w("a.json"), w("a_k%d.json" % k),
                    "union", True)
        for k in BRUTE_LINKS
    ] + [
        Op("combine_strict", [Step(["combine", w("a_low.json"), w("a_high.json"), "-o", "-"],
                                   0, _bytes_check((work / "a.json").read_bytes(), "combine"))]),
        Op("combine_lax", [Step(["combine", w("a_low.json"), w("a_high.json"), "--lax",
                                 "-o", "-"], 0,
                                _bytes_check((work / "a.json").read_bytes(), "combine --lax"))]),
        Op("compose_relay", [Step(["compose", w("a_low.json"), w("a_relay.json"), "-o", "-"], 0,
                                  _bytes_check(oracle.canonical_text(composed).encode(),
                                               "compose"))]),
        Op("gen", [Step(["gen", "--seed", str(seed)] + GEN_ARGS + ["-o", "-"], 0,
                        _repeat_check())]),
        Op("entropy", [Step(["entropy", "--probs", "0.5,0.25,0.125,0.125"], 0,
                            _float_check(oracle.entropy([0.5, 0.25, 0.125, 0.125])))]),
        Op("hartley", [Step(["hartley", "--n", "10", "--s", "3"], 0,
                            _float_check(oracle.hartley(10, 3)))]),
        Op("demo_shannon", [Step(["demo", "shannon", "--probs", "1/2,1/4,1/4", "--n", "64",
                                  "--seed", str(seed)], 0,
                                 _demo_check(oracle.coding_demo(probs, 64, seed)))]),
        Op("invalid_malformed_json", [Step(["validate", w("malformed.json")], 1,
                                           _stderr_check("malformed JSON"))]),
        Op("invalid_dangling_link", [Step(["validate", w("dangling.json")], 1,
                                          _stderr_check("dangling link source"))]),
        Op("invalid_closure_mismatch", [Step(["validate", w("closure.json")], 1,
                                             _stderr_check("canonical closure"))]),
        Op("invalid_unknown_flag", [Step(["validate", f("ex1.json"), "--frobnicate"], 2)]),
    ]
    known_crashes = [
        Op("decoder_entry_not_object", [Step(["metrics", f("ex1.json"), "--decoder",
                                              w("bad_decoder.json")], 1)]),
        Op("deeply_nested_json", [Step(["validate", w("deep.json")], 1)]),
    ]
    return ops, known_crashes


def algebra_expectations(doc_bytes: bytes, seed: int) -> tuple:
    """Reference texts of one derivation round and the links it picks."""
    doc = oracle.Doc.load(doc_bytes)
    picked = sorted(random.Random(seed).sample(doc.links, ALGEBRA_PICKED_LINKS))
    low = oracle.restrict_by_tick(doc, lambda t: t <= ALGEBRA_LOW_TICK)
    high = oracle.restrict_by_tick(doc, lambda t: t >= ALGEBRA_HIGH_TICK)
    low_doc = oracle.Doc(low)
    relay = oracle.Doc(oracle.identity_relay(low_doc, relay_map(low_doc.carrier)))
    source = doc_bytes.decode()
    texts = {
        "restrict_low": oracle.canonical_text(low),
        "restrict_high": oracle.canonical_text(high),
        "combine_strict": source,
        "combine_lax": source,
        "compose": oracle.canonical_text(oracle.compose(low_doc, relay)),
        "restrict_links": oracle.canonical_text(oracle.induced(doc, picked)),
        "digest": oracle.digest(doc_bytes),
    }
    return texts, picked


def algebra_round(oit, info, picked) -> dict:
    """One derivation round; every call goes through the module attribute,
    so a traced replay sees it."""
    model, serialize, generate = oit.model, oit.serialize, oit.generate
    low = model.restrict(info, lambda s, r: s.tick <= ALGEBRA_LOW_TICK)
    high = model.restrict(info, lambda s, r: s.tick >= ALGEBRA_HIGH_TICK)
    strict = model.combine(low, high, "strict")
    lax = model.combine(low, high, "lax")
    relay = generate.identity_relay(low, relay_map(low.carrier))
    composed = model.compose(low, relay)
    sub = model.restrict_links(info, picked)
    atom_links = [atom.link for atom in model.atoms(sub)]
    out = {name: serialize.emit_instance(x) for name, x in (
        ("restrict_low", low), ("restrict_high", high), ("combine_strict", strict),
        ("combine_lax", lax), ("compose", composed), ("restrict_links", sub))}
    out["digest"] = serialize.instance_digest(strict)
    out["atoms"] = atom_links
    return out


def timed_round(oit, info, picked, texts) -> tuple:
    """Seconds one round took, and None or why its output is wrong."""
    start = time.perf_counter()
    try:
        out = algebra_round(oit, info, picked)
    except Exception as exc:  # a raising round is a failed operation
        return time.perf_counter() - start, "round raised %r" % (exc,)
    return time.perf_counter() - start, judge_round(out, texts, picked)


def judge_round(out: dict, texts: dict, picked) -> str | None:
    for name, want in texts.items():
        if out[name] != want:
            return "%s differs from the reference" % name
    if out["atoms"] != [tuple(p) for p in picked]:
        return "atoms differ from the picked links"
    return None
