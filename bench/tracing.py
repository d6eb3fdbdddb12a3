"""The traced run: spans around the library's public functions.

Spans are recorded by this file only.  ``Tracer.installed`` swaps each
traced public function, wherever an ``oit`` module holds a reference to it,
for a wrapper that times the call, and puts it back afterwards; the
library's source is not touched.  Each span keeps its duration, the time
its traced children took (so self time is the difference), the sizes of
the instance it worked on and, for the synonymy enumeration, how many
members it returned.  The tracer also counts the link subsets that
``flow``'s exhaustive enumeration walks.

Three things are timed under the tracer:

* the workload's own operations, replayed in-process in alternating
  untraced and traced pairs (the median ratio is the tracing overhead);
* a size ladder of about 1k, 2k, 4k and 8k links, walked several times;
  every size-dependent layer gets its median time per rung and a log-log
  slope over the rungs;
* fixed probes: interpreter start-up and import, brute-force coverage
  at 12 relevant links, and the classic utilities.

Every timed call follows a full garbage collection, so that no call pays
for the garbage of the one before.

The per-layer metrics come from the ladder's top rung and the probes, so
they mean the same on every workload.  Which end-to-end metric each should
move, and where:

* ``cli.*``: ``op_p50_ms`` on ``cli_small``; negligible on ``cli_ingest``.
* ``serialize.json_decode/parse_*``, ``model.validate/build/index``:
  ``op_p50_ms`` and ``ops_per_s`` on ``cli_ingest``; on ``algebra_write``
  only ``setup_s``, except validate, build and index, which every derived
  instance pays there too.
* ``serialize.emit_instance/instance_digest``: ``ops_per_s`` on
  ``algebra_write`` (six emits a round) and ``cli_ingest`` (one digest).
* ``model.restrict*/combine_*/compose/atoms``, ``generate.identity_relay``:
  ``ops_per_s`` on ``algebra_write`` only.
* ``measures.*``, ``flow.delay/coverage_*``, ``semantics.*``,
  ``model.is_sub_information``: ``op_p50_ms`` on ``cli_ingest``.
* ``flow.coverage_*_brute``, ``flow.subsets_enumerated``,
  ``flow.members_per_subset``, ``classic.*``: ``cli_small`` only.
* ``generate.generate_synthetic``: ``setup_s`` everywhere.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import math
import random
import statistics
import sys
import time
import types
from pathlib import Path

import workloads

# About 1k, 2k, 4k and 8k links.  The ladder stops there because the parse
# and the strict combine are quadratic today: at 64k links one parse takes
# about 90 s and one strict combine several minutes, which no run can
# afford.  The 16k to 64k rungs wait until those paths are linear.
LADDER_ENTITIES = (250, 500, 1000, 2000)
LADDER_NOTE = (
    "ladder stops near 8k links: at 64k the quadratic parse takes about 90 s and a "
    "strict combine several minutes; 16k-64k rungs wait until those paths are linear"
)
TARGET_TICK = 8
# Timings whose work does not grow with the rung: they take a fixed number
# of links, so they get no slope.
FIXED_SIZE = {"model.restrict_links_s", "model.atoms_s"}
LADDER_PASSES = 3
PROBE_REPEATS = 5
BRUTE_PROBE_LINKS = 12

TRACED = {
    "serialize": ("parse_document", "parse_target", "parse_decoder", "emit_instance",
                  "instance_digest"),
    "model": ("validate", "build", "restrict", "restrict_links", "compose", "atoms",
              "is_sub_information"),
    "measures": ("scope", "granularity", "sustainability", "richness", "volume"),
    "flow": ("delay", "synonymy_class"),
    "semantics": ("validity", "suitability"),
    "classic": ("shannon_entropy", "volume_entropy_demo"),
    "generate": ("generate_synthetic", "identity_relay"),
    "cli": ("run_cli",),
}


def _arg(args, kwargs, index, name, default):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _combine_name(args, kwargs):
    return "model.combine_" + _arg(args, kwargs, 2, "mode", "strict")


def _coverage_name(args, kwargs):
    mode = _arg(args, kwargs, 2, "mode", "replica")
    brute = _arg(args, kwargs, 3, "brute_force", False)
    return "flow.coverage_%s%s" % (getattr(mode, "value", mode), "_brute" if brute else "")


class Span:
    __slots__ = ("name", "ns", "child_ns", "sizes", "count")

    def __init__(self, name):
        self.name, self.ns, self.child_ns, self.sizes, self.count = name, 0, 0, None, None

    @property
    def self_ns(self):
        return self.ns - self.child_ns


def _sizes(values):
    for v in values:
        if isinstance(v, tuple) and v:
            v = v[0]
        if type(v).__name__ == "Information":
            return (len(v.states), len(v.reflections), len(v.relation))
    return None


class Tracer:
    """Spans kept in memory, in the order their calls ended."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.subsets = 0

    def counted(self, fn):
        """A generator like ``fn`` that adds each item it yields to ``subsets``."""
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.subsets += 1
                yield item

        return counting

    def wrap(self, name, fn, count=False):
        open_spans, spans = self._open, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name if isinstance(name, str) else name(args, kwargs))
            parent = open_spans[-1] if open_spans else None
            open_spans.append(span)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.ns = time.perf_counter_ns() - start
                open_spans.pop()
                if parent is not None:
                    parent.child_ns += span.ns
                spans.append(span)
            span.sizes = _sizes(args + (result,))
            if count:
                span.count = len(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, oit):
        """Trace every function in ``TRACED``, JSON decoding and the cached indexes."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "oit" or n.startswith("oit.")]
        swaps = {}  # id of the original -> (original, replacement)

        def swap(fn, name, count=False):
            swaps[id(fn)] = (fn, self.wrap(name, fn, count))

        for module_name, names in TRACED.items():
            module = getattr(oit, module_name)
            for fname in names:
                swap(getattr(module, fname), "%s.%s" % (module_name, fname),
                     count=fname == "synonymy_class")
        swap(oit.model.combine, _combine_name)
        swap(oit.flow.coverage, _coverage_name)
        # The link subsets the exhaustive synonymy enumeration walks.
        subsets = oit.flow._nonempty_subsets
        swaps[id(subsets)] = (subsets, self.counted(subsets))
        swaps[id(json)] = (json, types.SimpleNamespace(
            loads=self.wrap("serialize.json_decode", json.loads),
            dumps=json.dumps, JSONDecodeError=json.JSONDecodeError))
        undo = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                original, replacement = swaps.get(id(value), (None, None))
                if original is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, replacement)
        for cls in (oit.model.Information, oit.model.LinkRelation):
            for prop in vars(cls).values():
                if isinstance(prop, functools.cached_property):
                    undo.append((prop, "func", prop.func))
                    prop.func = self.wrap("model.index", prop.func)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, nanoseconds, self nanoseconds,
        the (states, reflections, links) sizes and the member count."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "ns": s.ns, "self_ns": s.self_ns,
                                     "sizes": s.sizes, "count": s.count}) + "\n")

    def call(self, fn, *args):
        """Run ``fn`` after a full collection and return its result with the
        spans it recorded."""
        gc.collect()
        mark = len(self.spans)
        result = fn(*args)
        return result, self.spans[mark:]


def _total_s(spans, name):
    return sum(s.ns for s in spans if s.name == name) / 1e9


def _mean_s(spans, name):
    times = [s.ns for s in spans if s.name == name]
    return sum(times) / len(times) / 1e9


def self_times(spans) -> dict:
    out: dict = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0) + s.self_ns
    return out


def touch_indexes(info):
    """First access of every cached index of a fresh instance."""
    for name, prop in vars(type(info)).items():
        if isinstance(prop, functools.cached_property):
            getattr(info, name)
    info.relation.sources, info.relation.targets


def _table_decoder(target_text: str) -> str:
    """A table decoder sending each target reflection to one of its sources."""
    doc = json.loads(target_text)
    states = {r["id"]: r for r in doc["state_records"]}
    source = {}
    for link in doc["links"]:
        source.setdefault(link["to"], link["from"])
    entries = []
    for rec in doc["reflection_records"]:
        st = states[source[rec["id"]]]
        entries.append({
            "reflection": {k: rec[k] for k in ("media", "tick", "value")},
            "state": {k: st[k] for k in ("entities", "tick", "value")},
        })
    return json.dumps({"version": 1, "kind": "table", "entries": entries})


def rung(oit, tracer, seed, entities) -> tuple:
    """Time every size-dependent layer once on one instance size."""
    model, serialize, measures = oit.model, oit.serialize, oit.measures
    flow, semantics, generate = oit.flow, oit.semantics, oit.generate
    call = tracer.call
    t: dict = {}

    profile = oit.Profile(**dict(workloads.INGEST_PROFILE, entities=entities))
    info, sp = call(generate.generate_synthetic, seed, profile)
    t["generate.generate_synthetic_s"] = _total_s(sp, "generate.generate_synthetic")
    text, sp = call(serialize.emit_instance, info)
    t["serialize.emit_instance_s"] = _total_s(sp, "serialize.emit_instance")

    (parsed, _), sp = call(serialize.parse_document, text)
    t["serialize.parse_document_s"] = _total_s(sp, "serialize.parse_document")
    t["serialize.json_decode_s"] = _total_s(sp, "serialize.json_decode")
    t["serialize.parse_self_s"] = sum(
        s.self_ns for s in sp if s.name == "serialize.parse_document") / 1e9
    t["model.validate_s"] = _mean_s(sp, "model.validate")
    t["model.build_s"] = _total_s(sp, "model.build")
    _, sp = call(touch_indexes, parsed)
    t["model.index_s"] = _total_s(sp, "model.index")
    _, sp = call(serialize.instance_digest, parsed)
    t["serialize.instance_digest_s"] = _total_s(sp, "serialize.instance_digest")

    target = model.restrict(parsed, lambda s, r: s.tick <= TARGET_TICK)
    target_text = serialize.emit_instance(target)
    demand, sp = call(serialize.parse_target, target_text)
    t["serialize.parse_target_s"] = _total_s(sp, "serialize.parse_target")
    _, sp = call(serialize.parse_decoder, _table_decoder(target_text))
    t["serialize.parse_decoder_s"] = _total_s(sp, "serialize.parse_decoder")

    for name in ("scope", "granularity", "sustainability", "richness", "volume"):
        _, sp = call(getattr(measures, name), parsed)
        t["measures.%s_s" % name] = _total_s(sp, "measures." + name)
    _, sp = call(flow.delay, parsed)
    t["flow.delay_s"] = _total_s(sp, "flow.delay")
    for mode in ("replica", "union"):
        _, sp = call(flow.coverage, parsed, target, mode)
        t["flow.coverage_%s_s" % mode] = _total_s(sp, "flow.coverage_" + mode)
    _, sp = call(model.is_sub_information, target, parsed)
    t["model.is_sub_information_s"] = _total_s(sp, "model.is_sub_information")
    _, sp = call(semantics.validity, parsed, semantics.SemanticMapping.preimage())
    t["semantics.validity_s"] = _total_s(sp, "semantics.validity")
    _, sp = call(semantics.suitability, parsed, demand)
    t["semantics.suitability_s"] = _total_s(sp, "semantics.suitability")

    def restrict_pair():
        return (model.restrict(parsed, lambda s, r: s.tick <= workloads.ALGEBRA_LOW_TICK),
                model.restrict(parsed, lambda s, r: s.tick >= workloads.ALGEBRA_HIGH_TICK))

    (low, high), sp = call(restrict_pair)
    t["model.restrict_s"] = _mean_s(sp, "model.restrict")
    strict, sp = call(model.combine, low, high, "strict")
    t["model.combine_strict_s"] = _total_s(sp, "model.combine_strict")
    lax, sp = call(model.combine, low, high, "lax")
    t["model.combine_lax_s"] = _total_s(sp, "model.combine_lax")
    relay, sp = call(generate.identity_relay, low, workloads.relay_map(low.carrier))
    t["generate.identity_relay_s"] = _total_s(sp, "generate.identity_relay")
    _, sp = call(model.compose, low, relay)
    t["model.compose_s"] = _total_s(sp, "model.compose")
    picked = random.Random(seed).sample(sorted(parsed.links), workloads.ALGEBRA_PICKED_LINKS)
    sub, sp = call(model.restrict_links, parsed, picked)
    t["model.restrict_links_s"] = _total_s(sp, "model.restrict_links")
    _, sp = call(model.atoms, sub)
    t["model.atoms_s"] = _total_s(sp, "model.atoms")

    errors = [
        "%d-entity rung: %s combine does not reproduce the source" % (entities, mode)
        for mode, result in (("strict", strict), ("lax", lax))
        if serialize.emit_instance(result) != text
    ]
    sizes = {"model.states": len(parsed.states), "model.reflections": len(parsed.reflections),
             "model.links": len(parsed.links), "serialize.doc_bytes": len(text.encode())}
    return t, sizes, errors


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def ladder(oit, tracer, seed) -> tuple:
    """Top-rung timings, their log-log slopes over the ladder, and the rungs.

    Every timing is the median of LADDER_PASSES samples.  Each pass walks
    every rung once, so a passing change of host speed falls on all rungs
    alike instead of on one rung's samples, where it would bend the slope.
    """
    passes = [[rung(oit, tracer, seed, entities) for entities in LADDER_ENTITIES]
              for _ in range(LADDER_PASSES)]
    rungs, errors = [], []
    for entities, samples in zip(LADDER_ENTITIES, zip(*passes)):
        names = samples[0][0]
        times = {name: statistics.median(t[name] for t, _, _ in samples) for name in names}
        rungs.append({"entities": entities, **samples[0][1], "timings_s": times})
        errors += sorted({e for _, _, errs in samples for e in errs})
    links = [r["model.links"] for r in rungs]
    top = rungs[-1]
    metrics = dict(top["timings_s"])
    for name in top["timings_s"]:
        if name not in FIXED_SIZE:
            metrics[name + ".exp"] = slope(links, [r["timings_s"][name] for r in rungs])
    metrics["serialize.doc_bytes"] = top["serialize.doc_bytes"]
    return metrics, rungs, errors


def capture_cli(oit, args) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = oit.cli.run_cli(list(args))
    return code, out.getvalue().encode(), err.getvalue()


def run_step_in_process(oit, step) -> str | None:
    try:
        code, out, err = capture_cli(oit, step.args)
    except Exception as exc:  # an escaped exception is what a traceback would show
        return "traceback: %r" % (exc,)
    return workloads.judge(step, code, out, err)


def probes(oit, tracer, seed, fixtures: Path, spawn) -> dict:
    """Start-up, brute-force and classic timings that do not depend on size."""
    def median_spawn(code):
        return statistics.median(spawn([sys.executable, "-c", code])
                                 for _ in range(PROBE_REPEATS))

    m: dict = {}
    m["cli.interpreter_s"] = median_spawn("pass")
    m["cli.import_s"] = median_spawn("import oit.cli") - m["cli.interpreter_s"]

    def median_span(name, fn, *args, repeats=PROBE_REPEATS):
        return statistics.median(_total_s(tracer.call(fn, *args)[1], name)
                                 for _ in range(repeats))

    argv = ["metrics", str(fixtures / "ex1.json"), "--target", str(fixtures / "ex1_s1.json"),
            "--decoder", str(fixtures / "decoder_preimage.json")]
    m["cli.run_cli_s"] = median_span("cli.run_cli", capture_cli, oit, argv)
    uniform = [1 / 4096] * 4096
    m["classic.shannon_entropy_s"] = median_span(
        "classic.shannon_entropy", oit.classic.shannon_entropy, uniform)
    m["classic.volume_entropy_demo_s"] = median_span(
        "classic.volume_entropy_demo", oit.classic.volume_entropy_demo, (0.5, 0.25, 0.25),
        2000, seed, repeats=3)

    small = oit.generate_synthetic(seed, oit.Profile(**workloads.SMALL_PROFILE))
    target = workloads.brute_target(oit, small, BRUTE_PROBE_LINKS)
    before = tracer.subsets
    _, sp = tracer.call(oit.flow.coverage, small, target, "union", True)
    subsets = tracer.subsets - before
    members = sum(s.count for s in sp if s.name == "flow.synonymy_class")
    m["flow.subsets_enumerated"] = subsets
    m["flow.members_per_subset"] = members / subsets if subsets else 0.0
    m["flow.coverage_union_brute_s"] = median_span(
        "flow.coverage_union_brute", oit.flow.coverage, small, target, "union", True)

    wide, wide_target = workloads.replica_case(oit, seed)
    m["flow.coverage_replica_brute_s"] = median_span(
        "flow.coverage_replica_brute", oit.flow.coverage, wide, wide_target, "replica", True)
    return m
