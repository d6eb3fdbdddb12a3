#!/usr/bin/env python3
"""The oit benchmark: seeded CLI and library workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload cli_ingest --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --report --seed 1 --seconds 35

With ``--trace 0`` one workload runs untraced as a closed loop with one
client: one operation at a time, each CLI child awaited before the next
starts.  Its end-to-end metrics are printed, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 1`` the workload's operations are replayed in-process under
the tracer of ``tracing.py`` and the per-layer metrics are printed instead.
``--report`` runs every workload both ways in child processes, prints one
row per workload and writes ``bench/baseline.json``.

Everything the runs write goes to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
WORK = ROOT / ".bench_work"
BASELINE = BENCH / "baseline.json"

WORKLOADS = ("cli_ingest", "cli_small", "algebra_write")
# Set-up runs once before the timed phase and then again each time another
# SETUP_SPREAD-th of it has passed, so that its samples see the same host
# as the operations; the median is reported.  On a shared virtual machine
# the CPU speed can shift by half for a second or more at a time, which a
# run of back-to-back set-ups would take for a change in set-up cost.
SETUP_SPREAD = 8
REPLAY_ROUNDS = 3
REPLAY_PAIRS = 4
P90_MIN_OPS = 100
# Each CLI child writes the peak resident memory of its own address space
# (``VmHWM``, in KiB) to the file named by its first argument as it exits.
# The peak that wait4 reports for a child cannot be used: on Linux, exec
# carries the high-water mark of the address space it replaces into it,
# and that space is this process's when subprocess spawns with vfork.
CLI_CODE = """\
import atexit, sys
def _peak(path=sys.argv.pop(1)):
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])
atexit.register(_peak)
from oit.cli import main
main()
"""


def cli_argv(peak_path: Path) -> list:
    return [sys.executable, "-c", CLI_CODE, str(peak_path)]


def read_peak_mib(peak_path: Path) -> float:
    try:
        return int(peak_path.read_text()) / 1024
    except (OSError, ValueError):  # the child died before its exit handlers ran
        return 0.0


def spec_units() -> dict:
    """The unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "OIT_"))}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def spawn(argv, out_path: Path | None = None, err_path: Path | None = None) -> tuple:
    """Run one child to its exit; returns its exit code and wall seconds."""
    with open(out_path or os.devnull, "wb") as out, open(err_path or os.devnull, "wb") as err:
        start = time.perf_counter()
        code = subprocess.run(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT).returncode
        return code, time.perf_counter() - start


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
        "src_oit_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in sorted((SRC / "oit").glob("*.py"))),
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` inside the checkout only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class SetUp:
    """Generates and writes one workload's inputs; every call is timed, and
    every call must write the same bytes."""

    def __init__(self, oit, workload: str, seed: int, work: Path):
        self.oit, self.workload, self.seed, self.work = oit, workload, seed, work
        self.times: list = []
        self.first = None
        self.same = True

    def __call__(self) -> float:
        start = time.perf_counter()
        files = workloads.make_inputs(self.oit, self.workload, self.seed, FIXTURES)
        for name, data in files.items():
            (self.work / name).write_bytes(data)
        self.times.append(time.perf_counter() - start)
        self.first = self.first or files
        self.same = self.same and files == self.first
        return self.times[-1]


def run_cli_op(op, work: Path) -> tuple:
    """All steps of one CLI operation; latency, peak RSS and the first failure."""
    latency, peak, error = 0.0, 0.0, None
    out_path, err_path, peak_path = work / "op.out", work / "op.err", work / "op.peak"
    for step in op.steps:
        peak_path.unlink(missing_ok=True)
        code, seconds = spawn(cli_argv(peak_path) + step.args, out_path, err_path)
        latency += seconds
        peak = max(peak, read_peak_mib(peak_path))
        error = error or workloads.judge(step, code, out_path.read_bytes(),
                                         err_path.read_text(errors="replace"))
    return latency, peak, error


def cli_loop(ops, seconds: float, work: Path, set_up: SetUp) -> dict:
    """Whole cycles of ``ops`` until ``seconds`` of them have passed, with
    set-ups spread between cycles and left out of the wall time."""
    latencies, peak, failures = [], 0.0, []
    start, paused = time.perf_counter(), 0.0
    while True:
        for op in ops:
            latency, rss, error = run_cli_op(op, work)
            latencies.append(latency)
            peak = max(peak, rss)
            if error:
                failures.append({"op": op.name, "error": error})
        wall = time.perf_counter() - start - paused
        if wall >= seconds:
            break
        if wall >= len(set_up.times) * seconds / SETUP_SPREAD:
            paused += set_up()
    return {"latencies": latencies, "wall": wall, "peak": peak, "failures": failures,
            "setups": set_up.times}


def algebra_segments(oit, seed: int, seconds: float, work: Path, set_up: SetUp) -> dict:
    """The timed phase in SETUP_SPREAD children, each preceded by a set-up:
    generating and writing the input here, parsing it in the child."""
    texts, picked = workloads.algebra_expectations((work / "doc.json").read_bytes(), seed)
    (work / "expected.json").write_text(json.dumps({"texts": texts, "picked": picked}))
    timed = {"latencies": [], "wall": 0.0, "peak": 0.0, "failures": [], "setups": []}
    for segment in range(SETUP_SPREAD):
        write_s = set_up.times[-1] if segment == 0 else set_up()
        out_path, err_path = work / "child.out", work / "child.err"
        code, _ = spawn([sys.executable, str(BENCH / "algebra_child.py"), str(work),
                         str(seconds / SETUP_SPREAD)], out_path, err_path)
        if code != 0:
            raise RuntimeError("algebra child exited with %d: %s"
                               % (code, err_path.read_text()[-2000:]))
        part = json.loads(out_path.read_text())
        timed["setups"].append(write_s + part["parse_s"])
        timed["latencies"] += part["latencies"]
        timed["wall"] += part["wall"]
        timed["peak"] = max(timed["peak"], part["peak"])
        timed["failures"] += part["failures"]
    return timed


def run_untraced(oit, workload: str, seed: int, seconds: float, work: Path) -> dict:
    set_up = SetUp(oit, workload, seed, work)
    set_up()
    spawn(cli_argv(work / "op.peak") + ["validate", str(FIXTURES / "ex1.json")])  # warm-up
    extra: dict = {}
    if workload == "algebra_write":
        timed = algebra_segments(oit, seed, seconds, work, set_up)
    elif workload == "cli_ingest":
        timed = cli_loop(workloads.ingest_ops(work), seconds, work, set_up)
    else:
        ops, crashes = workloads.small_ops(work, FIXTURES, seed)
        timed = cli_loop(ops, seconds, work, set_up)
        extra["ops_per_cycle"] = len(ops)
        extra["known_crashes"] = {op.name: run_cli_op(op, work)[2] or "fixed" for op in crashes}
        crashed = sum(1 for v in extra["known_crashes"].values() if v != "fixed")
        extra["known_crash_share"] = "%d/%d" % (crashed, len(ops) + len(crashes))

    lat = timed["latencies"]
    metrics = {
        "setup_s": statistics.median(timed["setups"]),
        "ops_per_s": len(lat) / timed["wall"],
        "peak_rss_mib": timed["peak"],
    }
    # Latency percentiles are recorded but not gated: when the host's CPU
    # speed shifts for tens of seconds, a run's median jumps between the
    # two speeds, while a rate averages them.
    extra["op_p50_ms"] = statistics.median(lat) * 1e3
    if len(lat) >= P90_MIN_OPS:
        extra["op_p90_ms"] = statistics.quantiles(lat, n=10)[-1] * 1e3
    errors = [] if set_up.same else ["one seed gave different inputs across set-ups"]
    return {"metrics": metrics, "attempted": len(lat), "failures": timed["failures"],
            "errors": errors, "setups_s": timed["setups"],
            "latencies_ms": [round(x * 1e3, 3) for x in lat], **extra}


def run_traced(oit, workload: str, seed: int, work: Path) -> dict:
    tracer = tracing.Tracer()
    SetUp(oit, workload, seed, work)()

    if workload == "algebra_write":
        doc_bytes = (work / "doc.json").read_bytes()
        texts, picked = workloads.algebra_expectations(doc_bytes, seed)
        info = oit.parse_document(doc_bytes.decode())[0]
        picked = [tuple(p) for p in picked]

        def replay():
            return [workloads.timed_round(oit, info, picked, texts)[1]
                    for _ in range(REPLAY_ROUNDS)]
    else:
        ops = (workloads.ingest_ops(work) if workload == "cli_ingest"
               else workloads.small_ops(work, FIXTURES, seed)[0])

        def replay():
            return [next(filter(None, (tracing.run_step_in_process(oit, s) for s in op.steps)),
                         None)
                    for op in ops]

    def timed_replay():
        gc.collect()
        start = time.perf_counter()
        errors = replay()
        return time.perf_counter() - start, errors

    # One warm-up replay, then untraced and traced replays in ABBA order, so
    # that a steady drift of host speed falls on both sides alike.  The
    # overhead is the ratio of their mean times.
    replay()
    untraced, traced = [], []
    for pair in range(REPLAY_PAIRS):
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced_turn:
                untraced.append(timed_replay())
                continue
            with tracer.installed(oit):
                mark = len(tracer.spans)
                traced.append(timed_replay())
                replay_spans = tracer.spans[mark:]
    untraced_s = statistics.fmean(seconds for seconds, _ in untraced)
    traced_s = statistics.fmean(seconds for seconds, _ in traced)
    overhead = traced_s / untraced_s - 1
    with tracer.installed(oit):
        ladder_metrics, rungs, ladder_errors = tracing.ladder(oit, tracer, seed)
        probe_metrics = tracing.probes(oit, tracer, seed, FIXTURES,
                                       lambda argv: spawn(argv)[1])
    tracer.dump(work / "spans.jsonl")

    n = len(traced[0][1])
    metrics = {**ladder_metrics, **probe_metrics,
               "trace.replay_op_ms": traced_s / n * 1e3,
               "trace.overhead_ratio": overhead}
    breakdown = sorted(((name, ns / n / 1e9) for name, ns in
                        tracing.self_times(replay_spans).items()), key=lambda kv: -kv[1])
    return {
        "metrics": metrics,
        "attempted": n * REPLAY_PAIRS,
        "failures": [{"op": "replay", "error": e} for _, errors in traced for e in errors if e],
        "errors": ["untraced replay: " + e for _, errors in untraced for e in errors if e]
        + ladder_errors,
        "replay_self_s_per_op": dict(breakdown),
        "replay_untraced_op_ms": untraced_s / n * 1e3,
        "ladder": rungs,
        "ladder_note": tracing.LADDER_NOTE,
    }


def print_summary(workload: str, trace_on: bool, result: dict, units: dict) -> None:
    out = sys.stdout
    out.write("workload %s  seed %d  trace %d\n" % (workload, result["env"]["seed"], trace_on))
    out.write("  env: %s\n" % json.dumps(result["env"], sort_keys=True))
    n, failed = result["attempted"], len(result["failures"])
    if not trace_on:
        m = result["metrics"]
        parts = ["%s %.6g %s" % (k, v, units[k]) for k, v in m.items()]
        parts.append("op_p50_ms %.6g ms (n=%d)" % (result["op_p50_ms"], n))
        if "op_p90_ms" in result:
            parts.append("op_p90_ms %.6g ms" % result["op_p90_ms"])
        parts.append("fail_ratio %d/%d" % (failed, n))
        out.write("  " + " | ".join(parts) + "\n")
        for name, outcome in result.get("known_crashes", {}).items():
            out.write("  known crash %s: %s\n" % (name, outcome))
        if "known_crash_share" in result:
            out.write("  known-crash share of one cycle's inputs: %s\n"
                      % result["known_crash_share"])
    else:
        out.write("  %s\n" % result["ladder_note"])
        m = result["metrics"]
        out.write("  replay: %.6g ms/op traced, %.6g ms/op untraced, tracing overhead %+.1f%%\n"
                  % (m["trace.replay_op_ms"], result["replay_untraced_op_ms"],
                     100 * m["trace.overhead_ratio"]))
        for name, secs in list(result["replay_self_s_per_op"].items())[:8]:
            out.write("    self %-32s %.6g s/op\n" % (name, secs))
    for f in result["failures"]:
        out.write("  FAILED %s: %s\n" % (f["op"], f["error"]))
    for e in result["errors"]:
        out.write("  ERROR %s\n" % e)


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import oit

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        result = run_traced(oit, args.workload, args.seed, work)
    else:
        result = run_untraced(oit, args.workload, args.seed, args.seconds, work)
    result["env"] = environment(args.seed)
    (WORK / ("result-%s-trace%d.json" % (args.workload, args.trace))).write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    units = spec_units()
    print_summary(args.workload, args.trace, result, units)
    line = {
        "correct": not result["failures"] and not result["errors"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    sys.stdout.write(json.dumps(line) + "\n")
    return 0


def run_report(args) -> int:
    """Every workload untraced and traced, one row each, written to ``bench/baseline.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {"why": why[workload]}
        for trace_on in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace_on)]
            if subprocess.run(cmd, cwd=ROOT).returncode != 0:
                sys.stderr.write("error: %s failed\n" % " ".join(cmd))
                return 1
            result = json.loads((WORK / ("result-%s-trace%d.json"
                                         % (workload, trace_on))).read_text())
            entry["traced" if trace_on else "untraced"] = result
        report["env"] = entry["untraced"]["env"]
        report["workloads"][workload] = entry
    gated = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    columns = ["%s [%s]" % (k, u) for k, u in gated]
    columns += ["op_p50_ms [ms]", "op_p90_ms [ms]", "fail_ratio", "known crashes",
                "tracing overhead"]
    sys.stdout.write("\n%-14s" % "workload" + "".join("%20s" % c for c in columns) + "\n")
    for workload, entry in report["workloads"].items():
        res = entry["untraced"]
        cells = ["%.4g" % res["metrics"][k] for k, _ in gated]
        cells.append("%.4g" % res["op_p50_ms"])
        cells.append("%.4g" % res["op_p90_ms"] if "op_p90_ms" in res else "-")
        cells.append("%d/%d" % (len(res["failures"]), res["attempted"]))
        cells.append(res.get("known_crash_share", "-"))
        cells.append("%+.1f%%" % (100 * entry["traced"]["metrics"]["trace.overhead_ratio"]))
        sys.stdout.write("%-14s" % workload + "".join("%20s" % c for c in cells) + "\n")
    BASELINE.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    sys.stdout.write("wrote %s\n" % BASELINE.relative_to(ROOT))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload both ways and write bench/baseline.json")
    args = parser.parse_args(argv)
    if not (SRC / "oit" / "__init__.py").is_file() or not FIXTURES.is_dir():
        sys.stderr.write("error: %s/oit or %s is missing; run from the root of a checkout\n"
                         % (SRC, FIXTURES))
        return 2
    if args.report:
        return run_report(args)
    if args.workload is None:
        parser.error("--workload is required without --report")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
