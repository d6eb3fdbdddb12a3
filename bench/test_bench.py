"""Tests of the benchmark itself: run with ``python3 -m pytest bench`` from the root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "src"))

import oit  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

INSTANCES = ("ex1.json", "ex1_s1.json", "ex1_s1r1.json", "ex1_s1r1_s2r2.json")
DECODERS = ("decoder_preimage.json", "decoder_const_s1.json")
# Not used while the benchmark was written.
FRESH_SEED = 2718


def _doc(name):
    return oracle.Doc.load((FIXTURES / name).read_bytes())


def _cli_metrics(*args):
    code, out, err = tracing.capture_cli(oit, ["metrics", *args])
    assert code == 0, err
    return {m["name"]: m["value"] for m in json.loads(out)["metrics"]}


def _as_strings(values):
    return {k: str(v) for k, v in values.items()}


@pytest.mark.parametrize("workload", ["cli_ingest", "cli_small", "algebra_write"])
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.make_inputs(oit, workload, 5, FIXTURES)
    assert workloads.make_inputs(oit, workload, 5, FIXTURES) == first
    other = workloads.make_inputs(oit, workload, 6, FIXTURES)
    assert other != first


def test_oracle_pins_the_worked_example():
    assert oracle.metric_values(_doc("ex1.json")) == workloads.EX1_VECTOR
    assert list(workloads.EX1_VECTOR.values()) == [2, 2, 3, 3, 3, 3]


@pytest.mark.parametrize("name", INSTANCES)
def test_oracle_agrees_with_cli_on_fixture_instances(name):
    want = oracle.metric_values(_doc(name))
    assert _cli_metrics(str(FIXTURES / name)) == _as_strings(want)


@pytest.mark.parametrize("target", INSTANCES)
@pytest.mark.parametrize("decoder", DECODERS)
@pytest.mark.parametrize("mode", ["replica", "union"])
def test_oracle_agrees_with_cli_on_targets_and_decoders(target, decoder, mode):
    ex1 = _doc("ex1.json")
    want = oracle.metric_values(ex1, target=_doc(target), mode=mode,
                                decoder=json.loads((FIXTURES / decoder).read_bytes()))
    got = _cli_metrics(str(FIXTURES / "ex1.json"), "--target", str(FIXTURES / target),
                       "--decoder", str(FIXTURES / decoder), "--coverage-mode", mode)
    assert got == _as_strings(want)


def test_oracle_agrees_with_cli_on_fixture_weights():
    weights = json.loads((FIXTURES / "weights_ex1.json").read_bytes())["weights"]
    want = oracle.metric_values(_doc("ex1.json"), weights=weights)
    assert want["volume"] == Fraction(250)
    got = _cli_metrics(str(FIXTURES / "ex1.json"), "--weights", str(FIXTURES / "weights_ex1.json"))
    assert got == _as_strings(want)


def test_tracer_restores_every_function():
    before = {name: getattr(oit.serialize, name) for name in tracing.TRACED["serialize"]}
    tracer = tracing.Tracer()
    with tracer.installed(oit):
        oit.serialize.parse_document((FIXTURES / "ex1.json").read_text())
        assert oit.serialize.parse_document is not before["parse_document"]
    assert {n: getattr(oit.serialize, n) for n in before} == before
    names = {s.name for s in tracer.spans}
    assert {"serialize.parse_document", "serialize.json_decode", "model.validate",
            "model.build"} <= names


def test_tracer_counts_the_subsets_walked():
    small = oit.generate_synthetic(3, oit.Profile(**workloads.SMALL_PROFILE))
    target = workloads.brute_target(oit, small, 6)
    tracer, before = tracing.Tracer(), oit.flow._nonempty_subsets
    with tracer.installed(oit):
        oit.flow.coverage(small, target, "union", True)
    assert tracer.subsets == 2 ** 6 - 1
    assert oit.flow._nonempty_subsets is before
    oit.flow.coverage(small, target, "union", True)
    assert tracer.subsets == 2 ** 6 - 1


def test_cli_child_reports_its_own_peak_memory(tmp_path):
    # Grow this process well past a CLI child's peak first: a peak taken
    # from wait4 would then report this process's instead of the child's.
    ballast = bytearray(96 * 2 ** 20)
    ballast[::4096] = b"\1" * len(range(0, len(ballast), 4096))
    op = workloads.Op("validate_ex1", [workloads.Step(["validate", str(FIXTURES / "ex1.json")])])
    _, peak, error = run.run_cli_op(op, tmp_path)
    del ballast
    assert error is None
    assert 5 < peak < 64


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("cli_ingest", "0"), ("cli_small", "0"), ("algebra_write", "0"), ("algebra_write", "1"),
])
def test_fresh_seed_passes_every_check(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", str(FRESH_SEED), "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in listed}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "cli_small", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
