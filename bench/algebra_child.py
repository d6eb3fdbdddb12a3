"""One segment of the timed phase of ``algebra_write``, in a process of its own.

Usage: ``python3 bench/algebra_child.py WORKDIR SECONDS`` with ``src`` on
``PYTHONPATH``.  Parses ``WORKDIR/doc.json`` (set-up, timed apart), then
forks; the forked process runs derivation rounds until SECONDS have passed,
checking each against ``WORKDIR/expected.json``.  Prints one JSON object.

The fork keeps the parse's transient peak out of the memory figure: a
forked process's peak resident memory (``VmHWM``) starts from what is
resident when it is forked, so the peak it reports at the end belongs to
the rounds and the instance they work on.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
import traceback
from pathlib import Path

import oit

import workloads


def peak_mib() -> float:
    """Peak resident memory of this process's own address space, in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def rounds(info, work: Path, seconds: float) -> dict:
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    texts, picked = expected["texts"], [tuple(p) for p in expected["picked"]]
    latencies, failures = [], []
    start = time.perf_counter()
    while True:
        latency, error = workloads.timed_round(oit, info, picked, texts)
        latencies.append(latency)
        if error:
            failures.append({"op": "derivation_round", "error": error})
        if time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "wall": time.perf_counter() - start,
            "failures": failures, "peak": peak_mib()}


def main(work: Path, seconds: float) -> dict:
    text = (work / "doc.json").read_text(encoding="utf-8")
    start = time.perf_counter()
    info = oit.parse_document(text)[0]
    parse_s = time.perf_counter() - start
    del text
    gc.collect()

    out_path = work / "rounds.json"
    pid = os.fork()
    if pid == 0:
        try:
            out_path.write_text(json.dumps(rounds(info, work, seconds)))
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
            os._exit(1)
        os._exit(0)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("the forked round process failed")
    return {"parse_s": parse_s, **json.loads(out_path.read_text())}


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main(Path(sys.argv[1]), float(sys.argv[2]))) + "\n")
