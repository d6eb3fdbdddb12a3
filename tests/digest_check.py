"""Report digests against ``hashlib``, written without loading OpenSSL.

``serialize`` hashes with CPython's built-in SHA-256 module, ``_sha256`` before
3.12 and ``_sha2`` from 3.12, and falls back to ``hashlib``, which loads
OpenSSL, when it finds neither.  That fallback is silent: a module name wrong
on one version would only make that version heavier.  So this check runs every
digest-writing command under each interpreter, and digests one emitted
instance from the text it keeps, fails if a hash library was loaded, and only
then imports ``hashlib`` to compare each digest with its digest of the same
bytes.  It needs no pytest.  From the repository root::

    PYTHONPATH=src python -m tests.digest_check

It names every digest that differs and exits 1 on any fault.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from oit import (
    Profile,
    emit_instance,
    generate_synthetic,
    instance_digest,
    parse_document,
    run_cli,
    volume_entropy_demo,
)

from .paths import FIXTURES

EX1, TARGET, DECODER = (FIXTURES / name for name in (
    "ex1.json", "ex1_s1r1.json", "decoder_const_s1.json"))
# Modules that load OpenSSL: hashlib imports _hashlib, OpenSSL's binding.
HASH_LIBRARIES = {"hashlib", "_hashlib"}


def report(*argv) -> dict:
    """The JSON report of ``oit <argv>``, run in-process."""
    argv = [str(arg) for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_cli(argv)
    if code:
        raise SystemExit("oit %s exited %d" % (" ".join(argv), code))
    return json.loads(out.getvalue())


def instance_bytes(path: Path) -> bytes:
    """The canonical text an instance digest names: the document re-emitted."""
    return emit_instance(parse_document(path.read_text(encoding="utf-8"))[0]).encode("ascii")


def written_digests() -> list:
    """(what, digest written, bytes it names) for each digest the commands write."""
    digests = []
    metrics = report("metrics", EX1, "--target", TARGET, "--decoder", DECODER)
    digests.append(("metrics instance", metrics["instance"], instance_bytes(EX1)))
    for entry in metrics["metrics"]:
        for member, path in (("target", TARGET), ("source", DECODER)):
            if member in entry["provenance"]:
                digests.append(("metrics %s %s" % (entry["name"], member),
                                entry["provenance"][member], path.read_bytes()))
    digests.append(("atoms instance", report("atoms", EX1)["instance"], instance_bytes(EX1)))
    coverage = report("coverage", EX1, "--target", TARGET)
    digests.append(("coverage instance", coverage["instance"], instance_bytes(EX1)))
    digests.append(("coverage target", coverage["target"], instance_bytes(TARGET)))
    demo = report("demo", "shannon", "--probs", "0.5,0.25,0.25", "--n", "8", "--seed", "7")
    text = emit_instance(volume_entropy_demo((0.5, 0.25, 0.25), 8, 7).info)
    digests.append(("demo instance", demo["instance"], text.encode("ascii")))
    # An emitted instance keeps its text, and its digest hashes that text in slices.
    info = generate_synthetic(0, Profile(entities=500))
    text = emit_instance(info)
    digests.append(("emitted instance", instance_digest(info), text.encode("ascii")))
    return digests


def main() -> int:
    digests = written_digests()
    loaded = sorted(HASH_LIBRARIES & set(sys.modules))
    print("hash libraries loaded: %s" % (", ".join(loaded) or "none"))
    import hashlib  # only now: the commands above must not need it

    differ = 0
    for what, digest, data in digests:
        expected = "sha256:" + hashlib.sha256(data).hexdigest()
        if digest != expected:
            differ += 1
            print("%s: oit writes %s, hashlib gives %s" % (what, digest, expected))
    print("%d of %d digests differ" % (differ, len(digests)))
    return 1 if differ or loaded else 0


if __name__ == "__main__":
    sys.exit(main())
