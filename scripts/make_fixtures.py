#!/usr/bin/env python3
"""Regenerate the shipped fixture documents from their builders.

Emission is canonical, so rerunning this script must leave the working
tree unchanged unless the builders themselves changed.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oit import emit_instance, example_instance, restrict_links  # noqa: E402
from oit.serialize import document_to_text  # noqa: E402

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    ex1 = example_instance()

    (FIXTURES / "ex1.json").write_text(emit_instance(ex1))
    (FIXTURES / "ex1_s1r1.json").write_text(
        emit_instance(restrict_links(ex1, [("s1", "r1")]))
    )
    (FIXTURES / "ex1_s1r1_s2r2.json").write_text(
        emit_instance(restrict_links(ex1, [("s1", "r1"), ("s2", "r2")]))
    )
    (FIXTURES / "ex1_s1.json").write_text(
        emit_instance(restrict_links(ex1, [("s1", "r1"), ("s1", "r3")]))
    )

    s1_triple = {"entities": ["a"], "tick": 1, "value": "v1"}
    const_decoder = {
        "version": 1,
        "kind": "table",
        "entries": [
            {
                "reflection": {
                    "media": sorted(rec.media),
                    "tick": rec.tick,
                    "value": rec.value,
                },
                "state": s1_triple,
            }
            for rec in sorted(ex1.reflections, key=lambda r: r.id)
        ],
    }
    (FIXTURES / "decoder_const_s1.json").write_text(document_to_text(const_decoder))
    (FIXTURES / "decoder_preimage.json").write_text(
        document_to_text({"version": 1, "kind": "preimage"})
    )

    weights = {
        "version": 1,
        "weights": {
            "entities": {"a": "0.5", "b": "2"},
            "media": {"m1": "100", "m2": "50", "m3": "100"},
            "state_records": {"s1": "2", "s2": "2", "s3": "2"},
            "ticks": {"1": "1", "2": "1", "3": "10"},
        }
    }
    (FIXTURES / "weights_ex1.json").write_text(document_to_text(weights))

    print("wrote fixtures to", FIXTURES)


if __name__ == "__main__":
    main()
