"""Command line surface: validation, metrics, algebra and the classic demos.

Exit codes: 0 success, 1 validation or computation failure, 2 usage error.
Diagnostics go to stderr; documents and reports go to stdout.  Reports are
byte-identical for identical argv and input files: they carry the tool
version and content digests but never timestamps.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from fractions import Fraction

from . import __version__
from .classic import volume_entropy_demo, hartley_information, shannon_entropy
from .flow import DEFAULT_GUARD, coverage, delay
from .generate import Profile, generate_synthetic
from .measures import (
    MeasureSpec,
    counting,
    granularity,
    richness,
    scope,
    sustainability,
    volume,
)
from .model import OitError, ValidationError, combine, compose, is_sub_information
from .semantics import EQUAL_WEIGHTS, suitability, validity
from .serialize import (
    document_to_text,
    emit_instance,
    instance_digest,
    parse_decoder,
    parse_document,
    parse_target,
    parse_weights_file,
)

METRIC_ORDER = (
    "scope",
    "granularity",
    "sustainability",
    "richness",
    "volume",
    "delay",
    "coverage",
    "validity",
    "suitability",
)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _guard(parser, args) -> int:
    """The enumeration guard: ``--guard``, else ``OIT_GUARD``, else the default."""
    if args.guard is not None:
        return args.guard
    env = os.environ.get("OIT_GUARD")
    if env is None:
        return DEFAULT_GUARD
    try:
        return int(env)
    except ValueError:
        parser.error("OIT_GUARD must be an integer, got %r" % env)


def _emit_report(entries, digest, out_format):
    if out_format == "table":
        width = max(len(e["name"]) for e in entries) + 2
        for e in entries:
            sys.stdout.write(
                "%-*s %-12s %s\n" % (width, e["name"], e["value"], e["approx"])
            )
        return
    doc = {
        "version": 1,
        "tool": "oit %s" % __version__,
        "instance": digest,
        "metrics": entries,
    }
    sys.stdout.write(document_to_text(doc))


def cmd_validate(args) -> int:
    parse_document(_read(args.file))
    return 0


def cmd_metrics(args) -> int:
    info, weights = parse_document(_read(args.file))
    if args.weights:
        weights = parse_weights_file(_read(args.weights))

    def spec_for(universe: str) -> MeasureSpec:
        return weights.get(universe) or counting(universe)

    def prov(universe: str) -> dict:
        spec = spec_for(universe)
        p = {"universe": universe, "measure": spec.kind}
        if spec.kind == "weighted":
            p["weights"] = {str(k): str(w) for k, w in sorted(spec.weights.items(), key=lambda kv: str(kv[0]))}
        return p

    entries = []

    def add(name, value, provenance):
        entries.append(
            {
                "name": name,
                "value": str(value),
                "approx": float(value),
                "provenance": provenance,
            }
        )

    add("scope", scope(info, spec_for("entities")), prov("entities"))
    add("granularity", granularity(info, spec_for("entities")), prov("entities"))
    add("sustainability", sustainability(info, spec_for("ticks")), prov("ticks"))
    add("richness", richness(info, spec_for("state_records")), prov("state_records"))
    add("volume", volume(info, spec_for("media")), prov("media"))
    add("delay", delay(info), {"basis": "atom-max"})

    if args.target:
        target_text = _read(args.target)
        target_info = None
        try:
            target_info = parse_document(target_text)[0]
        except ValidationError:
            pass
        if target_info is not None and is_sub_information(target_info, info):
            value = coverage(
                info,
                target_info,
                mode=args.coverage_mode,
                brute_force=args.brute_force,
                guard=args.guard,
            )
            add(
                "coverage",
                value,
                {
                    "mode": args.coverage_mode,
                    "brute_force": args.brute_force,
                    "target": _file_digest(args.target),
                },
            )
        else:
            sys.stderr.write(
                "note: target is not a sub-information; coverage skipped\n"
            )
        target = parse_target(target_text)
        suit_weights = (
            tuple(Fraction(w) for w in args.suit_weights)
            if args.suit_weights
            else EQUAL_WEIGHTS
        )
        add(
            "suitability",
            suitability(info, target, suit_weights),
            {
                "weights": [str(w) for w in suit_weights],
                "distance": "jaccard",
                "target": _file_digest(args.target),
            },
        )

    if args.decoder:
        mapping, distance = parse_decoder(_read(args.decoder))
        add(
            "validity",
            validity(info, mapping, distance),
            {
                "decoder": mapping.kind,
                "distance": distance.kind,
                "source": _file_digest(args.decoder),
            },
        )

    entries.sort(key=lambda e: METRIC_ORDER.index(e["name"]))
    _emit_report(entries, instance_digest(info), args.out)
    return 0


def cmd_atoms(args) -> int:
    info, _ = parse_document(_read(args.file))
    doc = {
        "version": 1,
        "instance": instance_digest(info),
        "atoms": [{"from": a, "to": b} for a, b in sorted(info.links)],
    }
    sys.stdout.write(document_to_text(doc))
    return 0


def cmd_compose(args) -> int:
    first, _ = parse_document(_read(args.first))
    second, _ = parse_document(_read(args.second))
    _write_output(emit_instance(compose(first, second)), args.output)
    return 0


def cmd_combine(args) -> int:
    a, _ = parse_document(_read(args.first))
    b, _ = parse_document(_read(args.second))
    mode = "lax" if args.lax else "strict"
    _write_output(emit_instance(combine(a, b, mode)), args.output)
    return 0


def cmd_coverage(args) -> int:
    info, _ = parse_document(_read(args.file))
    target, _ = parse_document(_read(args.target))
    value = coverage(
        info, target, mode=args.mode, brute_force=args.brute_force, guard=args.guard
    )
    doc = {
        "version": 1,
        "instance": instance_digest(info),
        "target": instance_digest(target),
        "mode": args.mode,
        "brute_force": args.brute_force,
        "value": str(value),
        "approx": float(value),
    }
    sys.stdout.write(document_to_text(doc))
    return 0


def _parse_probs(text: str):
    return tuple(float(Fraction(tok)) for tok in text.split(",") if tok)


def cmd_entropy(args) -> int:
    value = shannon_entropy(_parse_probs(args.probs), base=args.base, k=args.k)
    sys.stdout.write("%r\n" % value)
    return 0


def cmd_hartley(args) -> int:
    value = hartley_information(args.n, args.s, base=args.base)
    sys.stdout.write("%r\n" % value)
    return 0


def cmd_demo_shannon(args) -> int:
    demo = volume_entropy_demo(_parse_probs(args.probs), args.n, args.seed)
    doc = {
        "version": 1,
        "alphabet": demo.alphabet_size,
        "n": demo.length,
        "seed": demo.seed,
        "message": list(demo.message),
        "volume": demo.volume,
        "hartley": demo.hartley,
        "entropy_bound": demo.entropy_bound,
        "instance": instance_digest(demo.info),
    }
    sys.stdout.write(document_to_text(doc))
    return 0


def cmd_gen(args) -> int:
    profile = Profile(
        entities=args.entities,
        media=args.media,
        tick_span=args.tick_span,
        replication=args.replication,
        aggregation=args.aggregation,
    )
    info = generate_synthetic(args.seed, profile)
    _write_output(emit_instance(info), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oit",
        description="Model linked observation/reflection instances and score their metrics.",
    )
    parser.add_argument("--version", action="version", version="oit %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("metrics", help="emit the metric report for an instance")
    p.add_argument("file")
    p.add_argument("--weights", help="weights document (overrides the instance's)")
    p.add_argument("--target", help="target instance for coverage and suitability")
    p.add_argument("--decoder", help="decoder document for validity")
    p.add_argument("--suit-weights", nargs=6, metavar="W", help="six suitability weights")
    p.add_argument("--coverage-mode", choices=["union", "replica"], default="replica")
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--guard", type=int, default=None)
    p.add_argument("--out", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("atoms", help="list the atoms (links) of an instance")
    p.add_argument("file")
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("compose", help="chain two instances through their interface")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("combine", help="union two instances")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--lax", action="store_true", help="allow split replicas")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("coverage", help="carrier coverage of a target sub-information")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--mode", choices=["union", "replica"], default="replica")
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--guard", type=int, default=None)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("entropy", help="Shannon entropy of a probability vector")
    p.add_argument("--probs", required=True, help="comma separated probabilities")
    p.add_argument("--base", type=float, default=2.0)
    p.add_argument("--k", type=float, default=1.0)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("hartley", help="log-count information of n symbols over s")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--base", type=float, default=2.0)
    p.set_defaults(func=cmd_hartley)

    p = sub.add_parser("demo", help="demonstrations")
    demo_sub = p.add_subparsers(dest="demo", required=True)
    q = demo_sub.add_parser("shannon", help="fixed-length coding volume demo")
    q.add_argument("--probs", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(func=cmd_demo_shannon)

    p = sub.add_parser("gen", help="generate a seeded synthetic instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--entities", type=int, default=Profile.entities)
    p.add_argument("--media", type=int, default=Profile.media)
    p.add_argument("--tick-span", type=int, default=Profile.tick_span)
    p.add_argument("--replication", type=int, default=Profile.replication)
    p.add_argument("--aggregation", type=float, default=Profile.aggregation)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "guard"):
            args.guard = _guard(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValidationError as exc:
        for diag in exc.diagnostics:
            sys.stderr.write("%s: %s\n" % (diag.code, diag.message))
        return 1
    except OitError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


def main() -> None:
    sys.exit(run_cli())
