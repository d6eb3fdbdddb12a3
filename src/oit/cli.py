"""Command line surface: validation, metrics, algebra and the classic demos.

Exit codes: 0 success, 1 validation or computation failure, 2 usage error.
Diagnostics go to stderr; documents and reports go to stdout.  Reports are
byte-identical for identical argv and input files: they carry the tool
version and content digests but never timestamps.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from fractions import Fraction

from . import __version__
from .classic import volume_entropy_demo, hartley_information, shannon_entropy
from .flow import COVERAGE_MODES, DEFAULT_GUARD, REPLICA, coverage, delay
from .generate import Profile, generate_synthetic
from .measures import (
    granularity,
    richness,
    scope,
    sustainability,
    volume,
)
from .model import (
    MAX_LITERAL_DIGITS,
    OitError,
    ValidationError,
    brief,
    brief_ids,
    build,
    combine,
    compose,
    is_sub_information,
    read_fraction,
)
from .semantics import EQUAL_WEIGHTS, JACCARD, suitability, validity
from .serialize import (
    document_to_text,
    emit_instance,
    instance_digest,
    parse_decoder,
    parse_document,
    parse_target,
    parse_weights_file,
    text_digest,
)

# The five measure metrics in report order: (name, metric, measured universe).
MEASURE_METRICS = (
    ("scope", scope, "entities"),
    ("granularity", granularity, "entities"),
    ("sustainability", sustainability, "ticks"),
    ("richness", richness, "state_records"),
    ("volume", volume, "media"),
)


def _read(path: str) -> str:
    """The file's exact text, newlines untranslated, so that its digest names its bytes."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _write_output(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report(**members) -> None:
    """Write a version 1 report with ``members`` to stdout."""
    sys.stdout.write(document_to_text({"version": 1, **members}))


def _exact(name: str, value) -> dict:
    """The ``value`` and ``approx`` members for ``name``'s exact int or Fraction."""
    try:
        return {"value": str(value), "approx": float(value)}
    except OverflowError:
        raise OverflowError("%s is too large for a float approximation" % name) from None
    except ValueError:  # an int of more digits than Python writes as text
        raise ValueError("%s exceeds %d digits" % (name, MAX_LITERAL_DIGITS)) from None


def cmd_validate(args) -> int:
    parse_document(_read(args.file))
    return 0


def _entry(name: str, value, provenance: dict) -> dict:
    """One report entry; ``value`` is the metric's exact int or Fraction."""
    return {"name": name, "provenance": provenance, **_exact(name, value)}


def cmd_metrics(args) -> int:
    info, weights = parse_document(_read(args.file))
    if args.weights:
        weights = parse_weights_file(_read(args.weights))

    entries = []
    for name, metric, universe in MEASURE_METRICS:
        table = weights.get(universe)
        provenance = {"universe": universe, "measure": "counting" if table is None else "weighted"}
        if table is not None:
            provenance["weights"] = {str(k): str(w) for k, w in table.items()}
        entries.append(_entry(name, metric(info, table), provenance))
    entries.append(_entry("delay", delay(info), {"basis": "atom-max"}))

    # Suitability is reported last but computed before the decoder is read, so that
    # a bad target's error wins over a bad decoder's.
    last = []
    if args.target:
        target_text = _read(args.target)
        target = parse_target(target_text)
        target_digest = text_digest(target_text)
        try:
            target_info = build(target)
        except ValidationError as exc:
            first = exc.diagnostics[0]
            skipped = "not an instance (%s: %s)" % (first.code, brief_ids(first.subjects))
        else:
            skipped = None if is_sub_information(target_info, info) else (
                "not a sub-information (the input lacks its link %s -> %s)"
                % _lacking_link(target_info, info))
        if skipped is None:
            value = coverage(
                info,
                target_info,
                mode=args.coverage_mode,
                brute_force=args.brute_force,
                guard=args.guard,
            )
            entries.append(_entry("coverage", value, {
                "mode": args.coverage_mode,
                "brute_force": args.brute_force,
                "target": target_digest,
            }))
        else:
            sys.stderr.write("note: target is %s; coverage skipped\n" % skipped)
        suit_weights = tuple(args.suit_weights or EQUAL_WEIGHTS)
        last.append(_entry("suitability", suitability(info, target, suit_weights), {
            "weights": [str(w) for w in suit_weights],
            "distance": JACCARD,
            "target": target_digest,
        }))

    if args.decoder:
        decoder_text = _read(args.decoder)
        mapping = parse_decoder(decoder_text)
        entries.append(_entry("validity", validity(info, mapping), {
            "decoder": mapping.kind,
            "distance": mapping.distance,
            "source": text_digest(decoder_text),
        }))

    entries += last
    if args.out == "table":
        width = max(len(e["name"]) for e in entries) + 2
        for e in entries:
            sys.stdout.write("%-*s %-12s %s\n" % (width, e["name"], e["value"], e["approx"]))
    else:
        _report(tool="oit %s" % __version__, instance=instance_digest(info), metrics=entries)
    return 0


def _lacking_link(target, info) -> tuple:
    """The smallest link of ``target`` whose content ``info`` lacks, its ids through ``brief``."""
    states, reflections = target.state_by_id, target.reflection_by_id
    a, b = min((a, b) for a, b in target.links
               if (states[a].identity, reflections[b].identity) not in info.link_identities)
    return brief(a), brief(b)


def cmd_atoms(args) -> int:
    info, _ = parse_document(_read(args.file))
    _report(instance=instance_digest(info),
            atoms=[{"from": a, "to": b} for a, b in sorted(info.links)])
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
    _report(instance=instance_digest(info), target=instance_digest(target), mode=args.mode,
            brute_force=args.brute_force, **_exact("coverage", value))
    return 0


def cmd_entropy(args) -> int:
    value = shannon_entropy(args.probs, base=args.base, k=args.k)
    sys.stdout.write("%r\n" % value)
    return 0


def cmd_hartley(args) -> int:
    value = hartley_information(args.n, args.s, base=args.base)
    sys.stdout.write("%r\n" % value)
    return 0


def cmd_demo_shannon(args) -> int:
    demo = volume_entropy_demo(args.probs, args.n, args.seed)
    _report(alphabet=demo.alphabet_size, n=demo.length, seed=demo.seed,
            message=list(demo.message), volume=demo.volume, hartley=demo.hartley,
            entropy_bound=demo.entropy_bound, instance=instance_digest(demo.info))
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


# A usage error longer than this keeps only its head and its tail: argparse
# echoes the offending argument, which may be of any length.
USAGE_BOUND = 400


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, and its subparsers', stay bounded."""

    def error(self, message):
        if len(message) > USAGE_BOUND:
            half = (USAGE_BOUND - 3) // 2
            message = message[:half] + "..." + message[-half:]
        super().error(message)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _int(text: str) -> int:
    """A command-line integer: ASCII digits after an optional sign.  ``int`` alone
    also takes ``1_0``, ``" 7 "`` and non-ASCII digits; its digit limit applies."""
    try:
        if _INTEGER.fullmatch(text):
            return int(text)
    except ValueError:  # more digits than int reads
        pass
    raise argparse.ArgumentTypeError("invalid int value: %r" % text)


def _float(text: str) -> float:
    """A command-line float: a literal of the one number grammar, read exactly and
    rounded once; one beyond the float range is refused.  ``float`` alone also
    takes ``1_0``, padding, non-ASCII digits, ``nan`` and ``inf``."""
    try:
        return float(read_fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError("invalid float value: %r" % text) from None


def _probs(text: str) -> tuple:
    """A ``--probs`` value: comma-separated command-line floats; an empty item is skipped."""
    return tuple(_float(item) for item in text.split(",") if item)


def _number(text: str) -> Fraction:
    """A command-line exact number: a literal of the one number grammar."""
    try:
        return read_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid number value: %r" % text) from None


def _guard(text: str) -> int:
    """A ``--guard`` value: an int of at least 0."""
    guard = _int(text)
    if guard < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %s" % brief(text))
    return guard


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--suit-weights", nargs=6, metavar="W", type=_number,
                   help="six suitability weights")
    p.add_argument("--coverage-mode", choices=COVERAGE_MODES, default=REPLICA)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--guard", type=_guard, default=DEFAULT_GUARD)
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
    p.add_argument("--mode", choices=COVERAGE_MODES, default=REPLICA)
    p.add_argument("--brute-force", action="store_true")
    p.add_argument("--guard", type=_guard, default=DEFAULT_GUARD)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("entropy", help="Shannon entropy of a probability vector")
    p.add_argument("--probs", type=_probs, required=True, help="comma separated probabilities")
    p.add_argument("--base", type=_float, default=2.0)
    p.add_argument("--k", type=_float, default=1.0)
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("hartley", help="log-count information of n symbols over s")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--s", type=_int, required=True)
    p.add_argument("--base", type=_float, default=2.0)
    p.set_defaults(func=cmd_hartley)

    p = sub.add_parser("demo", help="demonstrations")
    demo_sub = p.add_subparsers(dest="demo", required=True)
    q = demo_sub.add_parser("shannon", help="fixed-length coding volume demo")
    q.add_argument("--probs", type=_probs, required=True)
    q.add_argument("--n", type=_int, required=True)
    q.add_argument("--seed", type=_int, required=True)
    q.set_defaults(func=cmd_demo_shannon)

    p = sub.add_parser("gen", help="generate a seeded synthetic instance")
    defaults = Profile()
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("--entities", type=_int, default=defaults.entities)
    p.add_argument("--media", type=_int, default=defaults.media)
    p.add_argument("--tick-span", type=_int, default=defaults.tick_span)
    p.add_argument("--replication", type=_int, default=defaults.replication)
    p.add_argument("--aggregation", type=_float, default=defaults.aggregation)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValidationError as exc:
        for diag in exc.diagnostics:
            sys.stderr.write("%s: %s\n" % (diag.code, diag.message))
        return 1
    except (OitError, OSError, ValueError, ArithmeticError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except MemoryError:  # its message is empty
        sys.stderr.write("error: out of memory\n")
        return 1


def main() -> None:
    # A short-lived process of acyclic, immutable data: the cyclic collector
    # would only walk the whole live instance, again and again, and free nothing.
    gc.disable()
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
