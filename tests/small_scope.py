"""Exhaustive small-scope check of coverage: each fast path against its oracle.

Most faults show on a small instance, so this check walks every target of
small instances rather than a random draw of large ones.  The family is ex1
and the seeded ``generate_synthetic`` instances of one small profile.  Every
nonempty link subset of an instance induces a sub-information, and each one
is taken as a target.  For each target it compares:

* fast with brute-force coverage, in the ``union`` and ``replica`` modes;
* the brute-force union, which pools each member's media as the walk yields
  it, with the pooled carriers of the members ``synonymy_class`` builds.

It needs no pytest.  From the repository root::

    PYTHONPATH=src python -m tests.small_scope [--seeds N] [--entities E] [--media M]

It names every mismatch and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from itertools import combinations

from oit import (
    Profile,
    coverage,
    example_instance,
    generate_synthetic,
    restrict_links,
    synonymy_class,
)
from oit.flow import COVERAGE_MODES, UNION

SEEDS, ENTITIES, MEDIA = 120, 2, 2


def instances(seeds: int = SEEDS, entities: int = ENTITIES, media: int = MEDIA):
    """(name, instance) for ex1 and for seeds 0 .. seeds - 1 of the profile."""
    yield "ex1", example_instance()
    profile = Profile(entities=entities, media=media, tick_span=2, replication=2)
    for seed in range(seeds):
        yield "seed %d" % seed, generate_synthetic(seed, profile)


def mismatches(info) -> tuple:
    """The number of targets of ``info`` walked, and (links, what) for each
    target on which two readings differ."""
    # Every walk chooses among the target's links or one medium's records,
    # never more than the instance's links.
    guard = len(info.links)
    links = sorted(info.links)
    found = []
    walked = 0
    for size in range(1, len(links) + 1):
        for subset in combinations(links, size):
            walked += 1
            target = restrict_links(info, subset)
            brute = {}
            for mode in COVERAGE_MODES:
                fast = coverage(info, target, mode)
                brute[mode] = coverage(info, target, mode, brute_force=True, guard=guard)
                if fast != brute[mode]:
                    found.append((subset, "%s: fast %s, brute force %s"
                                  % (mode, fast, brute[mode])))
            members = synonymy_class(info, target, guard)
            pooled = Fraction(len(set().union(*(m.carrier for m in members))),
                              len(info.carrier))
            if brute[UNION] != pooled:
                found.append((subset, "union: streamed %s, pooled members %s"
                              % (brute[UNION], pooled)))
    return walked, found


def check(seeds: int = SEEDS, entities: int = ENTITIES, media: int = MEDIA) -> tuple:
    """The instances and targets walked, and (instance name, links, what) for
    each mismatch."""
    n_instances = n_targets = 0
    found = []
    for name, info in instances(seeds, entities, media):
        walked, bad = mismatches(info)
        n_instances += 1
        n_targets += walked
        found += [(name, subset, what) for subset, what in bad]
    return n_instances, n_targets, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=SEEDS,
                        help="generated instances, seeds 0 .. N - 1 (default %d)" % SEEDS)
    parser.add_argument("--entities", type=int, default=ENTITIES,
                        help="entities of the profile (default %d)" % ENTITIES)
    parser.add_argument("--media", type=int, default=MEDIA,
                        help="media of the profile (default %d)" % MEDIA)
    args = parser.parse_args(argv)
    n_instances, n_targets, found = check(args.seeds, args.entities, args.media)
    for name, subset, what in found:
        print("%s, target %s: %s" % (name, sorted(subset), what))
    print("%d mismatches over %d targets of %d instances"
          % (len(found), n_targets, n_instances))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
