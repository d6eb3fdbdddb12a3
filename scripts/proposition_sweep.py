#!/usr/bin/env python3
"""Sweep the monotonicity propositions over seeded synthetic instances.

For each seed: generate an instance, carve a random sub-information out of
it, and check that the five measure metrics plus delay are monotone, under
both counting and randomly weighted measures.  Prints one summary line per
proposition.

Usage: proposition_sweep.py [N_SEEDS] [BASE_SEED]
"""

from __future__ import annotations

import pathlib
import random
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oit import (  # noqa: E402
    Profile,
    delay,
    generate_synthetic,
    granularity,
    random_link_subset,
    restrict_links,
    richness,
    scope,
    sustainability,
    volume,
)

METRICS = {
    "scope <= (P1)": lambda info, w: scope(info, w["entities"]),
    "granularity <= (P2)": lambda info, w: granularity(info, w["entities"]),
    "sustainability <= (P3)": lambda info, w: sustainability(info, w["ticks"]),
    "richness <= (P4)": lambda info, w: richness(info, w["state_records"]),
    "volume <= (P5)": lambda info, w: volume(info, w["media"]),
    "delay <= (P6)": lambda info, w: delay(info),
}


def random_measures(info, rng):
    def table(keys):
        return {k: Fraction(rng.randint(0, 12), rng.randint(1, 6)) for k in keys}

    return {
        "entities": table(info.ontology),
        "ticks": table(info.occurrence_ticks),
        "state_records": table(r.id for r in info.states),
        "media": table(info.carrier),
    }


def counting_measures():
    return dict.fromkeys(("entities", "ticks", "state_records", "media"))


def main() -> None:
    n_seeds = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    base = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    violations = {name: 0 for name in METRICS}

    for seed in range(base, base + n_seeds):
        info = generate_synthetic(seed, Profile())
        rng = random.Random(seed ^ 0x5EED)
        sub = restrict_links(info, random_link_subset(info, rng))
        for measures in (counting_measures(), random_measures(info, rng)):
            for name, metric in METRICS.items():
                if metric(sub, measures) > metric(info, measures):
                    violations[name] += 1

    width = max(len(n) for n in METRICS) + 2
    print("seeds: %d (base %d), counting + random weighted measures" % (n_seeds, base))
    for name, count in violations.items():
        print("%-*s %s" % (width, name, "ok" if count == 0 else "%d VIOLATIONS" % count))
    sys.exit(1 if any(violations.values()) else 0)


if __name__ == "__main__":
    main()
