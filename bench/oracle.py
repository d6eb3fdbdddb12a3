"""Plain-Python reference for the benchmark's correctness checks.

Nothing here imports ``oit``: every expected value is recomputed from the
documents' JSON, straight from the metric definitions, so a defect in the
library cannot also hide in its own reference.  Measures are counting
measures unless a weights table is given; values are exact ``Fraction``s.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

EQUAL_WEIGHT = Fraction(1, 6)


def digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def canonical_text(doc: dict) -> str:
    """The canonical instance text: sorted keys, two-space indent, one newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _value_key(value) -> str:
    return json.dumps(value, sort_keys=True)


def identity(rec: dict, tokens: str) -> tuple:
    """Content triple of a record: token set, tick and value."""
    return (frozenset(rec[tokens]), rec["tick"], _value_key(rec["value"]))


class Doc:
    """An instance document, indexed for the reference computations."""

    def __init__(self, doc: dict):
        self.raw = doc
        self.states = {r["id"]: r for r in doc["state_records"]}
        self.reflections = {r["id"]: r for r in doc["reflection_records"]}
        self.links = sorted({(l["from"], l["to"]) for l in doc["links"]})
        self.declared_entities = frozenset(doc["entities"])
        self.declared_media = frozenset(doc["media"])

    @classmethod
    def load(cls, data) -> Doc:
        return cls(json.loads(data))

    @property
    def ontology(self) -> frozenset:
        return frozenset(e for r in self.states.values() for e in r["entities"])

    @property
    def carrier(self) -> frozenset:
        return frozenset(m for r in self.reflections.values() for m in r["media"])

    def state_identities(self) -> frozenset:
        return frozenset(identity(r, "entities") for r in self.states.values())

    def reflection_identities(self) -> frozenset:
        return frozenset(identity(r, "media") for r in self.reflections.values())

    def link_identities(self) -> frozenset:
        return frozenset(
            (identity(self.states[a], "entities"), identity(self.reflections[b], "media"))
            for a, b in self.links
        )


def _measure(elements, table) -> Fraction:
    elements = set(elements)
    if table is None:
        return Fraction(len(elements))
    return sum((Fraction(table[str(e)]) for e in elements), Fraction(0))


def jaccard(a, b) -> Fraction:
    a, b = frozenset(a), frozenset(b)
    if not a and not b:
        return Fraction(0)
    return 1 - Fraction(len(a & b), len(a | b))


def _wanted_ids(doc: Doc, target: Doc) -> set:
    by_identity = {identity(r, "entities"): sid for sid, r in doc.states.items()}
    return {by_identity[i] for i in target.state_identities()}


def coverage(doc: Doc, target: Doc, mode: str) -> Fraction:
    """Share of the carrier covering the target's states.

    Union: media of every record a target state links to.  Replica: media
    on which some set of hosted records renders exactly the target states;
    such a set can only use records whose sources all lie in the target,
    so it exists iff those records together reach every target state.
    """
    wanted = _wanted_ids(doc, target)
    if mode == "union":
        media = {m for a, b in doc.links if a in wanted for m in doc.reflections[b]["media"]}
        return Fraction(len(media), len(doc.carrier))
    sources: dict = {}
    for a, b in doc.links:
        sources.setdefault(b, set()).add(a)
    reached: dict = {}
    for rid, rec in doc.reflections.items():
        if sources[rid] <= wanted:
            for m in rec["media"]:
                reached.setdefault(m, set()).update(sources[rid])
    good = sum(1 for m in doc.carrier if reached.get(m) == wanted)
    return Fraction(good, len(doc.carrier))


def is_sub_instance(target: Doc, doc: Doc) -> bool:
    return target.link_identities() <= doc.link_identities()


def validity(doc: Doc, decoder: dict) -> Fraction:
    """Jaccard distance between the states and what the decoder claims."""
    if decoder.get("distance", "jaccard") != "jaccard":
        raise ValueError("the reference knows the jaccard distance only")
    if decoder["kind"] == "preimage":
        claimed = {identity(doc.states[a], "entities") for a, _ in doc.links}
    else:
        table = {
            identity(e["reflection"], "media"): identity(e["state"], "entities")
            for e in decoder["entries"]
        }
        claimed = {table[identity(r, "media")] for r in doc.reflections.values()}
    return jaccard(doc.state_identities(), claimed)


def suitability(doc: Doc, target: Doc) -> Fraction:
    """Equal-weight sum of the six component distances to the target."""

    def ticks(records):
        return {r["tick"] for r in records.values()}

    parts = (
        jaccard(doc.ontology, target.declared_entities),
        jaccard(ticks(doc.states), ticks(target.states)),
        jaccard(doc.state_identities(), target.state_identities()),
        jaccard(doc.carrier, target.declared_media),
        jaccard(ticks(doc.reflections), ticks(target.reflections)),
        jaccard(doc.reflection_identities(), target.reflection_identities()),
    )
    return sum((EQUAL_WEIGHT * d for d in parts), Fraction(0))


def metric_values(doc: Doc, weights=None, target: Doc | None = None, decoder=None,
                  mode: str = "replica") -> dict:
    """Every metric ``oit metrics`` reports for these inputs, by name."""
    w = weights or {}
    values = {
        "scope": _measure(doc.ontology, w.get("entities")),
        "granularity": max(
            _measure(r["entities"], w.get("entities")) for r in doc.states.values()
        ),
        "sustainability": _measure(
            (r["tick"] for r in doc.states.values()), w.get("ticks")
        ),
        "richness": _measure(doc.states, w.get("state_records")),
        "volume": _measure(doc.carrier, w.get("media")),
        "delay": max(
            doc.reflections[b]["tick"] - doc.states[a]["tick"] for a, b in doc.links
        ),
    }
    if target is not None:
        if is_sub_instance(target, doc):
            values["coverage"] = coverage(doc, target, mode)
        values["suitability"] = suitability(doc, target)
    if decoder is not None:
        values["validity"] = validity(doc, decoder)
    return values


def _canonical_doc(states, reflections, links) -> dict:
    states = sorted(states, key=lambda r: r["id"])
    reflections = sorted(reflections, key=lambda r: r["id"])
    return {
        "version": 1,
        "entities": sorted({e for r in states for e in r["entities"]}),
        "media": sorted({m for r in reflections for m in r["media"]}),
        "state_records": [
            {"id": r["id"], "entities": sorted(r["entities"]), "tick": r["tick"],
             "value": r["value"]}
            for r in states
        ],
        "reflection_records": [
            {"id": r["id"], "media": sorted(r["media"]), "tick": r["tick"],
             "value": r["value"]}
            for r in reflections
        ],
        "links": [{"from": a, "to": b} for a, b in sorted(set(links))],
    }


def induced(doc: Doc, links) -> dict:
    """The sub-instance spanned by a set of the document's links."""
    links = set(links)
    return _canonical_doc(
        (doc.states[a] for a in {a for a, _ in links}),
        (doc.reflections[b] for b in {b for _, b in links}),
        links,
    )


def restrict_by_tick(doc: Doc, keep) -> dict:
    """The sub-instance of every link whose state tick passes ``keep``."""
    return induced(doc, [(a, b) for a, b in doc.links if keep(doc.states[a]["tick"])])


def identity_relay(doc: Doc, media_map: dict) -> dict:
    """One relay state per reflection, carried on mapped media."""
    states, reflections, links = [], [], []
    for rid, rec in doc.reflections.items():
        states.append({"id": "t_" + rid, "entities": rec["media"], "tick": rec["tick"],
                       "value": rec["value"]})
        reflections.append({"id": "y_" + rid, "media": [media_map[m] for m in rec["media"]],
                            "tick": rec["tick"], "value": rec["value"]})
        links.append(("t_" + rid, "y_" + rid))
    return _canonical_doc(states, reflections, links)


def compose(first: Doc, second: Doc) -> dict:
    """First stage's states, second stage's reflections, chained links."""
    by_identity = {identity(r, "entities"): sid for sid, r in second.states.items()}
    onward: dict = {}
    for x, y in second.links:
        onward.setdefault(x, set()).add(y)
    links = {
        (a, c)
        for a, b in first.links
        for c in onward[by_identity[identity(first.reflections[b], "media")]]
    }
    return _canonical_doc(first.states.values(), second.reflections.values(), links)


def entropy(probs) -> float:
    return -sum(p * math.log2(p) for p in probs if p > 0)


def hartley(n: int, s: int) -> float:
    return n * math.log2(s)


def coding_demo(probs, n: int, seed: int) -> dict:
    """The fixed-length coding demo report, with its instance's digest."""
    s = len(probs)
    message = random.Random(seed).choices(range(s), weights=probs, k=n)
    bits = (s - 1).bit_length()
    states, reflections, links = [], [], []
    for i, symbol in enumerate(message, start=1):
        states.append({"id": "p%d" % i, "entities": ["pos%d" % i], "tick": i, "value": symbol})
        for j in range(bits):
            rid = "c%d_%d" % (i, j)
            reflections.append({"id": rid, "media": ["cell_%d_%d" % (i, j)], "tick": i,
                                "value": (symbol >> j) & 1})
            links.append(("p%d" % i, rid))
    text = canonical_text(_canonical_doc(states, reflections, links))
    return {
        "alphabet": s,
        "n": n,
        "seed": seed,
        "message": message,
        "volume": n * bits,
        "hartley": hartley(n, s),
        "entropy_bound": n * entropy(probs),
        "instance": digest(text.encode()),
    }
