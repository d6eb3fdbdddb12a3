"""The member reader against ``json.loads`` on mutated document texts.

``serialize`` reads every document, instance, target, decoder or weights, one
top-level member at a time, and leaves every text its loop does not take
cleanly to json's own decoder.  On any text the two must agree: the same
value, or the same error type and message.  Only for a text that names a
member twice in one object is the rule narrowed: the value is still json's, the
last of a repeated name winning, but the reader must mark each such object,
and only those, as repeating that name, for the document readers to refuse.
The reader reads no member of a text it leaves to json, so json must decode no
such text to an object with members.  json's messages differ between CPython
versions, so this check runs under each of them, and it needs no pytest.  From
the repository root::

    PYTHONPATH=src python -m tests.reader_differential [COUNT]

It names every text that differs, whose repeated names are marked otherwise
than json reads them, or that json decodes to an object with members the loop
did not take, and exits 1 if any does.
"""

from __future__ import annotations

import json
import random
import sys

from oit.serialize import _MemberReader, _NotTaken, _Repeated

from .paths import FIXTURES

# Each top-level slot's text: what json reads, then faults such as a trailing
# comma, a missing or doubled separator, an unquoted name or extra data.
SEPARATORS = ((", ", ",\n  ", ",", " , "), (",,", " ", ";", ""))
COLONS = ((": ", ":", " :\t"), ("", "::", "="))
NAMES = (('"%s"',), ("%s", "'%s'", '"%s\\"'))
CLOSINGS = (("}", "\n}\n", "}\r\n"), (",}", ", }", ",\n}", "", "}}", "} {}", "}\x0b"))
# Pieces put at random places: structural characters, whitespace json takes and
# whitespace it does not, a BOM, escapes, lenient and invalid literals, and an
# integer beyond the digit limit.
PIECES = ("{", "}", "[", "]", ",", ":", '"', "\\", " ", "\t", "\n", "\r", "\x0b", "\u00a0",
          "\ufeff", "\x00", "\ud800", "NaN", "-Infinity", "1e400", "-0", "0x1", "nul",
          "9" * 4301, '"version": 1, ', '"links": [], ')
# Nesting depths of one member's value.  A member value starts one C level
# shallower in the member loop than in ``json.loads``, so depths stay off the
# recursion limit: far below it, or far beyond it.
DEPTHS = (1, 2, 60, 200, 100_000)
TOP_LEVELS = ("[%s]", "[]", '"text"', "5", "null", "{}", "", " \n", "%s %s")


def base_members() -> list:
    """The (name, value) members of the instance and decoder fixtures, of ex1
    with weights, and of the weights fixture's bare table, which no document
    reader accepts but which stays as a plain JSON seed."""
    docs = [json.loads((FIXTURES / name).read_text()) for name in (
        "ex1.json", "ex1_s1r1.json", "decoder_const_s1.json", "decoder_preimage.json")]
    weights = json.loads((FIXTURES / "weights_ex1.json").read_text())
    docs += [dict(docs[0], **weights), weights["weights"]]
    return [list(doc.items()) for doc in docs]


def _slot(rng: random.Random, texts: tuple, fault: float = 0.03) -> str:
    """One of a slot's good texts, or with probability ``fault`` one of its faults."""
    return rng.choice(texts[rng.random() < fault])


def mutated_text(rng: random.Random, bases: list) -> str:
    """A document text with repeated names, a deeply nested value, bad separators,
    a BOM, another top level or random edits, each as ``rng`` chooses."""
    members = [(name, json.dumps(value)) for name, value in rng.choice(bases)]
    for _ in range(rng.randrange(3)):  # a repeated name, often with another member's value
        members.append((rng.choice(members)[0], rng.choice(members)[1]))
    if rng.random() < 0.2:
        i, depth = rng.randrange(len(members)), rng.choice(DEPTHS)
        members[i] = (members[i][0], "[" * depth + members[i][1] + "]" * depth)
    parts = [_slot(rng, NAMES) % name + _slot(rng, COLONS) + value for name, value in members]
    text = "{" + parts[0] + "".join(_slot(rng, SEPARATORS) + part for part in parts[1:])
    text += _slot(rng, CLOSINGS, fault=0.2)
    if rng.random() < 0.1:
        text = "\ufeff" + text
    if rng.random() < 0.1:
        top = rng.choice(TOP_LEVELS)
        text = top.replace("%s", text) if "%s" in top else top
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.6:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        else:
            text = text[:at] + text[at + rng.randrange(1, 4):]
    return text


def read_members(text: str):
    """The member reader's decoding, each value kept as it is."""
    return json.loads(text, cls=_MemberReader, read=lambda name, value: value)


def taken(text: str) -> bool:
    """Whether the member loop reads ``text`` without leaving it to json."""
    try:
        _MemberReader(lambda name, value: value)._members(text)
    except (_NotTaken, ValueError, RecursionError):
        return False
    return True


def untaken_object(text: str) -> bool:
    """Whether json decodes ``text`` to an object with members although the
    member loop does not take it, so that the reader would read none of them."""
    if taken(text):
        return False
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return False
    return type(doc) is dict and bool(doc)


def json_repeats(text: str) -> list:
    """The first repeated name of each object that json reads from ``text`` and
    that names a member twice, sorted; none for a text json does not decode."""
    found = []

    def pairs(members):
        seen = set()
        for name, _ in members:
            if name in seen:
                found.append(name)
                break
            seen.add(name)
        return dict(members)

    try:
        json.loads(text, object_pairs_hook=pairs)
    except (ValueError, RecursionError):
        return []
    return sorted(found)


def marked_repeats(value) -> list:
    """The names that the objects in a decoded ``value`` are marked as repeating, sorted."""
    found, stack = [], [value]
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            if type(value) is _Repeated:
                found.append(value.name)
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return sorted(found)


def repeats_differ(text: str) -> bool:
    """Whether the member reader marks other repeated names in ``text`` than json reads."""
    try:
        marked = marked_repeats(read_members(text))
    except (ValueError, RecursionError):
        marked = []
    return marked != json_repeats(text)


def outcome(decode, text: str) -> tuple:
    """What ``decode(text)`` gives: ("value", its repr), or the error's type and message."""
    try:
        return "value", repr(decode(text))
    except (ValueError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    count = int(argv[0]) if argv else 10000
    bases, differ, read, untaken, repeating = base_members(), 0, 0, 0, 0
    for seed in range(count):
        text = mutated_text(random.Random(seed), bases)
        read += taken(text)
        repeating += bool(json_repeats(text))
        expected, got = outcome(json.loads, text), outcome(read_members, text)
        if got != expected:
            differ += 1
            print("seed %d: json.loads gives %.80r, the member reader %.80r" % (seed, expected, got))
        elif repeats_differ(text):
            differ += 1
            print("seed %d: repeated names %r, marked %r" % (
                seed, json_repeats(text), marked_repeats(read_members(text))))
        if untaken_object(text):
            untaken += 1
            print("seed %d: an object with members left to json: %.80r" % (seed, text))
    print("%d texts read member by member" % read)
    print("%d texts name a member twice in one object" % repeating)
    print("%d untaken texts decode to a non-empty object" % untaken)
    print("%d of %d texts differ" % (differ, count))
    return 1 if differ or untaken else 0


if __name__ == "__main__":
    sys.exit(main())
