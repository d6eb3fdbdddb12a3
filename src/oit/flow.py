"""Time- and replication-sensitive metrics: delay, synonymy and coverage.

Coverage ships in two modes because the two natural readings disagree:

* ``union``: the fraction of the carrier taken by the media of every
  sub-information synonymous with the target pooled together.  This reading
  is monotone non-decreasing in the target.
* ``replica`` (default): the fraction of media that each individually host
  the target's full content.  On instances where every reflection record
  has a single source this is monotone non-increasing in the target.

Two sub-informations are synonymous when they render the same state
records, possibly on different carriers, so the class of a target is the
set of link subsets whose induced state set equals the target's.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from .model import Information, OitError, brief_repr, is_sub_information, restrict_links

DEFAULT_GUARD = 15


class EnumerationGuardExceeded(OitError):
    """An exhaustive enumeration would exceed the configured guard."""


UNION = "union"
REPLICA = "replica"
COVERAGE_MODES = (UNION, REPLICA)


def delay(info: Information) -> int:
    """Worst lag over all atoms; negative values mean prediction."""
    return max(
        info.reflection_by_id[b].tick - info.state_by_id[a].tick
        for a, b in info.links
    )


def _target_state_ids(info: Information, target: Information) -> frozenset:
    if not is_sub_information(target, info):
        raise ValueError("target is not a sub-information of the instance")
    return frozenset(
        info.state_id_by_identity[identity] for identity in target.state_identities
    )


def _nonempty_subsets(items):
    items = list(items)
    for size in range(1, len(items) + 1):
        yield from combinations(items, size)


def synonymy_class(
    info: Information, target: Information, guard: int = DEFAULT_GUARD
) -> list:
    """Every sub-information of ``info`` that renders the target's states.

    Exhaustive over link subsets; only links leaving a target state can
    appear in a member, so the enumeration is limited to those.  The target
    itself is always a member.
    """
    wanted = _target_state_ids(info, target)
    relevant = [(a, b) for a in sorted(wanted) for b in info.successors[a]]
    if len(relevant) > guard:
        raise EnumerationGuardExceeded(
            "instance too large for exhaustive synonymy (%d links over guard %d)"
            % (len(relevant), guard)
        )
    members = []
    for subset in _nonempty_subsets(relevant):
        if {a for a, _ in subset} == wanted:
            members.append(restrict_links(info, subset))
    return members


def _union_media_fast(info: Information, wanted: frozenset) -> frozenset:
    successors = info.successors
    return frozenset(
        t for a in wanted for rid in successors[a] for t in info.reflection_by_id[rid].media
    )


def _union_media_brute(info: Information, target: Information, guard: int) -> frozenset:
    media: set = set()
    for member in synonymy_class(info, target, guard=guard):
        media |= member.carrier
    return frozenset(media)


def _replica_media(info: Information, wanted: frozenset) -> set:
    """The media on which the records whose sources all lie among the ``wanted``
    states together reach every one of them.  Such a record is linked from a
    wanted state, so only those records are read."""
    reached = {b for a, b in info.links if a in wanted}
    sources: dict = {}  # each reached record -> all its source states
    for a, b in info.links:
        if b in reached:
            sources.setdefault(b, set()).add(a)
    covered: dict = {}  # medium -> the wanted states its qualifying records reach
    for rid, found in sources.items():
        if found <= wanted:
            for medium in info.reflection_by_id[rid].media:
                covered.setdefault(medium, set()).update(found)
    return {medium for medium, states in covered.items() if states == wanted}


def _replica_media_brute(info: Information, wanted: frozenset, guard: int) -> set:
    preimages = info.predecessors
    hosted: dict = {}
    for rec in info.reflections:
        for medium in rec.media:
            hosted.setdefault(medium, []).append(rec.id)
    good = set()
    for medium in info.carrier:
        records = hosted[medium]
        if len(records) > guard:
            raise EnumerationGuardExceeded(
                "instance too large for exhaustive synonymy (%d records over guard %d)"
                % (len(records), guard)
            )
        for subset in _nonempty_subsets(records):
            if set().union(*(preimages[r] for r in subset)) == wanted:
                good.add(medium)
                break
    return good


def coverage(
    info: Information,
    target: Information,
    mode: str = REPLICA,
    brute_force: bool = False,
    guard: int = DEFAULT_GUARD,
) -> Fraction:
    """Carrier fraction covering the target, under the chosen mode.

    The union fast path collects the media of every reflection record
    reached from a target state, which provably equals the brute-force
    union over the synonymy class: a member may keep any nonempty subset
    of each target state's links, so a reflection record joins some member
    exactly when one of its links leaves a target state.
    """
    if mode not in COVERAGE_MODES:
        raise ValueError("coverage mode must be 'union' or 'replica', got %s" % brief_repr(mode))
    wanted = _target_state_ids(info, target)
    denominator = len(info.carrier)
    if mode == UNION:
        if brute_force:
            media = _union_media_brute(info, target, guard)
        else:
            media = _union_media_fast(info, wanted)
        return Fraction(len(media), denominator)
    if brute_force:
        good = _replica_media_brute(info, wanted, guard)
    else:
        good = _replica_media(info, wanted)
    return Fraction(len(good), denominator)
