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

from enum import Enum
from fractions import Fraction
from itertools import combinations
from .model import Information, OitError, is_sub_information, restrict_links

DEFAULT_GUARD = 15


class EnumerationGuardExceeded(OitError):
    """An exhaustive enumeration would exceed the configured guard."""


class CoverageMode(str, Enum):
    UNION = "union"
    REPLICA = "replica"


def delay(info: Information) -> int:
    """Worst lag over all atoms; negative values mean prediction."""
    return max(
        info.reflection_by_id[b].tick - info.state_by_id[a].tick
        for a, b in info.relation
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
    relevant = sorted(p for p in info.links if p[0] in wanted)
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
    reachable = {b for a, b in info.relation if a in wanted}
    return frozenset(
        t for rid in reachable for t in info.reflection_by_id[rid].media
    )


def _union_media_brute(info: Information, target: Information, guard: int) -> frozenset:
    media: set = set()
    for member in synonymy_class(info, target, guard=guard):
        media |= member.carrier
    return frozenset(media)


def _replica_media(info: Information, wanted: frozenset, brute_force: bool, guard: int) -> set:
    preimages = {}
    for a, b in info.relation:
        preimages.setdefault(b, set()).add(a)
    hosted: dict = {}
    for rec in info.reflections:
        for medium in rec.media:
            hosted.setdefault(medium, []).append(rec.id)
    good = set()
    for medium in info.carrier:
        records = hosted.get(medium, [])
        if brute_force:
            if len(records) > guard:
                raise EnumerationGuardExceeded(
                    "instance too large for exhaustive synonymy (%d records over guard %d)"
                    % (len(records), guard)
                )
            for subset in _nonempty_subsets(records):
                if set().union(*(preimages[r] for r in subset)) == wanted:
                    good.add(medium)
                    break
        else:
            covered: set = set()
            for rid in records:
                if preimages[rid] <= wanted:
                    covered |= preimages[rid]
            if covered == wanted:
                good.add(medium)
    return good


def coverage(
    info: Information,
    target: Information,
    mode: CoverageMode | str = CoverageMode.REPLICA,
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
    mode = CoverageMode(mode)
    wanted = _target_state_ids(info, target)
    denominator = len(info.carrier)
    if mode is CoverageMode.UNION:
        if brute_force:
            media = _union_media_brute(info, target, guard)
        else:
            media = _union_media_fast(info, wanted)
        return Fraction(len(media), denominator)
    good = _replica_media(info, wanted, brute_force, guard)
    return Fraction(len(good), denominator)
