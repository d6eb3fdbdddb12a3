"""Classical quantity-of-information utilities and the coding demo.

The demo ties the carrier-volume metric to the classical quantities: a
seeded message is laid out as one state record per position, each encoded
into fixed-length binary code cells (one medium per cell), so the counting
volume is exactly the number of cells.  It is reported beside the log-count
value and the entropy bound, which it dominates only for an exactly
normalised vector, and no inequality is checked.
"""

from __future__ import annotations

import math
import random
from . import measures
from .model import (Frozen, Information, OitError, ReflectionRecord, StateRecord, _information,
                    _is_real, brief_ids, brief_repr)

PROB_TOL = 1e-9


class DistributionError(OitError):
    """The probability vector violates an invariant."""


class Distribution(Frozen):
    """A finite probability vector."""

    __slots__ = ()

    def __new__(cls, probabilities: tuple):
        probs = tuple(probabilities)
        if not probs:
            raise DistributionError("distribution is empty")
        if not all(_is_real(p) and math.isfinite(p) for p in probs):
            raise DistributionError("probabilities must be finite numbers: (%s)"
                                    % brief_ids(probs, quote=repr))
        bad = [p for p in probs if p < 0]
        if bad:
            raise DistributionError("negative probabilities: [%s]" % brief_ids(bad))
        total = float(sum(probs))
        if abs(total - 1.0) > PROB_TOL:
            raise DistributionError("probabilities sum to %r, not 1" % total)
        return tuple.__new__(cls, (probs,))

    def __len__(self):
        return len(self.probabilities)


def _as_distribution(dist) -> Distribution:
    return dist if isinstance(dist, Distribution) else Distribution(tuple(dist))


def shannon_entropy(dist, base: float = 2.0, k: float = 1.0) -> float:
    """-k * sum(p * log_base(p)) with the 0 log 0 = 0 convention."""
    dist = _as_distribution(dist)
    if not _is_real(base) or not 1 < base < math.inf:
        raise ValueError("log base must exceed 1, got %s" % brief_repr(base))
    if not _is_real(k) or not 0 < k < math.inf:
        raise ValueError("scale k must be positive, got %s" % brief_repr(k))
    log_base = math.log(base)
    # 0.0 - x, not -x: a certain outcome has entropy 0.0, never -0.0.
    value = 0.0 - k * sum(
        float(p) * math.log(float(p)) / log_base for p in dist.probabilities if p > 0
    )
    if value == math.inf:
        raise OverflowError("k * H is too large for a float: k=%s, base=%s"
                            % (brief_repr(k), brief_repr(base)))
    return value


def hartley_information(n: int, s: int, base: float = 2.0) -> float:
    """n * log_base(s): the log count of length-n words over s symbols."""
    if type(n) is not int or type(s) is not int:  # NaN would pass both bounds below
        raise ValueError("n and s must be integers, got n=%s, s=%s"
                         % (brief_repr(n), brief_repr(s)))
    if n < 1:
        raise ValueError("word length n must be >= 1, got %r" % n)
    if s < 2:
        raise ValueError("alphabet size s must be >= 2, got %r" % s)
    if not _is_real(base) or not 1 < base < math.inf:
        raise ValueError("log base must exceed 1, got %s" % brief_repr(base))
    try:
        value = n * math.log(s) / math.log(base)
    except OverflowError:  # n beyond the float range
        value = math.inf
    if value == math.inf:
        raise OverflowError("n * log(s) is too large for a float: n=%s, s=%s"
                            % (brief_repr(n), brief_repr(s)))
    return value


class CodingDemo(Frozen):
    """One seeded fixed-length coding run: the distribution, the seed, the message
    drawn and its coded instance.  ``alphabet_size``, ``length``, ``volume``,
    ``hartley`` and ``entropy_bound`` are properties derived from them."""

    __slots__ = ()

    def __new__(cls, dist: Distribution, seed: int, message: tuple, info: Information):
        return tuple.__new__(cls, (dist, seed, message, info))

    alphabet_size = property(lambda self: len(self.dist))
    length = property(lambda self: len(self.message))
    volume = property(lambda self: int(measures.volume(self.info)))
    hartley = property(lambda self: hartley_information(self.length, self.alphabet_size))
    entropy_bound = property(lambda self: self.length * shannon_entropy(self.dist))


def volume_entropy_demo(dist, n: int, seed: int) -> CodingDemo:
    """Encode a seeded n-symbol message and report its volume with the bounds.

    Each position becomes a state record on its own entity at tick i; each
    symbol is spelled into ceil(log2 S) single-medium code cells with unit
    weight, valid by construction.  The counting volume is n * ceil(log2 S):
    at least the log-count value, equal to it exactly when S is a power of
    two, and at least n * H(dist) when dist sums exactly to 1.
    """
    dist = _as_distribution(dist)
    s = len(dist)
    if s < 2:
        raise DistributionError("demo needs an alphabet of size >= 2")
    if type(n) is not int:
        raise ValueError("message length n must be an integer, got %s" % brief_repr(n))
    if n < 1:
        raise ValueError("message length n must be >= 1, got %r" % n)
    rng = random.Random(seed)
    weights = [float(p) for p in dist.probabilities]
    message = tuple(rng.choices(range(s), weights=weights, k=n))

    bits = (s - 1).bit_length()
    states = []
    reflections = []
    links = []
    for i, symbol in enumerate(message, start=1):
        sid = "p%d" % i
        states.append(StateRecord(sid, frozenset({"pos%d" % i}), i, symbol))
        for j in range(bits):
            rid = "c%d_%d" % (i, j)
            reflections.append(
                ReflectionRecord(rid, frozenset({"cell_%d_%d" % (i, j)}), i, (symbol >> j) & 1)
            )
            links.append((sid, rid))
    return CodingDemo(dist, seed, message, _information(states, reflections, links))
