"""Classical quantity-of-information utilities and the coding demo.

The demo ties the carrier-volume metric to the classical quantities: a
seeded message is laid out as one state record per position, each encoded
into fixed-length binary code cells (one medium per cell), so the counting
volume is exactly the number of cells and can be compared against the
log-count value and the entropy lower bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from .measures import counting, volume
from .model import Information, OitError, ReflectionRecord, StateRecord, assemble

PROB_TOL = 1e-9


class DistributionError(OitError):
    """The probability vector violates an invariant."""


@dataclass(frozen=True)
class Distribution:
    """A finite probability vector."""

    probabilities: tuple

    def __post_init__(self):
        probs = tuple(self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if not probs:
            raise DistributionError("distribution is empty")
        if not all(math.isfinite(p) for p in probs):
            raise DistributionError("probabilities must be finite numbers: %s" % (probs,))
        bad = [p for p in probs if p < 0]
        if bad:
            raise DistributionError("negative probabilities: %s" % bad)
        total = float(sum(probs))
        if abs(total - 1.0) > PROB_TOL:
            raise DistributionError("probabilities sum to %r, not 1" % total)

    def __len__(self):
        return len(self.probabilities)


def _as_distribution(dist) -> Distribution:
    return dist if isinstance(dist, Distribution) else Distribution(tuple(dist))


def shannon_entropy(dist, base: float = 2.0, k: float = 1.0) -> float:
    """-k * sum(p * log_base(p)) with the 0 log 0 = 0 convention."""
    dist = _as_distribution(dist)
    if base <= 1:
        raise ValueError("log base must exceed 1, got %r" % base)
    if k <= 0:
        raise ValueError("scale k must be positive, got %r" % k)
    log_base = math.log(base)
    return -k * sum(
        float(p) * math.log(float(p)) / log_base for p in dist.probabilities if p > 0
    )


def hartley_information(n: int, s: int, base: float = 2.0) -> float:
    """n * log_base(s): the log count of length-n words over s symbols."""
    if n < 1:
        raise ValueError("word length n must be >= 1, got %r" % n)
    if s < 2:
        raise ValueError("alphabet size s must be >= 2, got %r" % s)
    if base <= 1:
        raise ValueError("log base must exceed 1, got %r" % base)
    return n * math.log(s) / math.log(base)


@dataclass(frozen=True)
class CodingDemo:
    """Results of one seeded fixed-length coding run."""

    alphabet_size: int
    length: int
    seed: int
    message: tuple
    info: Information
    volume: int
    hartley: float
    entropy_bound: float


def volume_entropy_demo(dist, n: int, seed: int) -> CodingDemo:
    """Encode a seeded n-symbol message and compare volume with the bounds.

    Each position becomes a state record on its own entity at tick i; each
    symbol is spelled into ceil(log2 S) single-medium code cells with unit
    weight.  The counting volume is then n * ceil(log2 S), which always
    dominates both n * H(dist) and the log-count value, with equality to
    the latter exactly when S is a power of two.
    """
    dist = _as_distribution(dist)
    s = len(dist)
    if s < 2:
        raise DistributionError("demo needs an alphabet of size >= 2")
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
    info = assemble(states, reflections, links)

    vol = int(volume(info, counting("media")))
    hartley = hartley_information(n, s)
    bound = n * shannon_entropy(dist)
    if vol < bound - PROB_TOL:
        raise OitError("volume %r fell below the entropy bound %r" % (vol, bound))
    if vol < hartley - PROB_TOL:
        raise OitError("volume %r fell below the log-count value %r" % (vol, hartley))
    return CodingDemo(
        alphabet_size=s,
        length=n,
        seed=seed,
        message=message,
        info=info,
        volume=vol,
        hartley=hartley,
        entropy_bound=bound,
    )
