"""Stance-aware citation scores.

Two numbers summarize how an entity (a journal, an institution, a field) is
cited once each citation statement carries a stance class:

* ``usi(s, c) = s / (s + c)``: the share of valenced statements that are
  supporting, in [0, 1].  Mentioning statements do not enter.  Undefined
  when there are no valenced statements at all.
* ``si(r, u) = log_b(r * u**p)``: citation volume discounted by stance
  quality, with reference count ``r``, usi ``u``, exponent ``p`` (default 2)
  and logarithm base ``b`` (default 10).  Undefined when ``r`` or ``u`` is
  zero, and negative whenever ``r * u**p < 1``.

Undefined is spelled ``None`` rather than ``nan`` or a sentinel so that a
caller who forgets to handle it gets a loud TypeError instead of a quietly
wrong ranking.

``hs_index`` and ``pearson`` round out the toolbox: the former is an h-index
computed over supporting citations only, the latter a plain sample
correlation used to compare rankings against external scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DataError

__all__ = [
    "SiConfig",
    "DEFAULT_SI_CONFIG",
    "EntityTally",
    "usi",
    "si",
    "implied_references",
    "hs_index",
    "pearson",
]


@dataclass(frozen=True, slots=True)
class SiConfig:
    """Tunables of the impact-weighted score.

    ``exponent`` controls how hard stance quality discounts volume; raising
    it punishes contested work more.  ``log_base`` sets the scale of the
    score.  Both are validated here so every consumer can trust them.
    """

    exponent: float = 2.0
    log_base: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.exponent < math.inf:
            raise ValueError(f"exponent must be finite and > 0, got {self.exponent!r}")
        if not 1 < self.log_base < math.inf:
            raise ValueError(f"log_base must be finite and > 1, got {self.log_base!r}")


DEFAULT_SI_CONFIG = SiConfig()


@dataclass(slots=True)
class EntityTally:
    """Stance and reference counters for one entity."""

    supporting: int = 0
    mentioning: int = 0
    contrasting: int = 0
    references: int = 0

    def __post_init__(self) -> None:
        if min(self.supporting, self.mentioning, self.contrasting, self.references) < 0:
            raise ValueError(f"counters must be >= 0, got {self!r}")

    @property
    def valenced(self) -> int:
        """Statements that take a side: supporting plus contrasting."""
        return self.supporting + self.contrasting

    @property
    def statement_total(self) -> int:
        return self.supporting + self.mentioning + self.contrasting


def usi(supporting: int, contrasting: int) -> float | None:
    """Share of valenced citation statements that are supporting.

    Returns None when there are no valenced statements, 1.0 when nothing
    contrasts, 0.0 when nothing supports.
    """
    if supporting < 0 or contrasting < 0:
        raise ValueError("statement counts must be >= 0")
    valenced = supporting + contrasting
    if valenced == 0:
        return None
    return supporting / valenced


def si(references: int, usi_value: float, config: SiConfig = DEFAULT_SI_CONFIG) -> float | None:
    """Impact-weighted score: log_base(references * usi**exponent).

    Computed in log space as (log10(r) + p*log10(u)) / log10(b), which keeps
    the default base-10 path an exact division by 1.0 and avoids overflow
    for very large reference counts.  None when references or usi is zero.
    Raises DataError when a huge exponent drives the score past the float
    range, so no infinite score reaches a ranking or an export.
    """
    if references < 0:
        raise ValueError(f"references must be >= 0, got {references!r}")
    if not 0.0 <= usi_value <= 1.0:
        raise ValueError(f"usi must lie in [0, 1], got {usi_value!r}")
    if references == 0 or usi_value == 0.0:
        return None
    log10_value = math.log10(references) + config.exponent * math.log10(usi_value)
    value = log10_value / math.log10(config.log_base)
    if not math.isfinite(value):
        raise DataError(
            f"si is not finite ({value!r}) for references={references}, "
            f"usi={usi_value!r}, exponent={config.exponent!r}, log_base={config.log_base!r}"
        )
    return value


def implied_references(
    si_value: float, usi_value: float, config: SiConfig = DEFAULT_SI_CONFIG
) -> float:
    """Invert the impact-weighted score back to a reference count.

    The exact inverse of ``si`` over the reals: for usi > 0,
    ``si(implied_references(s, u), u)`` recovers ``s`` up to float rounding.
    Useful for sanity-checking reported scores against reported volumes.
    """
    if not 0.0 < usi_value <= 1.0:
        raise ValueError(f"usi must lie in (0, 1] to invert, got {usi_value!r}")
    return config.log_base**si_value / usi_value**config.exponent


def hs_index(supporting_counts: Iterable[int]) -> int:
    """Largest h such that at least h publications have >= h supporting citations.

    The usual h-index with citation counts replaced by per-publication
    supporting-statement counts.  Order of the input does not matter; an
    empty input gives 0.
    """
    counts = sorted(supporting_counts)
    if counts and counts[0] < 0:
        raise ValueError("supporting counts must be >= 0")
    n = len(counts)
    # counts[i] >= n - i is monotone in i (left side non-decreasing, right
    # side strictly decreasing), so the crossover can be binary-searched;
    # n - crossover is the largest h with h counts of at least h
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if counts[mid] >= n - mid:
            hi = mid
        else:
            lo = mid + 1
    return n - lo


def pearson(pairs: Sequence[tuple[float, float]]) -> float:
    """Sample Pearson correlation of (x, y) pairs, clamped to [-1, 1].

    Two-pass formula: means first, then centered products.  Each coordinate
    is first scaled by the power of two that brings its largest magnitude
    into [0.5, 1), so no sum overflows or underflows for any finite input;
    r does not change under that scaling, and power-of-two scaling is exact,
    so inputs of ordinary magnitude give the same bits as unscaled sums.
    Raises DataError for fewer than two pairs, for a coordinate that is nan
    or infinite, or when either coordinate is constant, because r is
    undefined there and a silent nan would poison reports (the clamp would
    turn it into 1).  Constancy is tested on the values themselves: a
    rounded mean can leave a constant coordinate with nonzero centered sums.
    """
    points = list(pairs)
    n = len(points)
    if n < 2:
        raise DataError(f"correlation needs at least 2 pairs, got {n}")
    for x, y in points:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DataError(f"correlation undefined: non-finite pair ({x!r}, {y!r})")
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    if min(xs) == max(xs) or min(ys) == max(ys):
        raise DataError("correlation undefined: a coordinate has zero variance")
    xs = _scaled(xs)
    ys = _scaled(ys)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = syy = sxy = 0.0
    for x, y in zip(xs, ys):
        dx = x - mean_x
        dy = y - mean_y
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    # after scaling, two distinct values differ by at least 2**-54, so both
    # sums of squares are positive
    r = sxy / math.sqrt(sxx * syy)
    # float rounding can push |r| a hair past 1; the mathematical value cannot be
    return max(-1.0, min(1.0, r))


def _scaled(values: list[float]) -> list[float]:
    """``values`` times the power of two that brings the largest magnitude
    into [0.5, 1)."""
    shift = -math.frexp(max(map(abs, values)))[1]
    return [math.ldexp(v, shift) for v in values]
