"""Three-valued verdicts for inequality checks between enclosures.

This module is the one place where a comparison of enclosures becomes an
outcome and a margin.  A strict inequality only passes when the enclosures
are separated by at least one grid ulp at the working precision; overlap
is reported as indeterminate, never as a pass.  The margin is always a
nonnegative size: on PASS the room to spare, on FAIL the size of the miss,
and None when the outcome is INDETERMINATE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .exact import Enclosure, Q, _dec_exponent, ulp


class Outcome(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True, slots=True)
class Verdict:
    name: str
    outcome: Outcome
    margin: Fraction | None = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.outcome is Outcome.PASS

    def __str__(self) -> str:
        word = self.outcome.value.upper()
        extra = f" margin={_scientific(self.margin)}" if self.margin is not None else ""
        tail = f" ({self.detail})" if self.detail else ""
        return f"{word:13s} {self.name}{extra}{tail}"


def _scientific(x: Fraction) -> str:
    """x as d.ddde+XX, rounded half to even from the rational itself, so
    that no margin underflows or overflows a float."""
    if x == 0:
        return "0.000e+00"
    e = _dec_exponent(x.numerator, x.denominator)
    digits = round(abs(x) * Q(10) ** (3 - e))  # half to even, in 1000..10000
    if digits == 10000:
        digits, e = 1000, e + 1
    sign = "-" if x < 0 else ""
    return f"{sign}{digits // 1000}.{digits % 1000:03d}e{e:+03d}"


def strict_less(name: str, a: Enclosure, b: Enclosure, detail: str = "") -> Verdict:
    """Verdict on a < b, demanding a gap of one ulp, at the working
    precision, of the larger magnitude compared; the rule is scale-free."""
    gap = b.lo - a.hi
    grid = ulp(max(abs(a.hi), abs(b.lo)), min(a.precision.bits, b.precision.bits))
    if gap >= grid:
        return Verdict(name, Outcome.PASS, gap, detail)
    if a.lo >= b.hi:
        return Verdict(name, Outcome.FAIL, a.lo - b.hi, detail)
    return Verdict(name, Outcome.INDETERMINATE, None, detail)


def strict_between(
    name: str, low: Enclosure, mid: Enclosure, high: Enclosure, detail: str = ""
) -> Verdict:
    """Verdict on low < mid < high as a single named check."""
    left = strict_less(name, low, mid, detail)
    right = strict_less(name, mid, high, detail)
    if left.passed and right.passed:
        return Verdict(name, Outcome.PASS, min(left.margin, right.margin), detail)
    failed = [part for part in (left, right) if part.outcome is Outcome.FAIL]
    return failed[0] if failed else Verdict(name, Outcome.INDETERMINATE, None, detail)


def contains_value(name: str, enc: Enclosure, value, detail: str = "") -> Verdict:
    """Verdict on `value in enc`; margin is the distance to the endpoints."""
    if enc.contains(value):
        return Verdict(name, Outcome.PASS, min(value - enc.lo, enc.hi - value), detail)
    miss = enc.lo - value if value < enc.lo else value - enc.hi
    return Verdict(name, Outcome.FAIL, miss, detail)


def overlap(name: str, a: Enclosure, b: Enclosure, detail: str = "") -> Verdict:
    """Verdict on the two enclosures sharing at least one value; margin is
    the depth of the overlap, or on FAIL the gap between them."""
    depth = min(a.hi, b.hi) - max(a.lo, b.lo)
    if depth >= 0:
        return Verdict(name, Outcome.PASS, depth, detail)
    return Verdict(name, Outcome.FAIL, -depth, "enclosures disjoint")
