"""Perimeter and arc estimators that bracket pi, or an arc length, one-sidedly.

Each estimator returns a sound enclosure of the estimator's own value.  The
enclosure width reflects rounding only; the distance to pi (or to the arc) is
the method's truncation error, which the analysis module measures.

Ladder evaluation works on perimeters of inscribed/circumscribed polygons for
the unit-diameter circle.  Two-rung methods combine a rung with its doubling
and are reported at the coarser side count n; depending on the method they
converge like n**-4 or n**-6.  Arc evaluation states the same inequalities
for a single arc of angle x on the unit-radius circle via the chord
b = 2 sin(x/2) and the sine c = sin x.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .exact import (
    Enclosure,
    Precision,
    Q,
    check_angle,
    correct_digits,
    enc_cos,
    enc_sin,
    enc_tan,
    lift,
)
from .polygon import PolygonLadder


class Method(Enum):
    """Named estimators, in roughly increasing historical sharpness."""

    ARCHIMEDES = "archimedes"
    CUSA = "cusa"
    SNELL = "snell"
    HUYGENS_VII = "huygens-vii"
    SNELL_IX = "snell-ix"
    HUYGENS_XVI_UPPER = "huygens-xvi-upper"
    HUYGENS_FINAL_LOWER = "huygens-final-lower"
    SCHUH27_LOWER = "schuh27-lower"
    COMBINED = "combined"


# which side of pi (or of the arc) the estimator lands on
SIDE = {
    Method.ARCHIMEDES: "two_sided",
    Method.CUSA: "lower",
    Method.SNELL: "upper",
    Method.HUYGENS_VII: "lower",
    Method.SNELL_IX: "upper",
    Method.HUYGENS_XVI_UPPER: "upper",
    Method.HUYGENS_FINAL_LOWER: "lower",
    Method.SCHUH27_LOWER: "lower",
    Method.COMBINED: "two_sided",
}

# methods combining rung k-1 with its doubling at rung k
TWO_RUNG = frozenset(
    {
        Method.CUSA,
        Method.HUYGENS_VII,
        Method.HUYGENS_XVI_UPPER,
        Method.HUYGENS_FINAL_LOWER,
        Method.SCHUH27_LOWER,
        Method.COMBINED,
    }
)


def _sharp(cn: Enclosure, c2n: Enclosure, extra: Q | None) -> Enclosure:
    """Shared core of the order-6 bounds.

    cn + (10/3)(c2n^2 - cn^2) / D with D = 2*c2n + 3*cn, optionally augmented
    by extra*(c2n - cn)^2/D in the denominator.  extra=None gives the upper
    bound, 8/9 the sharp lower bound, 3 the weaker 27-constant variant.
    """
    base = c2n * 2 + cn * 3
    den = base if extra is None else base + (c2n - cn).square() * extra / base
    return cn + (c2n - cn) * (c2n + cn) * Q(10, 3) / den


def _snell(insc: Enclosure, circ: Enclosure) -> Enclosure:
    return (insc * 2 + circ) / 3


def _combined(cn: Enclosure, c2n: Enclosure) -> Enclosure:
    lo = _sharp(cn, c2n, Q(8, 9))
    return Enclosure(lo.lo, _sharp(cn, c2n, None).hi, lo.precision)


# Method -> combiner of one pair.  Two-rung methods combine (C_n, C_2n) on a
# ladder and (sin x, 2 sin(x/2)) on an arc; one-rung methods combine the
# inscribed and circumscribed perimeters (C_n, C'_n).
_COMBINE = {
    Method.ARCHIMEDES: lambda insc, circ: Enclosure(insc.lo, circ.hi, insc.precision),
    # SNELL and SNELL_IX state the same estimate; the former names the arc
    # inequality, the latter the polygon theorem
    Method.SNELL: _snell,
    Method.SNELL_IX: _snell,
    Method.CUSA: lambda cn, c2n: c2n.square() * 3 / (c2n * 2 + cn),
    # the doubled perimeter plus a third of the last gain
    Method.HUYGENS_VII: lambda cn, c2n: (c2n * 4 - cn) / 3,
    Method.HUYGENS_XVI_UPPER: lambda cn, c2n: _sharp(cn, c2n, None),
    Method.HUYGENS_FINAL_LOWER: lambda cn, c2n: _sharp(cn, c2n, Q(8, 9)),
    Method.SCHUH27_LOWER: lambda cn, c2n: _sharp(cn, c2n, Q(3)),
    Method.COMBINED: _combined,
}


def evaluate(lad: PolygonLadder, k: int, method: Method) -> Enclosure:
    """Evaluate one estimator on a ladder.

    Two-rung methods use the pair (k-1, k) and need 1 <= k < len(lad);
    single-rung methods use rung k alone.
    """
    if method in TWO_RUNG:
        if not 1 <= k < len(lad.rungs):
            raise IndexError(f"rung pair ({k - 1}, {k}) outside ladder of {len(lad.rungs)}")
        pair = lad.rungs[k - 1].insc, lad.rungs[k].insc
    else:
        if not 0 <= k < len(lad.rungs):
            raise IndexError(f"rung {k} outside ladder of {len(lad.rungs)}")
        pair = lad.rungs[k].insc, lad.rungs[k].circ
    return _COMBINE[method](*pair)


def method_n(lad: PolygonLadder, k: int, method: Method) -> int:
    """Side count an estimate is reported at (coarser rung for pairs)."""
    return lad.rungs[k - 1].n if method in TWO_RUNG else lad.rungs[k].n


@dataclass(frozen=True, slots=True)
class BoundsRow:
    """One estimator evaluation, ready for tabular output."""

    method: str
    n: int
    side: str
    value: Enclosure

    @property
    def width(self) -> Q:
        return self.value.width

    @property
    def digits(self) -> int:
        return correct_digits(self.value)


def make_row(lad: PolygonLadder, k: int, method: Method) -> BoundsRow:
    return BoundsRow(
        method=method.value,
        n=method_n(lad, k, method),
        side=SIDE[method],
        value=evaluate(lad, k, method),
    )


def rows(lad: PolygonLadder, method: Method) -> tuple[BoundsRow, ...]:
    """All evaluations of one method along a ladder, coarsest first."""
    start = 1 if method in TWO_RUNG else 0
    return tuple(make_row(lad, k, method) for k in range(start, len(lad.rungs)))


def _pair_arc(combine):
    return lambda x: combine(enc_sin(x), enc_sin(x / 2) * 2)


_SNELL_ARC = (Q(1, 2), True, lambda x: _snell(enc_sin(x), enc_tan(x)))

# Method -> (angle limit as a fraction of pi, limit excluded, formula in the
# working angle x)
_ARC = {
    Method.ARCHIMEDES: (Q(1), True, lambda x: _COMBINE[Method.ARCHIMEDES](
        enc_sin(x / 2) * 2, enc_tan(x / 2) * 2)),
    Method.CUSA: (Q(1, 2), False, lambda x: enc_sin(x) * 3 / (enc_cos(x) + 2)),
    Method.SNELL: _SNELL_ARC,
    Method.SNELL_IX: _SNELL_ARC,
    **{m: (Q(1), False, _pair_arc(_COMBINE[m])) for m in TWO_RUNG - {Method.CUSA}},
}


def arc_bounds(
    x: Enclosure | Q | int, method: Method, precision: Precision | None = None
) -> Enclosure:
    """One estimator applied to a single arc of angle x on the unit circle.

    The polygon-pair methods use the chord b = 2 sin(x/2) and sine c = sin x
    and are valid on (0, pi]; cusa/snell evaluate their raw arc forms on
    (0, pi/2]; archimedes needs (0, pi) for its circumscribed side.  Scaling:
    n * arc_bounds(pi/n, m) reproduces the ladder evaluation of m at the rung
    pair reported at n (for cusa, via 2n * cusa_lower_arc(pi/(2n))).
    """
    x, precision = lift(x, precision)
    per_pi, open_end, formula = _ARC[method]
    check_angle(x, precision, per_pi, open_end)
    return formula(x.at_precision(precision.raised(8))).rounded(precision)


def cusa_lower_arc(x: Enclosure | Q | int, precision: Precision | None = None) -> Enclosure:
    """3 sin x / (2 + cos x), a lower bound for the arc x on (0, pi/2]."""
    return arc_bounds(x, Method.CUSA, precision)


def snell_upper_arc(x: Enclosure | Q | int, precision: Precision | None = None) -> Enclosure:
    """(2 sin x + tan x)/3, an upper bound for the arc x on (0, pi/2)."""
    return arc_bounds(x, Method.SNELL, precision)
