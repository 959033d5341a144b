"""Parabola versus circle over a shared chord.

A circular segment of height b sits on a chord of half-length
a = sqrt(2rb - b^2).  The parabola through the chord endpoints whose own
segment has the same barycenter height crosses the circle at half-width
p = (sqrt(3)/5) sqrt(5a^2 + 2b^2) and meets the chord line again at
c = sqrt((10rb - 3b^2)/5), with p < a < c throughout 0 < b <= r.  The two
segment areas never differ by much: their gap 2 f(b/r) r^2 is negative and
bounded by r^2/290 in magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .exact import Enclosure, Precision, Q, enc_arcsin, enc_sqrt, lift, pi_reference
from .verdict import Verdict, strict_less

__all__ = [
    "AreaDifferenceReport",
    "ParabolaCircleConfig",
    "area_difference_report",
    "circular_segment_area",
    "configure",
    "derivative_identity_residual",
    "f_of_x",
    "parabolic_segment_area",
]


@dataclass(frozen=True, slots=True)
class ParabolaCircleConfig:
    """Circle radius, segment height, and the three half-widths of the figure."""

    r: Enclosure
    b: Enclosure
    a_half: Enclosure
    p: Enclosure
    c: Enclosure
    precision: Precision


@dataclass(frozen=True, slots=True)
class AreaDifferenceReport:
    sliver_minus_wedge: Enclosure
    bound_check: Verdict


def configure(
    r: Enclosure | Q | int, b: Enclosure | Q | int, precision: Precision | None = None
) -> ParabolaCircleConfig:
    """Build the comparison figure for a segment of height b on a circle of radius r."""
    b, precision = lift(b, precision)
    r, _ = lift(r, precision)
    if r.lo <= 0:
        raise DomainError("radius must be positive")
    if b.lo <= 0 or b.hi > r.hi:
        raise DomainError(f"height must satisfy 0 < b <= r, got [{b.lo}, {b.hi}]")
    work = precision.raised(8)
    rw, bw = r.at_precision(work), b.at_precision(work)
    # 5a^2 + 2b^2 collapses to 10rb - 3b^2, shared by p and c
    common = rw * bw * 10 - bw.square() * 3
    a_half = enc_sqrt(rw * bw * 2 - bw.square())
    p = enc_sqrt(common * Q(3, 25))
    c = enc_sqrt(common / 5)
    rnd = lambda e: e.rounded(precision)
    return ParabolaCircleConfig(rnd(r), rnd(b), rnd(a_half), rnd(p), rnd(c), precision)


def parabolic_segment_area(cfg: ParabolaCircleConfig) -> Enclosure:
    """Quadrature of the parabolic segment: (4/3) b c."""
    return (cfg.b * cfg.c * Q(4, 3)).rounded(cfg.precision)


def circular_segment_area(cfg: ParabolaCircleConfig) -> Enclosure:
    """pi r^2/2 - r^2 arcsin((r-b)/r) - (r-b) sqrt(2rb - b^2)."""
    work = cfg.precision.raised(8)
    r, b = cfg.r.at_precision(work), cfg.b.at_precision(work)
    ratio = (r - b) / r
    out = (
        pi_reference(work) * r.square() / 2
        - r.square() * enc_arcsin(ratio)
        - (r - b) * cfg.a_half.at_precision(work)
    )
    return out.rounded(cfg.precision)


def f_of_x(x: Enclosure | Q | int, precision: Precision | None = None) -> Enclosure:
    """Half the circular-minus-parabolic area gap at r = 1, b = x.

    f(x) = pi/4 - arcsin(1-x)/2 - (1-x) sqrt(2x-x^2)/2 - (2x/(3 sqrt 5)) sqrt(10x-3x^2),
    negative throughout (0, 1].
    """
    x, precision = lift(x, precision)
    if x.lo <= 0 or x.hi > 1:
        raise DomainError(f"x must lie in (0, 1], got [{x.lo}, {x.hi}]")
    work = precision.raised(8)
    xw = x.at_precision(work)
    rest = 1 - xw
    circ_part = enc_arcsin(rest) / 2 + rest * enc_sqrt(xw * 2 - xw.square()) / 2
    parab_part = xw * enc_sqrt((xw * 10 - xw.square() * 3) / 5) * Q(2, 3)
    out = pi_reference(work) / 4 - circ_part - parab_part
    return out.rounded(precision)


def area_difference_report(cfg: ParabolaCircleConfig) -> AreaDifferenceReport:
    """Signed gap f(b/r) r^2 plus a verdict that its magnitude stays tiny.

    The magnitude must stay under both r^2 (2 sqrt(35)/15 - pi/4)(1 + 1e-6),
    the sharp constant with a hair of slack, and the round cap r^2/290.
    """
    work = cfg.precision.raised(8)
    rsq = cfg.r.at_precision(work).square()
    value = f_of_x(cfg.b / cfg.r, cfg.precision.raised(8)) * rsq
    sharp = (
        enc_sqrt(Enclosure.point(Q(35), work)) * 2 / 15 - pi_reference(work) / 4
    ) * (1 + Q(1, 10**6)) * rsq
    cap = Enclosure(
        min(sharp.lo, (rsq / 290).lo), min(sharp.hi, (rsq / 290).hi), work
    )
    verdict = strict_less(
        "area-gap-bound", abs(value), cap, detail="|f(b/r)| r^2 under both caps"
    )
    return AreaDifferenceReport(value.rounded(cfg.precision), verdict)


def derivative_identity_residual(x: Q | int) -> Q:
    """Residual of (10-4x)^2 - 5(2-x)(10-3x) - x^2; identically zero.

    Exact rational arithmetic, no enclosures: this algebraic collapse is what
    makes f strictly decreasing on (0, 1).
    """
    x = Q(x)
    return (10 - 4 * x) ** 2 - 5 * (2 - x) * (10 - 3 * x) - x * x
