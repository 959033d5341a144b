"""Circular-segment metrics: areas, the barycenter by two routes, and the
classical inequalities that tie them together.

A segment of central angle theta (0 < theta <= pi) on a circle of radius r
is described in vertex coordinates: the origin sits at the arc midpoint and
the symmetry diameter points toward the chord.  Height a = r(1 - cos(theta/2))
reaches the chord, b is the chord, c the sine of the full angle.  Sigma is
the segment area, delta the maximal inscribed triangle (apex at the vertex),
T the triangle cut off by the two tangents at the chord ends.  The barycenter
lies at distance xi from the vertex and xbar = r - xi from the center.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CirculusError, DomainError, IllConditioned
from .exact import (
    Enclosure,
    Precision,
    Q,
    _series,
    check_angle,
    enc_cos,
    enc_sin,
    enc_sqrt,
    lift,
    pi_reference,
)
from .polygon import seed
from .verdict import Outcome, Verdict, contains_value, strict_between, strict_less

_ILL_BELOW = Q(1, 1000)


def _gate(r: Enclosure, theta: Enclosure, precision: Precision, open_pi: bool = False) -> None:
    if r.lo <= 0:
        raise DomainError(f"radius must be positive, got lo={r.lo}")
    check_angle(theta, precision, Q(1), open_pi, "central angle")


def _lift_segment(
    r: Enclosure | Q | int, theta: Enclosure | Q | int, precision: Precision | None,
    conditioned: bool = True,
) -> tuple[Enclosure, Enclosure, Precision]:
    """Lift (r, theta), the precision defaulting from theta, gate them, and
    return them at working bits together with the requested precision.
    When conditioned, also refuse thin segments, where r - xbar loses bits.
    """
    theta, precision = lift(theta, precision)
    r, _ = lift(r, precision)
    _gate(r, theta, precision)
    if conditioned and theta.lo < _ILL_BELOW:
        raise IllConditioned(f"theta below {_ILL_BELOW}: barycenter quotient degenerates")
    work = precision.raised(16)
    return r.at_precision(work), theta.at_precision(work), precision


def _pad(value: Enclosure, amount: Q) -> Enclosure:
    return value + Enclosure.from_endpoints(-amount, amount, value.precision)


@dataclass(frozen=True, slots=True)
class SegmentGeometry:
    """All derived measures of one circular segment, as sound enclosures.

    T is None for theta = pi, where the tangents are parallel and no tangent
    triangle exists.
    """

    r: Enclosure
    theta: Enclosure
    precision: Precision
    a: Enclosure
    b: Enclosure
    c: Enclosure
    Sigma: Enclosure
    delta: Enclosure
    T: Enclosure | None
    xi: Enclosure
    xbar: Enclosure


def barycenter_exact(
    r: Enclosure | Q | int, theta: Enclosure | Q | int, precision: Precision | None = None
) -> Enclosure:
    """Distance xbar from the circle center to the segment barycenter,
    (4/3) r sin^3(theta/2) / (theta - sin theta): the xbar of segment."""
    return segment(r, theta, precision).xbar


def segment(
    r: Enclosure | Q | int, theta: Enclosure | Q | int, precision: Precision | None = None
) -> SegmentGeometry:
    """Populate every SegmentGeometry field at the requested precision.
    1 - cos(theta/2) and theta - sin theta come from their own series, so
    neither cancels at any angle."""
    rw, tw, precision = _lift_segment(r, theta, precision)
    half = tw / 2
    sh = enc_sin(half)
    ch = enc_cos(half)
    ams = _series(tw, 3, tw.precision)
    a = rw * _series(half, 2, half.precision)
    b = rw * sh * 2
    c = rw * sh * ch * 2
    sigma = rw.square() * ams / 2
    delta = a * b / 2
    tangent = rw.square() * sh.square() * sh / ch if ch.lo > 0 else None
    xbar = rw * sh * sh.square() * Q(4, 3) / ams
    xi = rw - xbar
    rnd = lambda e: e.rounded(precision)
    return SegmentGeometry(
        r=rnd(rw),
        theta=rnd(tw),
        precision=precision,
        a=rnd(a),
        b=rnd(b),
        c=rnd(c),
        Sigma=rnd(sigma),
        delta=rnd(delta),
        T=rnd(tangent) if tangent is not None else None,
        xi=rnd(xi),
        xbar=rnd(xbar),
    )


def barycenter_oracle(
    r: Enclosure | Q | int,
    theta: Enclosure | Q | int,
    precision: Precision | None = None,
    panels: int = 512,
) -> Enclosure:
    """xbar by independent first-moment quadrature.

    In the angle variable u the segment area and its vertex moment are
    A = 2 r^2 I(sin^2 u) and M = 2 r^3 I((1 - cos u) sin^2 u) with I over
    [0, theta/2]; then xbar = r - M/A.  Both integrals use composite Simpson
    sums over interval node values built by the angle-addition recurrence,
    padded by the analytic remainder tau h^4 B / 180 with the static fourth
    derivative bounds B = 8 and B = 29.
    """
    if panels < 2 or panels % 2:
        raise ValueError(f"panels must be even and >= 2, got {panels}")
    rw, tw, precision = _lift_segment(r, theta, precision, conditioned=False)
    work = rw.precision
    tau = tw / 2
    h = tau / panels
    s_h = enc_sin(h)
    c_h = enc_cos(h)
    s = Enclosure.point(0, work)
    c = Enclosure.point(1, work)
    sum_a = Enclosure.point(0, work)
    sum_m = Enclosure.point(0, work)
    for j in range(panels + 1):
        weight = 1 if j in (0, panels) else (4 if j % 2 else 2)
        f_a = s.square()
        f_m = (1 - c) * f_a
        sum_a = sum_a + f_a * weight
        sum_m = sum_m + f_m * weight
        if j < panels:
            s, c = s * c_h + c * s_h, c * c_h - s * s_h
    scale = h.mag_ub() ** 4 * tau.mag_ub() / 180
    area = _pad(sum_a * h / 3, scale * 8) * rw.square() * 2
    moment = _pad(sum_m * h / 3, scale * 29) * rw.square() * rw * 2
    return (rw - moment / area).rounded(precision)


def balance_residual(g: SegmentGeometry) -> Enclosure:
    """Lever residual OM*(b^2/4) - xbar*Sigma; encloses 0 when balanced.

    OG = sqrt(a(2r - a)) is the half chord, OM = (2/3) OG the lever arm of
    the comparison triangle of area b^2/4 hung at the center.
    """
    _gate(g.r, g.theta, g.precision, open_pi=True)
    work = g.precision.raised(8)
    a = g.a.at_precision(work)
    r = g.r.at_precision(work)
    og = enc_sqrt(a * (r * 2 - a))
    om = og * Q(2, 3)
    lhs = om * g.b.at_precision(work).square() / 4
    rhs = g.xbar.at_precision(work) * g.Sigma.at_precision(work)
    return (lhs - rhs).rounded(g.precision)


def balance_check(g: SegmentGeometry) -> Verdict:
    """Balanced when the lever residual encloses 0; margin is the distance
    from 0 to the nearer endpoint of the residual, or on FAIL to the residual."""
    residual = balance_residual(g)
    return contains_value("balance", residual, 0, f"residual in {residual}")


def barycentric_equation_ratio(g: SegmentGeometry) -> Enclosure:
    """Sigma/delta, cross-checked against (2/3)(2r - a)/(r - xi)."""
    _gate(g.r, g.theta, g.precision, open_pi=True)
    lhs = g.Sigma / g.delta
    rhs = (g.r * 2 - g.a) * Q(2, 3) / (g.r - g.xi)
    if not lhs.overlaps(rhs):
        raise CirculusError(f"balancing equation sides disagree: {lhs} vs {rhs}")
    return lhs


def tangent_triangle_oracle(g: SegmentGeometry, panels: int = 1024) -> Enclosure:
    """Tangent-triangle area by strip exhaustion, independent of the closed form.

    The tangent line at a chord end satisfies sin(phi) x + cos(phi) y = r with
    phi = theta/2, so the half width at height y is (r - y cos phi)/sin phi.
    The region between chord level and apex is sliced into horizontal strips;
    widths decrease upward, giving lower/upper Riemann brackets.
    """
    _gate(g.r, g.theta, g.precision, open_pi=True)
    if panels < 1:
        raise ValueError("panels must be positive")
    work = g.precision.raised(8)
    r = g.r.at_precision(work)
    half = g.theta.at_precision(work) / 2
    sh = enc_sin(half)
    ch = enc_cos(half)
    base = r * ch
    apex = r / ch
    step = (apex - base) / panels
    widths = []
    for j in range(panels + 1):
        y = base + step * j
        widths.append((r - y * ch) * 2 / sh)
    low = Enclosure.point(0, work)
    high = Enclosure.point(0, work)
    for j in range(panels):
        low = low + widths[j + 1] * step
        high = high + widths[j] * step
    return Enclosure(low.lo, high.hi, work).rounded(g.precision)


def segment_inequality_suite(g: SegmentGeometry) -> list[Verdict]:
    """Every classical segment inequality as a strict three-valued verdict."""
    _gate(g.r, g.theta, g.precision, open_pi=True)
    work = g.precision
    half_a = g.a / 2
    three_fifths_a = g.a * Q(3, 5)
    schuh_bound = three_fifths_a - g.a.square() * 3 / ((g.r - three_fifths_a) * 25)
    ratio = g.Sigma / g.delta
    xv_upper = (g.r * 2 - g.a) * Q(10, 3) / (g.r * 2 + (g.r - g.a) * 3)
    four_thirds = Enclosure.point(Q(4, 3), work)
    out = [
        strict_between("theorem-xiv", half_a, g.xi, three_fifths_a,
                       "a/2 < xi < 3a/5"),
        strict_less("hofmann", half_a, g.xi, "xi > a/2"),
        strict_less("schuh", schuh_bound, g.xi,
                    "xi > 3a/5 - 3a^2/(25(r - 3a/5))"),
        strict_between("theorem-xv", four_thirds, ratio, xv_upper,
                       "4/3 < Sigma/delta < (10/3)(2r-a)/(2r+3(r-a))"),
    ]
    if g.T is None:
        out.append(Verdict("theorem-iv", Outcome.INDETERMINATE, None, "no tangent triangle"))
    else:
        out.append(strict_less("theorem-iv", g.Sigma, g.T * Q(2, 3), "Sigma < (2/3) T"))
    hexagon = seed(6, work)
    circle_area = pi_reference(work) * g.r.square()
    estimate = (hexagon.circ_area * Q(2, 3) + hexagon.insc_area * Q(1, 3)) * g.r.square()
    out.append(strict_less("lemma-vi", circle_area, estimate,
                           "pi r^2 < (2/3) A'_6 + (1/3) A_6"))
    return out
