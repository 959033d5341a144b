"""Inscribed/circumscribed polygon ladders around the unit-diameter circle.

A rung stores the perimeters of the regular n-gon inscribed in and
circumscribed about a circle of diameter 1 (so both converge to pi), plus
the corresponding polygon areas for the unit-radius circle.  Doubling uses
the harmonic and geometric mean recurrences, which need only field
operations and one square root per rung.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UnsupportedSeed
from .exact import Enclosure, Precision, Q, enc_sin, enc_sqrt, enc_tan, pi_reference


@dataclass(frozen=True, slots=True)
class PolygonRung:
    """Perimeters (unit diameter) and areas (unit radius) of the regular n-gon pair."""

    n: int
    insc: Enclosure
    circ: Enclosure
    insc_area: Enclosure
    circ_area: Enclosure


@dataclass(frozen=True, slots=True)
class PolygonLadder:
    seed_sides: int
    precision: Precision
    rungs: tuple[PolygonRung, ...]

    def __len__(self) -> int:
        return len(self.rungs)

    def __getitem__(self, k: int) -> PolygonRung:
        return self.rungs[k]


def _finish_rung(n: int, insc: Enclosure, circ: Enclosure) -> PolygonRung:
    # With C = n sin(pi/n) and C' = n tan(pi/n): the inscribed n-gon of the
    # unit-radius circle has area C^2/C', the circumscribed one has area C'.
    return PolygonRung(n, insc, circ, insc.square() / circ, circ)


def seed(n0: int, precision: Precision) -> PolygonRung:
    """Exact starting rung; sides 3, 4 and 6 admit square-root constructions."""
    if n0 == 6:
        insc = Enclosure.point(3, precision)
        circ = enc_sqrt(Enclosure.point(12, precision))  # 2*sqrt(3)
    elif n0 == 4:
        insc = enc_sqrt(Enclosure.point(8, precision))  # 2*sqrt(2)
        circ = Enclosure.point(4, precision)
    elif n0 == 3:
        insc = enc_sqrt(Enclosure.point(Q(27, 4), precision))  # 3*sqrt(3)/2
        circ = enc_sqrt(Enclosure.point(27, precision))  # 3*sqrt(3)
    else:
        raise UnsupportedSeed(f"no exact seed construction for n0 = {n0}")
    return _finish_rung(n0, insc, circ)


def trig_rung(n: int, precision: Precision) -> PolygonRung:
    """Closed-form rung n*sin(pi/n), n*tan(pi/n) for arbitrary n >= 3."""
    if n < 3:
        raise UnsupportedSeed(f"a polygon needs at least 3 sides, got {n}")
    work = precision.raised(8)
    x = pi_reference(work) * Q(1, n)
    insc = (enc_sin(x) * n).rounded(precision)
    circ = (enc_tan(x) * n).rounded(precision)
    return _finish_rung(n, insc, circ)


def double(rung: PolygonRung) -> PolygonRung:
    """Side-doubling step: harmonic mean then geometric mean.

    C'_{2n} = 2 C_n C'_n / (C_n + C'_n)   and   C_{2n} = sqrt(C_n C'_{2n}).
    """
    circ2 = 2 * rung.insc * rung.circ / (rung.insc + rung.circ)
    insc2 = enc_sqrt(rung.insc * circ2)
    return _finish_rung(2 * rung.n, insc2, circ2)


def ladder(n0: int, doublings: int, precision: Precision) -> PolygonLadder:
    """Seeded rung plus `doublings` side-doubling steps.

    Sides 3, 4 and 6 start from the exact square-root constructions; any
    other n0 >= 3 starts from the closed trigonometric forms.
    """
    if doublings < 0:
        raise ValueError("doublings must be nonnegative")
    first = seed(n0, precision) if n0 in (3, 4, 6) else trig_rung(n0, precision)
    rungs = [first]
    for _ in range(doublings):
        rungs.append(double(rungs[-1]))
    return PolygonLadder(n0, precision, tuple(rungs))


def chord_sine(lad: PolygonLadder, k: int) -> tuple[Enclosure, Enclosure]:
    """Per-arc chord b and sine c at rung k, on the unit-diameter circle.

    The arc spans one side of the 2n-gon, where n counts the sides at rung
    k-1.  Its chord b is that side itself, C_{2n}/(2n), and its sine c is
    half the side of the n-gon, C_n/(2n).
    """
    if not 1 <= k < len(lad.rungs):
        raise IndexError(f"rung pair ({k - 1}, {k}) outside ladder of {len(lad.rungs)}")
    n = lad.rungs[k - 1].n
    b = lad.rungs[k].insc / (2 * n)
    c = lad.rungs[k - 1].insc / (2 * n)
    return b, c
