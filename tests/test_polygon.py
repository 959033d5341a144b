"""Tests for polygon seeds, doubling, ladders and chord/sine extraction."""

from __future__ import annotations

import pytest

from circulus.errors import UnsupportedSeed
from circulus.exact import Enclosure, Precision, Q, enc_sin, pi_reference
from circulus.polygon import PolygonLadder, chord_sine, double, ladder, seed, trig_rung

P64 = Precision(64)
P128 = Precision(128)


def _band(enc, digits_str: str) -> bool:
    """Enclosure sits within one last-place unit of the truncated literal."""
    lit = Q(digits_str)
    u = Q(1, 10 ** len(digits_str.split(".")[1]))
    return lit - u <= enc.lo and enc.hi <= lit + 2 * u


def test_seed_six() -> None:
    r = seed(6, P64)
    assert r.insc.lo == r.insc.hi == 3
    assert _band(r.circ, "3.4641016151377545")


def test_seed_four() -> None:
    r = seed(4, P64)
    assert r.circ.lo == r.circ.hi == 4
    assert _band(r.insc, "2.8284271247461900")


def test_seed_three() -> None:
    r = seed(3, P64)
    assert _band(r.insc, "2.5980762113533159")
    assert _band(r.circ, "5.1961524227066318")


def test_seed_unsupported() -> None:
    for bad in (2, 5, 7):
        with pytest.raises(UnsupportedSeed):
            seed(bad, P64)


def test_double_hexagon_gives_twelve_gon() -> None:
    r = double(seed(6, P128))
    assert r.n == 12
    assert _band(r.insc, "3.1058285412302491")  # 12 sin(pi/12)
    assert _band(r.circ, "3.2153903091734724")  # 12 tan(pi/12)


def test_ladder_shape_and_sides() -> None:
    lad = ladder(6, 4, P64)
    assert [r.n for r in lad.rungs] == [6, 12, 24, 48, 96]
    assert lad.seed_sides == 6 and len(lad) == 5


def test_ladder_negative_doublings_rejected() -> None:
    with pytest.raises(ValueError):
        ladder(6, -1, P64)


def test_archimedes_96_gon_bracket() -> None:
    lad = ladder(6, 4, P64)
    last = lad[4]
    assert last.n == 96
    assert last.insc.lo > 3 + Q(10, 71)
    assert last.circ.hi < 3 + Q(1, 7)
    assert _band(last.insc, "3.1410319508905096")
    assert _band(last.circ, "3.1427145996453682")


def test_sandwich_every_rung() -> None:
    pi = pi_reference(P64)
    for r in ladder(6, 8, P64).rungs:
        assert r.insc.hi < pi.lo < pi.hi < r.circ.lo


def test_recurrence_matches_trig_closed_forms() -> None:
    lad = ladder(6, 5, P128)
    for r in lad.rungs[1:]:
        t = trig_rung(r.n, P128)
        assert r.insc.overlaps(t.insc)
        assert r.circ.overlaps(t.circ)


def test_perimeter_monotonicity_of_midpoints() -> None:
    rungs = ladder(6, 10, P128).rungs
    for a, b in zip(rungs, rungs[1:]):
        assert a.insc.mid < b.insc.mid
        assert b.circ.mid < a.circ.mid


def test_width_growth_bound() -> None:
    lad = ladder(6, 10, P64)
    base = max(lad[0].insc.width, lad[0].circ.width)
    for k, r in enumerate(lad.rungs):
        assert max(r.insc.width, r.circ.width) <= (1 << (k + 6)) * base


def test_trig_rung_thirty_and_sixty() -> None:
    r30 = trig_rung(30, P128)
    r60 = trig_rung(60, P128)
    assert _band(r30.insc, "3.13585389802960414")
    assert _band(r60.insc, "3.14015737457662996")
    with pytest.raises(UnsupportedSeed):
        trig_rung(2, P64)


def test_ladder_from_trig_seed() -> None:
    lad = ladder(30, 1, P128)
    assert [r.n for r in lad.rungs] == [30, 60]
    assert lad[1].insc.overlaps(trig_rung(60, P128).insc)


def test_areas_unit_radius() -> None:
    lad = ladder(6, 1, P128)
    assert _band(lad[0].insc_area, "2.5980762113533159")  # (6/2) sin(pi/3)
    assert lad[0].circ_area.overlaps(lad[0].circ)
    # doubling the inscribed polygon's sides reproduces the coarser perimeter:
    # A_{2n} at radius 1 equals C_n at diameter 1
    assert lad[1].insc_area.contains(3)


def test_area_identity_against_direct_formula() -> None:
    for r in ladder(6, 6, P128).rungs:
        x = pi_reference(Precision(160)) * Q(2, r.n)
        direct = enc_sin(x) * Q(r.n, 2)
        assert r.insc_area.overlaps(direct)


def test_chord_sine_first_rung() -> None:
    lad = ladder(6, 2, P128)
    b, c = chord_sine(lad, 1)
    assert c.lo == c.hi == Q(1, 4)
    assert _band(b, "0.2588190451025207")  # sin(pi/12)


def test_chord_sine_index_errors() -> None:
    lad = ladder(6, 2, P64)
    for bad in (0, 3, -1):
        with pytest.raises(IndexError):
            chord_sine(lad, bad)
