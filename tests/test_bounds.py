"""Tests for the one-sided pi and arc estimators."""

from __future__ import annotations

import pytest

from circulus.bounds import (
    SIDE,
    TWO_RUNG,
    Method,
    arc_bounds,
    cusa_lower_arc,
    evaluate,
    make_row,
    method_n,
    rows,
    snell_upper_arc,
)
from circulus.errors import DomainError
from circulus.exact import Enclosure, Precision, Q, pi_reference
from circulus.polygon import ladder

P128 = Precision(128)
P192 = Precision(192)

LOWER = [Method.CUSA, Method.HUYGENS_VII, Method.HUYGENS_FINAL_LOWER, Method.SCHUH27_LOWER]
UPPER = [Method.SNELL, Method.SNELL_IX, Method.HUYGENS_XVI_UPPER]


def _band(enc, digits_str: str) -> bool:
    lit = Q(digits_str)
    u = Q(1, 10 ** len(digits_str.split(".")[1]))
    return lit - u <= enc.lo and enc.hi <= lit + 2 * u


@pytest.fixture(scope="module")
def lad6():
    return ladder(6, 6, P128)


@pytest.fixture(scope="module")
def lad30():
    return ladder(30, 1, P128)


def test_frozen_values_on_hexagon_ladder(lad6) -> None:
    assert _band(evaluate(lad6, 1, Method.HUYGENS_VII), "3.1411047216403322")
    assert _band(evaluate(lad6, 1, Method.CUSA), "3.1415099936429214")
    assert _band(evaluate(lad6, 0, Method.SNELL_IX), "3.1547005383792515")
    assert _band(evaluate(lad6, 1, Method.SNELL_IX), "3.1423491305446569")
    assert _band(evaluate(lad6, 1, Method.HUYGENS_XVI_UPPER), "3.1415955592516111")
    assert _band(evaluate(lad6, 1, Method.HUYGENS_FINAL_LOWER), "3.1415894676570127")
    assert _band(evaluate(lad6, 1, Method.SCHUH27_LOWER), "3.1415750022202578")


def test_frozen_values_on_trig_ladder(lad30) -> None:
    assert _band(evaluate(lad30, 1, Method.HUYGENS_VII), "3.1415918667589719")
    assert _band(evaluate(lad30, 1, Method.CUSA), "3.1415925223656942")
    assert _band(evaluate(lad30, 1, Method.SNELL_IX), "3.1415938353785774")
    assert _band(evaluate(lad30, 1, Method.HUYGENS_XVI_UPPER), "3.1415926537747909")
    assert _band(evaluate(lad30, 1, Method.HUYGENS_FINAL_LOWER), "3.1415926533909283")
    assert _band(evaluate(lad30, 1, Method.SCHUH27_LOWER), "3.1415926524792550")


def test_sidedness_along_ladder(lad6) -> None:
    pi = pi_reference(P128)
    for k in range(1, len(lad6.rungs)):
        for m in LOWER:
            assert evaluate(lad6, k, m).hi < pi.lo
        for m in UPPER:
            assert evaluate(lad6, k, m).lo > pi.hi
        both = evaluate(lad6, k, Method.ARCHIMEDES)
        assert both.lo < pi.lo and pi.hi < both.hi
        comb = evaluate(lad6, k, Method.COMBINED)
        assert comb.lo < pi.lo and pi.hi < comb.hi


def test_dominance_chain(lad6) -> None:
    # within one rung pair, sharper methods land between weaker ones and pi
    for k in range(1, len(lad6.rungs)):
        arch = evaluate(lad6, k - 1, Method.ARCHIMEDES)
        vii = evaluate(lad6, k, Method.HUYGENS_VII)
        cusa = evaluate(lad6, k, Method.CUSA)
        schuh = evaluate(lad6, k, Method.SCHUH27_LOWER)
        final = evaluate(lad6, k, Method.HUYGENS_FINAL_LOWER)
        xvi = evaluate(lad6, k, Method.HUYGENS_XVI_UPPER)
        ix = evaluate(lad6, k - 1, Method.SNELL_IX)
        assert arch.lo < vii.lo
        assert vii.hi < cusa.lo
        assert cusa.hi < schuh.lo
        assert schuh.hi < final.lo
        assert final.hi < xvi.lo
        assert xvi.hi < ix.lo
        assert ix.hi < arch.hi


def test_combined_is_final_and_xvi(lad6) -> None:
    comb = evaluate(lad6, 1, Method.COMBINED)
    assert comb.lo == evaluate(lad6, 1, Method.HUYGENS_FINAL_LOWER).lo
    assert comb.hi == evaluate(lad6, 1, Method.HUYGENS_XVI_UPPER).hi


def test_xvi_algebraic_forms_agree(lad6) -> None:
    # C_2n + ((C_2n-C_n)/3)(4C_2n+C_n)/(2C_2n+3C_n) equals the implemented form
    cn = lad6.rungs[0].insc
    c2n = lad6.rungs[1].insc
    alt = c2n + ((c2n - cn) / 3) * (c2n * 4 + cn) / (c2n * 2 + cn * 3)
    assert alt.overlaps(evaluate(lad6, 1, Method.HUYGENS_XVI_UPPER))
    # and exactly, on rational points
    a, b = Q(3), Q(31, 10)
    lhs = b + (b - a) / 3 * (4 * b + a) / (2 * b + 3 * a)
    rhs = a + Q(10, 3) * (b * b - a * a) / (2 * b + 3 * a)
    assert lhs == rhs


def test_indexing_and_rows(lad6) -> None:
    for m in TWO_RUNG:
        with pytest.raises(IndexError):
            evaluate(lad6, 0, m)
    with pytest.raises(IndexError):
        evaluate(lad6, len(lad6.rungs), Method.ARCHIMEDES)
    assert method_n(lad6, 1, Method.HUYGENS_VII) == 6
    assert method_n(lad6, 1, Method.SNELL_IX) == 12
    rs = rows(lad6, Method.HUYGENS_FINAL_LOWER)
    assert [r.n for r in rs] == [6, 12, 24, 48, 96, 192]
    assert all(r.side == "lower" for r in rs)
    row = make_row(lad6, 1, Method.ARCHIMEDES)
    assert row.n == 12 and row.side == "two_sided" and row.width > 0
    assert make_row(lad6, 1, Method.HUYGENS_FINAL_LOWER).digits >= 5


def test_side_table_complete() -> None:
    assert set(SIDE) == set(Method)
    assert SIDE[Method.ARCHIMEDES] == "two_sided"
    assert SIDE[Method.CUSA] == "lower"
    assert SIDE[Method.HUYGENS_XVI_UPPER] == "upper"


def test_arc_raw_forms() -> None:
    one = Enclosure.point(1, P128)
    assert _band(cusa_lower_arc(one), "0.9937450942717544")
    assert _band(snell_upper_arc(one), "1.0801165647568984")
    half = Enclosure.point(Q(1, 2), P128)
    assert _band(cusa_lower_arc(half), "0.4998211467016122")
    assert _band(snell_upper_arc(half), "0.5017178556840655")


def test_cusa_arc_closed_endpoint_and_small_angle() -> None:
    # exactly 3/2 at pi/2, and ratio to x within 1e-6 of 1 at x = 1e-3
    half_pi = pi_reference(P192) / 2
    v = cusa_lower_arc(half_pi, P128)
    assert v.contains(Q(3, 2)) and v.width < Q(1, 10**30)
    x = Q(1, 1000)
    ratio = cusa_lower_arc(x, P128) / x
    assert ratio.lo > 1 - Q(1, 10**6) and ratio.hi < 1


def test_arc_bounds_at_one() -> None:
    one = Enclosure.point(1, P128)
    assert _band(arc_bounds(one, Method.HUYGENS_VII), "0.9979777746752425")
    assert _band(arc_bounds(one, Method.HUYGENS_XVI_UPPER), "1.0000455713223145")
    assert _band(arc_bounds(one, Method.HUYGENS_FINAL_LOWER), "0.9999472107888914")
    assert _band(arc_bounds(one, Method.SCHUH27_LOWER), "0.9997140928439527")
    arch = arc_bounds(one, Method.ARCHIMEDES)
    assert arch.lo < 1 < arch.hi
    # the snell tags evaluate the raw snell inequality
    assert arc_bounds(one, Method.SNELL_IX).overlaps(snell_upper_arc(one))
    assert arc_bounds(one, Method.CUSA).overlaps(cusa_lower_arc(one))


def test_arc_bounds_pinch_the_arc() -> None:
    for num, den in [(1, 7), (3, 5), (1, 1), (11, 8), (3, 2)]:
        x = Enclosure.point(Q(num, den), P128)
        lo = arc_bounds(x, Method.HUYGENS_FINAL_LOWER)
        hi = arc_bounds(x, Method.HUYGENS_XVI_UPPER)
        assert lo.hi < Q(num, den) < hi.lo


def test_arc_bounds_at_pi_limit() -> None:
    pi = pi_reference(P192)
    lo = arc_bounds(pi, Method.HUYGENS_FINAL_LOWER, P128)
    hi = arc_bounds(pi, Method.HUYGENS_XVI_UPPER, P128)
    assert lo.contains(Q(30, 11))
    assert hi.contains(Q(10, 3))
    assert lo.hi < pi.lo and pi.hi < hi.lo
    comb = arc_bounds(pi, Method.COMBINED, P128)
    assert comb.lo == lo.lo and comb.hi == hi.hi


def test_arc_domain_errors() -> None:
    with pytest.raises(DomainError):
        cusa_lower_arc(Enclosure.point(0, P128))
    with pytest.raises(DomainError):
        cusa_lower_arc(Enclosure.point(2, P128))
    with pytest.raises(DomainError):
        snell_upper_arc(Enclosure.point(2, P128))
    with pytest.raises(DomainError):
        arc_bounds(Enclosure.point(-1, P128), Method.HUYGENS_VII)
    with pytest.raises(DomainError):
        arc_bounds(Enclosure.point(4, P128), Method.HUYGENS_FINAL_LOWER)
    with pytest.raises(DomainError):
        arc_bounds(Enclosure.point(Q(8, 5), P128), Method.SNELL)
    with pytest.raises(DomainError):
        arc_bounds(pi_reference(P128), Method.ARCHIMEDES)


def test_arc_perimeter_consistency(lad6) -> None:
    # n * arc_bounds(pi/n, m) overlaps the ladder evaluation reported at n
    pi = pi_reference(Precision(160))
    pair_methods = (
        Method.HUYGENS_VII,
        Method.HUYGENS_XVI_UPPER,
        Method.HUYGENS_FINAL_LOWER,
        Method.SCHUH27_LOWER,
    )
    for m in pair_methods:
        for k in (1, 2):
            n = method_n(lad6, k, m)
            scaled = arc_bounds(pi * Q(1, n), m, P128) * n
            assert scaled.overlaps(evaluate(lad6, k, m))
    # cusa's ladder form aggregates the raw arc bound at the half angle
    n = method_n(lad6, 1, Method.CUSA)
    scaled = cusa_lower_arc(pi * Q(1, 2 * n), P128) * (2 * n)
    assert scaled.overlaps(evaluate(lad6, 1, Method.CUSA))
    # snell-ix matches at its own rung count
    scaled = snell_upper_arc(pi * Q(1, 12), P128) * 12
    assert scaled.overlaps(evaluate(lad6, 1, Method.SNELL_IX))


def test_rational_angle_accepted() -> None:
    out = cusa_lower_arc(Q(1, 2), Precision(96))
    assert _band(out, "0.4998211467016122")
