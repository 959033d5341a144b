"""Acceptance battery: ten reproductions of the classical results.

Each test covers one headline claim end to end, pins the historical digits
with exact rational comparisons, and prints a single summary line.  Time
budgets are enforced inside the tests so a regression in the arithmetic
kernels shows up here before it shows up in user-facing latency.
"""

import random
import time

from circulus import analysis, barycenter, bounds, parasect, polygon
from circulus.bounds import Method
from circulus.exact import (
    Enclosure,
    Precision,
    Q,
    decimal_string,
    enc_sqrt,
    pi_reference,
)
from circulus.verdict import Outcome, strict_less


def _stamp(num: int, label: str, t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} overran: {elapsed:.1f}s >= {limit}s"
    print(f"criterion {num:02d} {label}: PASS in {elapsed:.2f}s (limit {limit:.0f}s)")


def _overlap(a: Enclosure, b: Enclosure) -> bool:
    return max(a.lo, b.lo) <= min(a.hi, b.hi)


def test_criterion_01_archimedes_96_gon():
    t0 = time.perf_counter()
    lad = polygon.ladder(6, 4, Precision(64))
    rung = lad.rungs[4]
    assert rung.n == 96
    assert Q(3) + Q(10, 71) < rung.insc.lo
    assert rung.circ.hi < Q(3) + Q(1, 7)
    _stamp(1, "archimedes-96-gon", t0, 1.0)


def test_criterion_02_huygens_famous_bracket():
    """The 1654 bracket from C30/C60, certified and sharpened.

    Huygens' hand values for the perimeters carry rounding slack in the 13th
    decimal place (his C30 ends ...2979-80 where the modern value is
    ...296041), so a sound enclosure agrees with his printed working values
    through 12 places, strictly sharpens his final bounds, and rounds to the
    same famous ten-digit bracket.
    """
    t0 = time.perf_counter()
    p = Precision(128)
    lad = polygon.ladder(30, 1, p)
    c30, c60 = lad.rungs[0].insc, lad.rungs[1].insc
    assert c30.width < Q(1, 10**20) and c60.width < Q(1, 10**20)
    assert decimal_string(c30.lo, 12, "down") == "3.135853898029"
    assert decimal_string(c60.lo, 12, "down") == "3.140157374576"

    lower = bounds.evaluate(lad, 1, Method.HUYGENS_FINAL_LOWER)
    upper = bounds.evaluate(lad, 1, Method.HUYGENS_XVI_UPPER)
    pi = pi_reference(p)
    assert lower.hi < pi.lo and pi.hi < upper.lo
    # every digit Huygens printed is implied: his bounds sit outside ours
    assert Q("3.14159265339060") <= lower.lo
    assert upper.hi <= Q("3.14159265377520")
    assert decimal_string(lower.lo, 14, "down") == "3.14159265339092"
    assert decimal_string(upper.hi, 14, "up") == "3.14159265377480"
    # and the rounded Inventa result comes out digit for digit
    assert decimal_string(lower.lo, 10, "down") == "3.1415926533"
    assert decimal_string(upper.hi, 10, "up") == "3.1415926538"
    _stamp(2, "huygens-famous-bracket", t0, 1.0)


def test_criterion_03_two_place_bracket():
    """3.1411 < pi < 3.1424 from the hexagon pair alone.

    The printed 3.1411 is produced by the first Huygens combination
    (4 C12 - C6)/3; the Cusa quotient on the same pair is sharper still
    (3.14151) and certifies the same two-place claim.
    """
    t0 = time.perf_counter()
    lad = polygon.ladder(6, 1, Precision(64))
    lower = bounds.evaluate(lad, 1, Method.HUYGENS_VII)
    upper = bounds.evaluate(lad, 1, Method.SNELL_IX)
    assert bounds.method_n(lad, 1, Method.SNELL_IX) == 12
    assert decimal_string(lower.lo, 4, "down") == "3.1411"
    assert decimal_string(upper.hi, 4, "up") == "3.1424"
    cusa = bounds.evaluate(lad, 1, Method.CUSA)
    assert Q("3.1411") < cusa.lo and cusa.hi < upper.lo
    _stamp(3, "two-place-bracket", t0, 1.0)


def test_criterion_04_five_place_bracket():
    t0 = time.perf_counter()
    lad = polygon.ladder(30, 1, Precision(96))
    lower = bounds.evaluate(lad, 1, Method.CUSA)
    upper = bounds.evaluate(lad, 1, Method.SNELL_IX)
    assert bounds.method_n(lad, 1, Method.CUSA) == 30
    assert bounds.method_n(lad, 1, Method.SNELL_IX) == 60
    assert Q("3.1415917") <= lower.lo
    assert upper.hi <= Q("3.1415941")
    assert decimal_string(lower.lo, 5, "down") == "3.14159"
    _stamp(4, "five-place-bracket", t0, 1.0)


def test_criterion_05_convergence_orders():
    t0 = time.perf_counter()
    p = Precision(256)
    expected = (
        (Method.ARCHIMEDES, 2),
        (Method.HUYGENS_VII, 4),
        (Method.CUSA, 4),
        (Method.SNELL_IX, 4),
        (Method.HUYGENS_XVI_UPPER, 6),
        (Method.HUYGENS_FINAL_LOWER, 6),
        (Method.SCHUH27_LOWER, 6),
    )
    for method, order in expected:
        est = analysis.estimate_order(method, 6, range(4, 11), p)
        assert abs(est.slope + order) < 0.05, f"{method.value}: slope {est.slope:.4f}"
    _stamp(5, "convergence-orders", t0, 30.0)


def test_criterion_06_error_coefficients():
    t0 = time.perf_counter()
    rows = {row.method: row for row in analysis.coefficient_table()}
    for method in (Method.HUYGENS_VII, Method.CUSA, Method.SNELL_IX,
                   Method.HUYGENS_XVI_UPPER):
        row = rows[method]
        assert row.within is not None and row.within.outcome is Outcome.PASS
        lo = row.measured.lo / row.expected.hi
        hi = row.measured.hi / row.expected.lo
        assert Q(97, 100) < lo <= hi < Q(103, 100), f"{method.value}: [{lo}, {hi}]"
    _stamp(6, "error-coefficients", t0, 30.0)


def test_criterion_07_barycenter_equivalence():
    t0 = time.perf_counter()
    p = Precision(96)
    radii = (Q(1), Q(2), Q(1, 3))
    step = (Q("3.14159265") - Q(5, 100)) / 29
    for j in range(30):
        theta = Q(5, 100) + j * step
        r = radii[j % 3]
        closed = barycenter.barycenter_exact(r, theta, p)
        quad = barycenter.barycenter_oracle(r, theta, p, panels=512)
        assert _overlap(closed, quad), f"disjoint enclosures at theta={theta}"
        assert closed.width + quad.width < r / 10**9
    _stamp(7, "barycenter-equivalence", t0, 3.0)


def test_criterion_08_balance_law():
    t0 = time.perf_counter()
    p = Precision(128)
    for j in range(1, 21):
        g = barycenter.segment(1, Q(j, 7), p)
        residual = barycenter.balance_residual(g)
        assert residual.lo <= 0 <= residual.hi
        assert residual.width < Q(1, 10**10)
    _stamp(8, "balance-law", t0, 10.0)


def test_criterion_09_parabola_circle_gap():
    t0 = time.perf_counter()
    f1 = parasect.f_of_x(Q(1), Precision(128))
    work = Precision(192)
    target = pi_reference(work) / 4 - enc_sqrt(Enclosure.point(35, work)) * 2 / 15
    assert _overlap(f1, target)
    assert Q("-0.003414") < f1.lo and f1.hi < Q("-0.003412")

    for j in range(1, 201):
        assert parasect.f_of_x(Q(j, 200), Precision(64)).hi < 0, f"x={Q(j, 200)}"

    rng = random.Random(1654)
    for _ in range(6):
        r = Q(rng.randint(1, 9), rng.randint(1, 3))
        b = r * Q(rng.randint(1, 64), 64)
        report = parasect.area_difference_report(parasect.configure(r, b, Precision(96)))
        assert report.bound_check.outcome is Outcome.PASS, f"(r, b)=({r}, {b})"

    for _ in range(50):
        x = Q(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        assert parasect.derivative_identity_residual(x) == 0
    _stamp(9, "parabola-circle-gap", t0, 10.0)


def test_criterion_10_property_sweeps():
    t0 = time.perf_counter()
    p = Precision(96)
    rng = random.Random(1654)

    # a thousand random arcs: every one-arc inequality strict, no straddles
    for _ in range(1000):
        x = Enclosure.point(Q(rng.randint(10**4, 156 * 10**4), 10**6), p)
        checks = (
            ("cusa-below", bounds.cusa_lower_arc(x), x),
            ("snell-above", x, bounds.snell_upper_arc(x)),
            ("sharp-below", bounds.arc_bounds(x, Method.HUYGENS_FINAL_LOWER), x),
            ("sharp-above", x, bounds.arc_bounds(x, Method.HUYGENS_XVI_UPPER)),
        )
        for name, left, right in checks:
            verdict = strict_less(name, left, right)
            assert verdict.outcome is Outcome.PASS, f"{name} at x={x.lo}: {verdict}"

    # dominance chain on every rung pair of a ten-doubling ladder
    lad = polygon.ladder(6, 10, Precision(160))
    chain = (Method.HUYGENS_VII, Method.CUSA, Method.SCHUH27_LOWER,
             Method.HUYGENS_FINAL_LOWER)
    for k in range(1, len(lad.rungs)):
        sandwich = bounds.evaluate(lad, k - 1, Method.ARCHIMEDES)
        lowers = [bounds.evaluate(lad, k, m) for m in chain]
        assert sandwich.lo < lowers[0].lo, f"inscribed vs first gain at k={k}"
        for left, right in zip(lowers, lowers[1:]):
            assert left.hi < right.lo, f"lower chain breaks at k={k}"
        xvi = bounds.evaluate(lad, k, Method.HUYGENS_XVI_UPPER)
        ix = bounds.evaluate(lad, k - 1, Method.SNELL_IX)
        assert lowers[-1].hi < xvi.lo < xvi.hi < ix.lo < ix.hi < sandwich.hi, f"k={k}"

    # barycenter position bounds at a hundred random angles
    for _ in range(100):
        theta = Q(rng.randint(100, 31400), 10**4)
        g = barycenter.segment(1, theta, p)
        suite = {v.name: v for v in barycenter.segment_inequality_suite(g)}
        for name in ("theorem-xiv", "hofmann", "schuh"):
            assert suite[name].outcome is Outcome.PASS, f"{name} at theta={theta}"

    # crudest application, whole semicircle: the limiting fractions appear
    pi = pi_reference(Precision(128))
    low = bounds.arc_bounds(pi, Method.HUYGENS_FINAL_LOWER)
    high = bounds.arc_bounds(pi, Method.HUYGENS_XVI_UPPER)
    assert low.lo < Q(30, 11) < low.hi and low.width < Q(1, 10**20)
    assert high.lo < Q(10, 3) < high.hi and high.width < Q(1, 10**20)
    assert Q(30, 11) < pi.lo and pi.hi < Q(10, 3)
    _stamp(10, "property-sweeps", t0, 5.0)
