"""Verdict rules on small exact rationals: every outcome and its margin."""

from circulus.exact import Enclosure, Precision, Q
from circulus.verdict import (
    Outcome,
    Verdict,
    contains_value,
    overlap,
    strict_between,
    strict_less,
)

P = Precision(16)  # one ulp of values in [1, 2) is 2**-15


def enc(lo, hi=None) -> Enclosure:
    return Enclosure(Q(lo), Q(lo if hi is None else hi), P)


def test_strict_less_pass_margin_is_the_gap() -> None:
    v = strict_less("lt", enc(1, 2), enc(3, 4), "a < b")
    assert v.outcome is Outcome.PASS
    assert v.margin == 1
    assert v.detail == "a < b"


def test_strict_less_fail_margin_is_the_miss() -> None:
    v = strict_less("lt", enc(3, 4), enc(1, 2))
    assert v.outcome is Outcome.FAIL
    assert v.margin == 1


def test_strict_less_gap_below_one_ulp_is_indeterminate() -> None:
    v = strict_less("lt", enc(1), enc(1 + Q(1, 2**20), 2))
    assert v.outcome is Outcome.INDETERMINATE
    assert v.margin is None
    assert strict_less("lt", enc(1), enc(1 + Q(1, 2**15), 2)).passed


def test_strict_less_grid_scales_with_the_values() -> None:
    # the same comparison 2^1000 times smaller: one ulp of the values, not of 1
    tiny = Q(1, 2**1000)
    assert strict_less("lt", enc(tiny), enc(tiny * (1 + Q(1, 2**15)), 2 * tiny)).passed
    v = strict_less("lt", enc(tiny), enc(tiny * (1 + Q(1, 2**20)), 2 * tiny))
    assert v.outcome is Outcome.INDETERMINATE


def test_margin_prints_from_the_rational() -> None:
    def shown(margin) -> str:
        return str(Verdict("v", Outcome.PASS, margin)).split("margin=")[1]

    assert shown(Q(1, 10**700)) == "1.000e-700"  # a float would underflow to 0
    assert shown(Q(10) ** 400 * 3) == "3.000e+400"
    assert shown(Q(0)) == "0.000e+00"
    assert shown(Q(10625, 10000)) == "1.062e+00"  # ties go to even
    assert shown(Q(10635, 10000)) == "1.064e+00"
    assert shown(Q(99996, 10**7)) == "1.000e-02"  # rounding carries into the exponent
    assert shown(Q(-3, 2**20)) == f"{-3 / 2**20:.3e}"


def test_strict_less_overlap_is_indeterminate() -> None:
    v = strict_less("lt", enc(1, 3), enc(2, 4))
    assert v.outcome is Outcome.INDETERMINATE
    assert v.margin is None


def test_strict_between_pass_takes_the_smaller_gap() -> None:
    v = strict_between("between", enc(0), enc(2), enc(Q(5, 2)), "0 < 2 < 5/2")
    assert v.outcome is Outcome.PASS
    assert v.margin == Q(1, 2)
    assert v.detail == "0 < 2 < 5/2"


def test_strict_between_fails_on_the_low_side() -> None:
    v = strict_between("between", enc(3), enc(2), enc(5))
    assert v.outcome is Outcome.FAIL
    assert v.margin == 1


def test_strict_between_fails_on_the_high_side() -> None:
    v = strict_between("between", enc(0), enc(2), enc(Q(3, 2)))
    assert v.outcome is Outcome.FAIL
    assert v.margin == Q(1, 2)


def test_overlap_pass_margin_is_the_depth() -> None:
    v = overlap("ov", enc(1, 3), enc(2, 5), "agree")
    assert v.outcome is Outcome.PASS
    assert v.margin == 1
    assert v.detail == "agree"
    touching = overlap("ov", enc(1, 2), enc(2, 3))
    assert touching.passed and touching.margin == 0


def test_overlap_fail_margin_is_the_gap() -> None:
    for a, b in ((enc(1, 2), enc(Q(5, 2), 3)), (enc(Q(5, 2), 3), enc(1, 2))):
        v = overlap("ov", a, b, "agree")
        assert v.outcome is Outcome.FAIL
        assert v.margin == Q(1, 2)
        assert v.detail == "enclosures disjoint"


def test_contains_value_inside_margin_is_the_nearer_endpoint() -> None:
    v = contains_value("in", enc(1, 4), 3)
    assert v.outcome is Outcome.PASS
    assert v.margin == 1


def test_contains_value_outside_margin_is_the_miss() -> None:
    above = contains_value("in", enc(1, 4), 5)
    below = contains_value("in", enc(1, 4), Q(1, 2))
    assert above.outcome is below.outcome is Outcome.FAIL
    assert above.margin == 1
    assert below.margin == Q(1, 2)
