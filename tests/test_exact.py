"""Tests for the outward-rounded rational interval core."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circulus import exact
from circulus.errors import (
    DivisionByIntervalContainingZero,
    DomainError,
    IndeterminateError,
    NegativeRadicand,
    PoleProximity,
)
from circulus.exact import (
    Enclosure,
    Precision,
    Q,
    bits_for_digits,
    correct_digits,
    decimal_string,
    enc_arcsin,
    enc_arctan,
    enc_cos,
    enc_sin,
    enc_sqrt,
    enc_tan,
    pi_reference,
    render,
    round_down,
    round_up,
)

P64 = Precision(64)
P128 = Precision(128)

# 40 digits of pi, enough to band every enclosure used below
PI_40 = Q("3.1415926535897932384626433832795028841971")
PI_BAND = Q(1, 10**40)

rationals = st.fractions(
    min_value=Q(-1000), max_value=Q(1000), max_denominator=10**6
)
nonzero_rationals = rationals.filter(lambda q: abs(q) > Q(1, 1000))


def test_precision_validates() -> None:
    with pytest.raises(ValueError):
        Precision(4)
    assert Precision(8).bits == 8


def test_directed_rounding_brackets_value() -> None:
    x = Q(1, 3)
    lo, hi = round_down(x, 16), round_up(x, 16)
    assert lo <= x <= hi
    assert lo.denominator & (lo.denominator - 1) == 0  # dyadic
    assert hi.denominator & (hi.denominator - 1) == 0


def test_directed_rounding_is_exact_on_grid() -> None:
    for v in (Q(3), Q(-7, 4), Q(1, 1024), Q(0)):
        assert round_down(v, 32) == v
        assert round_up(v, 32) == v


@given(x=nonzero_rationals, bits=st.integers(min_value=12, max_value=200))
def test_rounding_relative_error(x: Q, bits: int) -> None:
    lo, hi = round_down(x, bits), round_up(x, bits)
    assert lo <= x <= hi
    assert hi - lo <= abs(x) * Q(2) ** (1 - bits)


def test_add_exact_points() -> None:
    a = Enclosure.point(1, P64)
    b = Enclosure.point(2, P64)
    out = a + b
    assert out.lo == out.hi == 3


def test_mul_mixed_signs() -> None:
    a = Enclosure(Q(1), Q(2), P64)
    b = Enclosure(Q(-1), Q(1), P64)
    out = a * b
    assert out.lo == -2 and out.hi == 2


def test_division_contract_at_8_bits() -> None:
    out = Enclosure.point(1, Precision(8)) / Enclosure.point(3, Precision(8))
    assert out.contains(Q(1, 3))
    assert out.width <= Q(1, 2**7)


def test_division_by_zero_interval_raises() -> None:
    a = Enclosure.point(1, P64)
    b = Enclosure(Q(-1), Q(1), P64)
    with pytest.raises(DivisionByIntervalContainingZero):
        a / b


def test_result_precision_is_coarser_operand() -> None:
    a = Enclosure.point(1, Precision(32))
    b = Enclosure.point(3, Precision(128))
    assert (a / b).precision.bits == 32


@given(a=rationals, b=rationals)
def test_arith_soundness(a: Q, b: Q) -> None:
    ea, eb = Enclosure.from_rational(a, P64), Enclosure.from_rational(b, P64)
    assert (ea + eb).contains(a + b)
    assert (ea - eb).contains(a - b)
    assert (ea * eb).contains(a * b)
    if abs(b) > Q(1, 1000):
        assert (ea / eb).contains(a / b)


@given(a=rationals, b=rationals)
def test_refinement_nests(a: Q, b: Q) -> None:
    coarse = Enclosure.from_rational(a, P64) * Enclosure.from_rational(b, P64)
    fine = Enclosure.from_rational(a, Precision(256)) * Enclosure.from_rational(
        b, Precision(256)
    )
    assert coarse.encloses(fine)
    assert fine.width <= coarse.width


def test_square_is_tighter_than_product() -> None:
    x = Enclosure(Q(-1), Q(2), P64)
    assert x.square().lo == 0
    assert (x * x).lo == -2


def test_sqrt_perfect_square_is_exact() -> None:
    out = enc_sqrt(Enclosure(Q(4), Q(4), P64))
    assert out.lo == out.hi == 2


def test_sqrt_negative_raises() -> None:
    with pytest.raises(NegativeRadicand):
        enc_sqrt(Enclosure(Q(-1), Q(1), P64))


@given(x=st.fractions(min_value=Q(0), max_value=Q(10**6), max_denominator=10**6))
def test_sqrt_soundness(x: Q) -> None:
    out = enc_sqrt(Enclosure.point(x, P64))
    assert out.lo >= 0
    assert out.lo * out.lo <= x <= out.hi * out.hi


def test_sqrt_two_digits() -> None:
    out = enc_sqrt(Enclosure.point(2, P128))
    band = Q("1.41421356237309504880168872420969807857")
    assert out.lo <= band + Q(1, 10**38)
    assert out.hi >= band
    assert out.width < Q(1, 2**120)


def test_pi_reference_digits_and_width() -> None:
    for bits in (64, 128, 192):
        p = pi_reference(Precision(bits))
        assert p.lo <= PI_40 + PI_BAND and PI_40 <= p.hi
        assert p.width < Q(2) ** (4 - bits)


def test_pi_reference_nests_across_precisions() -> None:
    encs = [pi_reference(Precision(b)) for b in (64, 128, 192, 256, 320)]
    for coarse, fine in zip(encs, encs[1:]):
        assert coarse.encloses(fine)
        assert fine.width < coarse.width


def test_sin_zero_is_exact() -> None:
    out = enc_sin(Enclosure.point(0, P64))
    assert out.lo == out.hi == 0


def test_cos_zero_is_exact_one() -> None:
    out = enc_cos(Enclosure.point(0, P64))
    assert out.contains(1) and out.width == 0


def test_cos_pi_thirds() -> None:
    x = pi_reference(P128) * Q(1, 3)
    out = enc_cos(x)
    assert out.contains(Q(1, 2))
    assert out.width < Q(1, 2**110)


def test_sin_of_pi_contains_zero() -> None:
    out = enc_sin(pi_reference(P128))
    assert out.contains(0)
    assert out.mag_ub() < Q(1, 2**110)


def test_large_argument_reduction() -> None:
    # 100 radians needs several quarter-turn reductions
    x = Enclosure.point(100, P128)
    s, c = enc_sin(x), enc_cos(x)
    assert (s.square() + c.square()).contains(1)
    assert s.hi < 0 < c.lo  # 100 rad sits in the third quadrant mod 2*pi


def test_tan_quarter() -> None:
    s = enc_tan(Enclosure.point(Q(1, 4), P128))
    # tan(1/4) = sin(1/4)/cos(1/4); recompute by the component route
    sin_q = enc_sin(Enclosure.point(Q(1, 4), P128))
    cos_q = enc_cos(Enclosure.point(Q(1, 4), P128))
    assert s.overlaps(sin_q / cos_q)


def test_tan_near_pole_raises() -> None:
    half_pi = pi_reference(P64) * Q(1, 2)
    with pytest.raises(PoleProximity):
        enc_tan(half_pi)


def test_arcsin_one_matches_half_pi() -> None:
    out = enc_arcsin(Enclosure.point(1, P128))
    half_pi = pi_reference(P128) * Q(1, 2)
    assert out.overlaps(half_pi)
    assert out.width < Q(1, 2**110)


def test_arcsin_domain_error() -> None:
    with pytest.raises(DomainError):
        enc_arcsin(Enclosure(Q(0), Q(2), P64))


def test_arctan_one_is_quarter_pi() -> None:
    out = enc_arctan(Enclosure.point(1, P128))
    assert out.overlaps(pi_reference(P128) * Q(1, 4))


@given(x=st.fractions(min_value=Q(-3), max_value=Q(3), max_denominator=10**4))
@settings(max_examples=60)
def test_pythagorean_identity(x: Q) -> None:
    e = Enclosure.point(x, P64)
    s, c = enc_sin(e), enc_cos(e)
    assert (s.square() + c.square()).contains(1)


@given(x=st.fractions(min_value=Q(-20), max_value=Q(20), max_denominator=10**4))
@settings(max_examples=60)
def test_arctan_odd_symmetry(x: Q) -> None:
    pos = enc_arctan(Enclosure.point(x, P64))
    neg = enc_arctan(Enclosure.point(-x, P64))
    assert pos.overlaps(-neg)


# -- kernel oracle: mpmath at twice the working bits plus 64 ---------------

# kernel -> enclosure of its value at x; pi ignores x
ORACLE_KERNELS = {
    "pi": lambda x, p: pi_reference(p),
    "sqrt": lambda x, p: enc_sqrt(Enclosure.point(x, p)),
    "sin": lambda x, p: enc_sin(Enclosure.point(x, p)),
    "cos": lambda x, p: enc_cos(Enclosure.point(x, p)),
    "tan": lambda x, p: enc_tan(Enclosure.point(x, p)),
    "atan": lambda x, p: enc_arctan(Enclosure.point(x, p)),
    "asin": lambda x, p: enc_arcsin(Enclosure.point(x, p)),
}
# fixed arguments away from the poles of tan: |x| > 1 takes sin, cos and
# tan through quarter-turn reduction, and arctan and arcsin through halving
ORACLE_ARGS = {"pi": Q(0), "sqrt": Q(2), "sin": Q(-12, 5), "cos": Q(-12, 5),
               "tan": Q(-12, 5), "atan": Q(-9, 2), "asin": Q(9, 10)}


@pytest.fixture(scope="module")
def mpmath():
    return pytest.importorskip("mpmath")


def _mpf_value(v) -> Q:
    man, exp = v.man_exp  # the magnitude's mantissa
    return Q(man) * Q(2) ** exp * (-1 if v < 0 else 1)


def _oracle_bracket(mpmath, name: str, x: Q, bits: int) -> tuple[Q, Q]:
    """Bounds that the kernel's enclosure must meet.  mpmath.iv gives an
    interval at 2*bits + 64 bits; it has no atan or asin, so those take the
    mpf value at that precision, widened by 2^-(bits+32)."""
    prec = 2 * bits + 64
    with mpmath.workprec(prec):
        arg = mpmath.mpf(x.numerator) / x.denominator
        if name in ("atan", "asin"):
            value = _mpf_value(getattr(mpmath, name)(arg))
            tol = Q(1, 1 << (bits + 32))
            return value - tol, value + tol
        iv, saved = mpmath.iv, mpmath.iv.prec
        iv.prec = prec
        try:
            enclosed = iv.mpf(x.numerator) / x.denominator  # contains x
            out = +iv.pi if name == "pi" else getattr(iv, name)(enclosed)
            return _mpf_value(mpmath.mpf(out.a)), _mpf_value(mpmath.mpf(out.b))
        finally:
            iv.prec = saved


def _check_against_mpmath(mpmath, name: str, x: Q, bits: int) -> None:
    enc = ORACLE_KERNELS[name](x, Precision(bits))
    lo, hi = _oracle_bracket(mpmath, name, x, bits)
    assert enc.lo <= hi and lo <= enc.hi, f"{name}({x}) at {bits} bits misses mpmath"
    assert enc.width <= Q(8, 1 << bits) * max(1, enc.mag_ub()), f"{name}({x}) too wide"


@pytest.mark.parametrize("bits", [64, 1024, 2048, 3400])
@pytest.mark.parametrize("name", sorted(ORACLE_KERNELS))
def test_kernels_match_mpmath(mpmath, name: str, bits: int) -> None:
    _check_against_mpmath(mpmath, name, ORACLE_ARGS[name], bits)


@given(
    name=st.sampled_from(sorted(ORACLE_KERNELS)),
    x=st.fractions(min_value=Q(-3, 2), max_value=Q(3, 2), max_denominator=10**6),
    bits=st.integers(min_value=64, max_value=512),
)
@settings(max_examples=80, deadline=None)
def test_kernels_match_mpmath_on_random_rationals(mpmath, name: str, x: Q, bits: int) -> None:
    # |x| <= 3/2 keeps tan away from its poles at +-pi/2
    if name == "sqrt":
        x = abs(x)
    elif name == "asin":
        x = x * Q(2, 3)
    _check_against_mpmath(mpmath, name, x, bits)


# -- fixed-point series kernel against the interval Taylor reference -------


def _reference_alternating_series(
    x: Enclosure, first: Enclosure, work: Precision, divisor=None, weight=None,
) -> Enclosure:
    """The interval Taylor summation that the fixed-point kernel replaced:
    first + t_1 + t_2 + ... with t_k = p_k / weight(k), where p_0 = first
    and p_k = -p_(k-1) x^2 / divisor(k), stopping at the first term below
    2^-(bits+4)."""
    x2 = x.square()
    power = total = first
    thresh = Q(1, 1 << (work.bits + 4))
    for k in range(1, -(-(work.bits + 4) // 3) + 2):
        power = -(power * x2)
        if divisor is not None:
            power = power / divisor(k)
        term = power if weight is None else power / weight(k)
        bound = term.mag_ub()
        if bound < thresh:
            return Enclosure(total.lo - bound, total.hi + bound, total.precision)
        total = total + term
    raise IndeterminateError(f"series failed to converge at {work.bits} bits")


def _reference_sincos_tail(x: Enclosure, s: int, work: Precision) -> Enclosure:
    if s < 2:
        first = x if s else Enclosure.point(1, work)
    else:
        first = x.square() / 2 if s == 2 else x * x.square() / 6
    return _reference_alternating_series(
        x, first, work, divisor=lambda k: (2 * k + s - 1) * (2 * k + s))


def _reference_arctan_series(x: Enclosure, work: Precision) -> Enclosure:
    return _reference_alternating_series(x, x, work, weight=lambda k: 2 * k + 1)


def _reference_pi(precision: Precision) -> Enclosure:
    work = precision.raised(32)
    a = _reference_arctan_series(Enclosure.point(Q(1, 5), work), work)
    b = _reference_arctan_series(Enclosure.point(Q(1, 239), work), work)
    return (a * 16 - b * 4).rounded(precision)


def _reference_series(x: Enclosure, s: int | None, work: Precision) -> Enclosure:
    if s is None:
        return _reference_arctan_series(x, work)
    return _reference_sincos_tail(x, s, work)


# kernel index: 0 to 3 for the sine family, None for arctan
SERIES = {"cos": 0, "sin": 1, "1 - cos": 2, "x - sin": 3, "arctan": None}


def _contraction(s: int | None) -> Q:
    # The nesting test stays within 9/8 for the whole sine family, short of
    # the kernel's limits of 8/5 and 16/5 for 1 - cos and x - sin: the
    # reference's term cap, (bits + 4)/3 + 1 terms, assumes that each term
    # contracts by about 1/8, which x - sin at 16/5 does not do at 8 bits.
    return Q(27, 100) if s is None else Q(9, 8)


@st.composite
def series_arguments(draw, limit: Q) -> Q:
    """A signed rational with |x| from limit/2^60 up to the limit."""
    scale = draw(st.fractions(min_value=Q(1, 2), max_value=1, max_denominator=10**6))
    sign = draw(st.sampled_from([-1, 1]))
    return sign * limit * scale / 2 ** draw(st.integers(0, 59))


@st.composite
def series_cases(draw):
    """(kernel, argument, working precision): a point, a narrow interval, or
    an interval of two independent ends, which may straddle 0."""
    name = draw(st.sampled_from(sorted(SERIES) + ["pi"]))
    work = Precision(draw(st.integers(8, 400) | st.integers(8, 3400)))
    s = SERIES.get(name)
    limit = _contraction(s)
    a = draw(series_arguments(limit))
    kind = draw(st.sampled_from(["point", "narrow", "ends"]))
    if kind == "point":
        b = a
    elif kind == "narrow":
        b = a * (1 - Q(1, 2 ** draw(st.integers(1, work.bits))))
    else:
        b = draw(series_arguments(limit))
    return name, Enclosure(min(a, b), max(a, b), work)


@given(case=series_cases())
# short dyadic ends: the reference's lower end is within one 2^-w unit of the value
@example(case=(
    "1 - cos", Enclosure(Q(-9, 2**27), Q(-9, 2**27) * (1 - Q(1, 2**54)), Precision(63))))
@settings(max_examples=120, deadline=None)
def test_series_nest_in_interval_taylor_reference(case) -> None:
    name, x = case
    work = x.precision
    if name == "pi":
        assert _reference_pi(work).encloses(pi_reference(work))
        return
    s = SERIES[name]
    new = exact._series(x, s, work)
    # Compared on the working grid, which every caller rounds onto: for a
    # tiny x the reference can stop before its first rounding, and its tail
    # bound then sits closer to the value than the kernel's 2^-w scale.
    assert _reference_series(x, s, work).rounded(work).encloses(new)


def _mpmath_series(mpmath, s: int | None, x: Q):
    arg = mpmath.mpf(x.numerator) / x.denominator
    if s is None:
        return mpmath.atan(arg)
    return (mpmath.cos(arg), mpmath.sin(arg), 1 - mpmath.cos(arg), arg - mpmath.sin(arg))[s]


@given(
    name=st.sampled_from(sorted(SERIES)),
    data=st.data(),
    w=st.integers(8, 600) | st.integers(8, 3460),
)
@settings(max_examples=120, deadline=None)
def test_fixed_series_error_bound_holds_against_mpmath(mpmath, name: str, data, w: int) -> None:
    s = SERIES[name]
    x = data.draw(series_arguments(exact._SERIES_LIMIT[s]))
    low, high = exact._fixed_series(x.numerator, x.denominator, s, w)
    with mpmath.workprec(2 * w + 64):
        value = _mpf_value(_mpmath_series(mpmath, s, x)) * 2**w
    # the mpf value is within 2^-(2w+62) of f(x), far below one unit of 2^-w
    slack = Q(1, 2**32)
    assert low - slack <= value <= high + slack, f"{name}({x}) at w={w}"


def test_fixed_series_guards_its_contraction() -> None:
    assert 0 < exact._fixed_series(9, 8, 0, 64)[0]
    assert exact._fixed_series(-27, 100, None, 64)[1] < 0
    # each series accepts |x| up to its own limit and refuses just past it
    limits = {0: Q(9, 8), 1: Q(9, 8), 2: Q(8, 5), 3: Q(16, 5), None: Q(27, 100)}
    assert exact._SERIES_LIMIT == limits
    for s, limit in limits.items():
        for x in (limit, -limit):
            low, high = exact._fixed_series(x.numerator, x.denominator, s, 64)
            assert low <= high
            past = x * (1 + Q(1, 2**40))
            with pytest.raises(IndeterminateError):
                exact._fixed_series(past.numerator, past.denominator, s, 64)
    # divisions that leave no remainder add no slack: 0 is exact
    assert exact._fixed_series(0, 7, 0, 64) == (1 << 64, 1 << 64)
    assert exact._fixed_series(0, 7, None, 64) == (0, 0)


@given(
    name=st.sampled_from(["1 - cos", "x - sin"]),
    data=st.data(),
    bits=st.integers(8, 1024),
)
@settings(max_examples=60, deadline=None)
def test_series_past_nine_eighths_encloses_both_ends(mpmath, name: str, data, bits: int) -> None:
    # 1 - cos and x - sin serve segment angles past the quarter-turn range:
    # an interval between 9/8 and the limit, on either side of 0
    s = SERIES[name]
    ends = st.fractions(min_value=Q(9, 8), max_value=exact._SERIES_LIMIT[s],
                        max_denominator=2**bits)
    a, b = sorted((data.draw(ends), data.draw(ends)))
    if data.draw(st.booleans()):
        a, b = -b, -a
    enc = exact._series(Enclosure(a, b, Precision(bits)), s, Precision(bits))
    tol = Q(1, 2 ** (2 * bits + 64))
    with mpmath.workprec(2 * bits + 128):
        values = [_mpf_value(_mpmath_series(mpmath, s, end)) for end in (a, b)]
    for value in values:
        assert enc.lo - tol <= value <= enc.hi + tol, f"{name}[{a}, {b}] at {bits} bits"
    assert enc.width <= abs(values[1] - values[0]) + Q(8, 1 << bits) * enc.mag_ub()


def test_pi_is_computed_once_for_a_sine_at_its_precision(monkeypatch) -> None:
    calls = []
    kernel = exact._fixed_series

    def counted(num, den, s, w):
        calls.append((num, den, s))
        return kernel(num, den, s, w)

    monkeypatch.setattr(exact, "_fixed_series", counted)
    monkeypatch.setattr(exact, "_pi_cache", None)
    pi_reference(Precision(3394))
    out = enc_sin(Enclosure.point(Q(7, 5), Precision(3394)))
    # pi's two arctangents, then cos at both ends of 7/5 - pi/2
    assert calls[:2] == [(1, 5, None), (1, 239, None)]
    assert [s for _, _, s in calls[2:]] == [0, 0]
    assert out.width < Q(8, 1 << 3394)


def _random_tree_value(rng: random.Random, depth: int, p: Precision):
    """Build a random expression, returning (enclosure at p, exact rational)."""
    if depth == 0 or rng.random() < 0.3:
        q = Q(rng.randint(-99, 99), rng.randint(1, 99))
        return Enclosure.from_rational(q, p), q
    op = rng.choice("asmdq")
    ea, xa = _random_tree_value(rng, depth - 1, p)
    if op == "q":
        sq = ea.square()
        return enc_sqrt(sq), abs(xa)  # sqrt(x^2) = |x| keeps everything exact
    eb, xb = _random_tree_value(rng, depth - 1, p)
    if op == "a":
        return ea + eb, xa + xb
    if op == "s":
        return ea - eb, xa - xb
    if op == "m":
        return ea * eb, xa * xb
    if eb.contains_zero() or xb == 0:
        return ea + eb, xa + xb
    return ea / eb, xa / xb


def test_expression_trees_contain_exact_value() -> None:
    rng = random.Random(20260815)
    for _ in range(300):
        enc, exact = _random_tree_value(rng, 4, P64)
        assert enc.contains(exact)


def test_expression_trees_refine() -> None:
    for seed in range(40):
        coarse, _ = _random_tree_value(random.Random(seed), 4, P64)
        fine, _ = _random_tree_value(random.Random(seed), 4, Precision(256))
        assert coarse.encloses(fine)


def test_bits_for_digits_policy() -> None:
    assert bits_for_digits(10) == 66  # ceil(33.3) + 32
    assert bits_for_digits(100) == 365
    with pytest.raises(ValueError):
        bits_for_digits(0)


def test_decimal_string_directions() -> None:
    assert decimal_string(Q(1, 3), 4, "down") == "0.3333"
    assert decimal_string(Q(1, 3), 4, "up") == "0.3334"
    assert decimal_string(Q(-1, 3), 4, "down") == "-0.3334"
    assert decimal_string(Q(-1, 3), 4, "up") == "-0.3333"
    assert decimal_string(Q(25, 2), 0, "down") == "12"


def test_render_common_prefix() -> None:
    enc = Enclosure(Q("3.1415926533906"), Q("3.1415926537752"), P128)
    assert render(enc, 14) == "3.141592653[3906, 7752]"


def test_render_point_value() -> None:
    assert render(Enclosure.point(3, P64), 10) == "3"
    assert render(Enclosure.point(Q(1, 4), P64), 10) == "0.25"


def test_render_negative_and_straddling() -> None:
    neg = Enclosure(Q("-0.00341248"), Q("-0.00341247"), P64)
    assert render(neg, 6) == "-0.0034124[7, 8]"
    strad = Enclosure(Q(-1, 1000), Q(1, 1000), P64)
    out = render(strad, 3)
    assert out.startswith("[-0.001") and out.endswith("]")


def test_correct_digits_counts_shared_places() -> None:
    enc = Enclosure(Q("3.14159265339060"), Q("3.14159265377520"), P128)
    assert correct_digits(enc) == 9
    assert correct_digits(pi_reference(P128)) >= 36


def _cap(bits: int) -> int:
    return max(1, bits * 301 // 1000)


def _truncations_differ(enc: Enclosure, m: int) -> bool:
    s = 10**m
    return math.floor(enc.lo * s) != math.floor(enc.hi * s)


def _correct_digits_by_scan(enc: Enclosure) -> int:
    """Reference: scan the decimal places one at a time."""
    cap = _cap(enc.precision.bits)
    lo_n, lo_d = enc.lo.numerator, enc.lo.denominator
    hi_n, hi_d = enc.hi.numerator, enc.hi.denominator
    k = 0
    while k < cap:
        s = 10 ** (k + 1)
        if (lo_n * s) // lo_d != (hi_n * s) // hi_d:
            break
        k += 1
    return k


@st.composite
def digit_enclosures(draw) -> Enclosure:
    """Enclosures at 8 to 3400 bits whose endpoints part anywhere up to the cap."""
    p = Precision(draw(st.integers(8, 3400) | st.integers(3000, 3400)))
    cap = _cap(p.bits)
    kind = draw(st.sampled_from(["spread", "straddle", "point", "agree-to-cap"]))
    if kind == "agree-to-cap":
        # both endpoints sit inside one cell of width 10^-(cap+3)
        scale = 10 ** (cap + 3)
        a = draw(st.integers(min_value=-(10**40) * scale, max_value=10**40 * scale))
        return Enclosure(Q(3 * a + 1, 3 * scale), Q(3 * a + 2, 3 * scale), p)
    if kind == "straddle":
        lo = -Q(draw(st.integers(1, 2**64)), 2 ** draw(st.integers(0, p.bits)))
        hi = Q(draw(st.integers(0, 2**64)), 2 ** draw(st.integers(0, p.bits)))
        return Enclosure(lo, hi, p)
    lo = Q(draw(st.integers(-(2**p.bits), 2**p.bits)), 2 ** draw(st.integers(0, p.bits)))
    if kind == "point":
        return Enclosure(lo, lo, p)
    # widths from 10^12 down to 10^-(cap+12), so the count covers 0..cap
    width = Q(draw(st.integers(1, 10**12)), 10 ** draw(st.integers(0, cap + 12)))
    return Enclosure(lo, lo + width, p)


@given(enc=digit_enclosures())
@settings(max_examples=300, deadline=None)
def test_correct_digits_matches_linear_scan(enc: Enclosure) -> None:
    assert correct_digits(enc) == _correct_digits_by_scan(enc)


@given(enc=digit_enclosures())
@settings(max_examples=60, deadline=None)
def test_correct_digits_predicate_is_monotone(enc: Enclosure) -> None:
    # the bisection in correct_digits relies on this: once the truncations
    # differ at one place, they differ at every later place
    cap = _cap(enc.precision.bits)
    differ = [_truncations_differ(enc, m) for m in range(cap + 2)]
    assert differ == sorted(differ)
    agree = [m for m in range(1, cap + 1) if not differ[m]]
    assert correct_digits(enc) == max(agree, default=0)


def test_correct_digits_edge_enclosures() -> None:
    p = Precision(3400)
    assert correct_digits(Enclosure.point(Q(-7, 3), p)) == 1023
    # floor, not truncation toward zero: -0.1 and -0.05 both floor to -0.1
    # at one place, and part at two
    assert correct_digits(Enclosure(Q("-0.1"), Q("-0.05"), P64)) == 1
    assert correct_digits(Enclosure(Q("2.999"), Q("3.001"), P64)) == 0
    assert correct_digits(Enclosure(Q(-1, 10**30), Q(1, 10**30), P128)) == 0
    assert correct_digits(Enclosure(Q(0), Q(1, 10**30), P128)) == 29


def _dec_exponent_by_loop(x: Q) -> int:
    """Reference: one division by ten per decade."""
    x = abs(x)
    e = 0
    while x >= 10:
        x /= 10
        e += 1
    while x < 1:
        x *= 10
        e -= 1
    return e


@st.composite
def decimal_magnitudes(draw) -> Q:
    """Nonzero rationals from about 1e-430 to 1e430, exact powers of ten
    and their neighbours among them."""
    power = Q(10) ** draw(st.integers(-430, 430))
    kind = draw(st.sampled_from(["power", "below", "above", "ratio"]))
    if kind == "power":
        x = power
    elif kind == "below":
        x = power * (1 - Q(1, 2 ** draw(st.integers(1, 200))))
    elif kind == "above":
        x = power * (1 + Q(1, 2 ** draw(st.integers(1, 200))))
    else:
        x = power * Q(draw(st.integers(1, 10**40)), draw(st.integers(1, 10**40)))
    return draw(st.sampled_from([x, -x]))


@given(x=decimal_magnitudes())
@settings(max_examples=400, deadline=None)
def test_dec_exponent_matches_the_decade_loop(x: Q) -> None:
    assert exact._dec_exponent(x.numerator, x.denominator) == _dec_exponent_by_loop(x)
