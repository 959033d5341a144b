"""The integer Enclosure against the Fraction formulas it replaced.

Enclosure keeps its endpoints as integers over one denominator u 2^k and
rounds by shifting; _fixed_series divides by shifting when its denominator
has a power-of-two factor.  Both must give exactly the numbers of the
Fraction code they replaced, which is kept here as the reference: the
golden corpus pins that for the CLI, and these properties pin it for
every operation, at magnitudes and signs the corpus never reaches.
"""

from __future__ import annotations

import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circulus import exact
from circulus.errors import (
    DivisionByIntervalContainingZero,
    IndeterminateError,
    NegativeRadicand,
)
from circulus.exact import Enclosure, Precision, Q, enc_sqrt, round_down, round_up, ulp

# -- the Fraction formulas ---------------------------------------------------


def _ref_mag_exponent(x: Q) -> int:
    n, d = abs(x.numerator), x.denominator
    e = n.bit_length() - d.bit_length()
    if e >= 0:
        if n < d << e:
            e -= 1
    elif n << -e < d:
        e -= 1
    return e


def _ref_round_down(x: Q, bits: int) -> Q:
    if x == 0:
        return Q(0)
    g = _ref_mag_exponent(x) + 1 - bits
    n, d = x.numerator, x.denominator
    if g >= 0:
        return Q((n // (d << g)) * (1 << g))
    return Q((n << -g) // d, 1 << -g)


def _ref_round_up(x: Q, bits: int) -> Q:
    return -_ref_round_down(-x, bits)


def _ref_ulp(x: Q, bits: int) -> Q:
    if x == 0:
        return Q(1, 1 << (2 * bits))
    return Q(2) ** (_ref_mag_exponent(x) + 1 - bits)


def _ref_out(lo: Q, hi: Q, p: Precision) -> tuple:
    return _ref_round_down(lo, p.bits), _ref_round_up(hi, p.bits), p


def _ref_sqrt_bound(x: Q, bits: int, up: bool) -> Q:
    if x == 0:
        return Q(0)
    k = bits + 2 - _ref_mag_exponent(x) // 2
    n, d = x.numerator, x.denominator
    num, den = (n << 2 * k, d) if k >= 0 else (n, d << -2 * k)
    scaled = -(-num // den) if up else num // den
    r = math.isqrt(scaled)
    if up and r * r < scaled:
        r += 1
    val = Q(r, 1 << k) if k >= 0 else Q(r << -k)
    return _ref_round_up(val, bits) if up else _ref_round_down(val, bits)


def _ends(x) -> tuple:
    """An enclosure as the Fraction triple the reference formulas take."""
    return x.lo, x.hi, x.precision


def _coarser(p: Precision, q: Precision) -> Precision:
    return p if p.bits <= q.bits else q


def _ref_binary(op: str, x: tuple, y: tuple) -> tuple:
    (a, b, p), (c, d, q) = x, y
    p = _coarser(p, q)
    if op == "+":
        return _ref_out(a + c, b + d, p)
    if op == "-":
        return _ref_out(a - d, b - c, p)
    if op == "*":
        products = (a * c, a * d, b * c, b * d)
        return _ref_out(min(products), max(products), p)
    if c <= 0 <= d:
        raise DivisionByIntervalContainingZero("reference")
    quotients = (a / c, a / d, b / c, b / d)
    return _ref_out(min(quotients), max(quotients), p)


def _ref_unary(op: str, x: tuple, q: Precision) -> tuple:
    a, b, p = x
    if op == "neg":
        return -b, -a, p
    if op == "abs":
        if a >= 0:
            return a, b, p
        if b <= 0:
            return -b, -a, p
        return Q(0), max(-a, b), p
    if op == "square":
        if a >= 0:
            lo, hi = a * a, b * b
        elif b <= 0:
            lo, hi = b * b, a * a
        else:
            lo, hi = Q(0), max(a * a, b * b)
        return _ref_out(lo, hi, p)
    if op == "rounded":
        return _ref_out(a, b, q)
    if op == "at_precision":
        return (a, b, q) if q.bits >= p.bits else _ref_out(a, b, q)
    if a < 0:
        raise NegativeRadicand("reference")
    return _ref_sqrt_bound(a, q.bits, False), _ref_sqrt_bound(b, q.bits, True), q


# -- operands ------------------------------------------------------------------


@st.composite
def values(draw) -> Q:
    """Signed rationals: dyadic at ordinary scales and near 2^300 and 2^-300,
    where the shared exponent k goes negative or past 300, and non-dyadic."""
    kind = draw(st.sampled_from(["zero", "dyadic", "huge", "tiny", "ratio"]))
    if kind == "zero":
        return Q(0)
    sign = draw(st.sampled_from([1, -1]))
    m = draw(st.integers(1, 2**160))
    if kind == "ratio":
        return sign * Q(m, draw(st.integers(1, 10**15)))
    e = draw({"dyadic": st.integers(-200, 40), "huge": st.integers(240, 320),
              "tiny": st.integers(-480, -300)}[kind])
    return sign * m * Q(2) ** e


@st.composite
def enclosures(draw) -> Enclosure:
    """Exact points (non-dyadic ones keep u > 1), exact intervals, intervals
    rounded onto the grid, and intervals that straddle zero."""
    p = Precision(draw(st.integers(8, 160)))
    a = draw(values())
    kind = draw(st.sampled_from(["point", "exact", "rounded", "straddle"]))
    if kind == "point":
        return Enclosure.point(a, p)
    b = draw(values())
    if kind == "straddle":
        a, b = -abs(a) or Q(-1), abs(b) or Q(1)
    lo, hi = min(a, b), max(a, b)
    if kind == "rounded":
        enc = Enclosure.from_endpoints(lo, hi, p)
        assert _ends(enc) == _ref_out(lo, hi, p)
        return enc
    return Enclosure(lo, hi, p)


scalars = values().filter(lambda v: v != 0) | st.integers(-(10**6), 10**6)

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _outcome(thunk):
    try:
        return _ends(thunk())
    except (DivisionByIntervalContainingZero, NegativeRadicand) as exc:
        return type(exc)


def _ref_outcome(thunk):
    try:
        return thunk()
    except (DivisionByIntervalContainingZero, NegativeRadicand) as exc:
        return type(exc)


@given(x=enclosures(), y=enclosures(), op=st.sampled_from(sorted(BINARY)))
@settings(max_examples=300, deadline=None)
def test_ring_operations_match_fraction_formulas(x, y, op) -> None:
    # mixed precisions: the result takes the coarser one
    got = _outcome(lambda: BINARY[op](x, y))
    assert got == _ref_outcome(lambda: _ref_binary(op, _ends(x), _ends(y))), (op, x, y)


@given(x=enclosures(), c=scalars, op=st.sampled_from(sorted(BINARY)),
       reflected=st.booleans())
@settings(max_examples=150, deadline=None)
def test_scalar_operands_are_exact_points(x, c, op, reflected) -> None:
    point = (Q(c), Q(c), x.precision)
    if reflected:
        got = _outcome(lambda: BINARY[op](c, x))
        want = _ref_outcome(lambda: _ref_binary(op, point, _ends(x)))
    else:
        got = _outcome(lambda: BINARY[op](x, c))
        want = _ref_outcome(lambda: _ref_binary(op, _ends(x), point))
    assert got == want, (op, x, c, reflected)


UNARY = {
    "neg": lambda x, q: -x,
    "abs": lambda x, q: abs(x),
    "square": lambda x, q: x.square(),
    "rounded": lambda x, q: x.rounded(q),
    "at_precision": lambda x, q: x.at_precision(q),
    "sqrt": lambda x, q: enc_sqrt(x, q),
}


@given(x=enclosures(), bits=st.integers(8, 200), op=st.sampled_from(sorted(UNARY)))
@settings(max_examples=300, deadline=None)
def test_unary_operations_match_fraction_formulas(x, bits, op) -> None:
    q = Precision(bits)
    got = _outcome(lambda: UNARY[op](x, q))
    assert got == _ref_outcome(lambda: _ref_unary(op, _ends(x), q)), (op, x, bits)


@given(v=values(), bits=st.integers(8, 200))
@settings(max_examples=150, deadline=None)
def test_directed_rounding_matches_fraction_formulas(v, bits) -> None:
    assert round_down(v, bits) == _ref_round_down(v, bits)
    assert round_up(v, bits) == _ref_round_up(v, bits)
    assert ulp(v, bits) == _ref_ulp(v, bits)


@given(x=enclosures(), y=enclosures())
@settings(max_examples=100, deadline=None)
def test_equality_and_comparisons_are_by_value(x, y) -> None:
    (a, b, p), (c, d, q) = _ends(x), _ends(y)
    assert (x == y) == ((a, b, p) == (c, d, q))
    assert x == Enclosure(a, b, p) and hash(x) == hash(Enclosure(a, b, p))
    assert x.width == b - a and x.mid == (a + b) / 2 and x.mag_ub() == max(-a, b)
    assert x.contains_zero() == (a <= 0 <= b) and x.is_point() == (a == b)


def test_division_by_interval_containing_zero_raises() -> None:
    p = Precision(64)
    for lo, hi in ((Q(-1), Q(1)), (Q(0), Q(1)), (Q(-1, 3), Q(0)), (Q(0), Q(0))):
        with pytest.raises(DivisionByIntervalContainingZero):
            Enclosure.point(1, p) / Enclosure(lo, hi, p)


# -- the series kernel's shift division ----------------------------------------


def _ref_fixed_series(num: int, den: int, s: int | None, w: int) -> tuple[int, int]:
    """_fixed_series as it was, with one divmod by den^2 (2k+s-1)(2k+s) a term."""
    n = abs(num)
    limit = exact._SERIES_LIMIT[s]
    if n * limit.denominator > den * limit.numerator:
        raise IndeterminateError("reference")
    if s is None:
        term, rem = divmod(n << w, den)
    else:
        term, rem = divmod(n**s << w, den**s * (1, 1, 2, 6)[s])
    n2, d2 = n * n, den * den
    total = k = 0
    err = 1 if rem else 0
    slack = [0, 0]
    while term >> 16:
        total += -term if k % 2 else term
        slack[k % 2] += err
        k += 1
        if s is None:
            grow, div = n2 * (2 * k - 1), d2 * (2 * k + 1)
        else:
            grow, div = n2, d2 * (2 * k + s - 1) * (2 * k + s)
        term, rem = divmod(term * grow, div)
        carry = rem + err * grow
        err = -(-carry // div)
    slack[k % 2] += term + err
    low, high = total - slack[1], total + slack[0]
    return (-high, -low) if num < 0 and (s is None or s % 2) else (low, high)


@given(
    s=st.sampled_from([0, 1, 2, 3, None]),
    den=st.integers(0, 400).map(lambda j: 1 << j) | st.just(10000),
    share=st.fractions(min_value=-1, max_value=Q(11, 10), max_denominator=10**6),
    w=st.integers(16, 600),
)
@settings(max_examples=150, deadline=None)
def test_fixed_series_matches_plain_divmod(s, den, share, w) -> None:
    # arguments up to a tenth past the series limit, so the refusal is compared too
    num = math.floor(share * exact._SERIES_LIMIT[s] * den)
    got = _ref_outcome_series(exact._fixed_series, num, den, s, w)
    assert got == _ref_outcome_series(_ref_fixed_series, num, den, s, w), (num, den, s, w)


def _ref_outcome_series(kernel, num, den, s, w):
    try:
        return kernel(num, den, s, w)
    except IndeterminateError:
        return IndeterminateError
