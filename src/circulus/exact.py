"""Outward-rounded interval arithmetic over exact rationals.

An enclosure keeps its endpoints as integers over one shared denominator:
lo = a/(u 2^k) and hi = b/(u 2^k), with u odd and k any integer.  Every
operation rounds its result outward to a stated number of significant bits,
so an enclosure always contains the exact real value it tracks, and every
rounded result has u = 1: rounding a dyadic endpoint is one shift, and a
quotient or an endpoint over u > 1 is one floor division.  u > 1 occurs
only on exact points of non-dyadic rationals, such as 1/3, which stay
exact.  lo, hi, width and mid are Fractions.  Nothing here ever touches
floating point.

pi, arctan, sin, cos, 1 - cos and x - sin share one series kernel,
_fixed_series.  At a rational point it sums the Taylor series on integers
scaled by 2^w, with w set _FIXED_GUARD bits below the working grid of the
leading term, and returns integer bounds L <= f 2^w <= H.  Each floor
division moves a term by at most two units, a bound carried from its
remainder and none while the divisions are exact, and the alternating tail
is at most the first omitted term, on its own side.  An interval argument
is evaluated at two points, because up to each series' limit the function
is monotone in x or in |x|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DivisionByIntervalContainingZero,
    DomainError,
    IndeterminateError,
    NegativeRadicand,
    PoleProximity,
)

Q = Fraction

_ONE = Q(1)


@dataclass(frozen=True, slots=True)
class Precision:
    """Working precision: endpoints carry at most `bits` significant bits."""

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 8:
            raise ValueError(f"precision must be at least 8 bits, got {self.bits}")

    def raised(self, extra: int) -> "Precision":
        return Precision(self.bits + extra)


def _mag(n: int, d: int) -> int:
    """e such that 2**e <= |n|/d < 2**(e+1); n must be nonzero, d > 0."""
    n = abs(n)
    e = n.bit_length() - d.bit_length()
    if e >= 0:
        if n < d << e:
            e -= 1
    elif n << -e < d:
        e -= 1
    return e


def _round(n: int, d: int, bits: int, up: bool) -> tuple[int, int]:
    """(m, s) such that m/2^s is the floor of n/d, or its ceiling when up, on
    the grid of `bits` significant bits; d > 0.  For d = 1 that is a shift.
    Otherwise s puts |n/d| 2^s in (2^(bits-1), 2^(bits+1)), one floor
    division rounds it, and a result of bits + 1 bits is halved, as
    floor(floor(y)/2) = floor(y/2); a floor that reaches -2^bits from above
    is a point of both grids."""
    if d == 1:
        s = bits - n.bit_length()
        if s >= 0:
            return n, 0
        return (-(-n >> -s) if up else n >> -s), s
    s = bits - n.bit_length() + d.bit_length()
    if up:
        n = -n
    q = (n << s if s >= 0 else n >> -s) // d
    if q.bit_length() > bits:
        q >>= 1
        s -= 1
    return (-q if up else q), s


def round_down(x: Q, bits: int) -> Q:
    """Largest dyadic value with `bits` significant bits that is <= x."""
    m, s = _round(x.numerator, x.denominator, bits, False)
    return Q(m, 1 << s) if s >= 0 else Q(m << -s)


def round_up(x: Q, bits: int) -> Q:
    """Smallest dyadic value with `bits` significant bits that is >= x."""
    return -round_down(-x, bits)


def ulp(x: Q, bits: int) -> Q:
    """Grid spacing at x for the given precision (tiny positive for x = 0)."""
    if x == 0:
        return Q(1, 1 << (2 * bits))
    return Q(2) ** (_mag(x.numerator, x.denominator) + 1 - bits)


class Enclosure:
    """Closed interval [lo, hi] certified to contain an exact real value,
    held as [a, b]/(u 2^k) with a <= b; equality is by value."""

    __slots__ = ("_a", "_b", "_k", "_u", "precision")

    def __init__(self, lo: Q | int, hi: Q | int, precision: Precision) -> None:
        lo, hi = Q(lo), Q(hi)
        if lo > hi:
            raise ValueError(f"inverted enclosure: {lo} > {hi}")
        self._a, _, self._b, _, self._k, self._u = _align(_point(lo, precision),
                                                          _point(hi, precision))
        self.precision = precision

    # -- construction -------------------------------------------------

    @classmethod
    def from_endpoints(cls, lo: Q, hi: Q, precision: Precision) -> "Enclosure":
        """Outward-round arbitrary rational endpoints onto the dyadic grid."""
        e = cls(lo, hi, precision)
        return _outward(e._a, e._b, e._k, e._u, precision)

    @classmethod
    def from_rational(cls, value: Q | int, precision: Precision) -> "Enclosure":
        """Tightest grid enclosure of a single rational value."""
        return cls.from_endpoints(value, value, precision)

    @classmethod
    def point(cls, value: Q | int, precision: Precision) -> "Enclosure":
        """Exact degenerate interval; the value is kept verbatim."""
        return _point(value if isinstance(value, (int, Fraction)) else Q(value), precision)

    # -- inspection ---------------------------------------------------

    def _ends(self) -> tuple[int, int, int]:
        """(a, b, d) with lo = a/d, hi = b/d and d = u 2^max(k, 0)."""
        k = self._k
        if k >= 0:
            return self._a, self._b, self._u << k
        return self._a << -k, self._b << -k, self._u

    def _q(self, n: int) -> Q:
        """n over the shared denominator, as a Fraction."""
        k = self._k
        return Q(n, self._u << k) if k >= 0 else Q(n << -k, self._u)

    lo = property(lambda self: self._q(self._a))
    hi = property(lambda self: self._q(self._b))
    width = property(lambda self: self._q(self._b - self._a))
    mid = property(lambda self: self._q(self._a + self._b) / 2)

    def mag_ub(self) -> Q:
        return self._q(max(-self._a, self._b))

    def _mag_above(self, q: Q | int) -> bool:
        """mag_ub() > q, decided on the integers."""
        a, b, d = self._ends()
        return max(-a, b) * q.denominator > d * q.numerator

    def is_point(self) -> bool:
        return self._a == self._b

    def contains(self, value: Q | int) -> bool:
        return self.lo <= value <= self.hi

    def contains_zero(self) -> bool:
        return self._a <= 0 <= self._b

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __eq__(self, other):
        if not isinstance(other, Enclosure):
            return NotImplemented
        a, b, c, d, _, _ = _align(self, other)
        return a == c and b == d and self.precision == other.precision

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.precision))

    def __repr__(self) -> str:
        return f"Enclosure(lo={self.lo!r}, hi={self.hi!r}, precision={self.precision!r})"

    # -- precision plumbing -------------------------------------------

    def rounded(self, precision: Precision) -> "Enclosure":
        return _outward(self._a, self._b, self._k, self._u, precision)

    def at_precision(self, precision: Precision) -> "Enclosure":
        """Retag at a finer precision, or outward-round to a coarser one."""
        if precision.bits >= self.precision.bits:
            return _make(self._a, self._b, self._k, self._u, precision)
        return self.rounded(precision)

    def intersect(self, other: "Enclosure") -> "Enclosure":
        a, b, c, d, k, u = _align(self, other)
        lo, hi = max(a, c), min(b, d)
        if lo > hi:
            raise ValueError("empty intersection of enclosures")
        return _make(lo, hi, k, u, self.precision)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: "Enclosure | Q | int") -> "Enclosure | None":
        if isinstance(other, Enclosure):
            return other
        if isinstance(other, (int, Fraction)):
            # exact lift: the scalar itself is never rounded
            return Enclosure.point(other, self.precision)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d, k, u = _align(self, o)
        return _outward(a + c, b + d, k, u, _coarser(self, o))

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._b, -self._a, self._k, self._u, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d, k, u = _align(self, o)
        return _outward(a - d, b - c, k, u, _coarser(self, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # the four products share the denominator u v 2^(k + j)
        a, b, c, d = self._a, self._b, o._a, o._b
        if a >= 0 and c >= 0:
            lo, hi = a * c, b * d
        else:
            products = (a * c, a * d, b * c, b * d)
            lo, hi = min(products), max(products)
        return _outward(lo, hi, self._k + o._k, self._u * o._u, _coarser(self, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._a, self._b, o._a, o._b
        if c <= 0 <= d:
            raise DivisionByIntervalContainingZero(
                f"denominator enclosure [{o.lo}, {o.hi}] contains zero"
            )
        if d < 0:  # x/y = (-x)/(-y)
            a, b, c, d = -b, -a, -d, -c
        # for y > 0, x/y is least at (a, d) if a >= 0, else at (a, c), and
        # greatest at (b, c) if b >= 0, else at (b, d); an endpoint quotient
        # is (a v)/(c u) 2^(j - k) for x over u 2^k and y over v 2^j
        p = _coarser(self, o)
        u, v, shift = self._u, o._u, self._k - o._k
        lo, s = _round(a * v, (d if a >= 0 else c) * u, p.bits, False)
        hi, t = _round(b * v, (c if b >= 0 else d) * u, p.bits, True)
        return _pair(lo, s + shift, hi, t + shift, p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def square(self) -> "Enclosure":
        """Tight interval square (accounts for the shared operand)."""
        a, b = self._a, self._b
        if a >= 0:
            lo, hi = a * a, b * b
        elif b <= 0:
            lo, hi = b * b, a * a
        else:
            lo, hi = 0, max(-a, b) ** 2
        return _outward(lo, hi, 2 * self._k, self._u * self._u, self.precision)

    def __abs__(self) -> "Enclosure":
        if self._a >= 0:
            return self
        if self._b <= 0:
            return -self
        return _make(0, max(-self._a, self._b), self._k, self._u, self.precision)

    def __str__(self) -> str:
        digits = max(1, self.precision.bits * 301 // 1000)
        return render(self, digits)


_new = object.__new__


def _make(a: int, b: int, k: int, u: int, precision: Precision) -> Enclosure:
    """[a, b]/(u 2^k), taken as it is."""
    e = _new(Enclosure)
    e._a, e._b, e._k, e._u, e.precision = a, b, k, u, precision
    return e


def _point(value: Q | int, precision: Precision) -> Enclosure:
    n, d = value.numerator, value.denominator
    k = (d & -d).bit_length() - 1
    return _make(n, n, k, d >> k, precision)


def _align(x: Enclosure, y: Enclosure) -> tuple[int, int, int, int, int, int]:
    """(a, b, c, d, k, u): x = [a, b]/(u 2^k) and y = [c, d]/(u 2^k)."""
    a, b, k, u = x._a, x._b, x._k, x._u
    c, d, j, v = y._a, y._b, y._k, y._u
    if u != v:
        a, b, c, d, u = a * v, b * v, c * u, d * u, u * v
    if k < j:
        a, b, k = a << j - k, b << j - k, j
    elif j < k:
        c, d = c << k - j, d << k - j
    return a, b, c, d, k, u


def _coarser(x: Enclosure, y: Enclosure) -> Precision:
    p, q = x.precision, y.precision
    return p if p.bits <= q.bits else q


def _pair(lo: int, e: int, hi: int, f: int, precision: Precision) -> Enclosure:
    """[lo/2^e, hi/2^f] over the finer of the two scales; a zero endpoint
    takes the other's."""
    if not lo:
        e = f
    elif not hi:
        f = e
    if e < f:
        lo, e = lo << f - e, f
    elif f < e:
        hi <<= e - f
    return _make(lo, hi, e, 1, precision)


def _outward(a: int, b: int, k: int, u: int, precision: Precision) -> Enclosure:
    """[a, b]/(u 2^k) rounded outward to `precision.bits` significant bits;
    quotients and square roots round their two ends with _round instead."""
    bits = precision.bits
    lo, s = _round(a, u, bits, False)
    hi, t = _round(b, u, bits, True)
    return _pair(lo, s + k, hi, t + k, precision)


def lift(
    x: Enclosure | Q | int, precision: Precision | None = None
) -> tuple[Enclosure, Precision]:
    """An argument as an enclosure, and the precision to work at.

    A scalar becomes an exact point enclosure.  The precision defaults to
    that of x when x is an enclosure, otherwise to 96 bits.
    """
    if isinstance(x, Enclosure):
        return x, precision or x.precision
    precision = precision or Precision(96)
    return Enclosure.point(Q(x), precision), precision


# -- square root -------------------------------------------------------


def _sqrt_bound(n: int, d: int, bits: int, up: bool) -> tuple[int, int]:
    """(m, s) with m/2^s a lower bound on sqrt(n/d) with `bits` significant
    bits, or an upper bound when up; n >= 0, d > 0."""
    if n == 0:
        return 0, 0
    k = bits + 2 - _mag(n, d) // 2
    num, den = (n << 2 * k, d) if k >= 0 else (n, d << -2 * k)
    scaled = -(-num // den) if up else num // den  # ceil or floor of x * 4**k
    r = math.isqrt(scaled)
    if up and r * r < scaled:
        r += 1
    m, s = _round(r, 1, bits, up)
    return m, s + k


def enc_sqrt(x: Enclosure, precision: Precision | None = None) -> Enclosure:
    """Enclosure of the square root, via integer square roots of scaled values."""
    a, b, d = x._ends()
    if a < 0:
        raise NegativeRadicand(f"sqrt of enclosure with lo = {x.lo} < 0")
    p = precision or x.precision
    return _pair(*_sqrt_bound(a, d, p.bits, False), *_sqrt_bound(b, d, p.bits, True), p)


# -- trigonometric and inverse trigonometric functions -----------------

_SERIES_GUARD = 16  # extra working bits inside every series evaluation
_FIXED_GUARD = 40  # fixed-point bits kept below the working grid of a series
# largest |x| by s, just past what callers pass: pi/4 after quarter turns, pi/2
# and pi for half and full segment angles, 0.27 after halving; see _fixed_series
_SERIES_LIMIT = {0: Q(9, 8), 1: Q(9, 8), 2: Q(8, 5), 3: Q(16, 5), None: Q(27, 100)}


def _fixed_series(num: int, den: int, s: int | None, w: int) -> tuple[int, int]:
    """(L, H) with L <= f(x) 2^w <= H at x = num/den, where f is cos x,
    sin x, 1 - cos x or x - sin x for s = 0, 1, 2, 3 (the Taylor series of
    cos or sin from its degree-s term on), or arctan x for s = None.

    The terms T_0 = |x|^s/s! (|x| for arctan) and T_k = T_(k-1) r_k, with
    r_k = x^2/((2k+s-1)(2k+s)) (x^2 (2k-1)/(2k+1) for arctan), are kept as
    integers t_k scaled by 2^w and summed with alternating signs; an odd f
    takes the sign of x last.  Each t_k is one floor division of t_(k-1) g_k
    by D_k, where r_k = g_k/D_k, with remainder q_k; so e_k = T_k - t_k =
    (q_k + e_(k-1) g_k)/D_k, and the loop carries the integer bound E_k =
    ceil((q_k + E_(k-1) g_k)/D_k) >= e_k, from E_0 = 1 (0 if t_0 is exact).
    E_k = 0 until a division leaves a remainder.  The limit |x| <=
    _SERIES_LIMIT[s] checked on entry keeps r_1 < 1 and r_k < 1/2 for
    k >= 2, so every E_k <= 2: cos and sin at 9/8 have r_1 <= 0.64 and
    r_k <= x^2/12 < 0.11, 1 - cos at 8/5 has r_1 = x^2/12 < 0.22, x - sin at
    16/5 has r_1 = x^2/20 < 0.52 and r_k <= x^2/42 < 0.25, and arctan at
    27/100 (pi uses 1/5 and 1/239) has r_k < x^2 < 0.073.  A short added
    term can only leave the sum below f, a short subtracted one above it.
    Summing stops at the first t_K below 2^16, which callers place 24 bits
    below the working grid.  The T_k decrease, so the alternating tail from
    T_K on has T_K's sign and at most its size, t_K + E_K.  So each side of
    the sum gets E_k for every term of its sign, and the tail on its own
    side: the bracket counts the floor divisions, at most two units each,
    and the first omitted term.
    """
    n = abs(num)
    if n * _SERIES_LIMIT[s].denominator > den * _SERIES_LIMIT[s].numerator:
        raise IndeterminateError(f"series argument {num}/{den} is not contracted")
    # den = o 2^t with o odd, so each division is a shift by a multiple of t
    # and a floor division by the rest; the shifted-out bits rejoin the
    # remainder, which the error bound needs
    t = (den & -den).bit_length() - 1
    o = den >> t
    if s is None:
        top, j, first = n << w, t, o
    else:
        top, j, first = n**s << w, s * t, o**s * (1, 1, 2, 6)[s]
    term, rem = divmod(top >> j, first)
    err = 1 if rem or top & ((1 << j) - 1) else 0  # bounds e_k
    n2, o2, t2 = n * n, o * o, 2 * t
    low_bits = (1 << t2) - 1
    total = k = 0
    slack = [0, 0]  # how far f may sit above the sum, and below it
    while term >> 16:
        total += -term if k % 2 else term
        slack[k % 2] += err
        k += 1
        if s is None:
            grow, div = n2 * (2 * k - 1), o2 * (2 * k + 1)
        else:
            grow, div = n2, o2 * (2 * k + s - 1) * (2 * k + s)
        x = term * grow
        term, rem = divmod(x >> t2, div)  # D_k = div 2^t2
        carry = (rem << t2) + (x & low_bits) + err * grow  # e_k <= carry / D_k
        err = -((-carry >> t2) // div)
    slack[k % 2] += term + err
    low, high = total - slack[1], total + slack[0]
    return (-high, -low) if num < 0 and (s is None or s % 2) else (low, high)


def _fixed_bounds(n: int, d: int, s: int | None, work: Precision) -> tuple[int, int, int]:
    """(L, H, w) with L <= f(n/d) 2^w <= H, d > 0; the scale 2^w sits
    _FIXED_GUARD bits below the working grid of the leading term, so small
    n/d keep every bit.  w is read from n/d in lowest terms; a common power
    of two leaves the bit lengths' difference alone, so only a d with an odd
    factor needs the gcd."""
    if d & (d - 1):
        g = math.gcd(n, d)
        n, d = n // g, d // g
    e = abs(n).bit_length() - d.bit_length()  # log2 |n/d| to within 1
    w = work.bits + _FIXED_GUARD - (1 if s is None else s) * e
    return (*_fixed_series(n, d, s, w), w)


def _series(x: Enclosure, s: int | None, work: Precision) -> Enclosure:
    """cos x, sin x, 1 - cos x, x - sin x or arctan x for s = 0, 1, 2, 3 or
    None, from _fixed_series at two points, so f must be monotone up to
    _SERIES_LIMIT[s]: sin increases to pi/2 > 9/8, arctan and x - sin x
    (of derivative 1 - cos x) everywhere; cos and 1 - cos are monotone in
    |x| to pi > 8/5, taking f(0) = 1 or 0 where x straddles 0."""
    a, b, d = x._ends()
    if s == 0 or s == 2:
        near = 0 if a <= 0 <= b else min(abs(a), abs(b))
        a, b = (near, max(-a, b)) if s else (max(-a, b), near)
    low = _fixed_bounds(a, d, s, work)
    high = low if b == a else _fixed_bounds(b, d, s, work)
    return _pair(low[0], low[2], high[1], high[2], work)


def _reduce_quarter(x: Enclosure, work: Precision) -> tuple[Enclosure, int]:
    """Write x = y + q*(pi/2) with |y| small; return (y, q mod 4)."""
    if not x._mag_above(1):
        return x, 0
    half_pi = pi_reference(work) * Q(1, 2)
    q = round(x.mid / half_pi.mid)
    y = x - q * half_pi
    return y, q % 4


def _sin_quarters(x: Enclosure, precision: Precision | None, shift: int) -> Enclosure:
    """sin(x + shift*pi/2), from one series after quarter-turn reduction."""
    p = precision or x.precision
    work = p.raised(_SERIES_GUARD)
    y, q = _reduce_quarter(x.at_precision(work), work)
    if y._mag_above(_SERIES_LIMIT[0]):
        return Enclosure(Q(-1), _ONE, p)  # argument too wide to reduce
    q = (q + shift) % 4
    out = _series(y, 1 - q % 2, work)
    out = (out if q < 2 else -out).rounded(p)
    a, b, d = out._ends()  # clamped to [-1, 1]
    return _make(max(a, -d), min(b, d), max(out._k, 0), out._u, p)


def enc_sin(x: Enclosure, precision: Precision | None = None) -> Enclosure:
    return _sin_quarters(x, precision, 0)


def enc_cos(x: Enclosure, precision: Precision | None = None) -> Enclosure:
    return _sin_quarters(x, precision, 1)


def enc_tan(x: Enclosure, precision: Precision | None = None) -> Enclosure:
    p = precision or x.precision
    work = p.raised(8)
    c = enc_cos(x, work)
    if c.contains_zero():
        raise PoleProximity(
            f"cos enclosure [{c.lo}, {c.hi}] contains zero: argument too close to a pole"
        )
    s = enc_sin(x, work)
    return (s / c).rounded(p)


def enc_arctan(x: Enclosure, precision: Precision | None = None) -> Enclosure:
    p = precision or x.precision
    work = p.raised(_SERIES_GUARD)
    y = x.at_precision(work)
    doublings = 0
    # halve the argument until the series converges briskly: the map
    # t -> t/(1 + sqrt(1 + t^2)) sends tan(a) to tan(a/2)
    while y._mag_above(_SERIES_LIMIT[None]):
        y = y / (Enclosure.point(_ONE, work) + enc_sqrt(y.square() + 1))
        doublings += 1
        if doublings > 200:
            raise IndeterminateError(
                f"arctangent reduction failed to contract at {work.bits} bits"
            )
    out = _series(y, None, work)
    if doublings:
        out = out * (1 << doublings)
    return out.rounded(p)


def _arcsin_point(v: Q, work: Precision) -> Enclosure:
    if v == 1:
        return pi_reference(work) * Q(1, 2)
    if v == -1:
        return pi_reference(work) * Q(-1, 2)
    pv = Enclosure.point(v, work)
    root = enc_sqrt(Enclosure.point(_ONE, work) - pv.square())
    return enc_arctan(pv / root, work)


def enc_arcsin(x: Enclosure, precision: Precision | None = None) -> Enclosure:
    if x.lo < -1 or x.hi > 1:
        raise DomainError(f"arcsin argument [{x.lo}, {x.hi}] leaves [-1, 1]")
    p = precision or x.precision
    work = p.raised(_SERIES_GUARD)
    if x.is_point():
        return _arcsin_point(x.lo, work).rounded(p)
    lo = _arcsin_point(x.lo, work).lo  # arcsin is increasing
    hi = _arcsin_point(x.hi, work).hi
    return Enclosure(lo, hi, work).rounded(p)


# -- pi ----------------------------------------------------------------

# the tight enclosure at the working bits it was computed at, replaced in
# one assignment so that its bits always describe its own computation
_pi_cache: Enclosure | None = None


def pi_reference(precision: Precision) -> Enclosure:
    """Machin-formula enclosure of pi: 16*arctan(1/5) - 4*arctan(1/239),
    both summed by _fixed_series at one scale, 32 + _FIXED_GUARD bits past
    the request.

    Results at different precisions are coarsenings of one shared tight
    interval, so pi_reference(p) always encloses pi_reference(p + k).
    """
    global _pi_cache
    tight = _pi_cache
    if tight is None or tight.precision.bits < precision.bits:
        work = precision.raised(32)
        w = work.bits + _FIXED_GUARD
        (a, b), (c, d) = (_fixed_series(1, m, None, w) for m in (5, 239))
        fresh = _outward(16 * a - 4 * d, 16 * b - 4 * c, w, 1, work)
        if tight is not None:
            # both intervals contain pi, so the intersection does too;
            # intersecting keeps every previously returned coarsening valid
            fresh = fresh.intersect(tight.at_precision(work))
        tight = _pi_cache = fresh
    return tight.rounded(precision)


def check_angle(
    x: Enclosure, precision: Precision, per_pi: Q, open_end: bool, what: str = "arc angle"
) -> None:
    """Reject angles outside (0, per_pi*pi], or (0, per_pi*pi) when open_end.

    The pi comparison is taken at the coarser of the two precisions involved
    so a pi_reference enclosure at any precision passes as the right endpoint
    of the closed ranges.
    """
    if x.lo <= 0:
        raise DomainError(f"{what} must be positive, got lo={x.lo}")
    pi = pi_reference(Precision(min(x.precision.bits, precision.bits)))
    limit = "pi" if per_pi == 1 else f"pi/{per_pi.denominator}"
    if open_end:
        if x.hi >= pi.lo * per_pi:
            raise DomainError(f"{what} must stay below {limit}")
    elif x.hi > pi.hi * per_pi:
        raise DomainError(f"{what} must not exceed {limit}")


# -- precision policy ---------------------------------------------------


def bits_for_digits(digits: int) -> int:
    """Working bits needed to report `digits` decimal digits comfortably."""
    if digits < 1:
        raise ValueError("digit count must be positive")
    return -(-digits * 333 // 100) + 32  # ceil(3.33 * digits) + 32


# -- decimal rendering ---------------------------------------------------


def decimal_string(x: Q, places: int, direction: str) -> str:
    """Fixed-point decimal with `places` fractional digits, floor or ceil."""
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    return _decimal(x.numerator, x.denominator, places, direction == "up")


def _decimal(n: int, d: int, places: int, up: bool) -> str:
    """decimal_string of n/d, d > 0."""
    scale = 10**places
    q = -(-n * scale // d) if up else n * scale // d
    sign = "-" if q < 0 else ""
    a = abs(q)
    if places == 0:
        return f"{sign}{a}"
    return f"{sign}{a // scale}.{a % scale:0{places}d}"


_LOG10_2 = Q("0.3010299956639811952137388947244930267681")  # truncated log10 2


def _dec_exponent(n: int, d: int) -> int:
    """e such that 10**e <= |n|/d < 10**(e+1); n must be nonzero, d > 0.
    With 2**m <= |n|/d < 2**(m+1) and L = log10 2 < 1, e is floor(m L) or
    one more, and one comparison decides.  _LOG10_2 gives floor(m L) exactly
    while |m| < 2**40, where m L stays over 3e-13 from every integer."""
    e = math.floor(_mag(n, d) * _LOG10_2)
    n = abs(n)
    above = n >= d * 10 ** (e + 1) if e >= -1 else n * 10 ** (-1 - e) >= d
    return e + 1 if above else e


def _strip(s: str) -> str:
    return s.rstrip("0").rstrip(".") if "." in s else s


def render(enc: Enclosure, digits: int) -> str:
    """Longest common decimal prefix of the endpoints, then a digit bracket.

    `digits` counts significant digits from the first nonzero digit.
    A point enclosure with a terminating decimal prints plainly; when no
    prefix is shared the two directed-rounded endpoints print in full.
    """
    if digits < 1:
        raise ValueError("digit count must be positive")
    return _render(*enc._ends(), digits)


def _render(lo: int, hi: int, d: int, digits: int) -> str:
    """render of [lo/d, hi/d], d > 0."""
    if hi <= 0:
        return "-" + _render(-hi, -lo, d, digits) if lo else "0"
    places = max(0, digits - 1 - _dec_exponent(max(-lo, hi), d))
    low = _decimal(lo, d, places, False)
    high = _decimal(hi, d, places, True)
    if lo < 0:
        return f"[{low}, {high}]"
    if low == high:
        return _strip(low)
    int_len = len(high.split(".")[0]) if "." in high else len(high)
    a, b = low.replace(".", ""), high.replace(".", "")
    if len(a) != len(b):
        return f"[{_strip(low)}, {_strip(high)}]"
    shared = 0
    while shared < len(a) and a[shared] == b[shared]:
        shared += 1
    if shared < int_len:
        return f"[{_strip(low)}, {_strip(high)}]"
    prefix = a[:shared]
    head = prefix[:int_len] + ("." + prefix[int_len:] if places else "")
    return f"{head}[{a[shared:]}, {b[shared:]}]"


def correct_digits(enc: Enclosure) -> int:
    """Decimal places at which both endpoints truncate identically.

    The count is the largest m in 1..cap with floor(lo*10^m) ==
    floor(hi*10^m), or 0 if there is none, where cap = max(1,
    floor(0.301*bits)).  floor rounds toward minus infinity, also for
    negative endpoints.

    Disagreement is monotone in m because lo <= hi: if the truncations
    differ at place m, some integer N has lo*10^m < N <= hi*10^m, so 10N
    lies in (lo*10^(m+1), hi*10^(m+1)] and they differ at every later place
    too.  The places that agree therefore form a prefix 1..m, and a
    bisection over [0, cap] finds m in about log2(cap+1) probes.
    """
    cap = max(1, enc.precision.bits * 301 // 1000)
    lo, hi, k, u = enc._a, enc._b, enc._k, enc._u
    if k < 0:
        lo, hi, k = lo << -k, hi << -k, 0
    agree, differ = 0, cap + 1
    while differ - agree > 1:
        m = (agree + differ) // 2
        s = 10**m
        # floor(x s/(u 2^k)) is a shift by k, then a floor division by u
        if (lo * s >> k) // u == (hi * s >> k) // u:
            agree = m
        else:
            differ = m
    return agree
