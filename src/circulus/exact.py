"""Outward-rounded interval arithmetic over exact rationals.

Endpoints are dyadic rationals kept to a stated number of significant
bits; every operation rounds its result outward, so an enclosure always
contains the exact real value it tracks.  Nothing here ever touches
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

_ZERO = Q(0)
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


def _mag_exponent(x: Q) -> int:
    """e such that 2**e <= |x| < 2**(e+1); x must be nonzero."""
    n, d = abs(x.numerator), x.denominator
    e = n.bit_length() - d.bit_length()
    if e >= 0:
        if n < d << e:
            e -= 1
    elif n << -e < d:
        e -= 1
    return e


def round_down(x: Q, bits: int) -> Q:
    """Largest dyadic value with `bits` significant bits that is <= x."""
    if x == 0:
        return _ZERO
    g = _mag_exponent(x) + 1 - bits  # grid spacing 2**g
    n, d = x.numerator, x.denominator
    if g >= 0:
        return Q((n // (d << g)) * (1 << g))
    return Q((n << -g) // d, 1 << -g)


def round_up(x: Q, bits: int) -> Q:
    """Smallest dyadic value with `bits` significant bits that is >= x."""
    return -round_down(-x, bits)


def ulp(x: Q, bits: int) -> Q:
    """Grid spacing at x for the given precision (tiny positive for x = 0)."""
    if x == 0:
        return Q(1, 1 << (2 * bits))
    return Q(2) ** (_mag_exponent(x) + 1 - bits)


@dataclass(frozen=True, slots=True)
class Enclosure:
    """Closed interval [lo, hi] certified to contain an exact real value."""

    lo: Q
    hi: Q
    precision: Precision

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"inverted enclosure: {self.lo} > {self.hi}")

    # -- construction -------------------------------------------------

    @classmethod
    def from_endpoints(cls, lo: Q, hi: Q, precision: Precision) -> "Enclosure":
        """Outward-round arbitrary rational endpoints onto the dyadic grid."""
        b = precision.bits
        return cls(round_down(Q(lo), b), round_up(Q(hi), b), precision)

    @classmethod
    def from_rational(cls, value: Q | int, precision: Precision) -> "Enclosure":
        """Tightest grid enclosure of a single rational value."""
        return cls.from_endpoints(value, value, precision)

    @classmethod
    def point(cls, value: Q | int, precision: Precision) -> "Enclosure":
        """Exact degenerate interval; the value is kept verbatim."""
        q = Q(value)
        return cls(q, q, precision)

    # -- inspection ---------------------------------------------------

    @property
    def width(self) -> Q:
        return self.hi - self.lo

    @property
    def mid(self) -> Q:
        return (self.lo + self.hi) / 2

    def mag_ub(self) -> Q:
        return max(-self.lo, self.hi)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: Q | int) -> bool:
        return self.lo <= value <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def encloses(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Enclosure") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    # -- precision plumbing -------------------------------------------

    def rounded(self, precision: Precision) -> "Enclosure":
        b = precision.bits
        return Enclosure(round_down(self.lo, b), round_up(self.hi, b), precision)

    def at_precision(self, precision: Precision) -> "Enclosure":
        """Retag at a finer precision, or outward-round to a coarser one."""
        if precision.bits >= self.precision.bits:
            return Enclosure(self.lo, self.hi, precision)
        return self.rounded(precision)

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("empty intersection of enclosures")
        return Enclosure(lo, hi, self.precision)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other: "Enclosure | Q | int") -> "Enclosure | None":
        if isinstance(other, Enclosure):
            return other
        if isinstance(other, (int, Fraction)):
            # exact lift: the scalar itself is never rounded
            return Enclosure.point(Q(other), self.precision)
        return None

    def _out(self, lo: Q, hi: Q, other: "Enclosure") -> "Enclosure":
        p = self.precision if self.precision.bits <= other.precision.bits else other.precision
        return Enclosure(round_down(lo, p.bits), round_up(hi, p.bits), p)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._out(self.lo + o.lo, self.hi + o.hi, o)

    __radd__ = __add__

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo, self.precision)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._out(self.lo - o.hi, self.hi - o.lo, o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return self._out(min(products), max(products), o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.lo <= 0 <= o.hi:
            raise DivisionByIntervalContainingZero(
                f"denominator enclosure [{o.lo}, {o.hi}] contains zero"
            )
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return self._out(min(quotients), max(quotients), o)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def square(self) -> "Enclosure":
        """Tight interval square (accounts for the shared operand)."""
        if self.lo >= 0:
            lo, hi = self.lo * self.lo, self.hi * self.hi
        elif self.hi <= 0:
            lo, hi = self.hi * self.hi, self.lo * self.lo
        else:
            lo, hi = _ZERO, max(self.lo * self.lo, self.hi * self.hi)
        return self._out(lo, hi, self)

    def __abs__(self) -> "Enclosure":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Enclosure(_ZERO, self.mag_ub(), self.precision)

    def __str__(self) -> str:
        digits = max(1, self.precision.bits * 301 // 1000)
        return render(self, digits)


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


def _sqrt_bound(x: Q, bits: int, up: bool) -> Q:
    """Dyadic lower bound on sqrt(x) for x >= 0, or upper bound when up."""
    if x == 0:
        return _ZERO
    k = bits + 2 - _mag_exponent(x) // 2
    n, d = x.numerator, x.denominator
    num, den = (n << 2 * k, d) if k >= 0 else (n, d << -2 * k)
    scaled = -(-num // den) if up else num // den  # ceil or floor of x * 4**k
    r = math.isqrt(scaled)
    if up and r * r < scaled:
        r += 1
    val = Q(r, 1 << k) if k >= 0 else Q(r << -k)
    return round_up(val, bits) if up else round_down(val, bits)


def enc_sqrt(x: Enclosure, precision: Precision | None = None) -> Enclosure:
    """Enclosure of the square root, via integer square roots of scaled values."""
    if x.lo < 0:
        raise NegativeRadicand(f"sqrt of enclosure with lo = {x.lo} < 0")
    p = precision or x.precision
    return Enclosure(_sqrt_bound(x.lo, p.bits, False), _sqrt_bound(x.hi, p.bits, True), p)


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
    if s is None:
        term, rem = divmod(n << w, den)
    else:
        term, rem = divmod(n**s << w, den**s * (1, 1, 2, 6)[s])
    n2, d2 = n * n, den * den
    total = k = 0
    err = 1 if rem else 0  # bounds e_k
    slack = [0, 0]  # how far f may sit above the sum, and below it
    while term >> 16:
        total += -term if k % 2 else term
        slack[k % 2] += err
        k += 1
        if s is None:
            grow, div = n2 * (2 * k - 1), d2 * (2 * k + 1)
        else:
            grow, div = n2, d2 * (2 * k + s - 1) * (2 * k + s)
        term, rem = divmod(term * grow, div)
        carry = rem + err * grow  # e_k <= carry / div
        err = -(-carry // div)
    slack[k % 2] += term + err
    low, high = total - slack[1], total + slack[0]
    return (-high, -low) if num < 0 and (s is None or s % 2) else (low, high)


def _fixed_bounds(v: Q, s: int | None, work: Precision) -> tuple[Q, Q]:
    """Dyadic bounds on f(v); the scale 2^w sits _FIXED_GUARD bits below
    the working grid of the leading term, so small v keep every bit."""
    n, d = v.numerator, v.denominator
    e = abs(n).bit_length() - d.bit_length()  # log2 |v| to within 1
    w = work.bits + _FIXED_GUARD - (1 if s is None else s) * e
    low, high = _fixed_series(n, d, s, w)
    return Q(low, 1 << w), Q(high, 1 << w)


def _series(x: Enclosure, s: int | None, work: Precision) -> Enclosure:
    """cos x, sin x, 1 - cos x, x - sin x or arctan x for s = 0, 1, 2, 3 or
    None, from _fixed_series at two points, so f must be monotone up to
    _SERIES_LIMIT[s]: sin increases to pi/2 > 9/8, arctan and x - sin x
    (of derivative 1 - cos x) everywhere; cos and 1 - cos are monotone in
    |x| to pi > 8/5, taking f(0) = 1 or 0 where x straddles 0."""
    a, b = x.lo, x.hi
    if s == 0 or s == 2:
        near = _ZERO if x.contains_zero() else min(abs(a), abs(b))
        a, b = (near, x.mag_ub()) if s else (x.mag_ub(), near)
    low = _fixed_bounds(a, s, work)
    high = low if b == a else _fixed_bounds(b, s, work)
    return Enclosure(low[0], high[1], work)


def _reduce_quarter(x: Enclosure, work: Precision) -> tuple[Enclosure, int]:
    """Write x = y + q*(pi/2) with |y| small; return (y, q mod 4)."""
    if x.mag_ub() <= 1:
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
    if y.mag_ub() > _SERIES_LIMIT[0]:
        return Enclosure(Q(-1), _ONE, p)  # argument too wide to reduce
    q = (q + shift) % 4
    out = _series(y, 1 - q % 2, work)
    out = (out if q < 2 else -out).rounded(p)
    return Enclosure(max(out.lo, Q(-1)), min(out.hi, _ONE), p)


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
    while y.mag_ub() > Q(27, 100):
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
        scale = 1 << w
        fresh = Enclosure.from_endpoints(Q(16 * a - 4 * d, scale), Q(16 * b - 4 * c, scale), work)
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
    scale = 10**places
    n, d = x.numerator * scale, x.denominator
    if direction == "down":
        q = n // d
    elif direction == "up":
        q = -(-n // d)
    else:
        raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
    sign = "-" if q < 0 else ""
    a = abs(q)
    if places == 0:
        return f"{sign}{a}"
    return f"{sign}{a // scale}.{a % scale:0{places}d}"


_LOG10_2 = Q("0.3010299956639811952137388947244930267681")  # truncated log10 2


def _dec_exponent(x: Q) -> int:
    """e such that 10**e <= |x| < 10**(e+1); x must be nonzero.  With 2**m
    <= |x| < 2**(m+1) and L = log10 2 < 1, e is floor(m L) or one more, and
    one comparison decides.  _LOG10_2 gives floor(m L) exactly while |m| <
    2**40, where m L stays over 3e-13 from every integer."""
    x = abs(x)
    e = math.floor(_mag_exponent(x) * _LOG10_2)
    return e + 1 if x >= Q(10) ** (e + 1) else e


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
    if enc.lo == 0 and enc.hi == 0:
        return "0"
    if enc.hi <= 0:
        return "-" + render(Enclosure(-enc.hi, -enc.lo, enc.precision), digits)
    places = max(0, digits - 1 - _dec_exponent(enc.mag_ub()))
    low = decimal_string(enc.lo, places, "down")
    high = decimal_string(enc.hi, places, "up")
    if enc.lo < 0 < enc.hi:
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
    lo_n, lo_d = enc.lo.numerator, enc.lo.denominator
    hi_n, hi_d = enc.hi.numerator, enc.hi.denominator
    agree, differ = 0, cap + 1
    while differ - agree > 1:
        m = (agree + differ) // 2
        s = 10**m
        if (lo_n * s) // lo_d == (hi_n * s) // hi_d:
            agree = m
        else:
            differ = m
    return agree
