"""Independent checks of circulus results against mpmath references.

Every check here runs outside the timed region and returns a list of
problems; an empty list means the op is correct.  References are the
closed forms of each quantity, evaluated with mpmath at twice the working
precision plus 64 bits.  A reference "misses" an enclosure only when it
lies outside by more than 2**-(work + 32), far below both the reference's
own error and the resolution of any printed cell.
"""

from __future__ import annotations

import csv
import io
import json
import re
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

VERIFY_CHECKS = 27

_PLAIN_ROW = re.compile(r"^(\S+)\s+n=(\d+)\s+(\S+)\s.*\[([^\[\],]+), ([^\[\],]+)\]$")
_PLAIN_VERDICT = re.compile(r"^(PASS|FAIL|INDETERMINATE)\s+(\S+)")
_PLAIN_SLOPE = re.compile(r"^order \S+ seed=\d+: slope (\S+) ")
_CHECK_LABEL = re.compile(r"^check:(.+)=(pass|fail|indeterminate)$")

# ladder methods in emission order; single-rung methods list rung k = 0..d,
# pair methods the pair (k-1, k) for k = 1..d, reported at the coarser n
LADDER_METHODS = (
    "archimedes", "cusa", "huygens-vii", "snell-ix",
    "huygens-xvi-upper", "huygens-final-lower", "schuh27-lower",
)
SINGLE_RUNG = frozenset({"archimedes", "snell-ix"})
SIDE = {
    "archimedes": "two_sided", "cusa": "lower", "huygens-vii": "lower",
    "snell-ix": "upper", "huygens-xvi-upper": "upper",
    "huygens-final-lower": "lower", "schuh27-lower": "lower",
    "combined": "two_sided",
}
ORDER = {"cusa": 4, "huygens-vii": 4, "snell-ix": 4}
SEGMENT_FIELDS = ("a", "b", "c", "Sigma", "delta", "T", "xi", "xbar")
SUITE = {"theorem-xiv", "hofmann", "schuh", "theorem-xv", "theorem-iv", "lemma-vi"}


def bits_for_digits(digits: int) -> int:
    """Working bits the CLI uses for `digits` (restated from its documented policy)."""
    return -(-digits * 333 // 100) + 32


class Reference:
    """mpmath closed forms at one working precision, with the miss tolerance."""

    def __init__(self, work_bits: int):
        self.prec = max(256, 2 * work_bits + 64)
        self.tol = mpf(2) ** -(work_bits + 32)
        self._cache: dict = {}

    def __enter__(self) -> "Reference":
        self._ctx = mp.workprec(self.prec)
        self._ctx.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._ctx.__exit__(*exc)

    # -- polygon perimeters (unit diameter) ------------------------------

    def insc(self, n: int):
        """n sin(pi/n): inscribed n-gon perimeter."""
        if ("C", n) not in self._cache:
            self._cache["C", n] = n * mpmath.sin(mp.pi / n)
        return self._cache["C", n]

    def circ(self, n: int):
        """n tan(pi/n): circumscribed n-gon perimeter."""
        if ("T", n) not in self._cache:
            self._cache["T", n] = n * mpmath.tan(mp.pi / n)
        return self._cache["T", n]

    def estimator(self, method: str, n: int):
        """(low, high) exact values; equal unless the method is a bracket."""
        if method == "archimedes":
            return self.insc(n), self.circ(n)
        if method == "snell-ix":
            v = (2 * self.insc(n) + self.circ(n)) / 3
            return v, v
        cn, c2n = self.insc(n), self.insc(2 * n)
        if method == "combined":
            return pair(cn, c2n, "huygens-final-lower"), pair(cn, c2n, "huygens-xvi-upper")
        v = pair(cn, c2n, method)
        return v, v

    # -- comparisons -------------------------------------------------------

    def contains(self, lo: Fraction, hi: Fraction, value) -> bool:
        return not (value - self.tol > to_mpf(hi) or value + self.tol < to_mpf(lo))

    def side_ok(self, side: str, lo: Fraction, hi: Fraction, target, cell=0) -> bool:
        """The enclosure lies on its declared side of `target`.  Printed cells
        round outward by up to one `cell`, so they may cross it by that much."""
        lo, hi = to_mpf(lo), to_mpf(hi)
        if side == "lower":
            return lo < target - self.tol and hi < target + cell - self.tol
        if side == "upper":
            return hi > target + self.tol and lo > target - cell + self.tol
        return lo < target - self.tol and hi > target + self.tol


def to_mpf(q: Fraction):
    return mpf(q.numerator) / q.denominator


def pair(cn, c2n, method: str):
    """Two-rung estimators in the pair (C_n, C_2n), as the paper states them."""
    if method == "cusa":
        return 3 * c2n**2 / (2 * c2n + cn)
    if method == "huygens-vii":
        return (4 * c2n - cn) / 3
    extra = {"huygens-xvi-upper": None, "huygens-final-lower": mpf(8) / 9,
             "schuh27-lower": mpf(3)}[method]
    base = 2 * c2n + 3 * cn
    den = base if extra is None else base + extra * (c2n - cn) ** 2 / base
    return cn + (c2n - cn) * (c2n + cn) * 10 / (3 * den)


def agreeing_places(low, high, cap: int) -> int:
    """Decimal places (at most cap) at which two positive reals truncate alike."""
    scale = mpf(10) ** cap
    a, b = str(int(mpmath.floor(low * scale))), str(int(mpmath.floor(high * scale)))
    if len(a) != len(b):
        return 0
    shared = 0
    while shared < len(a) and a[shared] == b[shared]:
        shared += 1
    return max(0, min(cap, shared - (len(a) - cap)))


# -- output parsing -----------------------------------------------------------


def _cell(text: str) -> Fraction:
    return Fraction(text[:-1] if text[-1:] in ("v", "^", "=") else text)


def parse_output(text: str, fmt: str) -> tuple[list[dict], dict[str, str], str | None]:
    """(enclosure rows, verdict outcomes by name, order slope) from one emission."""
    rows, verdicts, slope = [], {}, None
    if fmt == "plain":
        for line in text.splitlines():
            if m := _PLAIN_ROW.match(line):
                rows.append({"method": m[1], "n": int(m[2]), "side": m[3],
                             "lo": _cell(m[4]), "hi": _cell(m[5]), "digits": None})
            elif m := _PLAIN_VERDICT.match(line):
                verdicts[m[2]] = m[1].lower()
            elif m := _PLAIN_SLOPE.match(line):
                slope = m[1]
        return rows, verdicts, slope
    raw = json.loads(text) if fmt == "json" else list(csv.DictReader(io.StringIO(text)))
    for r in raw:
        if m := _CHECK_LABEL.match(r["method"]):
            verdicts[m[1]] = m[2]
        elif r["method"].endswith(":slope"):
            slope = r["lo"]
        else:
            rows.append({"method": r["method"], "n": int(r["n"]), "side": r["side"],
                         "lo": _cell(r["lo"]), "hi": _cell(r["hi"]),
                         "digits": int(r["correct_digits"])})
    return rows, verdicts, slope


def process_problems(proc, expect_code: int = 0) -> list[str]:
    problems = []
    if proc.returncode != expect_code:
        problems.append(f"exit code {proc.returncode}, expected {expect_code}")
    if "Traceback" in proc.stderr:
        problems.append("traceback on stderr: " + proc.stderr.strip().splitlines()[-1][:160])
    return problems


def or_indeterminate(check, proc) -> list[str]:
    """Also accept exit 2 (indeterminate) when stderr states the reason: the
    CLI's documented way to decline a digit count it cannot certify."""
    if proc.returncode != 2:
        return check(proc)
    problems = process_problems(proc, 2)
    return problems if proc.stderr.strip() else problems + ["exit 2 without a reason"]


# -- per-command checks ----------------------------------------------------------


def estimator_row(ref: Reference, row: dict, digits: int) -> list[str]:
    """Value, declared side and digits contract of one estimator row."""
    method = row["method"].removesuffix("+trig-seeded")
    where = f"{row['method']} n={row['n']}"
    if SIDE.get(method) != row["side"]:
        return [f"{where}: side {row['side']!r}, expected {SIDE.get(method)!r}"]
    low, high = ref.estimator(method, row["n"])
    problems = []
    if not (ref.contains(row["lo"], row["hi"], low) and ref.contains(row["lo"], row["hi"], high)):
        problems.append(f"{where}: enclosure misses the estimator value")
    if not ref.side_ok(row["side"], row["lo"], row["hi"], mp.pi, mpf(10) ** -digits):
        problems.append(f"{where}: enclosure is not on the {row['side']} side of pi")
    if row["digits"] is not None:
        need = digits if low == high else min(digits, agreeing_places(low, high, digits))
        if row["digits"] < need:
            problems.append(f"{where}: correct_digits {row['digits']} < {need} requested")
    return problems


def check_ladder(proc, fmt: str, sides: int, doublings: int, digits: int) -> list[str]:
    problems = process_problems(proc)
    if problems:
        return problems
    rows, _, _ = parse_output(proc.stdout, fmt)
    expected = [
        (m, sides << (k if m in SINGLE_RUNG else k - 1), SIDE[m])
        for m in LADDER_METHODS
        for k in range(0 if m in SINGLE_RUNG else 1, doublings + 1)
    ]
    got = [(r["method"], r["n"], r["side"]) for r in rows]
    if got != expected:
        return [f"ladder rows {len(got)} differ from the expected {len(expected)}"]
    with Reference(bits_for_digits(digits)) as ref:
        for row in rows:
            problems += estimator_row(ref, row, digits)
    return problems


def check_compute(proc, fmt: str, method: str, sides: int, doublings: int,
                  digits: int) -> list[str]:
    problems = process_problems(proc)
    if problems:
        return problems
    rows, _, _ = parse_output(proc.stdout, fmt)
    n = sides << (doublings - 1 if method not in SINGLE_RUNG else doublings)
    label = method if sides in (3, 4, 6) else method + "+trig-seeded"
    if [(r["method"], r["n"]) for r in rows] != [(label, n)]:
        return [f"compute emitted {[(r['method'], r['n']) for r in rows]}, expected {[(label, n)]}"]
    with Reference(bits_for_digits(digits)) as ref:
        return estimator_row(ref, rows[0], digits)


def check_order(proc, fmt: str, method: str, sides: int, doublings: int, digits: int) -> list[str]:
    problems = process_problems(proc)
    if problems:
        return problems
    rows, _, slope = parse_output(proc.stdout, fmt)
    start = 0 if method in SINGLE_RUNG else 1
    ns = [sides << (k if method in SINGLE_RUNG else k - 1) for k in range(start, doublings + 1)]
    expected = [(f"{method}:error", n) for n in ns] + [(f"{method}:coefficient", ns[-1])]
    if [(r["method"], r["n"]) for r in rows] != expected or slope is None:
        return ["order rows differ from the expected error ladder"]
    p = round(-float(slope))
    if p != ORDER[method]:
        problems.append(f"fitted order {p}, expected {ORDER[method]}")
    with Reference(bits_for_digits(digits)) as ref:
        sign = 1 if SIDE[method] == "upper" else -1
        errors = [sign * (ref.estimator(method, n)[0] - mp.pi) for n in ns]
        for row, err in zip(rows, errors + [errors[-1] * mpf(ns[-1]) ** p]):
            if not ref.contains(row["lo"], row["hi"], err):
                problems.append(f"{row['method']} n={row['n']}: enclosure misses the error")
    return problems


def angle(text: str):
    """The exact angle a CLI theta argument names (pi forms or a decimal)."""
    if "pi" in text:
        head, _, tail = text.partition("pi")
        return (int(head) if head else 1) * mp.pi / (int(tail[1:]) if tail else 1)
    return to_mpf(Fraction(text))


def segment_values(theta) -> dict:
    """Closed forms of every segment field on the unit circle."""
    h = theta / 2
    s, c = mpmath.sin(h), mpmath.cos(h)
    ams = theta - mpmath.sin(theta)
    xbar = 4 * s**3 / (3 * ams)
    return {"a": 1 - c, "b": 2 * s, "c": 2 * s * c, "Sigma": ams / 2,
            "delta": (1 - c) * s, "T": s**3 / c if c > mpf(2) ** (-mp.prec // 2) else None,
            "xi": 1 - xbar, "xbar": xbar}


def _verdict_problems(verdicts: dict[str, str], expected: set[str]) -> list[str]:
    problems = [f"verdict {name} is {outcome}" for name, outcome in verdicts.items()
                if outcome != "pass"]
    if set(verdicts) != expected:
        problems.append(f"verdicts {sorted(verdicts)} differ from {sorted(expected)}")
    return problems


def check_segment(proc, fmt: str, theta: str, digits: int) -> list[str]:
    problems = process_problems(proc)
    if problems:
        return problems
    rows, verdicts, _ = parse_output(proc.stdout, fmt)
    with Reference(bits_for_digits(digits)) as ref:
        values = segment_values(angle(theta))
        fields = [f for f in SEGMENT_FIELDS if values[f] is not None]
        if [r["method"] for r in rows] != [f"segment:{f}" for f in fields]:
            return ["segment rows differ from the expected fields"]
        for row, name in zip(rows, fields):
            if not ref.contains(row["lo"], row["hi"], values[name]):
                problems.append(f"segment:{name} misses its closed form")
        at_pi = values["T"] is None
    return problems + _verdict_problems(verdicts, set() if at_pi else SUITE)


def check_barycenter(proc, fmt: str, theta: str, digits: int) -> list[str]:
    problems = process_problems(proc)
    if problems:
        return problems
    rows, verdicts, _ = parse_output(proc.stdout, fmt)
    if [r["method"] for r in rows] != ["barycenter:exact", "barycenter:oracle"]:
        return ["barycenter rows differ from exact and oracle"]
    with Reference(bits_for_digits(digits)) as ref:
        xbar = segment_values(angle(theta))["xbar"]
        for row in rows:
            if not ref.contains(row["lo"], row["hi"], xbar):
                problems.append(f"{row['method']} misses xbar")
    return problems + _verdict_problems(verdicts, {"exact-oracle-overlap"})


def f_of_x(x):
    """Half the circular-minus-parabolic area gap at r = 1, b = x."""
    rest = 1 - x
    return (mp.pi / 4 - mpmath.asin(rest) / 2 - rest * mpmath.sqrt(2 * x - x**2) / 2
            - 2 * x / (3 * mpmath.sqrt(5)) * mpmath.sqrt(10 * x - 3 * x**2))


def check_appendix_f(proc, fmt: str, x: str, digits: int) -> list[str]:
    problems = process_problems(proc)
    if problems:
        return problems
    rows, verdicts, _ = parse_output(proc.stdout, fmt)
    if [r["method"] for r in rows] != ["f", "sliver-minus-wedge"]:
        return ["appendix-f rows differ from f and sliver-minus-wedge"]
    with Reference(bits_for_digits(digits)) as ref:
        value = f_of_x(to_mpf(Fraction(x)))
        for row in rows:
            if not ref.contains(row["lo"], row["hi"], value):
                problems.append(f"{row['method']} misses f(x)")
    return problems + _verdict_problems(verdicts, {"area-gap-bound"})


def check_verify(proc) -> list[str]:
    problems = process_problems(proc)
    tally = f"verify: {VERIFY_CHECKS} pass, 0 fail, 0 indeterminate"
    if tally not in proc.stdout.splitlines():
        problems.append(f"verify tally is not {tally!r}")
    return problems


# -- in-process sweep checks ------------------------------------------------------


def check_arc(ref: Reference, x: Fraction, out) -> list[str]:
    cusa, snell, final, xvi, verdicts = out
    xm = to_mpf(x)
    s, c, t = mpmath.sin(xm), mpmath.cos(xm), mpmath.tan(xm)
    b = 2 * mpmath.sin(xm / 2)
    expect = (
        ("cusa_lower_arc", cusa, 3 * s / (2 + c), "lower"),
        ("snell_upper_arc", snell, (2 * s + t) / 3, "upper"),
        ("huygens-final-lower", final, pair(s, b, "huygens-final-lower"), "lower"),
        ("huygens-xvi-upper", xvi, pair(s, b, "huygens-xvi-upper"), "upper"),
    )
    problems = []
    for name, enc, value, side in expect:
        if not ref.contains(enc.lo, enc.hi, value):
            problems.append(f"{name}({x}) misses its closed form")
        if not ref.side_ok(side, enc.lo, enc.hi, xm):
            problems.append(f"{name}({x}) is not on the {side} side of the arc")
    problems += [f"verdict {v.name} failed at x={x}" for v in verdicts if v.outcome.value == "fail"]
    return problems


def check_segment_op(ref: Reference, theta: Fraction, out) -> list[str]:
    g, suite = out
    values = segment_values(to_mpf(theta))
    problems = [f"segment {name}({theta}) misses its closed form"
                for name in SEGMENT_FIELDS
                if not ref.contains(getattr(g, name).lo, getattr(g, name).hi, values[name])]
    return problems + [f"verdict {v.name} failed at theta={theta}"
                       for v in suite if v.outcome.value == "fail"]


def check_oracle_op(ref: Reference, theta: Fraction, enc) -> list[str]:
    if ref.contains(enc.lo, enc.hi, segment_values(to_mpf(theta))["xbar"]):
        return []
    return [f"barycenter_oracle({theta}) misses xbar"]
