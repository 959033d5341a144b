"""Command-line surface: bound tables, convergence reports, segment checks.

Every tabular emission shares one row schema (method, n, side, lo, hi,
width, correct_digits).  Endpoint cells are decimal strings rounded in the
sound direction and carry an explicit marker: 'v' rounded down, '^' rounded
up, '=' exact at the requested number of places.  Output is deterministic:
the same flags (and --rng-seed) produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from os import environ

import click

from . import analysis, barycenter, bounds, parasect, polygon
from .bounds import Method, TWO_RUNG
from .errors import (
    DomainError,
    IllConditioned,
    IndeterminateError,
    InsufficientSamples,
    PoleProximity,
    UnsupportedSeed,
)
from .exact import (
    Enclosure,
    Precision,
    Q,
    bits_for_digits,
    correct_digits,
    decimal_string,
    enc_cos,
    enc_sin,
    enc_sqrt,
    pi_reference,
    render,
)
from .verdict import Outcome, Verdict, overlap

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_DOMAIN = 65

# --digits maximum; its working precision caps CIRCULUS_PRECISION_BITS too
MAX_DIGITS = 1000
MAX_BITS = bits_for_digits(MAX_DIGITS)

CSV_COLUMNS = ("method", "n", "side", "lo", "hi", "width", "correct_digits")

LADDER_METHODS = tuple(m for m in Method if m not in (Method.SNELL, Method.COMBINED))
COMPUTABLE = tuple(m.value for m in Method if m is not Method.SNELL)


class UsageFault(Exception):
    """Flag combination or value that the parser alone cannot reject."""


@dataclass(frozen=True, slots=True)
class RunConfig:
    command: str
    method: str | None = None
    seed_sides: int = 6
    doublings: int = 4
    digits: int = 10
    fmt: str = "plain"
    theta: str | None = None
    radius: str = "1"
    x: str | None = None
    samples: int | None = None
    rng_seed: int = 0
    precision_bits: int | None = None


# -- cell and row rendering ----------------------------------------------


def _precision(cfg: RunConfig) -> Precision:
    bits = cfg.precision_bits if cfg.precision_bits is not None else bits_for_digits(cfg.digits)
    return Precision(bits)


def _cell(value: Q, digits: int, direction: str) -> str:
    text = decimal_string(value, digits, direction)
    if Q(text) == value:
        return text + "="
    return text + ("v" if direction == "down" else "^")


def _enc_cells(enc: Enclosure, digits: int) -> tuple[str, str]:
    return _cell(enc.lo, digits, "down"), _cell(enc.hi, digits, "up")


def _row(item, digits: int) -> dict:
    if isinstance(item, dict):
        return item
    if isinstance(item, Verdict):
        margin = "" if item.margin is None else _cell(item.margin, digits, "down")
        return {
            "method": f"check:{item.name}={item.outcome.value}",
            "n": 0,
            "side": "two_sided",
            "lo": margin,
            "hi": margin,
            "width": "",
            "correct_digits": 0,
        }
    label, n, side, enc = item
    lo, hi = _enc_cells(enc, digits)
    return {
        "method": label,
        "n": n,
        "side": side,
        "lo": lo,
        "hi": hi,
        "width": _cell(enc.width, digits, "up"),
        "correct_digits": correct_digits(enc),
    }


def _line(item, digits: int) -> str:
    if isinstance(item, (str, Verdict)):
        return str(item)
    label, n, side, enc = item
    lo, hi = _enc_cells(enc, digits)
    return f"{label:<28} n={n:<7d} {side:<9} {render(enc, digits)}  [{lo}, {hi}]"


def _worst_exit(checks: list[tuple[str, Outcome]]) -> int:
    """Exit code decided by named check outcomes.  An undecided exit names
    its checks on stderr, because csv and json rows carry no reason."""
    if any(outcome is Outcome.FAIL for _, outcome in checks):
        return EXIT_FAIL
    undecided = [name for name, outcome in checks if outcome is Outcome.INDETERMINATE]
    if undecided:
        click.echo(f"indeterminate: undecided checks: {', '.join(undecided)}", err=True)
        return EXIT_INDETERMINATE
    return EXIT_OK


def _emit(cfg: RunConfig, items: list) -> tuple[int, str]:
    """Exit code and output text for one command's output items.

    An item is an enclosure row (label, n, side, enclosure), a verdict, a
    note (str) printed in plain format only, or a dict row printed in csv
    and json only.  The verdicts decide the exit code.
    """
    code = _worst_exit([(v.name, v.outcome) for v in items if isinstance(v, Verdict)])
    if cfg.fmt == "plain":
        lines = [_line(item, cfg.digits) for item in items if not isinstance(item, dict)]
    else:
        rows = [_row(item, cfg.digits) for item in items if not isinstance(item, str)]
        if cfg.fmt == "json":
            return code, json.dumps(rows, indent=2) + "\n"
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(str(row[c]) for c in CSV_COLUMNS) for row in rows]
    return code, "".join(line + "\n" for line in lines)


# -- argument parsing helpers ----------------------------------------------


def _parse_q(text: str, what: str) -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise UsageFault(f"cannot parse {what} {text!r} as a rational or decimal") from None


def _parse_angle(text: str, work: Precision) -> Enclosure:
    """Angles accept decimals, fractions, and pi forms: pi, pi/2, 3pi/4."""
    squeezed = text.replace(" ", "").replace("*", "").lower()
    if "pi" in squeezed:
        head, _, tail = squeezed.partition("pi")
        try:
            num = int(head) if head else 1
            den = int(tail[1:]) if tail.startswith("/") else (int(tail) if tail else 1)
            if tail and not tail.startswith("/"):
                raise ValueError
        except ValueError:
            raise UsageFault(f"cannot parse angle {text!r}") from None
        if den == 0:
            raise UsageFault("zero denominator in angle")
        return pi_reference(work) * Q(num, den)
    return Enclosure.point(_parse_q(text, "angle"), work)


def _seed_label(method_tag: str, seed_sides: int) -> str:
    if seed_sides in (3, 4, 6):
        return method_tag
    return f"{method_tag}+trig-seeded"


# -- command builders ----------------------------------------------------


def _cmd_compute(cfg: RunConfig) -> tuple[int, str]:
    method = Method(cfg.method)
    if method in TWO_RUNG and cfg.doublings < 1:
        raise UsageFault(f"method {method.value!r} needs --doublings >= 1")
    lad = polygon.ladder(cfg.seed_sides, cfg.doublings, _precision(cfg))
    row = bounds.make_row(lad, cfg.doublings, method)
    return _emit(cfg, [(_seed_label(row.method, cfg.seed_sides), row.n, row.side, row.value)])


def _cmd_ladder(cfg: RunConfig) -> tuple[int, str]:
    lad = polygon.ladder(cfg.seed_sides, cfg.doublings, _precision(cfg))
    return _emit(cfg, [
        (_seed_label(row.method, cfg.seed_sides), row.n, row.side, row.value)
        for method in LADDER_METHODS for row in bounds.rows(lad, method)
    ])


def _cmd_order(cfg: RunConfig) -> tuple[int, str]:
    method = Method(cfg.method)
    start = 1 if method in TWO_RUNG else 0
    p = _precision(cfg)
    est = analysis.estimate_order(method, cfg.seed_sides, range(start, cfg.doublings + 1), p)
    tag = method.value
    side = bounds.SIDE[method]
    slope_text = f"{est.slope:.6f}"
    n_last = est.samples[-1][0]
    items = [f"order {tag} seed={cfg.seed_sides}: slope {slope_text} ~ n^{round(est.slope)}"]
    items += [(f"{tag}:error", n, side, err) for n, err in est.samples]
    items.append((f"{tag}:coefficient", n_last, side, est.coefficient))
    items.append({
        "method": f"{tag}:slope",
        "n": n_last,
        "side": side,
        "lo": slope_text,
        "hi": slope_text,
        "width": "0",
        "correct_digits": 0,
    })
    return _emit(cfg, items)


def _cmd_barycenter(cfg: RunConfig) -> tuple[int, str]:
    p = _precision(cfg)
    theta = _parse_angle(cfg.theta, p.raised(32))
    r = _parse_q(cfg.radius, "radius")
    panels = cfg.samples if cfg.samples is not None else 512
    if panels < 2 or panels % 2:
        raise UsageFault(f"--samples must be a positive even panel count, got {panels}")
    exact = barycenter.barycenter_exact(r, theta, p)
    oracle = barycenter.barycenter_oracle(r, theta, p, panels=panels)
    return _emit(cfg, [
        ("barycenter:exact", 0, "two_sided", exact),
        ("barycenter:oracle", panels, "two_sided", oracle),
        overlap("exact-oracle-overlap", exact, oracle, "independent quadrature agrees"),
    ])


_SEGMENT_FIELDS = ("a", "b", "c", "Sigma", "delta", "T", "xi", "xbar")


def _cmd_segment(cfg: RunConfig) -> tuple[int, str]:
    p = _precision(cfg)
    theta = _parse_angle(cfg.theta, p.raised(32))
    r = _parse_q(cfg.radius, "radius")
    g = barycenter.segment(r, theta, p)
    items = []
    for name in _SEGMENT_FIELDS:
        enc = getattr(g, name)
        if enc is None:
            items.append(f"segment:{name:<20} undefined (tangent pole at theta = pi)")
        else:
            items.append((f"segment:{name}", 0, "two_sided", enc))
    try:
        items += barycenter.segment_inequality_suite(g)
    except DomainError:
        items.append("inequality suite skipped: theta is not strictly below pi")
    return _emit(cfg, items)


def _cmd_appendix_f(cfg: RunConfig) -> tuple[int, str]:
    x = _parse_q(cfg.x, "--x")
    p = _precision(cfg)
    fx = parasect.f_of_x(x, p)
    report = parasect.area_difference_report(parasect.configure(1, x, p))
    return _emit(cfg, [
        ("f", 0, "two_sided", fx),
        ("sliver-minus-wedge", 0, "two_sided", report.sliver_minus_wedge),
        report.bound_check,
    ])


# -- verify suite ----------------------------------------------------------


def _random_q(rng: random.Random, span: int = 10**6, den: int = 10**4) -> Q:
    return Q(rng.randrange(-span, span), rng.randrange(1, den))


def _vx_sound_random(rng: random.Random, samples: int) -> str:
    p = Precision(64)
    for _ in range(samples):
        a, b = _random_q(rng), _random_q(rng)
        ea = Enclosure.from_rational(a, p)
        eb = Enclosure.from_rational(b, p)
        assert (ea + eb).contains(a + b), f"sum drops {a}+{b}"
        assert (ea - eb).contains(a - b), f"difference drops {a}-{b}"
        assert (ea * eb).contains(a * b), f"product drops {a}*{b}"
        if not eb.contains_zero():
            assert (ea / eb).contains(a / b), f"quotient drops {a}/{b}"
    return f"{samples} random rational op checks"


def _vx_mono_refine(rng: random.Random, samples: int) -> str:
    for _ in range(samples):
        v = abs(_random_q(rng)) + 1
        coarse = enc_sqrt(Enclosure.point(v, Precision(64)))
        fine = enc_sqrt(Enclosure.point(v, Precision(128)))
        assert coarse.encloses(fine), f"refinement escaped at sqrt({v})"
        assert fine.width <= coarse.width
    return f"{samples} precision refinements nest"


def _vx_sqrt_square(rng: random.Random, samples: int) -> str:
    for _ in range(samples):
        v = abs(_random_q(rng)) + Q(1, 7)
        root = enc_sqrt(Enclosure.point(v, Precision(96)))
        assert root.square().contains(v), f"sqrt/square roundtrip misses {v}"
    return f"{samples} sqrt/square roundtrips"


def _vx_sincos_pyth(rng: random.Random, samples: int) -> str:
    p = Precision(96)
    for _ in range(samples):
        x = Enclosure.point(Q(rng.randrange(-3000, 3000), 1000), p)
        s, c = enc_sin(x), enc_cos(x)
        assert (s.square() + c.square()).contains(1), f"pythagorean identity at {x.lo}"
    return f"{samples} angles keep sin^2+cos^2 enclosing 1"


def _vx_pi_nested(rng: random.Random, samples: int) -> str:
    encs = [pi_reference(Precision(bits)) for bits in (64, 96, 160, 256)]
    for coarse, fine in zip(encs, encs[1:]):
        assert coarse.encloses(fine), "pi references fail to nest"
        assert fine.width < coarse.width
    return "pi references nest across 64/96/160/256 bits"


def _vg_sandwich(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    lad = polygon.ladder(6, 8, p)
    pi = pi_reference(p)
    for rung in lad.rungs:
        assert rung.insc.hi < pi.lo, f"inscribed crosses pi at n={rung.n}"
        assert pi.hi < rung.circ.lo, f"circumscribed crosses pi at n={rung.n}"
    return "9 rungs keep inscribed < pi < circumscribed"


def _vg_recurrence_trig(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    lad = polygon.ladder(6, 5, p)
    for rung in lad.rungs[1:]:
        direct = polygon.trig_rung(rung.n, p)
        assert rung.insc.overlaps(direct.insc), f"inscribed recurrence at n={rung.n}"
        assert rung.circ.overlaps(direct.circ), f"circumscribed recurrence at n={rung.n}"
    return "doubling recurrence matches trig closed forms to n=192"


def _vg_width_growth(rng: random.Random, samples: int) -> str:
    lad = polygon.ladder(6, 10, Precision(128))
    base = max(lad.rungs[0].insc.width, lad.rungs[0].circ.width)
    for k, rung in enumerate(lad.rungs):
        cap = base * (1 << (k + 6))
        assert rung.insc.width <= cap and rung.circ.width <= cap, f"width blowup at k={k}"
    return "enclosure widths grow at most geometrically along 10 doublings"


def _vg_area_identity(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    lad = polygon.ladder(6, 4, p)
    for rung in lad.rungs:
        angle = pi_reference(Precision(160)) * Q(2, rung.n)
        target = enc_sin(angle, p) * Q(rung.n, 2)
        assert rung.insc_area.overlaps(target), f"area identity at n={rung.n}"
    return "inscribed areas match (n/2) sin(2 pi/n) through n=96"


def _vb_sidedness(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    lad = polygon.ladder(6, 6, p)
    pi = pi_reference(p)
    count = 0
    for method in LADDER_METHODS + (Method.COMBINED,):
        for row in bounds.rows(lad, method):
            if row.side in ("lower", "two_sided"):
                assert row.value.lo < pi.lo, f"{row.method} lower side at n={row.n}"
            if row.side in ("upper", "two_sided"):
                assert row.value.hi > pi.hi, f"{row.method} upper side at n={row.n}"
            count += 1
    return f"{count} rows sit on their declared side of pi"


def _vb_dominance(rng: random.Random, samples: int) -> str:
    p = Precision(160)
    lad = polygon.ladder(6, 8, p)
    chain = (
        Method.HUYGENS_VII,
        Method.CUSA,
        Method.SCHUH27_LOWER,
        Method.HUYGENS_FINAL_LOWER,
    )
    for k in range(1, len(lad.rungs)):
        prev = bounds.evaluate(lad, k - 1, Method.ARCHIMEDES)
        vals = [bounds.evaluate(lad, k, m) for m in chain]
        assert prev.lo < vals[0].lo, f"archimedes vs vii at k={k}"
        for left, right in zip(vals, vals[1:]):
            assert left.hi < right.lo, f"lower chain breaks at k={k}"
        xvi = bounds.evaluate(lad, k, Method.HUYGENS_XVI_UPPER)
        ix = bounds.evaluate(lad, k - 1, Method.SNELL_IX)
        assert vals[-1].hi < xvi.lo, f"final lower vs xvi at k={k}"
        assert xvi.hi < ix.lo, f"xvi vs snell-ix at k={k}"
        assert ix.hi < prev.hi, f"snell-ix vs archimedes at k={k}"
    return "dominance chain holds on every rung pair to n=1536"


def _vb_arc_perimeter(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    lad = polygon.ladder(6, 2, p)
    work = Precision(192)
    for k in (1, 2):
        n = lad.rungs[k - 1].n
        x = pi_reference(work) * Q(1, n)
        for method in (Method.HUYGENS_VII, Method.HUYGENS_XVI_UPPER,
                       Method.HUYGENS_FINAL_LOWER, Method.SCHUH27_LOWER):
            arc = bounds.arc_bounds(x, method, p) * n
            assert arc.overlaps(bounds.evaluate(lad, k, method)), \
                f"{method.value} arc/perimeter mismatch at n={n}"
        cusa_arc = bounds.cusa_lower_arc(x / 2, p) * (2 * n)
        assert cusa_arc.overlaps(bounds.evaluate(lad, k, Method.CUSA)), \
            f"cusa arc/perimeter mismatch at n={n}"
    ix_arc = bounds.snell_upper_arc(pi_reference(work) * Q(1, 12), p) * 12
    assert ix_arc.overlaps(bounds.evaluate(lad, 1, Method.SNELL_IX)), \
        "snell-ix arc/perimeter mismatch at n=12"
    return "summed arc bounds match ladder evaluations"


def _vb_chord_sine(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    lad = polygon.ladder(6, 5, p)
    for k in range(1, len(lad.rungs)):
        b, c = polygon.chord_sine(lad, k)
        target = b * enc_sqrt(1 - b.square())
        assert c.overlaps(target), f"chord/sine identity at k={k}"
    return "half-chord and sine satisfy c = b sqrt(1-b^2) on 5 rungs"


def _vc_exact_vs_oracle(rng: random.Random, samples: int) -> str:
    p = Precision(96)
    count = max(4, samples // 4)
    pi = pi_reference(Precision(160))
    for i in range(count):
        theta = Q(5, 100) + (Q(31, 10) - Q(5, 100)) * Q(i, count - 1)
        exact = barycenter.barycenter_exact(1, theta, p)
        oracle = barycenter.barycenter_oracle(1, theta, p, panels=256)
        assert exact.overlaps(oracle), f"oracle disagrees at theta={theta}"
        assert exact.width + oracle.width < Q(1, 10**8), f"loose at theta={theta}"
    return f"{count} thetas: independent quadrature overlaps the closed form"


def _vc_balance(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    count = max(4, samples // 4)
    for i in range(count):
        theta = Q(1, 10) + (Q(3) - Q(1, 10)) * Q(i, count - 1)
        g = barycenter.segment(1, theta, p)
        res = barycenter.balance_residual(g)
        assert res.contains_zero(), f"balance residual misses zero at theta={theta}"
        assert res.width < Q(1, 10**10), f"balance residual too wide at theta={theta}"
    return f"{count} thetas: moment balance residual encloses 0 tightly"


def _vc_schuh_pinch(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    for theta in (Q(1, 10), Q(1, 5), Q(2, 5), Q(7, 10), Q(1)):
        g = barycenter.segment(1, theta, p)
        three_fifths = g.a * Q(3, 5)
        schuh = three_fifths - g.a.square() * 3 / ((g.r - three_fifths) * 25)
        assert schuh.hi < g.xi.lo, f"schuh bound crosses xi at theta={theta}"
        assert g.xi.hi < three_fifths.lo, f"xi crosses 3a/5 at theta={theta}"
        assert schuh.lo > (g.a / 2).hi, f"schuh not sharper than a/2 at theta={theta}"
    return "schuh bound pinches xi against 3a/5 and beats a/2 on 5 thetas"


def _vc_homogeneity(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    for theta in (Q(1, 2), Q(3, 2), Q(5, 2)):
        g1 = barycenter.segment(1, theta, p)
        g2 = barycenter.segment(2, theta, p)
        assert g2.xbar.lo == 2 * g1.xbar.lo and g2.xbar.hi == 2 * g1.xbar.hi, \
            f"xbar scaling at theta={theta}"
        assert g2.Sigma.lo == 4 * g1.Sigma.lo and g2.Sigma.hi == 4 * g1.Sigma.hi, \
            f"area scaling at theta={theta}"
    return "doubling the radius scales lengths exactly 2x and areas 4x"


def _vc_sandwich_xv(rng: random.Random, samples: int) -> str:
    p = Precision(128)
    for theta in (Q(1, 4), Q(1), Q(2), Q(3)):
        g = barycenter.segment(1, theta, p)
        suite = {v.name: v for v in barycenter.segment_inequality_suite(g)}
        assert suite["theorem-xv"].passed, f"area/triangle sandwich at theta={theta}"
    return "area-ratio sandwich verdicts pass on 4 thetas"


@functools.lru_cache(maxsize=1)
def _f_grid() -> tuple[Enclosure, ...]:
    p = Precision(64)
    lo, hi = Q(1, 1000), Q(1)
    return tuple(parasect.f_of_x(lo + (hi - lo) * Q(i, 199), p) for i in range(200))


def _vp_sign_grid(rng: random.Random, samples: int) -> str:
    assert all(v.hi < 0 for v in _f_grid()), "sign lemma fails on the grid"
    return "f(x).hi < 0 at 200 grid points in [1e-3, 1]"


def _vp_monotone(rng: random.Random, samples: int) -> str:
    vals = _f_grid()
    for left, right in zip(vals, vals[1:]):
        assert left.lo > right.hi, "f fails to decrease between grid neighbours"
    return "f strictly decreases across the 200-point grid"


def _vp_deriv_ident(rng: random.Random, samples: int) -> str:
    for _ in range(50):
        x = Q(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
        assert parasect.derivative_identity_residual(x) == 0, f"identity residual at {x}"
    return "50 random rationals satisfy the quadratic collapse exactly"


def _vp_consistent(rng: random.Random, samples: int) -> str:
    p = Precision(96)
    for _ in range(max(4, samples // 8)):
        r = Q(rng.randrange(1, 50), rng.randrange(1, 10))
        b = r * Q(rng.randrange(1, 100), 100)
        cfg = parasect.configure(r, b, p)
        gap = parasect.circular_segment_area(cfg) - parasect.parabolic_segment_area(cfg)
        doubled = parasect.f_of_x(b / r, p) * r**2 * 2
        assert gap.overlaps(doubled), f"area gap mismatch at r={r}, b={b}"
    return "2 f(b/r) r^2 matches the explicit area difference on random (r, b)"


def _va_slope_signs(rng: random.Random, samples: int) -> str:
    p = Precision(160)
    lad = polygon.ladder(6, 6, p)
    ref = pi_reference(Precision(288)).mid
    count = 0
    for method in LADDER_METHODS + (Method.COMBINED,):
        start = 1 if method in TWO_RUNG else 0
        for k in range(start, len(lad.rungs)):
            err = analysis.error_sample(lad, k, method, ref)
            assert err.lo > 0, f"{method.value} error sign at k={k}"
            count += 1
    return f"{count} signed errors: lower bounds in defect, upper in excess"


def _va_order_dominance(rng: random.Random, samples: int) -> str:
    p = Precision(192)
    lad = polygon.ladder(6, 6, p)
    ref = pi_reference(Precision(320)).mid
    fourth = (Method.HUYGENS_VII, Method.CUSA, Method.SNELL_IX)
    sixth = (Method.HUYGENS_XVI_UPPER, Method.HUYGENS_FINAL_LOWER, Method.SCHUH27_LOWER)
    for k in range(2, len(lad.rungs)):
        worst = max(abs(analysis.error_sample(lad, k, m, ref)).hi for m in sixth)
        best = min(abs(analysis.error_sample(lad, k, m, ref)).lo for m in fourth)
        assert worst < best, f"order dominance breaks at k={k}"
    return "sixth-order errors beat fourth-order errors from n=12 up"


def _va_coeff_converge(rng: random.Random, samples: int) -> str:
    p = Precision(256)
    lad = polygon.ladder(6, 8, p)
    ref = pi_reference(Precision(384)).mid
    rows = analysis.coefficient_table(p)
    for row in rows:
        if row.within is not None:
            assert row.within.passed, f"coefficient row {row.method.value}"
    target = Q("0.10625683499488939")
    prev = None
    for k in range(4, 9):
        err = abs(analysis.error_sample(lad, k, Method.CUSA, ref))
        gap = abs((err * (6 * 2 ** (k - 1)) ** 4).mid - target)
        assert prev is None or gap < prev, f"coefficient drifts at k={k}"
        prev = gap
    return "measured constants sit within 3% and approach the printed values"


def _vcli_determinism(rng: random.Random, samples: int) -> str:
    cfg = RunConfig(command="ladder", seed_sides=6, doublings=3, digits=10, fmt="csv")
    first = _cmd_ladder(cfg)
    second = _cmd_ladder(cfg)
    assert first == second, "repeated ladder emission differs"
    cfg_json = RunConfig(command="ladder", seed_sides=6, doublings=3, digits=10, fmt="json")
    assert _cmd_ladder(cfg_json) == _cmd_ladder(cfg_json), "repeated json emission differs"
    return "identical configs produce byte-identical output"


def _vcli_json_roundtrip(rng: random.Random, samples: int) -> str:
    cfg = RunConfig(command="ladder", seed_sides=6, doublings=3, digits=10, fmt="json")
    _, text = _cmd_ladder(cfg)
    assert json.dumps(json.loads(text), indent=2) + "\n" == text, "json round trip drifts"
    return "parse and re-emit reproduce the json bytes"


_VERIFY_CHECKS = (
    ("EX-SOUND-RANDOM", _vx_sound_random),
    ("EX-MONO-REFINE", _vx_mono_refine),
    ("EX-SQRT-SQ", _vx_sqrt_square),
    ("EX-SINCOS-PYTH", _vx_sincos_pyth),
    ("EX-PI-NESTED", _vx_pi_nested),
    ("PG-SANDWICH", _vg_sandwich),
    ("PG-RECURRENCE-TRIG", _vg_recurrence_trig),
    ("PG-WIDTH-GROWTH", _vg_width_growth),
    ("PG-AREA-IDENT", _vg_area_identity),
    ("BD-SIDEDNESS", _vb_sidedness),
    ("BD-DOMINANCE", _vb_dominance),
    ("BD-ARC-PERIM-CONSISTENT", _vb_arc_perimeter),
    ("BD-CHORD-SINE-IDENT", _vb_chord_sine),
    ("BC-EXACT-VS-ORACLE", _vc_exact_vs_oracle),
    ("BC-BALANCE-RESIDUAL", _vc_balance),
    ("BC-SCHUH-PINCH", _vc_schuh_pinch),
    ("BC-HOMOGENEITY", _vc_homogeneity),
    ("BC-SANDWICH-XV", _vc_sandwich_xv),
    ("PS-SIGN-GRID", _vp_sign_grid),
    ("PS-MONOTONE", _vp_monotone),
    ("PS-DERIV-IDENT", _vp_deriv_ident),
    ("PS-CONSISTENT", _vp_consistent),
    ("AN-SLOPE-SIGNS", _va_slope_signs),
    ("AN-ORDER-DOMINANCE", _va_order_dominance),
    ("AN-COEFF-CONVERGE", _va_coeff_converge),
    ("CLI-DETERMINISM", _vcli_determinism),
    ("CLI-JSON-ROUNDTRIP", _vcli_json_roundtrip),
)


def _cmd_verify(cfg: RunConfig) -> tuple[int, str]:
    rng = random.Random(cfg.rng_seed)
    samples = cfg.samples if cfg.samples is not None else 24
    lines, outcomes = [], []
    for test_id, check in _VERIFY_CHECKS:
        try:
            detail = check(rng, samples)
            outcome = Outcome.PASS
        except AssertionError as exc:
            outcome, detail = Outcome.FAIL, str(exc)
        except IndeterminateError as exc:
            outcome, detail = Outcome.INDETERMINATE, str(exc)
        outcomes.append(outcome)
        lines.append(f"{test_id:<26} {outcome.value.upper():<13} {detail}")
    lines.append(
        f"verify: {outcomes.count(Outcome.PASS)} pass, {outcomes.count(Outcome.FAIL)} fail, "
        f"{outcomes.count(Outcome.INDETERMINATE)} indeterminate"
    )
    checks = [(test_id, o) for (test_id, _), o in zip(_VERIFY_CHECKS, outcomes)]
    return _worst_exit(checks), "".join(line + "\n" for line in lines)


_COMMANDS = {
    "compute": _cmd_compute,
    "ladder": _cmd_ladder,
    "order": _cmd_order,
    "barycenter": _cmd_barycenter,
    "segment": _cmd_segment,
    "appendix-f": _cmd_appendix_f,
    "verify": _cmd_verify,
}


def execute(cfg: RunConfig) -> tuple[int, str]:
    """A RunConfig in, (exit code, stdout text) out; see _worst_exit for stderr."""
    return _COMMANDS[cfg.command](cfg)


# -- click wiring ----------------------------------------------------------


def _env_bits() -> int | None:
    raw = environ.get("CIRCULUS_PRECISION_BITS")
    if raw is None:
        return None
    try:
        bits = int(raw)
    except ValueError:
        raise UsageFault(
            f"CIRCULUS_PRECISION_BITS must be an integer, got {raw!r}"
        ) from None
    if not 32 <= bits <= MAX_BITS:
        raise UsageFault(f"CIRCULUS_PRECISION_BITS must be between 32 and {MAX_BITS}")
    return bits


# one option per name; commands share the objects
_OPTIONS = {
    "method": click.Option(
        ["--method"], type=click.Choice(COMPUTABLE), required=True, help="Estimator family."),
    "seed": click.Option(
        ["--seed", "seed_sides"], type=click.Choice(["3", "4", "6", "30"]), default="6",
        show_default=True, callback=lambda ctx, param, value: int(value),
        help="Starting polygon sides; 30 uses the trig-seeded rung."),
    **{f"doublings={d}": click.Option(
        ["--doublings"], type=click.IntRange(0, 40), default=d, show_default=True,
        help="Side-doubling steps to take.") for d in (4, 8)},
    "digits": click.Option(
        ["--digits"], type=click.IntRange(4, MAX_DIGITS), default=10, show_default=True,
        help="Requested decimal digits; sets the working precision."),
    "format": click.Option(
        ["--format", "fmt"], type=click.Choice(["plain", "csv", "json"]), default="plain",
        show_default=True, help="Output format."),
    "theta": click.Option(
        ["--theta"], required=True, help="Central angle: decimal, fraction, or pi form."),
    "radius": click.Option(["--radius"], default="1", show_default=True, help="Circle radius."),
    "panels": click.Option(
        ["--samples"], type=click.IntRange(2, 1 << 20), default=None,
        help="Quadrature panel count (even)."),
    "x": click.Option(["--x"], required=True, help="Height ratio in (0, 1]."),
    "rng-seed": click.Option(
        ["--rng-seed"], type=int, default=0, show_default=True,
        help="Seed for the randomized property checks."),
    "scale": click.Option(
        ["--samples"], type=click.IntRange(1, 100000), default=None,
        help="Scale for randomized sample counts."),
}

# (command, options in help-page order)
_CLICK_COMMANDS = (
    ("compute", ("method", "seed", "doublings=4", "digits", "format")),
    ("ladder", ("seed", "doublings=4", "digits", "format")),
    ("order", ("method", "seed", "doublings=8", "digits", "format")),
    ("barycenter", ("theta", "radius", "panels", "digits", "format")),
    ("segment", ("theta", "radius", "digits", "format")),
    ("appendix-f", ("x", "digits", "format")),
    ("verify", ("rng-seed", "scale")),
)


@click.group(name="circulus")
def cli() -> None:
    """Rigorous enclosures for classical circle bounds."""


def _click_command(name: str, options: tuple[str, ...]) -> click.Command:
    def run(**params) -> int:
        code, text = execute(RunConfig(name, precision_bits=_env_bits(), **params))
        click.echo(text, nl=False)
        return code

    return click.Command(name, callback=run, params=[_OPTIONS[o] for o in options])


for _name, _options in _CLICK_COMMANDS:
    cli.add_command(_click_command(_name, _options))


def main(argv: list[str] | None = None) -> int:
    """Entry point mapping library errors onto stable exit codes."""
    try:
        rv = cli.main(args=argv, prog_name="circulus", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except UsageFault as exc:
        click.echo(f"usage error: {exc}", err=True)
        return EXIT_USAGE
    except (DomainError, IllConditioned, UnsupportedSeed, InsufficientSamples,
            PoleProximity) as exc:
        click.echo(f"domain error: {exc}", err=True)
        return EXIT_DOMAIN
    except IndeterminateError as exc:
        click.echo(f"indeterminate: {exc}", err=True)
        return EXIT_INDETERMINATE
    return rv if isinstance(rv, int) else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
