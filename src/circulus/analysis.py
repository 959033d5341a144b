"""Convergence-order fits and error-coefficient measurements.

Every estimator family carries a known error law C/n^p.  This module
measures p as a least-squares slope of log2|error| against log2 n along a
doubling ladder, then pins the constant C at a single large n against the
printed values pi^5/480, pi^5/2880, pi^5/20, and pi^7/22400 (unit-diameter
convention).  The small-angle arc estimators get a direct two-term series
check instead.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import SIDE, TWO_RUNG, Method, cusa_lower_arc, evaluate, method_n, snell_upper_arc
from .errors import DomainError, IndeterminateError, InsufficientSamples
from .exact import Enclosure, Precision, Q, pi_reference
from .polygon import PolygonLadder, ladder
from .verdict import Outcome, Verdict, strict_between, strict_less

__all__ = [
    "CoefficientRow",
    "OrderEstimate",
    "arc_expansion_check",
    "coefficient_table",
    "error_sample",
    "estimate_order",
]


@dataclass(frozen=True, slots=True)
class OrderEstimate:
    method: Method
    slope: float
    coefficient: Enclosure
    samples: tuple[tuple[int, Enclosure], ...]


@dataclass(frozen=True, slots=True)
class CoefficientRow:
    method: Method
    order: int
    expected: Enclosure | None
    measured: Enclosure
    unit_convention: str
    within: Verdict | None


def _pi_power(exp: int, work: Precision) -> Enclosure:
    pi = pi_reference(work)
    out = pi
    for _ in range(exp - 1):
        out = out * pi
    return out


def error_sample(lad: PolygonLadder, k: int, method: Method, reference: Q) -> Enclosure:
    """Signed error of one ladder cell: defect for lower bounds, excess for
    upper bounds, bracket width for the two-sided methods."""
    if method is Method.ARCHIMEDES:
        rung = lad.rungs[k]
        return rung.circ - rung.insc
    if method is Method.COMBINED:
        return evaluate(lad, k, Method.HUYGENS_XVI_UPPER) - evaluate(
            lad, k, Method.HUYGENS_FINAL_LOWER
        )
    value = evaluate(lad, k, method)
    if SIDE[method] == "lower":
        return reference - value
    return value - reference


def _log2(q: Q) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)


def estimate_order(
    method: Method,
    seed: int,
    k_range: Iterable[int],
    precision: Precision,
) -> OrderEstimate:
    """Fit the convergence order of one method along ladder(seed, max k).

    The slope comes from the last max(4, ceil(m/2)) of the m requested rungs;
    early rungs are pre-asymptotic and only pollute the fit.  The coefficient
    n^p |error| is taken at the largest n with p = round(-slope).
    """
    ks = sorted(set(int(k) for k in k_range))
    if len(ks) < 4 or ks[-1] - ks[0] < 4:
        raise InsufficientSamples(
            f"order fit needs >= 4 rungs spanning >= 4 doublings, got {ks}"
        )
    lad = ladder(seed, ks[-1], precision)
    reference = pi_reference(precision.raised(128)).mid
    samples: list[tuple[int, Enclosure]] = []
    for k in ks:
        err = error_sample(lad, k, method, reference)
        n = method_n(lad, k, method)
        if err.contains_zero():
            raise IndeterminateError(
                f"{method.value} error enclosure at n={n} does not exclude zero"
            )
        samples.append((n, abs(err)))
    tail = samples[-max(4, math.ceil(len(samples) / 2)):]
    xs = [math.log2(n) for n, _ in tail]
    ys = [_log2(err.mid) for _, err in tail]
    slope = statistics.linear_regression(xs, ys).slope
    p = round(-slope)
    n_last, err_last = samples[-1]
    coefficient = (err_last * n_last**p).rounded(precision)
    return OrderEstimate(method, slope, coefficient, tuple(samples))


_HALVED = "unit-diameter (half the unit-radius constant)"
_NATIVE = "unit-diameter (printed for diameter 1)"
_MEASURED = "measured-only (no printed constant)"

# (order, pi exponent, denominator, convention); None constant = measured-only
_TABLE_SPEC: Sequence[tuple[Method, int, tuple[int, int] | None, str]] = (
    (Method.HUYGENS_VII, 4, (5, 480), _HALVED),
    (Method.CUSA, 4, (5, 2880), _HALVED),
    (Method.SNELL_IX, 4, (5, 20), _HALVED),
    (Method.HUYGENS_XVI_UPPER, 6, (7, 22400), _NATIVE),
    (Method.HUYGENS_FINAL_LOWER, 6, None, _MEASURED),
    (Method.SCHUH27_LOWER, 6, None, _MEASURED),
)

_TOLERANCE = Q(3, 100)


def coefficient_table(precision: Precision | None = None) -> tuple[CoefficientRow, ...]:
    """Expected vs measured error constants at n = 1536 for each method."""
    if precision is None:
        precision = Precision(256)
    work = precision.raised(8)
    lad = ladder(6, 9, precision)
    reference = pi_reference(precision.raised(128)).mid
    out = []
    for method, order, constant, tag in _TABLE_SPEC:
        k = 9 if method in TWO_RUNG else 8
        n = method_n(lad, k, method)
        err = abs(error_sample(lad, k, method, reference))
        measured = (err * n**order).rounded(precision)
        if constant is None:
            out.append(CoefficientRow(method, order, None, measured, tag, None))
            continue
        exp_pi, denom = constant
        expected = (_pi_power(exp_pi, work) / denom).rounded(precision)
        ratio = measured / expected
        verdict = strict_between(
            f"coefficient-{method.value}",
            Enclosure.point(1 - _TOLERANCE, ratio.precision),
            ratio,
            Enclosure.point(1 + _TOLERANCE, ratio.precision),
            f"measured/expected in [{ratio.lo}, {ratio.hi}], tolerance 3%",
        )
        out.append(CoefficientRow(method, order, expected, measured, tag, verdict))
    return tuple(out)


# two-term small-angle models: bound(x) = x + sign*(x^5/a5 + x^7/a7) + O(x^9)
_ARC_MODELS = {
    Method.CUSA: (cusa_lower_arc, -1, 180, 1512),
    Method.SNELL: (snell_upper_arc, 1, 20, 56),
}


def arc_expansion_check(
    method: Method,
    x_grid: Iterable[Q | int],
    precision: Precision | None = None,
) -> Verdict:
    """Check |bound(x) - x -+ x^5/a| <= 2 x^7/b on a grid in (0, 1/4]."""
    if method not in _ARC_MODELS:
        raise DomainError(f"no series model for method {method.value!r}")
    bound_fn, sign, a5, a7 = _ARC_MODELS[method]
    name = f"arc-expansion-{method.value}"
    margins = []
    for raw in x_grid:
        x = Q(raw)
        if x <= 0 or x > Q(1, 4):
            raise DomainError(f"grid point {x} outside (0, 1/4]")
        deviation = abs(bound_fn(x, precision) - x - sign * x**5 / a5)
        envelope = Enclosure.point(2 * x**7 / a7, deviation.precision)
        verdict = strict_less(name, deviation, envelope, f"deviation at x={x} vs 2|next term|")
        if not verdict.passed:
            return verdict
        margins.append(verdict.margin)
    if not margins:
        raise DomainError("empty grid")
    return Verdict(
        name,
        Outcome.PASS,
        min(margins),
        f"{len(margins)} grid points inside the two-term envelope",
    )
