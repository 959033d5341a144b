"""The sweep-96 workload: in-process library calls at 96 bits.

This is the library and property-sweep caller.  Each list holds arc ops
(four arc estimators and their four strict verdicts at one angle), a
segment op (every segment field plus the inequality suite) after every
tenth arc op, and one quadrature-oracle op at the end.  Calls go through
the circulus module attributes so that an installed tracer sees them.

Run as a script, it performs the workload's set-up (import, pi at the
sweep precision, one throw-away op) and exits; the benchmark times that
in fresh interpreters to report setup_s.
"""

from __future__ import annotations

import random
from fractions import Fraction

from circulus import barycenter, bounds, exact, verdict

P96 = exact.Precision(96)
ARCS_PER_LIST = 100  # so that each list has 10 arc latencies beyond its p90
SEGMENT_EVERY = 10
ORACLE_PANELS = 256


def arc_op(x: Fraction):
    """cusa/snell arc bounds, the two order-6 arc bounds, and their verdicts."""
    cusa = bounds.cusa_lower_arc(x, P96)
    snell = bounds.snell_upper_arc(x, P96)
    final = bounds.arc_bounds(x, bounds.Method.HUYGENS_FINAL_LOWER, P96)
    xvi = bounds.arc_bounds(x, bounds.Method.HUYGENS_XVI_UPPER, P96)
    arc = exact.Enclosure.point(x, P96)
    verdicts = (
        verdict.strict_less("cusa-lower", cusa, arc),
        verdict.strict_less("snell-upper", arc, snell),
        verdict.strict_less("final-lower", final, arc),
        verdict.strict_less("xvi-upper", arc, xvi),
    )
    return cusa, snell, final, xvi, verdicts


def segment_op(theta: Fraction):
    g = barycenter.segment(1, theta, P96)
    return g, barycenter.segment_inequality_suite(g)


def oracle_op(theta: Fraction):
    return barycenter.barycenter_oracle(1, theta, P96, panels=ORACLE_PANELS)


OPS = {"arc": arc_op, "segment": segment_op, "oracle": oracle_op}


def _theta(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(500, 31000), 10000)  # (0.05, 3.1): inside (0, pi)


def op_list(rng: random.Random) -> list[tuple[str, Fraction]]:
    """One list of (kind, argument) drawn from the workload's seeded stream."""
    ops = []
    for i in range(1, ARCS_PER_LIST + 1):
        ops.append(("arc", Fraction(rng.randint(100, 15600), 10000)))  # [0.01, 1.56]
        if i % SEGMENT_EVERY == 0:
            ops.append(("segment", _theta(rng)))
    ops.append(("oracle", _theta(rng)))
    return ops


def warm_up() -> None:
    exact.pi_reference(P96)
    arc_op(Fraction(1))


if __name__ == "__main__":
    warm_up()
