"""Golden corpus: CLI bytes and library endpoints, pinned.

`tests/golden/corpus.json` holds the exit code, stdout and stderr of a set
of in-process `circulus.cli.main` calls, and the exact rational endpoints
(or the error text) of a set of library calls.  Each test re-runs its cases
and requires identical results.  Any difference is an output change.

Regenerating the file is itself a deliberate output change, to be reviewed
as such:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import sys
from pathlib import Path

import pytest

from circulus import barycenter, bounds, exact, parasect, polygon
from circulus.bounds import Method
from circulus.cli import main
from circulus.errors import CirculusError
from circulus.exact import Enclosure, Precision, Q, pi_reference
from circulus.verdict import Verdict

CORPUS = Path(__file__).parent / "golden" / "corpus.json"
ENV_VAR = "CIRCULUS_PRECISION_BITS"

# (argv, CIRCULUS_PRECISION_BITS or None)
CLI_CASES = (
    (["--help"], None),
    (["compute", "--help"], None),
    (["ladder", "--help"], None),
    (["order", "--help"], None),
    (["barycenter", "--help"], None),
    (["segment", "--help"], None),
    (["appendix-f", "--help"], None),
    (["verify", "--help"], None),
    (["compute", "--method", "combined", "--seed", "30", "--doublings", "2",
      "--digits", "20"], None),
    (["compute", "--method", "huygens-vii", "--seed", "3", "--format", "csv"], None),
    (["compute", "--method", "archimedes", "--seed", "4", "--doublings", "0",
      "--format", "json"], None),
    (["compute", "--method", "snell-ix", "--seed", "6", "--doublings", "3",
      "--digits", "16", "--format", "csv"], None),
    (["ladder", "--seed", "6", "--doublings", "3"], None),
    (["ladder", "--seed", "4", "--doublings", "3", "--digits", "12", "--format", "csv"], None),
    (["ladder", "--seed", "3", "--doublings", "2", "--format", "json"], None),
    (["ladder", "--seed", "30", "--doublings", "2", "--digits", "14"], None),
    (["order", "--method", "huygens-vii"], None),
    (["order", "--method", "snell-ix", "--seed", "4", "--doublings", "6",
      "--format", "csv"], None),
    (["order", "--method", "huygens-xvi-upper", "--doublings", "6", "--digits", "30",
      "--format", "json"], None),
    (["barycenter", "--theta", "pi"], None),
    (["barycenter", "--theta", "pi/2", "--format", "csv"], None),
    (["barycenter", "--theta", "3pi/4", "--radius", "5/2", "--samples", "64",
      "--format", "json"], None),
    (["barycenter", "--theta", "2/3", "--digits", "14"], None),
    (["segment", "--theta", "pi", "--digits", "8"], None),
    (["segment", "--theta", "pi/2", "--format", "csv"], None),
    (["segment", "--theta", "3pi/4", "--radius", "5/2", "--format", "json"], None),
    (["segment", "--theta", "2/3", "--digits", "16"], None),
    (["appendix-f", "--x", "0.45"], None),
    (["appendix-f", "--x", "1/3", "--digits", "20", "--format", "csv"], None),
    (["appendix-f", "--x", "1", "--format", "json"], None),
    (["barycenter", "--theta", "0.001"], None),
    (["segment", "--theta", "0.001"], None),
    (["verify", "--samples", "6", "--rng-seed", "3"], None),
    # usage errors, exit 64
    ([], None),
    (["compute", "--method", "cusa", "--doublings", "0"], None),
    (["compute", "--method", "nope"], None),
    (["barycenter", "--theta", "1", "--samples", "7"], None),
    (["segment", "--theta", "2pipi"], None),
    (["appendix-f", "--x", "abc"], None),
    # domain errors, exit 65
    (["barycenter", "--theta", "0.0001"], None),
    (["segment", "--theta", "4"], None),
    (["barycenter", "--theta", "1", "--radius", "-2"], None),
    (["appendix-f", "--x", "2"], None),
    (["order", "--method", "cusa", "--doublings", "3"], None),
    # precision override from the environment
    (["compute", "--method", "huygens-final-lower", "--format", "csv"], "40"),
    (["ladder", "--doublings", "2", "--digits", "30", "--format", "json"], "200"),
    (["compute", "--method", "cusa"], "abc"),
    # starved precision, exit 2
    (["order", "--method", "huygens-vii", "--doublings", "12", "--digits", "4"], "48"),
)


@contextlib.contextmanager
def _environment(bits: str | None):
    # help pages wrap at the terminal width, so pin it
    saved = {k: os.environ.get(k) for k in (ENV_VAR, "COLUMNS")}
    os.environ["COLUMNS"] = "80"
    if bits is None:
        os.environ.pop(ENV_VAR, None)
    else:
        os.environ[ENV_VAR] = bits
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_cli(argv: list[str], bits: str | None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with _environment(bits), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "env": bits, "exit": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


# -- library cases -----------------------------------------------------------


def _encode(value):
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Enclosure):
        return [str(value.lo), str(value.hi), value.precision.bits]
    if isinstance(value, Verdict):
        margin = None if value.margin is None else str(value.margin)
        return [value.name, value.outcome.value, margin, value.detail]
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    raise TypeError(f"no golden encoding for {type(value).__name__}")


def _outcome(thunk):
    try:
        return _encode(thunk())
    except (CirculusError, ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _arc_cases():
    rng = random.Random(20241)
    grid = [Q(rng.randrange(-200, 3400), 1000) for _ in range(6)]
    grid += [Q(0), Q(1, 4), Q(1), Q(3, 2), Q(157, 100), Q(3)]
    for bits in (64, 96, 300):
        p = Precision(bits)
        angles = [(str(x), x) for x in grid]
        angles += [("pi/2", pi_reference(p) / 2), ("pi", pi_reference(p)),
                   ("pi/12", pi_reference(p.raised(64)) * Q(1, 12))]
        for label, x in angles:
            for m in Method:
                yield f"arc_bounds {m.value} {label} @{bits}", \
                    lambda x=x, m=m, p=p: bounds.arc_bounds(x, m, p)
            yield f"cusa_lower_arc {label} @{bits}", \
                lambda x=x, p=p: bounds.cusa_lower_arc(x, p)
            yield f"snell_upper_arc {label} @{bits}", \
                lambda x=x, p=p: bounds.snell_upper_arc(x, p)
    # default precisions: 96 bits for a rational, the angle's own otherwise
    for m in Method:
        yield f"arc_bounds {m.value} 7/10 default", lambda m=m: bounds.arc_bounds(Q(7, 10), m)
        yield f"arc_bounds {m.value} 5/4@80 default", \
            lambda m=m: bounds.arc_bounds(Enclosure.point(Q(5, 4), Precision(80)), m)


def _evaluate_cases():
    lad = polygon.ladder(6, 5, Precision(128))
    for m in Method:
        for k in range(-1, len(lad.rungs) + 1):
            yield f"evaluate {m.value} k={k}", lambda m=m, k=k: bounds.evaluate(lad, k, m)
        yield f"rows {m.value}", lambda m=m: [
            [r.method, r.n, r.side, _encode(r.value), r.digits] for r in bounds.rows(lad, m)
        ]


_TRIG_FUNCTIONS = ("enc_sin", "enc_cos", "enc_tan", "enc_arctan", "enc_arcsin")


def _trig_cases():
    points = [Q(0), Q(1, 3), Q(-7, 5), Q(1), Q(-1), Q(2), Q(5, 2), Q(10), Q(-50, 7), Q(100)]
    for bits in (64, 256, 1024):
        p = Precision(bits)
        # the widest precision is the slowest: a few points suffice there
        args = [(str(v), Enclosure.point(v, p)) for v in (points[1:3] if bits > 256 else points)]
        args += [("[0,2]", Enclosure(Q(0), Q(2), p)),
                 ("[-1/2,3/4]", Enclosure(Q(-1, 2), Q(3, 4), p)),
                 ("pi/2", pi_reference(p) / 2),
                 ("pi", pi_reference(p))]
        for name in _TRIG_FUNCTIONS:
            fn = getattr(exact, name)
            for label, x in args:
                yield f"{name} {label} @{bits}", lambda fn=fn, x=x: fn(x)
            yield f"{name} 3/7 @{bits} to 80", \
                lambda fn=fn, p=p: fn(Enclosure.point(Q(3, 7), p), Precision(80))


def _pi_cases():
    for bits in (8, 64, 96, 128, 300, 1024, 1700):
        yield f"pi_reference @{bits}", lambda bits=bits: pi_reference(Precision(bits))


def _segment_cases():
    cases = [(1, Q(2, 3)), (1, Q(1, 5)), (Q(5, 2), Q(3)), (3, Q(1, 100)), (1, "pi"),
             (1, "pi/2"), (1, Q(0)), (1, Q(1, 2000)), (-1, Q(1)), (1, Q(4)), (1, Q(-1))]
    for bits in (96, 200):
        p = Precision(bits)
        for r, theta in cases:
            label = f"r={r} theta={theta} @{bits}"
            if theta == "pi":
                theta = pi_reference(p.raised(32))
            elif theta == "pi/2":
                theta = pi_reference(p.raised(32)) / 2
            yield f"segment {label}", lambda r=r, t=theta, p=p: barycenter.segment(r, t, p)
            yield f"barycenter_exact {label}", \
                lambda r=r, t=theta, p=p: barycenter.barycenter_exact(r, t, p)
            yield f"barycenter_oracle {label}", \
                lambda r=r, t=theta, p=p: barycenter.barycenter_oracle(r, t, p, panels=16)

            def suite(r=r, t=theta, p=p):
                g = barycenter.segment(r, t, p)
                return [barycenter.balance_residual(g),
                        barycenter.tangent_triangle_oracle(g, panels=8),
                        barycenter.segment_inequality_suite(g)]
            yield f"segment checks {label}", suite
    yield "segment default 9/10", lambda: barycenter.segment(1, Q(9, 10))
    yield "barycenter_exact default 9/10", lambda: barycenter.barycenter_exact(1, Q(9, 10))


def _parasect_cases():
    for bits in (64, 160):
        p = Precision(bits)
        for x in (Q(1, 1000), Q(9, 20), Q(1), Q(0), Q(3, 2)):
            yield f"f_of_x {x} @{bits}", lambda x=x, p=p: parasect.f_of_x(x, p)
        for r, b in ((1, Q(1, 3)), (Q(7, 2), 2), (1, 2), (-1, Q(1, 2))):
            def figure(r=r, b=b, p=p):
                cfg = parasect.configure(r, b, p)
                report = parasect.area_difference_report(cfg)
                return [cfg, parasect.circular_segment_area(cfg),
                        parasect.parabolic_segment_area(cfg),
                        report.sliver_minus_wedge, report.bound_check]
            yield f"configure r={r} b={b} @{bits}", figure
    yield "f_of_x default 1/2", lambda: parasect.f_of_x(Q(1, 2))


LIBRARY_GROUPS = {
    "arc": _arc_cases,
    "evaluate": _evaluate_cases,
    "trig": _trig_cases,
    "pi": _pi_cases,
    "segment": _segment_cases,
    "parasect": _parasect_cases,
}


def library_group(name: str) -> dict:
    return {key: _outcome(thunk) for key, thunk in LIBRARY_GROUPS[name]()}


def generate() -> dict:
    return {
        "cli": [run_cli(argv, bits) for argv, bits in CLI_CASES],
        "library": {name: library_group(name) for name in LIBRARY_GROUPS},
    }


# -- tests -------------------------------------------------------------------


def _load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


_GOLDEN = _load() if CORPUS.exists() else {"cli": [], "library": {}}


@pytest.mark.parametrize(
    "case", _GOLDEN["cli"],
    ids=[" ".join(c["argv"]) + (f" [bits={c['env']}]" if c["env"] else "")
         for c in _GOLDEN["cli"]],
)
def test_cli_output_is_pinned(case) -> None:
    assert run_cli(case["argv"], case["env"]) == case


@pytest.mark.parametrize("group", sorted(LIBRARY_GROUPS))
def test_library_results_are_pinned(group) -> None:
    expected = _GOLDEN["library"][group]
    actual = library_group(group)
    assert list(actual) == list(expected)
    mismatched = [key for key in expected if actual[key] != expected[key]]
    assert not mismatched, f"{len(mismatched)} changed: " + "; ".join(mismatched)


def test_corpus_covers_every_cli_case() -> None:
    assert [[c["argv"], c["env"]] for c in _GOLDEN["cli"]] == [list(c) for c in CLI_CASES]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(generate(), indent=1) + "\n", encoding="utf-8")
