"""Command-line surface: row schema, formats, exit codes, verify battery."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from circulus.cli import (
    CSV_COLUMNS,
    EXIT_DOMAIN,
    EXIT_INDETERMINATE,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    execute,
    main,
)
from circulus.exact import Q

VERIFY_IDS = (
    "EX-SOUND-RANDOM", "EX-MONO-REFINE", "EX-SQRT-SQ", "EX-SINCOS-PYTH",
    "EX-PI-NESTED",
    "PG-SANDWICH", "PG-RECURRENCE-TRIG", "PG-WIDTH-GROWTH", "PG-AREA-IDENT",
    "BD-SIDEDNESS", "BD-DOMINANCE", "BD-ARC-PERIM-CONSISTENT",
    "BD-CHORD-SINE-IDENT",
    "BC-EXACT-VS-ORACLE", "BC-BALANCE-RESIDUAL", "BC-SCHUH-PINCH",
    "BC-HOMOGENEITY", "BC-SANDWICH-XV",
    "PS-SIGN-GRID", "PS-MONOTONE", "PS-DERIV-IDENT", "PS-CONSISTENT",
    "AN-SLOPE-SIGNS", "AN-ORDER-DOMINANCE", "AN-COEFF-CONVERGE",
    "CLI-DETERMINISM", "CLI-JSON-ROUNDTRIP",
)


def run(capsys, args):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cell_value(cell: str) -> Q:
    # cells carry a trailing rounding marker: v (down), ^ (up), = (exact)
    assert cell[-1] in "v^="
    return Q(cell[:-1])


def test_compute_prints_famous_lower_bound(capsys):
    """The trig-seeded 60-gon run reproduces the classical 12-digit lower bound."""
    code, out, _ = run(capsys, [
        "compute", "--method", "huygens-final-lower",
        "--seed", "30", "--doublings", "1", "--digits", "12",
    ])
    assert code == EXIT_OK
    assert "3.14159265339" in out
    assert "huygens-final-lower+trig-seeded" in out
    assert "lower" in out


def test_compute_standard_seed_has_no_suffix(capsys):
    code, out, _ = run(capsys, ["compute", "--method", "cusa", "--seed", "6"])
    assert code == EXIT_OK
    assert "+trig-seeded" not in out


def test_compute_csv_is_header_plus_one_row(capsys):
    code, out, _ = run(capsys, [
        "compute", "--method", "archimedes", "--format", "csv",
    ])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "archimedes"
    assert row[1] == "96"
    assert row[2] == "two_sided"


def test_ladder_csv_shape(capsys):
    """One-rung methods emit k+1 rows, two-rung methods k rows: 30 in all."""
    code, out, _ = run(capsys, [
        "ladder", "--seed", "6", "--doublings", "4",
        "--digits", "10", "--format", "csv",
    ])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "method,n,side,lo,hi,width,correct_digits"
    assert len(lines) == 1 + 30
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {
        "archimedes", "cusa", "huygens-vii", "snell-ix",
        "huygens-xvi-upper", "huygens-final-lower", "schuh27-lower",
    }


def test_ladder_archimedes_96_brackets_classical_pi(capsys):
    _, out, _ = run(capsys, ["ladder", "--digits", "10", "--format", "csv"])
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    row = next(r for r in rows if r[0] == "archimedes" and r[1] == "96")
    lo, hi = cell_value(row[3]), cell_value(row[4])
    assert Q(3) + Q(10, 71) < lo < hi < Q(3) + Q(1, 7)


def test_csv_cells_round_outward(capsys):
    _, out, _ = run(capsys, ["ladder", "--digits", "8", "--format", "csv"])
    for line in out.strip().splitlines()[1:]:
        row = line.split(",")
        assert row[3][-1] in "v="
        assert row[4][-1] in "^="
        assert cell_value(row[3]) <= cell_value(row[4])


def test_json_round_trip():
    code, text = execute(RunConfig("ladder", fmt="json", doublings=3))
    assert code == EXIT_OK
    rows = json.loads(text)
    assert json.dumps(rows, indent=2) + "\n" == text
    assert all(tuple(row.keys()) == CSV_COLUMNS for row in rows)


def test_execute_is_deterministic():
    cfg = RunConfig("barycenter", theta="2/3", digits=14, fmt="json")
    assert execute(cfg) == execute(cfg)


def test_appendix_f_value_and_verdict(capsys):
    code, out, _ = run(capsys, ["appendix-f", "--x", "1", "--digits", "10"])
    assert code == EXIT_OK
    assert "-0.0034124" in out
    assert "PASS" in out and "area-gap-bound" in out


def test_segment_tangent_pole_note(capsys):
    code, out, _ = run(capsys, ["segment", "--theta", "pi", "--digits", "8"])
    assert code == EXIT_OK
    assert "undefined (tangent pole at theta = pi)" in out
    assert "inequality suite skipped" in out


def test_segment_suite_names(capsys):
    code, out, _ = run(capsys, ["segment", "--theta", "2pi/3"])
    assert code == EXIT_OK
    for name in ("theorem-xiv", "hofmann", "schuh",
                 "theorem-xv", "theorem-iv", "lemma-vi"):
        assert f"PASS          {name}" in out


def test_barycenter_reports_oracle_overlap(capsys):
    code, out, _ = run(capsys, ["barycenter", "--theta", "pi/2"])
    assert code == EXIT_OK
    assert "exact-oracle-overlap" in out
    assert "PASS" in out


def test_order_reports_slope_and_coefficient(capsys):
    code, out, _ = run(capsys, [
        "order", "--method", "huygens-vii", "--doublings", "8",
    ])
    assert code == EXIT_OK
    head = out.splitlines()[0]
    assert head.startswith("order huygens-vii seed=6: slope -3.999")
    assert "~ n^-4" in head
    assert "huygens-vii:coefficient" in out


@pytest.mark.parametrize("args", [
    ["compute", "--method", "nope"],
    ["compute", "--method", "cusa", "--digits", "2"],
    ["compute", "--method", "cusa", "--seed", "5"],
    ["compute", "--method", "cusa", "--doublings", "0"],
    ["barycenter", "--theta", "abc"],
    ["barycenter", "--theta", "1", "--samples", "7"],
    ["segment", "--theta", "pi/0"],
    ["segment", "--theta", "2pipi"],
    [],
])
def test_usage_errors_exit_64(capsys, args):
    code, _, _ = run(capsys, args)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("args", [
    ["segment", "--theta", "4"],
    ["barycenter", "--theta", "0"],
    ["barycenter", "--theta", "0.0001"],
    ["appendix-f", "--x", "2"],
    ["appendix-f", "--x", "0"],
    ["order", "--method", "cusa", "--doublings", "3"],
])
def test_domain_errors_exit_65(capsys, args):
    code, _, _ = run(capsys, args)
    assert code == EXIT_DOMAIN


def test_starved_precision_exits_indeterminate(capsys, monkeypatch):
    # 48 bits cannot separate eighth-generation errors from the pi reference
    monkeypatch.setenv("CIRCULUS_PRECISION_BITS", "48")
    code, _, _ = run(capsys, [
        "order", "--method", "huygens-vii", "--doublings", "12", "--digits", "4",
    ])
    assert code == EXIT_INDETERMINATE


def test_undecided_verdicts_say_why_on_stderr(capsys, monkeypatch):
    # 32 bits cannot place xi of a 0.001 segment between a/2 and 3a/5
    monkeypatch.setenv("CIRCULUS_PRECISION_BITS", "32")
    args = ["segment", "--theta", "0.001"]
    for fmt in ("plain", "csv", "json"):
        code, out, err = run(capsys, [*args, "--format", fmt])
        assert code == EXIT_INDETERMINATE
        assert err == "indeterminate: undecided checks: theorem-xiv, schuh, theorem-xv\n"
        # main prints what execute returns; the note goes to stderr alone
        cfg = RunConfig("segment", theta="0.001", precision_bits=32, fmt=fmt)
        assert execute(cfg) == (code, out)
        assert capsys.readouterr().err == err


def test_verdicts_do_not_depend_on_scale(capsys):
    # every segment inequality is homogeneous in r, so a 1e-300 radius
    # decides what a unit radius does; margins near 1e-604 still print
    code, out, err = run(capsys, ["segment", "--theta", "0.5", "--radius", "1e-300"])
    assert (code, err) == (EXIT_OK, "")
    verdicts = [line.split() for line in out.splitlines() if "margin=" in line]
    assert [v[:2] for v in verdicts] == [["PASS", name] for name in (
        "theorem-xiv", "hofmann", "schuh", "theorem-xv", "theorem-iv", "lemma-vi")]
    for v in verdicts:
        mantissa = v[2].removeprefix("margin=").split("e")[0]
        assert mantissa != "0.000", v


@pytest.mark.parametrize("args,budget", [
    pytest.param(["compute", "--method", "combined", "--seed", "30", "--doublings", "4",
                  "--digits", "600"], 1.0, id="compute-600"),
    pytest.param(["segment", "--theta", "pi/2", "--digits", "700"], 1.0, id="segment-700"),
    pytest.param(["compute", "--method", "combined", "--seed", "30", "--doublings", "4",
                  "--digits", "1000", "--format", "csv"], 1.0, id="compute-1000"),
    pytest.param(["segment", "--theta", "pi/2", "--digits", "1000", "--format", "csv"], 1.0,
                 id="segment-1000"),
    pytest.param(["appendix-f", "--x", "0.453", "--digits", "700", "--format", "csv"], 1.0,
                 id="appendix-f-700"),
    pytest.param(["appendix-f", "--x", "0.453", "--digits", "1000", "--format", "csv"], 1.5,
                 id="appendix-f-1000"),
    pytest.param(["barycenter", "--theta", "3pi/4", "--digits", "1000"], 2.0,
                 id="barycenter-1000"),
])
def test_high_digit_runs_certify(args, budget):
    # pi, sin, cos and arctan past the term counts that fixed series caps
    # allowed; the budget is about three times a cold run on a busy 2-vCPU
    # host
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("CIRCULUS_PRECISION_BITS", None)
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "circulus.cli", *args], env=env,
                          capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stderr == ""
    assert elapsed < budget, f"{' '.join(args)} took {elapsed:.2f} s"
    if args[:1] == ["segment"] and "csv" in args:
        # xbar is one value, not a bracket of two, so every digit certifies
        digits = int(args[args.index("--digits") + 1])
        rows = {row["method"]: row for row in csv.DictReader(io.StringIO(done.stdout))}
        assert int(rows["segment:xbar"]["correct_digits"]) >= digits


# SHA-256 of the stdout of `ladder --doublings 20 --digits 1000 --seed 6`;
# the golden corpus stops short of 1000-digit ladders
LADDER_1000_SHA256 = {
    "csv": "275f69fec7f231427997bc5b76bc05fa895c82cc1c76fb06923d0f638d491a1d",
    "json": "b27f7017a0794987467588d9dca8af1b49b1c0fdbf3f2aad6a0d96827cde4fa5",
}


@pytest.mark.parametrize("fmt", sorted(LADDER_1000_SHA256))
def test_ladder_1000_digits_is_pinned(capsys, monkeypatch, fmt):
    monkeypatch.delenv("CIRCULUS_PRECISION_BITS", raising=False)
    start = time.perf_counter()
    code, out, _ = run(capsys, [
        "ladder", "--doublings", "20", "--digits", "1000", "--seed", "6",
        "--format", fmt,
    ])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == LADDER_1000_SHA256[fmt]
    if fmt == "csv":
        # a place-by-place correct_digits scan takes twice this budget; the
        # bisection takes about a quarter of it
        assert elapsed < 3.0, f"1000-digit csv ladder took {elapsed:.2f} s"


def test_env_override_tightens_enclosures(capsys, monkeypatch):
    # archimedes widths are method-limited, so probe a one-sided estimate
    # whose enclosure width comes from rounding alone
    _, base, _ = run(capsys, [
        "compute", "--method", "huygens-final-lower", "--format", "json",
    ])
    monkeypatch.setenv("CIRCULUS_PRECISION_BITS", "256")
    code, tight, _ = run(capsys, [
        "compute", "--method", "huygens-final-lower", "--format", "json",
    ])
    assert code == EXIT_OK
    assert json.loads(tight)[0]["correct_digits"] > json.loads(base)[0]["correct_digits"]


@pytest.mark.parametrize("value", ["16", "3363", "whatever", "63.5"])
def test_env_override_rejects_bad_values(capsys, monkeypatch, value):
    monkeypatch.setenv("CIRCULUS_PRECISION_BITS", value)
    code, _, err = run(capsys, ["compute", "--method", "cusa"])
    assert code == EXIT_USAGE
    assert "CIRCULUS_PRECISION_BITS" in err


@pytest.mark.parametrize("theta", ["pi/2", "3pi/4", "2pi/3", "1.25", "3/2"])
def test_angle_spellings_accepted(capsys, theta):
    code, _, _ = run(capsys, ["segment", "--theta", theta])
    assert code == EXIT_OK


def test_verify_battery_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--samples", "6"])
    assert code == EXIT_OK
    for test_id in VERIFY_IDS:
        assert test_id in out
    assert f"verify: {len(VERIFY_IDS)} pass, 0 fail, 0 indeterminate" in out


def test_verify_is_seed_stable(capsys):
    _, first, _ = run(capsys, ["verify", "--samples", "4", "--rng-seed", "7"])
    _, again, _ = run(capsys, ["verify", "--samples", "4", "--rng-seed", "7"])
    assert first == again


def test_help_exits_clean(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == EXIT_OK
    assert "compute" in out and "verify" in out
