"""The circulus benchmark: three workloads, checked outputs, named metrics.

    python3 perfbench/run.py --workload {ladder-deep,sweep-96,cli-mix} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 it measures the end-to-end metrics, with --trace 1 the
per-layer ones (BENCHMARK.json lists both).  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics; the line
before it starts with "report " and records the environment, the sample
counts, every failure and the contract probes.  Run it from any directory:
it measures the sources under ../src relative to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import oracle
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9  # set-up measurements per run; the median is reported
TRACE_SWEEP_LISTS = 3  # a traced run does fixed work, so its call counts repeat exactly
TIMEOUT_S = 170
FORMATS = ("plain", "csv", "json")


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    report: dict = field(default_factory=dict)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{what}: {'; '.join(problems)}")


@dataclass(frozen=True)
class CliOp:
    argv: tuple[str, ...]
    check: Callable  # CompletedProcess -> list of problems

    def __str__(self) -> str:
        return " ".join(self.argv)


# -- inputs --------------------------------------------------------------------


def ladder_deep_ops(rng: random.Random) -> list[CliOp]:
    """One invocation per format, in seeded order, each with a seeded seed polygon."""
    formats = list(FORMATS)
    rng.shuffle(formats)
    ops = []
    for fmt in formats:
        sides = rng.choice((3, 4, 6))
        ops.append(CliOp(
            ("ladder", "--doublings", "20", "--digits", "1000", "--seed", str(sides),
             "--format", fmt),
            partial(oracle.check_ladder, fmt=fmt, sides=sides, doublings=20, digits=1000)))
    return ops


def cli_mix_ops(rng: random.Random) -> list[CliOp]:
    """All seven commands at 8 to 500 digits, in mixed formats."""
    ops = []
    for digits in (12, 300, 500):
        fmt = rng.choice(("csv", "json"))  # the formats that print correct_digits
        ops.append(CliOp(
            ("compute", "--method", "combined", "--seed", "30", "--digits", str(digits),
             "--format", fmt),
            partial(oracle.check_compute, fmt=fmt, method="combined", sides=30,
                    doublings=4, digits=digits)))
    sides = rng.choice((3, 4, 6))
    ops.append(CliOp(("ladder", "--seed", str(sides), "--format", "csv"),
                     partial(oracle.check_ladder, fmt="csv", sides=sides, doublings=4, digits=10)))
    method, fmt = rng.choice(sorted(oracle.ORDER)), rng.choice(FORMATS)
    ops.append(CliOp(("order", "--method", method, "--format", fmt),
                     partial(oracle.check_order, fmt=fmt, method=method, sides=6,
                             doublings=8, digits=10)))
    theta, fmt = rng.choice(("pi/3", "pi/2", "2pi/3", "3pi/4", "5pi/6")), rng.choice(FORMATS)
    ops.append(CliOp(("barycenter", "--theta", theta, "--digits", "8", "--format", fmt),
                     partial(oracle.check_barycenter, fmt=fmt, theta=theta, digits=8)))
    theta, fmt = f"{rng.randint(500, 3100) / 1000:.3f}", rng.choice(FORMATS)
    ops.append(CliOp(("barycenter", "--theta", theta, "--samples", "2048", "--format", fmt),
                     partial(oracle.check_barycenter, fmt=fmt, theta=theta, digits=10)))
    for theta, digits in (("pi/2", 500), ("pi", 20), ("0.001", 20)):
        fmt = rng.choice(FORMATS)
        ops.append(CliOp(
            ("segment", "--theta", theta, "--digits", str(digits), "--format", fmt),
            partial(oracle.check_segment, fmt=fmt, theta=theta, digits=digits)))
    # appendix-f's cost swings with x's denominator and range; thousandths
    # coprime to 10 in (0.4, 0.5) keep it steady across seeds
    x, fmt = f"0.{rng.choice([k for k in range(401, 500) if k % 2 and k % 5])}", rng.choice(FORMATS)
    ops.append(CliOp(("appendix-f", "--x", x, "--digits", "400", "--format", fmt),
                     partial(oracle.check_appendix_f, fmt=fmt, x=x, digits=400)))
    ops.append(CliOp(("verify", "--rng-seed", str(rng.randrange(1 << 30))), oracle.check_verify))
    return ops


def contract_probes() -> list[CliOp]:
    """Known breaks of the --digits contract; attempted every cli-mix run, never timed."""
    return [
        CliOp(("compute", "--method", "combined", "--seed", "30", "--doublings", "4",
               "--digits", "600", "--format", "csv"),
              partial(oracle.or_indeterminate, partial(
                  oracle.check_compute, fmt="csv", method="combined", sides=30,
                  doublings=4, digits=600))),
        CliOp(("segment", "--theta", "pi/2", "--digits", "700", "--format", "csv"),
              partial(oracle.or_indeterminate, partial(
                  oracle.check_segment, fmt="csv", theta="pi/2", digits=700))),
        CliOp(("compute", "--method", "huygens-final-lower", "--doublings", "40",
               "--digits", "4", "--format", "csv"),
              partial(oracle.or_indeterminate, partial(
                  oracle.check_compute, fmt="csv", method="huygens-final-lower", sides=6,
                  doublings=40, digits=4))),
    ]


# -- processes -------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("CIRCULUS_PRECISION_BITS", None)  # it overrides the working precision
    # cache bytecode as an installed package would, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def invoke(argv, traced: bool = False):
    """(wall seconds, CompletedProcess, trace summary or None) of one cold CLI run."""
    entry = [str(HERE / "tracer.py")] if traced else ["-m", "circulus.cli"]
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *entry, *argv], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        proc = subprocess.CompletedProcess(exc.cmd, -9, "", f"timed out after {TIMEOUT_S} s")
    wall = time.perf_counter() - start
    summary = None
    if traced:
        kept = []
        for line in proc.stderr.splitlines(keepends=True):
            if line.startswith(tracer.MARKER):
                summary = json.loads(line[len(tracer.MARKER):])
            else:
                kept.append(line)
        proc.stderr = "".join(kept)
    return wall, proc, summary


class SetupTimer:
    """Walls of fresh interpreters running the workload's set-up, taken at
    even steps of the run's timed work so that one slow phase of a shared
    machine cannot decide their median."""

    def __init__(self, code: list[str], seconds: int):
        self.code, self.step, self.walls = code, seconds / SETUP_REPEATS, []

    def due(self, timed: float) -> None:
        if len(self.walls) < SETUP_REPEATS and timed >= len(self.walls) * self.step:
            self._measure()

    def median(self) -> float:
        while len(self.walls) < SETUP_REPEATS:
            self._measure()
        return statistics.median(self.walls)

    def _measure(self) -> None:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *self.code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
        self.walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-400:]}")


def percentiles(values: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


# -- CLI workloads -----------------------------------------------------------------


def run_cli(ops: list[CliOp], seconds: int, trace: bool, probes: list[CliOp]) -> Outcome:
    out = Outcome()
    if trace:
        traced_cli(ops, out)
    else:
        timed_cli(ops, seconds, out)
    probe_rows = []
    for op in probes:
        _, proc, _ = invoke(op.argv)
        problems = op.check(proc)
        probe_rows.append({"argv": str(op), "exit": proc.returncode, "problems": problems})
    out.report["probes"] = probe_rows
    report_fail_ratio(out, trace, [f"probe {p['argv']}: {'; '.join(p['problems'])}"
                                   for p in probe_rows if p["problems"]], len(probes))
    return out


def report_fail_ratio(out: Outcome, trace: bool, probe_failures: list[str],
                      probes: int) -> None:
    """Failed over attempted ops, contract probes included."""
    failed, attempted = out.failed + len(probe_failures), out.attempted + probes
    out.report["fail_ratio"] = {"failed": failed, "attempted": attempted,
                                "failures": out.failures + probe_failures}
    if trace:
        out.metrics["fail_ratio"] = (failed / attempted, "ratio")


def timed_cli(ops: list[CliOp], seconds: int, out: Outcome) -> None:
    """Closed loop, one client: cycle through the op list, at least once, until
    the next op would end past `seconds` of timed work."""
    setup = SetupTimer(["-c", "import circulus.cli"], seconds)
    samples = [[] for _ in ops]
    timed, i = 0.0, 0
    while i < len(ops) or timed + samples[i % len(ops)][-1] <= seconds:
        setup.due(timed)
        op = ops[i % len(ops)]
        wall, proc, _ = invoke(op.argv)
        samples[i % len(ops)].append(wall)
        timed += wall
        out.record(str(op), op.check(proc))
        i += 1
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    per_op = [statistics.median(s) for s in samples]
    p50, p90 = percentiles(per_op)
    out.metrics.update({
        "setup_s": (setup.median(), "s"),
        "wall_s": (sum(per_op), "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    })
    out.report["samples"] = {
        "invocations": i, "timed_s": timed, "runs_per_op": [len(s) for s in samples],
        "op_median_ms": [round(v * 1e3, 1) for v in per_op],
        "percentile_basis": f"median latency of each of the {len(ops)} ops in the list",
    }


def traced_cli(ops: list[CliOp], out: Outcome) -> None:
    """The op list once untraced, then once traced; stdout must not change."""
    plain = []
    start = time.perf_counter()
    for op in ops:
        plain.append(invoke(op.argv))
    untraced_wall = time.perf_counter() - start
    traced = []
    start = time.perf_counter()
    for op in ops:
        traced.append(invoke(op.argv, traced=True))
    traced_wall = time.perf_counter() - start
    summaries = []
    for op, (_, proc, _), (_, tproc, summary) in zip(ops, plain, traced):
        out.record(str(op), op.check(proc))
        problems = op.check(tproc)
        if summary is None:
            problems.append("traced run wrote no trace summary")
        else:
            summaries.append(summary)
        if (tproc.stdout, tproc.returncode) != (proc.stdout, proc.returncode):
            problems.append("tracing changed the output or exit code")
        out.record(f"traced {op}", problems)
    child_walls = sum(wall for wall, _, _ in traced)
    total = tracer.merge(summaries)
    out.metrics.update(layer_metrics(
        total, process=(len(ops), child_walls - total["root_s"]),
        traced_wall=traced_wall, untraced_wall=untraced_wall,
        unattributed=traced_wall - child_walls))
    out.report["absent_names"] = total["absent"]


# -- sweep-96 ------------------------------------------------------------------------


def run_sweep(seed: int, seconds: int, trace: bool) -> Outcome:
    import sweep  # imports circulus, so only after load_circulus()

    out = Outcome()
    rng = random.Random(seed)
    sweep.warm_up()
    if trace:
        lists = [sweep.op_list(rng) for _ in range(TRACE_SWEEP_LISTS)]
        untraced_wall = sum(sweep_list(ops, out)[0] for ops in lists)
        probe = tracer.Tracer()
        probe.install()
        traced_wall = sum(sweep_list(ops, out)[0] for ops in lists)
        total = probe.summary()
        out.metrics.update(layer_metrics(
            total, process=(0, 0.0), traced_wall=traced_wall, untraced_wall=untraced_wall,
            unattributed=traced_wall - total["root_s"]))
        out.report["absent_names"] = total["absent"]
    else:
        # per-list percentiles, then medians over lists: a slow phase of the
        # machine then shifts a minority of lists instead of the whole tail
        setup = SetupTimer([str(HERE / "sweep.py")], seconds)
        walls, p50s, p90s, beyond = [], [], [], []
        while not walls or sum(walls) + walls[-1] <= seconds:
            setup.due(sum(walls))
            wall, lat = sweep_list(sweep.op_list(rng), out)
            p50, p90 = percentiles(lat)
            walls.append(wall)
            p50s.append(p50)
            p90s.append(p90)
            beyond.append(sum(1 for v in lat if v > p90))
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.metrics.update({
            "setup_s": (setup.median(), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "op_p50_ms": (statistics.median(p50s) * 1e3, "ms"),
            "op_p90_ms": (statistics.median(p90s) * 1e3, "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        })
        out.report["samples"] = {
            "lists": len(walls), "timed_s": sum(walls),
            "arc_ops_per_list": sweep.ARCS_PER_LIST, "min_arc_ops_beyond_p90": min(beyond),
        }
    report_fail_ratio(out, trace, [], 0)
    return out


def sweep_list(ops, out: Outcome) -> tuple[float, list[float]]:
    """Time one op list, then check every result against the oracle."""
    import sweep

    clock = time.perf_counter
    results, arc_lat = [], []
    start = clock()
    for kind, arg in ops:
        t0 = clock()
        try:
            result = sweep.OPS[kind](arg)
        except Exception as exc:  # a failed op is counted, and the sweep goes on
            result = exc
        if kind == "arc":
            arc_lat.append(clock() - t0)
        results.append(result)
    wall = clock() - start
    checks = {"arc": oracle.check_arc, "segment": oracle.check_segment_op,
              "oracle": oracle.check_oracle_op}
    with oracle.Reference(sweep.P96.bits) as ref:
        for (kind, arg), result in zip(ops, results):
            if isinstance(result, Exception):
                problems = [f"raised {result!r}"]
            else:
                problems = checks[kind](ref, arg, result)
            out.record(f"{kind}({arg})", problems)
    return wall, arc_lat


# -- metrics and report ------------------------------------------------------------------


def layer_metrics(total: dict, process: tuple[int, float], traced_wall: float,
                  untraced_wall: float, unattributed: float) -> dict:
    m = {}
    for name, (calls, secs) in total["layers"].items():
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.self_s"] = (secs, "s")
    m["process.calls"] = (process[0], "count")
    m["process.self_s"] = (process[1], "s")
    for band, (calls, secs) in total["bands"].items():
        m[f"exact.ring.us_per_call.{band}"] = (secs / calls * 1e6 if calls else 0.0, "us")
    m["exact.pi.max_bits"] = (total["pi_max_bits"], "bits")
    m["exact.correct_digits.self_s"] = (total["correct_digits_s"], "s")
    verdicts, indeterminate = total["verdicts"]
    m["verdict.indeterminate_ratio"] = (indeterminate / verdicts if verdicts else 0.0, "ratio")
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.unattributed_s"] = (unattributed, "s")
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1, "ratio")
    return m


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def conform(metrics: dict, spec: list[dict]) -> None:
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    declared = {m["name"]: m["unit"] for m in spec}
    printed = {name: unit for name, (_, unit) in metrics.items()}
    if declared != printed:
        raise BenchError(f"metrics {sorted(printed.items())} differ from BENCHMARK.json "
                         f"{sorted(declared.items())}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "circulus" / "__init__.py").is_file():
            raise BenchError(f"no circulus sources under {SRC}")
        load_circulus()
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
        conform(outcome.metrics, spec["per_layer" if args.trace else "end_to_end"])
    except (BenchError, tracer.SelfCheckError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), **outcome.report}
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:34} {value:>16.6f} {unit}", file=sys.stderr)
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


def load_circulus() -> None:
    """Import circulus from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import circulus

    if Path(circulus.__file__).resolve().parent != SRC / "circulus":
        raise BenchError(f"circulus imported from {circulus.__file__}, not from {SRC}")


def ladder_deep(seed: int, seconds: int, trace: bool) -> Outcome:
    return run_cli(ladder_deep_ops(random.Random(seed)), seconds, trace, [])


def cli_mix(seed: int, seconds: int, trace: bool) -> Outcome:
    return run_cli(cli_mix_ops(random.Random(seed)), seconds, trace, contract_probes())


WORKLOADS = {"ladder-deep": ladder_deep, "sweep-96": run_sweep, "cli-mix": cli_mix}

if __name__ == "__main__":
    sys.exit(main())
