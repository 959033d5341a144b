"""The benchmark's tracer must see every traced function and change no output.

perfbench/tracer.py rebinds public functions in module dicts, lists and
tuples only, and its self-check fails the run when some other container
still holds an original.  A dispatch table that hides a public function
from it therefore breaks the traced run; this test catches that.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARGS = ["compute", "--method", "combined", "--seed", "30", "--doublings", "2", "--digits", "20"]
MARKER = "perfbench-trace "


def _run(*command: str) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    env.pop("CIRCULUS_PRECISION_BITS", None)
    return subprocess.run(
        [sys.executable, *command], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_traced_run_matches_untraced_run() -> None:
    traced = _run(str(ROOT / "perfbench" / "tracer.py"), *ARGS)
    plain = _run("-m", "circulus.cli", *ARGS)
    assert traced.returncode == 0, traced.stderr
    assert plain.returncode == 0, plain.stderr
    assert traced.stdout == plain.stdout
    summaries = [line for line in traced.stderr.splitlines() if line.startswith(MARKER)]
    assert len(summaries) == 1, traced.stderr
