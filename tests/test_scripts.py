"""Smoke tests: the scripts under scripts/ run against the library as it is."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("lau_isometry_sweep.py", ["--fixtures", "2", "--samples", "2"]),
    ("run_verify.py", ["--count", "1", "--max-dim", "4", "--out", "{tmp}"]),
    ("solver_stress.py", ["--count", "5", "--seed", "1"]),
    ("ab_bench.py", ["--base", "{root}", "--change", "{root}", "--workload", "verify_small",
                     "--seed", "0", "--seconds", "0.2", "--pairs", "1"]),
])
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [a.format(tmp=tmp_path, root=ROOT) for a in args]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
