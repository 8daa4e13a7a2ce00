"""Smoke tests: the scripts under scripts/ run against the library as it is."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    pytest.param("solver_stress.py", ["--count", "5", "--seed", "1"], id="solver-stress"),
    pytest.param("ab_bench.py", ["--base", "{root}", "--change", "{root}",
                                 "--workload", "verify_small", "--seed", "0",
                                 "--seconds", "0.2", "--pairs", "1"],
                 id="ab-bench-verify-small"),
    # bse_dim16 builds its own CharacterSet and reads BseVerdict.characters
    pytest.param("ab_bench.py", ["--base", "{root}", "--change", "{root}",
                                 "--workload", "bse_dim16", "--seed", "0",
                                 "--seconds", "0.2", "--pairs", "1"],
                 id="ab-bench-bse-dim16"),
    pytest.param("record_hash.py", ["--seeds", "0,1", "--count", "1", "--max-dim", "3"],
                 id="record-hash"),
])
def test_script_runs(script, args):
    run_script(script, [a.format(root=ROOT) for a in args])


def run_script(script, argv, **env_vars):
    """stdout of a script under scripts/, run on this tree's src with env_vars
    added to the environment; it must exit 0."""
    env = {**os.environ, **env_vars}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_record_hash_keeps_the_verdicts():
    # the verdicts of the 672 records of seeds 0 and 97 (count 8, max_dim 6);
    # the full hash also covers the residuals, whose last bits may move
    out = run_script("record_hash.py", ["--seeds", "0,97", "--count", "8", "--max-dim", "6"])
    lines = out.splitlines()
    assert "records 672" in lines
    assert ("verdict 8e1a7ff48e1969f4d48f0d9492f0fe5c270f9d4f6b7deafcdcc870e2bcfc0e63"
            in lines)


def test_record_hash_is_the_same_on_two_blas_threads():
    # the residuals' last bits depend on the BLAS thread count, which the
    # script pins to 1; at this small configuration the full hash differed
    # between one and two threads before it did
    argv = ["--seeds", "0", "--count", "1", "--max-dim", "3"]
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    outs = [run_script("record_hash.py", argv, **dict.fromkeys(blas, threads))
            for threads in ("1", "2")]
    assert outs[0] == outs[1]


def load_script(name):
    """A script under scripts/ as a module, without running its main."""
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASE = [10.0 + 0.1 * k for k in range(10)]  # median 10.45, interquartile range 0.45


@pytest.mark.parametrize("pairs, better, expected", [
    pytest.param(list(zip(BASE, [b + 1 for b in BASE])), "higher", "gain", id="gain-higher"),
    pytest.param(list(zip(BASE, [b - 1 for b in BASE])), "lower", "gain", id="gain-lower"),
    # nine pairs are too few, however clear
    pytest.param(list(zip(BASE[:9], [b + 1 for b in BASE[:9]])), "higher", "-", id="9-pairs"),
    # 9 wins and a tie is 9 in 10; 8 wins and two ties is not
    pytest.param(list(zip(BASE, [b + 1 for b in BASE[:9]] + [BASE[9]])), "higher", "gain",
                 id="9-wins-1-tie"),
    pytest.param(list(zip(BASE, [b + 1 for b in BASE[:8]] + BASE[8:])), "higher", "-",
                 id="8-wins-2-ties"),
    # every pair won, but the medians differ by less than the base's spread
    pytest.param(list(zip(BASE, [b + 0.4 for b in BASE])), "higher", "-", id="inside-iqr"),
    # lower is better, bound 0.25 of the base median 10.45
    pytest.param(list(zip(BASE, [b * 1.26 for b in BASE])), "lower", "worse", id="worse-lower"),
    pytest.param(list(zip(BASE, [b * 1.24 for b in BASE])), "lower", "-", id="inside-bound"),
    pytest.param(list(zip(BASE, [b * 0.74 for b in BASE])), "higher", "worse", id="worse-higher"),
])
def test_ab_bench_verdict_is_the_acceptance_rule(pairs, better, expected):
    assert load_script("ab_bench.py").verdict(pairs, better, 0.25) == expected
