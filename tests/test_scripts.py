"""The scripts under tests/ that pytest does not collect still run.

rss_probe.py runs one cell end to end; precision_parity.py, workers_gate.py
and update_golden.py take minutes, so they are only imported with paired.py,
which checks every name they import from the package and from perfbench.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="the probe reads /proc/self/status")
def test_rss_probe_runs_a_cell():
    done = run([str(ROOT / "tests" / "rss_probe.py"), "--seed", "3"])
    assert done.returncode == 0, done.stderr[-2000:]
    assert "baseline" in done.stdout, done.stdout[-2000:]


def test_gate_scripts_import():
    done = run(["-c", "import paired, precision_parity, workers_gate, update_golden"])
    assert done.returncode == 0, done.stderr[-2000:]
