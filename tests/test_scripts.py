"""The helper scripts run from a plain checkout, without ``PYTHONPATH``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)


@pytest.mark.parametrize("name", ["failure_sweep.py", "verdict_dump.py"])
def test_script_runs_without_pythonpath(name):
    proc = run_script(name)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.strip()
