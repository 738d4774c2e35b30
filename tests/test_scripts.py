"""The helper scripts run from a plain checkout, without ``PYTHONPATH``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)


@pytest.mark.parametrize("name,args", [
    ("cosim_corpus.py", ("--count", "3")),
    ("failure_sweep.py", ()),
    ("run_golden.py", ()),
    ("verdict_dump.py", ()),
])
def test_script_runs_without_pythonpath(name, args):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.strip()
    if name == "run_golden.py":
        row = next(line for line in proc.stdout.splitlines() if line.startswith("sensors_all "))
        assert row.split()[1:] == ["pass"] * 4
