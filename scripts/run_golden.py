#!/usr/bin/env python3
"""Run every analysis over the golden programs and print a verdict table.

Each cell is the exit code of ``gcq.cli.main`` run in this process, so a
toolchain that fails to import stops the script instead of reading as a
verdict.
"""

import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "golden"
sys.path.insert(0, str(ROOT / "src"))

from gcq import cli  # noqa: E402

CASES = [
    ("sensors_all.gcq", []),
    ("sensors_23.gcq", []),
    ("sensors_typed.gcq", []),
    ("sensors_any_all.gcq", ["--lax-select"]),
    ("sensors_blocking.gcq", ["--lax-select"]),
    ("linearity_race.gcq", []),
]


def run(cmd, name, extra):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([cmd, str(GOLDEN / name), *extra])


def main():
    print(f"{'program':24} {'check':>6} {'run':>6} {'cosim':>6} {'avail':>6}")
    for name, extra in CASES:
        row = [name.removesuffix('.gcq')]
        for cmd in ("check", "run-global", "cosim", "availability"):
            code = run(cmd, name, extra)
            row.append({0: "pass", 1: "reject", 2: "error", 3: "budget"}[code])
        print(f"{row[0]:24} {row[1]:>6} {row[2]:>6} {row[3]:>6} {row[4]:>6}")


if __name__ == "__main__":
    main()
