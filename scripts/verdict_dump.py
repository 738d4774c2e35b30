#!/usr/bin/env python3
"""Print the ``--json`` verdicts of ``gcq check | cosim | availability``.

    python3 scripts/verdict_dump.py > before.txt
    ... change the toolchain ...
    python3 scripts/verdict_dump.py > after.txt && diff before.txt after.txt

Inputs: the golden programs, the fixed seed-23 corpus and the n-sensor
family of the verdict benchmark (all three commands each), and the
capability-check twins of the benchmark (``check`` only).  The texts come
from ``perfbench/inputs.py``.  Each line is ``name command exit-code json``;
the output depends on nothing but the sources, so two runs under different
``PYTHONHASHSEED`` values must print the same bytes.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402
from gcq import cli  # noqa: E402

COMMANDS = ("check", "cosim", "availability")


def programs():
    """(name, text, flags, commands) for every input, in a fixed order."""
    for name, (lax, _) in inputs.GOLDEN_MATRIX.items():
        text = (ROOT / "golden" / f"{name}.gcq").read_text(encoding="utf-8")
        yield name, text, ("--lax-select",) if lax else (), COMMANDS
    for item in sorted(inputs.corpus_items(0), key=lambda it: it.name):
        yield item.name, item.text, (), COMMANDS
    for item in inputs.sensor_family_items(1):
        flags = next((s.flags for s in item.steps if s.flags), ())
        yield item.name, item.text, flags, COMMANDS
    for item in inputs.check_family_items(1, ROOT / "golden")[len(inputs.GOLDEN_MATRIX):]:
        yield f"check_{item.name}", item.text, item.steps[0].flags, ("check",)


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for name, text, flags, commands in programs():
            path = Path(work) / f"{name}.gcq"
            path.write_text(text, encoding="utf-8")
            for command in commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main([command, str(path), *flags, "--json"])
                print(name, command, code, out.getvalue().strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
