#!/usr/bin/env python3
"""Print the ``--json`` verdicts of ``gcq check | cosim | availability``
and the ``project`` output of the golden programs.

    python3 scripts/verdict_dump.py > after.txt
    python3 scripts/verdict_dump.py --src ../base/src > before.txt
    diff before.txt after.txt

Inputs: the golden programs, the fixed seed-23 corpus and the n-sensor
family of the verdict benchmark (all three commands each), the
capability-check twins of the benchmark, and the any/any and blocking twins
at n = 2..8, whose reports list many failures in enumeration order
(``check`` only).  Each golden program also runs ``availability --schedule``
under a crash of t1 at step 5, a Bernoulli oracle and a three-entry script,
each where its free threads include every thread the schedule names, since
naming another is a usage error; and each golden, corpus and n-sensor
program runs ``run-global --seed 1``, whose trace shows the names the global
semantics creates and substitutes, and ``run-net --seed 1``, whose trace
follows the successor that ``netsem.net_enabled`` keeps for each endpoint
step.  Each golden program also runs ``project``, which prints the manifest
and the ``.epq`` text of every process, so a change to the text format shows
here.  The texts come from ``perfbench/inputs.py``.  Each line is ``name
command exit-code output``, with the output written as a JSON string, so
that a moved line break shows.  Every input is named relative to the working
directory, which is a fresh temporary one, so the manifest's ``program``
field is the bare file name.  The output depends on nothing but the sources,
so two runs under different ``PYTHONHASHSEED`` values must print the same
bytes.

``--src`` names the ``gcq`` source tree to import (default: this
checkout's ``src``), so one script and one set of inputs can run against
two versions of the toolchain.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = ("check", "cosim", "availability")
TRACE_RUNS = [("run-global", None), ("run-net", None)]
SCHEDULES = {
    "crash5": {"mode": "crash", "thread": "t1", "from_step": 5},
    "bernoulli": {"mode": "bernoulli", "p": 0.8, "seed": 1},
    "script3": {"mode": "script", "steps": [{"unavailable": ["t1"]}, {"available": ["t2", "t3"]},
                                            {"unavailable": ["t3"]}]},
}


def named_threads(schedule) -> set:
    """The threads a schedule names."""
    if "thread" in schedule:
        return {schedule["thread"]}
    return {t for step in schedule.get("steps", []) for names in step.values() for t in names}


def programs(inputs):
    """(name, text, flags, runs) for every input, in a fixed order; a run is
    a command and the name of a schedule, or None."""
    from gcq.parser import parse
    from gcq.syntax import free_names

    runs = [(c, None) for c in COMMANDS]
    for name, (lax, _) in inputs.GOLDEN_MATRIX.items():
        text = (ROOT / "golden" / f"{name}.gcq").read_text(encoding="utf-8")
        threads = free_names(parse(text, lax_select=lax).chor).threads
        scheduled = [("availability", s) for s, data in SCHEDULES.items()
                     if named_threads(data) <= threads]
        yield (name, text, ("--lax-select",) if lax else (),
               runs + scheduled + TRACE_RUNS + [("project", None)])
    for item in sorted(inputs.corpus_items(0), key=lambda it: it.name):
        yield item.name, item.text, (), runs + TRACE_RUNS
    for item in inputs.sensor_family_items(1):
        flags = next((s.flags for s in item.steps if s.flags), ())
        yield item.name, item.text, flags, runs + TRACE_RUNS
    for item in inputs.check_family_items(1, ROOT / "golden")[len(inputs.GOLDEN_MATRIX):]:
        yield f"check_{item.name}", item.text, item.steps[0].flags, [("check", None)]
    for n in range(2, 9):
        readings, over = list(range(1, n + 1)), [i for i in range(1, n + 1) if i != 2]
        for name, text in ((f"any_any{n}", inputs.sensor_text(n, "any", "any", readings, "avg")),
                           (f"blocking{n}", inputs.sensor_text(n, "any", "any", readings, "avg",
                                                               reduce_over=over))):
            yield f"check_sensors_{name}", text, ("--lax-select",), [("check", None)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Print the verdicts of gcq on fixed inputs.")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the source tree holding the gcq package to import")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import inputs
    from gcq import cli

    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, data in SCHEDULES.items():
                Path(f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
            for name, text, flags, runs in programs(inputs):
                Path(f"{name}.gcq").write_text(text, encoding="utf-8")
                for command, sched in runs:
                    options = ["--schedule", f"{sched}.json"] if sched else []
                    label = f"{command} --schedule {sched}" if sched else command
                    if command in ("run-global", "run-net"):
                        options, label = ["--seed", "1"], f"{command} --seed 1"
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main([command, f"{name}.gcq", *options, *flags, "--json"])
                    print(name, label, code, json.dumps(out.getvalue(), ensure_ascii=False))
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
