"""Command-line entry point.

Commands: ``check`` (capability + session + linearity), ``run-global``,
``project``, ``run-net``, ``cosim``, ``availability``.  Exit codes: 0 for
a pass, 1 for an analysis rejection or counterexample, 2 for usage or I/O
errors, 3 for an inconclusive result (budget exhausted).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import correspond, netsem, projection, schedule
from .captypes import check_capabilities
from .epq import Component, Network, Queue, parse_proc, print_proc
from .gtypes import GammaEnv, check_session_only
from .parser import ParseError, parse
from .projection import check_linearity, epp
from .semantics import MAX_STEPS, Configuration, run
from .syntax import free_names

EXIT_PASS = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _color(text: str, code: str) -> str:
    mode = os.environ.get("QC_COLOR", "auto")
    use = mode not in ("0", "never", "off") and (
        mode in ("1", "always") or sys.stdout.isatty())
    return f"\x1b[{code}m{text}\x1b[0m" if use else text


def _ok(flag: bool) -> str:
    return _color("ok", "32") if flag else _color("FAIL", "31")


def _load_program(path: str, lax: bool):
    text = Path(path).read_text(encoding="utf-8")
    return parse(text, lax_select=lax)


def _oracle_from_args(args, threads):
    """The ``--schedule`` oracle; it may name only ``threads``, the free ones."""
    if args.schedule:
        data = json.loads(Path(args.schedule).read_text(encoding="utf-8"))
        return schedule.load_schedule(data, threads)
    return schedule.ALWAYS


def _analyses(prog):
    """The capability, session and linearity reports of a program."""
    return (check_capabilities([], prog.chor),
            check_session_only(GammaEnv(prog.services), prog.chor, {}),
            check_linearity(prog.chor))


def _trace_exit(trace) -> int:
    if trace.verdict == "Completed":
        return EXIT_PASS
    return EXIT_REJECT if trace.verdict == "Stuck" else EXIT_INCONCLUSIVE


def cmd_check(args) -> int:
    prog = _load_program(args.input, args.lax_select)
    caps, sess, lin = _analyses(prog)
    ok = caps.ok and sess.ok and lin.ok
    if args.json:
        print(json.dumps({"ok": ok, "capabilities": caps.to_json(),
                          "session": sess.to_json(), "linearity": lin.to_json()},
                         sort_keys=True))
    else:
        print(f"capabilities: {_ok(caps.ok)}")
        print(f"session:      {_ok(sess.ok)}")
        print(f"linearity:    {_ok(lin.ok)}")
        if not ok:
            for rep in (caps, sess, lin):
                for f in rep.failures:
                    print(f"  [{f.code}] {f.interaction}: {f.reason}")
    return EXIT_PASS if ok else EXIT_REJECT


def cmd_run_global(args) -> int:
    prog = _load_program(args.input, args.lax_select)
    conf = Configuration.initial(prog.chor)
    trace = run(conf, oracle=_oracle_from_args(args, free_names(prog.chor).threads),
                policy=args.seed, max_steps=args.bound)
    print(trace.to_jsonl())
    return _trace_exit(trace)


def cmd_project(args) -> int:
    prog = _load_program(args.input, args.lax_select)
    net = epp(prog.chor)
    manifest = {"program": args.input, "threads": [], "services": [],
                "queues": [q.key for q in net.queues],
                "restricted": sorted(net.restricted)}
    files = {}
    for comp in net.components:
        if comp.owner:
            name = f"{comp.owner}.epq"
            manifest["threads"].append({"thread": comp.owner, "file": name})
        elif comp.service:
            svc, role = comp.service
            name = f"service_{svc}_{role}.epq"
            group = projection.service_merge(prog.chor, svc, role)
            manifest["services"].append({"service": svc, "role": role, "file": name,
                                         "merged_from": sorted(group)})
        else:
            name = f"anon_{len(files)}.epq"
            manifest["threads"].append({"thread": None, "file": name})
        files[name] = print_proc(comp.proc) + "\n"
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        for name, body in files.items():
            (outdir / name).write_text(body, encoding="utf-8")
        (outdir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(json.dumps({"written": str(outdir), **manifest}, sort_keys=True))
    else:
        print(json.dumps(manifest, indent=2, sort_keys=True))
        for name, body in files.items():
            print(f"// --- {name}")
            print(body)
    return EXIT_PASS


def _network_from_manifest(path: Path) -> Network:
    manifest = json.loads(path.read_text(encoding="utf-8"))

    def proc(entry):
        file = path.parent / entry["file"]
        try:
            return parse_proc(file.read_text(encoding="utf-8"))
        except ParseError as exc:
            exc.path = str(file)
            raise

    components = [Component(proc(entry), owner=entry.get("thread"))
                  for entry in manifest.get("threads", [])]
    components += [Component(proc(entry), owner=None, service=(entry["service"], entry["role"]))
                   for entry in manifest.get("services", [])]
    queues = tuple(Queue(k, ()) for k in manifest.get("queues", []))
    return Network(tuple(components), queues, frozenset(manifest.get("restricted", [])))


def cmd_run_net(args) -> int:
    path = Path(args.input)
    if path.name.endswith(".json"):
        net = _network_from_manifest(path)
    else:
        prog = _load_program(args.input, args.lax_select)
        net = epp(prog.chor)
    threads = frozenset(comp.owner for comp in net.components if comp.owner)
    trace = netsem.net_run(net, oracle=_oracle_from_args(args, threads), policy=args.seed,
                           max_steps=args.bound)
    print(trace.to_jsonl())
    return _trace_exit(trace)


def _junit_xml(name: str, verdict) -> str:
    ok = verdict.passed
    failure = ""
    if not ok:
        failure = (f'\n    <failure message="{verdict.status}">'
                   f"{verdict.detail}</failure>")
    return (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        f'<testsuite name="gcq.{name}" tests="1" failures="{0 if ok else 1}">\n'
        f'  <testcase name="{name}">{failure}</testcase>\n'
        "</testsuite>\n")


def cmd_cosim(args) -> int:
    prog = _load_program(args.input, args.lax_select)
    if not all(report.ok for report in _analyses(prog)):
        verdict = correspond.Verdict("PreconditionFailed",
                                     "the program is not well-typed and linear")
    else:
        verdict = correspond.cosimulate(prog.chor, bound=args.bound)
    print(json.dumps(verdict.to_json(), sort_keys=True))
    if args.xml:
        Path(args.xml).write_text(_junit_xml("cosim", verdict), encoding="utf-8")
    return _verdict_exit(verdict)


def _verdict_exit(verdict) -> int:
    if verdict.passed:
        return EXIT_PASS
    return EXIT_INCONCLUSIVE if verdict.status == "BudgetExceeded" else EXIT_REJECT


def cmd_availability(args) -> int:
    prog = _load_program(args.input, args.lax_select)
    threads = free_names(prog.chor).threads
    oracles = ([_oracle_from_args(args, threads)] if args.schedule
               else [schedule.ALWAYS, *map(schedule.TolerantFailure, sorted(threads))])
    verdict = correspond.availability_check(prog.chor, oracles, bound=args.bound)
    print(json.dumps(verdict.to_json(), sort_keys=True))
    return _verdict_exit(verdict)


def _bound(text: str) -> int:
    """A ``--bound``: a number of steps or a search depth, so not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It names each command
    but binds no handler: ``main`` looks ``cmd_<command>`` up when it runs."""
    ap = argparse.ArgumentParser(
        prog="gcq",
        description="Check, run, project and co-simulate failure-aware choreographies.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *, runs=False, search=False, schedule=False):
        p.add_argument("input", help="input .gcq program")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--explain", action="store_true", help="traceback of an internal error")
        p.add_argument("--lax-select", action="store_true",
                       help="accept selections with quality predicates other than 'all'")
        if runs:
            p.add_argument("--seed", type=int, default=None, help="policy seed for runs")
            p.add_argument("--bound", type=_bound, default=MAX_STEPS, help="step budget")
        if search:
            p.add_argument("--bound", type=_bound, help="search depth (default: the longest run)")
        if schedule:
            p.add_argument("--schedule", help="availability schedule JSON file")

    p = sub.add_parser("check", help="capability, session and linearity analyses")
    common(p)
    p = sub.add_parser("run-global", help="run the choreography semantics")
    common(p, runs=True, schedule=True)
    p = sub.add_parser("project", help="emit per-thread endpoint processes")
    common(p)
    p.add_argument("-o", "--out", help="output directory for .epq files and manifest")
    p = sub.add_parser("run-net", help="run the projected network (or a manifest.json)")
    common(p, runs=True, schedule=True)
    p = sub.add_parser("cosim", help="co-simulate the projection against the source")
    common(p, search=True)
    p.add_argument("--xml", help="write a JUnit-style XML report")
    p = sub.add_parser("availability", help="search for stuck reachable networks")
    common(p, search=True, schedule=True)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ParseError as exc:
        lo, hi = exc.span
        print(f"{exc.path or args.input}:{lo}-{hi}: syntax error: {exc}", file=sys.stderr)
        return EXIT_REJECT
    except (OSError, ValueError) as exc:  # an unreadable or malformed input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a fault of gcq itself, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.explain:
            import traceback  # loaded only on this path, to keep start-up lean
            traceback.print_exc()
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
