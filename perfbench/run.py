#!/usr/bin/env python3
"""Time to a gcq verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``corpus``, ``sensor_family``, ``check_family``.
Each run is one single-threaded process.  It imports ``gcq`` from the
checkout's ``src``, builds its inputs from ``--seed`` and writes them as
``.gcq`` texts, then repeats whole rounds of verdicts until ``--seconds``
have passed.  Each verdict goes through ``gcq.cli.main`` exactly as a
``gcq check | cosim | availability`` command line would; mutation checks,
which have no command, go through ``gcq.correspond``.  Every verdict is
compared with the answer derived in ``inputs.py``.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the traced functions of
``tracing.py`` are wrapped and the per-layer metrics are reported instead.
Results and traces are written under ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("corpus", "sensor_family", "check_family")
SETUP_REPEATS = 5
CLI_KINDS = ("check", "cosim", "availability")
MUTANT_ARG = {"drop_receiver": "t2", "swap_select_label": "calibrate"}


def import_gcq():
    """Import the toolchain from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    if not (src / "gcq" / "cli.py").is_file():
        sys.exit(f"error: no gcq sources under {src}")
    sys.path.insert(0, str(src))
    import gcq
    if Path(gcq.__file__).resolve().parent != src / "gcq":
        sys.exit(f"error: imported gcq from {gcq.__file__}, not from {src}")


def prepare(workload: str, seed: int, work: Path):
    """Build the inputs and write their texts."""
    import inputs

    if workload == "corpus":
        items = inputs.corpus_items(seed)
    elif workload == "sensor_family":
        items = inputs.sensor_family_items(seed)
    else:
        items = inputs.check_family_items(seed, ROOT / "golden")
    work.mkdir(parents=True, exist_ok=True)
    for item in items:
        (work / f"{item.name}.gcq").write_text(item.text, encoding="utf-8")
    return items


def run_step(step, path: Path, text: str) -> tuple[int, str]:
    """One verdict; returns the exit code and the output."""
    from gcq import cli, correspond, parser, projection

    if step.kind in CLI_KINDS:
        argv = [step.kind, str(path), *step.flags] + (["--json"] if step.kind == "check" else [])
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    chor = parser.parse(text).chor
    mutate = getattr(correspond, step.kind)
    verdict = correspond.cosimulate(chor, net=mutate(projection.epp(chor), MUTANT_ARG[step.kind]))
    return (0 if verdict.passed else 1), json.dumps(verdict.to_json())


def wrong_answer(step, code: int, out: str):
    """Why the verdict differs from the expected answer, or None."""
    from inputs import ANALYSES

    data = json.loads(out.strip().splitlines()[-1])
    if step.kind == "check":
        failing = {a for a in ANALYSES if not data[a]["ok"]}
        if failing != step.failing:
            return f"failing analyses {sorted(failing)}, expected {sorted(step.failing)}"
        codes = {f["code"] for a in failing for f in data[a]["failures"]}
        if step.code is not None and codes != {step.code}:
            return f"failure codes {sorted(codes)}, expected {step.code}"
        want_code = 1 if step.failing else 0
    else:
        if data["status"] != step.status:
            return f"status {data['status']}, expected {step.status}: {data['detail']}"
        if step.pairs is not None and data["pairs_explored"] != step.pairs:
            return f"pairs_explored {data['pairs_explored']}, expected {step.pairs}"
        want_code = 0 if step.status == "Pass" else 1
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    return None


def run_round(items, work: Path, tally: Counter, problems: list):
    """Every verdict once; returns per-item seconds and seconds per command."""
    item_s = []
    kind_s = Counter()
    for item in items:
        path = work / f"{item.name}.gcq"
        spent = 0.0
        for step in item.steps:
            tally["attempted"] += 1
            t0 = time.perf_counter()
            try:
                code, out = run_step(step, path, item.text)
            except Exception as exc:  # a verdict that crashed is a failed operation
                tally["failed"] += 1
                problems.append(f"{item.name} {step.kind}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            spent += dt
            kind_s[step.kind] += dt
            if code == 2:
                tally["failed"] += 1
                problems.append(f"{item.name} {step.kind}: usage or internal error: {out!r}")
                continue
            why = wrong_answer(step, code, out)
            if why:
                problems.append(f"{item.name} {step.kind}: {why}")
        item_s.append(spent)
    return item_s, kind_s


def tail(values: list[float]):
    """The highest whole percentile with at least ten values above it."""
    n = len(values)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_gcq()
    import inputs
    import tracing
    from gcq import cli, correspond, parser, projection  # noqa: F401 (import cost is set-up)
    from gcq.syntax import alpha_equal
    import_s = time.perf_counter() - _T0

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_times, setup_snaps = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            items = prepare(args.workload, args.seed, work)
            setup_times.append(time.perf_counter() - t0)
            if tracer:
                setup_snaps.append(tracer.take())
        setup_s = import_s + statistics.median(setup_times)

        problems: list[str] = []
        for item in items:
            if item.term is not None and not alpha_equal(parser.parse(item.text).chor, item.term):
                problems.append(f"{item.name}: printed text does not parse back to the term")
        if tracer:
            tracer.take()

        tally = Counter(attempted=0, failed=0)
        rounds, kinds, snaps = [], [], []
        deadline = time.perf_counter() + args.seconds
        while True:
            item_s, kind_s = run_round(items, work, tally, problems)
            rounds.append(item_s)
            kinds.append(kind_s)
            if tracer:
                snaps.append(tracer.take())
            if time.perf_counter() >= deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    wall_s = statistics.median(sum(r) for r in rounds)
    per_item_ms = [statistics.median(r[i] for r in rounds) * 1e3 for i in range(len(items))]
    if tracer:
        layers = tracing.layer_metrics(snaps, setup_snaps)
        metrics = {k: metric(v, tracing.unit(k)) for k, v in layers.items()}
        metrics["traced.wall_s"] = metric(wall_s, "s")
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "verdict_ms.p50": metric(statistics.median(per_item_ms), "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    info = {"rounds": len(rounds), "inputs": len(items)}
    for kind in ("cosim", "availability"):
        if any(k[kind] for k in kinds):
            info[f"{kind}_s"] = statistics.median(k[kind] for k in kinds)
    t = tail(per_item_ms)
    if t:
        info["verdict_ms.tail"] = {"percentile": f"p{t[0]}", "value": t[1],
                                   "inputs": len(per_item_ms)}
    for line in problems[:20]:
        print(f"WRONG: {line}")
    print(f"{args.workload}: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    result = {"correct": not problems, "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(
        json.dumps({**result, "info": info, "problems": problems,
                    "verdict_ms": dict(zip((it.name for it in items), per_item_ms))},
                   indent=1) + "\n",
        encoding="utf-8")
    if tracer:
        (OUT / f"trace-{name}.json").write_text(
            json.dumps({"setup": setup_snaps, "rounds": snaps}) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
