"""Per-layer tracing for the verdict benchmark.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``gcq`` module that holds it by name (``net_canon`` is bound in
``epq``, ``netsem``, ``correspond`` and ``projection``; ``prunes`` calls
itself through its module global), and ``Tracer.uninstall`` puts the
originals back.  For each function it records calls, inclusive time
(outermost calls only, so recursion is not counted twice), self time
(inclusive minus the nested traced calls) and a few counts taken from the
results.  Everything stays in memory until ``take`` hands it over.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter

# metric prefix -> (module, attribute); "Class.method" patches the class
TIMED = {
    "net_canon": ("gcq.epq", "net_canon"),
    "net_enabled": ("gcq.netsem", "net_enabled"),
    "fire_labels": ("gcq.correspond", "fire_labels"),
    "cosim": ("gcq.correspond", "cosimulate"),
    "avail": ("gcq.correspond", "availability_check"),
    "epp": ("gcq.projection", "epp"),
    "prunes": ("gcq.projection", "prunes"),
    "linearity": ("gcq.projection", "check_linearity"),
    "enabled": ("gcq.semantics", "enabled"),
    "caps": ("gcq.captypes", "check_capabilities"),
    "prover": ("gcq.linlog", "Prover.prove"),
    "parse": ("gcq.parser", "parse"),
    "session": ("gcq.gtypes", "check_session_only"),
    "gen": ("gcq.genchor", "corpus"),
}
# counted only: one entry per proof-search node, too many to time
COUNTED = {"prover_nodes": ("gcq.linlog", "Prover._search")}


class Tracer:
    def __init__(self):
        self.stats = {name: Counter() for name in [*TIMED, *COUNTED]}
        self._stack: list[list[float]] = []   # child time of each open call
        self._depth = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- patching

    def install(self) -> None:
        for name, (module, attr) in TIMED.items():
            self._patch(module, attr, self._timed(name, self._lookup(module, attr)))
        for name, (module, attr) in COUNTED.items():
            self._patch(module, attr, self._counted(name, self._lookup(module, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    @staticmethod
    def _lookup(module: str, attr: str):
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        return obj

    def _patch(self, module: str, attr: str, wrapper) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(importlib.import_module(module), cls_name)
            self._undo.append((owner, meth, owner.__dict__[meth]))
            setattr(owner, meth, wrapper)
            return
        original = wrapper.__wrapped__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gcq" and not mod_name.startswith("gcq."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    # -- wrappers

    def _timed(self, name: str, fn):
        stats, stack, depth = self.stats[name], self._stack, self._depth
        avail = self.stats["avail"]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                depth[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += dt - child[0]
                if not depth[name]:
                    stats["incl_s"] += dt
                if stack:
                    stack[-1][0] += dt
            if name == "net_enabled":
                stats["succ"] += len(result)
                if depth["avail"]:
                    avail["succ"] += len(result)
            elif name == "fire_labels":
                stats["nets"] += len(result)
            elif name == "prunes":
                stats["true"] += bool(result)
            elif name in ("cosim", "avail"):
                stats["states"] += result.pairs_explored
            return result

        return wrapper

    def _counted(self, name: str, fn):
        stats = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results

    def take(self) -> dict[str, dict[str, float]]:
        """Return what was recorded since the last call, and start afresh."""
        snap = {name: dict(c) for name, c in self.stats.items() if c}
        for c in self.stats.values():
            c.clear()
        return snap


def unit(metric_name: str) -> str:
    if metric_name.endswith(".ms"):
        return "ms"
    if metric_name.endswith("_ratio"):
        return "ratio"
    if metric_name.endswith("_per_s"):
        return "1/s"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(snap: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one round of verdicts."""

    def get(name, key):
        return snap.get(name, {}).get(key, 0)

    out = {}
    for name in ("net_canon", "net_enabled", "fire_labels", "epp", "prunes",
                 "enabled", "parse"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.ms"] = get(name, "incl_s") * 1e3
    for name in ("cosim", "avail", "linearity", "caps", "prover", "session"):
        out[f"{name}.ms"] = get(name, "incl_s") * 1e3
    out["net_enabled.succ"] = get("net_enabled", "succ")
    out["fire_labels.nets"] = get("fire_labels", "nets")
    out["cosim.pairs"] = get("cosim", "states")
    out["avail.states"] = get("avail", "states")
    out["avail.new_ratio"] = _ratio(get("avail", "states"), get("avail", "succ"))
    out["search.states_per_s"] = _ratio(get("cosim", "states") + get("avail", "states"),
                                        get("cosim", "incl_s") + get("avail", "incl_s"))
    out["prunes.true_ratio"] = _ratio(get("prunes", "true"), get("prunes", "calls"))
    out["prover.calls"] = get("prover", "calls")
    out["prover.nodes"] = get("prover_nodes", "calls")
    return out


def layer_metrics(rounds: list[dict], setups: list[dict]) -> dict[str, float]:
    """Median over rounds of each round metric; ``gen.ms`` is a set-up cost."""
    per_round = [round_metrics(s) for s in rounds]
    out = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    out["gen.ms"] = statistics.median(s.get("gen", {}).get("incl_s", 0) * 1e3 for s in setups)
    return out
