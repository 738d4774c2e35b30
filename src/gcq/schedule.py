"""Availability oracles: schedules, random failure models, honoring failures.

An oracle answers which threads may take part in a synchronization at a
given step.  Script oracles follow a step-indexed list (the last entry
persists), Bernoulli oracles flip a seeded coin per step and thread, the
crash-stop oracle withholds one thread from a given step on, and
the tolerant single-failure oracle withholds one thread only from messages
whose quality predicate can still be satisfied without it, so it never
strands a communication.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

from .syntax import Quality, tolerates_absence


@dataclass(frozen=True)
class ScriptOracle:
    """Step-indexed availability script; the last entry applies forever.

    Each entry names either the available or the unavailable threads.
    """

    steps: tuple[tuple[str, frozenset[str]], ...]  # ("available"|"unavailable", threads)

    def available(self, step, session, candidates):
        if not self.steps:
            return frozenset(candidates)
        mode, threads = self.steps[min(step, len(self.steps) - 1)]
        if mode == "available":
            return frozenset(candidates) & threads
        return frozenset(candidates) - threads


@dataclass(frozen=True)
class BernoulliOracle:
    p: float
    seed: int

    def available(self, step, session, candidates):
        out = set()
        for t in sorted(candidates):
            rng = random.Random(f"{self.seed}:{step}:{t}")
            if rng.random() < self.p:
                out.add(t)
        return frozenset(out)


@dataclass(frozen=True)
class SingleFailure:
    """Withhold one thread from every synchronization from a step onward."""

    thread: str
    from_step: int = 0

    def available(self, step, session, candidates):
        if step >= self.from_step:
            return frozenset(candidates) - {self.thread}
        return frozenset(candidates)


@dataclass(frozen=True)
class TolerantFailure:
    """Withhold one thread only where the pending message tolerates it.

    The withheld synchronization is skipped exactly when the message's
    quality predicate can still be rendered true by the other participants,
    so the oracle honours q-satisfiability by construction.
    """

    thread: str

    def available(self, step, session, candidates):
        return frozenset(candidates)

    def withhold_msg(self, quality: Quality, roles: tuple[str, ...], flags: tuple[bool, ...],
                     role: str, owner: Optional[str]) -> bool:
        return owner == self.thread and tolerates_absence(quality, roles, role)


def load_schedule(data) -> object:
    """Oracle from its JSON description (a dict or a JSON string)."""
    if isinstance(data, str):
        data = json.loads(data)
    mode = data.get("mode")
    if mode == "script":
        steps = []
        for entry in data.get("steps", []):
            if "available" in entry:
                steps.append(("available", frozenset(entry["available"])))
            elif "unavailable" in entry:
                steps.append(("unavailable", frozenset(entry["unavailable"])))
            else:
                raise ValueError(f"script step needs 'available' or 'unavailable': {entry}")
        return ScriptOracle(tuple(steps))
    if mode == "bernoulli":
        return BernoulliOracle(float(data["p"]), int(data.get("seed", 0)))
    if mode == "crash":
        if "thread" not in data:
            raise ValueError(f"crash schedule needs a 'thread': {data}")
        return SingleFailure(str(data["thread"]), int(data.get("from_step", 0)))
    raise ValueError(f"unknown schedule mode {mode!r}")
