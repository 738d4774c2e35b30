"""Availability oracles: schedules, random failure models, honoring failures.

Every oracle answers one question: may ``thread``, in ``role``, take part
in a synchronization of ``session`` at ``step``, on a message of
``quality`` over ``roles``?  It also states ``settles_at``, the step from
which its answers stop changing (``None`` if they never do).  Script
oracles follow a step-indexed list (the last entry persists), Bernoulli
oracles flip a seeded coin per step and thread, the crash-stop oracle
withholds one thread from a given step on, and the tolerant single-failure
oracle withholds one thread only where the quality predicate can still be
satisfied without it, so it never strands a communication.
"""

from __future__ import annotations

import json
import random
from typing import Optional, Protocol

from .syntax import Quality, Role, term, tolerates_absence


class AvailabilityOracle(Protocol):
    settles_at: Optional[int]  # answers at later steps equal those at this one

    def allows(self, step: int, session: str, thread: str, role: Role, quality: Quality,
               roles: frozenset[Role]) -> bool:
        """Whether the participant may take part in this synchronization."""


class AlwaysAvailable:
    settles_at = 0

    def allows(self, step, session, thread, role, quality, roles):
        return True

    def __repr__(self):
        return "AlwaysAvailable()"


ALWAYS = AlwaysAvailable()


@term
class ScriptOracle:
    """Step-indexed availability script; the last entry applies forever.

    Each entry names either the available or the unavailable threads.
    """

    steps: tuple[tuple[str, frozenset[str]], ...]  # ("available"|"unavailable", threads)

    @property
    def settles_at(self) -> int:
        return max(len(self.steps) - 1, 0)

    def allows(self, step, session, thread, role, quality, roles):
        if not self.steps:
            return True
        mode, threads = self.steps[min(step, len(self.steps) - 1)]
        return (thread in threads) == (mode == "available")


@term
class BernoulliOracle:
    p: float
    seed: int
    settles_at = None

    def allows(self, step, session, thread, role, quality, roles):
        return random.Random(f"{self.seed}:{step}:{thread}").random() < self.p


@term
class SingleFailure:
    """Withhold one thread from every synchronization from a step onward."""

    thread: str
    from_step: int = 0

    @property
    def settles_at(self) -> int:
        return self.from_step

    def allows(self, step, session, thread, role, quality, roles):
        return thread != self.thread or step < self.from_step


@term
class TolerantFailure:
    """Withhold one thread only where the pending message tolerates it.

    The withheld synchronization is skipped exactly when the message's
    quality predicate can still be rendered true by the other participants,
    so the oracle honours q-satisfiability by construction.
    """

    thread: str
    settles_at = 0

    def allows(self, step, session, thread, role, quality, roles):
        return thread != self.thread or not tolerates_absence(quality, roles, role)


# the JSON type of each schedule field, as its error names it, and of a list's items
_NAMES = (list, "a list of thread names", str)
_FIELDS = {"steps": (list, "a list of JSON objects", dict), "available": _NAMES,
           "unavailable": _NAMES, "p": ((int, float), "a number"), "seed": (int, "an integer"),
           "thread": (str, "a thread name"), "from_step": (int, "an integer")}


def _field(data: dict, name: str, default=None):
    """``data[name]``, or ``default`` if absent, of its type in :data:`_FIELDS`."""
    kind, noun, *items = _FIELDS[name]
    if isinstance(value := data.get(name, default), bool) or not isinstance(value, kind) \
            or items and not all(isinstance(item, items[0]) for item in value):
        raise ValueError(f"schedule field {name!r} must be {noun}: {value!r}")
    return value


def load_schedule(data) -> AvailabilityOracle:
    """Oracle from its JSON description (a dict or a JSON string)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"a schedule must be a JSON object: {data!r}")
    mode = data.get("mode")
    if mode == "script":
        steps = []
        for entry in _field(data, "steps", []):
            which = "available" if "available" in entry else "unavailable"
            steps.append((which, frozenset(_field(entry, which))))
        return ScriptOracle(tuple(steps))
    if mode == "bernoulli":
        if not 0 <= (p := _field(data, "p")) <= 1:
            raise ValueError(f"bernoulli schedule needs a probability 'p' in [0, 1]: {p}")
        return BernoulliOracle(float(p), _field(data, "seed", 0))
    if mode == "crash":
        return SingleFailure(_field(data, "thread"), _field(data, "from_step", 0))
    raise ValueError(f"unknown schedule mode {mode!r}")
