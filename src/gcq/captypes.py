"""Progress-enforcing capability analysis.

A judgment ``Psi |- C`` reads: the formulas in ``Psi`` describe the program
point immediately before ``C``.  Session starts extend the context with one
ownership formula per participant; each collective interaction must, for
every subset of participants that satisfies its quality predicate, derive
the required capability atoms from the context, and its continuation must
remain typable under the offered capabilities.  A checked choreography can
therefore never paint itself into a corner, no matter which tolerated
subset of participants shows up.

The report names, for each interaction and each context it is reached
in, the first failing subset in the order of ``quality_subsets``, without
duplicates.  ``tests/capability_reference.py`` finds it by deriving every
subset's goal, ``CapabilityChecker._check_comm`` in one pass per context by
three exact rules: only subsets of the threads that hold their ``req`` atom
are enumerated; a continuation that does not name the session is checked
under one subset; and once the verdict is ``False``, the enumeration stops
when the continuation can report nothing new.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import linlog
from .linlog import Context, Formula, Own, TrueF, TRUE
from .syntax import (
    ArityMismatch,
    Bcast,
    Choreography,
    End,
    If,
    Init,
    Interaction,
    Reduce,
    Select,
    Seq,
    comm_parts,
    free_names,
    least_count,
    subterms,
    term,
)

MAX_PARTICIPANTS = 16


@term
class Failure:
    code: str          # CapabilityUnderivable | FreshnessViolation | QualityArity | ...
    interaction: str   # printable description of the offending construct
    reason: str
    subset: Optional[tuple[str, ...]] = None

    def to_json(self) -> dict:
        out = {"code": self.code, "interaction": self.interaction, "reason": self.reason}
        if self.subset is not None:
            out["subset"] = list(self.subset)
        return out


@dataclass
class Report:
    ok: bool
    failures: list[Failure] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": [f.to_json() for f in self.failures]}


def describe_interaction(eta: Interaction) -> str:
    match eta:
        case Init(actives, services, svc, key):
            acts = ",".join(p.thread for p in actives)
            srvs = ",".join(p.thread for p in services)
            return f"start {key}({svc})({acts})->({srvs})"
        case Bcast(sender, _, receivers, quality, key):
            rs = ",".join(p.thread for p, _ in receivers)
            return f"bcast {key}[{quality}] {sender.thread}->({rs})"
        case Reduce(senders, receiver, _, quality, op, key):
            ss = ",".join(p.thread for p, _ in senders)
            return f"reduce {key}[{quality}] {op}({ss})->{receiver.thread}"
        case Select(sender, receivers, quality, key, label):
            rs = ",".join(p.thread for p in receivers)
            return f"select {key}[{quality}] {sender.thread}->({rs}):{label}"
    return repr(eta)


def init_ownerships(eta: Init) -> list[Own]:
    """Ownership formulas a session start contributes, actives first."""
    return [Own(p.thread, eta.key, p.role, p.off) for p in eta.actives + eta.services]


def listed_twice(eta: Interaction) -> list[str]:
    """``thread t`` and ``role r`` for each thread and role that a
    collective communication lists more than once."""
    principal, candidates, _, _ = comm_parts(eta)
    threads = [p.thread for p in (principal, *candidates)]
    roles = [p.role for p in (principal, *candidates)]
    if len(set(threads)) == len(threads) and len(set(roles)) == len(roles):
        return []
    return [f"{what} {name}" for what, names in (("thread", threads), ("role", roles))
            for name in sorted(set(names)) if names.count(name) > 1]


class _Comm:
    """What ``_check_comm`` reads of one ``Seq(eta, cont)``, computed once:
    the failure that rejects ``eta`` in every context, if any; the
    candidates' threads in sorted order and the least count; the
    principal's and their ``req`` atoms, and their ``off`` atoms as ``cont``
    sees them; and whether ``cont`` names the session."""

    def __init__(self, c: Seq):
        self.eta, self._failures, self.static = c.inter, {}, None
        principal, candidates, quality, key = comm_parts(self.eta)
        twice = listed_twice(self.eta)
        try:
            self.least = least_count(quality, len(candidates))
        except ArityMismatch as exc:
            self.least, arity = 0, str(exc)
        if len(candidates) > MAX_PARTICIPANTS:
            self.static = self.failure("TooManyParticipants", f"{len(candidates)} participants "
                                       f"exceed the bound {MAX_PARTICIPANTS}")
        elif twice:
            self.static = self.failure("DuplicateParticipant", f"listed twice: {', '.join(twice)}")
        elif not self.least:
            self.static = self.failure("QualityArity", arity)
        self.live = free_names(c.cont).sessions
        self.single = key not in self.live
        parts = (principal, *sorted(candidates, key=lambda p: p.thread))
        self.threads = tuple(p.thread for p in parts[1:])
        self.preq, *self.reqs = (Own(p.thread, key, p.role, p.req) for p in parts)
        self.poff, *self.offs = (_finished(Own(p.thread, key, p.role, p.off), self.live)
                                 for p in parts)

    def failure(self, code: str, reason: str, subset=None) -> Failure:
        return Failure(code, describe_interaction(self.eta), reason, subset)

    def underivable(self, chosen: tuple[int, ...]) -> Failure:
        """The failure of the candidates at the indices ``chosen``."""
        if chosen not in self._failures:
            goal = linlog.tensor_all([self.preq, *(self.reqs[i] for i in chosen)])
            self._failures[chosen] = self.failure(
                "CapabilityUnderivable", f"cannot derive {goal} from the context",
                tuple(self.threads[i] for i in chosen))
        return self._failures[chosen]

    def reach(self) -> set[Failure]:
        """Every failure the interaction can report, in any context."""
        return {self.static} if self.static else {self.underivable((*range(self.least - 1), i))
                                                  for i in range(self.least - 1, len(self.threads))}


def _finished(f: Formula, live: frozenset) -> Formula:
    """``f``, without capabilities if it is an atom of a session not in ``live``."""
    if isinstance(f, Own) and f.caps and f.session not in live:
        return Own(f.thread, f.session, f.role, frozenset())
    return f


class CapabilityChecker:
    """Decides ``Psi |- C`` and reports, for each interaction, the first
    failing subset once per reachable context (see ``_check_comm``)."""

    def __init__(self):
        self.failures: list[Failure] = []
        self._reported: set[Failure] = set()
        self._memo: dict = {}
        self._comms: dict = {}  # id of a Seq node -> its _Comm
        self._reach: dict = {}  # id of a continuation -> the failures it can report, or None

    def check(self, psi: Context, c: Choreography) -> bool:
        for f in psi:
            if not isinstance(f, (Own, TrueF)):
                raise ValueError(f"typing context must hold ownership atoms and true only: {f}")
        return self._check(tuple(psi), c)

    def _check(self, psi: Context, c: Choreography) -> bool:
        key = (linlog.multiset(psi), id(c))
        if key not in self._memo:
            self._memo[key] = self._check_raw(psi, c)
        return self._memo[key]

    def _check_raw(self, psi: Context, c: Choreography) -> bool:
        match c:
            case End():
                return True
            case If(_, _, then, orelse):
                return self._check(psi, then) & self._check(psi, orelse)
            case Seq(inter, cont):
                if isinstance(inter, Init):
                    return self._check_init(psi, inter, cont)
                return self._check_comm(psi, c)
        raise TypeError(f"not a choreography: {c!r}")

    def _report(self, failure: Failure) -> None:
        if failure not in self._reported:  # reached again along another path
            self._reported.add(failure)
            self.failures.append(failure)

    def _check_init(self, psi: Context, eta: Init, cont: Choreography) -> bool:
        clash = {p.thread for p in eta.services} & linlog.context_threads(psi)
        reasons = [f"service threads already owned: {sorted(clash)}"] if clash else []
        if eta.key in linlog.context_keys(psi):
            reasons.append(f"session key {eta.key!r} already in use")
        for reason in reasons:
            self._report(Failure("FreshnessViolation", describe_interaction(eta), reason))
        return self._check(psi + tuple(init_ownerships(eta)), cont) and not reasons

    def _comm(self, c: Seq) -> _Comm:
        return self._comms.get(id(c)) or self._comms.setdefault(id(c), _Comm(c))

    def _check_comm(self, psi: Context, c: Seq) -> bool:
        """Every tolerated subset derives its goal, and the continuation
        checks under the context each subset leaves.  The report gets the
        first failing subset in enumeration order, after the continuation
        failures of the subsets before it, unless it is reported already.

        1. Only subsets of the good threads (those holding their ``req``
           atom) are enumerated.  The first failing subset is the first
           ``least`` candidates if the principal or one of them is bad,
           else the first ``least - 1`` and the least bad one.
        2. The continuation sees no capabilities of a session it does not
           name.  No derivation in it could consume them, ``End`` accepts
           any leftover, and a start's freshness checks read only threads
           and keys.  So if it does not name this session, every subset
           leaves it the same context, and only the first is checked.
        3. Once the verdict is ``False``, the enumeration stops when every
           failure the continuation can report is reported.  A start's
           freshness failures read the context, so a continuation that
           holds a start has no such set (``_saturated``).
        """
        comm = self._comm(c)
        if comm.static:
            self._report(comm.static)
            return False
        first: dict = {}  # each atom of psi -> its first index
        for i, f in enumerate(psi):
            first.setdefault(f, i)
        good = [i for i, a in enumerate(comm.reqs) if a in first] if comm.preq in first else []
        bad, least = next((i for i, g in enumerate(good) if g != i), len(good)), comm.least
        failing = None if bad == len(comm.threads) else \
            tuple(range(least)) if bad < least else (*range(least - 1), bad)
        ok, seen = failing is None, -1  # seen: len(self.failures) at the last saturation test
        base = [_finished(f, comm.live) for f in psi] if good else ()
        subsets = (chosen for k in range(least, len(good) + 1)
                   for chosen in itertools.combinations(good, k))
        for chosen in itertools.islice(subsets, 1) if comm.single else subsets:
            if failing and (len(chosen), chosen) > (len(failing), failing):
                self._report(comm.underivable(failing))
                failing = None
            if not ok and len(self.failures) != seen:
                seen = len(self.failures)
                if self._saturated(c.cont):
                    break
            taken = {first[comm.preq], *(first[comm.reqs[i]] for i in chosen)}
            ctx = (comm.poff, *(comm.offs[i] for i in chosen),
                   *(f for i, f in enumerate(base) if i not in taken))
            ok &= self._check(ctx, c.cont)
        if failing:
            self._report(comm.underivable(failing))
        return ok

    def _saturated(self, cont: Choreography) -> bool:
        """Whether every failure ``cont`` can report is reported; never if
        ``cont`` starts a session."""
        if id(cont) not in self._reach:
            nodes = [n for n in subterms(cont) if isinstance(n, Seq)]
            self._reach[id(cont)] = None if any(isinstance(n.inter, Init) for n in nodes) else \
                set().union(*(self._comm(n).reach() for n in nodes))
        reach = self._reach[id(cont)]
        return reach is not None and reach <= self._reported


def check_capabilities(psi: Iterable[Formula], c: Choreography) -> Report:
    """Run the capability analysis from an initial context (default: true)."""
    checker = CapabilityChecker()
    ctx = tuple(psi)
    ok = checker.check(ctx if ctx else (TRUE,), c)
    return Report(ok, checker.failures)
