"""Progress-enforcing capability analysis.

A judgment ``Psi |- C`` reads: the formulas in ``Psi`` describe the program
point immediately before ``C``.  Session starts extend the context with one
ownership formula per participant; each collective interaction must, for
every subset of participants that satisfies its quality predicate, derive
the required capability atoms from the context by linear-logic provability,
and its continuation must remain typable under the offered capabilities.
A checked choreography can therefore never paint itself into a corner, no
matter which tolerated subset of participants shows up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import linlog
from .linlog import Context, Formula, Lolli, Own, Plus, Tensor, TrueF, TRUE
from .syntax import (
    AnnotatedThread,
    ArityMismatch,
    Bcast,
    CapState,
    Choreography,
    End,
    If,
    Init,
    Interaction,
    New,
    Reduce,
    Select,
    Seq,
    free_names,
    quality_subsets,
)

MAX_PARTICIPANTS = 16


@dataclass(frozen=True)
class Failure:
    code: str          # NoSatisfyingSubset | CapabilityUnderivable | FreshnessViolation | ...
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

    def merge(self, other: "Report") -> "Report":
        return Report(self.ok and other.ok, self.failures + other.failures)


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


def ownership(p: AnnotatedThread, key: str, required: bool) -> Own:
    return Own(p.thread, key, p.role, p.req if required else p.off)


def init_ownerships(eta: Init) -> list[Own]:
    """Ownership formulas a session start contributes, actives first."""
    return [Own(p.thread, eta.key, p.role, p.off) for p in eta.actives + eta.services]


def _comm_parts(eta: Interaction):
    """Principal annotated thread and candidate (annotated thread) tuple."""
    match eta:
        case Bcast(sender, _, receivers, quality, key):
            return sender, tuple(p for p, _ in receivers), quality, key
        case Reduce(senders, receiver, _, quality, _, key):
            return receiver, tuple(p for p, _ in senders), quality, key
        case Select(sender, receivers, quality, key, _):
            return sender, tuple(receivers), quality, key
    raise TypeError(f"not a collective communication: {eta!r}")


def listed_twice(eta: Interaction) -> list[str]:
    """``thread t`` and ``role r`` for each thread and role that a
    collective communication lists more than once."""
    principal, candidates, _, _ = _comm_parts(eta)
    threads = [p.thread for p in (principal, *candidates)]
    roles = [p.role for p in (principal, *candidates)]
    if len(set(threads)) == len(threads) and len(set(roles)) == len(roles):
        return []
    return [f"{what} {name}" for what, names in (("thread", threads), ("role", roles))
            for name in sorted(set(names)) if names.count(name) > 1]


def capability_goal(principal: AnnotatedThread, chosen: Iterable[AnnotatedThread], key: str) -> Formula:
    parts = [ownership(principal, key, required=True)]
    parts += [ownership(p, key, required=True) for p in sorted(chosen, key=lambda p: p.thread)]
    return linlog.tensor_all(parts)


def updated_context(principal: AnnotatedThread, chosen: Iterable[AnnotatedThread],
                    key: str, leftover: Context) -> Context:
    offered = [ownership(principal, key, required=False)]
    offered += [ownership(p, key, required=False) for p in sorted(chosen, key=lambda p: p.thread)]
    return tuple(offered) + leftover


class CapabilityChecker:
    """Decides ``Psi |- C`` and reports the first failure per interaction."""

    def __init__(self):
        self.failures: list[Failure] = []
        self._memo: dict = {}
        self._sessions: dict = {}  # id of a continuation -> its free session keys

    def check(self, psi: Context, c: Choreography) -> bool:
        for f in psi:
            if not isinstance(f, (Own, TrueF)):
                raise ValueError(f"typing context must hold ownership atoms and true only: {f}")
        return self._check(tuple(psi), c)

    def _check(self, psi: Context, c: Choreography) -> bool:
        key = (linlog.multiset(psi), id(c))
        if key in self._memo:
            return self._memo[key]
        ok = self._check_raw(psi, c)
        self._memo[key] = ok
        return ok

    def _check_raw(self, psi: Context, c: Choreography) -> bool:
        match c:
            case End():
                return True
            case New(_, _, body):
                return self._check(psi, body)
            case If(_, _, then, orelse):
                ok1 = self._check(psi, then)
                ok2 = self._check(psi, orelse)
                return ok1 and ok2
            case Seq(inter, cont):
                if isinstance(inter, Init):
                    return self._check_init(psi, inter, cont)
                return self._check_comm(psi, inter, cont)
        raise TypeError(f"not a choreography: {c!r}")

    def _fail(self, code: str, eta: Interaction, reason: str, subset=None) -> None:
        failure = Failure(code, describe_interaction(eta), reason,
                          tuple(sorted(subset)) if subset is not None else None)
        if failure not in self.failures:  # reached again along another path
            self.failures.append(failure)

    def _check_init(self, psi: Context, eta: Init, cont: Choreography) -> bool:
        ok = True
        ctx_threads = linlog.context_threads(psi)
        clash = {p.thread for p in eta.services} & ctx_threads
        if clash:
            self._fail("FreshnessViolation", eta,
                       f"service threads already owned: {sorted(clash)}")
            ok = False
        if eta.key in linlog.context_keys(psi):
            self._fail("FreshnessViolation", eta, f"session key {eta.key!r} already in use")
            ok = False
        extended = psi + tuple(init_ownerships(eta))
        return self._check(extended, cont) and ok

    def _check_comm(self, psi: Context, eta: Interaction, cont: Choreography) -> bool:
        """Every tolerated subset derives its goal, and the continuation
        checks under the context each subset leaves.

        Before the continuation is checked, every ownership atom of a
        session the continuation does not name loses its capabilities.
        That changes no verdict: the continuation's goals are atoms of the
        sessions it names, so no derivation in it consumes such an atom;
        ``End`` accepts any leftover; and the freshness checks of later
        starts read only an atom's thread and key, which stay.  Contexts
        that differed only in a finished session then coincide, and the
        memo checks the continuation once instead of once per subset.
        """
        principal, candidates, quality, key = _comm_parts(eta)
        if len(candidates) > MAX_PARTICIPANTS:
            self._fail("TooManyParticipants", eta,
                       f"{len(candidates)} participants exceed the bound {MAX_PARTICIPANTS}")
            return False
        twice = listed_twice(eta)
        if twice:
            self._fail("DuplicateParticipant", eta, f"listed twice: {', '.join(twice)}")
            return False
        by_thread = {p.thread: p for p in candidates}
        try:
            subsets = quality_subsets(quality, tuple(p.thread for p in candidates))
        except ArityMismatch as exc:
            self._fail("QualityArity", eta, str(exc))
            return False
        if not subsets:
            self._fail("NoSatisfyingSubset", eta, "no subset satisfies the quality predicate")
            return False
        ok = True
        reported = False
        for chosen_threads in subsets:
            chosen = [by_thread[t] for t in sorted(chosen_threads)]
            leftover = self._derive(psi, principal, chosen, key)
            if leftover is None:
                ok = False
                if not reported:
                    goal = capability_goal(principal, chosen, key)
                    self._fail("CapabilityUnderivable", eta,
                               f"cannot derive {goal} from the context", subset=chosen_threads)
                    reported = True
                continue
            ctx = updated_context(principal, chosen, key, leftover)
            if not self._check(self._without_finished(ctx, cont), cont):
                ok = False
        return ok

    def _without_finished(self, ctx: Context, cont: Choreography) -> Context:
        """``ctx`` with empty capabilities on the atoms of every session that
        ``cont`` does not name (see ``_check_comm``)."""
        live = self._sessions.get(id(cont))
        if live is None:
            live = self._sessions[id(cont)] = free_names(cont).sessions
        return tuple(Own(f.thread, f.session, f.role, frozenset())
                     if isinstance(f, Own) and f.caps and f.session not in live else f
                     for f in ctx)

    def _derive(self, psi: Context, principal, chosen, key) -> Optional[Context]:
        """The context left after deriving the capability goal, or None.

        ``check`` admits ownership atoms and ``true`` only, and the rules
        add nothing else, so derivability is multiset inclusion of the
        goal's exact atoms (``linlog.Prover`` agrees); one matching atom
        per participant is taken, first match first.
        """
        need = [ownership(principal, key, required=True)]
        need += [ownership(p, key, required=True) for p in chosen]
        taken: list[int] = []
        for atom in need:
            idx = next((i for i, f in enumerate(psi) if f == atom and i not in taken), None)
            if idx is None:
                return None
            taken.append(idx)
        return tuple(f for i, f in enumerate(psi) if i not in taken)


def check_capabilities(psi: Iterable[Formula], c: Choreography) -> Report:
    """Run the capability analysis from an initial context (default: true)."""
    checker = CapabilityChecker()
    ctx = tuple(psi)
    ok = checker.check(ctx if ctx else (TRUE,), c)
    return Report(ok, checker.failures)


# ---------------------------------------------------------------------------
# State satisfaction


def _sat(triples: frozenset, f: Formula) -> bool:
    match f:
        case TrueF():
            return True
        case Own(thread, session, _, caps):
            return all((thread, session, a) in triples for a in caps)
        case Tensor(l, r):
            items = sorted(triples)
            n = len(items)
            for mask in range(1 << n):
                left = frozenset(items[i] for i in range(n) if mask >> i & 1)
                if _sat(left, l) and _sat(triples - left, r):
                    return True
            return False
        case Plus(l, r):
            # not covered by the entailment definition; read disjunctively
            return _sat(triples, l) or _sat(triples, r)
        case Lolli(_, _):
            raise ValueError("state satisfaction is undefined for linear implications")
    raise TypeError(f"not a formula: {f!r}")


def state_satisfies(sigma: CapState, psi: Iterable[Formula]) -> bool:
    """Entailment between a capability store and a list of formulas.

    The list is a conjunction: every formula must hold of the whole store.
    Tensor splits the store's atom triples; an ownership formula holds when
    all its atoms are present for that thread and session.
    """
    return all(_sat(sigma.triples, f) for f in psi)
