"""The capability judgment by enumeration: the specification that
``captypes.CapabilityChecker`` is checked against.

Each collective interaction is checked by deriving its goal for every
subset that satisfies its quality, in the order of ``quality_subsets``,
and by checking the continuation under the context each deriving subset
leaves.  A failing subset is reported once per context: the first one.
"""

from __future__ import annotations

from typing import Iterable, Optional

from gcq import linlog
from gcq.captypes import (
    MAX_PARTICIPANTS,
    Failure,
    Report,
    describe_interaction,
    init_ownerships,
    listed_twice,
)
from gcq.linlog import Context, Formula, Own, TrueF, TRUE
from gcq.syntax import (
    AnnotatedThread,
    ArityMismatch,
    Choreography,
    End,
    If,
    Init,
    Interaction,
    Seq,
    comm_parts,
    free_names,
    quality_subsets,
)


def ownership(p: AnnotatedThread, key: str, required: bool) -> Own:
    return Own(p.thread, key, p.role, p.req if required else p.off)


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
        principal, candidates, quality, key = comm_parts(eta)
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
