"""Co-simulation of a choreography against its endpoint projection.

One fired global interaction corresponds to a finite group of endpoint
labels: an enqueue, one synchronization per chosen participant, and a
dequeue; internal steps and session starts match one-to-one.  The
co-simulation harness exhaustively explores both transition systems within
a bound, pairing every global step with a realizing group of endpoint steps
(soundness) and every endpoint step with a completing group and matching
global step (completeness), comparing the residual network with the
projection of the residual choreography modulo pruning.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .epq import CanonTable, Network, QSel, Queue, canon_table, map_cont, per_verdict, rename_key
from .netsem import (
    BcIn,
    BcOut,
    EDown,
    ELabel,
    ETau,
    EUp,
    RdIn,
    RdOut,
    SelIn,
    SelOut,
    Start,
    is_quiescent,
    net_enabled,
    sync_allowed,
)
from .projection import epp, prunes
from .schedule import ALWAYS
from .semantics import Configuration, enabled
from .syntax import (
    Choreography,
    GBcastL,
    GInitL,
    GReduceL,
    GSelectL,
    GTau,
    run_bound,
    stable_repr,
    tolerates_absence,
)


# ---------------------------------------------------------------------------
# Endpoint groups


def required_group(glabel) -> Optional[list[ELabel]]:
    """Endpoint labels realizing one global label (as a multiset)."""
    match glabel:
        case GTau():
            return [ETau()]
        case GInitL(actives, services, svc, key):
            return [Start(tuple(r for _, r in actives), tuple(r for _, r in services), svc, key)]
        case GBcastL(sender, receivers, quality, key, chosen, value):
            roles = {t: r for t, r in receivers}
            group: list[ELabel] = [EUp(),
                                   BcOut(sender[1], tuple(r for _, r in receivers),
                                         quality, key, value)]
            group += [BcIn(sender[1], roles[t], key, value) for t in sorted(chosen)]
            return group
        case GReduceL(senders, receiver, quality, key, chosen, contributions, result, _):
            roles = {t: r for t, r in senders}
            group = [EDown(),
                     RdIn(tuple(r for _, r in senders), receiver[1], quality, key, result)]
            group += [RdOut(roles[t], receiver[1], key, w) for t, w in contributions]
            return group
        case GSelectL(sender, receivers, quality, key, chosen, label):
            roles = {t: r for t, r in receivers}
            group = [EUp(),
                     SelOut(sender[1], tuple(r for _, r in receivers), quality, key, label)]
            group += [SelIn(sender[1], roles[t], key, label) for t in sorted(chosen)]
            return group
    return None


def _start_key_agnostic(lab: ELabel):
    """Start labels compare with role multisets; fresh keys must still agree."""
    match lab:
        case Start(actives, services, svc, key):
            return ("start", tuple(sorted(actives)), tuple(sorted(services)), svc, key)
        case _:
            return lab


# ---------------------------------------------------------------------------
# Firing one endpoint group


def _rename_net_session(net: Network, old: str, new: str) -> Network:
    comps = tuple(c.replace(proc=rename_key(c.proc, old, new)) for c in net.components)
    queues = tuple(Queue(new if q.key == old else q.key, q.msgs) for q in net.queues)
    restricted = frozenset(new if n == old else n for n in net.restricted)
    return Network(comps, queues, restricted)


def _keyless_start(lab: Start):
    return ("start*", tuple(sorted(lab.actives)), tuple(sorted(lab.services)), lab.svc)


def fire_labels(net: Network, glabels: Iterable, first=None) -> list[Network]:
    """Networks reached by firing exactly the endpoint groups of the labels.

    Fresh session names the network invents for initiations are aligned to
    the global side's choices.  ``first``, an endpoint step ``(label,
    successor)`` of ``net``, is the only step tried from ``net`` itself
    (the endpoint step being completed); its label counts against the
    groups like any other.

    A wanted synchronization whose (session, counterpart, participant)
    triple one group alone lists among its candidates is fired alone.  With
    the queues of ``net`` empty, as ``cosimulate`` calls it, only that
    group's message carries it, so every completion fires this transition,
    after steps that neither move the participant nor read its flag: firing
    it first finds the same networks.
    """
    want: Counter = Counter()
    init_keys: dict = {}
    listed: Counter = Counter()  # groups listing each (session, counterpart, participant)
    for g in glabels:
        group = required_group(g)
        if group is None:
            return []
        match g:
            case GBcastL(sender, receivers, _, key) | GSelectL(sender, receivers, _, key):
                listed.update((key, sender[1], r) for _, r in receivers)
            case GReduceL(senders, receiver, _, key):
                listed.update((key, receiver[1], r) for _, r in senders)
        for lab in group:
            want[_start_key_agnostic(lab)] += 1
            if isinstance(lab, Start):
                init_keys.setdefault(_keyless_start(lab), []).append(lab.key)
    found: dict[Network, Network] = {}  # canonical form -> first network reaching it
    expanded: set = set()  # (exact network, remaining labels): fresh keys stay apart

    def dfs(current: Network, remaining: Counter, options=None):
        remaining = +remaining
        if not remaining:
            # dfs refers to itself, so it outlives the call; it must not hold the table
            found.setdefault(canon_table().canon(current), current)
            return
        state = (current, frozenset(remaining.items()))
        if state in expanded:
            return
        expanded.add(state)
        if options is None:
            options = net_enabled(current)
            forced = next((step for step in options if listed[_sync_triple(step[0])] == 1
                           and remaining[step[0]] > 0), None)
            options = options if forced is None else [forced]
        for lab, succ in options:
            if isinstance(lab, Start):
                pending = init_keys.get(_keyless_start(lab), [])
                if lab.key not in pending:
                    # greedy key assignment; ambiguous only when one window
                    # holds several starts with identical service and roles
                    target_key = next((k for k in pending if remaining[
                        _start_key_agnostic(lab.replace(key=k))] > 0), None)
                    if target_key is None:
                        continue
                    succ = _rename_net_session(succ, lab.key, target_key)
                    lab = lab.replace(key=target_key)
            key = _start_key_agnostic(lab)
            if remaining[key] > 0:
                dfs(succ, remaining - Counter([key]))

    dfs(net, want, None if first is None else [first])
    return list(found.values())


def _sync_triple(lab: ELabel):
    """(session, counterpart role, participant role) of a synchronization."""
    match lab:
        case BcIn(sender, receiver, key) | SelIn(sender, receiver, key):
            return key, sender, receiver
        case RdOut(sender, receiver, key):
            return key, receiver, sender
    return None


# ---------------------------------------------------------------------------
# Verdicts


@dataclass
class Verdict:
    status: str  # Pass | CounterexampleFound | BudgetExceeded | PreconditionFailed | StuckNetworkFound
    detail: str = ""
    pairs_explored: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "Pass"

    def to_json(self) -> dict:
        return {"status": self.status, "detail": self.detail,
                "pairs_explored": self.pairs_explored}


class _Search:
    """The bounded breadth-first search of a verdict.

    ``over(start, key, stopped)`` yields each state it reaches, and its
    depth, once per identity ``key(state, depth)``; the caller checks the
    state and hands its successors to :meth:`push`.  Every state at depth
    up to ``bound`` is checked, and the bound cuts the search, with detail
    ``stopped``, exactly when an unseen successor lies one level deeper.
    ``explored`` and ``cut``, the detail of the first cut, run on across
    the verdict's searches.
    """

    def __init__(self, bound: int):
        self.bound, self.explored, self.cut = bound, 0, None

    def over(self, start, key, stopped: str):
        self.key, self.stopped = key, stopped
        self.frontier, self.seen = deque([(start, 0)]), {key(start, 0)}
        while self.frontier:
            self.explored += 1
            yield self.frontier.popleft()

    def push(self, state, depth: int) -> None:
        key = self.key(state, depth)
        if key not in self.seen:
            if depth > self.bound:
                self.cut = self.cut or self.stopped
            else:
                self.seen.add(key)
                self.frontier.append((state, depth))

    def verdict(self, status: str = "Pass", detail: str = "") -> Verdict:
        """A Pass is BudgetExceeded, with the first cut, once the bound cut the search."""
        if status == "Pass" and self.cut:
            status, detail = "BudgetExceeded", self.cut
        return Verdict(status, detail, self.explored)


@per_verdict
def cosimulate(c: Choreography, bound: int | None = None, net: Network | None = None) -> Verdict:
    """Check both correctness directions by bounded exhaustive exploration.

    Soundness: every global step is realized by a group of endpoint steps
    whose residual network prunes to the residual projection.  Completeness:
    every endpoint step extends to a full group matching some global step.
    Every (configuration, network) pair at depth up to ``bound`` is checked
    (:class:`_Search`); ``bound``, by default ``run_bound(c, False)``, which
    cuts nothing, is the only budget, since both inner searches end on their
    own.  ``net`` overrides the projected start network (mutation testing).
    """
    start_conf = Configuration.initial(c)
    table = canon_table()
    try:
        start_net = _projection(table, start_conf) if net is None else net
    except ValueError as exc:  # ProjectionUndefined, NotMergeable
        return Verdict("PreconditionFailed", f"projection undefined: {exc}")
    search = _Search(run_bound(c, False) if bound is None else bound)
    for (conf, net), depth in search.over(
            (start_conf, start_net), lambda pair, _: (pair[0].canon_key(), table.canon(pair[1])),
            f"exploration stopped at depth {search.bound}"):
        # Soundness direction
        for glabel, conf2 in table.memo(table.global_steps, enabled, conf):
            matched = _first_pruning(_projection(table, conf2), fire_labels(net, [glabel]))
            if matched is None:
                return search.verdict(
                    "CounterexampleFound",
                    f"soundness: global step {stable_repr(glabel)} at depth {depth} has no "
                    f"realizing endpoint group")
            search.push((conf2, matched), depth + 1)
        # Completeness direction: the fired endpoint label must belong to
        # the combined group of some global step sequence; an enqueue for a
        # group whose global turn comes later needs a longer sequence.
        for step in net_enabled(net):
            if not _complete_endpoint(conf, net, step):
                return search.verdict(
                    "CounterexampleFound",
                    f"completeness: endpoint step {step[0]} at depth {depth} completes "
                    f"no global step sequence")
    return search.verdict()


def _projection(table: CanonTable, conf: Configuration) -> Network:
    """``epp`` of ``conf``'s choreography and restrictions, kept in ``table``."""
    return table.memo(table.projections, lambda pair: epp(*pair), (conf.chor, conf.binders))


def _complete_endpoint(conf: Configuration, net: Network, step) -> bool:
    """Whether some global step sequence from ``conf`` absorbs the endpoint
    step ``(label, successor)`` of ``net``: firing the sequence's groups
    from ``net``, that step first, reaches a network that prunes to the
    projection of the final residual.  Sequences are tried shortest first;
    each global step consumes a prefix of the choreography, which has no
    recursion, so a sequence is no longer than the program and the search
    ends.
    """
    table = canon_table()
    frontier = [(conf, [])]
    while frontier:
        nxt = []
        for cur, labels in frontier:
            for glabel, conf2 in table.memo(table.global_steps, enabled, cur):
                seq = labels + [glabel]
                fired = fire_labels(net, seq, first=step)
                if fired and _first_pruning(_projection(table, conf2), fired) is not None:
                    return True
                nxt.append((conf2, seq))
        frontier = nxt
    return False


def _first_pruning(target: Network, nets: list[Network]) -> Optional[Network]:
    """The first of ``nets`` that prunes to ``target``, or None when none does."""
    return next((net for net in nets if prunes(target, net)), None)


# ---------------------------------------------------------------------------
# Availability by design


@per_verdict
def availability_check(c: Choreography, oracles: Optional[list] = None,
                       bound: int | None = None) -> Verdict:
    """Either the projection is inert or no reachable network is stuck.

    Explores the projected network under each oracle; a state without
    transitions that is not quiescent (inert up to replicated services and
    empty queues) is a counterexample.  Every network at depth up to
    ``bound`` is checked (:class:`_Search`); the count and the first cut
    run on across the oracles.  The default bound, ``run_bound(c, True)``,
    cuts nothing, since an oracle only withholds steps.
    """
    try:
        start = epp(c)
    except ValueError as exc:  # ProjectionUndefined, NotMergeable
        return Verdict("PreconditionFailed", f"projection undefined: {exc}")
    if is_quiescent(start):  # a quiescent network has no step
        return Verdict("Pass", "projection is inert", 1)
    table, search = canon_table(), _Search(run_bound(c, True) if bound is None else bound)
    for oracle in oracles or [ALWAYS]:
        # under an oracle whose answers still change with the step, a state is (network, step)
        stepwise = oracle.settles_at != 0
        for net, depth in search.over(
                start, lambda net, depth: (table.canon(net), depth if stepwise else None),
                f"exploration stopped at depth {search.bound} under {stable_repr(oracle)}"):
            options = net_enabled(net, oracle, depth)
            if not options:
                if not is_quiescent(net):
                    return search.verdict(
                        "StuckNetworkFound",
                        f"stuck non-quiescent network at depth {depth} under "
                        f"{stable_repr(oracle)}")
                continue
            if not stepwise:
                options = _forced_sync(net, oracle) or options
            for _, succ in options:
                search.push(succ, depth + 1)
    return search.verdict()


def _forced_sync(net: Network, oracle) -> list:
    """The first forced synchronization of ``net`` that ``oracle`` allows,
    alone, or [].

    A synchronization ``s`` of ``c`` on ``m`` is forced when ``c`` has no
    other step and ``m``'s quality cannot hold without ``c``'s role.  Until
    ``s`` fires nothing disables it or depends on it: ``c`` moves only by
    ``s`` (a message that could strand it would block ``m``), ``m`` waits
    for ``c``'s flag, other synchronizations set other flags, enqueues only
    append, and an oracle settled at step 0 answers for ``s`` at every step
    as it does now, since its answer reads only ``s``'s session, thread,
    role and message.  So ``{s}`` is persistent (Godefroid, LNCS 1032): a
    search with a visited set reaches every terminal network, stuck or
    quiescent, by a permutation of an original path: at one depth.
    """
    entries = canon_table().steps[net]  # net_enabled(net) filled it
    steps_of = Counter(guard[0] for _, emissions in entries for guard, _ in emissions if guard)
    for label, ((guard, succ), *_) in entries:
        if guard and steps_of[guard[0]] == 1 and sync_allowed(oracle, 0, guard):
            _, _, msg, role = guard
            if not tolerates_absence(msg.quality, msg.roles(), role):
                return [(label, succ)]
    return []


# ---------------------------------------------------------------------------
# Mutations (used by the validation suite)


def drop_receiver(net: Network, owner: str) -> Network:
    """Mis-projection: remove one thread's process entirely."""
    return net.replace(components=tuple(c for c in net.components if c.owner != owner))


def swap_select_label(net: Network, new_label: str) -> Network:
    """Mis-projection: in the first process that selects, rename the label of
    the first selection on each path."""
    def fix(proc):
        if isinstance(proc, QSel):
            return proc.replace(label=new_label)
        return map_cont(proc, fix)

    comps = []
    done = False
    for comp in net.components:
        if not done:
            fixed = fix(comp.proc)
            if fixed != comp.proc:
                comps.append(comp.replace(proc=fixed))
                done = True
                continue
        comps.append(comp)
    return net.replace(components=tuple(comps))
