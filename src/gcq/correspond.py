"""Co-simulation of a choreography against its endpoint projection.

One fired global interaction corresponds to a finite group of endpoint
labels: an enqueue, one synchronization per chosen participant, and a
dequeue; internal steps and session starts match one-to-one.  The
behavioural-implementation judgment checks a trace-level matching between
both label sequences; the co-simulation harness exhaustively explores both
transition systems within a bound, pairing every global step with a
realizing group of endpoint steps (soundness) and every endpoint step with
a completing group and matching global step (completeness), comparing the
residual network with the projection of the residual choreography modulo
pruning.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import Iterable, Optional

from .epq import Network, QSel, Queue, map_cont, net_canon, rename_key
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
    net_enabled,
)
from .projection import PruningInconclusive, epp, prunes
from .semantics import ALWAYS, Configuration, enabled
from .syntax import (
    Choreography,
    GBcastL,
    GInitL,
    GLabel,
    GReduceL,
    GSelectL,
    GTau,
    stable_repr,
)


# ---------------------------------------------------------------------------
# Behavioural implementation


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


@dataclass(frozen=True)
class Witness:
    """Which endpoint positions realize which global label."""

    groups: tuple[tuple[GLabel, tuple[int, ...]], ...]


@dataclass(frozen=True)
class Correspondence:
    ok: bool
    witness: Optional[Witness] = None


def implements(globals_: Iterable[GLabel], endpoints: Iterable[ELabel]) -> Correspondence:
    """Decide whether the endpoint labels realize the global labels.

    Global labels are consumed in order; the endpoint sequence is taken up
    to the commutations the judgment admits, i.e. as a multiset.
    """
    glabels = list(globals_)
    elabels = list(endpoints)
    positions: dict = {}
    for i, lab in enumerate(elabels):
        positions.setdefault(_start_key_agnostic(lab), []).append(i)
    groups = []
    for g in glabels:
        group = required_group(g)
        if group is None:
            return Correspondence(False)
        picked = []
        for lab in group:
            pool = positions.get(_start_key_agnostic(lab), [])
            if not pool:
                return Correspondence(False)
            picked.append(pool.pop(0))
        groups.append((g, tuple(sorted(picked))))
    if any(pool for pool in positions.values()):
        return Correspondence(False)  # leftover endpoint labels realize nothing
    return Correspondence(True, Witness(tuple(groups)))


# ---------------------------------------------------------------------------
# Firing one endpoint group


def _rename_net_session(net: Network, old: str, new: str) -> Network:
    if old == new:
        return net
    comps = tuple(replace(c, proc=rename_key(c.proc, old, new)) for c in net.components)
    queues = tuple(Queue(new if q.key == old else q.key, q.msgs) for q in net.queues)
    restricted = frozenset(new if n == old else n for n in net.restricted)
    return Network(comps, queues, restricted)


def _keyless_start(lab: Start):
    return ("start*", tuple(sorted(lab.actives)), tuple(sorted(lab.services)), lab.svc)


def fire_labels(net: Network, glabels: Iterable, already_fired=None,
                oracle=ALWAYS) -> list[Network]:
    """Networks reached by firing exactly the endpoint groups of the labels.

    Fresh session names the network invents for initiations are aligned to
    the global side's choices.  ``already_fired`` removes one occurrence
    from the required multiset (the endpoint step being completed).
    """
    want: Counter = Counter()
    init_keys: dict = {}
    for g in glabels:
        group = required_group(g)
        if group is None:
            return []
        for lab in group:
            want[_start_key_agnostic(lab)] += 1
            if isinstance(lab, Start):
                init_keys.setdefault(_keyless_start(lab), []).append(lab.key)
    if already_fired is not None:
        key = _start_key_agnostic(already_fired)
        if want[key] <= 0:
            return []
        want[key] -= 1
    results: list[Network] = []
    seen = set()

    def dfs(current: Network, remaining: Counter):
        if not +remaining:
            key = repr(net_canon(current))
            if key not in seen:
                seen.add(key)
                results.append(current)
            return
        for lab, succ in net_enabled(current, oracle):
            if isinstance(lab, Start):
                pending = init_keys.get(_keyless_start(lab), [])
                if lab.key not in pending:
                    # greedy key assignment; ambiguous only when one window
                    # holds several starts with identical service and roles
                    target_key = next((k for k in pending if remaining[
                        _start_key_agnostic(replace(lab, key=k))] > 0), None)
                    if target_key is None:
                        continue
                    succ = _rename_net_session(succ, lab.key, target_key)
                    lab = replace(lab, key=target_key)
            key = _start_key_agnostic(lab)
            if remaining[key] > 0:
                dfs(succ, remaining - Counter([key]))

    dfs(net, want)
    return results


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


def _project_runtime(conf: Configuration) -> Network:
    return epp(conf.chor)


def _pair_key(conf: Configuration, net: Network):
    return (conf.canon_key(), repr(net_canon(net)))


def cosimulate(c: Choreography, bound: int = 32, prune_depth: int = 12,
               net: Optional[Network] = None) -> Verdict:
    """Check both correctness directions by bounded exhaustive exploration.

    Soundness: every global step is realized by a group of endpoint steps
    whose residual network prunes to the residual projection.  Completeness:
    every endpoint step extends to a full group matching some global step.
    ``net`` overrides the projected start network (mutation testing).
    """
    start_conf = Configuration.initial(c)
    try:
        start_net = epp(c) if net is None else net
    except Exception as exc:
        return Verdict("PreconditionFailed", f"projection undefined: {exc}")
    frontier = deque([(start_conf, start_net, 0)])
    seen = {_pair_key(start_conf, start_net)}
    explored = 0
    budget_hit = False
    while frontier:
        conf, net, depth = frontier.popleft()
        explored += 1
        if depth >= bound:
            budget_hit = True
            continue
        gsteps = enabled(conf)
        # Soundness direction
        for glabel, conf2 in gsteps:
            target = _project_runtime(conf2)
            matched = None
            for net2 in fire_labels(net, [glabel]):
                try:
                    if prunes(target, net2, prune_depth):
                        matched = net2
                        break
                except PruningInconclusive:
                    continue
            if matched is None:
                return Verdict(
                    "CounterexampleFound",
                    f"soundness: global step {stable_repr(glabel)} at depth {depth} has no "
                    f"realizing endpoint group", explored)
            key = _pair_key(conf2, matched)
            if key not in seen:
                seen.add(key)
                frontier.append((conf2, matched, depth + 1))
        # Completeness direction: the fired endpoint label must belong to
        # the combined group of some global step sequence; an enqueue for a
        # group whose global turn comes later needs lookahead.
        for elabel, net1 in net_enabled(net):
            if not _complete_endpoint(conf, elabel, net1, prune_depth,
                                      lookahead=max(2, min(bound - depth, 6))):
                return Verdict(
                    "CounterexampleFound",
                    f"completeness: endpoint step {elabel} at depth {depth} completes "
                    f"no global step sequence", explored)
    if budget_hit:
        return Verdict("BudgetExceeded", f"exploration stopped at depth {bound}", explored)
    return Verdict("Pass", "", explored)


def _complete_endpoint(conf: Configuration, elabel, net1: Network, prune_depth: int,
                       lookahead: int = 6) -> bool:
    """Find global steps whose combined endpoint groups absorb the fired label.

    Searches sequences of up to ``lookahead`` global transitions; the fired
    endpoint label must occur in some group of the sequence, the remaining
    group labels must be firable from the successor network, and the result
    must prune to the projection of the final residual.
    """
    my_key = None
    frontier = [(conf, [])]
    for _ in range(lookahead):
        nxt = []
        for cur, labels in frontier:
            for glabel, conf2 in enabled(cur):
                seq = labels + [glabel]
                adjusted_net1, adjusted = net1, elabel
                if isinstance(elabel, Start):
                    target_key = next(
                        (g.key for g in seq if isinstance(g, GInitL)
                         and _keyless_start(Start(tuple(r for _, r in g.actives),
                                                  tuple(r for _, r in g.services),
                                                  g.svc, g.key)) == _keyless_start(elabel)),
                        None)
                    if target_key is not None and target_key != elabel.key:
                        adjusted_net1 = _rename_net_session(net1, elabel.key, target_key)
                        adjusted = replace(elabel, key=target_key)
                want = Counter()
                for g in seq:
                    for lab in required_group(g):
                        want[_start_key_agnostic(lab)] += 1
                if want[_start_key_agnostic(adjusted)] > 0:
                    target = _project_runtime(conf2)
                    for net2 in fire_labels(adjusted_net1, seq, already_fired=adjusted):
                        try:
                            if prunes(target, net2, prune_depth):
                                return True
                        except PruningInconclusive:
                            continue
                nxt.append((conf2, seq))
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# Availability by design


def availability_check(c: Choreography, oracles: Optional[list] = None,
                       bound: int = 64) -> Verdict:
    """Either the projection is inert or no reachable network is stuck.

    Explores the projected network under each oracle; a state without
    transitions that is not quiescent (inert up to replicated services and
    empty queues) is a counterexample.
    """
    from .netsem import is_quiescent

    try:
        start = epp(c)
    except Exception as exc:
        return Verdict("PreconditionFailed", f"projection undefined: {exc}")
    if is_quiescent(start) and not net_enabled(start):
        return Verdict("Pass", "projection is inert", 1)
    oracles = oracles or [ALWAYS]
    explored = 0
    cut_under = None  # first oracle whose search the bound cut short
    for oracle in oracles:
        frontier = deque([(start, 0)])
        seen = {repr(net_canon(start))}
        while frontier:
            net, depth = frontier.popleft()
            explored += 1
            options = net_enabled(net, oracle, depth)
            if not options:
                if not is_quiescent(net):
                    return Verdict(
                        "StuckNetworkFound",
                        f"stuck non-quiescent network at depth {depth} under "
                        f"{stable_repr(oracle)}", explored)
                continue
            for _, succ in options:
                key = repr(net_canon(succ))
                if key in seen:
                    continue
                if depth >= bound:
                    cut_under = cut_under or oracle
                    break
                seen.add(key)
                frontier.append((succ, depth + 1))
    if cut_under is not None:
        return Verdict("BudgetExceeded", f"exploration stopped at depth {bound} under "
                                         f"{stable_repr(cut_under)}", explored)
    return Verdict("Pass", "", explored)


# ---------------------------------------------------------------------------
# Mutations (used by the validation suite)


def drop_receiver(net: Network, owner: str) -> Network:
    """Mis-projection: remove one thread's process entirely."""
    return replace(net, components=tuple(c for c in net.components if c.owner != owner))


def swap_select_label(net: Network, new_label: str) -> Network:
    """Mis-projection: in the first process that selects, rename the label of
    the first selection on each path."""
    def fix(proc):
        if isinstance(proc, QSel):
            return replace(proc, label=new_label)
        return map_cont(proc, fix)

    comps = []
    done = False
    for comp in net.components:
        if not done:
            fixed = fix(comp.proc)
            if fixed != comp.proc:
                comps.append(replace(comp, proc=fixed))
                done = True
                continue
        comps.append(comp)
    return replace(net, components=tuple(comps))
