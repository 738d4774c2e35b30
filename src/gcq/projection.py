"""From choreographies to endpoint networks.

Thread projection maps each interaction to the owning side of its endpoint
pair: session starts become a requester (first active), one-shot accepts
(other actives) and replicated services; a conditional stays local to the
deciding thread while everyone else's branches are merged, unioning label
branchings.  The endpoint projection composes all free-thread projections
with one empty queue per free session and one merged replicated process
per service-and-role pair.  Linearity rules out races between session
starts on a shared service; pruning garbage-collects replicated services
a network evolution no longer uses.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .epq import (
    AcceptOnce,
    AcceptRepl,
    Branch,
    Component,
    IfP,
    INACT,
    BINDS,
    InP,
    Network,
    OutP,
    Proc,
    QIn,
    QOut,
    QSel,
    Queue,
    Request,
    WaitIn,
    WaitOut,
    canon_table,
    map_cont,
    proc_canon,
    proc_conts,
    proc_free_names,
    rename,
)
from .captypes import Failure, Report, describe_interaction, listed_twice
from .netsem import net_enabled
from .syntax import (
    Bcast,
    Choreography,
    End,
    If,
    Init,
    Reduce,
    Select,
    Seq,
    Thread,
    Var,
    comm_parts,
    free_names,
    interactions_of,
    term,
)


class ProjectionUndefined(ValueError):
    """Branch merging failed somewhere inside a conditional, or a collective
    lists one thread or role twice."""


class NotMergeable(ValueError):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path = path
        self.reason = reason


# ---------------------------------------------------------------------------
# Linearity


@term
class Node:
    """Interaction node: an AST position abstracted to its participants."""

    index: int
    principals: tuple[Thread, ...]  # start: actives; communication: senders
    others: tuple[Thread, ...]      # start: services; communication: receivers
    svc: Optional[str] = None       # the service of a start; None for a communication

    def threads(self) -> frozenset[Thread]:
        return frozenset(self.principals) | frozenset(self.others)


def _nodes_with_scope(c: Choreography, scope: tuple[int, ...] = (), counter=None) -> list[tuple[Node, tuple[int, ...]]]:
    """Interaction nodes with their branch paths; node ``i`` is at position ``i``."""
    counter = counter if counter is not None else itertools.count()
    match c:
        case End():
            return []
        case If(_, _, then, orelse):
            return (_nodes_with_scope(then, scope + (0,), counter)
                    + _nodes_with_scope(orelse, scope + (1,), counter))
        case Seq(Init(actives, services, svc, _), cont):
            node = Node(next(counter), tuple(p.thread for p in actives),
                        tuple(p.thread for p in services), svc)
            return [(node, scope)] + _nodes_with_scope(cont, scope, counter)
        case Seq(inter, cont):
            principal, candidates, _, _ = comm_parts(inter)
            ends = (principal.thread,), tuple(p.thread for p in candidates)
            # a reduce's principal is its receiver
            senders, receivers = ends[::-1] if isinstance(inter, Reduce) else ends
            node = Node(next(counter), senders, receivers)
            return [(node, scope)] + _nodes_with_scope(cont, scope, counter)
    raise TypeError(f"not a choreography: {c!r}")


def _precedes(s1: tuple[int, ...], s2: tuple[int, ...]) -> bool:
    """Same-branch check: neither scope path branches away from the other."""
    shorter = min(len(s1), len(s2))
    return s1[:shorter] == s2[:shorter]


def check_linearity(c: Choreography) -> Report:
    """No races between session starts that share a service name.

    For every earlier start on the same service, each active thread of the
    later start must be reachable through a chain of interaction
    dependencies rooted at the earlier start.  A dependency ``n1 <_p n2``
    passes from a start through its participants that are principals of
    ``n2`` (the actives of a start, the senders of a communication), and
    from a communication through its receivers that take part in ``n2``.
    It runs forward in index order, so one pass over the nodes between the
    two starts, on neither's other branch, collects the threads that the
    reached nodes pass on.
    """
    nodes = _nodes_with_scope(c)
    failures: list[Failure] = []
    inits = [(n, s) for n, s in nodes if n.svc is not None]
    for (n1, s1), (n2, s2) in itertools.combinations(inits, 2):
        if n1.svc != n2.svc or not _precedes(s1, s2):
            continue
        by_start, by_comm = set(n1.threads()), set()
        for m, sm in nodes[n1.index + 1:n2.index]:
            if _precedes(s1, sm) and _precedes(sm, s2) and (
                    by_start.intersection(m.principals) or by_comm.intersection(m.threads())):
                if m.svc is None:
                    by_comm.update(m.others)
                else:
                    by_start.update(m.threads())
        for target in n2.principals:
            if target not in by_start and target not in by_comm:
                failures.append(Failure(
                    "NotLinear",
                    f"start#{n1.index}({n1.svc}) then start#{n2.index}({n2.svc})",
                    f"active thread {target!r} of the later start has no dependency "
                    f"chain from the earlier one"))
    return Report(not failures, failures)


# ---------------------------------------------------------------------------
# Merging


_MERGE_RULE = {  # class: (path step of each continuation, why two prefixes differ)
    Request: (("/req",), "different session requests"),
    AcceptOnce: (("/acc",), "different session accepts"),
    AcceptRepl: (("/acc",), "different session accepts"),
    QOut: (("/out",), "different collective outputs"),
    OutP: (("/out",), "different outputs"),
    InP: (("/in",), "different inputs"),
    QIn: (("/in",), "different collective inputs"),
    QSel: (("/sel",), "different selections"),
    WaitOut: (("/wait",), "different wait states"),
    WaitIn: (("/wait",), "different wait states"),
    IfP: (("/then", "/else"), "different conditional guards"),
}


def _erased(_: Proc) -> Proc:
    return INACT


def merge(p: Proc, q: Proc, path: str = "") -> Proc:
    """Join two alternative behaviours of one endpoint.

    Label branchings with the same session and roles union their arms,
    merging shared labels recursively.  Any other two processes must have
    the same prefix once ``q``'s bound key or variable is renamed to
    ``p``'s, and their continuations merge pairwise; so equal processes
    merge to themselves.
    """
    if p == q:
        return p
    if isinstance(p, Branch) and isinstance(q, Branch):
        if (p.key, p.receiver, p.sender) != (q.key, q.receiver, q.sender):
            raise NotMergeable(path, f"branchings on different points: {p.key}[{p.receiver}] "
                                     f"vs {q.key}[{q.receiver}]")
        pm, qm = p.label_map(), q.label_map()
        arms = dict(pm)
        for label, arm in qm.items():
            arms[label] = merge(pm[label], arm, f"{path}/{label}") if label in pm else arm
        return Branch(p.key, p.receiver, p.sender, tuple(sorted(arms.items())))
    if type(p) is not type(q):
        raise NotMergeable(path, f"{type(p).__name__} vs {type(q).__name__}")
    p_conts, q_conts, bound = proc_conts(p), proc_conts(q), {}
    field = BINDS.get(type(q))
    if field is not None and getattr(q, field) != getattr(p, field):
        old, new = getattr(q, field), getattr(p, field)
        bound = {field: new}
        q_conts = (rename(q.cont, {(field, old): Var(new) if field == "var" else new}),)
    steps, reason = _MERGE_RULE[type(p)]
    if map_cont(p, _erased) != map_cont(q, _erased, **bound):
        raise NotMergeable(path, reason)
    merged = iter([merge(a, b, path + step) for a, b, step in zip(p_conts, q_conts, steps)])
    return map_cont(p, lambda _: next(merged))


# ---------------------------------------------------------------------------
# Thread projection


def project_thread(c: Choreography, thread) -> Proc:
    """Process for one thread; a thread not occurring projects to inaction."""
    return _project(c, getattr(thread, "thread", thread))


def _project(c: Choreography, t: Thread) -> Proc:
    match c:
        case End():
            return INACT
        case If(guard, at, then, orelse):
            if at == t:
                return IfP(guard, _project(then, t), _project(orelse, t))
            try:
                return merge(_project(then, t), _project(orelse, t), f"if@{at}")
            except NotMergeable as exc:
                raise ProjectionUndefined(
                    f"thread {t!r} is not projectable across the conditional at "
                    f"{at!r}: {exc}") from exc
        case Seq(inter, cont):
            rest = _project(cont, t)
            match inter:
                case Init(actives, services, svc, key):
                    roles = tuple(p.role for p in actives) + tuple(p.role for p in services)
                    if actives and actives[0].thread == t:
                        return Request(svc, roles, key, rest)
                    for p in actives[1:]:
                        if p.thread == t:
                            return AcceptOnce(svc, p.role, key, rest)
                    for p in services:
                        if p.thread == t:
                            return AcceptRepl(svc, p.role, key, rest)
                    return rest
                case Bcast(sender, expr, receivers, quality, key):
                    if sender.thread == t:
                        return QOut(key, sender.role, tuple(p.role for p, _ in receivers),
                                    quality, expr, rest)
                    for p, x in receivers:
                        if p.thread == t:
                            return InP(key, p.role, sender.role, x, rest)
                    return rest
                case Reduce(senders, receiver, bind_var, quality, op, key):
                    for p, e in senders:
                        if p.thread == t:
                            return OutP(key, p.role, receiver.role, e, rest)
                    if receiver.thread == t:
                        return QIn(key, tuple(p.role for p, _ in senders), receiver.role,
                                   quality, bind_var, op, rest)
                    return rest
                case Select(sender, receivers, quality, key, label):
                    if sender.thread == t:
                        return QSel(key, sender.role, tuple(p.role for p in receivers),
                                    quality, label, rest)
                    for p in receivers:
                        if p.thread == t:
                            return Branch(key, p.role, sender.role, ((label, rest),))
                    return rest
    raise TypeError(f"not a choreography: {c!r}")


# ---------------------------------------------------------------------------
# Service merge and the endpoint projection


def service_merge(c: Choreography, svc: str, role) -> frozenset[Thread]:
    """Service threads accepting ``svc`` under ``role`` anywhere in the term."""
    return frozenset(p.thread for eta in interactions_of(c)
                     if isinstance(eta, Init) and eta.svc == svc
                     for p in eta.services if p.role == role)


def _service_names(c: Choreography) -> frozenset[str]:
    return frozenset(eta.svc for eta in interactions_of(c) if isinstance(eta, Init))


def epp(c: Choreography, binders: tuple[tuple[str, str], ...] = ()) -> Network:
    """Endpoint projection of ``c`` under the restrictions ``binders``, the
    ``(kind, name)`` pairs a configuration keeps; a source program has none.

    Restricted threads are running service instances; endpoint processes
    carry no thread identity, so their components are anonymous like the
    instances a session start spawns.  Restricted sessions are the
    network's restricted names.
    """
    for eta in interactions_of(c):
        if isinstance(eta, (Bcast, Reduce, Select)) and (twice := listed_twice(eta)):
            raise ProjectionUndefined(
                f"{describe_interaction(eta)} lists a participant twice: {', '.join(twice)}")
    anonymous = frozenset(name for kind, name in binders if kind == "thread")
    fn = free_names(c)
    components = []
    for t in sorted(fn.threads):
        proc = project_thread(c, t)
        components.append(Component(proc, owner=None if t in anonymous else t))
    queues = tuple(Queue(k, ()) for k in sorted(fn.sessions))
    for svc in sorted(_service_names(c)):
        for role in sorted(fn.roles):
            group = service_merge(c, svc, role)
            if not group:
                continue
            procs = [project_thread(c, s) for s in sorted(group)]
            out = procs[0]
            for other in procs[1:]:
                out = merge(out, other, f"service {svc}[{role}]")
            components.append(Component(out, owner=None, service=(svc, role)))
    restricted = frozenset(name for kind, name in binders if kind == "session")
    return Network(tuple(components), queues, restricted)


# ---------------------------------------------------------------------------
# Pruning


def _strip_replicated(net: Network, keep: frozenset = frozenset()) -> Network:
    """``net`` without the largest set of replicated components whose
    service is unused elsewhere.

    ``keep`` lists (service, role) groups the pruned side still carries; the
    split may leave any replicated process in place, so those stay.
    """
    stripped = [c for c in net.components
                if c.is_replicated() and (c.service or (c.proc.svc, c.proc.role)) not in keep]
    while True:
        kept = [c for c in net.components if c not in stripped]
        names = frozenset().union(*(proc_free_names(c.proc) for c in kept)) if kept else frozenset()
        back = [c for c in stripped if c.proc.svc in names]
        if not back:
            return Network(tuple(kept), net.queues, net.restricted)
        stripped = [c for c in stripped if c not in back]


def _merges_into(pc: Network, qc: Network) -> bool:
    """Whether ``pc`` has ``qc``'s queues and restricted names and each of its
    components pairs with a same-key one of ``qc`` (:func:`_merge_bucket`)."""
    if pc.restricted != qc.restricted or pc.queues != qc.queues:
        return False

    def keyed(net: Network):
        out: dict = {}
        for c in net.components:
            k = ("t", c.owner) if c.owner else ("s", c.service)
            out.setdefault(k, []).append(c)
        return out

    pk, qk = keyed(pc), keyed(qc)
    for k, qcomps in qk.items():
        pcomps = pk.pop(k, [])
        if len(pcomps) > len(qcomps) or not _merge_bucket(pcomps, qcomps):
            return False
    return not pk  # else the left network has components the right cannot absorb


def _merge_bucket(pcomps, qcomps) -> bool:
    """Whether same-key components pair across the networks so that each of
    ``pcomps`` merges into a distinct partner in ``qcomps`` without changing
    it, up to bound names.  The pairing is a bipartite matching, found by
    augmenting paths (Kuhn 1955), and each pair is merged at most once.
    Free partners are tried first, so an identity pairing merges each
    component with its like-placed one and no other."""
    fits: dict[tuple[int, int], bool] = {}

    def fit(pi: int, qi: int) -> bool:
        if (pi, qi) not in fits:
            q = qcomps[qi].proc
            try:
                m = merge(pcomps[pi].proc, q)
                fits[pi, qi] = m == q or proc_canon(m) == proc_canon(q)
            except NotMergeable:
                fits[pi, qi] = False
        return fits[pi, qi]

    partner: list[Optional[int]] = [None] * len(qcomps)  # the p index paired with each q

    def place(pi: int, seen: set[int]) -> bool:
        for qi, other in enumerate(partner):
            if other is None and fit(pi, qi):
                partner[qi] = pi
                return True
        for qi, other in enumerate(partner):
            if other is not None and qi not in seen and fit(pi, qi):
                seen.add(qi)
                if place(other, seen):
                    partner[qi] = pi
                    return True
        return False

    return all(place(pi, set()) for pi in range(len(pcomps)))


def prunes(p: Network, q: Network, _memo=None) -> bool:
    """Decide whether ``q`` is ``p`` plus unused replicated services.

    Once ``q``'s unused services are stripped, each of ``p``'s components
    must merge, unchanged up to bound names, into a distinct one of the rest
    with its owner or service (the merged network would be the rest again,
    so it is not built), and a rest equal to ``p`` is answered at once.
    Otherwise each step of the rest needs a same-label step of ``p`` whose
    successor prunes to the rest's successor.  This ends: ``p`` is ``epp``
    of a residual choreography, or a successor of one, whose runs are
    finite, since a choreography has no recursion; ``_memo``, one call's
    coinductive memo on canonical pairs, answers a revisited pair, and is
    not shared.  The running verdict keeps each top-level answer, which is
    final.
    """
    table = canon_table()
    pc, qc = table.canon(p), table.canon(q)
    if pc == qc:
        return True
    if _memo is None:
        return table.memo(table.prune_answers, lambda pair: prunes(*pair, {}), (pc, qc))
    key = (pc, qc)
    if key in _memo:
        return _memo[key]
    p_groups = frozenset((c.service or (c.proc.svc, c.proc.role))
                         for c in pc.components if c.is_replicated())
    q0 = _strip_replicated(qc, keep=p_groups)
    if not _merges_into(pc, table.canon(q0)):
        _memo[key] = False
        return False
    if q0 == pc:
        return True  # the identity relation is a simulation
    _memo[key] = True  # coinductive reading of the simulation clause
    q_steps = net_enabled(q0)
    p_steps = net_enabled(pc) if q_steps else []
    for label, q0_next in q_steps:
        if not any(p_label == label and prunes(pn, q0_next, _memo) for p_label, pn in p_steps):
            _memo[key] = False
            return False
    return True
