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
from dataclasses import dataclass, replace
from typing import Optional

from .epq import (
    AcceptOnce,
    AcceptRepl,
    Branch,
    Component,
    IfP,
    INACT,
    InP,
    KEY_BINDERS,
    Network,
    OutP,
    Proc,
    QIn,
    QOut,
    QSel,
    Queue,
    Request,
    VAR_BINDERS,
    WaitIn,
    WaitOut,
    canon_table,
    map_cont,
    proc_canon,
    proc_conts,
    proc_free_names,
    rename_key,
    rename_var,
)
from .captypes import Failure, Report, describe_interaction, listed_twice
from .netsem import net_enabled
from .semantics import split_prenex
from .syntax import (
    Bcast,
    Choreography,
    End,
    If,
    Init,
    Interaction,
    New,
    Reduce,
    Select,
    Seq,
    Thread,
    free_names,
    interactions_of,
)


class ProjectionUndefined(ValueError):
    """Branch merging failed somewhere inside a conditional, or a collective
    lists one thread or role twice."""


class NotMergeable(ValueError):
    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}" if path else reason)
        self.path = path
        self.reason = reason


class PruningInconclusive(RuntimeError):
    """The bounded simulation check ran out of depth."""


# ---------------------------------------------------------------------------
# Linearity


@dataclass(frozen=True)
class Node:
    """Interaction node: an AST position abstracted to its participants."""

    index: int
    kind: str  # "init" | "out" (one-to-many) | "in" (many-to-one)
    principals: tuple[Thread, ...]  # init: actives; out: (sender,); in: senders
    others: tuple[Thread, ...]      # init: services; out: receivers; in: (receiver,)
    svc: Optional[str] = None

    def threads(self) -> frozenset[Thread]:
        return frozenset(self.principals) | frozenset(self.others)


def _nodes_with_scope(c: Choreography, scope: tuple[int, ...] = (), counter=None) -> list[tuple[Node, tuple[int, ...]]]:
    counter = counter if counter is not None else itertools.count()
    out: list[tuple[Node, tuple[int, ...]]] = []
    match c:
        case End():
            return out
        case New(_, _, body):
            return _nodes_with_scope(body, scope, counter)
        case If(_, _, then, orelse):
            out += _nodes_with_scope(then, scope + (0,), counter)
            out += _nodes_with_scope(orelse, scope + (1,), counter)
            return out
        case Seq(inter, cont):
            idx = next(counter)
            match inter:
                case Init(actives, services, svc, _):
                    node = Node(idx, "init", tuple(p.thread for p in actives),
                                tuple(p.thread for p in services), svc)
                case Bcast(sender, _, receivers, _, _):
                    node = Node(idx, "out", (sender.thread,),
                                tuple(p.thread for p, _ in receivers))
                case Select(sender, receivers, _, _, _):
                    node = Node(idx, "out", (sender.thread,),
                                tuple(p.thread for p in receivers))
                case Reduce(senders, receiver, _, _, _, _):
                    node = Node(idx, "in", tuple(p.thread for p, _ in senders),
                                (receiver.thread,))
            out.append((node, scope))
            return out + _nodes_with_scope(cont, scope, counter)
    raise TypeError(f"not a choreography: {c!r}")


def _precedes(s1: tuple[int, ...], s2: tuple[int, ...]) -> bool:
    """Same-branch check: neither scope path branches away from the other."""
    shorter = min(len(s1), len(s2))
    return s1[:shorter] == s2[:shorter]


def _dependency(n1: Node, n2: Node) -> frozenset[Thread]:
    """Threads p with an interaction dependency ``n1 <_p n2``."""
    out = set()
    if n1.kind == "init":
        parts = n1.threads()
        if n2.kind == "out" and n2.principals[0] in parts:
            out.add(n2.principals[0])
        if n2.kind == "in":
            for p in n2.principals:
                if p in parts:
                    out.add(p)
        if n2.kind == "init":
            for p in n2.principals:
                if p in parts:
                    out.add(p)
    if n1.kind == "in":
        receiver = n1.others[0]
        if receiver in n2.threads():
            out.add(receiver)
    if n1.kind == "out":
        for p in n1.others:
            if p in n2.threads():
                out.add(p)
    return frozenset(out)


def check_linearity(c: Choreography) -> Report:
    """No races between session starts that share a service name.

    For every earlier start on the same service, each active thread of the
    later start must be reachable through a chain of interaction
    dependencies rooted at the earlier start.
    """
    _, core = split_prenex(c)
    nodes = _nodes_with_scope(core)
    failures: list[Failure] = []
    inits = [(n, s) for n, s in nodes if n.kind == "init"]
    for (n1, s1), (n2, s2) in itertools.combinations(inits, 2):
        if n1.svc != n2.svc or not _precedes(s1, s2):
            continue
        for target in n2.principals:
            if not _chain_exists(nodes, n1, s1, n2, s2, target):
                failures.append(Failure(
                    "NotLinear",
                    f"start#{n1.index}({n1.svc}) then start#{n2.index}({n2.svc})",
                    f"active thread {target!r} of the later start has no dependency "
                    f"chain from the earlier one"))
    return Report(not failures, failures)


def _chain_exists(nodes, n1, s1, n2, s2, target: Thread) -> bool:
    """Search for ``n1 <_p ... <_target n2`` through intermediate nodes."""
    between = [(m, sm) for m, sm in nodes
               if n1.index <= m.index <= n2.index
               and _precedes(s1, sm) and _precedes(sm, s2)]
    reach = {n1.index}
    changed = True
    while changed:
        changed = False
        for (m1, _), (m2, _) in itertools.permutations(between, 2):
            if m1.index in reach and m2.index not in reach and m1.index < m2.index:
                deps = _dependency(m1, m2)
                if m2.index == n2.index:
                    if target in deps:
                        return True
                elif deps:
                    reach.add(m2.index)
                    changed = True
    return False


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
    if isinstance(q, KEY_BINDERS):
        bound, q_conts = {"key": p.key}, (rename_key(q.cont, q.key, p.key),)
    elif isinstance(q, VAR_BINDERS) and q.var != p.var:
        bound, q_conts = {"var": p.var}, (rename_var(q.cont, q.var, p.var),)
    steps, reason = _MERGE_RULE[type(p)]
    if map_cont(p, _erased) != map_cont(q, _erased, **bound):
        raise NotMergeable(path, reason)
    merged = iter([merge(a, b, path + step) for a, b, step in zip(p_conts, q_conts, steps)])
    return map_cont(p, lambda _: next(merged))


def mergeable(p: Proc, q: Proc) -> bool:
    try:
        merge(p, q)
        return True
    except NotMergeable:
        return False


# ---------------------------------------------------------------------------
# Thread projection


def project_thread(c: Choreography, thread) -> Proc:
    """Process for one thread; a thread not occurring projects to inaction."""
    if hasattr(thread, "thread"):
        thread = thread.thread
    _, core = split_prenex(c)
    return _project(core, thread)


def _project(c: Choreography, t: Thread) -> Proc:
    match c:
        case End():
            return INACT
        case New(_, _, _):
            raise ProjectionUndefined("projection is defined on restriction-free terms")
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


def epp(c: Choreography) -> Network:
    """Endpoint projection of a restriction-prefixed, restriction-free-core term.

    Threads freed by the leading restrictions are running service instances;
    endpoint processes carry no thread identity, so their components are
    anonymous like the instances a session start spawns.
    """
    binders, core = split_prenex(c)
    for eta in interactions_of(core):
        if isinstance(eta, (Bcast, Reduce, Select)) and (twice := listed_twice(eta)):
            raise ProjectionUndefined(
                f"{describe_interaction(eta)} lists a participant twice: {', '.join(twice)}")
    anonymous = frozenset(name for kind, name in binders if kind == "thread")
    fn = free_names(core)
    components = []
    for t in sorted(fn.threads):
        proc = project_thread(core, t)
        components.append(Component(proc, owner=None if t in anonymous else t))
    queues = tuple(Queue(k, ()) for k in sorted(fn.sessions))
    for svc in sorted(_service_names(core)):
        for role in sorted(fn.roles):
            group = service_merge(core, svc, role)
            if not group:
                continue
            procs = [project_thread(core, s) for s in sorted(group)]
            out = procs[0]
            for other in procs[1:]:
                out = merge(out, other, f"service {svc}[{role}]")
            components.append(Component(out, owner=None, service=(svc, role)))
    restricted = frozenset(name for kind, name in binders if kind == "session")
    return Network(tuple(components), queues, restricted)


# ---------------------------------------------------------------------------
# Pruning


def _strip_replicated(net: Network, keep: frozenset = frozenset()
                      ) -> tuple[Network, tuple[Component, ...]]:
    """Largest set of replicated components whose service is unused elsewhere.

    ``keep`` lists (service, role) groups the pruned side still carries; the
    split may leave any replicated process in place, so those stay.
    """
    stripped = [c for c in net.components
                if c.is_replicated() and (c.service or (c.proc.svc, c.proc.role)) not in keep]
    while True:
        kept = [c for c in net.components if c not in stripped]
        base = Network(tuple(kept), net.queues, net.restricted)
        names = frozenset().union(*(proc_free_names(c.proc) for c in kept)) if kept else frozenset()
        back = [c for c in stripped if c.proc.svc in names]
        if not back:
            return base, tuple(stripped)
        stripped = [c for c in stripped if c not in back]


def _merge_networks(pc: Network, qc: Network) -> Optional[Network]:
    """Component-wise merge of two canonical networks; None when undefined.
    Raises :class:`PruningInconclusive` when pairing a bucket's components
    ran out of its budget."""
    if pc.restricted != qc.restricted or pc.queues != qc.queues:
        return None

    def keyed(net: Network):
        out: dict = {}
        for c in net.components:
            k = ("t", c.owner) if c.owner else ("s", c.service)
            out.setdefault(k, []).append(c)
        return out

    pk, qk = keyed(pc), keyed(qc)
    merged = []
    for k, qcomps in qk.items():
        pcomps = pk.pop(k, [])
        if len(pcomps) > len(qcomps):
            return None
        bucket = _merge_bucket(pcomps, qcomps)
        if bucket is None:
            return None
        merged.extend(bucket)
    if pk:
        return None  # the left network has components the right cannot absorb
    return Network(tuple(merged), qc.queues, qc.restricted)


def _merge_bucket(pcomps, qcomps, limit: int = 720):
    """Pair same-key components across the networks so that each of
    ``pcomps`` merges into its partner without changing it, up to bound
    names; None when no pairing does, and :class:`PruningInconclusive` when
    ``limit`` pairings were tried and more remain."""
    if not pcomps:
        return list(qcomps)
    perms = itertools.permutations(range(len(qcomps)), len(pcomps))
    for tried, assignment in enumerate(perms):
        if tried >= limit:
            raise PruningInconclusive(f"pairing components ran out after {limit} assignments")
        try:
            merged = [merge(pcomps[pi].proc, qcomps[qi].proc) for pi, qi in enumerate(assignment)]
        except NotMergeable:
            continue
        if all(m == qcomps[qi].proc or proc_canon(m) == proc_canon(qcomps[qi].proc)
               for m, qi in zip(merged, assignment)):
            out = list(qcomps)
            for m, qi in zip(merged, assignment):
                out[qi] = replace(qcomps[qi], proc=m)
            return out
    return None


def prunes(p: Network, q: Network, depth: int = 12, _memo=None) -> bool:
    """Decide whether ``q`` is ``p`` plus unused replicated services.

    The simulation clause is checked by bounded co-exploration; running out
    of depth, or of the budget for pairing components, raises
    :class:`PruningInconclusive` rather than answering.  Once ``q``'s unused
    services are stripped, a network equal to ``p`` is answered at once.
    The running verdict keeps each top-level answer, which is final; ``_memo``
    holds one call's provisional coinductive True entries, so it is not shared.
    """
    table = canon_table()
    pc, qc = table.canon(p), table.canon(q)
    if pc == qc:
        return True
    if _memo is None:
        key = (pc, qc, depth)
        answer = table.prune_answers.get(key)
        if answer is None:
            try:
                answer = prunes(pc, qc, depth, {})
            except PruningInconclusive as exc:
                answer = exc
            table.prune_answers[key] = answer
        if isinstance(answer, PruningInconclusive):
            raise answer.with_traceback(None)
        return answer
    key = (pc, qc)
    if key in _memo:
        return _memo[key]
    p_groups = frozenset((c.service or (c.proc.svc, c.proc.role))
                         for c in pc.components if c.is_replicated())
    q0, stripped = _strip_replicated(qc, keep=p_groups)
    q0c = table.canon(q0)
    merged = _merge_networks(pc, q0c)
    if merged is None or table.canon(merged) != q0c:
        _memo[key] = False
        return False
    if depth <= 0:
        raise PruningInconclusive("pruning simulation ran out of depth")
    if q0 == pc:
        return True  # the identity relation is a simulation
    _memo[key] = True  # coinductive reading of the simulation clause
    q_steps = net_enabled(q0)
    p_steps = net_enabled(pc) if q_steps else []
    unsure = False  # some step of q0 only the depth kept from a match
    for label, q0_next in q_steps:
        matched = False  # None: only inconclusive candidates so far
        for p_label, pn in p_steps:
            if p_label != label:
                continue
            try:
                if prunes(pn, q0_next, depth - 1, _memo):
                    matched = True
                    break
            except PruningInconclusive:
                matched = None
        if matched is False:
            _memo[key] = False
            return False
        unsure = unsure or matched is None
    if unsure:
        _memo.pop(key, None)
        raise PruningInconclusive("pruning simulation ran out of depth")
    return True
