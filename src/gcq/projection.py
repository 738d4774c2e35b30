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
    Inact,
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
    net_canon,
    proc_free_names,
    rename_key,
    rename_var,
)
from .captypes import Failure, Report
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
    """Branch merging failed somewhere inside a conditional."""


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


def merge(p: Proc, q: Proc, path: str = "") -> Proc:
    """Join two alternative behaviours of one endpoint.

    Label branchings with the same session and roles union their arms,
    merging shared labels recursively; everything else must agree up to
    bound-name renaming.
    """
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
    match p:
        case Inact():
            return p
        case Request(svc, roles, key, cont):
            if (svc, roles) != (q.svc, q.roles):
                raise NotMergeable(path, "different session requests")
            return Request(svc, roles, key, merge(cont, rename_key(q.cont, q.key, key), path + "/req"))
        case AcceptOnce(svc, role, key, cont) | AcceptRepl(svc, role, key, cont):
            if (svc, role) != (q.svc, q.role):
                raise NotMergeable(path, "different session accepts")
            return replace(p, cont=merge(cont, rename_key(q.cont, q.key, key), path + "/acc"))
        case QOut(key, sender, receivers, quality, expr, cont):
            if (key, sender, receivers, quality, expr) != (q.key, q.sender, q.receivers,
                                                           q.quality, q.expr):
                raise NotMergeable(path, "different collective outputs")
            return replace(p, cont=merge(cont, q.cont, path + "/out"))
        case OutP(key, sender, receiver, expr, cont):
            if (key, sender, receiver, expr) != (q.key, q.sender, q.receiver, q.expr):
                raise NotMergeable(path, "different outputs")
            return replace(p, cont=merge(cont, q.cont, path + "/out"))
        case InP(key, receiver, sender, var, cont):
            if (key, receiver, sender) != (q.key, q.receiver, q.sender):
                raise NotMergeable(path, "different inputs")
            qc = q.cont if q.var == var else rename_var(q.cont, q.var, var)
            return replace(p, cont=merge(cont, qc, path + "/in"))
        case QIn(key, senders, receiver, quality, var, op, cont):
            if (key, senders, receiver, quality, op) != (q.key, q.senders, q.receiver,
                                                         q.quality, q.op):
                raise NotMergeable(path, "different collective inputs")
            qc = q.cont if q.var == var else rename_var(q.cont, q.var, var)
            return replace(p, cont=merge(cont, qc, path + "/in"))
        case QSel(key, sender, receivers, quality, label, cont):
            if (key, sender, receivers, quality, label) != (q.key, q.sender, q.receivers,
                                                            q.quality, q.label):
                raise NotMergeable(path, "different selections")
            return replace(p, cont=merge(cont, q.cont, path + "/sel"))
        case WaitOut(key, sender, receivers, cont):
            if (key, sender, receivers) != (q.key, q.sender, q.receivers):
                raise NotMergeable(path, "different wait states")
            return replace(p, cont=merge(cont, q.cont, path + "/wait"))
        case WaitIn(key, senders, receiver, op, var, cont):
            if (key, senders, receiver, op) != (q.key, q.senders, q.receiver, q.op):
                raise NotMergeable(path, "different wait states")
            qc = q.cont if q.var == var else rename_var(q.cont, q.var, var)
            return replace(p, cont=merge(cont, qc, path + "/wait"))
        case IfP(expr, then, orelse):
            if expr != q.expr:
                raise NotMergeable(path, "different conditional guards")
            return IfP(expr, merge(then, q.then, path + "/then"),
                       merge(orelse, q.orelse, path + "/else"))
    raise TypeError(f"not a process: {p!r}")


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
    match c:
        case End():
            return frozenset()
        case New(_, _, body):
            return service_merge(body, svc, role)
        case If(_, _, then, orelse):
            return service_merge(then, svc, role) | service_merge(orelse, svc, role)
        case Seq(inter, cont):
            out = service_merge(cont, svc, role)
            if isinstance(inter, Init) and inter.svc == svc:
                out |= frozenset(p.thread for p in inter.services if p.role == role)
            return out
    raise TypeError(f"not a choreography: {c!r}")


def _service_names(c: Choreography) -> frozenset[str]:
    return frozenset(eta.svc for eta in interactions_of(c) if isinstance(eta, Init))


def _roles_of(c: Choreography) -> frozenset[str]:
    return free_names(c).roles


def epp(c: Choreography) -> Network:
    """Endpoint projection of a restriction-prefixed, restriction-free-core term.

    Threads freed by the leading restrictions are running service instances;
    endpoint processes carry no thread identity, so their components are
    anonymous like the instances a session start spawns.
    """
    binders, core = split_prenex(c)
    anonymous = frozenset(name for kind, name in binders if kind == "thread")
    fn = free_names(core)
    components = []
    for t in sorted(fn.threads):
        proc = project_thread(core, t)
        components.append(Component(proc, owner=None if t in anonymous else t))
    queues = tuple(Queue(k, ()) for k in sorted(fn.sessions))
    for svc in sorted(_service_names(core)):
        for role in sorted(_roles_of(core)):
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


def _merge_networks(p: Network, q: Network) -> Optional[Network]:
    """Component-wise merge of two networks; None when undefined."""
    pc = net_canon(p)
    qc = net_canon(q)
    if pc.restricted != qc.restricted:
        return None
    if tuple(sorted((qu.key, qu.msgs) for qu in pc.queues)) != \
            tuple(sorted((qu.key, qu.msgs) for qu in qc.queues)):
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
    """Pair same-key components across the networks by mergeability."""
    if not pcomps:
        return list(qcomps)
    perms = itertools.permutations(range(len(qcomps)), len(pcomps))
    for tried, assignment in enumerate(perms):
        if tried >= limit:
            return None
        try:
            out = list(qcomps)
            for pi, qi in enumerate(assignment):
                out[qi] = replace(qcomps[qi],
                                  proc=merge(pcomps[pi].proc, qcomps[qi].proc))
            return out
        except NotMergeable:
            continue
    return None


def prunes(p: Network, q: Network, depth: int = 12, _memo=None) -> bool:
    """Decide whether ``q`` is ``p`` plus unused replicated services.

    The simulation clause is checked by bounded co-exploration; running out
    of depth raises :class:`PruningInconclusive` rather than answering.
    """
    from .netsem import net_enabled

    if _memo is None:
        _memo = {}
    pc, qc = net_canon(p), net_canon(q)
    if pc == qc:
        return True
    key = (repr(pc), repr(qc))
    if key in _memo:
        return _memo[key]
    _memo[key] = True  # coinductive reading of the simulation clause
    p_groups = frozenset((c.service or (c.proc.svc, c.proc.role))
                         for c in pc.components if c.is_replicated())
    q0, stripped = _strip_replicated(qc, keep=p_groups)
    merged = _merge_networks(pc, q0)
    if merged is None or net_canon(merged) != net_canon(q0):
        _memo[key] = False
        return False
    if depth <= 0:
        _memo.pop(key, None)
        raise PruningInconclusive("pruning simulation ran out of depth")
    for label, q0_next in net_enabled(q0):
        candidates = [pn for pl, pn in net_enabled(pc) if pl == label]
        ok = False
        for pn in candidates:
            try:
                if prunes(pn, q0_next, depth - 1, _memo):
                    ok = True
                    break
            except PruningInconclusive:
                continue
        if not ok:
            _memo[key] = False
            return False
    return True
