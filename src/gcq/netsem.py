"""Operational semantics of endpoint networks.

Thirteen rules, closed under structural congruence: session initiation,
enqueue rules for collective output / selection / reduce, per-participant
synchronization against queue flags, and wait-state releases that dequeue
once the quality predicate holds.  An availability oracle may withhold a
participant's synchronization (inputs, contributions, branch receptions);
enqueues, wait releases and initiations are never withheld, mirroring the
sender-precedence of the calculus.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Union

from .epq import (
    AcceptOnce,
    AcceptRepl,
    Branch,
    Component,
    IfP,
    INACT,
    InMsg,
    InP,
    LabelPayload,
    Msg,
    Network,
    OutMsg,
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
    proc_free_names,
    reachable_msgs,
    rename_key,
    subst_var,
)
from .schedule import ALWAYS, AvailabilityOracle
from .semantics import MAX_STEPS, drive
from .syntax import (
    ArityMismatch,
    NONE,
    OptValue,
    Quality,
    Role,
    SomeV,
    apply_op,
    eval_closed,
    eval_quality,
    fresh_name,
    label_first_sorted,
    opt_to_json,
    stable_repr,
    term,
)

# ---------------------------------------------------------------------------
# Labels


@term
class ETau:
    pass


@term
class EUp:
    """An output or selection was appended to its session queue."""


@term
class EDown:
    """A reduce placeholder was appended to its session queue."""


@term
class Start:
    actives: tuple[Role, ...]
    services: tuple[Role, ...]
    svc: str
    key: str


@term
class BcOut:
    sender: Role
    receivers: tuple[Role, ...]
    quality: Quality
    key: str
    payload: OptValue


@term
class BcIn:
    sender: Role
    receiver: Role
    key: str
    payload: OptValue


@term
class RdOut:
    sender: Role
    receiver: Role
    key: str
    payload: OptValue


@term
class RdIn:
    senders: tuple[Role, ...]
    receiver: Role
    quality: Quality
    key: str
    payload: OptValue


@term
class SelOut:
    sender: Role
    receivers: tuple[Role, ...]
    quality: Quality
    key: str
    label: str


@term
class SelIn:
    sender: Role
    receiver: Role
    key: str
    label: str


ELabel = Union[ETau, EUp, EDown, Start, BcOut, BcIn, RdOut, RdIn, SelOut, SelIn]


def elabel_to_json(step: int, lab: ELabel) -> dict:
    base = {"step": step, "side": "endpoint"}
    match lab:
        case ETau():
            return {**base, "kind": "tau"}
        case EUp():
            return {**base, "kind": "enqueue-up"}
        case EDown():
            return {**base, "kind": "enqueue-down"}
        case Start(actives, services, svc, key):
            return {**base, "kind": "start", "session": key, "service": svc,
                    "actives": list(actives), "services": list(services)}
        case BcOut(sender, receivers, quality, key, payload):
            return {**base, "kind": "bcast-out", "session": key, "sender": sender,
                    "receivers": list(receivers), "quality": str(quality),
                    "value": opt_to_json(payload)}
        case BcIn(sender, receiver, key, payload):
            return {**base, "kind": "bcast-in", "session": key, "sender": sender,
                    "receiver": receiver, "value": opt_to_json(payload)}
        case RdOut(sender, receiver, key, payload):
            return {**base, "kind": "reduce-out", "session": key, "sender": sender,
                    "receiver": receiver, "value": opt_to_json(payload)}
        case RdIn(senders, receiver, quality, key, payload):
            return {**base, "kind": "reduce-in", "session": key, "senders": list(senders),
                    "receiver": receiver, "quality": str(quality), "value": opt_to_json(payload)}
        case SelOut(sender, receivers, quality, key, label):
            return {**base, "kind": "select-out", "session": key, "sender": sender,
                    "receivers": list(receivers), "quality": str(quality), "label": label}
        case SelIn(sender, receiver, key, label):
            return {**base, "kind": "select-in", "session": key, "sender": sender,
                    "receiver": receiver, "label": label}
    raise TypeError(f"not a label: {lab!r}")


# ---------------------------------------------------------------------------
# Queue access modulo commutation


def _pop(queue: Queue, idx: int) -> Queue:
    return Queue(queue.key, queue.msgs[:idx] + queue.msgs[idx + 1:])


def _set_msg(queue: Queue, idx: int, msg: Msg) -> Queue:
    return Queue(queue.key, queue.msgs[:idx] + (msg,) + queue.msgs[idx + 1:])


def _push(queue: Queue, msg: Msg) -> Queue:
    return Queue(queue.key, queue.msgs + (msg,))


# ---------------------------------------------------------------------------
# Transition enumeration


def _net_names(net: Network) -> frozenset[str]:
    out = set(net.restricted)
    for c in net.components:
        out |= proc_free_names(c.proc)
    for q in net.queues:
        out.add(q.key)
    return frozenset(out)


def net_enabled(net: Network, oracle: AvailabilityOracle = ALWAYS, step_index: int = 0
                ) -> list[tuple[ELabel, Network]]:
    """All transitions of the network, deterministically ordered.

    The oracle may withhold the synchronizations of owned components.  The
    verdict's table enumerates a network's transitions once; each call keeps,
    per transition, the first emission the oracle allows.
    """
    table = canon_table()
    out = []
    for label, emissions in table.memo(table.steps, _transitions, net, table):
        succ = next((s for guard, s in emissions if sync_allowed(oracle, step_index, guard)),
                    None)
        if succ is not None:
            out.append((label, succ))
    return out


def sync_allowed(oracle: AvailabilityOracle, step_index: int, guard) -> bool:
    """Whether the oracle lets an emission with this guard fire at the step."""
    if guard is None or guard[0].owner is None:
        return True
    comp, session, msg, role = guard
    return oracle.allows(step_index, session, comp.owner, role, msg.quality, msg.roles())


def _transitions(net: Network, table) -> list[tuple[ELabel, list]]:
    """Every (label, successor up to congruence) once, in successor order,
    with its ``(guard, successor)`` emissions in component and then queue
    order; a synchronization's guard is ``(component, session, message,
    role)``, other guards are None.

    The successor order is that of the text ``(label, canonical successor)``
    (:func:`syntax.label_first_sorted`), and each label comes from one rule,
    so the order in which the rules run does not show.  A successor is
    canonicalized only where this result depends on it: when its label has
    other emissions, whose congruent successors merge, and when label texts
    tie or one is a prefix of another, so that the order reads successors.
    A network with one emission renders no text."""
    pairs: dict = {}  # (label, canonical successor, or a lone one) -> emissions
    for label, emissions in _emissions(net).items():
        if len(emissions) == 1:
            pairs[label, _Lone(emissions[0][1], table)] = emissions
            continue
        for emission in emissions:
            pairs.setdefault((label, table.canon(emission[1])), []).append(emission)
    order = label_first_sorted(pairs) if len(pairs) > 1 else pairs
    return [(key[0], pairs[key]) for key in order]


class _Lone:
    """The only successor of its label, in a sort key: its text is that of
    its canonical form, computed if the sort reads it."""

    __slots__ = ("succ", "table")

    def __init__(self, succ: Network, table):
        self.succ, self.table = succ, table

    def __repr__(self) -> str:
        return stable_repr(self.table.canon(self.succ))


def _emissions(net: Network) -> dict:
    """Each label's ``(guard, successor)`` emissions under the thirteen
    rules, in component and then queue order."""
    found: dict = {}

    def emit(label: ELabel, succ: Network, guard=None):
        found.setdefault(label, []).append((guard, succ))

    names = None  # the network's names, for the key of a new session
    for i, comp in enumerate(net.components):
        p = comp.proc
        match p:
            case Request():
                names = names or _net_names(net)
                _start_steps(net, i, names, emit)
            case QOut(key, sender, receivers, quality, what, cont) | QSel(
                    key, sender, receivers, quality, what, cont):
                queue = net.queue_for(key)
                payload = LabelPayload(what) if isinstance(p, QSel) else eval_closed(what)
                if queue is not None and payload is not None:
                    msg = OutMsg(sender, quality, tuple((r, False) for r in receivers), payload)
                    emit(EUp(), _step(net, i, WaitOut(key, sender, receivers, cont),
                                      _push(queue, msg)))
            case QIn(key, senders, receiver, quality, var, op, cont):
                queue = net.queue_for(key)
                if queue is not None:
                    msg = InMsg(quality, tuple((r, False, NONE) for r in senders), receiver)
                    emit(EDown(), _step(net, i, WaitIn(key, senders, receiver, op, var, cont),
                                        _push(queue, msg)))
            case InP(key, receiver, sender) | Branch(key, receiver, sender):
                for queue, idx, msg in _messages(net, key, OutMsg, sender, receiver):
                    if isinstance(msg.payload, LabelPayload) != isinstance(p, Branch):
                        continue
                    if isinstance(p, Branch):
                        nxt = p.label_map().get(msg.payload.label)
                        if nxt is None:
                            continue
                        label = SelIn(sender, receiver, key, msg.payload.label)
                    else:
                        label = BcIn(sender, receiver, key, msg.payload)
                        nxt = subst_var(p.cont, p.var, msg.payload)
                    delivered = msg.replace(recipients=tuple(
                        (r, b or r == receiver) for r, b in msg.recipients))
                    emit(label, _step(net, i, nxt, _set_msg(queue, idx, delivered)),
                         (comp, key, msg, receiver))
            case OutP(key, sender, receiver, expr, cont):
                for queue, idx, msg in _messages(net, key, InMsg, receiver, sender):
                    w = eval_closed(expr)
                    if w is None:
                        continue
                    delivered = msg.replace(contributors=tuple(
                        (r, True, w) if r == sender else (r, b, s)
                        for r, b, s in msg.contributors))
                    emit(RdOut(sender, receiver, key, w),
                         _step(net, i, cont, _set_msg(queue, idx, delivered)),
                         (comp, key, msg, sender))
            case WaitOut(key, party, others) | WaitIn(key, others, party):
                kind = OutMsg if isinstance(p, WaitOut) else InMsg
                for queue, idx, msg in _messages(net, key, kind, party, None):
                    try:
                        if msg.roles() != frozenset(others) or not eval_quality(
                                msg.quality, msg.flags()):
                            continue
                    except ArityMismatch:  # no flags, or a ratio of another arity
                        continue
                    released = _release(net, i, queue, idx)
                    if released is not None:
                        emit(*released)
            case IfP(expr, then, orelse):
                w = eval_closed(expr)
                if w is not None:
                    emit(ETau(), _step(net, i, then if w == SomeV(True) else orelse))
    return found


def _step(net: Network, i: int, proc: Proc, queue: Optional[Queue] = None) -> Network:
    """``net`` with component ``i`` become ``proc`` and ``queue`` replacing
    the queue of its session."""
    comps = list(net.components)
    comp = comps[i]
    comps[i] = Component(proc, comp.owner, comp.service)
    queues = net.queues if queue is None else tuple(
        queue if q.key == queue.key else q for q in net.queues)
    return Network(tuple(comps), queues, net.restricted)


def _messages(net: Network, key: str, kind: type, party: Role, role: Optional[Role]):
    """``(queue, idx, msg)`` for each message of ``kind`` on session ``key``
    that congruence can bring to the head, sent by ``party`` (an output or
    selection) or received by it (a reduce), and, unless ``role`` is None,
    whose slot for ``role`` is still open."""
    queue = net.queue_for(key)
    if queue is None:
        return
    for idx in reachable_msgs(queue.msgs):
        msg = queue.msgs[idx]
        if not isinstance(msg, kind):
            continue
        if kind is OutMsg:
            owner, slots = msg.sender, msg.recipients
        else:
            owner, slots = msg.receiver, msg.contributors
        if owner == party and (role is None or any(
                r == role and b is False for r, b, *_ in slots)):
            yield queue, idx, msg


def _start_steps(net: Network, i: int, names: frozenset[str], emit):
    """Session starts of the request at component ``i``: each assignment of
    other components that accept its service under its other roles."""
    comps = net.components
    comp = comps[i]
    req: Request = comp.proc
    remaining = req.roles[1:]
    candidates = [[(j, c) for j, c in enumerate(comps)
                   if j != i and isinstance(c.proc, (AcceptOnce, AcceptRepl))
                   and c.proc.svc == req.svc and c.proc.role == role]
                  for role in remaining]
    for assignment in itertools.product(*candidates):
        indices = [j for j, _ in assignment]
        if len(set(indices)) != len(indices):
            continue
        key = fresh_name(req.key, names)
        new_comps = list(comps)
        new_comps[i] = comp.replace(proc=rename_key(req.cont, req.key, key))
        actives = [req.roles[0]]
        services = []
        for (j, c), role in zip(assignment, remaining):
            body = rename_key(c.proc.cont, c.proc.key, key)
            if isinstance(c.proc, AcceptOnce):
                actives.append(role)
                new_comps[j] = c.replace(proc=body)
            else:
                services.append(role)
                new_comps.append(Component(body, owner=c.owner, service=None))
        succ = Network(tuple(new_comps), net.queues + (Queue(key, ()),),
                       net.restricted | {key})
        emit(Start(tuple(actives), tuple(services), req.svc, key), succ)


def _release(net: Network, i: int, queue: Queue, idx: int) -> Optional[tuple[ELabel, Network]]:
    """The label and successor of the wait state at component ``i``
    dequeueing message ``idx`` of its queue: the waiter continues, and each
    straggler's input takes ``none``, its branching is dropped, or its
    contribution is left out.  None if a straggler has not reached its
    prefix, or if a reduce yields no value."""
    p, msg = net.components[i].proc, queue.msgs[idx]
    comps = list(net.components)
    if isinstance(p, WaitIn):
        result = apply_op(p.op, [s for _, b, s in msg.contributors if b])
        if not isinstance(result, SomeV):
            return None
        peers = _peers(net, OutP, p.key, [(r, p.receiver) for r, b, _ in msg.contributors
                                          if not b], i)
        if peers is None:
            return None
        comps[i] = comps[i].replace(proc=subst_var(p.cont, p.var, result))
        for j in peers:
            comps[j] = comps[j].replace(proc=comps[j].proc.cont)
        label = RdIn(tuple(p.senders), p.receiver, msg.quality, p.key, result)
    else:
        selection = isinstance(msg.payload, LabelPayload)
        peers = _peers(net, Branch if selection else InP, p.key,
                       [(p.sender, r) for r, b in msg.recipients if not b], i)
        if peers is None:
            return None
        comps[i] = comps[i].replace(proc=p.cont)
        if selection:
            comps = [c for j, c in enumerate(comps) if j not in peers]
            label = SelOut(p.sender, tuple(p.receivers), msg.quality, p.key, msg.payload.label)
        else:
            for j in peers:
                proc = comps[j].proc
                comps[j] = comps[j].replace(proc=subst_var(proc.cont, proc.var, NONE))
            label = BcOut(p.sender, tuple(p.receivers), msg.quality, p.key, msg.payload)
    succ = Network(tuple(comps), net.queues, net.restricted)
    return label, succ.with_queue(_pop(queue, idx))


def _peers(net: Network, cls: type, key: str, ends: list[tuple[Role, Role]], skip: int
           ) -> Optional[list[int]]:
    """For each ``(sender, receiver)`` pair of ``ends``, the first component
    but ``skip`` whose process is a ``cls`` prefix on ``key`` between them;
    None if some pair has none."""
    found = []
    for end in ends:
        j = next((j for j, c in enumerate(net.components)
                  if j != skip and isinstance(c.proc, cls) and c.proc.key == key
                  and (c.proc.sender, c.proc.receiver) == end), None)
        if j is None:
            return None
        found.append(j)
    return found


# ---------------------------------------------------------------------------
# Runs


def is_quiescent(net: Network) -> bool:
    """Only replicated services and empty queues remain."""
    for c in net.components:
        if not c.is_replicated() and c.proc != INACT:
            return False
    return all(not q.msgs for q in net.queues)


@dataclass
class NetTrace:
    labels: list[ELabel]
    final: Network
    verdict: str  # Completed | Stuck | Budget

    @property
    def quiescent(self) -> bool:
        """A run completes exactly when it ends in a quiescent network."""
        return self.verdict == "Completed"

    def to_jsonl(self) -> str:
        lines = [json.dumps(elabel_to_json(i, lab), sort_keys=True)
                 for i, lab in enumerate(self.labels)]
        lines.append(json.dumps({"verdict": self.verdict, "quiescent": self.quiescent},
                                sort_keys=True))
        return "\n".join(lines)


def net_run(net: Network, oracle: AvailabilityOracle = ALWAYS, policy: int | None = None,
            max_steps: int = MAX_STEPS) -> NetTrace:
    return NetTrace(*drive(net, lambda n, i: net_enabled(n, oracle, i), is_quiescent,
                           policy, max_steps))
