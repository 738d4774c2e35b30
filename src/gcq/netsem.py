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
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Union

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
from .semantics import make_policy
from .syntax import (
    NONE,
    OptValue,
    Quality,
    Role,
    SomeV,
    apply_op,
    eval_expr,
    eval_quality,
    fresh_name,
    label_first_sorted,
    opt_to_json,
)

# ---------------------------------------------------------------------------
# Labels


@dataclass(frozen=True)
class ETau:
    pass


@dataclass(frozen=True)
class EUp:
    """An output or selection was appended to its session queue."""


@dataclass(frozen=True)
class EDown:
    """A reduce placeholder was appended to its session queue."""


@dataclass(frozen=True)
class Start:
    actives: tuple[Role, ...]
    services: tuple[Role, ...]
    svc: str
    key: str


@dataclass(frozen=True)
class BcOut:
    sender: Role
    receivers: tuple[Role, ...]
    quality: Quality
    key: str
    payload: OptValue


@dataclass(frozen=True)
class BcIn:
    sender: Role
    receiver: Role
    key: str
    payload: OptValue


@dataclass(frozen=True)
class RdOut:
    sender: Role
    receiver: Role
    key: str
    payload: OptValue


@dataclass(frozen=True)
class RdIn:
    senders: tuple[Role, ...]
    receiver: Role
    quality: Quality
    key: str
    payload: OptValue


@dataclass(frozen=True)
class SelOut:
    sender: Role
    receivers: tuple[Role, ...]
    quality: Quality
    key: str
    label: str


@dataclass(frozen=True)
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


def _eval(expr) -> Optional[OptValue]:
    try:
        return eval_expr(expr, {})
    except (KeyError, TypeError, ValueError):
        return None


def _with_component(net: Network, idx: int, proc: Proc) -> tuple[Component, ...]:
    comps = list(net.components)
    comps[idx] = replace(comps[idx], proc=proc)
    return tuple(comps)


def net_enabled(net: Network, oracle: AvailabilityOracle = ALWAYS, step_index: int = 0
                ) -> list[tuple[ELabel, Network]]:
    """All transitions of the network, deterministically ordered.

    The oracle may withhold the synchronizations of owned components.  The
    verdict's table enumerates a network's transitions once; each call keeps,
    per transition, the first emission the oracle allows.
    """
    table = canon_table()
    steps = table.steps.get(net)
    if steps is None:
        steps = table.steps[net] = _transitions(net, table)
    out = []
    for label, emissions in steps:
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
    """Every (label, canonical successor) once, in successor order, with
    its ``(guard, successor)`` emissions in rule order; a synchronization's
    guard is ``(component, session, message, role)``, other guards are None.

    The successor order is that of the text ``(label, canonical successor)``
    (:func:`syntax.label_first_sorted`)."""
    found: dict = {}

    def emit(label: ELabel, succ: Network, guard=None):
        found.setdefault((label, table.canon(succ)), []).append((guard, succ))

    _init_steps(net, emit)
    _enqueue_steps(net, emit)
    _sync_steps(net, emit)
    _wait_steps(net, emit)
    _if_steps(net, emit)
    return [(key[0], found[key]) for key in label_first_sorted(found)]


def _init_steps(net: Network, emit):
    comps = net.components
    for i, comp in enumerate(comps):
        if not isinstance(comp.proc, Request):
            continue
        req: Request = comp.proc
        remaining = req.roles[1:]
        candidates: list[list[tuple[int, Component]]] = []
        for role in remaining:
            opts = [(j, c) for j, c in enumerate(comps)
                    if j != i and (
                        (isinstance(c.proc, AcceptOnce) and c.proc.svc == req.svc
                         and c.proc.role == role)
                        or (isinstance(c.proc, AcceptRepl) and c.proc.svc == req.svc
                            and c.proc.role == role))]
            candidates.append(opts)
        if any(not opts for opts in candidates):
            continue
        for assignment in itertools.product(*candidates):
            indices = [j for j, _ in assignment]
            if len(set(indices)) != len(indices):
                continue
            used = _net_names(net)
            key = fresh_name(req.key, used)
            new_comps = list(comps)
            new_comps[i] = replace(comp, proc=rename_key(req.cont, req.key, key))
            actives = [req.roles[0]]
            services = []
            for (j, c), role in zip(assignment, remaining):
                body = rename_key(c.proc.cont, c.proc.key, key)
                if isinstance(c.proc, AcceptOnce):
                    actives.append(role)
                    new_comps[j] = replace(c, proc=body)
                else:
                    services.append(role)
                    new_comps.append(Component(body, owner=c.owner, service=None))
            succ = Network(tuple(new_comps), net.queues + (Queue(key, ()),),
                           net.restricted | {key})
            emit(Start(tuple(actives), tuple(services), req.svc, key), succ)


def _enqueue_steps(net: Network, emit):
    for i, comp in enumerate(net.components):
        p = comp.proc
        match p:
            case QOut(key, sender, receivers, quality, expr, cont):
                queue = net.queue_for(key)
                if queue is None:
                    continue
                w = _eval(expr)
                if w is None:
                    continue
                msg = OutMsg(sender, quality, tuple((r, False) for r in receivers), w)
                succ = replace(net, components=_with_component(net, i, WaitOut(key, sender, receivers, cont)))
                emit(EUp(), succ.with_queue(_push(queue, msg)))
            case QSel(key, sender, receivers, quality, label, cont):
                queue = net.queue_for(key)
                if queue is None:
                    continue
                msg = OutMsg(sender, quality, tuple((r, False) for r in receivers),
                             LabelPayload(label))
                succ = replace(net, components=_with_component(net, i, WaitOut(key, sender, receivers, cont)))
                emit(EUp(), succ.with_queue(_push(queue, msg)))
            case QIn(key, senders, receiver, quality, var, op, cont):
                queue = net.queue_for(key)
                if queue is None:
                    continue
                msg = InMsg(quality, tuple((r, False, NONE) for r in senders), receiver)
                succ = replace(net, components=_with_component(
                    net, i, WaitIn(key, senders, receiver, op, var, cont)))
                emit(EDown(), succ.with_queue(_push(queue, msg)))


def _sync_steps(net: Network, emit):
    for i, comp in enumerate(net.components):
        p = comp.proc
        match p:
            case InP(key, receiver, sender, var, cont):
                queue = net.queue_for(key)
                if queue is None:
                    continue
                for idx in reachable_msgs(queue.msgs):
                    msg = queue.msgs[idx]
                    if not isinstance(msg, OutMsg) or msg.sender != sender:
                        continue
                    if isinstance(msg.payload, LabelPayload):
                        continue
                    flags = dict(msg.recipients)
                    if flags.get(receiver) is not False:
                        continue
                    new_msg = replace(msg, recipients=tuple(
                        (r, True if r == receiver else b) for r, b in msg.recipients))
                    succ = replace(net, components=_with_component(
                        net, i, subst_var(cont, var, msg.payload)))
                    emit(BcIn(sender, receiver, key, msg.payload),
                         succ.with_queue(_set_msg(queue, idx, new_msg)),
                         (comp, key, msg, receiver))
            case OutP(key, sender, receiver, expr, cont):
                queue = net.queue_for(key)
                if queue is None:
                    continue
                for idx in reachable_msgs(queue.msgs):
                    msg = queue.msgs[idx]
                    if not isinstance(msg, InMsg) or msg.receiver != receiver:
                        continue
                    slot = next(((r, b, s) for r, b, s in msg.contributors if r == sender), None)
                    if slot is None or slot[1]:
                        continue
                    w = _eval(expr)
                    if w is None:
                        continue
                    new_msg = replace(msg, contributors=tuple(
                        (r, True, w) if r == sender else (r, b, s)
                        for r, b, s in msg.contributors))
                    succ = replace(net, components=_with_component(net, i, cont))
                    emit(RdOut(sender, receiver, key, w),
                         succ.with_queue(_set_msg(queue, idx, new_msg)),
                         (comp, key, msg, sender))
            case Branch(key, receiver, sender, branches):
                queue = net.queue_for(key)
                if queue is None:
                    continue
                for idx in reachable_msgs(queue.msgs):
                    msg = queue.msgs[idx]
                    if not isinstance(msg, OutMsg) or msg.sender != sender:
                        continue
                    if not isinstance(msg.payload, LabelPayload):
                        continue
                    arm = dict(branches).get(msg.payload.label)
                    if arm is None:
                        continue
                    flags = dict(msg.recipients)
                    if flags.get(receiver) is not False:
                        continue
                    new_msg = replace(msg, recipients=tuple(
                        (r, True if r == receiver else b) for r, b in msg.recipients))
                    succ = replace(net, components=_with_component(net, i, arm))
                    emit(SelIn(sender, receiver, key, msg.payload.label),
                         succ.with_queue(_set_msg(queue, idx, new_msg)),
                         (comp, key, msg, receiver))


def _wait_steps(net: Network, emit):
    for i, comp in enumerate(net.components):
        p = comp.proc
        match p:
            case WaitOut(key, sender, receivers, cont):
                queue = net.queue_for(key)
                if queue is None:
                    continue
                for idx in reachable_msgs(queue.msgs):
                    msg = queue.msgs[idx]
                    if not isinstance(msg, OutMsg) or msg.sender != sender:
                        continue
                    if msg.roles() != frozenset(receivers):
                        continue
                    try:
                        if not eval_quality(msg.quality, msg.flags()):
                            continue
                    except Exception:
                        continue
                    stragglers = [r for r, b in msg.recipients if not b]
                    if isinstance(msg.payload, LabelPayload):
                        found = _find_branch_components(net, key, sender, stragglers, i)
                        if found is None:
                            continue
                        comps = [c for j, c in enumerate(net.components)
                                 if j not in found]  # stragglers' branches are dropped
                        comps[_shifted(i, found)] = replace(comp, proc=cont)
                        succ = Network(tuple(comps), net.queues, net.restricted)
                        emit(SelOut(sender, tuple(receivers), msg.quality, key,
                                    msg.payload.label),
                             succ.with_queue(_pop(queue, idx)))
                    else:
                        found = _find_input_components(net, key, sender, stragglers, i)
                        if found is None:
                            continue
                        comps = list(net.components)
                        comps[i] = replace(comp, proc=cont)
                        for j, straggler_role in found:
                            proc = comps[j].proc
                            comps[j] = replace(comps[j],
                                               proc=subst_var(proc.cont, proc.var, NONE))
                        succ = Network(tuple(comps), net.queues, net.restricted)
                        emit(BcOut(sender, tuple(receivers), msg.quality, key, msg.payload),
                             succ.with_queue(_pop(queue, idx)))
            case WaitIn(key, senders, receiver, op, var, cont):
                queue = net.queue_for(key)
                if queue is None:
                    continue
                for idx in reachable_msgs(queue.msgs):
                    msg = queue.msgs[idx]
                    if not isinstance(msg, InMsg) or msg.receiver != receiver:
                        continue
                    if msg.roles() != frozenset(senders):
                        continue
                    try:
                        if not eval_quality(msg.quality, msg.flags()):
                            continue
                    except Exception:
                        continue
                    result = apply_op(op, [s for _, b, s in msg.contributors if b])
                    if not isinstance(result, SomeV):
                        continue
                    stragglers = [r for r, b, _ in msg.contributors if not b]
                    found = _find_output_components(net, key, receiver, stragglers, i)
                    if found is None:
                        continue
                    comps = list(net.components)
                    comps[i] = replace(comp, proc=subst_var(cont, var, result))
                    for j, _ in found:
                        comps[j] = replace(comps[j], proc=comps[j].proc.cont)
                    succ = Network(tuple(comps), net.queues, net.restricted)
                    emit(RdIn(tuple(senders), receiver, msg.quality, key, result),
                         succ.with_queue(_pop(queue, idx)))


def _shifted(i: int, removed: Iterable[int]) -> int:
    return i - sum(1 for j in removed if j < i)


def _find_input_components(net, key, sender, stragglers, skip):
    found = []
    for role in stragglers:
        j = next((j for j, c in enumerate(net.components)
                  if j != skip and isinstance(c.proc, InP) and c.proc.key == key
                  and c.proc.sender == sender and c.proc.receiver == role), None)
        if j is None:
            return None
        found.append((j, role))
    return found


def _find_branch_components(net, key, sender, stragglers, skip):
    found = []
    for role in stragglers:
        j = next((j for j, c in enumerate(net.components)
                  if j != skip and isinstance(c.proc, Branch) and c.proc.key == key
                  and c.proc.sender == sender and c.proc.receiver == role), None)
        if j is None:
            return None
        found.append(j)
    return found


def _find_output_components(net, key, receiver, stragglers, skip):
    found = []
    for role in stragglers:
        j = next((j for j, c in enumerate(net.components)
                  if j != skip and isinstance(c.proc, OutP) and c.proc.key == key
                  and c.proc.receiver == receiver and c.proc.sender == role), None)
        if j is None:
            return None
        found.append((j, role))
    return found


def _if_steps(net: Network, emit):
    for i, comp in enumerate(net.components):
        match comp.proc:
            case IfP(expr, then, orelse):
                w = _eval(expr)
                if w is None:
                    continue
                branch = then if w == SomeV(True) else orelse
                emit(ETau(), replace(net, components=_with_component(net, i, branch)))


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
    quiescent: bool = False

    def to_jsonl(self) -> str:
        lines = [json.dumps(elabel_to_json(i, lab), sort_keys=True)
                 for i, lab in enumerate(self.labels)]
        lines.append(json.dumps({"verdict": self.verdict, "quiescent": self.quiescent},
                                sort_keys=True))
        return "\n".join(lines)


def net_run(net: Network, oracle: AvailabilityOracle = ALWAYS, policy=None,
            max_steps: int = 2000) -> NetTrace:
    pick = make_policy(policy)
    labels: list[ELabel] = []
    for i in range(max_steps):
        options = net_enabled(net, oracle, i)
        if not options:
            if is_quiescent(net):
                return NetTrace(labels, net, "Completed", quiescent=True)
            return NetTrace(labels, net, "Stuck")
        label, net = options[pick(len(options))]
        labels.append(label)
    verdict = "Completed" if is_quiescent(net) else "Budget"
    return NetTrace(labels, net, verdict, quiescent=is_quiescent(net))
