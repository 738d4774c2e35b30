"""Linearity by reachability to a fixpoint: the specification that
``projection.check_linearity`` is checked against.

Two session starts on one service race unless each active thread of the
later start is reached by a chain of interaction dependencies rooted at
the earlier one (Carbone, Honda & Yoshida, ESOP 2007).  Here the chain is
searched by growing the reached set over every ordered pair of nodes
between the two starts until nothing changes, and the dependency relation
lists its cases one constructor at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from gcq.captypes import Failure, Report
from gcq.syntax import Bcast, Choreography, End, If, Init, Reduce, Select, Seq, Thread


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
    nodes = _nodes_with_scope(c)
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
