"""Endpoint processes with queue-based collective communication.

Each session has one queue.  A collective output enqueues a message with a
per-recipient delivery flag and parks the sender in a wait state; receivers
synchronize against the flags; the wait state dequeues once the quality
predicate holds over the flags, feeding ``none`` to the stragglers it
leaves behind.  Reduces run the mirror-image protocol with per-contributor
slots.

Networks are parallel compositions of processes, each tagged with the
thread that owns it (queues and replicated service groups are unowned),
under a set of restricted session names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from .syntax import (
    Expr,
    NoneV,
    OptValue,
    Quality,
    Role,
    SomeV,
    Var,
    Q_ALL,
    Q_ANY,
    map_vars,
    q_ratio,
    value_expr,
)
from .parser import ParseError, Token, tokenize, print_expr, _TOKEN_RE as _TOKEN_ANY

# ---------------------------------------------------------------------------
# Process syntax


@dataclass(frozen=True)
class Inact:
    pass


@dataclass(frozen=True)
class Request:
    svc: str
    roles: tuple[Role, ...]  # all session roles; the requester plays roles[0]
    key: str                 # bound in cont
    cont: "Proc"


@dataclass(frozen=True)
class AcceptOnce:
    svc: str
    role: Role
    key: str
    cont: "Proc"


@dataclass(frozen=True)
class AcceptRepl:
    svc: str
    role: Role
    key: str
    cont: "Proc"


@dataclass(frozen=True)
class QOut:
    key: str
    sender: Role
    receivers: tuple[Role, ...]
    quality: Quality
    expr: Expr
    cont: "Proc"


@dataclass(frozen=True)
class InP:
    key: str
    receiver: Role
    sender: Role
    var: str
    cont: "Proc"


@dataclass(frozen=True)
class OutP:
    key: str
    sender: Role
    receiver: Role
    expr: Expr
    cont: "Proc"


@dataclass(frozen=True)
class QIn:
    key: str
    senders: tuple[Role, ...]
    receiver: Role
    quality: Quality
    var: str
    op: str
    cont: "Proc"


@dataclass(frozen=True)
class QSel:
    key: str
    sender: Role
    receivers: tuple[Role, ...]
    quality: Quality
    label: str
    cont: "Proc"


@dataclass(frozen=True)
class Branch:
    key: str
    receiver: Role
    sender: Role
    branches: tuple[tuple[str, "Proc"], ...]

    def __post_init__(self):
        labels = [l for l, _ in self.branches]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate branch labels {labels}")
        if list(labels) != sorted(labels):
            object.__setattr__(self, "branches", tuple(sorted(self.branches)))

    def label_map(self) -> dict[str, "Proc"]:
        return dict(self.branches)


@dataclass(frozen=True)
class WaitOut:
    key: str
    sender: Role
    receivers: tuple[Role, ...]
    cont: "Proc"


@dataclass(frozen=True)
class WaitIn:
    key: str
    senders: tuple[Role, ...]
    receiver: Role
    op: str
    var: str
    cont: "Proc"


@dataclass(frozen=True)
class IfP:
    expr: Expr
    then: "Proc"
    orelse: "Proc"


Proc = Union[Inact, Request, AcceptOnce, AcceptRepl, QOut, InP, OutP, QIn, QSel,
             Branch, WaitOut, WaitIn, IfP]
INACT = Inact()

RUNTIME_ONLY = (WaitOut, WaitIn)


# ---------------------------------------------------------------------------
# Queue messages


@dataclass(frozen=True)
class LabelPayload:
    label: str


Payload = Union[SomeV, NoneV, LabelPayload]


@dataclass(frozen=True)
class OutMsg:
    sender: Role
    quality: Quality
    recipients: tuple[tuple[Role, bool], ...]  # delivery flags
    payload: Payload

    def __post_init__(self):
        roles = [r for r, _ in self.recipients]
        if len(set(roles)) != len(roles):
            raise ValueError(f"duplicate recipient roles {roles}")

    def flags(self) -> list[bool]:
        return [b for _, b in self.recipients]

    def recipient_roles(self) -> frozenset[Role]:
        return frozenset(r for r, _ in self.recipients)


@dataclass(frozen=True)
class InMsg:
    quality: Quality
    contributors: tuple[tuple[Role, bool, OptValue], ...]
    receiver: Role

    def __post_init__(self):
        roles = [r for r, _, _ in self.contributors]
        if len(set(roles)) != len(roles):
            raise ValueError(f"duplicate contributor roles {roles}")

    def flags(self) -> list[bool]:
        return [b for _, b, _ in self.contributors]

    def contributor_roles(self) -> frozenset[Role]:
        return frozenset(r for r, _, _ in self.contributors)


Msg = Union[OutMsg, InMsg]


def msgs_commute(m1: Msg, m2: Msg) -> bool:
    """Adjacent queue messages may be reordered when independent.

    Two collective outputs commute unless they share the sender and overlap
    in recipients; two collective inputs commute unless they overlap in
    contributors and share the receiver.  Mixed pairs commute freely: a
    reduce placeholder is written by its receiver, not by the parties the
    other message orders, and per-participant flags already serialize every
    synchronization.  Without this a receiver that sits out an earlier
    collective could jam the session queue by enqueueing its placeholder
    first, deadlocking projections of well-typed choreographies.
    """
    if isinstance(m1, OutMsg) and isinstance(m2, OutMsg):
        return m1.sender != m2.sender or m1.recipient_roles().isdisjoint(m2.recipient_roles())
    if isinstance(m1, InMsg) and isinstance(m2, InMsg):
        return m1.contributor_roles().isdisjoint(m2.contributor_roles()) or m1.receiver != m2.receiver
    return True


# ---------------------------------------------------------------------------
# Networks


@dataclass(frozen=True)
class Component:
    proc: Proc
    owner: Optional[str] = None          # thread for projected processes
    service: Optional[tuple[str, Role]] = None  # replicated service group tag

    def is_replicated(self) -> bool:
        return isinstance(self.proc, AcceptRepl)


@dataclass(frozen=True)
class Queue:
    key: str
    msgs: tuple[Msg, ...] = ()


@dataclass(frozen=True)
class Network:
    components: tuple[Component, ...] = ()
    queues: tuple[Queue, ...] = ()
    restricted: frozenset[str] = frozenset()

    def queue_for(self, key: str) -> Optional[Queue]:
        for q in self.queues:
            if q.key == key:
                return q
        return None

    def with_queue(self, queue: Queue) -> "Network":
        out = tuple(queue if q.key == queue.key else q for q in self.queues)
        return replace(self, queues=out)


# ---------------------------------------------------------------------------
# Names, renaming, substitution


KEY_BINDERS = (Request, AcceptOnce, AcceptRepl)  # bind ``key`` in ``cont``
VAR_BINDERS = (InP, QIn, WaitIn)                 # bind ``var`` in ``cont``


def proc_conts(p: Proc) -> tuple[Proc, ...]:
    """The direct continuations of a process: ``cont``, both branches of a
    conditional, or the arms of a branching in label order."""
    match p:
        case Inact():
            return ()
        case Branch(_, _, _, branches):
            return tuple(c for _, c in branches)
        case IfP(_, then, orelse):
            return (then, orelse)
        case (Request() | AcceptOnce() | AcceptRepl() | QOut() | InP() | OutP() | QIn()
              | QSel() | WaitOut() | WaitIn()):
            return (p.cont,)
    raise TypeError(f"not a process: {p!r}")


def map_cont(p: Proc, f: Callable[[Proc], Proc], **fields) -> Proc:
    """``p`` with ``f`` applied to each direct continuation, in the order of
    :func:`proc_conts`, and with ``fields`` replaced."""
    match p:
        case Inact():
            return p
        case Branch(_, _, _, branches):
            return replace(p, branches=tuple((l, f(c)) for l, c in branches), **fields)
        case IfP(_, then, orelse):
            return replace(p, then=f(then), orelse=f(orelse), **fields)
    return replace(p, cont=f(p.cont), **fields)


def proc_free_names(p: Proc) -> frozenset[str]:
    """Free session keys and service names of a process."""
    if isinstance(p, KEY_BINDERS):
        return frozenset({p.svc}) | (proc_free_names(p.cont) - {p.key})
    out = frozenset({p.key}) if hasattr(p, "key") else frozenset()
    for c in proc_conts(p):
        out |= proc_free_names(c)
    return out


def rename_key(p: Proc, old: str, new: str) -> Proc:
    """Substitute a free session name (capture by binders stops the walk)."""
    if old == new or isinstance(p, KEY_BINDERS) and p.key == old:
        return p
    fields = {"key": new} if getattr(p, "key", None) == old else {}
    return map_cont(p, lambda c: rename_key(c, old, new), **fields)


def _subst(p: Proc, var: str, e: Expr) -> Proc:
    """Substitute an expression for a free variable (binders stop the walk)."""
    if isinstance(p, VAR_BINDERS) and p.var == var:
        return p
    fields = {}
    if isinstance(p, (QOut, OutP, IfP)):
        fields["expr"] = map_vars(p.expr, lambda x: e if x == var else Var(x))
    return map_cont(p, lambda c: _subst(c, var, e), **fields)


def subst_var(p: Proc, var: str, value: OptValue) -> Proc:
    """Substitute an optional value for a free variable in a process."""
    return _subst(p, var, value_expr(value))


def rename_var(p: Proc, old: str, new: str) -> Proc:
    """Rename a free variable of a process."""
    return _subst(p, old, Var(new))


# ---------------------------------------------------------------------------
# Canonical forms and structural congruence

_BOUND = "κ"  # canonical bound-name prefix


def proc_canon(p: Proc, env: Optional[dict] = None, counter: Optional[list] = None) -> Proc:
    """Rename bound session keys and variables to canonical names.

    Fresh names are numbered in walk order: a binder before its
    continuation, and continuations in the order of :func:`proc_conts`.
    """
    env = env or {}
    counter = counter or [0]
    inner = env
    fields = {}
    if isinstance(p, KEY_BINDERS):
        counter[0] += 1
        fields["key"] = f"{_BOUND}{counter[0]}"
        inner = {**env, ("k", p.key): fields["key"]}
    elif hasattr(p, "key"):
        fields["key"] = env.get(("k", p.key), p.key)
    if isinstance(p, VAR_BINDERS):
        counter[0] += 1
        fields["var"] = f"{_BOUND}{counter[0]}"
        inner = {**env, ("v", p.var): fields["var"]}
    if isinstance(p, (QOut, OutP, IfP)):
        fields["expr"] = map_vars(p.expr, lambda x: Var(env.get(("v", x), x)))
    return map_cont(p, lambda c: proc_canon(c, inner, counter), **fields)


def reachable_msgs(msgs: tuple[Msg, ...]) -> list[int]:
    """Indices of messages that congruence can commute to the queue's head."""
    return [i for i in range(len(msgs))
            if all(msgs_commute(msgs[j], msgs[i]) for j in range(i))]


def queue_canon_msgs(msgs: tuple[Msg, ...]) -> tuple[Msg, ...]:
    """Lexicographic normal form of the queue's trace under the commutation
    rules: repeatedly take the least message, by key, that can reach the head.

    Greedy adjacent swaps can stop at a local minimum; this cannot, so
    congruent queues get the same form (Anisimov & Knuth 1979).
    """
    rest = list(msgs)
    out = []
    while rest:
        i = min(reachable_msgs(rest), key=lambda i: _msg_key(rest[i]))
        out.append(rest.pop(i))
    return tuple(out)


def _msg_key(m: Msg):
    return repr(m)


def net_canon(net: Network) -> Network:
    """Canonical representative modulo structural congruence.

    Inert components vanish, queue messages take their commutation normal
    form, restricted names with an empty queue and no other occurrence are
    garbage collected, remaining restricted names are renumbered by first
    use, and components are sorted.
    """
    comps = [c for c in net.components if c.proc != INACT]
    queues = {q.key: queue_canon_msgs(q.msgs) for q in net.queues}

    used: set[str] = set()
    for c in comps:
        used |= proc_free_names(c.proc)
    for key, msgs in queues.items():
        if msgs:
            used.add(key)

    live_queues = {}
    for key, msgs in queues.items():
        if key in net.restricted and not msgs and key not in used:
            continue  # restricted empty queue no process references: collect it
        live_queues[key] = msgs
        used.add(key)

    restricted = frozenset(n for n in net.restricted if n in used)

    comps_sorted = sorted(
        (Component(proc_canon(c.proc), c.owner, c.service) for c in comps),
        key=_component_key)
    order: dict[str, int] = {}
    for c in comps_sorted:
        for name in _occ_order(c.proc):
            if name not in order:
                order[name] = len(order)
    for key in sorted(live_queues):
        if key not in order:
            order[key] = len(order)

    ren = {}
    for name in sorted(restricted, key=lambda n: (order.get(n, 1 << 30), n)):
        ren[name] = f"{_BOUND}s{len(ren)}"

    def rename_proc(p: Proc) -> Proc:
        for old, new in ren.items():
            p = rename_key(p, old, new)
        return p

    final_comps = tuple(sorted(
        (Component(rename_proc(c.proc), c.owner, c.service) for c in comps_sorted),
        key=_component_key))
    final_queues = tuple(sorted(
        (Queue(ren.get(k, k), m) for k, m in live_queues.items()),
        key=lambda q: q.key))
    return Network(final_comps, final_queues, frozenset(ren.values()))


def _component_key(c: Component):
    return (c.owner or "", c.service or ("", ""), repr(c.proc))


def _occ_order(p: Proc) -> list[str]:
    """The session keys a process acts on, in walk order (binders add none)."""
    out = [] if isinstance(p, KEY_BINDERS) or not hasattr(p, "key") else [p.key]
    for c in proc_conts(p):
        out += _occ_order(c)
    return out


def net_congruent(n1: Network, n2: Network) -> bool:
    """Structural congruence: monoid laws, restriction laws, queue commutation."""
    return net_canon(n1) == net_canon(n2)


# ---------------------------------------------------------------------------
# Text format


def print_proc(p: Proc, indent: str = "") -> str:
    match p:
        case Inact():
            return indent + "end"
        case Request(svc, roles, key, cont):
            return (indent + f"request {svc}[{','.join(roles)}]({key}) .\n"
                    + print_proc(cont, indent))
        case AcceptOnce(svc, role, key, cont):
            return indent + f"accept {svc}[{role}]({key}) .\n" + print_proc(cont, indent)
        case AcceptRepl(svc, role, key, cont):
            return indent + f"accept! {svc}[{role}]({key}) .\n" + print_proc(cont, indent)
        case QOut(key, sender, receivers, quality, expr, cont):
            return (indent + f"out! {key} [{sender} -> {','.join(receivers)}] [{quality}] "
                    f"({print_expr(expr)}) .\n" + print_proc(cont, indent))
        case OutP(key, sender, receiver, expr, cont):
            return (indent + f"out! {key} [{sender} -> {receiver}] ({print_expr(expr)}) .\n"
                    + print_proc(cont, indent))
        case InP(key, receiver, sender, var, cont):
            return (indent + f"in? {key} [{receiver} <- {sender}] ({var}) .\n"
                    + print_proc(cont, indent))
        case QIn(key, senders, receiver, quality, var, op, cont):
            return (indent + f"in? {key} [{receiver} <- {','.join(senders)}] [{quality}] "
                    f"({var}, {op}) .\n" + print_proc(cont, indent))
        case QSel(key, sender, receivers, quality, label, cont):
            return (indent + f"sel! {key} [{sender} -> {','.join(receivers)}] [{quality}] : "
                    f"{label} .\n" + print_proc(cont, indent))
        case Branch(key, receiver, sender, branches):
            arms = []
            for l, c in branches:
                body = print_proc(c, indent + "    ")
                arms.append(indent + f"  {l}:\n" + body)
            return (indent + f"branch? {key} [{receiver} <- {sender}] {{\n"
                    + ",\n".join(arms) + "\n" + indent + "}")
        case IfP(expr, then, orelse):
            return (indent + f"if {print_expr(expr)} {{\n" + print_proc(then, indent + "  ")
                    + "\n" + indent + "} else {\n" + print_proc(orelse, indent + "  ")
                    + "\n" + indent + "}")
        case WaitOut(key, sender, receivers, cont):
            return (indent + f"wait_out {key} [{sender} -> {','.join(receivers)}] .\n"
                    + print_proc(cont, indent))
        case WaitIn(key, senders, receiver, op, var, cont):
            return (indent + f"wait_in {key} [{receiver} <- {','.join(senders)}] ({var}, {op}) .\n"
                    + print_proc(cont, indent))
    raise TypeError(f"not a process: {p!r}")


class _ProcParser:
    """Parser for the source fragment of the process text format."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *texts: str) -> bool:
        return self.peek().text in texts

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", (tok.start, tok.end), (text,))
        return self.next()

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected an identifier, found {tok.text!r}",
                             (tok.start, tok.end), ("identifier",))
        return self.next().text

    def roles(self) -> tuple[str, ...]:
        out = [self.ident()]
        while self.at(","):
            self.next()
            out.append(self.ident())
        return tuple(out)

    def quality(self) -> Quality:
        self.expect("[")
        tok = self.peek()
        if self.at("all"):
            self.next()
            q = Q_ALL
        elif self.at("any"):
            self.next()
            q = Q_ANY
        else:
            if tok.kind != "nat":
                raise ParseError(f"expected a quality, found {tok.text!r}",
                                 (tok.start, tok.end), ("all", "any", "m/n"))
            self.next()
            self.expect("/")
            n = self.next()
            q = q_ratio(int(tok.text), int(n.text))
        self.expect("]")
        return q

    def expr(self) -> Expr:
        from .parser import _Parser
        sub = _Parser.__new__(_Parser)
        sub.text = self.text
        sub.tokens = self.tokens
        sub.pos = self.pos
        sub.lax_select = True
        sub.spans = {}
        sub.in_init = False
        e = sub.expr()
        self.pos = sub.pos
        return e

    def proc(self) -> Proc:
        tok = self.peek()
        if self.at("end"):
            self.next()
            return INACT
        if self.at("request"):
            self.next()
            svc = self.ident()
            self.expect("[")
            roles = self.roles()
            self.expect("]")
            self.expect("(")
            key = self.ident()
            self.expect(")")
            self.expect(".")
            return Request(svc, roles, key, self.proc())
        if self.at("accept"):
            self.next()
            repl = False
            if self.at("!"):
                self.next()
                repl = True
            svc = self.ident()
            self.expect("[")
            role = self.ident()
            self.expect("]")
            self.expect("(")
            key = self.ident()
            self.expect(")")
            self.expect(".")
            cont = self.proc()
            return AcceptRepl(svc, role, key, cont) if repl else AcceptOnce(svc, role, key, cont)
        if tok.text == "out":
            return self._out()
        if tok.text == "in":
            return self._in()
        if tok.text == "sel":
            return self._sel()
        if tok.text == "branch":
            return self._branch()
        if self.at("if"):
            self.next()
            e = self.expr()
            self.expect("{")
            then = self.proc()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            orelse = self.proc()
            self.expect("}")
            return IfP(e, then, orelse)
        raise ParseError(f"expected a process, found {tok.text!r}", (tok.start, tok.end),
                         ("request", "accept", "out", "in", "sel", "branch", "if", "end"))

    def _bang(self):
        tok = self.peek()
        if tok.text != "!" and tok.text != "?":
            raise ParseError(f"expected '!' or '?', found {tok.text!r}", (tok.start, tok.end))
        self.next()

    def _out(self) -> Proc:
        self.next()
        self._bang()
        key = self.ident()
        self.expect("[")
        sender = self.ident()
        self.expect("->")
        targets = self.roles()
        self.expect("]")
        quality = None
        if self.at("["):
            quality = self.quality()
        self.expect("(")
        e = self.expr()
        self.expect(")")
        self.expect(".")
        cont = self.proc()
        if quality is not None:
            return QOut(key, sender, targets, quality, e, cont)
        if len(targets) != 1:
            raise ParseError("plain output has exactly one receiver", (0, 0))
        return OutP(key, sender, targets[0], e, cont)

    def _in(self) -> Proc:
        self.next()
        self._bang()
        key = self.ident()
        self.expect("[")
        receiver = self.ident()
        self.expect("<")
        self.expect("-")
        sources = self.roles()
        self.expect("]")
        quality = None
        if self.at("["):
            quality = self.quality()
        self.expect("(")
        var = self.ident()
        if quality is not None:
            self.expect(",")
            op = self.ident()
            self.expect(")")
            self.expect(".")
            return QIn(key, sources, receiver, quality, var, op, self.proc())
        self.expect(")")
        self.expect(".")
        if len(sources) != 1:
            raise ParseError("plain input has exactly one sender", (0, 0))
        return InP(key, receiver, sources[0], var, self.proc())

    def _sel(self) -> Proc:
        self.next()
        self._bang()
        key = self.ident()
        self.expect("[")
        sender = self.ident()
        self.expect("->")
        targets = self.roles()
        self.expect("]")
        quality = self.quality()
        self.expect(":")
        label = self.ident()
        self.expect(".")
        return QSel(key, sender, targets, quality, label, self.proc())

    def _branch(self) -> Proc:
        self.next()
        self._bang()
        key = self.ident()
        self.expect("[")
        receiver = self.ident()
        self.expect("<")
        self.expect("-")
        sender = self.ident()
        self.expect("]")
        self.expect("{")
        arms = [self._arm()]
        while self.at(","):
            self.next()
            arms.append(self._arm())
        self.expect("}")
        return Branch(key, receiver, sender, tuple(arms))

    def _arm(self) -> tuple[str, Proc]:
        label = self.ident()
        self.expect(":")
        return label, self.proc()


def parse_proc(text: str) -> Proc:
    parser = _ProcParser.__new__(_ProcParser)
    parser.text = text
    parser.tokens = _retokenize(text)
    parser.pos = 0
    p = parser.proc()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", (tok.start, tok.end))
    return p


def _retokenize(text: str) -> list[Token]:
    """The choreography tokens plus the '!' and '?' markers of this format."""
    out = []
    pos = 0
    bang = re.compile(r"[!?]")
    while pos < len(text):
        m = bang.match(text, pos)
        if m:
            out.append(Token("punct", m.group(), m.start(), m.end()))
            pos = m.end()
            continue
        m = _TOKEN_ANY.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", (pos, pos + 1))
        if m.lastgroup != "ws":
            out.append(Token(m.lastgroup, m.group(), m.start(), m.end()))
        pos = m.end()
    out.append(Token("eof", "", len(text), len(text)))
    return out
