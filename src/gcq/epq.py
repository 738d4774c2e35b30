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

import functools
import itertools
from typing import Callable, Mapping, Optional, Union

from .syntax import (
    Expr,
    NoneV,
    OptValue,
    Quality,
    Role,
    SomeV,
    Var,
    fill_template,
    indented,
    map_vars,
    term,
    value_expr,
)
from .parser import ParseError, print_expr, _Parser, _patterns, _TOKENS

# ---------------------------------------------------------------------------
# Process syntax


@term
class Inact:
    pass


@term
class Request:
    svc: str
    roles: tuple[Role, ...]  # all session roles; the requester plays roles[0]
    key: str                 # bound in cont
    cont: "Proc"


@term
class AcceptOnce:
    svc: str
    role: Role
    key: str
    cont: "Proc"


@term
class AcceptRepl:
    svc: str
    role: Role
    key: str
    cont: "Proc"


@term
class QOut:
    key: str
    sender: Role
    receivers: tuple[Role, ...]
    quality: Quality
    expr: Expr
    cont: "Proc"


@term
class InP:
    key: str
    receiver: Role
    sender: Role
    var: str
    cont: "Proc"


@term
class OutP:
    key: str
    sender: Role
    receiver: Role
    expr: Expr
    cont: "Proc"


@term
class QIn:
    key: str
    senders: tuple[Role, ...]
    receiver: Role
    quality: Quality
    var: str
    op: str
    cont: "Proc"


@term
class QSel:
    key: str
    sender: Role
    receivers: tuple[Role, ...]
    quality: Quality
    label: str
    cont: "Proc"


@term
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


@term
class WaitOut:
    key: str
    sender: Role
    receivers: tuple[Role, ...]
    cont: "Proc"


@term
class WaitIn:
    key: str
    senders: tuple[Role, ...]
    receiver: Role
    op: str
    var: str
    cont: "Proc"


@term
class IfP:
    expr: Expr
    then: "Proc"
    orelse: "Proc"


Proc = Union[Inact, Request, AcceptOnce, AcceptRepl, QOut, InP, OutP, QIn, QSel,
             Branch, WaitOut, WaitIn, IfP]
INACT = Inact()


# ---------------------------------------------------------------------------
# Queue messages


@term
class LabelPayload:
    label: str


Payload = Union[SomeV, NoneV, LabelPayload]


@term
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

    def roles(self) -> frozenset[Role]:
        return frozenset(r for r, _ in self.recipients)


@term
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

    def roles(self) -> frozenset[Role]:
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
        return m1.sender != m2.sender or m1.roles().isdisjoint(m2.roles())
    if isinstance(m1, InMsg) and isinstance(m2, InMsg):
        return m1.roles().isdisjoint(m2.roles()) or m1.receiver != m2.receiver
    return True


# ---------------------------------------------------------------------------
# Networks


@term
class Component:
    proc: Proc
    owner: Optional[str] = None          # thread for projected processes
    service: Optional[tuple[str, Role]] = None  # replicated service group tag

    def is_replicated(self) -> bool:
        return isinstance(self.proc, AcceptRepl)


@term
class Queue:
    key: str
    msgs: tuple[Msg, ...] = ()


@term
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
        return self.replace(queues=out)


# ---------------------------------------------------------------------------
# Names, renaming, substitution


# The scope rule of processes: each binder class and the field it binds in
# ``cont``, a session key or a variable.  :func:`rename` reads it, and so do
# the walks that must not see a bound name.
BINDS = {Request: "key", AcceptOnce: "key", AcceptRepl: "key",
         InP: "var", QIn: "var", WaitIn: "var"}
_HOLDS_EXPR = (QOut, OutP, IfP)  # the processes with an ``expr``


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
            return p.replace(branches=tuple((l, f(c)) for l, c in branches), **fields)
        case IfP(_, then, orelse):
            return p.replace(then=f(then), orelse=f(orelse), **fields)
    return p.replace(cont=f(p.cont), **fields)


def proc_free_names(p: Proc) -> frozenset[str]:
    """Free session keys and service names of a process."""
    if BINDS.get(type(p)) == "key":
        return frozenset({p.svc}) | (proc_free_names(p.cont) - {p.key})
    out = frozenset({p.key}) if hasattr(p, "key") else frozenset()
    for c in proc_conts(p):
        out |= proc_free_names(c)
    return out


def rename(p: Proc, env: Mapping[tuple[str, str], object],
           fresh: Optional[Callable[[], str]] = None) -> Proc:
    """``p`` with each free name in ``env`` replaced, all at once: a session
    ``("key", k)`` by a name, a variable ``("var", x)`` by an expression.  A
    binder hides its own name.  ``fresh``, if given, names every binder anew,
    in walk order: a binder before its continuation, and continuations in
    the order of :func:`proc_conts`.  One pass per name would rename twice a
    name that is both a target and a source, as in ``{a: b, b: a}``."""
    if not env and fresh is None:
        return p
    fields, inner = {}, env
    bound = BINDS.get(type(p))
    if bound is not None:
        name = (bound, getattr(p, bound))
        if fresh is not None:
            new = fields[bound] = fresh()
            inner = {**env, name: Var(new) if bound == "var" else new}
        elif name in env:
            inner = {n: v for n, v in env.items() if n != name}
    if bound != "key" and ("key", getattr(p, "key", None)) in env:
        fields["key"] = env["key", p.key]
    if env and isinstance(p, _HOLDS_EXPR):
        fields["expr"] = map_vars(p.expr, lambda x: env.get(("var", x), Var(x)))
    return map_cont(p, lambda c: rename(c, inner, fresh), **fields)


def rename_key(p: Proc, old: str, new: str) -> Proc:
    """Substitute a free session name (capture by binders stops the walk)."""
    return rename(p, {("key", old): new}) if old != new else p


def subst_var(p: Proc, var: str, value: OptValue) -> Proc:
    """Substitute an optional value for a free variable in a process."""
    return rename(p, {("var", var): value_expr(value)})


# ---------------------------------------------------------------------------
# Canonical forms and structural congruence

_BOUND = "κ"  # canonical bound-name prefix


def proc_canon(p: Proc, avoid: Optional[frozenset] = None) -> Proc:
    """Rename bound session keys and variables to canonical names, numbered
    in the walk order of :func:`rename`.  They skip ``avoid`` (by default
    the free names of ``p``), so no binder captures a free session."""
    avoid = proc_free_names(p) if avoid is None else avoid
    names = (n for n in (f"{_BOUND}{i}" for i in itertools.count(1)) if n not in avoid)
    return rename(p, {}, names.__next__)


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


def net_canon(net: Network, memo: Optional[dict] = None) -> Network:
    """Canonical representative modulo structural congruence.

    Inert components vanish, queue messages take their commutation normal
    form, restricted names with an empty queue and no other occurrence are
    garbage collected, remaining restricted names are renumbered by first
    use in the sorted result, skipping the names of free sessions, and
    components are sorted.

    ``memo`` (a verdict's ``CanonTable.comps``) keeps what each component
    contributes, keyed on the exact component, which a successor shares with
    its parent unless the step changed it: its bound-name canonical form,
    sort key, first-use order and free names; and, keyed on that form and
    the part of the renaming of restricted names that touches it, the
    renamed form and its sort key.
    """
    memo = {} if memo is None else memo
    entries = []
    for c in net.components:
        entry = CanonTable.memo(memo, _comp_entry, c)
        if entry:
            entries.append(entry)
    entries.sort(key=lambda e: e[1])
    queues = {q.key: queue_canon_msgs(q.msgs) for q in net.queues}

    used: set[str] = set()
    for _, _, _, free in entries:
        used.update(free)
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

    taken = used - restricted  # a restricted name must not be renamed onto a free one
    fresh = [f"{_BOUND}s{i}" for i in range(len(used)) if f"{_BOUND}s{i}" not in taken]
    # Number restricted names by first use along the sorted result.  Renaming
    # reorders components, so renumber along the new order until a numbering
    # repeats; at a fixed point the canonical form of a canonical network is
    # that network.
    ranking, tried = _ranking(entries, live_queues, restricted, {}), set()
    while ranking not in tried:
        tried.add(ranking)
        ren = dict(zip(ranking, fresh))
        final = []
        for form, key, occ, free in entries:
            part = tuple((n, ren[n]) for n in free if n in ren)
            if part:
                renamed = memo.get((form, part))
                if renamed is None:
                    env = {("key", old): new for old, new in part}
                    c = Component(rename(form.proc, env), form.owner, form.service)
                    renamed = memo[(form, part)] = (c, _component_key(c))
                final.append(renamed + (occ, free))
            else:
                final.append((form, key, occ, free))
        final.sort(key=lambda e: e[1])
        ranking = _ranking(final, live_queues, restricted, ren)
    final_queues = tuple(sorted(
        (Queue(ren.get(k, k), m) for k, m in live_queues.items()),
        key=lambda q: q.key))
    return Network(tuple(e[0] for e in final), final_queues, frozenset(ren.values()))


def _ranking(entries, queues, restricted, ren) -> tuple:
    """Restricted names in order of first use along ``entries``, then of
    their queue and then of their name, each name as ``ren`` renames it."""
    order: dict[str, int] = {}
    for _, _, occ, _ in entries:
        for name in occ:
            if name not in order:
                order[name] = len(order)
    for key in sorted(queues, key=lambda k: ren.get(k, k)):
        if key not in order:
            order[key] = len(order)
    return tuple(sorted(restricted, key=lambda n: (order.get(n, 1 << 30), ren.get(n, n))))


def _comp_entry(c: Component) -> tuple:
    """``(canonical form, sort key, first-use order, free names)`` of a
    component, or ``()`` if it is inert."""
    if c.proc == INACT:
        return ()
    free = proc_free_names(c.proc)
    form = Component(proc_canon(c.proc, free), c.owner, c.service)
    return (form, _component_key(form), tuple(_occ_order(form.proc)), tuple(sorted(free)))


def _component_key(c: Component):
    return (c.owner or "", c.service or ("", ""), repr(c.proc))


def _occ_order(p: Proc) -> list[str]:
    """The session keys a process acts on, in walk order (binders add none)."""
    out = [] if BINDS.get(type(p)) == "key" or not hasattr(p, "key") else [p.key]
    for c in proc_conts(p):
        out += _occ_order(c)
    return out


class CanonTable:
    """One verdict's memos, each entry computed once and only when read.
    ``forms`` holds the canonical ``Network`` of each network a search asks
    :meth:`canon` for, the searches' state identity, built from ``comps``,
    the per-component memo of :func:`net_canon`.  :meth:`memo` keeps
    ``netsem._transitions`` in ``steps``, keyed on the exact network, since
    labels carry its session keys, ``semantics.enabled`` in
    ``global_steps``, keyed alike, and ``projection.epp`` in
    ``projections``.  ``prune_answers`` maps a top-level ``prunes`` query
    (canonical p, canonical q) to its answer, True or False."""

    def __init__(self):
        self.forms: dict[Network, Network] = {}
        self.comps: dict = {}
        self.steps: dict[Network, list] = {}
        self.global_steps: dict = {}
        self.projections: dict = {}
        self.prune_answers: dict = {}

    def canon(self, net: Network) -> Network:
        form = self.forms.get(net)
        if form is None:
            form = net_canon(net, self.comps)
            self.forms[net] = form = self.forms.setdefault(form, form)
        return form

    @staticmethod
    def memo(store: dict, fn, arg, *rest):
        """``fn(arg, *rest)``, kept in ``store`` under ``arg`` when first read."""
        value = store.get(arg)
        if value is None:
            value = store[arg] = fn(arg, *rest)
        return value


_tables: list[CanonTable] = []  # one per running verdict, innermost last


def per_verdict(search):
    """Give each call of ``search`` a fresh table, dropped when it returns."""
    @functools.wraps(search)
    def run(*args, **kwargs):
        _tables.append(CanonTable())
        try:
            return search(*args, **kwargs)
        finally:
            _tables.pop()
    return run


def canon_table() -> CanonTable:
    """The running verdict's table; outside a verdict, a throwaway one."""
    return _tables[-1] if _tables else CanonTable()


# ---------------------------------------------------------------------------
# Text format

# The one definition of the ``.epq`` text: each process class, the noun its
# errors use, and its text, whose ``{field}`` holes are read by
# ``_HOLES[field]`` and written by ``_SHOWS[field]``.  A role-list field is written
# comma-separated; a single role (``sender``, ``receiver``, ``role``) is
# read as a role list so that several get their own error; ``quality`` is
# written ``[q]``; a nested process is indented.  Each text but those of
# ``_NO_CONT`` is followed by its continuation on the next line.
_PREFIXES = {
    Request: ("session request", "request {svc}[{roles}]({key}) ."),
    AcceptOnce: ("accept", "accept {svc}[{role}]({key}) ."),
    AcceptRepl: ("replicated accept", "accept! {svc}[{role}]({key}) ."),
    QOut: ("collective output", "out! {key} [{sender} -> {receivers}] {quality} ({expr}) ."),
    OutP: ("plain output", "out! {key} [{sender} -> {receiver}] ({expr}) ."),
    InP: ("plain input", "in? {key} [{receiver} <- {sender}] ({var}) ."),
    QIn: ("collective input", "in? {key} [{receiver} <- {senders}] {quality} ({var}, {op}) ."),
    QSel: ("selection", "sel! {key} [{sender} -> {receivers}] {quality} : {label} ."),
    Branch: ("branching", "branch? {key} [{receiver} <- {sender}] {{\n{branches}\n}}"),
    WaitOut: ("output wait", "wait_out {key} [{sender} -> {receivers}] ."),
    WaitIn: ("input wait", "wait_in {key} [{receiver} <- {senders}] ({var}, {op}) ."),
    IfP: ("conditional", "if {expr} {{\n{then}\n}} else {{\n{orelse}\n}}"),
    Inact: ("inaction", "end"),
}
_NO_CONT = (Branch, IfP, Inact)
_NESTED = ("then", "orelse", "branches")  # the fields that hold processes
_ONE_ROLE = frozenset({"sender", "receiver", "role"})
_ROLE_LISTS = ("roles", "senders", "receivers")
_HOLES = {"quality": _Parser.quality, "expr": _Parser.expr, "op": _Parser.agg_op,
          **dict.fromkeys((*_ONE_ROLE, *_ROLE_LISTS), _Parser.roles),
          **dict.fromkeys(("svc", "key", "var", "label"), _Parser.ident),
          **dict.fromkeys(("then", "orelse"), lambda p: p.proc()),
          "branches": lambda p: p.comma_list(p.pair, _Parser.ident, ":", _ProcParser.proc)}


def _show_arms(arms: tuple[tuple[str, Proc], ...]) -> str:
    """A branching's arms, each its label and then its process, indented.  A
    plain loop that ``fill_template`` calls directly, so that a nested arm
    costs three frames: this function, :func:`print_proc` and ``fill_template``."""
    texts = []
    for label, c in arms:
        texts.append(indented(f"{label}:\n" + indented(print_proc(c))))
    return ",\n".join(texts)


_SHOWS = {"quality": "[{}]".format, "expr": print_expr, **dict.fromkeys(_ROLE_LISTS, ",".join),
          **dict.fromkeys(("then", "orelse"), lambda p: indented(print_proc(p))),
          "branches": _show_arms}


def print_proc(p: Proc) -> str:
    """The text of ``p`` in the ``.epq`` format: the texts from :data:`_PREFIXES`
    of each prefix of its chain, one per line, in a loop, so that only a nested
    process costs stack.  :func:`parse_proc` reads it back equal."""
    lines = []
    while True:
        if type(p) not in _PREFIXES:
            raise TypeError(f"not a process: {p!r}")
        lines.append(fill_template(_PREFIXES[type(p)][1], p, _SHOWS))
        if isinstance(p, _NO_CONT):
            return "\n".join(lines)
        p = p.cont


class _ProcParser(_Parser):
    """Parser for the ``.epq`` text: the choreography tokens plus the '!'
    and '?' markers."""

    patterns = _patterns(r"[!?] | " + _TOKENS)

    def proc(self) -> Proc:
        """A process: the prefixes of its chain read in a loop, up to the first
        of :data:`_NO_CONT`, and then built inside out."""
        chain = [self.form(_ROWS, "a process")]
        while chain[-1][0] not in _NO_CONT:
            chain.append(self.form(_ROWS, "a process"))
        cls, fields = chain.pop()
        p = cls(**fields)
        for cls, fields in reversed(chain):
            p = cls(**fields, cont=p)
        return p

    def read_form(self, cls: type, steps: tuple) -> dict:
        """The fields of a ``cls`` whose text has these steps.  Several roles in a
        single-role field fail once the rest has matched up to the first nested
        process, as the furthest failure."""
        kw = self.pos
        cut = next((i for i, step in enumerate(steps) if step[1] in _NESTED), len(steps))
        fields = self.read_template(steps[:cut])
        if several := [name for name in fields if name in _ONE_ROLE and len(fields[name]) > 1]:
            raise ParseError(f"{_PREFIXES[cls][0]} has exactly one {several[0]}", self.span(kw))
        fields.update(self.read_template(steps[cut:]))
        return {name: value[0] if name in _ONE_ROLE else value
                for name, value in fields.items()}


def parse_proc(text: str) -> Proc:
    """The process that ``text`` writes in the ``.epq`` format.  A process is
    read by trying the texts of :data:`_PREFIXES` with its keyword in order,
    so those that share it are told apart by what follows it; when none
    matches, the failure that got furthest is raised as a :class:`ParseError`
    with its span."""
    parser = _ProcParser(text)
    p = parser.proc()
    if parser.peek():
        raise ParseError(f"trailing input {parser.peek()!r}", parser.span(parser.pos))
    return p


_ROWS = _ProcParser.rows({cls: text for cls, (_, text) in _PREFIXES.items()}, _HOLES)
