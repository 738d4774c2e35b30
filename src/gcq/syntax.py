"""Core terms, states and labels for quality choreographies.

A choreography is a sequence of collective interactions (session start,
broadcast, reduce, label selection) between annotated threads, closed by
conditionals and inaction.  Every thread annotation carries a pair of
capability sets ``{req; off}``: the capabilities a thread must hold before
engaging, and the ones it offers afterwards.  A quality predicate on each
collective interaction states which subsets of the candidate participants
are enough for the interaction to fire.

All values in this module are immutable; they can be shared freely between
concurrent readers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Iterable, Iterator, Mapping, Union

Thread = str
Role = str
SessionKey = str
ServiceName = str
VarName = str
LabelName = str
CapAtom = str

AGG_OPS = ("avg", "max", "min", "sum", "id")


class ArityMismatch(ValueError):
    """Quality predicate applied to a flag vector of the wrong length."""


class Stuck(RuntimeError):
    """No transition is available and the term is not finished."""


# ---------------------------------------------------------------------------
# Quality predicates


@dataclass(frozen=True)
class Quality:
    """Monotone predicate over availability flag vectors.

    ``all`` requires every flag, ``any`` at least one, ``ratio`` at least
    ``m`` out of exactly ``n``.
    """

    kind: str  # "all" | "any" | "ratio"
    m: int = 0
    n: int = 0

    def __post_init__(self):
        if self.kind not in ("all", "any", "ratio"):
            raise ValueError(f"unknown quality predicate kind {self.kind!r}")
        if self.kind == "ratio" and not (1 <= self.m <= self.n):
            raise ValueError(f"ratio predicate requires 1 <= m <= n, got {self.m}/{self.n}")

    def __str__(self) -> str:
        if self.kind == "ratio":
            return f"{self.m}/{self.n}"
        return self.kind


Q_ALL = Quality("all")
Q_ANY = Quality("any")


def q_ratio(m: int, n: int) -> Quality:
    return Quality("ratio", m, n)


def eval_quality(q: Quality, flags: list[bool] | tuple[bool, ...]) -> bool:
    """Decide whether a flag vector satisfies a quality predicate.

    For ``ratio`` predicates the declared ``n`` must equal the vector length.
    """
    if not flags:
        raise ArityMismatch("quality predicate applied to an empty flag vector")
    count = sum(1 for f in flags if f)
    if q.kind == "all":
        return count == len(flags)
    if q.kind == "any":
        return count >= 1
    if q.n != len(flags):
        raise ArityMismatch(f"ratio {q.m}/{q.n} applied to {len(flags)} flags")
    return count >= q.m


def quality_subsets(q: Quality, candidates: tuple[Thread, ...]) -> list[frozenset[Thread]]:
    """All subsets of ``candidates`` satisfying ``q``, smallest first, then by
    sorted members.

    Every predicate is monotone in the number of flags set, so the subsets
    are exactly those at least as large as the least satisfying count.
    """
    n = len(candidates)
    least = next((k for k in range(n + 1)
                  if eval_quality(q, [True] * k + [False] * (n - k))), n + 1)
    out = [frozenset(c) for k in range(least, n + 1)
           for c in itertools.combinations(sorted(candidates), k)]
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


# ---------------------------------------------------------------------------
# Values and expressions


@dataclass(frozen=True, order=True)
class Date:
    """Calendar value, kept as its ISO text; ordering is textual."""

    iso: str

    def __str__(self) -> str:
        return f'date("{self.iso}")'


Value = Union[int, bool, str, float, Date]


@dataclass(frozen=True)
class SomeV:
    value: Value

    def __str__(self) -> str:
        return f"some({format_value(self.value)})"


@dataclass(frozen=True)
class NoneV:
    def __str__(self) -> str:
        return "none"


OptValue = Union[SomeV, NoneV]
NONE = NoneV()


def format_value(v: Value) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, float):
        return repr(v)
    return str(v)


def opt_to_json(w: OptValue):
    if isinstance(w, NoneV):
        return None
    v = w.value
    if isinstance(v, Date):
        return {"date": v.iso}
    return v


@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class Var:
    name: VarName


@dataclass(frozen=True)
class SomeE:
    inner: "Expr"


@dataclass(frozen=True)
class NoneE:
    pass


@dataclass(frozen=True)
class Unop:
    op: str  # "-" | "not"
    operand: "Expr"


@dataclass(frozen=True)
class Binop:
    op: str  # + - * = < and or
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Var, SomeE, NoneE, Unop, Binop]


def expr_vars(e: Expr) -> frozenset[VarName]:
    match e:
        case Var(name):
            return frozenset({name})
        case SomeE(inner):
            return expr_vars(inner)
        case Unop(_, operand):
            return expr_vars(operand)
        case Binop(_, left, right):
            return expr_vars(left) | expr_vars(right)
        case _:
            return frozenset()


def map_vars(e: Expr, f: Callable[[VarName], Expr]) -> Expr:
    """``e`` with each variable ``Var(x)`` replaced by ``f(x)``."""
    match e:
        case Var(name):
            return f(name)
        case SomeE(inner):
            return SomeE(map_vars(inner, f))
        case Unop(op, operand):
            return Unop(op, map_vars(operand, f))
        case Binop(op, left, right):
            return Binop(op, map_vars(left, f), map_vars(right, f))
        case _:
            return e


def value_expr(w: OptValue) -> Expr:
    """The expression denoting an optional value: ``none`` or ``some(v)``."""
    return NoneE() if isinstance(w, NoneV) else SomeE(Lit(w.value))


def eval_expr(e: Expr, env: Mapping[VarName, OptValue] | None = None) -> OptValue:
    """Evaluate a closed expression to an optional value.

    Operators are strict in ``some``: if either operand is ``none`` the
    result is ``none``.  ``some(e)`` is idempotent, it never nests.
    """
    env = env or {}
    match e:
        case Lit(value):
            return SomeV(value)
        case Var(name):
            if name not in env:
                raise KeyError(f"unbound variable {name!r}")
            return env[name]
        case SomeE(inner):
            return eval_expr(inner, env)
        case NoneE():
            return NONE
        case Unop(op, operand):
            w = eval_expr(operand, env)
            if isinstance(w, NoneV):
                return NONE
            v = w.value
            if op == "-":
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise TypeError(f"cannot negate {v!r}")
                return SomeV(-v)
            if op == "not":
                if not isinstance(v, bool):
                    raise TypeError(f"'not' applied to {v!r}")
                return SomeV(not v)
            raise ValueError(f"unknown unary operator {op!r}")
        case Binop(op, left, right):
            wl = eval_expr(left, env)
            wr = eval_expr(right, env)
            if isinstance(wl, NoneV) or isinstance(wr, NoneV):
                return NONE
            a, b = wl.value, wr.value
            if op in ("+", "-", "*"):
                if isinstance(a, bool) or isinstance(b, bool):
                    raise TypeError(f"arithmetic on booleans: {a!r} {op} {b!r}")
                if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                    raise TypeError(f"arithmetic on {a!r}, {b!r}")
                return SomeV({"+": a + b, "-": a - b, "*": a * b}[op])
            if op == "=":
                return SomeV(a == b)
            if op == "<":
                if isinstance(a, bool) or isinstance(b, bool):
                    raise TypeError("'<' on booleans")
                if type(a) is Date and type(b) is Date:
                    return SomeV(a.iso < b.iso)
                if not isinstance(a, (int, float, str)) or not isinstance(b, (int, float, str)):
                    raise TypeError(f"'<' on {a!r}, {b!r}")
                if isinstance(a, str) != isinstance(b, str):
                    raise TypeError(f"'<' on mixed sorts {a!r}, {b!r}")
                return SomeV(a < b)
            if op == "and":
                return SomeV(bool(a) and bool(b))
            if op == "or":
                return SomeV(bool(a) or bool(b))
            raise ValueError(f"unknown binary operator {op!r}")
    raise TypeError(f"not an expression: {e!r}")


def apply_op(op: str, contributions: Iterable[OptValue]) -> OptValue:
    """Aggregate a multiset of optional values.

    ``none`` contributions are dropped.  ``avg`` over ints rounds toward
    zero.  ``id`` is only defined on singletons.  Returns ``none`` when the
    aggregate is undefined (empty multiset, non-numeric input to a numeric
    operator, non-singleton ``id``).
    """
    values = [w.value for w in contributions if isinstance(w, SomeV)]
    if not values:
        return NONE
    if op == "id":
        if len(values) != 1:
            return NONE
        return SomeV(values[0])
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        return NONE
    if op == "sum":
        return SomeV(sum(values))
    if op == "max":
        return SomeV(max(values))
    if op == "min":
        return SomeV(min(values))
    if op == "avg":
        total = sum(values)
        if all(isinstance(v, int) for v in values):
            q, r = divmod(total, len(values))
            if q < 0 and r:
                q += 1  # round toward zero, not toward -inf
            return SomeV(q)
        return SomeV(total / len(values))
    raise ValueError(f"unknown aggregation operator {op!r}")


# ---------------------------------------------------------------------------
# Annotated threads and interactions


@dataclass(frozen=True)
class AnnotatedThread:
    thread: Thread
    role: Role
    req: frozenset[CapAtom] = frozenset()
    off: frozenset[CapAtom] = frozenset()

    def __str__(self) -> str:
        caps = ""
        if self.req or self.off:
            caps = "{" + ",".join(sorted(self.req)) + ";" + ",".join(sorted(self.off)) + "}"
        return f"{self.thread}[{self.role}]{caps}"


def athr(thread: Thread, role: Role, req: Iterable[CapAtom] = (), off: Iterable[CapAtom] = ()) -> AnnotatedThread:
    return AnnotatedThread(thread, role, frozenset(req), frozenset(off))


@dataclass(frozen=True)
class Init:
    actives: tuple[AnnotatedThread, ...]
    services: tuple[AnnotatedThread, ...]
    svc: ServiceName
    key: SessionKey

    def __post_init__(self):
        parts = [p.thread for p in self.actives + self.services]
        if len(parts) < 2:
            raise ValueError("session start needs at least two participants")
        if len(set(parts)) != len(parts):
            raise ValueError(f"duplicate thread in session start: {parts}")
        for p in self.actives + self.services:
            if p.req:
                raise ValueError(f"session start must not require capabilities: {p}")


@dataclass(frozen=True)
class Bcast:
    sender: AnnotatedThread
    expr: Expr
    receivers: tuple[tuple[AnnotatedThread, VarName], ...]
    quality: Quality
    key: SessionKey


@dataclass(frozen=True)
class Reduce:
    senders: tuple[tuple[AnnotatedThread, Expr], ...]
    receiver: AnnotatedThread
    bind_var: VarName
    quality: Quality
    op: str
    key: SessionKey

    def __post_init__(self):
        if self.op not in AGG_OPS:
            raise ValueError(f"unknown aggregation operator {self.op!r}")


@dataclass(frozen=True)
class Select:
    # Source programs restrict the quality to "all" (enforced by the parser);
    # semantics and typing handle arbitrary predicates so that lax variants
    # can still be executed and rejected by the capability analysis.
    sender: AnnotatedThread
    receivers: tuple[AnnotatedThread, ...]
    quality: Quality
    key: SessionKey
    label: LabelName


Interaction = Union[Init, Bcast, Reduce, Select]


def interaction_threads(eta: Interaction) -> frozenset[Thread]:
    match eta:
        case Init(actives, services, _, _):
            return frozenset(p.thread for p in actives + services)
        case Bcast(sender, _, receivers, _, _):
            return frozenset({sender.thread}) | frozenset(p.thread for p, _ in receivers)
        case Reduce(senders, receiver, _, _, _, _):
            return frozenset(p.thread for p, _ in senders) | {receiver.thread}
        case Select(sender, receivers, _, _, _):
            return frozenset({sender.thread}) | frozenset(p.thread for p in receivers)
    raise TypeError(f"not an interaction: {eta!r}")


# ---------------------------------------------------------------------------
# Choreographies


@dataclass(frozen=True)
class End:
    pass


@dataclass(frozen=True)
class Seq:
    inter: Interaction
    cont: "Choreography"


@dataclass(frozen=True)
class If:
    guard: Expr
    at: Thread
    then: "Choreography"
    orelse: "Choreography"


@dataclass(frozen=True)
class New:
    kind: str  # "thread" | "session"
    name: str
    body: "Choreography"

    def __post_init__(self):
        if self.kind not in ("thread", "session"):
            raise ValueError(f"unknown restriction kind {self.kind!r}")


Choreography = Union[End, Seq, If, New]
END = End()


def seq(*parts) -> Choreography:
    """Chain interactions into a choreography. Last argument may be a choreography."""
    chor: Choreography = END
    items = list(parts)
    if items and not isinstance(items[-1], (Init, Bcast, Reduce, Select)):
        chor = items.pop()
    for eta in reversed(items):
        chor = Seq(eta, chor)
    return chor


def chor_threads(c: Choreography) -> frozenset[Thread]:
    match c:
        case End():
            return frozenset()
        case Seq(inter, cont):
            return interaction_threads(inter) | chor_threads(cont)
        case If(_, at, then, orelse):
            return frozenset({at}) | chor_threads(then) | chor_threads(orelse)
        case New(kind, name, body):
            inner = chor_threads(body)
            return inner - {name} if kind == "thread" else inner
    raise TypeError(f"not a choreography: {c!r}")


def interactions_of(c: Choreography) -> list[Interaction]:
    """All interactions of a term, in syntactic order (both branches of ifs)."""
    match c:
        case End():
            return []
        case Seq(inter, cont):
            return [inter] + interactions_of(cont)
        case If(_, _, then, orelse):
            return interactions_of(then) + interactions_of(orelse)
        case New(_, _, body):
            return interactions_of(body)
    raise TypeError(f"not a choreography: {c!r}")


# ---------------------------------------------------------------------------
# Free names


@dataclass(frozen=True)
class FreeNames:
    threads: frozenset[Thread]
    sessions: frozenset[SessionKey]
    services: frozenset[ServiceName]
    vars: frozenset[tuple[VarName, Thread]]
    roles: frozenset[Role]

    def all_idents(self) -> frozenset[str]:
        return self.threads | self.sessions | self.services | frozenset(v for v, _ in self.vars)


def _expr_free_vars(e: Expr, at: Thread) -> frozenset[tuple[VarName, Thread]]:
    return frozenset((v, at) for v in expr_vars(e))


def free_names(c: Choreography) -> FreeNames:
    """Free threads, sessions, services, located variables and roles.

    Binders: a session start binds its service threads and its key over the
    continuation, a broadcast binds each receiver's variable, a reduce binds
    its aggregate variable, and a restriction binds its name.
    """
    match c:
        case End():
            return FreeNames(frozenset(), frozenset(), frozenset(), frozenset(), frozenset())
        case New(kind, name, body):
            fn = free_names(body)
            if kind == "thread":
                return FreeNames(fn.threads - {name}, fn.sessions, fn.services,
                                 frozenset(v for v in fn.vars if v[1] != name), fn.roles)
            return FreeNames(fn.threads, fn.sessions - {name}, fn.services, fn.vars, fn.roles)
        case If(guard, at, then, orelse):
            f1, f2 = free_names(then), free_names(orelse)
            return FreeNames(
                f1.threads | f2.threads | {at},
                f1.sessions | f2.sessions,
                f1.services | f2.services,
                f1.vars | f2.vars | _expr_free_vars(guard, at),
                f1.roles | f2.roles,
            )
        case Seq(inter, cont):
            fc = free_names(cont)
            match inter:
                case Init(actives, services, svc, key):
                    bound_threads = frozenset(p.thread for p in services)
                    roles = frozenset(p.role for p in actives + services)
                    return FreeNames(
                        (fc.threads - bound_threads) | frozenset(p.thread for p in actives),
                        fc.sessions - {key},
                        fc.services | {svc},
                        frozenset(v for v in fc.vars if v[1] not in bound_threads),
                        fc.roles | roles,
                    )
                case Bcast(sender, expr, receivers, _, key):
                    bound = frozenset((x, p.thread) for p, x in receivers)
                    threads = frozenset({sender.thread}) | frozenset(p.thread for p, _ in receivers)
                    roles = frozenset({sender.role}) | frozenset(p.role for p, _ in receivers)
                    return FreeNames(
                        fc.threads | threads,
                        fc.sessions | {key},
                        fc.services,
                        (fc.vars - bound) | _expr_free_vars(expr, sender.thread),
                        fc.roles | roles,
                    )
                case Reduce(senders, receiver, bind_var, _, _, key):
                    bound = frozenset({(bind_var, receiver.thread)})
                    threads = frozenset(p.thread for p, _ in senders) | {receiver.thread}
                    roles = frozenset(p.role for p, _ in senders) | {receiver.role}
                    evars = frozenset()
                    for p, e in senders:
                        evars |= _expr_free_vars(e, p.thread)
                    return FreeNames(
                        fc.threads | threads,
                        fc.sessions | {key},
                        fc.services,
                        (fc.vars - bound) | evars,
                        fc.roles | roles,
                    )
                case Select(sender, receivers, _, key, _):
                    threads = frozenset({sender.thread}) | frozenset(p.thread for p in receivers)
                    roles = frozenset({sender.role}) | frozenset(p.role for p in receivers)
                    return FreeNames(fc.threads | threads, fc.sessions | {key},
                                     fc.services, fc.vars, fc.roles | roles)
    raise TypeError(f"not a choreography: {c!r}")


def used_names(c: Choreography) -> frozenset[str]:
    """Every identifier occurring in ``c``, bound or free (freshness source)."""
    out: set[str] = set()

    def walk(ch: Choreography):
        match ch:
            case End():
                return
            case New(_, name, body):
                out.add(name)
                walk(body)
            case If(guard, at, then, orelse):
                out.add(at)
                out.update(expr_vars(guard))
                walk(then)
                walk(orelse)
            case Seq(inter, cont):
                match inter:
                    case Init(actives, services, svc, key):
                        out.add(svc)
                        out.add(key)
                        for p in actives + services:
                            out.add(p.thread)
                    case Bcast(sender, expr, receivers, _, key):
                        out.add(key)
                        out.add(sender.thread)
                        out.update(expr_vars(expr))
                        for p, x in receivers:
                            out.add(p.thread)
                            out.add(x)
                    case Reduce(senders, receiver, bind_var, _, _, key):
                        out.add(key)
                        out.add(receiver.thread)
                        out.add(bind_var)
                        for p, e in senders:
                            out.add(p.thread)
                            out.update(expr_vars(e))
                    case Select(sender, receivers, _, key, _):
                        out.add(key)
                        out.add(sender.thread)
                        for p in receivers:
                            out.add(p.thread)
                walk(cont)

    walk(c)
    return frozenset(out)


def fresh_name(base: str, used: frozenset[str] | set[str]) -> str:
    """Smallest unused name: the base itself, else base followed by a counter."""
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Substitution

Theta = Mapping[tuple[VarName, Thread], OptValue]


def _subst_expr(e: Expr, at: Thread, theta: Theta) -> Expr:
    def sub(name: VarName) -> Expr:
        w = theta.get((name, at))
        return Var(name) if w is None else value_expr(w)

    return map_vars(e, sub)


def substitute(c: Choreography, theta: Theta) -> Choreography:
    """Capture-avoiding replacement of located variables by optional values."""
    if not theta:
        return c
    match c:
        case End():
            return c
        case New(kind, name, body):
            if kind == "thread":
                inner = {k: v for k, v in theta.items() if k[1] != name}
            else:
                inner = dict(theta)
            return New(kind, name, substitute(body, inner))
        case If(guard, at, then, orelse):
            return If(_subst_expr(guard, at, theta), at,
                      substitute(then, theta), substitute(orelse, theta))
        case Seq(inter, cont):
            match inter:
                case Init(_, services, _, _):
                    bound_threads = frozenset(p.thread for p in services)
                    inner = {k: v for k, v in theta.items() if k[1] not in bound_threads}
                    return Seq(inter, substitute(cont, inner))
                case Bcast(sender, expr, receivers, quality, key):
                    new_inter = Bcast(sender, _subst_expr(expr, sender.thread, theta),
                                      receivers, quality, key)
                    bound = frozenset((x, p.thread) for p, x in receivers)
                    inner = {k: v for k, v in theta.items() if k not in bound}
                    return Seq(new_inter, substitute(cont, inner))
                case Reduce(senders, receiver, bind_var, quality, op, key):
                    new_senders = tuple((p, _subst_expr(e, p.thread, theta)) for p, e in senders)
                    new_inter = Reduce(new_senders, receiver, bind_var, quality, op, key)
                    inner = {k: v for k, v in theta.items() if k != (bind_var, receiver.thread)}
                    return Seq(new_inter, substitute(cont, inner))
                case Select():
                    return Seq(inter, substitute(cont, theta))
    raise TypeError(f"not a choreography: {c!r}")


# ---------------------------------------------------------------------------
# Alpha canonicalization

_CANON_PREFIX = "α"  # names no surface program can contain


def alpha_canonical(c: Choreography) -> Choreography:
    """Rename all binders to canonical de-Bruijn-style names.

    Two terms are alpha-equivalent iff their canonical forms are equal.
    Source names are preserved in the original term; this is only for
    comparisons.
    """
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"{_CANON_PREFIX}{counter[0]}"

    def ren_expr(e: Expr, at: Thread, env: dict) -> Expr:
        return map_vars(e, lambda name: Var(env.get(("v", name, at), name)))

    def ren_thread(t: Thread, env: dict) -> Thread:
        return env.get(("t", t), t)

    def ren_key(k: SessionKey, env: dict) -> SessionKey:
        return env.get(("k", k), k)

    def ren_athr(p: AnnotatedThread, env: dict) -> AnnotatedThread:
        return AnnotatedThread(ren_thread(p.thread, env), p.role, p.req, p.off)

    def walk(ch: Choreography, env: dict) -> Choreography:
        match ch:
            case End():
                return ch
            case New(kind, name, body):
                env2 = dict(env)
                nm = fresh()
                env2[("t", name) if kind == "thread" else ("k", name)] = nm
                return New(kind, nm, walk(body, env2))
            case If(guard, at, then, orelse):
                at2 = ren_thread(at, env)
                return If(ren_expr(guard, at, env), at2, walk(then, env), walk(orelse, env))
            case Seq(inter, cont):
                match inter:
                    case Init(actives, services, svc, key):
                        env2 = dict(env)
                        new_services = []
                        for p in services:
                            nm = fresh()
                            env2[("t", p.thread)] = nm
                            new_services.append(AnnotatedThread(nm, p.role, p.req, p.off))
                        kname = fresh()
                        env2[("k", key)] = kname
                        new_inter = Init(tuple(ren_athr(p, env) for p in actives),
                                         tuple(new_services), svc, kname)
                        return Seq(new_inter, walk(cont, env2))
                    case Bcast(sender, expr, receivers, quality, key):
                        env2 = dict(env)
                        new_recv = []
                        for p, x in receivers:
                            p2 = ren_athr(p, env)
                            xn = fresh()
                            env2[("v", x, p.thread)] = xn
                            new_recv.append((p2, xn))
                        new_inter = Bcast(ren_athr(sender, env),
                                          ren_expr(expr, sender.thread, env),
                                          tuple(new_recv), quality, ren_key(key, env))
                        return Seq(new_inter, walk(cont, env2))
                    case Reduce(senders, receiver, bind_var, quality, op, key):
                        env2 = dict(env)
                        xn = fresh()
                        env2[("v", bind_var, receiver.thread)] = xn
                        new_senders = tuple(
                            (ren_athr(p, env), ren_expr(e, p.thread, env)) for p, e in senders)
                        new_inter = Reduce(new_senders, ren_athr(receiver, env), xn,
                                           quality, op, ren_key(key, env))
                        return Seq(new_inter, walk(cont, env2))
                    case Select(sender, receivers, quality, key, label):
                        new_inter = Select(ren_athr(sender, env),
                                           tuple(ren_athr(p, env) for p in receivers),
                                           quality, ren_key(key, env), label)
                        return Seq(new_inter, walk(cont, env))
        raise TypeError(f"not a choreography: {ch!r}")

    return walk(c, {})


def alpha_equal(c1: Choreography, c2: Choreography) -> bool:
    return alpha_canonical(c1) == alpha_canonical(c2)


# ---------------------------------------------------------------------------
# Capability state


def exchange(x: frozenset[CapAtom], y: frozenset[CapAtom], z: frozenset[CapAtom]) -> frozenset[CapAtom]:
    """Replace ``x`` by ``y`` inside ``z`` when ``x`` is held, else leave ``z``."""
    if x <= z:
        return frozenset(z - x) | y
    return z


class CapState:
    """Immutable store of capability atoms per thread and session.

    Conceptually a set of triples ``(thread, session, atom)``; looking up an
    absent pair yields the empty set.
    """

    __slots__ = ("_triples",)

    def __init__(self, triples: Iterable[tuple[Thread, SessionKey, CapAtom]] = ()):
        self._triples: frozenset[tuple[Thread, SessionKey, CapAtom]] = frozenset(triples)

    @classmethod
    def of(cls, mapping: Mapping[tuple[Thread, SessionKey], Iterable[CapAtom]]) -> "CapState":
        triples = []
        for (t, k), atoms in mapping.items():
            for a in atoms:
                triples.append((t, k, a))
        return cls(triples)

    @property
    def triples(self) -> frozenset[tuple[Thread, SessionKey, CapAtom]]:
        return self._triples

    def caps(self, t: Thread, k: SessionKey) -> frozenset[CapAtom]:
        return frozenset(a for (t2, k2, a) in self._triples if t2 == t and k2 == k)

    def keys(self) -> frozenset[tuple[Thread, SessionKey]]:
        return frozenset((t, k) for (t, k, _) in self._triples)

    def set(self, t: Thread, k: SessionKey, atoms: Iterable[CapAtom]) -> "CapState":
        kept = [tr for tr in self._triples if (tr[0], tr[1]) != (t, k)]
        return CapState(kept + [(t, k, a) for a in atoms])

    def update(self, other: "CapState") -> "CapState":
        """Override shared (thread, session) keys with the entries of ``other``."""
        shared = other.keys()
        kept = [tr for tr in self._triples if (tr[0], tr[1]) not in shared]
        return CapState(list(other._triples) + kept)

    def items(self) -> Iterator[tuple[tuple[Thread, SessionKey], frozenset[CapAtom]]]:
        for key in sorted(self.keys()):
            yield key, self.caps(*key)

    def names(self) -> frozenset[str]:
        out: set[str] = set()
        for t, k, _ in self._triples:
            out.add(t)
            out.add(k)
        return frozenset(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, CapState) and self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def __repr__(self) -> str:
        parts = [f"({t},{k})|->{{{','.join(sorted(atoms))}}}" for (t, k), atoms in self.items()]
        return "CapState{" + ", ".join(parts) + "}"


EMPTY_STATE = CapState()


def state_update(sigma: CapState, sigma_prime: CapState) -> CapState:
    return sigma.update(sigma_prime)


# ---------------------------------------------------------------------------
# Semantic labels


@dataclass(frozen=True)
class GTau:
    pass


@dataclass(frozen=True)
class GInitL:
    actives: tuple[tuple[Thread, Role], ...]
    services: tuple[tuple[Thread, Role], ...]
    svc: ServiceName
    key: SessionKey


@dataclass(frozen=True)
class GBcastL:
    sender: tuple[Thread, Role]
    receivers: tuple[tuple[Thread, Role], ...]
    quality: Quality
    key: SessionKey
    chosen: frozenset[Thread]
    value: OptValue


@dataclass(frozen=True)
class GReduceL:
    senders: tuple[tuple[Thread, Role], ...]
    receiver: tuple[Thread, Role]
    quality: Quality
    key: SessionKey
    chosen: frozenset[Thread]
    contributions: tuple[tuple[Thread, OptValue], ...]
    result: OptValue
    op: str


@dataclass(frozen=True)
class GSelectL:
    sender: tuple[Thread, Role]
    receivers: tuple[tuple[Thread, Role], ...]
    quality: Quality
    key: SessionKey
    chosen: frozenset[Thread]
    label: LabelName


GLabel = Union[GTau, GInitL, GBcastL, GReduceL, GSelectL]


def glabel_to_json(step: int, lab: GLabel) -> dict:
    """Trace record for one fired label: one JSON object per line."""
    match lab:
        case GTau():
            return {"step": step, "kind": "tau"}
        case GInitL(actives, services, svc, key):
            return {"step": step, "kind": "init", "session": key, "service": svc,
                    "actives": [t for t, _ in actives], "services": [t for t, _ in services],
                    "label": None}
        case GBcastL(sender, receivers, quality, key, chosen, value):
            return {"step": step, "kind": "bcast", "session": key, "sender": sender[0],
                    "quality": str(quality),
                    "chosen": sorted(chosen),
                    "absent": sorted(t for t, _ in receivers if t not in chosen),
                    "value": opt_to_json(value), "label": None}
        case GReduceL(senders, receiver, quality, key, chosen, _, result, op):
            return {"step": step, "kind": "reduce", "session": key, "sender": receiver[0],
                    "quality": str(quality), "op": op,
                    "chosen": sorted(chosen),
                    "absent": sorted(t for t, _ in senders if t not in chosen),
                    "value": opt_to_json(result), "label": None}
        case GSelectL(sender, receivers, quality, key, chosen, label):
            return {"step": step, "kind": "select", "session": key, "sender": sender[0],
                    "quality": str(quality),
                    "chosen": sorted(chosen),
                    "absent": sorted(t for t, _ in receivers if t not in chosen),
                    "value": None, "label": label}
    raise TypeError(f"not a label: {lab!r}")


# ---------------------------------------------------------------------------
# Deterministic order


def stable_repr(x) -> str:
    """``repr`` with the elements of every frozenset in sorted order.

    The ``repr`` of a set follows the hash seed, so a sort key made from it
    orders the same terms differently from one run to the next.
    """
    if isinstance(x, frozenset):
        return f"frozenset({{{', '.join(sorted(map(stable_repr, x)))}}})" if x else "frozenset()"
    if isinstance(x, tuple):
        return f"({', '.join(map(stable_repr, x))}{',' if len(x) == 1 else ''})"
    if is_dataclass(x):
        args = ", ".join(f"{f.name}={stable_repr(getattr(x, f.name))}" for f in fields(x) if f.repr)
        return f"{type(x).__qualname__}({args})"
    return repr(x)
