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

import functools
import itertools
from dataclasses import FrozenInstanceError
from types import FunctionType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union

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
# Terms


def term(cls):
    """Make ``cls`` a frozen value class over its annotated fields, in the
    order they are declared, as ``dataclass(frozen=True)`` would: the same
    ``__init__`` (which runs ``__post_init__`` if the class has one),
    class-strict ``==`` over the fields' tuple, ``repr`` text and
    ``__match_args__``, and ``FrozenInstanceError`` on assignment.

    Besides, ``hash`` is that of the fields' tuple, computed on first use
    and kept in the ``_hash`` slot, so a successor that shares a subterm
    with its parent shares its hash too; and ``t.replace(**changes)`` is
    ``dataclasses.replace`` without reflection.  The field names are kept
    as ``__term_fields__``.  A class keeps other computed values in cache
    slots of its own: an unannotated class attribute set to None, which
    ``object.__setattr__`` fills, so ``==``, ``hash``, ``repr`` and
    ``replace`` ignore it.  Sound because no code sets a field after
    construction (``__post_init__`` runs before any hash) and no term is
    pickled across processes, whose hash seeds differ.

    The methods are compiled once per shape (number of fields, whether
    there is a ``__post_init__``) and each class gets a copy
    with its field names put in: compiling them for each class, as
    ``dataclass`` does, was most of the package's import.
    """
    names = tuple(cls.__annotations__)
    own = vars(cls)
    defaults = tuple(own[n] for n in names if n in own)
    if any(n not in own for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with one")
    ren = {f"__f{i}": n for i, n in enumerate(names)}.get
    scope = {"__cls": cls, "__setattr": object.__setattr__, "__MISSING": _MISSING,
             "__text": f"%s({', '.join(f'{n}=%r' for n in names)})"}
    for method, code in _shape(len(names), hasattr(cls, "__post_init__")).items():
        code = code.replace(co_varnames=tuple(ren(v, v) for v in code.co_varnames),
                            co_names=tuple(ren(v, v) for v in code.co_names),
                            co_consts=tuple(ren(c, c) if type(c) is str else c
                                            for c in code.co_consts))
        fn = FunctionType(code, scope, method, defaults if method == "__init__" else None)
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls.replace.__kwdefaults__ = dict.fromkeys(names, _MISSING)
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = cls.__term_fields__ = names
    cls._hash = None
    return cls


@functools.cache
def _shape(n: int, post_init: bool) -> dict:
    """The code of each method of a term class of this shape, with the
    fields named ``__f0``, ``__f1``, ..."""
    names = [f"__f{i}" for i in range(n)]
    this = "".join(f"self.{f}, " for f in names)
    that = "".join(f"other.{f}, " for f in names)
    src = [
        f"def __init__({', '.join(['self', *names])}):",
        *(f"  __setattr(self, {f!r}, {f})" for f in names),
        "  self.__post_init__()" if post_init else "  pass",
        "def __eq__(self, other):",
        "  if other.__class__ is self.__class__:",
        f"    return self is other or ({this}) == ({that})",
        "  return NotImplemented",
        "def __hash__(self):",
        "  h = self._hash",
        "  if h is None:",
        f"    h = hash(({this}))",
        "    __setattr(self, '_hash', h)",
        "  return h",
        "def __repr__(self):",
        f"  return __text % (self.__class__.__qualname__, {this})",
        f"def replace({', '.join(['self', *(['*'] if n else []), *names])}):",
        f"  return __cls({''.join(f'self.{f} if {f} is __MISSING else {f}, ' for f in names)})",
    ]
    scope: dict = {}
    exec("\n".join(src), scope)
    return {method: scope[method].__code__
            for method in ("__init__", "__eq__", "__hash__", "__repr__", "replace")}


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


_MISSING = object()  # a field that ``replace`` keeps


# ---------------------------------------------------------------------------
# Quality predicates


@term
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


def tolerates_absence(q: Quality, roles: Iterable[Role], role: Role) -> bool:
    """Whether ``q`` can hold with every listed role but ``role`` taking part."""
    try:
        return eval_quality(q, [r != role for r in roles])
    except ArityMismatch:  # a ratio of another arity never holds
        return False


def least_count(q: Quality, n: int) -> int:
    """The least number of set flags out of ``n`` that satisfies ``q``, or
    ``n + 1`` if none does; every predicate is monotone in that number."""
    return next((k for k in range(n + 1) if eval_quality(q, [True] * k + [False] * (n - k))),
                n + 1)


def quality_subsets(q: Quality, candidates: tuple[Thread, ...]) -> list[frozenset[Thread]]:
    """All subsets of ``candidates`` satisfying ``q``, smallest first, then by
    sorted members: those at least as large as :func:`least_count`."""
    n = len(candidates)
    out = [frozenset(c) for k in range(least_count(q, n), n + 1)
           for c in itertools.combinations(sorted(candidates), k)]
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


# ---------------------------------------------------------------------------
# Values and expressions


@term
class Date:
    """Calendar value, kept as its ISO text; ``<`` in an expression
    compares the texts."""

    iso: str

    def __str__(self) -> str:
        return f'date("{self.iso}")'


Value = Union[int, bool, str, float, Date]


@term
class SomeV:
    value: Value

    def __str__(self) -> str:
        return f"some({format_value(self.value)})"


@term
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


@term
class Lit:
    value: Value


@term
class Var:
    name: VarName


@term
class SomeE:
    inner: "Expr"


@term
class NoneE:
    pass


@term
class Unop:
    op: str  # "-" | "not"
    operand: "Expr"


@term
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


def eval_closed(e: Expr) -> Optional[OptValue]:
    """``eval_expr`` of ``e`` with no variables bound, or None when ``e`` is
    open or ill-sorted: no evaluation premise holds."""
    try:
        return eval_expr(e, {})
    except (KeyError, TypeError, ValueError):
        return None


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


@term
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


class _Interaction:
    # cache slots: inter_parts(self) and the free names it holds, each
    # computed when first asked for
    _parts = None
    _own = None


@term
class Init(_Interaction):
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


@term
class Bcast(_Interaction):
    sender: AnnotatedThread
    expr: Expr
    receivers: tuple[tuple[AnnotatedThread, VarName], ...]
    quality: Quality
    key: SessionKey


@term
class Reduce(_Interaction):
    senders: tuple[tuple[AnnotatedThread, Expr], ...]
    receiver: AnnotatedThread
    bind_var: VarName
    quality: Quality
    op: str
    key: SessionKey

    def __post_init__(self):
        if self.op not in AGG_OPS:
            raise ValueError(f"unknown aggregation operator {self.op!r}")


@term
class Select(_Interaction):
    # Source programs restrict the quality to "all" (enforced by the parser);
    # semantics and typing handle arbitrary predicates so that lax variants
    # can still be executed and rejected by the capability analysis.
    sender: AnnotatedThread
    receivers: tuple[AnnotatedThread, ...]
    quality: Quality
    key: SessionKey
    label: LabelName


Interaction = Union[Init, Bcast, Reduce, Select]


# ---------------------------------------------------------------------------
# Choreographies


class _Node:
    # cache slot: the free names of the node, computed when first asked for
    _names = None


@term
class End(_Node):
    pass


@term
class Seq(_Node):
    inter: Interaction
    cont: "Choreography"


@term
class If(_Node):
    guard: Expr
    at: Thread
    then: "Choreography"
    orelse: "Choreography"


Choreography = Union[End, Seq, If]
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


# ---------------------------------------------------------------------------
# Traversal: where a term keeps its continuations, names and binders


def chor_conts(c: Choreography) -> tuple[Choreography, ...]:
    """The direct continuations of a term: ``cont``, or both branches of a
    conditional."""
    match c:
        case End():
            return ()
        case Seq(_, cont):
            return (cont,)
        case If(_, _, then, orelse):
            return (then, orelse)
    raise TypeError(f"not a choreography: {c!r}")


def map_chor(c: Choreography, f: Callable[[Choreography], Choreography], **fields) -> Choreography:
    """``c`` with ``f`` applied to each direct continuation, in the order of
    :func:`chor_conts`, and with ``fields`` replaced."""
    match c:
        case End():
            return c
        case Seq(inter, cont):
            return Seq(fields.pop("inter", inter), f(cont), **fields)
        case If(guard, at, then, orelse):
            return If(fields.pop("guard", guard), fields.pop("at", at), f(then), f(orelse),
                      **fields)
    raise TypeError(f"not a choreography: {c!r}")


def subterms(c: Choreography) -> Iterator[Choreography]:
    """Every node of a term, each before its continuations and a then-branch
    before its else-branch."""
    stack = [c]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(chor_conts(node)))


# A name that a term can bind, tagged with its sort: ("thread", t),
# ("session", k), or ("var", x, t) for the variable x located at thread t.
# Free names also come as ("service", s) and ("role", r); nothing binds those.
Name = tuple


class InterParts(NamedTuple):
    """Where an interaction keeps its names."""

    athrs: tuple[AnnotatedThread, ...]      # every participant
    threads: frozenset[Thread]              # every participant's thread
    exprs: tuple[tuple[Expr, Thread], ...]  # each expression, with the thread evaluating it
    binds: tuple[Name, ...]                 # bound over the continuation, in field order


def inter_parts(eta: Interaction) -> InterParts:
    """The binder table: a session start binds its service threads and its
    key, a broadcast each receiver's variable located at that receiver, and
    a reduce its aggregate variable located at the receiver.  An expression
    is located at the thread that evaluates it.  Computed once per
    interaction."""
    parts = getattr(eta, "_parts", None)
    if parts is not None:
        return parts
    match eta:
        case Init(actives, services, _, key):
            athrs, exprs = actives + services, ()
            binds = tuple(("thread", p.thread) for p in services) + (("session", key),)
        case Bcast(sender, expr, receivers, _, _):
            athrs, exprs = (sender,) + tuple(p for p, _ in receivers), ((expr, sender.thread),)
            binds = tuple(("var", x, p.thread) for p, x in receivers)
        case Reduce(senders, receiver, bind_var, _, _, _):
            athrs = tuple(p for p, _ in senders) + (receiver,)
            exprs = tuple((e, p.thread) for p, e in senders)
            binds = (("var", bind_var, receiver.thread),)
        case Select(sender, receivers, _, _, _):
            athrs, exprs, binds = (sender,) + receivers, (), ()
        case _:
            raise TypeError(f"not an interaction: {eta!r}")
    parts = InterParts(athrs, frozenset(p.thread for p in athrs), exprs, binds)
    object.__setattr__(eta, "_parts", parts)
    return parts


def comm_parts(eta: Interaction) -> tuple[AnnotatedThread, tuple[AnnotatedThread, ...],
                                          Quality, SessionKey]:
    """A collective communication's principal (the sender of a broadcast or
    selection, the receiver of a reduce), its candidates in field order,
    its quality and its session key."""
    match eta:
        case Bcast(sender, _, receivers, quality, key):
            return sender, tuple(p for p, _ in receivers), quality, key
        case Reduce(senders, receiver, _, quality, _, key):
            return receiver, tuple(p for p, _ in senders), quality, key
        case Select(sender, receivers, quality, key, _):
            return sender, tuple(receivers), quality, key
    raise TypeError(f"not a collective communication: {eta!r}")


def map_inter(eta: Interaction, thread: Callable[[Thread], Thread],
              key: Callable[[SessionKey], SessionKey], expr: Callable[[Expr, Thread], Expr],
              bound: Callable[[str], str]) -> Interaction:
    """``eta`` with ``thread`` applied to each free participant's thread,
    ``key`` to its free session key, ``expr(e, at)`` to each expression
    evaluated at ``at``, and ``bound`` to each bound name in the order of
    ``inter_parts(eta).binds``."""

    def free(p: AnnotatedThread) -> AnnotatedThread:
        t = thread(p.thread)
        return p if t == p.thread else AnnotatedThread(t, p.role, p.req, p.off)

    match eta:
        case Init(actives, services, svc, k):
            return Init(tuple(map(free, actives)),
                        tuple(AnnotatedThread(bound(p.thread), p.role, p.req, p.off)
                              for p in services), svc, bound(k))
        case Bcast(sender, e, receivers, quality, k):
            return Bcast(free(sender), expr(e, sender.thread),
                         tuple((free(p), bound(x)) for p, x in receivers), quality, key(k))
        case Reduce(senders, receiver, x, quality, op, k):
            return Reduce(tuple((free(p), expr(e, p.thread)) for p, e in senders), free(receiver),
                          bound(x), quality, op, key(k))
        case Select(sender, receivers, quality, k, label):
            return Select(free(sender), tuple(map(free, receivers)), quality, key(k), label)
    raise TypeError(f"not an interaction: {eta!r}")


def chor_binds(c: Choreography) -> tuple[Name, ...]:
    """What a node binds over its continuations: an interaction what
    :func:`inter_parts` lists."""
    return inter_parts(c.inter).binds if isinstance(c, Seq) else ()


def _own_names(c: Choreography) -> frozenset[Name]:
    """The free names a node holds itself, not in its continuations, with
    the roles and the service of an interaction."""
    match c:
        case Seq(eta, _):
            if eta._own is None:
                athrs, _, exprs, binds = inter_parts(eta)
                names = {("thread", p.thread) for p in athrs} | {("session", eta.key)}
                names = names.difference(binds) | {("role", p.role) for p in athrs}
                names.update(("var", x, at) for e, at in exprs for x in expr_vars(e))
                if isinstance(eta, Init):
                    names.add(("service", eta.svc))
                object.__setattr__(eta, "_own", frozenset(names))
            return eta._own
        case If(guard, at, _, _):
            return frozenset({("thread", at)}) | {("var", x, at) for x in expr_vars(guard)}
    return frozenset()


def _hidden(binds: tuple[Name, ...], names: Iterable[Name]) -> set[Name]:
    """The names among ``names`` that ``binds`` hide: each bound name, and
    every variable located at a bound thread."""
    threads = {n[1] for n in binds if n[0] == "thread"}
    return {n for n in names if n in binds or n[0] == "var" and n[2] in threads}


def interaction_threads(eta: Interaction) -> frozenset[Thread]:
    return inter_parts(eta).threads


def interactions_of(c: Choreography) -> list[Interaction]:
    """All interactions of a term, in syntactic order (both branches of ifs)."""
    return [node.inter for node in subterms(c) if isinstance(node, Seq)]


def run_bound(c: Choreography, endpoint: bool) -> int:
    """The most steps a run of ``c`` takes, global or ``endpoint``, as a sum
    over its nodes.  A global step removes at least one interaction or
    conditional, swaps and hoists included.  An endpoint step is one of a
    node's group: a session start or a conditional is one step, and a
    collective over n candidates an enqueue, n synchronizations and a release."""
    return sum(1 if not endpoint or isinstance(node, If) or isinstance(node.inter, Init)
               else len(comm_parts(node.inter)[1]) + 2 for node in subterms(c) if node != END)


# ---------------------------------------------------------------------------
# Free names


@term
class FreeNames:
    threads: frozenset[Thread]
    sessions: frozenset[SessionKey]
    services: frozenset[ServiceName]
    vars: frozenset[tuple[VarName, Thread]]
    roles: frozenset[Role]


def _free(c: Choreography) -> frozenset[Name]:
    """The free names of node ``c``, from those its continuations keep.  It
    runs once per node, whose ``_names`` slot keeps the result: a check
    that asks for the free names of each continuation walks the term once."""
    inner = set()
    for k in chor_conts(c):
        inner.update(_free(k) if k._names is None else k._names)
    binds = chor_binds(c)
    if binds:
        inner -= _hidden(binds, inner)
    names = frozenset(inner.union(_own_names(c)))
    object.__setattr__(c, "_names", names)
    return names


def free_names(c: Choreography) -> FreeNames:
    """Free threads, sessions, services, located variables and roles.

    The binders are those of :func:`chor_binds`.
    """
    names = _free(c) if c._names is None else c._names
    return FreeNames(*(frozenset(n[1] for n in names if n[0] == sort)
                       for sort in ("thread", "session", "service")),
                     frozenset(n[1:] for n in names if n[0] == "var"),
                     frozenset(n[1] for n in names if n[0] == "role"))


def used_names(c: Choreography) -> frozenset[str]:
    """Every identifier occurring in ``c``, bound or free (freshness source)."""
    return frozenset(n[1] for node in subterms(c)
                     for n in itertools.chain(_own_names(node), chor_binds(node))
                     if n[0] != "role")


def fresh_name(base: str, used: frozenset[str] | set[str]) -> str:
    """Smallest unused name: the base itself, else base followed by a counter."""
    if base not in used:
        return base
    i = 1
    while f"{base}{i}" in used:
        i += 1
    return f"{base}{i}"


# ---------------------------------------------------------------------------
# Renaming and substitution

Theta = Mapping[tuple[VarName, Thread], OptValue]


def _rename(c: Choreography, env: Mapping[Name, object],
            fresh: Callable[[], str] | None = None) -> Choreography:
    """``c`` with each free name in ``env`` replaced: a thread or a session by
    a name, a located variable by an expression.  ``fresh``, if given, gives
    every binder a new name, in walk order."""
    if not env and fresh is None:
        return c
    binds = chor_binds(c)
    inner, names = env, []
    if binds:
        hidden = _hidden(binds, env)
        inner = {n: v for n, v in env.items() if n not in hidden}
        if fresh is not None:
            names = [fresh() for _ in binds]
            inner.update((n, Var(m) if n[0] == "var" else m) for n, m in zip(binds, names))
    if fresh is None and env.keys().isdisjoint(_own_names(c)):
        changed = {}
    else:
        changed = _renamed(c, env, iter(names))
    return map_chor(c, lambda k: _rename(k, inner, fresh), **changed)


def _renamed(c: Choreography, env: Mapping[Name, object], new: Iterator[str]) -> dict:
    """The fields of node ``c`` with its free names replaced from ``env`` and
    its binders named from ``new`` (kept, once ``new`` runs out)."""

    def thread(t: Thread) -> Thread:
        return env.get(("thread", t), t)

    def expr(e: Expr, at: Thread) -> Expr:
        return map_vars(e, lambda x: env.get(("var", x, at), Var(x)))

    match c:
        case Seq(eta, _):
            return {"inter": map_inter(eta, thread, lambda k: env.get(("session", k), k), expr,
                                       lambda name: next(new, name))}
        case If(guard, at, _, _):
            return {"guard": expr(guard, at), "at": thread(at)}
    return {}


def substitute(c: Choreography, theta: Theta) -> Choreography:
    """Capture-avoiding replacement of located variables by optional values."""
    return _rename(c, {("var", x, t): value_expr(w) for (x, t), w in theta.items()})


def rename_free(c: Choreography, threads: Mapping[Thread, Thread],
                keys: Mapping[SessionKey, SessionKey]) -> Choreography:
    """Rename free threads and session keys; a binder hides its own names."""
    env = {("thread", t): n for t, n in threads.items()}
    env.update((("session", k), n) for k, n in keys.items())
    return _rename(c, env)


# ---------------------------------------------------------------------------
# Alpha canonicalization

_CANON_PREFIX = "α"  # names no surface program can contain


def alpha_canonical(c: Choreography, free: Iterable[Name] = ()) -> Choreography:
    """Rename all binders to canonical de-Bruijn-style names.

    The free names listed in ``free``, ``("thread", t)`` or ``("session",
    k)``, are renamed first, in their order, as if bound around ``c``: a
    configuration's restrictions.  Two terms are alpha-equivalent iff their
    canonical forms are equal.  Source names are preserved in the original
    term; this is only for comparisons.
    """
    counter = itertools.count(1)
    env = {name: f"{_CANON_PREFIX}{next(counter)}" for name in free}
    return _rename(c, env, lambda: f"{_CANON_PREFIX}{next(counter)}")


def alpha_equal(c1: Choreography, c2: Choreography) -> bool:
    return alpha_canonical(c1) == alpha_canonical(c2)


# ---------------------------------------------------------------------------
# Capability state


def exchange(x: frozenset[CapAtom], y: frozenset[CapAtom], z: frozenset[CapAtom]) -> frozenset[CapAtom]:
    """Replace ``x`` by ``y`` inside ``z`` when ``x`` is held, else leave ``z``."""
    if x <= z:
        return frozenset(z - x) | y
    return z


@term
class CapState:
    """Immutable store of capability atoms per thread and session.

    Conceptually a set of triples ``(thread, session, atom)``; looking up an
    absent pair yields the empty set.
    """

    triples: frozenset[tuple[Thread, SessionKey, CapAtom]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "triples", frozenset(self.triples))

    @classmethod
    def of(cls, mapping: Mapping[tuple[Thread, SessionKey], Iterable[CapAtom]]) -> "CapState":
        return cls(frozenset((t, k, a) for (t, k), atoms in mapping.items() for a in atoms))

    def caps(self, t: Thread, k: SessionKey) -> frozenset[CapAtom]:
        return frozenset(a for (t2, k2, a) in self.triples if t2 == t and k2 == k)

    def keys(self) -> frozenset[tuple[Thread, SessionKey]]:
        return frozenset((t, k) for (t, k, _) in self.triples)

    def update(self, other: "CapState") -> "CapState":
        """Override shared (thread, session) keys with the entries of ``other``."""
        shared = other.keys()
        return CapState(other.triples | {tr for tr in self.triples if tr[:2] not in shared})

    def items(self) -> Iterator[tuple[tuple[Thread, SessionKey], frozenset[CapAtom]]]:
        for key in sorted(self.keys()):
            yield key, self.caps(*key)

    def names(self) -> frozenset[str]:
        return frozenset(n for t, k, _ in self.triples for n in (t, k))


def state_update(sigma: CapState, sigma_prime: CapState) -> CapState:
    return sigma.update(sigma_prime)


# ---------------------------------------------------------------------------
# Semantic labels


@term
class GTau:
    pass


@term
class GInitL:
    actives: tuple[tuple[Thread, Role], ...]
    services: tuple[tuple[Thread, Role], ...]
    svc: ServiceName
    key: SessionKey


@term
class GBcastL:
    sender: tuple[Thread, Role]
    receivers: tuple[tuple[Thread, Role], ...]
    quality: Quality
    key: SessionKey
    chosen: frozenset[Thread]
    value: OptValue


@term
class GReduceL:
    senders: tuple[tuple[Thread, Role], ...]
    receiver: tuple[Thread, Role]
    quality: Quality
    key: SessionKey
    chosen: frozenset[Thread]
    contributions: tuple[tuple[Thread, OptValue], ...]
    result: OptValue
    op: str


@term
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
    cls = type(x)
    try:
        names = _REPR_FIELDS[cls]
    except KeyError:
        names = _REPR_FIELDS[cls] = getattr(cls, "__term_fields__", None)
    if names is None:
        return repr(x)
    args = ", ".join(f"{name}={stable_repr(getattr(x, name))}" for name in names)
    return f"{cls.__qualname__}({args})"


_REPR_FIELDS: dict = {}  # type -> its term fields, or None


def label_first_sorted(pairs: Iterable[tuple]) -> list[tuple]:
    """``sorted(pairs, key=stable_repr)`` for distinct ``(label, successor)`` pairs.

    The text ``(a, x)`` sorts against ``(b, y)`` as ``a`` against ``b``
    unless the label texts are equal or one is a prefix of the other, which
    two neighbours in label order show; only then are successors rendered.
    """
    texts = {pair: stable_repr(pair[0]) for pair in pairs}
    order = sorted(texts, key=texts.__getitem__)
    if any(texts[b].startswith(texts[a]) for a, b in zip(order, order[1:])):
        return sorted(texts, key=lambda pair: f"({texts[pair]}, {stable_repr(pair[1])})")
    return order
