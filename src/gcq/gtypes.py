"""Global session types: protocol syntax, transitions and the type checker.

A global type scripts the collective interactions of one session: broadcast
and reduce types carry the payload sort, branch types map each label a
selector may pick to its continuation protocol.  The session judgment
``Gamma; Psi |- C |> Delta`` is split into two independent analyses: the
capability analysis of :mod:`gcq.captypes` and a protocol-conformance
analysis that never looks at capabilities.

A type may swap role-disjoint steps (Carbone & Montesi, POPL 2013): a
bcast or reduce with a disjoint bcast, reduce or branching after it, and a
branching with a disjoint head that every one of its arms begins with (the
same bcast or reduce and sort, or a branching on the same labels), which
then moves out of the arms.  A step is taken by lifting it to the head
through these swaps (:func:`_lift`), not by listing the swap variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .captypes import Failure, Report, describe_interaction
from .syntax import (
    Bcast,
    Binop,
    Choreography,
    Date,
    End,
    Expr,
    If,
    Init,
    Lit,
    NoneE,
    Reduce,
    Role,
    Select,
    Seq,
    SessionKey,
    SomeE,
    Thread,
    Unop,
    Value,
    Var,
    VarName,
    comm_parts,
    inter_parts,
    subterms,
    term,
)

SORTS = ("bool", "int", "string", "date", "float")
Sort = str


class NotInferable(ValueError):
    """No global type reproduces the session behaviour of the term."""


# ---------------------------------------------------------------------------
# Global type syntax


@term
class EndT:
    def __str__(self) -> str:
        return "end"


@term
class BcastT:
    sender: Role
    receivers: tuple[Role, ...]
    sort: Sort
    cont: "GlobalType"

    def __str__(self) -> str:
        return f"bcast {self.sender}->({','.join(self.receivers)})<{self.sort}>.{self.cont}"


@term
class RedT:
    senders: tuple[Role, ...]
    receiver: Role
    sort: Sort
    cont: "GlobalType"

    def __str__(self) -> str:
        return f"reduce ({','.join(self.senders)})->{self.receiver}<{self.sort}>.{self.cont}"


@term
class BranchT:
    sender: Role
    receivers: tuple[Role, ...]
    branches: tuple[tuple[str, "GlobalType"], ...]  # label-sorted, labels distinct

    def __post_init__(self):
        labels = [l for l, _ in self.branches]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate branch labels: {labels}")
        if list(labels) != sorted(labels):
            object.__setattr__(self, "branches", tuple(sorted(self.branches)))

    def label_map(self) -> dict[str, "GlobalType"]:
        return dict(self.branches)

    def __str__(self) -> str:
        body = ", ".join(f"{l}: {g}" for l, g in self.branches)
        return f"branch {self.sender}->({','.join(self.receivers)}){{{body}}}"


GlobalType = Union[EndT, BcastT, RedT, BranchT]
END_T = EndT()


def branch_t(sender: Role, receivers: Iterable[Role], branches: Mapping[str, GlobalType]) -> BranchT:
    return BranchT(sender, tuple(receivers), tuple(sorted(branches.items())))


def gtype_roles(g: GlobalType) -> frozenset[Role]:
    match g:
        case EndT():
            return frozenset()
        case BcastT(sender, receivers, _, cont):
            return frozenset({sender}) | frozenset(receivers) | gtype_roles(cont)
        case RedT(senders, receiver, _, cont):
            return frozenset(senders) | {receiver} | gtype_roles(cont)
        case BranchT(sender, receivers, branches):
            out = frozenset({sender}) | frozenset(receivers)
            for _, cont in branches:
                out |= gtype_roles(cont)
            return out
    raise TypeError(f"not a global type: {g!r}")


def _head_roles(g: GlobalType) -> frozenset[Role]:
    match g:
        case BcastT(sender, receivers, _, _) | BranchT(sender, receivers, _):
            return frozenset({sender}) | frozenset(receivers)
        case RedT(senders, receiver, _, _):
            return frozenset(senders) | {receiver}
    return frozenset()


# ---------------------------------------------------------------------------
# Transitions up to type-level swaps


@term
class TLabel:
    """Abstract interaction consumed by a type transition."""

    kind: str  # "bcast" | "red" | "sel"
    a_roles: tuple[Role, ...]
    b_roles: tuple[Role, ...]
    sort: Optional[Sort] = None  # None matches any sort (optional-data payload)
    label: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "bcast":
            return f"bcast {self.a_roles[0]}->({','.join(self.b_roles)})<{self.sort or '_'}>"
        if self.kind == "red":
            return f"reduce ({','.join(self.a_roles)})->{self.b_roles[0]}<{self.sort or '_'}>"
        return f"select {self.a_roles[0]}->({','.join(self.b_roles)}):{self.label}"


def _head_step(g: GlobalType, alpha: TLabel) -> Optional[tuple[GlobalType, GlobalType]]:
    """``g``'s own head, its continuations cut, and what is left once the
    head takes ``alpha``; None if the head does not take it."""
    match g, alpha.kind:
        case BcastT(sender, receivers, sort, cont), "bcast":
            if (sender,) == alpha.a_roles and frozenset(receivers) == frozenset(alpha.b_roles) \
                    and (alpha.sort is None or alpha.sort == sort):
                return g.replace(cont=END_T), cont
        case RedT(senders, receiver, sort, cont), "red":
            if frozenset(senders) == frozenset(alpha.a_roles) and (receiver,) == alpha.b_roles \
                    and (alpha.sort is None or alpha.sort == sort):
                return g.replace(cont=END_T), cont
        case BranchT(sender, receivers, branches), "sel":
            if (sender,) == alpha.a_roles and frozenset(receivers) == frozenset(alpha.b_roles):
                for l, cont in branches:
                    if l == alpha.label:
                        cut = tuple((label, END_T) for label, _ in branches)
                        return BranchT(sender, receivers, cut), cont
    return None


def _lift(g: GlobalType, alpha: TLabel) -> Optional[tuple[GlobalType, GlobalType]]:
    """The head that swaps bring to the front of ``g`` to take ``alpha``,
    its continuations cut, and the type left once it is taken; None if
    no swap brings one.

    A head whose roles are disjoint from ``alpha``'s is passed and kept in
    the residual; a branching is passed only when every arm lifts the same
    head, which is then hoisted out of all of them.  Any other head must
    take ``alpha`` itself.
    """
    if not _head_roles(g).isdisjoint(alpha.a_roles + alpha.b_roles):
        return _head_step(g, alpha)
    match g:
        case BcastT() | RedT():
            lifted = _lift(g.cont, alpha)
            if lifted is None:
                return None
            return lifted[0], g.replace(cont=lifted[1])
        case BranchT(sender, receivers, branches):
            arms = [_lift(gi, alpha) for _, gi in branches]
            if not arms or any(a is None or a[0] != arms[0][0] for a in arms):
                return None
            return arms[0][0], BranchT(sender, receivers,
                                       tuple((l, r) for (l, _), (_, r) in zip(branches, arms)))
    return None


# ---------------------------------------------------------------------------
# Environments


@term
class ServiceBinding:
    gtype: GlobalType
    actives: Optional[tuple[Role, ...]] = None   # None: take the split from the start
    services: Optional[tuple[Role, ...]] = None


@dataclass(frozen=True)
class GammaEnv:
    services: Mapping[str, ServiceBinding] = field(default_factory=dict)
    var_sorts: Mapping[tuple[VarName, Thread], Sort] = field(default_factory=dict)
    ownerships: Mapping[tuple[Thread, SessionKey], Role] = field(default_factory=dict)

    def with_ownerships(self, new: Mapping[tuple[Thread, SessionKey], Role]) -> "GammaEnv":
        return GammaEnv(self.services, self.var_sorts, {**self.ownerships, **new})

    def with_var_sorts(self, new: Mapping[tuple[VarName, Thread], Sort]) -> "GammaEnv":
        return GammaEnv(self.services, {**self.var_sorts, **new}, self.ownerships)

    def threads(self) -> frozenset[Thread]:
        return (frozenset(t for t, _ in self.ownerships)
                | frozenset(t for _, t in self.var_sorts))


DeltaEnv = Mapping[SessionKey, GlobalType]


# ---------------------------------------------------------------------------
# Sorts of values and expressions


def value_sort(v: Value) -> Sort:
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, float):
        return "float"
    if isinstance(v, Date):
        return "date"
    if isinstance(v, str):
        return "string"
    raise TypeError(f"no sort for value {v!r}")


class SortError(ValueError):
    pass


def sort_of(e: Expr, at: Thread, gamma: GammaEnv) -> Optional[Sort]:
    """Sort of an optional-data expression; ``None`` stands for any sort."""
    match e:
        case Lit(value):
            return value_sort(value)
        case NoneE():
            return None
        case SomeE(inner):
            return sort_of(inner, at, gamma)
        case Var(name):
            s = gamma.var_sorts.get((name, at))
            if s is None:
                raise SortError(f"variable {name}@{at} has no declared sort")
            return s
        case Unop(op, operand):
            s = sort_of(operand, at, gamma)
            if op == "not":
                if s not in (None, "bool"):
                    raise SortError(f"'not' applied to {s}")
                return "bool"
            if s not in (None, "int", "float"):
                raise SortError(f"negation applied to {s}")
            return s
        case Binop(op, left, right):
            sl = sort_of(left, at, gamma)
            sr = sort_of(right, at, gamma)
            if op in ("+", "-", "*"):
                merged = _merge_sorts(sl, sr)
                if merged not in (None, "int", "float"):
                    raise SortError(f"arithmetic on {merged}")
                return merged
            if op in ("=", "<"):
                merged = _merge_sorts(sl, sr)
                if op == "<" and merged == "bool":
                    raise SortError("'<' on booleans")
                return "bool"
            if op in ("and", "or"):
                for s in (sl, sr):
                    if s not in (None, "bool"):
                        raise SortError(f"boolean operator on {s}")
                return "bool"
    raise TypeError(f"not an expression: {e!r}")


def _merge_sorts(a: Optional[Sort], b: Optional[Sort]) -> Optional[Sort]:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise SortError(f"sort mismatch: {a} vs {b}")


def sorts_match(actual: Optional[Sort], declared: Sort) -> bool:
    return actual is None or actual == declared


# ---------------------------------------------------------------------------
# The session judgment


class SessionChecker:
    def __init__(self):
        self.failures: list[Failure] = []

    def _fail(self, code: str, where: str, reason: str) -> None:
        self.failures.append(Failure(code, where, reason))

    def check(self, gamma: GammaEnv, c: Choreography, delta: DeltaEnv) -> bool:
        match c:
            case End():
                residue = {k: g for k, g in delta.items() if g != END_T}
                if residue:
                    self._fail("ProtocolResidue", "end",
                               "unfinished sessions: "
                               + ", ".join(f"{k}: {g}" for k, g in sorted(residue.items())))
                    return False
                return True
            case If(guard, at, then, orelse):
                ok = True
                try:
                    s = sort_of(guard, at, gamma)
                    if s not in (None, "bool"):
                        self._fail("SortMismatch", f"if @{at}", f"guard has sort {s}, wanted bool")
                        ok = False
                except SortError as exc:
                    self._fail("SortMismatch", f"if @{at}", str(exc))
                    ok = False
                ok1 = self.check(gamma, then, delta)
                ok2 = self.check(gamma, orelse, delta)
                return ok and ok1 and ok2
            case Seq(inter, cont):
                return self._check_inter(gamma, inter, cont, delta)
        raise TypeError(f"not a choreography: {c!r}")

    def _check_inter(self, gamma, inter, cont, delta) -> bool:
        where = describe_interaction(inter)
        match inter:
            case Init(actives, services, svc, key):
                binding = gamma.services.get(svc)
                if binding is None:
                    self._fail("ServiceNotDeclared", where, f"service {svc!r} not in the environment")
                    return False
                active_roles = tuple(p.role for p in actives)
                service_roles = tuple(p.role for p in services)
                if binding.actives is not None and frozenset(binding.actives) != frozenset(active_roles):
                    self._fail("RoleMismatch", where,
                               f"declared active roles {binding.actives} vs {active_roles}")
                    return False
                if binding.services is not None and frozenset(binding.services) != frozenset(service_roles):
                    self._fail("RoleMismatch", where,
                               f"declared service roles {binding.services} vs {service_roles}")
                    return False
                declared = gtype_roles(binding.gtype)
                announced = frozenset(active_roles) | frozenset(service_roles)
                if not declared <= announced:
                    self._fail("RoleMismatch", where,
                               f"protocol roles {sorted(declared)} not covered by {sorted(announced)}")
                    return False
                if len(set(active_roles + service_roles)) != len(active_roles + service_roles):
                    self._fail("RoleMismatch", where, "participant roles must be pairwise distinct")
                    return False
                clash = {p.thread for p in services} & gamma.threads()
                if clash:
                    self._fail("FreshnessViolation", where,
                               f"service threads already known: {sorted(clash)}")
                    return False
                if key in delta:
                    self._fail("FreshnessViolation", where, f"session {key!r} already tracked")
                    return False
                own = {(p.thread, key): p.role for p in actives + services}
                return self.check(gamma.with_ownerships(own), cont, {**delta, key: binding.gtype})

        principal, candidates, _, key = comm_parts(inter)
        g = delta.get(key)
        if g is None:
            self._fail("SessionUntracked", where, f"session {key!r} has no protocol")
            return False
        for p in (principal, *candidates):
            actual = gamma.ownerships.get((p.thread, key))
            if actual != p.role:
                self._fail("RoleNotOwned", where,
                           f"{p.thread} does not own role {p.role} in session {key} (has {actual})")
                return False
        parts = inter_parts(inter)
        try:
            sorts = [sort_of(e, at, gamma) for e, at in parts.exprs]
        except SortError as exc:
            self._fail("SortMismatch", where, str(exc))
            return False
        kind = _KINDS[type(inter)]
        a_roles, b_roles = (principal.role,), tuple(p.role for p in candidates)
        if kind == "red":
            a_roles, b_roles = b_roles, a_roles
        alpha = TLabel(kind, a_roles, b_roles, None, getattr(inter, "label", None))
        lifted = _lift(g, alpha)
        if lifted is None:
            self._fail("LabelNotOffered" if kind == "sel" else "ProtocolMismatch", where,
                       f"protocol {g} does not offer {alpha}")
            return False
        head, residual = lifted
        # a selection evaluates and binds nothing, so only a bcast or reduce head's sort is read
        for s_actual in sorts:
            if not sorts_match(s_actual, head.sort):
                self._fail("SortMismatch", where, _SORT_CLASH[kind].format(s_actual, head.sort))
                return False
        new_vars = {(x, at): head.sort for _, x, at in parts.binds}
        return self.check(gamma.with_var_sorts(new_vars), cont, {**delta, key: residual})


_KINDS = {Bcast: "bcast", Reduce: "red", Select: "sel"}
_SORT_CLASH = {"bcast": "payload sort {} does not match protocol sort {}",
               "red": "contribution sort {} vs protocol sort {}"}


def check_session_only(gamma: GammaEnv, c: Choreography, delta: DeltaEnv | None = None) -> Report:
    """The protocol-conformance half of the judgment, without capabilities."""
    checker = SessionChecker()
    ok = checker.check(gamma, c, dict(delta or {}))
    return Report(ok, checker.failures)


# ---------------------------------------------------------------------------
# Protocol inference (used to build typed corpora and service declarations)


def merge_gtypes(g1: GlobalType, g2: GlobalType) -> GlobalType:
    if g1 == g2:
        return g1
    if isinstance(g1, BranchT) and isinstance(g2, BranchT) \
            and g1.sender == g2.sender and frozenset(g1.receivers) == frozenset(g2.receivers):
        m1, m2 = g1.label_map(), g2.label_map()
        merged = dict(m1)
        for l, g in m2.items():
            merged[l] = merge_gtypes(m1[l], g) if l in m1 else g
        return branch_t(g1.sender, g1.receivers, merged)
    raise NotInferable(f"cannot merge protocols {g1} and {g2}")


def infer_protocol(c: Choreography, key: SessionKey, gamma: GammaEnv | None = None) -> GlobalType:
    """Global type of one session, as scripted by the term itself."""
    gamma = gamma or GammaEnv()

    def walk(ch: Choreography, var_sorts: dict) -> GlobalType:
        match ch:
            case End():
                return END_T
            case If(_, _, then, orelse):
                return merge_gtypes(walk(then, var_sorts), walk(orelse, dict(var_sorts)))
            case Seq(inter, cont):
                if inter.key != key:
                    return walk(cont, var_sorts)
                g2 = GammaEnv(gamma.services, var_sorts, gamma.ownerships)
                match inter:
                    case Init():
                        return walk(cont, var_sorts)
                    case Bcast(sender, expr, receivers, _, _):
                        try:
                            s = sort_of(expr, sender.thread, g2) or "int"
                        except SortError as exc:
                            raise NotInferable(str(exc))
                        vs = dict(var_sorts)
                        for p, x in receivers:
                            vs[(x, p.thread)] = s
                        return BcastT(sender.role, tuple(p.role for p, _ in receivers), s,
                                      walk(cont, vs))
                    case Reduce(senders, receiver, bind_var, _, _, _):
                        s: Optional[Sort] = None
                        for p, e in senders:
                            try:
                                s = _merge_sorts(s, sort_of(e, p.thread, g2))
                            except SortError as exc:
                                raise NotInferable(str(exc))
                        s = s or "int"
                        vs = dict(var_sorts)
                        vs[(bind_var, receiver.thread)] = s
                        return RedT(tuple(p.role for p, _ in senders), receiver.role, s,
                                    walk(cont, vs))
                    case Select(sender, receivers, _, _, label):
                        return branch_t(sender.role, tuple(p.role for p in receivers),
                                        {label: walk(cont, var_sorts)})
        raise TypeError(f"not a choreography: {ch!r}")

    return walk(c, dict(gamma.var_sorts))


def infer_gamma(c: Choreography) -> GammaEnv:
    """Service environment inferred from every session start of the term."""
    services: dict[str, ServiceBinding] = {}
    for node in subterms(c):
        eta = node.inter if isinstance(node, Seq) else None
        if not isinstance(eta, Init):
            continue
        svc = eta.svc
        binding = ServiceBinding(infer_protocol(node, eta.key), tuple(p.role for p in eta.actives),
                                 tuple(p.role for p in eta.services))
        if svc in services:
            prior = services[svc]
            merged = merge_gtypes(prior.gtype, binding.gtype)
            if (frozenset(prior.actives or ()) != frozenset(binding.actives or ())
                    or frozenset(prior.services or ()) != frozenset(binding.services or ())):
                raise NotInferable(f"service {svc!r} started with differing role splits")
            services[svc] = ServiceBinding(merged, prior.actives, prior.services)
        else:
            services[svc] = binding
    return GammaEnv(services, {}, {})
