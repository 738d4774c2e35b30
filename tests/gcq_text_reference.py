"""The ``.gcq`` text of interactions and protocols, one arm per form: the
specification that the template rows of ``gcq.parser`` and ``gcq.gtypes``
are checked against.

:class:`ReferenceParser` reads each interaction and protocol by its own
arm; it inherits the rest (token plumbing, programs, choreographies,
annotated threads, qualities, expressions) from ``gcq.parser._Parser``.
:func:`print_interaction` and :func:`protocol_text` write them the same way.
"""

from __future__ import annotations

from gcq.gtypes import BcastT, BranchT, END_T, EndT, GlobalType, RedT, SORTS
from gcq.parser import (
    DuplicateThreadInInit,
    ParseError,
    SelectNotAll,
    SourceProgram,
    _ATOM,
    _Parser,
    print_expr,
)
from gcq.syntax import (
    AGG_OPS,
    AnnotatedThread,
    Bcast,
    Expr,
    Init,
    Interaction,
    Q_ALL,
    Reduce,
    Select,
)


class ReferenceParser(_Parser):
    def gtype(self) -> GlobalType:
        tok = self.pos
        if self.at("end"):
            self.next()
            return END_T
        if self.at("bcast"):
            self.next()
            sender = self.ident("role")
            self.expect("->")
            receivers = self.role_group()
            sort = self.bracketed_sort()
            self.expect(".")
            return BcastT(sender, receivers, sort, self.gtype())
        if self.at("reduce"):
            self.next()
            senders = self.role_group()
            self.expect("->")
            receiver = self.ident("role")
            sort = self.bracketed_sort()
            self.expect(".")
            return RedT(senders, receiver, sort, self.gtype())
        if self.at("branch"):
            self.next()
            sender = self.ident("role")
            self.expect("->")
            receivers = self.role_group()
            self.expect("{")
            branches = self.comma_list(self.branch_arm)
            self.expect("}")
            labels = [l for l, _ in branches]
            if len(set(labels)) != len(labels):
                raise ParseError(f"duplicate branch label in {labels}", self.span(tok))
            return BranchT(sender, receivers, tuple(sorted(branches)))
        raise ParseError(f"expected a protocol, found {self.peek()!r}", self.span(tok),
                         ("end", "bcast", "reduce", "branch"))

    def role_group(self) -> tuple[str, ...]:
        self.expect("(")
        roles = self.comma_list(lambda: self.ident("role"))
        self.expect(")")
        return tuple(roles)

    def bracketed_sort(self) -> str:
        self.expect("<")
        tok = self.peek()
        if tok not in SORTS:
            raise ParseError(f"expected a sort, found {tok!r}", self.span(self.pos), SORTS)
        self.next()
        self.expect(">")
        return tok

    def interaction(self) -> Interaction:
        tok = self.pos
        if self.at("start"):
            self.next()
            key = self.ident("session key")
            self.expect("(")
            svc = self.ident("service name")
            self.expect(")")
            actives = self.athr_group(offer=True)
            self.expect("->")
            services = self.athr_group(offer=True)
            threads = [p.thread for p in actives + services]
            if len(set(threads)) != len(threads):
                raise DuplicateThreadInInit(f"thread listed twice in session start: {threads}",
                                            self.span(tok, self.pos - 1))
            try:
                return Init(actives, services, svc, key)
            except ValueError as exc:
                raise ParseError(str(exc), self.span(tok, self.pos - 1))
        if self.at("bcast"):
            self.next()
            key = self.ident("session key")
            q = self.quality()
            sender = self.athr()
            self.expect(".")
            expr = self.expr()
            self.expect("->")
            self.expect("(")
            receivers = self.comma_list(self.recv)
            self.expect(")")
            return Bcast(sender, expr, tuple(receivers), q, key)
        if self.at("reduce"):
            self.next()
            key = self.ident("session key")
            q = self.quality()
            op = self.ident("aggregation operator")
            if op not in AGG_OPS:
                raise ParseError(f"unknown aggregation operator {op!r}", self.span(self.pos - 1),
                                 AGG_OPS)
            self.expect("(")
            senders = self.comma_list(self.send)
            self.expect(")")
            self.expect("->")
            receiver = self.athr()
            self.expect(":")
            bind_var = self.ident("variable")
            return Reduce(tuple(senders), receiver, bind_var, q, op, key)
        if self.at("select"):
            self.next()
            key = self.ident("session key")
            q_start = self.pos
            q = self.quality()
            if q != Q_ALL and not self.lax_select:
                raise SelectNotAll("collective selection requires the 'all' quality predicate",
                                   self.span(q_start, self.pos - 1), ("all",))
            sender = self.athr()
            self.expect("->")
            receivers = self.athr_group()
            self.expect(":")
            label = self.ident("label")
            return Select(sender, receivers, q, key, label)
        raise ParseError(f"expected an interaction, found {self.peek()!r}", self.span(tok),
                         ("start", "bcast", "reduce", "select", "if", "end"))

    def athr_group(self, offer: bool = False) -> tuple[AnnotatedThread, ...]:
        self.expect("(")
        out = self.comma_list(lambda: self.athr(offer))
        self.expect(")")
        return tuple(out)

    def branch_arm(self) -> tuple[str, GlobalType]:
        label = self.ident("branch label")
        self.expect(":")
        return label, self.gtype()

    def recv(self) -> tuple[AnnotatedThread, str]:
        p = self.athr()
        self.expect(":")
        return p, self.ident("variable")

    def send(self) -> tuple[AnnotatedThread, Expr]:
        p = self.athr()
        self.expect(".")
        return p, self.expr()


def parse(text: str, lax_select: bool = False) -> SourceProgram:
    return ReferenceParser(text, lax_select).program()


def _joined(athrs: tuple[AnnotatedThread, ...]) -> str:
    return ", ".join(map(str, athrs))


def print_interaction(eta: Interaction) -> str:
    match eta:
        case Init(actives, services, svc, key):
            return f"start {key} ({svc}) ({_joined(actives)}) -> ({_joined(services)})"
        case Bcast(sender, expr, receivers, quality, key):
            rs = ", ".join(f"{p}: {x}" for p, x in receivers)
            return f"bcast {key} [{quality}] {sender}.{print_expr(expr, _ATOM)} -> ({rs})"
        case Reduce(senders, receiver, bind_var, quality, op, key):
            ss = ", ".join(f"{p}.{print_expr(e, _ATOM)}" for p, e in senders)
            return f"reduce {key} [{quality}] {op} ({ss}) -> {receiver} : {bind_var}"
        case Select(sender, receivers, quality, key, label):
            return f"select {key} [{quality}] {sender} -> ({_joined(receivers)}) : {label}"
    raise TypeError(f"not an interaction: {eta!r}")


def protocol_text(g: GlobalType) -> str:
    match g:
        case EndT():
            return "end"
        case BcastT(sender, receivers, sort, cont):
            return f"bcast {sender}->({','.join(receivers)})<{sort}>.{protocol_text(cont)}"
        case RedT(senders, receiver, sort, cont):
            return f"reduce ({','.join(senders)})->{receiver}<{sort}>.{protocol_text(cont)}"
        case BranchT(sender, receivers, branches):
            body = ", ".join(f"{l}: {protocol_text(g)}" for l, g in branches)
            return f"branch {sender}->({','.join(receivers)}){{{body}}}"
    raise TypeError(f"not a protocol: {g!r}")
