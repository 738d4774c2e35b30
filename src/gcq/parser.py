"""Concrete syntax for choreography programs.

A program is a list of declarations (service protocols, capability
signatures) followed by one choreography body::

    service temperature : branch M -> (S1,S2,S3) { measure: reduce (S1,S2,S3) -> M <int> . end };
    caps sensor = {Acc0, Acc1, Acc2, Acc3, Ms0, Ms1, Ms2, Ms3, E0, E1, E2, E3};

    choreography {
      start k (temperature) (t1[S1]{Acc1}, t2[S2]{Acc2}, t3[S3]{Acc3}) -> (t0[M]{Acc0});
      select k [all] t0[M]{Acc0;Ms0} -> (t1[S1]{Acc1;Ms1}, t2[S2]{Acc2;Ms2}, t3[S3]{Acc3;Ms3}) : measure;
      reduce k [all] avg (t1[S1]{Ms1;E1}.1, t2[S2]{Ms2;E2}.-2, t3[S3]{Ms3;E3}.5) -> t0[M]{Ms0;E0} : xm;
      end
    }

Annotations ``{X;Y}`` give required and offered capability sets; in a
session start only offers make sense, so a single-part annotation there
reads as the offer, anywhere else as the requirement.  Comments run from
``//`` to the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple
from .gtypes import BcastT, BranchT, END_T, GlobalType, RedT, SORTS, ServiceBinding
from .syntax import (
    AnnotatedThread,
    Bcast,
    Binop,
    Choreography,
    Date,
    End,
    Expr,
    If,
    Init,
    Interaction,
    Lit,
    New,
    NoneE,
    Q_ALL,
    Q_ANY,
    Quality,
    Reduce,
    Select,
    Seq,
    SomeE,
    Unop,
    Var,
    AGG_OPS,
    inter_parts,
    interactions_of,
    q_ratio,
)

KEYWORDS = frozenset("""
choreography service caps end if else start bcast reduce select branch
all any true false none some date and or not bool int string float
""".split())

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<float>\d+\.\d+)
  | (?P<nat>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<punct>[{}()\[\];:,.<>/@=*+-])
""", re.VERBOSE)


class ParseError(Exception):
    """Syntax error with the offending span and the expected token set."""

    path: str | None = None  # the file the span points into, if not the input named

    def __init__(self, message: str, span: tuple[int, int], expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.span = span
        self.expected = expected


class DuplicateThreadInInit(ParseError):
    pass


class SelectNotAll(ParseError):
    pass


class UndeclaredCapability(ParseError):
    pass


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int


def tokenize(text: str, pattern: re.Pattern = _TOKEN_RE) -> list[Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", (pos, pos + 1))
        kind = m.lastgroup
        if kind != "ws":
            out.append(Token(kind, m.group(), m.start(), m.end()))
        pos = m.end()
    out.append(Token("eof", "", len(text), len(text)))
    return out


@dataclass
class SourceProgram:
    services: dict[str, ServiceBinding]
    caps_decls: dict[str, frozenset[str]]
    chor: Choreography

    def declared_atoms(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for atoms in self.caps_decls.values():
            out |= atoms
        return out


class _Parser:
    token_re = _TOKEN_RE

    def __init__(self, text: str, lax_select: bool = False):
        self.tokens = tokenize(text, self.token_re)
        self.pos = 0
        self.lax_select = lax_select
        self.in_init = False

    # -- token plumbing

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
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             (tok.start, tok.end), (text,))
        return self.next()

    def ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}",
                             (tok.start, tok.end), (what,))
        return self.next()

    def comma_list(self, item) -> list:
        """One or more ``item()`` results separated by commas."""
        out = [item()]
        while self.at(","):
            self.next()
            out.append(item())
        return out

    # -- program

    def program(self) -> SourceProgram:
        services: dict[str, ServiceBinding] = {}
        caps: dict[str, frozenset[str]] = {}
        while self.at("service", "caps"):
            if self.at("service"):
                start = self.next().start
                name = self.ident("service name").text
                self.expect(":")
                g = self.gtype()
                self.expect(";")
                if name in services:
                    raise ParseError(f"service {name!r} declared twice", (start, self.peek().start))
                services[name] = ServiceBinding(g)
            else:
                self.next()
                name = self.ident("capability signature name").text
                self.expect("=")
                self.expect("{")
                atoms = self.comma_list(self.atom)
                self.expect("}")
                self.expect(";")
                caps[name] = frozenset(atoms)
        kw = self.expect("choreography")
        self.expect("{")
        body = self.chor()
        self.expect("}")
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", (tok.start, tok.end), ("end of input",))
        prog = SourceProgram(services, caps, body)
        if caps:
            _validate_atoms(prog, kw.start)
        return prog

    # -- global types

    def gtype(self) -> GlobalType:
        tok = self.peek()
        if self.at("end"):
            self.next()
            return END_T
        if self.at("bcast"):
            self.next()
            sender = self.ident("role").text
            self.expect("->")
            receivers = self.role_group()
            sort = self.sort()
            self.expect(".")
            return BcastT(sender, receivers, sort, self.gtype())
        if self.at("reduce"):
            self.next()
            senders = self.role_group()
            self.expect("->")
            receiver = self.ident("role").text
            sort = self.sort()
            self.expect(".")
            return RedT(senders, receiver, sort, self.gtype())
        if self.at("branch"):
            self.next()
            sender = self.ident("role").text
            self.expect("->")
            receivers = self.role_group()
            self.expect("{")
            branches = self.comma_list(self.branch_arm)
            self.expect("}")
            labels = [l for l, _ in branches]
            if len(set(labels)) != len(labels):
                raise ParseError(f"duplicate branch label in {labels}", (tok.start, tok.end))
            return BranchT(sender, receivers, tuple(sorted(branches)))
        raise ParseError(f"expected a protocol, found {tok.text!r}", (tok.start, tok.end),
                         ("end", "bcast", "reduce", "branch"))

    def branch_arm(self) -> tuple[str, GlobalType]:
        label = self.ident("branch label").text
        self.expect(":")
        return label, self.gtype()

    def role_group(self) -> tuple[str, ...]:
        self.expect("(")
        roles = self.comma_list(lambda: self.ident("role").text)
        self.expect(")")
        return tuple(roles)

    def sort(self) -> str:
        self.expect("<")
        tok = self.peek()
        if tok.text not in SORTS:
            raise ParseError(f"expected a sort, found {tok.text!r}", (tok.start, tok.end), SORTS)
        self.next()
        self.expect(">")
        return tok.text

    # -- choreographies

    def chor(self) -> Choreography:
        if self.at("end"):
            self.next()
            return End()
        if self.at("if"):
            self.next()
            guard = self.expr()
            self.expect("@")
            at = self.ident("thread").text
            self.expect("{")
            then = self.chor()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            orelse = self.chor()
            self.expect("}")
            return If(guard, at, then, orelse)
        inter = self.interaction()
        self.expect(";")
        cont = self.chor()
        return Seq(inter, cont)

    def interaction(self) -> Interaction:
        tok = self.peek()
        if self.at("start"):
            self.next()
            key = self.ident("session key").text
            self.expect("(")
            svc = self.ident("service name").text
            self.expect(")")
            self.in_init = True
            try:
                actives = self.athr_group()
                self.expect("->")
                services = self.athr_group()
            finally:
                self.in_init = False
            end = self.tokens[self.pos - 1].end
            threads = [p.thread for p in actives + services]
            if len(set(threads)) != len(threads):
                raise DuplicateThreadInInit(
                    f"thread listed twice in session start: {threads}", (tok.start, end))
            try:
                return Init(actives, services, svc, key)
            except ValueError as exc:
                raise ParseError(str(exc), (tok.start, end))
        if self.at("bcast"):
            self.next()
            key = self.ident("session key").text
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
            key = self.ident("session key").text
            q = self.quality()
            op_tok = self.ident("aggregation operator")
            if op_tok.text not in AGG_OPS:
                raise ParseError(f"unknown aggregation operator {op_tok.text!r}",
                                 (op_tok.start, op_tok.end), AGG_OPS)
            self.expect("(")
            senders = self.comma_list(self.send)
            self.expect(")")
            self.expect("->")
            receiver = self.athr()
            self.expect(":")
            bind_var = self.ident("variable").text
            return Reduce(tuple(senders), receiver, bind_var, q, op_tok.text, key)
        if self.at("select"):
            self.next()
            key = self.ident("session key").text
            q_start = self.peek().start
            q = self.quality()
            if q != Q_ALL and not self.lax_select:
                raise SelectNotAll("collective selection requires the 'all' quality predicate",
                                   (q_start, self.tokens[self.pos - 1].end), ("all",))
            sender = self.athr()
            self.expect("->")
            receivers = self.athr_group()
            self.expect(":")
            label = self.ident("label").text
            return Select(sender, receivers, q, key, label)
        raise ParseError(f"expected an interaction, found {tok.text!r}", (tok.start, tok.end),
                         ("start", "bcast", "reduce", "select", "if", "end"))

    def athr_group(self) -> tuple[AnnotatedThread, ...]:
        self.expect("(")
        out = self.comma_list(self.athr)
        self.expect(")")
        return tuple(out)

    def athr(self) -> AnnotatedThread:
        thread = self.ident("thread").text
        self.expect("[")
        role = self.ident("role").text
        self.expect("]")
        req: frozenset[str] = frozenset()
        off: frozenset[str] = frozenset()
        if self.at("{"):
            self.next()
            first = [] if self.at(";", "}") else self.comma_list(self.atom)
            if self.at(";"):
                self.next()
                second = [] if self.at("}") else self.comma_list(self.atom)
                req, off = frozenset(first), frozenset(second)
            else:
                # one-part annotation: an offer inside a session start,
                # a requirement anywhere else
                if self.in_init:
                    off = frozenset(first)
                else:
                    req = frozenset(first)
            self.expect("}")
        return AnnotatedThread(thread, role, req, off)

    def atom(self) -> str:
        return self.ident("capability atom").text

    def recv(self) -> tuple[AnnotatedThread, str]:
        p = self.athr()
        self.expect(":")
        return p, self.ident("variable").text

    def send(self) -> tuple[AnnotatedThread, Expr]:
        p = self.athr()
        self.expect(".")
        return p, self.expr()

    def quality(self) -> Quality:
        self.expect("[")
        tok = self.peek()
        if self.at("all"):
            self.next()
            q = Q_ALL
        elif self.at("any"):
            self.next()
            q = Q_ANY
        elif tok.kind == "nat":
            self.next()
            self.expect("/")
            n_tok = self.peek()
            if n_tok.kind != "nat":
                raise ParseError(f"expected a natural number, found {n_tok.text!r}",
                                 (n_tok.start, n_tok.end), ("NAT",))
            self.next()
            try:
                q = q_ratio(int(tok.text), int(n_tok.text))
            except ValueError as exc:
                raise ParseError(str(exc), (tok.start, n_tok.end))
        else:
            raise ParseError(f"expected a quality predicate, found {tok.text!r}",
                             (tok.start, tok.end), ("all", "any", "m/n"))
        self.expect("]")
        return q

    # -- expressions, by precedence climbing

    def expr(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        e = self._and()
        while self.at("or"):
            self.next()
            e = Binop("or", e, self._and())
        return e

    def _and(self) -> Expr:
        e = self._cmp()
        while self.at("and"):
            self.next()
            e = Binop("and", e, self._cmp())
        return e

    def _cmp(self) -> Expr:
        e = self._add()
        if self.at("=", "<"):
            op = self.next().text
            e = Binop(op, e, self._add())
        return e

    def _add(self) -> Expr:
        e = self._mul()
        while self.at("+", "-"):
            op = self.next().text
            e = Binop(op, e, self._mul())
        return e

    def _mul(self) -> Expr:
        e = self._unary()
        while self.at("*"):
            self.next()
            e = Binop("*", e, self._unary())
        return e

    def _unary(self) -> Expr:
        if self.at("-"):
            self.next()
            inner = self._unary()
            if isinstance(inner, Lit) and isinstance(inner.value, (int, float)) \
                    and not isinstance(inner.value, bool):
                return Lit(-inner.value)
            return Unop("-", inner)
        if self.at("not"):
            self.next()
            return Unop("not", self._unary())
        return self._primary()

    def _primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "nat":
            self.next()
            return Lit(int(tok.text))
        if tok.kind == "float":
            self.next()
            return Lit(float(tok.text))
        if tok.kind == "string":
            self.next()
            return Lit(_unquote(tok.text))
        if self.at("true"):
            self.next()
            return Lit(True)
        if self.at("false"):
            self.next()
            return Lit(False)
        if self.at("none"):
            self.next()
            return NoneE()
        if self.at("some"):
            self.next()
            self.expect("(")
            e = self.expr()
            self.expect(")")
            return SomeE(e)
        if self.at("date"):
            self.next()
            self.expect("(")
            s = self.peek()
            if s.kind != "string":
                raise ParseError(f"expected a date string, found {s.text!r}",
                                 (s.start, s.end), ("STRING",))
            self.next()
            self.expect(")")
            return Lit(Date(_unquote(s.text)))
        if self.at("("):
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return Var(tok.text)
        raise ParseError(f"expected an expression, found {tok.text or 'end of input'!r}",
                         (tok.start, tok.end), ("expression",))


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _validate_atoms(prog: SourceProgram, at: int) -> None:
    declared = prog.declared_atoms()
    used = {a for eta in interactions_of(prog.chor) for p in inter_parts(eta).athrs
            for a in p.req | p.off}
    undeclared = used - declared
    if undeclared:
        raise UndeclaredCapability(
            f"capability atoms not covered by any caps declaration: {sorted(undeclared)}",
            (at, at + len("choreography")))


def parse(text: str, lax_select: bool = False) -> SourceProgram:
    """Parse a program; raises :class:`ParseError` with a span on bad input."""
    return _Parser(text, lax_select).program()


def parse_choreography(text: str, lax_select: bool = False) -> Choreography:
    return parse(text, lax_select).chor


# ---------------------------------------------------------------------------
# Pretty printing


_PREC = {"or": 1, "and": 2, "=": 3, "<": 3, "+": 4, "-": 4, "*": 5}


def print_expr(e: Expr, parent_prec: int = 0) -> str:
    match e:
        case Lit(value):
            from .syntax import format_value
            if isinstance(value, Date):
                return str(value)
            return format_value(value)
        case Var(name):
            return name
        case NoneE():
            return "none"
        case SomeE(inner):
            return f"some({print_expr(inner)})"
        case Unop(op, operand):
            body = ("not " if op == "not" else "-") + print_expr(operand, 6)
            return f"({body})" if parent_prec > 6 else body
        case Binop(op, left, right):
            prec = _PREC[op]
            # comparisons do not chain: parenthesize both operands at equal level
            left_prec = prec + 1 if op in ("=", "<") else prec
            body = f"{print_expr(left, left_prec)} {op} {print_expr(right, prec + 1)}"
            return f"({body})" if parent_prec > prec else body
    raise TypeError(f"not an expression: {e!r}")


def _print_caps(p: AnnotatedThread, in_init: bool) -> str:
    if not p.req and not p.off:
        return ""
    req = ",".join(sorted(p.req))
    off = ",".join(sorted(p.off))
    if in_init:
        return "{" + off + "}"
    if p.off:
        return "{" + req + ";" + off + "}"
    return "{" + req + "}"


def _print_athr(p: AnnotatedThread, in_init: bool = False) -> str:
    return f"{p.thread}[{p.role}]{_print_caps(p, in_init)}"


def print_interaction(eta: Interaction) -> str:
    match eta:
        case Init(actives, services, svc, key):
            acts = ", ".join(_print_athr(p, True) for p in actives)
            srvs = ", ".join(_print_athr(p, True) for p in services)
            return f"start {key} ({svc}) ({acts}) -> ({srvs})"
        case Bcast(sender, expr, receivers, quality, key):
            rs = ", ".join(f"{_print_athr(p)}: {x}" for p, x in receivers)
            return f"bcast {key} [{quality}] {_print_athr(sender)}.{print_expr(expr, 7)} -> ({rs})"
        case Reduce(senders, receiver, bind_var, quality, op, key):
            ss = ", ".join(f"{_print_athr(p)}.{print_expr(e, 7)}" for p, e in senders)
            return (f"reduce {key} [{quality}] {op} ({ss}) -> "
                    f"{_print_athr(receiver)} : {bind_var}")
        case Select(sender, receivers, quality, key, label):
            rs = ", ".join(_print_athr(p) for p in receivers)
            return f"select {key} [{quality}] {_print_athr(sender)} -> ({rs}) : {label}"
    raise TypeError(f"not an interaction: {eta!r}")


def _print_chor(c: Choreography, indent: str) -> list[str]:
    match c:
        case End():
            return [indent + "end"]
        case Seq(inter, cont):
            return [indent + print_interaction(inter) + ";"] + _print_chor(cont, indent)
        case If(guard, at, then, orelse):
            out = [indent + f"if {print_expr(guard)} @ {at} {{"]
            out += _print_chor(then, indent + "  ")
            out.append(indent + "} else {")
            out += _print_chor(orelse, indent + "  ")
            out.append(indent + "}")
            return out
        case New(_, _, _):
            raise ValueError("restrictions are runtime-only and have no concrete syntax")
    raise TypeError(f"not a choreography: {c!r}")


def print_gtype(g: GlobalType) -> str:
    match g:
        case gt if gt == END_T:
            return "end"
        case BcastT(sender, receivers, sort, cont):
            return f"bcast {sender} -> ({','.join(receivers)}) <{sort}> . {print_gtype(cont)}"
        case RedT(senders, receiver, sort, cont):
            return f"reduce ({','.join(senders)}) -> {receiver} <{sort}> . {print_gtype(cont)}"
        case BranchT(sender, receivers, branches):
            body = ", ".join(f"{l}: {print_gtype(gi)}" for l, gi in branches)
            return f"branch {sender} -> ({','.join(receivers)}) {{{body}}}"
    raise TypeError(f"not a global type: {g!r}")


def pretty_print(c: Choreography) -> str:
    """Program text whose parse is structurally equal to ``c``."""
    return "choreography {\n" + "\n".join(_print_chor(c, "  ")) + "\n}\n"


def pretty_print_program(prog: SourceProgram) -> str:
    lines = []
    for name, binding in sorted(prog.services.items()):
        lines.append(f"service {name} : {print_gtype(binding.gtype)};")
    for name, atoms in sorted(prog.caps_decls.items()):
        lines.append(f"caps {name} = {{{', '.join(sorted(atoms))}}};")
    if lines:
        lines.append("")
    return "\n".join(lines) + pretty_print(prog.chor)
