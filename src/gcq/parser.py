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
    seq,
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


# binding strength of the binary operators, read by the parser and the printer
_PREC = {"or": 1, "and": 2, "=": 3, "<": 3, "+": 4, "-": 4, "*": 5}
_UNARY = max(_PREC.values()) + 1  # prefix "-" and "not" bind tighter than all of them
_ATOM = _UNARY + 1  # the printer writes a payload after "." as an atom or in parentheses
_COMPARISONS = ("=", "<")  # these do not chain
_CONSTANTS = {"true": Lit(True), "false": Lit(False), "none": NoneE()}


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
        inters = []
        while not self.at("end", "if"):
            inters.append(self.interaction())
            self.expect(";")
        if self.next().text == "end":
            return seq(*inters, End())
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
        return seq(*inters, If(guard, at, then, orelse))

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

    # -- expressions, by precedence climbing over ``_PREC``

    def expr(self, prec: int = 1) -> Expr:
        """An expression whose operators all bind at least as tightly as
        ``prec``.  Operators associate to the left; a comparison takes no
        comparison as its left operand, so ``1 < 2 < 3`` stops before the
        second ``<``."""
        e = self._unary()
        below = _UNARY  # the next operator must bind less tightly than this
        while prec <= (p := _PREC.get(self.peek().text, 0)) < below:
            op = self.next().text
            e = Binop(op, e, self.expr(p + 1))
            below = p if op in _COMPARISONS else p + 1
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
        if tok.text in _CONSTANTS:
            self.next()
            return _CONSTANTS[tok.text]
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
            body = ("not " if op == "not" else "-") + print_expr(operand, _UNARY)
            return f"({body})" if parent_prec > _UNARY else body
        case Binop(op, left, right):
            prec = _PREC[op]
            # comparisons do not chain: parenthesize both operands at equal level
            left_prec = prec + 1 if op in _COMPARISONS else prec
            body = f"{print_expr(left, left_prec)} {op} {print_expr(right, prec + 1)}"
            return f"({body})" if parent_prec > prec else body
    raise TypeError(f"not an expression: {e!r}")


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


def _print_chor(c: Choreography, indent: str) -> list[str]:
    out = []
    while isinstance(c, Seq):
        out.append(indent + print_interaction(c.inter) + ";")
        c = c.cont
    match c:
        case End():
            out.append(indent + "end")
        case If(guard, at, then, orelse):
            out.append(indent + f"if {print_expr(guard)} @ {at} {{")
            out += _print_chor(then, indent + "  ")
            out.append(indent + "} else {")
            out += _print_chor(orelse, indent + "  ")
            out.append(indent + "}")
        case _:
            raise TypeError(f"not a choreography: {c!r}")
    return out


def pretty_print(c: Choreography) -> str:
    """Program text whose parse is structurally equal to ``c``."""
    return "choreography {\n" + "\n".join(_print_chor(c, "  ")) + "\n}\n"


def pretty_print_program(prog: SourceProgram) -> str:
    lines = []
    for name, binding in sorted(prog.services.items()):
        lines.append(f"service {name} : {binding.gtype};")
    for name, atoms in sorted(prog.caps_decls.items()):
        lines.append(f"caps {name} = {{{', '.join(sorted(atoms))}}};")
    if lines:
        lines.append("")
    return "\n".join(lines) + pretty_print(prog.chor)
