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
from functools import cached_property
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

# every token of the text, each alternative before any that matches a prefix of it
_TOKENS = r"""\d+\.\d+ | \d+ | "(?:[^"\\]|\\.)*" | [A-Za-z_][A-Za-z0-9_]* | -> | [{}()\[\];:,.<>/@=*+-]"""


def _patterns(tokens: str) -> tuple[re.Pattern, re.Pattern]:
    """The one-pass scan of a text of ``tokens`` (see ``_Parser``) and the
    sequential one (see ``_Parser.offsets``), which tells blanks by group ``ws``."""
    return (re.compile(rf"(?://[^\n]*|{tokens}|\Z)\s*", re.VERBOSE),
            re.compile(rf"(?P<ws>\s+|//[^\n]*)|{tokens}", re.VERBOSE))


class ParseError(Exception):
    """Syntax error with the offending span and the expected token set."""

    path: str | None = None  # the file the span points into, if not the input named

    def __init__(self, message: str, span, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self._span = span  # (start, end), or a function that finds them when first read
        self.expected = expected

    @property
    def span(self) -> tuple[int, int]:
        return self._span() if callable(self._span) else self._span


class DuplicateThreadInInit(ParseError):
    pass


class SelectNotAll(ParseError):
    pass


class UndeclaredCapability(ParseError):
    pass


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
    patterns = _patterns(_TOKENS)

    def __init__(self, text: str, lax_select: bool = False):
        self.text = text
        # one findall: each token and the blank after it (a comment is a token here), then
        # "" at the end; they cover the text but its leading blank unless a character is skipped
        found = self.patterns[0].findall(text)
        if sum(map(len, found)) != len(text.lstrip()):
            found = [text[a:b] for a, b in self.offsets]  # raises at that character
        self.tokens = list(map(str.rstrip, found))
        if "//" in text:
            self.tokens = [tok for tok in self.tokens if not tok.startswith("//")]
        self.pos = 0
        self.lax_select = lax_select
        self.in_init = False

    @cached_property
    def offsets(self) -> list[tuple[int, int]]:
        """(start, end) of each token, then of the end, by ``match`` at each offset in turn."""
        out, pos = [], 0
        while pos < len(self.text):
            m = self.patterns[1].match(self.text, pos)
            if m is None:
                raise ParseError(f"unexpected character {self.text[pos]!r}", (pos, pos + 1))
            if m.lastgroup != "ws":
                out.append(m.span())
            pos = m.end()
        return out + [(pos, pos)]

    def span(self, first: int, last: int | None = None):
        """A function for the offsets of tokens ``first`` to ``last``, read by ``ParseError``."""
        return lambda: (self.offsets[first][0], self.offsets[first if last is None else last][1])

    # -- token plumbing

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *texts: str) -> bool:
        return self.tokens[self.pos] in texts

    def expect(self, text: str) -> None:
        if (tok := self.tokens[self.pos]) != text:
            raise ParseError(f"expected {text!r}, found {tok or 'end of input'!r}",
                             self.span(self.pos), (text,))
        self.pos += 1

    def ident(self, what: str = "identifier") -> str:
        tok = self.tokens[self.pos]
        if not tok.isidentifier() or tok in KEYWORDS:
            raise ParseError(f"expected {what}, found {tok or 'end of input'!r}",
                             self.span(self.pos), (what,))
        self.pos += 1
        return tok

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
            start = self.pos
            if self.next() == "service":
                name = self.ident("service name")
                self.expect(":")
                g = self.gtype()
                self.expect(";")
                if name in services:
                    end = self.pos
                    raise ParseError(f"service {name!r} declared twice",
                                     lambda: (self.offsets[start][0], self.offsets[end][0]))
                services[name] = ServiceBinding(g)
            else:
                name = self.ident("capability signature name")
                self.expect("=")
                self.expect("{")
                atoms = self.comma_list(self.atom)
                self.expect("}")
                self.expect(";")
                caps[name] = frozenset(atoms)
        kw = self.pos
        self.expect("choreography")
        self.expect("{")
        body = self.chor()
        self.expect("}")
        if self.peek():
            raise ParseError(f"trailing input {self.peek()!r}", self.span(self.pos),
                             ("end of input",))
        prog = SourceProgram(services, caps, body)
        if caps:
            _validate_atoms(prog, self.span(kw))
        return prog

    # -- global types

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
            sort = self.sort()
            self.expect(".")
            return BcastT(sender, receivers, sort, self.gtype())
        if self.at("reduce"):
            self.next()
            senders = self.role_group()
            self.expect("->")
            receiver = self.ident("role")
            sort = self.sort()
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

    def branch_arm(self) -> tuple[str, GlobalType]:
        label = self.ident("branch label")
        self.expect(":")
        return label, self.gtype()

    def role_group(self) -> tuple[str, ...]:
        self.expect("(")
        roles = self.comma_list(lambda: self.ident("role"))
        self.expect(")")
        return tuple(roles)

    def sort(self) -> str:
        self.expect("<")
        tok = self.peek()
        if tok not in SORTS:
            raise ParseError(f"expected a sort, found {tok!r}", self.span(self.pos), SORTS)
        self.next()
        self.expect(">")
        return tok

    # -- choreographies

    def chor(self) -> Choreography:
        inters = []
        while not self.at("end", "if"):
            inters.append(self.interaction())
            self.expect(";")
        if self.next() == "end":
            return seq(*inters, End())
        guard = self.expr()
        self.expect("@")
        at = self.ident("thread")
        self.expect("{")
        then = self.chor()
        self.expect("}")
        self.expect("else")
        self.expect("{")
        orelse = self.chor()
        self.expect("}")
        return seq(*inters, If(guard, at, then, orelse))

    def interaction(self) -> Interaction:
        tok = self.pos
        if self.at("start"):
            self.next()
            key = self.ident("session key")
            self.expect("(")
            svc = self.ident("service name")
            self.expect(")")
            self.in_init = True
            try:
                actives = self.athr_group()
                self.expect("->")
                services = self.athr_group()
            finally:
                self.in_init = False
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

    def athr_group(self) -> tuple[AnnotatedThread, ...]:
        self.expect("(")
        out = self.comma_list(self.athr)
        self.expect(")")
        return tuple(out)

    def athr(self) -> AnnotatedThread:
        thread = self.ident("thread")
        self.expect("[")
        role = self.ident("role")
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
        return self.ident("capability atom")

    def recv(self) -> tuple[AnnotatedThread, str]:
        p = self.athr()
        self.expect(":")
        return p, self.ident("variable")

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
        elif tok.isdecimal():
            self.next()
            self.expect("/")
            n_tok = self.peek()
            if not n_tok.isdecimal():
                raise ParseError(f"expected a natural number, found {n_tok!r}",
                                 self.span(self.pos), ("NAT",))
            self.next()
            try:
                q = q_ratio(int(tok), int(n_tok))
            except ValueError as exc:
                raise ParseError(str(exc), self.span(self.pos - 3, self.pos - 1))
        else:
            raise ParseError(f"expected a quality predicate, found {tok!r}",
                             self.span(self.pos), ("all", "any", "m/n"))
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
        while prec <= (p := _PREC.get(self.peek(), 0)) < below:
            op = self.next()
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
        if tok[:1].isdecimal():  # a natural number, or a float if it has a point
            self.next()
            return Lit(int(tok) if tok.isdecimal() else float(tok))
        if tok[:1] == '"':
            self.next()
            return Lit(_unquote(tok))
        if tok in _CONSTANTS:
            self.next()
            return _CONSTANTS[tok]
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
            if s[:1] != '"':
                raise ParseError(f"expected a date string, found {s!r}", self.span(self.pos),
                                 ("STRING",))
            self.next()
            self.expect(")")
            return Lit(Date(_unquote(s)))
        if self.at("("):
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if tok.isidentifier() and tok not in KEYWORDS:
            self.next()
            return Var(tok)
        raise ParseError(f"expected an expression, found {tok or 'end of input'!r}",
                         self.span(self.pos), ("expression",))


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _validate_atoms(prog: SourceProgram, span) -> None:
    declared = prog.declared_atoms()
    used = {a for eta in interactions_of(prog.chor) for p in inter_parts(eta).athrs
            for a in p.req | p.off}
    undeclared = used - declared
    if undeclared:
        raise UndeclaredCapability(
            f"capability atoms not covered by any caps declaration: {sorted(undeclared)}", span)


def parse(text: str, lax_select: bool = False) -> SourceProgram:
    """Parse a program; raises :class:`ParseError` with a span on bad input."""
    return _Parser(text, lax_select).program()


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
