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
from .gtypes import BranchT, GlobalType, PROTOCOLS, SORTS, ServiceBinding
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
    fill_template,
    indented,
    inter_parts,
    interactions_of,
    q_ratio,
    seq,
    template_steps,
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

    def comma_list(self, item, *args) -> tuple:
        """One or more ``item(*args)`` results separated by commas."""
        out = [item(*args)]
        while self.tokens[self.pos] == ",":
            self.pos += 1
            out.append(item(*args))
        return tuple(out)

    @classmethod
    def steps(cls, text: str, holes: dict) -> tuple:
        """The steps of the template ``text`` (see :func:`template_steps`) with each literal
        cut into this parser's tokens and each kind replaced by its reader ``holes[kind]``."""
        return tuple((cls(literal).tokens[:-1], field, field and holes[kind])
                     for literal, field, kind in template_steps(text))

    @classmethod
    def rows(cls, table: dict, holes: dict) -> dict:
        """Each keyword of ``table``'s texts and the rows that begin with it, in
        table order: each the class and the :meth:`steps` of its text."""
        out: dict = {}
        for kind, text in table.items():
            out.setdefault(cls(text).peek(), []).append((kind, cls.steps(text, holes)))
        return out

    def read_template(self, steps: tuple) -> dict:
        """The fields of a term whose text has these :meth:`steps`: each
        literal token is expected in turn and each hole read by its reader."""
        fields, tokens = {}, self.tokens
        for literal, field, read in steps:
            for tok in literal:
                if tokens[self.pos] != tok:
                    self.expect(tok)  # raises
                self.pos += 1
            if field:
                fields[field] = read(self)
        return fields

    def read_form(self, cls: type, steps: tuple) -> dict:
        """The fields of a ``cls`` whose text has these steps (see :meth:`form`)."""
        return self.read_template(steps)

    def form(self, rows: dict, what: str, *also: str) -> tuple[type, dict]:
        """The class and fields of the form that comes next, by :meth:`rows`.  The rows
        of its keyword are tried in order, so that those sharing it are told apart by
        what follows it; when none matches, the failure that got furthest is raised."""
        start, failures = self.pos, []
        for cls, steps in rows.get(self.tokens[start], ()):
            self.pos = start
            try:
                return cls, self.read_form(cls, steps)
            except ParseError as exc:
                failures.append((self.pos, exc))
        if not failures:
            raise ParseError(f"expected {what}, found {self.tokens[start]!r}", self.span(start),
                             (*rows, *also))
        raise max(failures, key=lambda f: f[0])[1]

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
                atoms = self.atoms()
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
        cls, fields = self.form(_PROTOCOL_ROWS, "a protocol")
        if cls is BranchT:
            labels = [l for l, _ in fields["branches"]]
            if len(set(labels)) != len(labels):
                raise ParseError(f"duplicate branch label in {labels}", self.span(tok))
        return cls(**fields)

    def roles(self) -> tuple[str, ...]:
        return self.comma_list(self.ident, "role")

    def sort(self) -> str:
        if (tok := self.peek()) not in SORTS:
            raise ParseError(f"expected a sort, found {tok!r}", self.span(self.pos), SORTS)
        self.pos += 1
        return tok

    # -- choreographies

    def chor(self) -> Choreography:
        inters = []
        while not self.at("end", "if"):
            inters.append(self.interaction())
            self.expect(";")
        cls, fields = self.form(_ENDING_ROWS, "an ending")
        return seq(*inters, cls(**fields))

    def interaction(self) -> Interaction:
        tok = self.pos
        cls, fields = self.form(_INTERACTION_ROWS, "an interaction", "if", "end")
        if cls is not Init:
            return cls(**fields)
        threads = [p.thread for p in fields["actives"] + fields["services"]]
        if len(set(threads)) != len(threads):
            raise DuplicateThreadInInit(f"thread listed twice in session start: {threads}",
                                        self.span(tok, self.pos - 1))
        try:
            return Init(**fields)
        except ValueError as exc:
            raise ParseError(str(exc), self.span(tok, self.pos - 1))

    def athr(self, offer: bool = False) -> AnnotatedThread:
        """An annotated thread; a one-part annotation is an offer if ``offer``
        (in a session start), a requirement otherwise."""
        thread = self.ident("thread")
        self.expect("[")
        role = self.ident("role")
        self.expect("]")
        if self.tokens[self.pos] != "{":
            return AnnotatedThread(thread, role)
        self.pos += 1
        first = self.atoms(";", "}")
        if self.tokens[self.pos] == ";":
            self.pos += 1
            req, off = frozenset(first), frozenset(self.atoms("}"))
        else:
            req, off = (frozenset(), frozenset(first)) if offer else (frozenset(first), frozenset())
        self.expect("}")
        return AnnotatedThread(thread, role, req, off)

    def atoms(self, *ends: str) -> tuple[str, ...]:
        """Capability atoms, none if one of ``ends`` comes first."""
        if self.tokens[self.pos] in ends:
            return ()
        return self.comma_list(self.ident, "capability atom")

    def pair(self, first, sep: str, second) -> tuple:
        """``first(self)``, ``sep`` and ``second(self)``: a list item such as a branch arm."""
        item = first(self)
        self.expect(sep)
        return item, second(self)

    def agg_op(self, what: str = "identifier") -> str:
        op = self.ident(what)
        if op not in AGG_OPS:
            raise ParseError(f"unknown aggregation operator {op!r}", self.span(self.pos - 1),
                             AGG_OPS)
        return op

    def quality(self, select: bool = False) -> Quality:
        """``[q]``; a selection's (``select``) must be ``all`` unless ``lax_select``."""
        start = self.pos
        self.expect("[")
        tok = self.peek()
        if tok in ("all", "any"):
            self.next()
            q = Q_ALL if tok == "all" else Q_ANY
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
        if select and q != Q_ALL and not self.lax_select:
            raise SelectNotAll("collective selection requires the 'all' quality predicate",
                               self.span(start, self.pos - 1), ("all",))
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


# The one definition of the text of each interaction and of each ending of a
# choreography: the class and its text, whose holes ``{field}`` or
# ``{field:kind}`` are read by ``_HOLES[kind]`` and written by ``_SHOWS[kind]``;
# a conditional's branches are indented on the lines between.  Protocols:
# ``gtypes.PROTOCOLS``.
INTERACTIONS = {
    Init: "start {key} ({svc}) ({actives:offers}) -> ({services:offers})",
    Bcast: "bcast {key} {quality} {sender}.{expr} -> ({receivers:recvs})",
    Reduce: "reduce {key} {quality} {op} ({senders}) -> {receiver} : {bind_var}",
    Select: "select {key} {quality:select} {sender} -> ({receivers:athrs}) : {label}",
}
ENDINGS = {End: "end", If: "if {guard} @ {at} {{\n{then:chor}\n}} else {{\n{orelse:chor}\n}}"}
_HOLES = {
    "key": lambda p: p.ident("session key"), "svc": lambda p: p.ident("service name"),
    "label": lambda p: p.ident("label"), "bind_var": lambda p: p.ident("variable"),
    "op": lambda p: p.agg_op("aggregation operator"), "expr": _Parser.expr,
    "quality": _Parser.quality, "select": lambda p: p.quality(select=True),
    "sender": _Parser.athr, "receiver": _Parser.athr,
    "offers": lambda p: p.comma_list(p.athr, True), "athrs": lambda p: p.comma_list(p.athr),
    "senders": lambda p: p.comma_list(p.pair, _Parser.athr, ".", _Parser.expr),
    "recvs": lambda p: p.comma_list(p.pair, _Parser.athr, ":", _HOLES["bind_var"]),
    "guard": _Parser.expr, "at": lambda p: p.ident("thread"), "chor": _Parser.chor,
}
_PROTOCOL_HOLES = {
    "sender": lambda p: p.ident("role"), "receiver": lambda p: p.ident("role"),
    "senders": _Parser.roles, "receivers": _Parser.roles, "sort": _Parser.sort,
    "cont": _Parser.gtype, "branches": lambda p: p.comma_list(
        p.pair, lambda p: p.ident("branch label"), ":", _Parser.gtype),
}
_INTERACTION_ROWS = _Parser.rows(INTERACTIONS, _HOLES)
_PROTOCOL_ROWS = _Parser.rows(PROTOCOLS, _PROTOCOL_HOLES)
_ENDING_ROWS = _Parser.rows(ENDINGS, _HOLES)


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _validate_atoms(prog: SourceProgram, span) -> None:
    declared = frozenset().union(*prog.caps_decls.values())
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


_SHOWS = {
    "quality": "[{}]".format, "select": "[{}]".format, "expr": lambda e: print_expr(e, _ATOM),
    "senders": lambda pairs: ", ".join(f"{p}.{print_expr(e, _ATOM)}" for p, e in pairs),
    "recvs": lambda pairs: ", ".join(f"{p}: {x}" for p, x in pairs),
    **dict.fromkeys(("offers", "athrs"), lambda athrs: ", ".join(map(str, athrs))),
    "guard": print_expr, "chor": lambda c: indented(_print_chor(c)),
}


def _print_chor(c: Choreography) -> str:
    out = []
    while isinstance(c, Seq):
        if type(c.inter) not in INTERACTIONS:
            raise TypeError(f"not an interaction: {c.inter!r}")
        out.append(fill_template(INTERACTIONS[type(c.inter)], c.inter, _SHOWS) + ";")
        c = c.cont
    if type(c) not in ENDINGS:
        raise TypeError(f"not a choreography: {c!r}")
    return "\n".join(out + [fill_template(ENDINGS[type(c)], c, _SHOWS)])


def pretty_print(c: Choreography) -> str:
    """Program text whose parse is structurally equal to ``c``."""
    return "choreography {\n" + indented(_print_chor(c)) + "\n}\n"


def pretty_print_program(prog: SourceProgram) -> str:
    decls = [f"service {name} : {binding.gtype};\n"
             for name, binding in sorted(prog.services.items())]
    decls += [f"caps {name} = {{{', '.join(sorted(atoms))}}};\n"
              for name, atoms in sorted(prog.caps_decls.items())]
    return "".join(decls) + pretty_print(prog.chor)
