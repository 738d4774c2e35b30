"""Concrete syntax: golden programs, errors with spans, round-trip property."""

import ast
import random
import re
import time
from pathlib import Path

import pytest

from chorfixtures import interleaved_corpus, sensors, typed_example
from gcq.epq import _ProcParser, parse_proc, print_proc
from gcq.genchor import GenConfig, corpus, session_chain
from gcq.parser import (
    DuplicateThreadInInit,
    ParseError,
    SelectNotAll,
    SourceProgram,
    UndeclaredCapability,
    parse,
    pretty_print,
    pretty_print_program,
    _Parser,
)
from gcq.projection import epp
from gcq.gtypes import END_T, RedT, branch_t, infer_gamma
from gcq.syntax import (
    Bcast,
    Binop,
    END,
    If,
    Init,
    Lit,
    NoneE,
    Q_ALL,
    Q_ANY,
    Reduce,
    Select,
    Seq,
    SomeE,
    Var,
    athr,
    interactions_of,
    q_ratio,
)

SENSORS_TEXT = """
// temperature measurement: three sensors, one monitor
service temperature : branch M -> (S1,S2,S3) { measure: reduce (S1,S2,S3) -> M <int> . end };

choreography {
  start k (temperature) (t1[S1]{Acc1}, t2[S2]{Acc2}, t3[S3]{Acc3}) -> (t0[M]{Acc0});
  select k [all] t0[M]{Acc0;Ms0} -> (t1[S1]{Acc1;Ms1}, t2[S2]{Acc2;Ms2}, t3[S3]{Acc3;Ms3}) : measure;
  reduce k [all] avg (t1[S1]{Ms1;E1}.1, t2[S2]{Ms2;E2}.-2, t3[S3]{Ms3;E3}.5) -> t0[M]{Ms0;E0} : xm;
  end
}
"""


class TestGoldenParsing:
    def test_sensors_text_matches_fixture(self):
        prog = parse(SENSORS_TEXT)
        assert prog.chor == sensors()
        assert "temperature" in prog.services
        g = prog.services["temperature"].gtype
        assert g == branch_t("M", ("S1", "S2", "S3"),
                             {"measure": RedT(("S1", "S2", "S3"), "M", "int", END_T)})

    def test_end_only(self):
        assert parse("choreography { end }").chor == END

    def test_comment_handling(self):
        assert parse("// hi\nchoreography { end } // bye\n").chor == END

    def test_select_not_all_rejected(self):
        text = """choreography {
          select k [2/3] a[A] -> (b[B], c[C], d[D]) : go;
          end
        }"""
        with pytest.raises(SelectNotAll) as exc:
            parse(text)
        lo, hi = exc.value.span
        assert 0 <= lo < hi <= len(text)

    def test_select_lax_mode(self):
        text = "choreography { select k [any] a[A] -> (b[B]) : go; end }"
        prog = parse(text, lax_select=True)
        assert prog.chor.inter.quality == Q_ANY

    def test_duplicate_thread_in_init(self):
        text = "choreography { start k (a) (t[A]) -> (t[B]); end }"
        with pytest.raises(DuplicateThreadInInit):
            parse(text)

    def test_undeclared_capability(self):
        text = """caps sig = {Acc0};
        choreography {
          start k (a) (t[A]{Acc9}) -> (s[B]);
          end
        }"""
        with pytest.raises(UndeclaredCapability):
            parse(text)

    def test_unknown_agg_op(self):
        text = "choreography { reduce k [all] median (a[A].1) -> b[B] : x; end }"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert "avg" in exc.value.expected

    def test_error_spans_inside_input(self):
        for bad in ["", "choreography {", "choreography { endd }",
                    "choreography { start k (a) (t[A) -> (s[B]); end }",
                    "choreography { bcast k [9/2] a[A].1 -> (b[B]: x); end }"]:
            with pytest.raises(ParseError) as exc:
                parse(bad)
            lo, hi = exc.value.span
            assert 0 <= lo <= hi <= len(bad)

    def test_caps_single_part_reading(self):
        text = """choreography {
          start k (a) (t[A]{Off}) -> (s[B]);
          bcast k [all] t[A]{Req}.1 -> (s[B]{R2;O2}: x);
          end
        }"""
        prog = parse(text)
        init, bc = prog.chor.inter, prog.chor.cont.inter
        assert init.actives[0].off == frozenset({"Off"}) and not init.actives[0].req
        assert bc.sender.req == frozenset({"Req"}) and not bc.sender.off
        assert bc.receivers[0][0].req == frozenset({"R2"})
        assert bc.receivers[0][0].off == frozenset({"O2"})


GOLDEN = Path(__file__).resolve().parent.parent / "golden"


# the token set of the .gcq text, as a sequential scan defines it: one match
# per token or blank at each offset in turn; the .epq text adds '!' and '?'
_REFERENCE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<float>\d+\.\d+)
  | (?P<nat>\d+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<punct>[{}()\[\];:,.<>/@=*+-])
""", re.VERBOSE)
_PROC_REFERENCE = re.compile(r"(?P<bang>[!?])|" + _REFERENCE.pattern, re.VERBOSE)


def _scanned(text: str, pattern) -> list[tuple]:
    """(text, start, end) of every token and then of the end of the input,
    read off the pattern's matches at successive offsets."""
    out, pos = [], 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if m.lastgroup != "ws":
            out.append((m.group(), m.start(), m.end()))
        pos = m.end()
    return out + [("", len(text), len(text))]


def _golden_texts() -> list[tuple[str, type]]:
    """The golden programs and the .epq texts of their projections."""
    texts = [(path.read_text(), _Parser) for path in sorted(GOLDEN.glob("*.gcq"))]
    texts += [(print_proc(comp.proc), _ProcParser) for text, _ in list(texts)
              for comp in epp(parse(text, lax_select=True).chor).components]
    return texts


class TestTokens:
    """The one-pass scan gives the tokens of the sequential reference scan,
    and a parser's ``span(i)`` gives the offsets of its token ``i``."""

    @staticmethod
    def agree(text: str, cls) -> None:
        parser = cls(text, lax_select=True)
        reference = _scanned(text, _PROC_REFERENCE if cls is _ProcParser else _REFERENCE)
        assert parser.tokens == [tok for tok, _, _ in reference]
        assert [parser.span(i)() for i in range(len(reference))] == \
            [(start, end) for _, start, end in reference]

    def test_fields_on_golden_corpus_and_process_texts(self):
        texts = _golden_texts()
        texts += [(pretty_print(c), _Parser) for c in
                  corpus(100, seed=23, config=GenConfig(max_threads=4, max_interactions=5))]
        assert any("!" in text for text, _ in texts) and any("//" in text for text, _ in texts)
        for text, cls in texts:
            self.agree(text, cls)

    def test_a_parse_that_succeeds_reads_no_offsets(self):
        """The sequential scan is the error path only; the .epq parser's
        failed attempts at a prefix do not run it either."""
        for text, cls in _golden_texts():
            parser = cls(text, lax_select=True)
            parser.proc() if cls is _ProcParser else parser.program()
            assert "offsets" not in vars(parser)

    @pytest.mark.parametrize("text", [
        "choreography { end } // bye",
        "// hi\nchoreography { end } // one\n// two",
        'choreography { if "a//b" = x // c\n @ t { end } else { end } }',
        'choreography { if "say \\"hi\\" // no" = "" @ t { end } else { end } }',
        "   choreography{end}   ", "", "  \n ", "// only",
    ])
    def test_comments_and_blanks(self, text):
        self.agree(text, _Parser)
        self.agree(text, _ProcParser)

    def test_comment_at_the_end_is_no_token(self):
        assert _Parser("choreography { end } // bye").tokens == ["choreography", "{", "end", "}", ""]

    @pytest.mark.parametrize("text, char", [
        ("choreography { end } !", "!"),
        ("choreography { bcast k [all] a[A].1 -> (b[B]: x!); end }", "!"),
        ('choreography { if "open = x @ t { end } else { end } }', '"'),
        ("choreography { end } é", "é"),
    ])
    def test_unexpected_character(self, text, char):
        """'!' is a token of the .epq text only; a string needs its closing quote."""
        with pytest.raises(ParseError) as exc:
            parse(text)
        at = text.index(char)
        assert str(exc.value) == f"unexpected character {char!r}"
        assert exc.value.span == (at, at + 1)

    @pytest.mark.parametrize("cls", [_Parser, _ProcParser])
    def test_unexpected_character_after_a_long_blank(self, cls):
        text = "choreography {" + " " * 10_000 + "§ end }"
        began = time.perf_counter()
        with pytest.raises(ParseError, match="unexpected character") as exc:
            cls(text)
        assert time.perf_counter() - began < 0.25
        assert exc.value.span == (10_014, 10_015)


def _mutations(tokens: list[str], rng: random.Random):
    """Token-level edits of a token list: each token dropped, and a sample
    of tokens doubled or replaced by another token of the text."""
    alphabet = sorted(set(tokens) - {""})
    for i in range(len(tokens) - 1):
        yield tokens[:i] + tokens[i + 1:]
    for i in rng.sample(range(len(tokens) - 1), min(40, len(tokens) - 1)):
        yield tokens[:i] + [tokens[i]] + tokens[i:]
        yield tokens[:i] + [rng.choice(alphabet)] + tokens[i + 1:]


class TestErrorSpans:
    def test_mutated_texts_point_at_the_quoted_token(self):
        """Every syntax error of a mutated golden text has its span inside
        the text, and a token that its message quotes as found is the text
        under the span."""
        rng, checked = random.Random(29), 0
        for original, cls in _golden_texts():
            read = parse_proc if cls is _ProcParser else lambda t: parse(t, lax_select=True)
            for tokens in _mutations(cls(original).tokens, rng):
                text = " ".join(tokens)
                try:
                    read(text)
                except ParseError as exc:
                    lo, hi = exc.span
                    assert 0 <= lo <= hi <= len(text), (text, exc)
                    quoted = re.search(r"(?:found|trailing input) ('.*'|\".*\")$", str(exc))
                    if quoted:
                        found = ast.literal_eval(quoted[1])
                        if found == "end of input":
                            assert (lo, hi) == (len(text), len(text)), (text, exc)
                        else:
                            assert text[lo:hi] == found, (text, exc)
                        checked += 1
        assert checked > 1000


class TestRoundTrip:
    @pytest.mark.parametrize("chor", [sensors(), sensors(q2=Q_ANY), typed_example(), END],
                             ids=["sensors", "sensors-any", "typed", "end"])
    def test_fixtures(self, chor):
        assert parse(pretty_print(chor)).chor == chor

    def test_expr_precedence(self):
        text = "choreography { if 1 + 2 * 3 < 9 and not false @ t { end } else { end } }"
        c = parse(text).chor
        assert parse(pretty_print(c)).chor == c

    def test_operators_associate_to_the_left(self):
        text = "choreography { if 1 - 2 - 3 = x or y or z @ t { end } else { end } }"
        diff = Binop("-", Binop("-", Lit(1), Lit(2)), Lit(3))
        assert parse(text).chor.guard == Binop("or", Binop("or", Binop("=", diff, Var("x")),
                                                            Var("y")), Var("z"))

    @pytest.mark.parametrize("guard, op, at", [("1 < 2 < 3", "<", 24), ("x = 1 = y", "=", 24),
                                               ("a and b = c = d", "=", 30)])
    def test_comparisons_do_not_chain(self, guard, op, at):
        with pytest.raises(ParseError) as exc:
            parse(f"choreography {{ if {guard} @ t {{ end }} else {{ end }} }}")
        assert str(exc.value) == f"expected '@', found '{op}'"
        assert exc.value.span == (at, at + 1) and exc.value.expected == ("@",)

    def test_program_roundtrip(self):
        """The printed program parses back; a binding's role splits are not
        part of the text, so its global type is compared."""
        chors = corpus(100, seed=23, config=GenConfig(max_threads=4, max_interactions=5))
        chors += interleaved_corpus(30, seed=5)
        progs = [parse(SENSORS_TEXT)] + [SourceProgram(infer_gamma(c).services, {}, c)
                                         for c in chors]
        for prog in progs:
            again = parse(pretty_print_program(prog))
            assert again.chor == prog.chor
            assert ({name: b.gtype for name, b in again.services.items()}
                    == {name: b.gtype for name, b in prog.services.items()})
            assert again.caps_decls == prog.caps_decls

    def test_long_sequence(self):
        """Printing and parsing walk a chain of interactions in a loop, so
        a long one fits the default recursion limit."""
        chain = session_chain(1000, Q_ALL)
        assert interactions_of(parse(pretty_print(chain)).chor) == interactions_of(chain)

    def test_thousand_random_terms(self):
        rng = random.Random(20160601)
        for _ in range(1000):
            c = random_chor(rng)
            printed = pretty_print(c)
            assert parse(printed, lax_select=True).chor == c, printed


# ---------------------------------------------------------------------------
# Random well-formed source terms (unconstrained by typing)

THREADS = ["p", "q", "r", "s", "u"]
ROLES = ["A", "B", "C", "D", "E"]
ATOMS = ["X1", "X2", "Y1", "Y2"]


def random_expr(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([
            Lit(rng.randrange(-20, 20)),
            Lit(rng.random() < 0.5),
            Lit(round(rng.uniform(0.1, 99.0), 3)),
            Lit(rng.choice(["hot", "cold"])),
            Var(rng.choice(["v1", "v2", "v3"])),
            NoneE(),
        ])
    if rng.random() < 0.2:
        return SomeE(random_expr(rng, depth - 1))
    op = rng.choice(["+", "-", "*", "=", "<", "and", "or"])
    return Binop(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def random_athr(rng, thread, in_init=False):
    req = frozenset() if in_init else frozenset(rng.sample(ATOMS, rng.randrange(0, 3)))
    off = frozenset(rng.sample(ATOMS, rng.randrange(0, 3)))
    return athr(thread, rng.choice(ROLES), req, off)


def random_quality(rng, n):
    pick = rng.random()
    if pick < 0.4:
        return Q_ALL
    if pick < 0.7:
        return Q_ANY
    return q_ratio(rng.randrange(1, n + 1), n)


def random_interaction(rng, key):
    kind = rng.choice(["init", "bcast", "reduce", "select"])
    threads = rng.sample(THREADS, rng.randrange(2, 5))
    if kind == "init":
        cut = rng.randrange(1, len(threads))
        return Init(tuple(random_athr(rng, t, True) for t in threads[:cut]),
                    tuple(random_athr(rng, t, True) for t in threads[cut:]),
                    rng.choice(["a", "b"]), key)
    head, rest = threads[0], threads[1:]
    if kind == "bcast":
        return Bcast(random_athr(rng, head), random_expr(rng),
                     tuple((random_athr(rng, t), f"x{t}") for t in rest),
                     random_quality(rng, len(rest)), key)
    if kind == "reduce":
        return Reduce(tuple((random_athr(rng, t), random_expr(rng)) for t in rest),
                      random_athr(rng, head), "acc",
                      random_quality(rng, len(rest)),
                      rng.choice(["avg", "max", "min", "sum", "id"]), key)
    return Select(random_athr(rng, head), tuple(random_athr(rng, t) for t in rest),
                  random_quality(rng, len(rest)), key, rng.choice(["go", "stop"]))


def random_chor(rng, depth=3):
    if depth == 0 or rng.random() < 0.25:
        return END
    if rng.random() < 0.2:
        return If(random_expr(rng), rng.choice(THREADS),
                  random_chor(rng, depth - 1), random_chor(rng, depth - 1))
    return Seq(random_interaction(rng, rng.choice(["k1", "k2"])), random_chor(rng, depth - 1))
