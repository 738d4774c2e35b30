"""Concrete syntax: golden programs, errors with spans, round-trip property."""

import random
from pathlib import Path

import pytest

from chorfixtures import sensors, typed_example
from gcq.epq import _ProcParser, print_proc
from gcq.genchor import GenConfig, corpus, interleaved_corpus, session_chain
from gcq.parser import (
    _TOKEN_RE,
    DuplicateThreadInInit,
    ParseError,
    SelectNotAll,
    SourceProgram,
    UndeclaredCapability,
    parse,
    parse_choreography,
    pretty_print,
    pretty_print_program,
    tokenize,
)
from gcq.projection import epp
from gcq.gtypes import BranchT, END_T, RedT, branch_t, infer_gamma
from gcq.syntax import (
    Bcast,
    Binop,
    End,
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


def _scanned(text: str, pattern) -> list[tuple]:
    """(kind, text, start, end) of every token, read off the pattern's matches."""
    out, pos = [], 0
    while pos < len(text):
        m = pattern.match(text, pos)
        out.append((m.lastgroup, m.group(), m.start(), m.end()))
        pos = m.end()
    return [tok for tok in out if tok[0] != "ws"] + [("eof", "", len(text), len(text))]


class TestTokens:
    def test_fields_on_golden_corpus_and_process_texts(self):
        texts = [(path.read_text(), _TOKEN_RE) for path in sorted(GOLDEN.glob("*.gcq"))]
        texts += [(pretty_print(c), _TOKEN_RE) for c in
                  corpus(100, seed=23, config=GenConfig(max_threads=4, max_interactions=5))]
        texts += [(print_proc(comp.proc), _ProcParser.token_re) for comp in epp(sensors()).components]
        assert any("!" in text for text, _ in texts)
        for text, pattern in texts:
            tokens = tokenize(text, pattern)
            assert [(t.kind, t.text, t.start, t.end) for t in tokens] == _scanned(text, pattern)
            assert [tuple(t) for t in tokens] == _scanned(text, pattern)


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
