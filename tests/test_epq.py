"""Endpoint calculus: congruence, queue discipline, rule-level transitions."""

from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcq import epq
from gcq.epq import (
    AcceptOnce,
    AcceptRepl,
    Branch,
    Component,
    IfP,
    INACT,
    InMsg,
    InP,
    LabelPayload,
    Network,
    OutMsg,
    OutP,
    QIn,
    QOut,
    QSel,
    Queue,
    Request,
    WaitIn,
    WaitOut,
    msgs_commute,
    net_canon,
    parse_proc,
    print_proc,
    proc_canon,
    proc_free_names,
    rename_key,
    rename_keys,
    rename_var,
    subst_var,
)
from gcq.netsem import (
    BcIn,
    BcOut,
    EUp,
    RdIn,
    RdOut,
    SelOut,
    Start,
    net_enabled,
    net_run,
)
from gcq.parser import ParseError
from gcq.syntax import (
    AGG_OPS, Binop, Lit, NONE, NoneE, Q_ALL, Q_ANY, SomeE, SomeV, Unop, Var, q_ratio,
)
from termsamples import samples


def out_msg(sender="A", q=Q_ALL, recipients=(("B", False),), payload=SomeV(1)):
    return OutMsg(sender, q, tuple(recipients), payload)


class TestCongruence:
    def test_inact_is_unit(self):
        n1 = Network((Component(INACT), Component(InP("k", "B", "A", "x", INACT), owner="t")),
                     (Queue("k"),))
        n2 = Network((Component(InP("k", "B", "A", "x", INACT), owner="t"),), (Queue("k"),))
        assert net_canon(n1) == net_canon(n2)

    def test_disjoint_out_msgs_commute(self):
        m1 = out_msg(recipients=(("B", False),))
        m2 = out_msg(recipients=(("C", False),))
        assert msgs_commute(m1, m2)
        n1 = Network((), (Queue("k", (m1, m2)),))
        n2 = Network((), (Queue("k", (m2, m1)),))
        assert net_canon(n1) == net_canon(n2)

    def test_overlapping_same_sender_do_not_commute(self):
        m1 = out_msg(recipients=(("B", False), ("C", False)), payload=SomeV(1))
        m2 = out_msg(recipients=(("C", False),), payload=SomeV(2))
        assert not msgs_commute(m1, m2)
        n1 = Network((), (Queue("k", (m1, m2)),))
        n2 = Network((), (Queue("k", (m2, m1)),))
        assert net_canon(n1) != net_canon(n2)

    def test_mixed_messages_commute(self):
        # outputs and reduce placeholders are serialized by flags, not order
        m1 = out_msg()
        m2 = InMsg(Q_ANY, (("B", False, NONE),), "A")
        assert msgs_commute(m1, m2)

    def test_overlapping_in_msgs_do_not_commute(self):
        m1 = InMsg(Q_ANY, (("A", False, NONE), ("B", False, NONE)), "C")
        m2 = InMsg(Q_ANY, (("B", False, NONE),), "C")
        assert not msgs_commute(m1, m2)
        m3 = InMsg(Q_ANY, (("B", False, NONE),), "D")  # different receiver
        assert msgs_commute(m1, m3)

    def test_restricted_empty_queue_collected(self):
        n1 = Network((), (Queue("k"),), frozenset({"k"}))
        n2 = Network((), (), frozenset())
        assert net_canon(n1) == net_canon(n2)

    def test_unrestricted_empty_queue_stays(self):
        n1 = Network((), (Queue("k"),))
        n2 = Network((), ())
        assert net_canon(n1) != net_canon(n2)

    def test_alpha_on_bound_session(self):
        p1 = Request("a", ("A", "B"), "k", QOut("k", "A", ("B",), Q_ALL, Lit(1), INACT))
        p2 = Request("a", ("A", "B"), "j", QOut("j", "A", ("B",), Q_ALL, Lit(1), INACT))
        assert net_canon(Network((Component(p1),))) == net_canon(Network((Component(p2),)))


class TestStoredHash:
    """A term hashes its fields once and keeps the result (the contract of
    every term is in ``test_terms``)."""

    def test_second_hash_calls_no_field_hash(self):
        calls = []

        class Owner(str):
            def __hash__(self):
                calls.append(self)
                return str.__hash__(self)

        comp = Component(InP("k", "B", "A", "x", INACT), Owner("t1"))
        net = Network((comp,), (Queue("k"),))
        hash(net)
        assert len(calls) == 1
        hash(net)
        seen = {net}
        assert Network((comp,), (Queue("k"),)) in seen
        # a successor that shares the component reuses its stored hash
        hash(Network((comp, Component(INACT)), (Queue("k"),)))
        assert len(calls) == 1


# networks whose restricted sessions may already carry canonical names
_CANONICAL = ("κs0", "κs1", "κs2")
_names = st.sampled_from(_CANONICAL + ("k",))
_procs = st.recursive(st.just(INACT), lambda cont: st.one_of(
    st.builds(lambda k, c: InP(k, "B", "A", "x", c), _names, cont),
    st.builds(lambda k, c: OutP(k, "A", "B", Lit(1), c), _names, cont),
    st.builds(lambda k, c: QSel(k, "A", ("B",), Q_ALL, "l", c), _names, cont),
    st.builds(lambda k, c: Request("svc", ("A", "B"), k, c), _names, cont),
), max_leaves=4)
_queues = st.lists(st.builds(
    lambda k, full: Queue(k, (out_msg(payload=LabelPayload("l")),) if full else ()),
    _names, st.booleans()), unique_by=lambda q: q.key)


def _network(comps, queues, restricted) -> Network:
    return Network(tuple(comps), tuple(queues), frozenset(restricted))


def _free(net: Network) -> set[str]:
    """The names of a network that no restriction binds."""
    names = {q.key for q in net.queues}
    for c in net.components:
        names |= proc_free_names(c.proc)
    return names - net.restricted


class TestRestrictedRenaming:
    """``net_canon`` renumbers restricted sessions by first use, all at once."""

    def test_sessions_named_like_canonical_ones_stay_apart(self):
        # first use puts κs1 before κs0: one pass per name sent both to κs1
        net = Network((Component(InP("κs1", "B", "A", "x", INACT), owner="a"),
                       Component(InP("κs0", "B", "A", "x", INACT), owner="b")),
                      (Queue("κs0"), Queue("κs1")), frozenset({"κs0", "κs1"}))
        form = net_canon(net)
        assert [c.proc.key for c in form.components] == ["κs0", "κs1"]
        assert [q.key for q in form.queues] == ["κs0", "κs1"]
        assert form.restricted == {"κs0", "κs1"}
        renamed = Network((Component(InP("p", "B", "A", "x", INACT), owner="a"),
                           Component(InP("q", "B", "A", "x", INACT), owner="b")),
                          (Queue("q"), Queue("p")), frozenset({"p", "q"}))
        assert net_canon(renamed) == form and net_canon(form) == form

    def test_rename_keys_is_simultaneous_and_stops_at_binders(self):
        p = InP("a", "B", "A", "x", OutP("b", "B", "A", Lit(1),
                                         Request("svc", ("A", "B"), "a", body("a"))))
        want = InP("b", "B", "A", "x", OutP("a", "B", "A", Lit(1),
                                            Request("svc", ("A", "B"), "a", body("a"))))
        assert rename_keys(p, {"a": "b", "b": "a"}) == want

    @settings(max_examples=300, deadline=None)
    @given(st.builds(
        _network,
        st.lists(st.builds(Component, _procs, st.sampled_from(["t1", "t2", None])),
                 max_size=4),
        _queues, st.sets(_names)))
    def test_canonical_form_idempotent(self, net):
        form = net_canon(net)
        assert net_canon(form) == form
        # free sessions keep their names, and no restricted one takes a free name
        assert _free(form) == _free(net)
        assert len({q.key for q in form.queues}) == len(form.queues)

    def test_restricted_session_not_renamed_onto_free_one(self):
        net = Network((Component(InP("κs1", "B", "A", "x", INACT), "t1"),),
                      (Queue("κs0"), Queue("κs1")), frozenset({"κs1"}))
        form = net_canon(net)
        assert [q.key for q in form.queues] == ["κs0", "κs1"]
        assert form.restricted == {"κs1"}
        assert form.components[0].proc.key == "κs1"
        assert net_canon(form) == form

    @pytest.mark.parametrize("free", ["κ1", "a"])
    def test_binder_does_not_capture_free_session(self, free):
        # out! κ1 . request svc(k2) . out! κ1 . out! k2, with κ1 free
        p = OutP(free, "A", "B", Lit(1), Request("svc", ("A", "B"), "k2", OutP(
            free, "A", "B", Lit(1), OutP("k2", "A", "B", Lit(1), INACT))))
        form = proc_canon(p)
        req = form.cont
        assert req.cont.key == free != req.key == req.cont.cont.key
        assert proc_free_names(form) == proc_free_names(p)
        # restricted, the session is renamed apart from the binder too
        net = net_canon(Network((Component(p, "t1"),), (Queue(free),), frozenset({free})))
        req = net.components[0].proc.cont
        assert net.components[0].proc.key == req.cont.key == "κs0" != req.key


class TestRuleLevel:
    def test_bcast_out_enqueues_and_waits(self):
        net = Network((Component(QOut("k", "A", ("B",), Q_ALL, Lit(5), INACT), owner="t"),),
                      (Queue("k"),))
        (label, succ), = net_enabled(net)
        assert label == EUp()
        assert isinstance(succ.components[0].proc, WaitOut)
        assert succ.queue_for("k").msgs == (OutMsg("A", Q_ALL, (("B", False),), SomeV(5)),)

    def test_bcast_in_substitutes_and_flags(self):
        msg = OutMsg("A", Q_ALL, (("B", False),), SomeV(5))
        net = Network((Component(InP("k", "B", "A", "x", INACT), owner="t"),),
                      (Queue("k", (msg,)),))
        (label, succ), = net_enabled(net)
        assert label == BcIn("A", "B", "k", SomeV(5))
        assert succ.queue_for("k").msgs[0].recipients == (("B", True),)
        assert succ.components[0].proc == INACT

    def test_bcast_in_refuses_redelivery(self):
        msg = OutMsg("A", Q_ALL, (("B", True),), SomeV(5))
        net = Network((Component(InP("k", "B", "A", "x", INACT), owner="t"),),
                      (Queue("k", (msg,)),))
        assert net_enabled(net) == []

    def test_wait_b_dequeues_and_feeds_none_to_stragglers(self):
        msg = OutMsg("A", q_ratio(1, 2), (("B", True), ("C", False)), SomeV(5))
        straggler = InP("k", "C", "A", "x", OutP("k", "C", "D", __import__(
            "gcq.syntax", fromlist=["Var"]).Var("x"), INACT))
        net = Network((Component(WaitOut("k", "A", ("B", "C"), INACT), owner="s"),
                       Component(straggler, owner="c")),
                      (Queue("k", (msg,)),))
        # the straggler may also synchronize itself; pick the dequeue transition
        (label, succ), = [(l, s) for l, s in net_enabled(net) if isinstance(l, BcOut)]
        assert label == BcOut("A", ("B", "C"), q_ratio(1, 2), "k", SomeV(5))
        assert succ.queue_for("k").msgs == ()
        # the straggler lost its input prefix and saw none
        assert isinstance(succ.components[1].proc, OutP)
        assert "NoneE" in repr(succ.components[1].proc.expr)

    def test_wait_b_blocked_until_quality(self):
        msg = OutMsg("A", Q_ALL, (("B", True), ("C", False)), SomeV(5))
        net = Network((Component(WaitOut("k", "A", ("B", "C"), INACT), owner="s"),
                       Component(InP("k", "C", "A", "x", INACT), owner="c")),
                      (Queue("k", (msg,)),))
        labels = [l for l, _ in net_enabled(net)]
        assert BcOut("A", ("B", "C"), Q_ALL, "k", SomeV(5)) not in labels

    def test_reduce_roundtrip(self):
        net = Network(
            (Component(QIn("k", ("A", "B"), "C", q_ratio(2, 2), "x", "sum", INACT), owner="r"),
             Component(OutP("k", "A", "C", Lit(2), INACT), owner="a"),
             Component(OutP("k", "B", "C", Lit(3), INACT), owner="b")),
            (Queue("k"),))
        trace = net_run(net)
        assert trace.verdict == "Completed"
        kinds = [type(l).__name__ for l in trace.labels]
        assert kinds.count("RdOut") == 2 and kinds.count("RdIn") == 1
        rd_in = [l for l in trace.labels if isinstance(l, RdIn)]
        assert rd_in[0].payload == SomeV(5)

    def test_select_discards_straggler_branches(self):
        msg = OutMsg("A", Q_ANY, (("B", True), ("C", False)), LabelPayload("go"))
        net = Network((Component(WaitOut("k", "A", ("B", "C"), INACT), owner="s"),
                       Component(Branch("k", "C", "A", (("go", OutP("k", "C", "A", Lit(1), INACT)),)),
                                 owner="c")),
                      (Queue("k", (msg,)),))
        (label, succ), = [(l, s) for l, s in net_enabled(net) if isinstance(l, SelOut)]
        assert label == SelOut("A", ("B", "C"), Q_ANY, "k", "go")
        owners = [c.owner for c in succ.components if c.proc != INACT]
        assert owners == []  # the straggler's branch component was dropped

    def test_branch_takes_offered_label_only(self):
        msg = OutMsg("A", Q_ALL, (("B", False),), LabelPayload("stop"))
        net = Network((Component(Branch("k", "B", "A", (("go", INACT),)), owner="b"),),
                      (Queue("k", (msg,)),))
        assert net_enabled(net) == []

    def test_init_spawns_session_and_keeps_service(self):
        reqr = Request("a", ("A", "B"), "k", QOut("k", "A", ("B",), Q_ALL, Lit(1), INACT))
        srv = AcceptRepl("a", "B", "k", InP("k", "B", "A", "x", INACT))
        net = Network((Component(reqr, owner="p"), Component(srv, service=("a", "B"))))
        (label, succ), = net_enabled(net)
        assert isinstance(label, Start)
        assert label.actives == ("A",) and label.services == ("B",)
        assert any(c.is_replicated() for c in succ.components)
        assert len(succ.queues) == 1 and not succ.queues[0].msgs
        trace = net_run(succ)
        assert trace.verdict == "Completed" and trace.quiescent

    def test_replicated_service_alone_is_quiescent(self):
        srv = AcceptRepl("a", "B", "k", INACT)
        net = Network((Component(srv, service=("a", "B")),))
        trace = net_run(net)
        assert trace.verdict == "Completed" and trace.quiescent


KINDS = ("Inact", "Request", "AcceptOnce", "AcceptRepl", "QOut", "InP", "OutP", "QIn",
         "QSel", "Branch", "WaitOut", "WaitIn", "IfP")
KEY_BINDING = {"Request", "AcceptOnce", "AcceptRepl"}
VAR_BINDING = {"InP", "QIn", "WaitIn"}


def body(key="k", e=Var("x")):
    """A continuation that uses session ``key`` and the expression ``e``."""
    return OutP(key, "A", "B", e, INACT)


def node(kind, cont, key="k", e=Var("x"), bound="k", var="x"):
    """One process of each constructor over ``cont``: ``key`` is the session it
    acts on, ``e`` its expression, ``bound``/``var`` the names it binds."""
    return {
        "Inact": INACT,
        "Request": Request("svc", ("A", "B"), bound, cont),
        "AcceptOnce": AcceptOnce("svc", "B", bound, cont),
        "AcceptRepl": AcceptRepl("svc", "B", bound, cont),
        "QOut": QOut(key, "A", ("B",), Q_ALL, e, cont),
        "InP": InP(key, "B", "A", var, cont),
        "OutP": OutP(key, "A", "B", e, cont),
        "QIn": QIn(key, ("A",), "B", Q_ALL, var, "sum", cont),
        "QSel": QSel(key, "A", ("B",), Q_ALL, "l", cont),
        "Branch": Branch(key, "B", "A", (("l", cont), ("m", body(key, e)))),
        "WaitOut": WaitOut(key, "A", ("B",), cont),
        "WaitIn": WaitIn(key, ("A",), "B", "sum", var, cont),
        "IfP": IfP(e, cont, body(key, e)),
    }[kind]


class TestTraversal:
    """Every walker over all 13 process constructors: where it descends and
    where a binder stops it."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_rename_key_stops_at_key_binders(self, kind):
        got = rename_key(node(kind, body()), "k", "j")
        if kind in KEY_BINDING:
            assert got == node(kind, body())
        else:
            assert got == node(kind, body("j"), key="j")
        # a binder of another name lets the renaming through
        assert rename_key(node(kind, body(), bound="b"), "k", "j") == \
            node(kind, body("j"), key="j", bound="b")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("subst, e2", [
        (lambda p: subst_var(p, "x", SomeV(1)), SomeE(Lit(1))),
        (lambda p: subst_var(p, "x", NONE), NoneE()),
        (lambda p: rename_var(p, "x", "y"), Var("y")),
    ])
    def test_variable_substitution_stops_at_var_binders(self, kind, subst, e2):
        got = subst(node(kind, body()))
        if kind in VAR_BINDING:
            assert got == node(kind, body())
        else:
            assert got == node(kind, body(e=e2), e=e2)
        e = Binop("+", Unop("-", Var("x")), SomeE(Var("z")))
        want = Binop("+", Unop("-", e2), SomeE(Var("z")))
        assert subst(node(kind, body(e=e), e=e, var="w")) == \
            node(kind, body(e=want), e=want, var="w")

    @pytest.mark.parametrize("kind", KINDS)
    def test_free_names(self, kind):
        want = {"Inact": set(), **{k: {"svc"} for k in KEY_BINDING}}.get(kind, {"k"})
        assert proc_free_names(node(kind, body())) == want
        want = {"Inact": set(), **{k: {"svc", "k"} for k in KEY_BINDING}}.get(kind, {"k"})
        assert proc_free_names(node(kind, body(), bound="b")) == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_canon_idempotent_and_alpha_invariant(self, kind):
        once = proc_canon(node(kind, body()))
        assert proc_canon(once) == once
        if kind in KEY_BINDING:
            assert proc_canon(node(kind, body("b"), bound="b")) == once
        elif kind in VAR_BINDING:
            assert proc_canon(node(kind, body(e=Var("v")), var="v")) == once
        else:
            assert once == node(kind, body())  # nothing bound, nothing renamed

        def inner(v):
            return InP("k", "B", "A", v, body(e=Var(v)))

        assert proc_canon(node(kind, inner("y"))) == proc_canon(node(kind, inner("z")))


class TestQueueNormalForm:
    """The commutation normal form is a canonical representative: applying
    any sequence of legal adjacent swaps never changes it."""

    msgs_strategy = st.lists(
        st.one_of(
            st.builds(
                lambda s, rs, v: OutMsg(s, Q_ANY, tuple((r, False) for r in sorted(set(rs))),
                                        SomeV(v)),
                st.sampled_from("AB"),
                st.lists(st.sampled_from("CDE"), min_size=1, max_size=2),
                st.integers(0, 3)),
            st.builds(
                lambda rs, b: InMsg(Q_ANY, tuple((r, False, NONE) for r in sorted(set(rs))), b),
                st.lists(st.sampled_from("AB"), min_size=1, max_size=2),
                st.sampled_from("CD")),
        ), max_size=5)

    def test_three_congruent_queues_share_a_form(self):
        # m2 and m3 do not commute, m1 commutes with both: adjacent swaps
        # toward key order stop at different local minima
        m1 = InMsg(Q_ANY, (("A", False, NONE), ("B", False, NONE)), "D")
        m2 = InMsg(Q_ANY, (("B", False, NONE),), "C")
        m3 = InMsg(Q_ANY, (("A", False, NONE), ("B", False, NONE)), "C")
        from gcq.epq import queue_canon_msgs
        forms = {queue_canon_msgs(q) for q in [(m1, m2, m3), (m2, m1, m3), (m2, m3, m1)]}
        assert len(forms) == 1

    @settings(max_examples=200, deadline=None)
    @given(msgs_strategy, st.lists(st.integers(0, 3), max_size=8))
    def test_canonical_form_confluent(self, msgs, swap_positions):
        from gcq.epq import queue_canon_msgs
        base = queue_canon_msgs(tuple(msgs))
        current = list(msgs)
        for pos in swap_positions:
            if pos + 1 < len(current) and msgs_commute(current[pos], current[pos + 1]):
                current[pos], current[pos + 1] = current[pos + 1], current[pos]
        assert queue_canon_msgs(tuple(current)) == base


_PROC_CLASSES = get_args(epq.Proc)
_ident = st.sampled_from(["k", "j", "x", "y"])
_role = st.sampled_from(["A", "B", "C"])
_op = st.sampled_from(AGG_OPS)
_roles = st.lists(_role, min_size=1, max_size=3).map(tuple)
_quality = st.sampled_from([Q_ALL, Q_ANY, q_ratio(2, 3)])
_expr = st.sampled_from([Lit(1), Lit(-2), Lit("s"), Var("x"), NoneE(), SomeE(Var("y")),
                         Binop("+", Var("x"), Binop("*", Lit(2), Var("y"))),
                         Unop("not", Binop("<", Var("x"), Lit(3)))])
_any_proc = st.recursive(st.just(INACT), lambda cont: st.one_of(
    st.builds(Request, _ident, _roles, _ident, cont),
    st.builds(AcceptOnce, _ident, _role, _ident, cont),
    st.builds(AcceptRepl, _ident, _role, _ident, cont),
    st.builds(QOut, _ident, _role, _roles, _quality, _expr, cont),
    st.builds(InP, _ident, _role, _role, _ident, cont),
    st.builds(OutP, _ident, _role, _role, _expr, cont),
    st.builds(QIn, _ident, _roles, _role, _quality, _ident, _op, cont),
    st.builds(QSel, _ident, _role, _roles, _quality, _ident, cont),
    st.builds(Branch, _ident, _role, _role,
              st.dictionaries(_ident, cont, min_size=1, max_size=3).map(
                  lambda arms: tuple(arms.items()))),
    st.builds(WaitOut, _ident, _role, _roles, cont),
    st.builds(WaitIn, _ident, _roles, _role, _op, _ident, cont),
    st.builds(IfP, _expr, cont, cont),
), max_leaves=6)


class TestProcText:
    @pytest.mark.parametrize("proc", [t for t in samples() if isinstance(t, _PROC_CLASSES)],
                             ids=lambda t: type(t).__name__)
    def test_every_process_class_roundtrips(self, proc):
        assert parse_proc(print_proc(proc)) == proc

    @settings(max_examples=200, deadline=None)
    @given(_any_proc)
    def test_random_processes_roundtrip(self, proc):
        assert parse_proc(print_proc(proc)) == proc

    @pytest.mark.parametrize("text", [
        "out? k [A -> B] (1) . end",
        "in! k [B <- A] (x) . end",
        "sel? k [A -> B] [all] : l . end",
        "branch! k [B <- A] { l: end }",
    ])
    def test_markers_are_exact(self, text):
        with pytest.raises(ParseError, match="expected '[!?]'") as info:
            parse_proc(text)
        lo, hi = info.value.span
        assert (lo, hi) == (text.index(" ") - 1, text.index(" "))  # the keyword's marker

    @pytest.mark.parametrize("proc", [
        INACT,
        Request("a", ("A", "B"), "k", QOut("k", "A", ("B",), q_ratio(1, 1), Lit(1), INACT)),
        AcceptRepl("tmp", "M", "k",
                   QSel("k", "M", ("S1", "S2"), Q_ALL, "measure",
                        QIn("k", ("S1", "S2"), "M", Q_ANY, "x", "avg", INACT))),
        InP("k", "B", "A", "x", OutP("k", "B", "A", Lit(2), INACT)),
        Branch("k", "B", "A", (("go", INACT), ("stop", InP("k2", "B", "A", "y", INACT)))),
    ])
    def test_roundtrip(self, proc):
        assert parse_proc(print_proc(proc)) == proc

    @pytest.mark.parametrize("text,message,spanned", [
        ("out! k [A -> B,C] [2/x] (1) . end", "expected a natural number", "x"),
        ("out! k [A -> B,C] [3/2] (1) . end", "ratio predicate requires", "3/2"),
        ("out! k [A -> B,C] (1) . end", "plain output has exactly one receiver", "out"),
        ("in? k [A <- B,C] (x) . end", "plain input has exactly one sender", "in"),
        ("in? k [A <- B,C] [all] (x, foo) . end", "unknown aggregation operator 'foo'", "foo"),
        ("wait_in k [A <- B] (x, avg2) . end", "unknown aggregation operator 'avg2'", "avg2"),
    ])
    def test_syntax_errors_carry_their_span(self, text, message, spanned):
        with pytest.raises(ParseError, match=message) as info:
            parse_proc(text)
        lo, hi = info.value.span
        assert text[lo:hi] == spanned
