"""Endpoint calculus: congruence, queue discipline, rule-level transitions."""

import pytest

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
    net_congruent,
    parse_proc,
    print_proc,
    proc_canon,
    proc_free_names,
    rename_key,
    rename_var,
    subst_var,
)
from gcq.netsem import (
    BcIn,
    BcOut,
    EDown,
    EUp,
    RdIn,
    RdOut,
    SelIn,
    SelOut,
    Start,
    net_enabled,
    net_run,
    is_quiescent,
)
from gcq.syntax import Binop, Lit, NONE, NoneE, Q_ALL, Q_ANY, SomeE, SomeV, Unop, Var, q_ratio


def out_msg(sender="A", q=Q_ALL, recipients=(("B", False),), payload=SomeV(1)):
    return OutMsg(sender, q, tuple(recipients), payload)


class TestCongruence:
    def test_inact_is_unit(self):
        n1 = Network((Component(INACT), Component(InP("k", "B", "A", "x", INACT), owner="t")),
                     (Queue("k"),))
        n2 = Network((Component(InP("k", "B", "A", "x", INACT), owner="t"),), (Queue("k"),))
        assert net_congruent(n1, n2)

    def test_disjoint_out_msgs_commute(self):
        m1 = out_msg(recipients=(("B", False),))
        m2 = out_msg(recipients=(("C", False),))
        assert msgs_commute(m1, m2)
        n1 = Network((), (Queue("k", (m1, m2)),))
        n2 = Network((), (Queue("k", (m2, m1)),))
        assert net_congruent(n1, n2)

    def test_overlapping_same_sender_do_not_commute(self):
        m1 = out_msg(recipients=(("B", False), ("C", False)), payload=SomeV(1))
        m2 = out_msg(recipients=(("C", False),), payload=SomeV(2))
        assert not msgs_commute(m1, m2)
        n1 = Network((), (Queue("k", (m1, m2)),))
        n2 = Network((), (Queue("k", (m2, m1)),))
        assert not net_congruent(n1, n2)

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
        assert net_congruent(n1, n2)

    def test_unrestricted_empty_queue_stays(self):
        n1 = Network((), (Queue("k"),))
        n2 = Network((), ())
        assert not net_congruent(n1, n2)

    def test_alpha_on_bound_session(self):
        p1 = Request("a", ("A", "B"), "k", QOut("k", "A", ("B",), Q_ALL, Lit(1), INACT))
        p2 = Request("a", ("A", "B"), "j", QOut("j", "A", ("B",), Q_ALL, Lit(1), INACT))
        assert net_congruent(Network((Component(p1),)), Network((Component(p2),)))


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
        trace = net_run(net, policy="first")
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

    from hypothesis import given, settings
    from hypothesis import strategies as st

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


class TestProcText:
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
