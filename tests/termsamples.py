"""One value of each term class of ``gcq`` and of the behavioural-implementation
judgment in ``label_correspondence``, built afresh on each call.

Every field that can hold a set holds two members, and every optional
field holds a value, so a check that reads the fields reads all of them.
"""

from __future__ import annotations

from gcq.captypes import Failure
from gcq.epq import (
    AcceptOnce,
    AcceptRepl,
    Branch,
    Component,
    IfP,
    Inact,
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
)
from gcq.gtypes import BcastT, BranchT, EndT, RedT, ServiceBinding, TLabel
from gcq.linlog import Lolli, Own, Plus, ProofNode, ProofResult, Tensor, TrueF
from gcq.netsem import BcIn, BcOut, EDown, ETau, EUp, RdIn, RdOut, SelIn, SelOut, Start
from gcq.projection import Node
from gcq.schedule import BernoulliOracle, ScriptOracle, SingleFailure, TolerantFailure
from gcq.semantics import Configuration
from gcq.syntax import (
    AnnotatedThread,
    Bcast,
    Binop,
    CapState,
    Date,
    End,
    FreeNames,
    GBcastL,
    GInitL,
    GReduceL,
    GSelectL,
    GTau,
    If,
    Init,
    Lit,
    NoneE,
    NoneV,
    Quality,
    Reduce,
    Select,
    Seq,
    SomeE,
    SomeV,
    Unop,
    Var,
)
from label_correspondence import Correspondence, Witness


def samples() -> list:
    """One value of each term class of ``gcq`` and ``label_correspondence``."""
    q = Quality("ratio", 1, 2)
    a = AnnotatedThread("t1", "A", frozenset({"X", "Y"}), frozenset({"Z", "W"}))
    b = AnnotatedThread("t2", "B")
    bcast = Bcast(a, Binop("+", Var("x"), Lit(1)), ((b, "y"),), q, "k")
    chor = Seq(bcast, If(Unop("not", Lit(True)), "t1", End(), End()))
    own = Own("t1", "k", "A", frozenset({"X", "Y"}))
    proof = ProofNode("id", (own,), own)
    out_msg = OutMsg("A", Quality("all"), (("B", False), ("C", True)), LabelPayload("l"))
    in_msg = InMsg(Quality("any"), (("B", True, SomeV(1)), ("C", False, NoneV())), "A")
    comp = Component(InP("k", "B", "A", "x", Inact()), "t1", ("svc", "B"))
    queue = Queue("k", (out_msg, in_msg))
    return [
        Inact(),
        Request("svc", ("A", "B"), "k", Inact()),
        AcceptOnce("svc", "B", "k", Inact()),
        AcceptRepl("svc", "B", "k", Inact()),
        QOut("k", "A", ("B",), Quality("all"), Lit(1), Inact()),
        InP("k", "B", "A", "x", Inact()),
        OutP("k", "A", "B", Var("x"), Inact()),
        QIn("k", ("B",), "A", Quality("any"), "x", "avg", Inact()),
        QSel("k", "A", ("B",), Quality("all"), "l", Inact()),
        Branch("k", "B", "A", (("r", Inact()), ("l", Inact()))),
        WaitOut("k", "A", ("B",), Inact()),
        WaitIn("k", ("B",), "A", "avg", "x", Inact()),
        IfP(Var("x"), Inact(), Inact()),
        LabelPayload("l"), out_msg, in_msg, comp, queue,
        Network((comp,), (queue,), frozenset({"k", "j"})),
        Failure("CapabilityUnderivable", "bcast k", "no subset", ("t1", "t2")),
        Witness(((GTau(), (0, 1)),)),
        Correspondence(True, Witness(())),
        EndT(),
        BcastT("A", ("B", "C"), "int", EndT()),
        RedT(("B", "C"), "A", "int", EndT()),
        BranchT("A", ("B",), (("r", EndT()), ("l", EndT()))),
        TLabel("sel", ("A",), ("B",), "int", "l"),
        ServiceBinding(EndT(), ("A",), ("B",)),
        TrueF(),
        own,
        Tensor(own, TrueF()),
        Plus(own, TrueF()),
        Lolli(own, TrueF()),
        ProofNode("tensor_r", (own,), Tensor(own, TrueF()), (proof,)),
        ProofResult(True, proof),
        ETau(),
        EUp(),
        EDown(),
        Start(("A",), ("B", "C"), "svc", "k"),
        BcOut("A", ("B", "C"), q, "k", SomeV(1)),
        BcIn("A", "B", "k", NoneV()),
        RdOut("B", "A", "k", SomeV(2)),
        RdIn(("B", "C"), "A", q, "k", SomeV(1)),
        SelOut("A", ("B", "C"), q, "k", "l"),
        SelIn("A", "B", "k", "l"),
        Node(3, ("t1",), ("t2", "t3"), "svc"),
        ScriptOracle((("available", frozenset({"t1", "t2"})), ("unavailable", frozenset()))),
        BernoulliOracle(0.5, 7),
        SingleFailure("t1", 4),
        TolerantFailure("t2"),
        CapState(frozenset({("t1", "k", "X"), ("t2", "k", "Y")})),
        Configuration(CapState([("t1", "k", "X")]), chor, frozenset({"t1", "k"}),
                      (("thread", "s1"), ("session", "k"))),
        q,
        Date("2016-04-01"),
        SomeV(Date("2016-04-01")),
        NoneV(),
        Lit(1.5),
        Var("x"),
        SomeE(Lit("s")),
        NoneE(),
        Unop("-", Var("x")),
        Binop("<", Var("x"), Lit(3)),
        a,
        Init((a.replace(req=frozenset()),), (b,), "svc", "k"),
        bcast,
        Reduce(((b, Var("y")), (a, NoneE())), a, "z", q, "sum", "k"),
        Select(a, (b,), Quality("all"), "k", "l"),
        End(),
        chor,
        chor.cont,
        FreeNames(frozenset({"t1", "t2"}), frozenset({"k"}), frozenset({"svc"}),
                  frozenset({("x", "t1")}), frozenset({"A", "B"})),
        GTau(),
        GInitL((("t1", "A"),), (("t2", "B"),), "svc", "k"),
        GBcastL(("t1", "A"), (("t2", "B"), ("t3", "C")), q, "k", frozenset({"t2", "t3"}),
                SomeV(1)),
        GReduceL((("t2", "B"),), ("t1", "A"), q, "k", frozenset({"t2"}),
                 (("t2", SomeV(1)),), SomeV(1), "sum"),
        GSelectL(("t1", "A"), (("t2", "B"),), Quality("all"), "k", frozenset({"t2"}), "l"),
    ]
