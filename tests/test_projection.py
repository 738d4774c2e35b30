"""Projection: linearity, merging, thread projection, EPP, pruning."""

from collections import Counter
from pathlib import Path

import pytest

import linearity_reference
from chor_closure import swap_closure
from chorfixtures import (
    chained_starts,
    linearity_race,
    racy_family,
    sensors,
    sensors_partial,
    typed_example,
)
from gcq.epq import (
    AcceptOnce,
    AcceptRepl,
    Branch,
    Component,
    IfP,
    INACT,
    InP,
    Network,
    OutP,
    QIn,
    QOut,
    QSel,
    Queue,
    Request,
    WaitIn,
    WaitOut,
    canon_table,
    map_cont,
    net_canon,
    net_congruent,
    per_verdict,
)
from gcq.netsem import net_run
from gcq.projection import (
    NotMergeable,
    ProjectionUndefined,
    _merge_bucket,
    check_linearity,
    epp,
    merge,
    mergeable,
    project_thread,
    prunes,
    service_merge,
)
from gcq.correspond import fire_labels
from gcq.genchor import corpus
from gcq.parser import parse
from gcq.semantics import Configuration, enabled
from gcq.syntax import (
    Bcast,
    END,
    If,
    Init,
    Lit,
    Q_ALL,
    Q_ANY,
    Select,
    Seq,
    Var,
    athr,
    interactions_of,
    q_ratio,
    seq,
)

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

# One pair per prefix class whose prefixes differ, with the message merge
# gives when the pair sits on one side of a conditional under a request and
# a label (see ``_nested``); then a pair of different classes and a pair of
# branchings on different points.
MISMATCHED = [
    ((Request("s", ("A", "B"), "j", INACT), Request("t", ("A", "B"), "i", INACT)),
     "then", "/req/then/l: different session requests"),
    ((AcceptOnce("s", "A", "j", INACT), AcceptOnce("s", "B", "i", INACT)),
     "else", "/req/else/l: different session accepts"),
    ((AcceptRepl("s", "A", "j", INACT), AcceptRepl("t", "A", "i", INACT)),
     "then", "/req/then/l: different session accepts"),
    ((QOut("k", "A", ("B",), Q_ALL, Lit(1), INACT), QOut("k", "A", ("B",), Q_ANY, Lit(1), INACT)),
     "else", "/req/else/l: different collective outputs"),
    ((OutP("k", "A", "B", Lit(1), INACT), OutP("k", "A", "B", Lit(2), INACT)),
     "then", "/req/then/l: different outputs"),
    ((InP("k", "A", "B", "x", INACT), InP("k", "A", "C", "y", INACT)),
     "else", "/req/else/l: different inputs"),
    ((QIn("k", ("B",), "A", Q_ALL, "x", "sum", INACT), QIn("k", ("B",), "A", Q_ALL, "y", "max", INACT)),
     "then", "/req/then/l: different collective inputs"),
    ((QSel("k", "A", ("B",), Q_ALL, "l", INACT), QSel("k", "A", ("B",), Q_ALL, "m", INACT)),
     "else", "/req/else/l: different selections"),
    ((WaitOut("k", "A", ("B",), INACT), WaitOut("k", "A", ("C",), INACT)),
     "then", "/req/then/l: different wait states"),
    ((WaitIn("k", ("B",), "A", "sum", "x", INACT), WaitIn("j", ("B",), "A", "sum", "y", INACT)),
     "else", "/req/else/l: different wait states"),
    ((IfP(Var("g"), INACT, INACT), IfP(Var("h"), INACT, INACT)),
     "then", "/req/then/l: different conditional guards"),
    ((QOut("k", "A", ("B",), Q_ALL, Lit(1), INACT), InP("k", "A", "B", "x", INACT)),
     "else", "/req/else/l: QOut vs InP"),
    ((Branch("k", "A", "B", (("l", INACT),)), Branch("k", "C", "B", (("l", INACT),))),
     "then", "/req/then/l: branchings on different points: k[A] vs k[C]"),
]

# The path step merge adds below each prefix class.
CONT_STEPS = {Request: "/req", AcceptOnce: "/acc", AcceptRepl: "/acc", QOut: "/out",
              OutP: "/out", InP: "/in", QIn: "/in", QSel: "/sel", WaitOut: "/wait",
              WaitIn: "/wait", IfP: "/then"}


def _nested(x, side: str):
    """``x`` under label ``l`` on one side of a conditional, under a request."""
    arm = Branch("k", "A", "B", (("l", x),))
    return Request("svc", ("A", "B"), "k",
                   IfP(Var("g"), arm, INACT) if side == "then" else IfP(Var("g"), INACT, arm))


class TestLinearity:
    def test_unrelated_double_start_not_linear(self):
        report = check_linearity(linearity_race())
        assert not report.ok
        assert report.failures[0].code == "NotLinear"

    def test_single_start_linear(self):
        assert check_linearity(sensors()).ok

    def test_chained_second_start_linear(self):
        assert check_linearity(chained_starts()).ok

    def test_different_services_unconstrained(self):
        i1 = Init(actives=(athr("p", "A"),), services=(athr("q", "B"),), svc="a", key="k")
        i2 = Init(actives=(athr("r", "D"),), services=(athr("s", "E"),), svc="b", key="k2")
        assert check_linearity(seq(i1, i2)).ok

    def test_linearity_invariant_under_swaps(self):
        for c in (chained_starts(), linearity_race()):
            verdict = check_linearity(c).ok
            for v in swap_closure(c):
                assert check_linearity(v).ok == verdict

    def test_matches_the_fixpoint_search(self):
        """The forward pass reports what the reachability fixpoint
        (``linearity_reference``) reports, failure for failure, on the
        golden programs, the seed-23 corpus and 20,000 seeded programs in
        which two or more starts share a service."""
        golden = [parse(p.read_text(), lax_select=True).chor for p in sorted(GOLDEN.glob("*.gcq"))]
        verdicts, shared = Counter(), 0
        for c in golden + corpus(300, seed=23) + racy_family(20000, seed=17):
            report = check_linearity(c)
            assert report.to_json() == linearity_reference.check_linearity(c).to_json()
            verdicts[report.ok] += 1
            svcs = Counter(eta.svc for eta in interactions_of(c) if isinstance(eta, Init))
            shared += any(count > 1 for count in svcs.values())
        assert verdicts[True] and verdicts[False]
        assert shared >= 20000


class TestMerge:
    def test_branch_union(self):
        b1 = Branch("k", "B", "A", (("l1", INACT),))
        b2 = Branch("k", "B", "A", (("l2", InP("k", "B", "A", "x", INACT)),))
        merged = merge(b1, b2)
        assert set(merged.label_map()) == {"l1", "l2"}

    def test_idempotent(self):
        p = QOut("k", "A", ("B",), Q_ALL, Lit(1), INACT)
        assert merge(p, p) == p

    def test_shared_label_merges_recursively(self):
        b1 = Branch("k", "B", "A", (("l", Branch("k", "B", "A", (("x", INACT),))),))
        b2 = Branch("k", "B", "A", (("l", Branch("k", "B", "A", (("y", INACT),))),))
        merged = merge(b1, b2)
        assert set(merged.label_map()["l"].label_map()) == {"x", "y"}

    def test_prefix_mismatch_not_mergeable(self):
        p = QOut("k", "A", ("B",), Q_ALL, Lit(1), INACT)
        q = QOut("k", "A", ("B",), Q_ALL, Lit(2), INACT)
        with pytest.raises(NotMergeable):
            merge(p, q)

    def test_commutative_on_branchings(self):
        b1 = Branch("k", "B", "A", (("l1", INACT), ("l3", INACT)))
        b2 = Branch("k", "B", "A", (("l2", INACT),))
        assert merge(b1, b2) == merge(b2, b1)

    def test_associative_on_branchings(self):
        bs = [Branch("k", "B", "A", ((l, INACT),)) for l in ("a", "b", "c")]
        assert merge(merge(bs[0], bs[1]), bs[2]) == merge(bs[0], merge(bs[1], bs[2]))

    def test_alpha_aligned_accept_keys(self):
        p = AcceptRepl("a", "B", "k", InP("k", "B", "A", "x", INACT))
        q = AcceptRepl("a", "B", "j", InP("j", "B", "A", "y", INACT))
        assert mergeable(p, q)

    @pytest.mark.parametrize("pair,side,message", MISMATCHED,
                             ids=[f"{type(p).__name__}-{type(q).__name__}-{side}"
                                  for (p, q), side, _ in MISMATCHED])
    def test_mismatch_message(self, pair, side, message):
        p, q = pair
        with pytest.raises(NotMergeable) as exc:
            merge(_nested(p, side), _nested(q, side))
        assert str(exc.value) == message

    @pytest.mark.parametrize("p", [pair[0] for pair, _, _ in MISMATCHED[:11]],
                             ids=lambda p: type(p).__name__)
    def test_continuation_mismatch_message(self, p):
        other = OutP("k", "A", "B", Lit(1), INACT)
        with pytest.raises(NotMergeable) as exc:
            merge(map_cont(p, lambda _: INACT), map_cont(p, lambda _: other))
        assert str(exc.value) == f"{CONT_STEPS[type(p)]}: Inact vs OutP"

    def test_bound_names_do_not_matter(self):
        def body(key, var):
            return InP(key, "A", "B", var, OutP(key, "A", "B", Var(var), INACT))
        p = _nested(Request("s", ("A", "B"), "j", body("j", "x")), "else")
        q = _nested(Request("s", ("A", "B"), "i", body("i", "y")), "else")
        assert merge(p, q) == p
        assert merge(q, p) == q


class TestThreadProjection:
    def test_sensors_requester(self):
        p = project_thread(sensors(), "t1")
        assert isinstance(p, Request)
        assert p.svc == "temperature" and p.roles == ("S1", "S2", "S3", "M")
        assert isinstance(p.cont, Branch)           # the collective selection
        assert isinstance(p.cont.label_map()["measure"], OutP)  # then the contribution

    def test_sensors_other_active(self):
        p = project_thread(sensors(), "t2")
        assert isinstance(p, AcceptOnce) and p.role == "S2"

    def test_sensors_service_thread(self):
        p = project_thread(sensors(), "t0")
        assert isinstance(p, AcceptRepl) and p.role == "M"
        assert isinstance(p.cont, QSel)
        assert isinstance(p.cont.cont, QIn)
        assert p.cont.cont.op == "avg"

    def test_uninvolved_thread_projects_continuation(self):
        assert project_thread(sensors(), "zz") == INACT

    def test_if_projection_merges_for_others(self):
        sel1 = Select(athr("a", "A"), (athr("b", "B"),), Q_ALL, "k", "l1")
        sel2 = Select(athr("a", "A"), (athr("b", "B"),), Q_ALL, "k", "l2")
        c = If(Lit(True), "a", seq(sel1), seq(sel2))
        pa = project_thread(c, "a")
        pb = project_thread(c, "b")
        assert pa.then.label == "l1" and pa.orelse.label == "l2"
        assert isinstance(pb, Branch) and set(pb.label_map()) == {"l1", "l2"}

    def test_receiver_merges_over_differing_payloads(self):
        # the payload lives at the sender; receivers behave identically
        b1 = Bcast(athr("a", "A"), Lit(1), ((athr("b", "B"), "x"),), Q_ALL, "k")
        b2 = Bcast(athr("a", "A"), Lit(2), ((athr("b", "B"), "x"),), Q_ALL, "k")
        c = If(Lit(True), "a", seq(b1), seq(b2))
        assert isinstance(project_thread(c, "b"), InP)

    def test_unprojectable_conditional(self):
        # b only hears something in one branch: no selection tells it which
        b1 = Bcast(athr("a", "A"), Lit(1), ((athr("b", "B"), "x"),), Q_ALL, "k")
        c = If(Lit(True), "a", seq(b1), END)
        with pytest.raises(ProjectionUndefined):
            project_thread(c, "b")


class TestEPP:
    def test_end_projects_to_inert(self):
        assert net_congruent(epp(END), Network())

    def test_sensors_epp_shape(self):
        net = epp(sensors())
        owners = sorted(c.owner for c in net.components if c.owner)
        assert owners == ["t1", "t2", "t3"]
        groups = [c.service for c in net.components if c.service]
        assert groups == [("temperature", "M")]
        assert net.queues == ()  # the session is bound by the start

    def test_service_merge_collects_roles(self):
        assert service_merge(sensors(), "temperature", "M") == frozenset({"t0"})
        assert service_merge(sensors(), "temperature", "S1") == frozenset()

    def test_epp_runs_to_completion(self):
        for c in (sensors(), sensors(q2=q_ratio(2, 3)), typed_example()):
            trace = net_run(epp(c))
            assert trace.verdict == "Completed", trace.final

    def test_swap_invariance(self):
        for c in (sensors(), typed_example(), chained_starts()):
            base = epp(c)
            for v in swap_closure(c):
                assert epp(v) == base

    def test_projection_localization(self):
        """A thread's projection only depends on interactions mentioning it."""
        c1 = seq(Bcast(athr("a", "A"), Lit(1), ((athr("b", "B"), "x"),), Q_ALL, "k"),
                 Bcast(athr("c", "C"), Lit(2), ((athr("d", "D"), "y"),), Q_ALL, "k2"))
        c2 = seq(Bcast(athr("c", "C"), Lit(2), ((athr("d", "D"), "y"),), Q_ALL, "k2"))
        assert project_thread(c1, "c") == project_thread(c2, "c")
        assert project_thread(c1, "d") == project_thread(c2, "d")


class TestPruning:
    def test_reflexive(self):
        net = epp(sensors())
        assert prunes(net, net)

    def test_unused_replicated_service_pruned(self):
        net = epp(sensors())
        extra = Component(AcceptRepl("other", "Z", "k9", INACT), service=("other", "Z"))
        bigger = Network(net.components + (extra,), net.queues, net.restricted)
        assert prunes(net, bigger)
        assert not prunes(bigger, net)

    def test_used_service_not_pruned(self):
        net = epp(sensors())
        # drop the replicated temperature service: the requester still uses it
        smaller = Network(tuple(c for c in net.components if not c.service),
                          net.queues, net.restricted)
        assert not prunes(smaller, net)

    def test_transitive_on_replicated_extensions(self):
        net = epp(typed_example())
        e1 = Component(AcceptRepl("svc1", "Z", "k9", INACT), service=("svc1", "Z"))
        e2 = Component(AcceptRepl("svc2", "W", "k8", INACT), service=("svc2", "W"))
        mid = Network(net.components + (e1,), net.queues, net.restricted)
        big = Network(net.components + (e1, e2), net.queues, net.restricted)
        assert prunes(net, mid) and prunes(mid, big) and prunes(net, big)

    def test_two_step_simulation_below_the_top(self):
        # after linearity_race's first start, the endpoint side needs two
        # simulation steps to answer
        c = linearity_race()
        (glabel, conf2), *_ = enabled(Configuration.initial(c))
        target = epp(conf2.chor)
        nets = fire_labels(epp(c), [glabel])

        @per_verdict
        def stepped(net):
            assert prunes(target, net)
            return len(canon_table().steps)

        assert nets and all(stepped(net) > 0 for net in nets)

    def test_merged_branch_absorbs_projection(self):
        sel1 = Select(athr("a", "A"), (athr("b", "B"),), Q_ALL, "k", "l1")
        sel2 = Select(athr("a", "A"), (athr("b", "B"),), Q_ALL, "k", "l2")
        c = If(Lit(True), "a", seq(sel1), seq(sel2))
        taken = seq(sel1)  # the then-branch was chosen
        p = epp(taken)
        q = Network((Component(project_thread(c, "a").then, owner="a"),
                     Component(project_thread(c, "b"), owner="b")),
                    (Queue("k"),))
        assert prunes(p, q)

    def test_unused_service_pruned_without_simulation(self):
        """Once the unused service is stripped, ``q`` is ``p`` itself: the
        answer needs no step of either network."""
        net = epp(sensors())
        extra = Component(AcceptRepl("other", "Z", "k9", INACT), service=("other", "Z"))
        bigger = Network(net.components + (extra,), net.queues, net.restricted)

        @per_verdict
        def answer():
            assert prunes(net, bigger)
            return canon_table().steps

        assert answer() == {}


def _outputs(n: int) -> list:
    """``n`` anonymous components with pairwise unmergeable outputs."""
    return [Component(OutP("k", "A", "B", Lit(i), INACT)) for i in range(n)]


def _arms(i: int, first=None) -> Component:
    """A branching whose arm ``m`` outputs ``i``, after an arm ``a`` that
    outputs ``first`` unless it is None: it merges into another such
    component exactly when their ``i`` agree."""
    arms = [("m", i)] if first is None else [("a", first), ("m", i)]
    return Component(Branch("k", "B", "A", tuple(
        (label, OutP("k", "B", "A", Lit(v), INACT)) for label, v in arms)))


def _labels(*labels: str) -> Component:
    """A branching offering ``labels``, each ending at once: two such
    components merge into one offering both label sets."""
    return Component(Branch("k", "B", "A", tuple((l, INACT) for l in labels)))


class TestMergePairing:
    """Each of ``p``'s components must merge into its partner in ``q``
    without changing it, so the answer does not follow the order in which
    the canonical sort puts ``q``'s components."""

    @pytest.mark.parametrize("q_labels", [(("x",), ("a", "y")), (("x", "z"), ("y",))])
    def test_answer_ignores_component_order(self, q_labels):
        p = Network((_labels("x"), _labels("y")), (Queue("k"),))
        q = Network(tuple(_labels(*ls) for ls in q_labels), (Queue("k"),))
        assert prunes(p, q)

    def test_merge_is_compared_up_to_bound_names(self):
        """``q``'s arm ``a`` binds first, so its arm ``x`` names its variable
        apart from ``p``'s; the merge keeps ``p``'s name, and still leaves
        ``q``'s component as it was."""
        def branch(*labels):
            arms = tuple((l, InP("k", "B", "A", "v", INACT)) for l in labels)
            return Network((Component(Branch("k", "B", "A", arms)),), (Queue("k"),))

        assert prunes(branch("x"), branch("a", "x"))

    @pytest.mark.parametrize("p_labels,expected", [
        ((("x",), ("x", "y")), True),
        ((("x", "y"), ("y",)), False),
    ])
    def test_a_taken_partner_is_passed_on(self, p_labels, expected):
        """``p``'s first component takes ``q``'s first, the one ``p``'s
        second needs; pairing moves it on to ``q``'s second when it fits
        there."""
        q = [_labels("x", "y"), _labels("x", "z")]
        assert _merge_bucket([_labels(*ls) for ls in p_labels], q) is expected


class TestMergeManyComponents:
    """Pairing same-key components is a matching, not a search over
    assignments, so it answers however many components a bucket holds."""

    @pytest.mark.parametrize("n", [6, 7, 12])
    def test_components_pair_in_reverse(self, n):
        ps = _outputs(n)
        assert _merge_bucket(ps, list(reversed(ps))) is True

    @pytest.mark.parametrize("n", [6, 7, 12])
    def test_prunes_pairs_against_the_sort(self, n):
        """``q``'s first arms sort its components against ``p``'s, so the
        pairing that merges is not the one by position."""
        p = Network(tuple(_arms(i) for i in range(n)), (Queue("k"),))
        q = Network(tuple(_arms(i, n - 1 - i) for i in range(n)), (Queue("k"),))

        def outputs(net):
            return [c.proc.label_map()["m"].expr for c in net_canon(net).components]

        assert sorted(map(repr, outputs(p))) == sorted(map(repr, outputs(q)))
        assert outputs(p) != outputs(q)
        assert prunes(p, q)
