"""Global semantics: enabled transitions, runs, capability evolution, swaps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chor_closure import closure_enabled, covers, swap_closure, swap_equal
from chorfixtures import disjoint_bcasts, hoisting_family, interleaved_corpus, sensors, sensors_partial
from gcq.correspond import cosimulate
from gcq.genchor import GenConfig, corpus
from gcq.parser import parse
from gcq.schedule import BernoulliOracle, ScriptOracle, SingleFailure, TolerantFailure
from gcq.semantics import (
    ALWAYS,
    Configuration,
    _lifts,
    enabled,
    enabled_under,
    run,
    step,
)
from gcq.syntax import (
    CapState,
    END,
    GInitL,
    GReduceL,
    GSelectL,
    GTau,
    If,
    Lit,
    Q_ALL,
    Q_ANY,
    Bcast,
    Seq,
    SomeV,
    Stuck,
    athr,
    q_ratio,
    rename_free,
    seq,
)


def bcast(sender, receivers, key="k", q=Q_ALL, payload=1):
    return Bcast(sender=athr(sender, f"R{sender}"), expr=Lit(payload),
                 receivers=tuple((athr(r, f"R{r}"), f"x{r}") for r in receivers),
                 quality=q, key=key)


class TestEnabled:
    def test_end_has_no_transitions(self):
        assert enabled(Configuration.initial(END)) == []

    def test_step_on_end_raises(self):
        with pytest.raises(Stuck):
            step(Configuration.initial(END))

    def test_init_produces_capabilities(self):
        conf = Configuration.initial(sensors())
        options = enabled(conf)
        assert len(options) == 1
        label, succ = options[0]
        assert isinstance(label, GInitL)
        for i in range(4):
            assert succ.sigma.caps(f"t{i}", "k") == frozenset({f"Acc{i}"})

    def test_none_guard_takes_else_branch(self):
        from gcq.syntax import NoneE
        c = If(NoneE(), "t", seq(bcast("a", ["b"])), END)
        label, succ = enabled(Configuration.initial(c))[0]
        assert label == GTau() and succ.is_end()

    def test_ill_sorted_guard_has_no_transition(self):
        from gcq.syntax import Binop
        c = If(Binop("+", Lit(1), Lit(True)), "t", END, END)
        assert enabled(Configuration.initial(c)) == []

    def test_if_steps_by_guard(self):
        c = If(Lit(True), "t", END, seq(bcast("a", ["b"])))
        label, succ = enabled(Configuration.initial(c))[0]
        assert label == GTau()
        assert succ.is_end()

    def test_disjoint_interactions_offer_both_orders(self):
        c = seq(bcast("a", ["b"], key="k1"), bcast("c", ["d"], key="k2"))
        labels = [lab for lab, _ in enabled(Configuration.initial(c))]
        senders = {lab.sender[0] for lab in labels}
        assert senders == {"a", "c"}

    def test_shared_thread_keeps_program_order(self):
        c = seq(bcast("a", ["b"], key="k1"), bcast("a", ["d"], key="k2"))
        labels = [lab for lab, _ in enabled(Configuration.initial(c))]
        assert {lab.key for lab in labels} == {"k1"}


THREADS = ("t1", "t2", "t3")
SETTLING_ORACLES = st.one_of(
    st.just(ALWAYS),
    st.builds(ScriptOracle, st.lists(st.tuples(st.sampled_from(["available", "unavailable"]),
                                               st.frozensets(st.sampled_from(THREADS))),
                                     max_size=4).map(tuple)),
    st.builds(SingleFailure, st.sampled_from(THREADS), st.integers(0, 8)),
    st.builds(TolerantFailure, st.sampled_from(THREADS)))


class TestCanonKey:
    """A configuration's restrictions are part of its state identity only
    as far as its choreography uses them, and up to their names."""

    CHOR = seq(bcast("t1", ["s"]), bcast("t1", ["s"], key="m", payload=2))

    @staticmethod
    def key(chor, *binders):
        return Configuration(CapState(), chor, binders=binders).canon_key()

    def test_kept_under_structural_congruence(self):
        key = self.key(self.CHOR, ("thread", "s"), ("session", "k"))
        assert self.key(self.CHOR, ("thread", "s"), ("session", "k"), ("session", "j")) == key
        assert self.key(self.CHOR, ("session", "k"), ("thread", "s")) == key
        renamed = rename_free(self.CHOR, {}, {"k": "k1"})
        assert self.key(renamed, ("thread", "s"), ("session", "k1")) == key

    def test_changed_by_what_is_restricted(self):
        key = self.key(self.CHOR, ("thread", "s"), ("session", "k"))
        assert self.key(self.CHOR, ("thread", "s")) != key
        assert self.key(self.CHOR, ("session", "s"), ("session", "k")) != key
        # the term holds xs only as a variable, so only the kind tells these apart
        assert self.key(self.CHOR, ("thread", "xs")) != self.key(self.CHOR, ("session", "xs"))


class TestOracleProtocol:
    """Every oracle answers one per-participant question and says from
    which step its answers stop changing."""

    @settings(max_examples=300, deadline=None)
    @given(SETTLING_ORACLES, st.integers(0, 20), st.sampled_from(THREADS),
           st.sampled_from([Q_ALL, Q_ANY, q_ratio(2, 3), q_ratio(1, 2)]))
    def test_answers_settle(self, oracle, later, thread, quality):
        roles = frozenset({"S1", "S2", "S3"})
        role = "S" + thread[1:]
        at = oracle.settles_at
        assert (oracle.allows(at + later, "k", thread, role, quality, roles)
                == oracle.allows(at, "k", thread, role, quality, roles))

    def test_bernoulli_never_settles(self):
        oracle = BernoulliOracle(0.5, 1)
        assert oracle.settles_at is None
        assert len({oracle.allows(i, "k", "t1", "S1", Q_ALL, frozenset({"S1"}))
                    for i in range(20)}) == 2

    def test_tolerant_failure_withholds_what_the_quality_tolerates(self):
        """As in the network: t3 sits out the 2/3 reduce, never the ``all`` select."""
        conf = Configuration.initial(sensors(q2=q_ratio(2, 3)))
        while not any(isinstance(lab, GReduceL) for lab, _ in enabled(conf)):
            assert enabled_under(conf, TolerantFailure("t3"), 0) == enabled(conf)
            conf = enabled(conf)[0][1]
        reduces = [lab for lab, _ in enabled_under(conf, TolerantFailure("t3"), 0)
                   if isinstance(lab, GReduceL)]
        assert [lab.chosen for lab in reduces] == [frozenset({"t1", "t2"})]


class TestCapabilityEvolution:
    def test_select_two_of_three_advances_state(self):
        """With a 2/3 select and J={t2,t3} the store becomes Ms0,Acc1,Ms2,Ms3."""
        conf = Configuration.initial(sensors(q1=q_ratio(2, 3)))
        _, after_init = step(conf)
        target = frozenset({"t2", "t3"})
        sel = [(lab, succ) for lab, succ in enabled(after_init)
               if isinstance(lab, GSelectL) and lab.chosen == target]
        assert len(sel) == 1
        _, succ = sel[0]
        expected = CapState.of({("t0", "k"): {"Ms0"}, ("t1", "k"): {"Acc1"},
                                ("t2", "k"): {"Ms2"}, ("t3", "k"): {"Ms3"}})
        assert succ.sigma == expected

    def test_reduce_applies_op_and_updates_chosen_only(self):
        conf = Configuration.initial(sensors(q2=q_ratio(2, 3)))
        _, c1 = step(conf)
        sel = [e for lab, e in enabled(c1) if isinstance(lab, GSelectL)
               and lab.chosen == frozenset({"t1", "t2", "t3"})]
        reds = [(lab, e) for lab, e in enabled(sel[0]) if isinstance(lab, GReduceL)]
        by_chosen = {lab.chosen: (lab, e) for lab, e in reds}
        want = frozenset({"t1", "t3"})
        assert want in by_chosen
        lab, succ = by_chosen[want]
        assert lab.result == SomeV(3)  # avg(1, 5)
        assert succ.sigma.caps("t2", "k") == frozenset({"Ms2"})  # absent: untouched
        assert succ.sigma.caps("t0", "k") == frozenset({"E0"})


class TestRun:
    def test_sensors_all_completes_in_three_steps(self):
        trace = run(Configuration.initial(sensors()))
        assert trace.verdict == "Completed"
        assert len(trace.labels) == 3

    def test_budget_zero_on_nonempty(self):
        trace = run(Configuration.initial(sensors()), max_steps=0)
        assert trace.verdict == "Budget"

    def test_blocking_any_with_only_t2_available_gets_stuck(self):
        class OnlyT2:
            def allows(self, step, session, thread, role, quality, roles):
                return thread == "t2"

        trace = run(Configuration.initial(sensors_partial(q1=Q_ANY, q2=Q_ANY)), oracle=OnlyT2())
        assert trace.verdict == "Stuck"
        assert any(isinstance(lab, GSelectL) for lab in trace.labels)

    def test_run_is_reproducible_per_seed(self):
        t1 = run(Configuration.initial(sensors(q2=Q_ANY)), policy=42, max_steps=50)
        t2 = run(Configuration.initial(sensors(q2=Q_ANY)), policy=42, max_steps=50)
        assert t1.labels == t2.labels and t1.verdict == t2.verdict
        assert t1.to_jsonl() == t2.to_jsonl()

    def test_no_reordering_of_thread_sharing_actions(self):
        """Two broadcasts sharing the sender never swap: the first fires first."""
        c = seq(bcast("a", ["b"], key="k1", q=Q_ANY), bcast("a", ["d"], key="k2", q=Q_ALL))
        trace = run(Configuration.initial(c), policy=7, max_steps=10)
        keys = [lab.key for lab in trace.labels]
        assert keys == ["k1", "k2"]

    def test_bcast_substitutes_some_for_chosen_none_for_absent(self):
        recv = ((athr("b", "B"), "x"), (athr("c", "C"), "y"))
        inner = If(__import__("gcq.syntax", fromlist=["Var"]).Var("x"), "b", END, END)
        c = Seq(Bcast(athr("a", "A"), Lit(True), recv, Q_ANY, "k"), inner)
        for lab, succ in enabled(Configuration.initial(c)):
            core = succ.chor
            if lab.chosen == frozenset({"c"}):
                # x at b was substituted by none
                assert "NoneE" in repr(core)
            if lab.chosen == frozenset({"b", "c"}):
                assert "Lit(value=True)" in repr(core)


class TestSwap:
    def test_reflexive(self):
        c = sensors()
        assert swap_equal(c, c)

    def test_disjoint_broadcasts_commute(self):
        a = seq(bcast("a", ["b"], key="k1"), bcast("c", ["d"], key="k2"))
        b = seq(bcast("c", ["d"], key="k2"), bcast("a", ["b"], key="k1"))
        assert swap_equal(a, b)

    def test_shared_sender_does_not_commute(self):
        a = seq(bcast("a", ["b"], key="k1"), bcast("a", ["d"], key="k2"))
        b = seq(bcast("a", ["d"], key="k2"), bcast("a", ["b"], key="k1"))
        assert not swap_equal(a, b)

    def test_if_hoist(self):
        eta = bcast("a", ["b"], key="k1")
        hoisted = Seq(eta, If(Lit(True), "c", END, END))
        inside = If(Lit(True), "c", Seq(eta, END), Seq(eta, END))
        assert swap_equal(hoisted, inside)

    def test_nested_conditionals_swap(self):
        inner1 = If(Lit(False), "r", END, seq(bcast("r", ["s"])))
        inner2 = If(Lit(False), "r", seq(bcast("r", ["s"])), END)
        outer = If(Lit(True), "p", inner1, inner2)
        flipped = If(Lit(False), "r",
                     If(Lit(True), "p", END, seq(bcast("r", ["s"]))),
                     If(Lit(True), "p", seq(bcast("r", ["s"])), END))
        assert swap_equal(outer, flipped)

    def test_conditional_swap_requires_distinct_deciders(self):
        inner1 = If(Lit(False), "p", END, seq(bcast("r", ["s"])))
        inner2 = If(Lit(False), "p", seq(bcast("r", ["s"])), END)
        outer = If(Lit(True), "p", inner1, inner2)  # same thread decides both
        flipped = If(Lit(False), "p",
                     If(Lit(True), "p", END, seq(bcast("r", ["s"]))),
                     If(Lit(True), "p", seq(bcast("r", ["s"])), END))
        assert not swap_equal(outer, flipped)

    def test_closure_preserves_interaction_multiset(self):
        from gcq.syntax import interactions_of
        c = seq(bcast("a", ["b"], key="k1"), bcast("c", ["d"], key="k2"),
                bcast("e", ["f"], key="k3"))
        base = sorted(map(repr, interactions_of(c)))
        for v in swap_closure(c):
            assert sorted(map(repr, interactions_of(v))) == base


def _head(c):
    """What a term fires first: its leading interaction, or its
    conditional's guard and deciding thread."""
    match c:
        case Seq(eta, _):
            return eta
        case If(guard, at, _, _):
            return guard, at
    return None


def _reachable(chor, cap=30):
    confs = [Configuration.initial(chor)]
    seen = {confs[0].canon_key()}
    for conf in confs:
        for _, succ in enabled(conf):
            if len(confs) < cap and succ.canon_key() not in seen:
                seen.add(succ.canon_key())
                confs.append(succ)
    return confs


class TestLift:
    """``enabled`` lifts each head that swaps bring to the front; the
    enumerated closure (``chor_closure``) is the specification."""

    def test_lifts_are_swap_equal_and_reach_every_head(self):
        eta = bcast("a", ["b"], key="k1")
        inner = If(Lit(False), "r", seq(bcast("r", ["s"])), END)
        terms = [
            seq(bcast("a", ["b"], key="k1"), bcast("c", ["d"], key="k2"), bcast("a", ["d"], key="k3")),
            Seq(eta, If(Lit(True), "c", END, END)),
            If(Lit(True), "c", Seq(eta, END), Seq(eta, seq(bcast("c", ["d"])))),
            If(Lit(True), "p", inner, If(Lit(False), "r", END, seq(bcast("p", ["q"])))),
            If(Lit(True), "p", inner, If(Lit(False), "p", END, END)),
            If(Lit(True), "r", inner, If(Lit(False), "r", END, END)),  # one decider: no hoist
            If(Lit(True), "a", Seq(eta, END), Seq(eta, END)),  # the decider is in eta: no hoist
        ]
        for c in terms:
            lifts = _lifts(c)
            assert all(swap_equal(c, lifted) for lifted in lifts)
            heads = [_head(lifted) for lifted in lifts]
            assert len(set(heads)) == len(heads)
            assert set(heads) == {_head(v) for v in swap_closure(c)}

    @pytest.mark.parametrize("programs", [
        lambda: interleaved_corpus(24, seed=5),
        lambda: corpus(100, seed=23, config=GenConfig(max_threads=4, max_interactions=5)),
        lambda: hoisting_family(100, seed=3),
    ], ids=["interleaved", "seed23", "hoisting"])
    def test_covers_the_closure_on_seeded_corpora(self, programs):
        """On every configuration reachable from the programs (at most 30
        each): the lifts reach the closure's heads, and ``enabled`` has the
        closure's labels and a swap-equal successor for each of its own."""
        checked = 0
        for chor in programs():
            for conf in _reachable(chor):
                assert {_head(lifted) for lifted in _lifts(conf.chor)} \
                    == {_head(v) for v in swap_closure(conf.chor)}
                assert covers(enabled(conf), closure_enabled(conf))
                checked += 1
        assert checked > 300

    def test_one_successor_per_swap_class(self):
        """A start followed by three thread-disjoint broadcasts: the closure
        fires the start once per order of the broadcasts, the lift once."""
        conf = Configuration.initial(parse(disjoint_bcasts(3, range(3))).chor)
        assert len(closure_enabled(conf)) == 6
        steps = enabled(conf)
        assert [type(label) for label, _ in steps] == [GInitL]
        assert cosimulate(conf.chor).pairs_explored == 9

    @pytest.mark.parametrize("n", range(2, 7))
    def test_disjoint_broadcasts_explore_one_pair_per_subset(self, n):
        """Each set of broadcasts already fired is one pair, plus the start."""
        verdict = cosimulate(parse(disjoint_bcasts(n, range(n))).chor)
        assert verdict.status == "Pass"
        assert verdict.pairs_explored == 2 ** n + 1
