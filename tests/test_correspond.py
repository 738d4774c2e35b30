"""Label correspondence, co-simulation and availability on the golden set."""

import json
import re
from collections import Counter, deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chor_closure import closure_enabled, covers
from chorfixtures import chained_starts, sensor_family, sensors, sensors_partial, typed_example
from gcq import cli, correspond, epq, netsem, projection, semantics
from gcq.correspond import (
    Verdict,
    availability_check,
    cosimulate,
    drop_receiver,
    fire_labels,
    implements,
    required_group,
    swap_select_label,
)
from gcq.genchor import GenConfig, corpus
from gcq.netsem import (
    BcIn,
    BcOut,
    ETau,
    EUp,
    RdOut,
    SelIn,
    SelOut,
    Start,
    is_quiescent,
    net_enabled,
)
from gcq.parser import parse
from gcq.projection import epp, prunes
from gcq.schedule import BernoulliOracle, ScriptOracle, SingleFailure, TolerantFailure
from gcq.semantics import (
    ALWAYS,
    Configuration,
    chor_canon,
    enabled,
    run,
)
from gcq.syntax import (
    GBcastL,
    GInitL,
    GSelectL,
    GTau,
    Lit,
    Q_ALL,
    Q_ANY,
    SomeV,
    free_names,
    label_first_sorted,
    q_ratio,
    stable_repr,
)

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


class TestImplements:
    def test_init_matches_start(self):
        g = GInitL((("t1", "A"),), (("t0", "B"),), "a", "k")
        assert implements([g], [Start(("A",), ("B",), "a", "k")]).ok

    def test_tau_matches_tau(self):
        assert implements([GTau()], [ETau()]).ok

    def test_bcast_group_any_interleaving(self):
        g = GBcastL(("s", "A"), (("r1", "B1"), ("r2", "B2")), Q_ALL, "k",
                    frozenset({"r1", "r2"}), SomeV(1))
        group = [BcOut("A", ("B1", "B2"), Q_ALL, "k", SomeV(1)),
                 BcIn("A", "B1", "k", SomeV(1)), BcIn("A", "B2", "k", SomeV(1)), EUp()]
        assert implements([g], group).ok
        assert implements([g], list(reversed(group))).ok

    def test_partial_group_rejected(self):
        g = GBcastL(("s", "A"), (("r1", "B1"), ("r2", "B2")), Q_ALL, "k",
                    frozenset({"r1", "r2"}), SomeV(1))
        group = [BcOut("A", ("B1", "B2"), Q_ALL, "k", SomeV(1)),
                 BcIn("A", "B1", "k", SomeV(1)), EUp()]  # missing one input
        assert not implements([g], group).ok

    def test_leftover_endpoint_labels_rejected(self):
        assert not implements([GTau()], [ETau(), ETau()]).ok

    def test_witness_counts(self):
        g = GBcastL(("s", "A"), (("r1", "B1"),), Q_ALL, "k", frozenset({"r1"}), SomeV(2))
        group = required_group(g)
        res = implements([g], group)
        assert res.ok
        ((glabel, indices),) = res.witness.groups
        assert glabel == g and len(indices) == len(group) == 3

    def test_trace_level_correspondence(self):
        """A full global run of the golden program implements a full network run."""
        from gcq.netsem import net_run
        c = sensors()
        gtrace = run(Configuration.initial(c))
        ntrace = net_run(epp(c))
        assert gtrace.verdict == "Completed" and ntrace.verdict == "Completed"
        assert implements(gtrace.labels, ntrace.labels).ok


GOLDEN_TYPABLE = [
    ("sensors-all-all", sensors()),
    ("sensors-all-any", sensors(q2=Q_ANY)),
    ("sensors-all-23", sensors(q2=q_ratio(2, 3))),
    ("typed", typed_example()),
]


class TestCosim:
    @pytest.mark.parametrize("name,chor", GOLDEN_TYPABLE, ids=[n for n, _ in GOLDEN_TYPABLE])
    def test_golden_passes_both_directions(self, name, chor):
        verdict = cosimulate(chor, bound=32)
        assert verdict.passed, verdict.detail

    def test_end_passes_vacuously(self):
        from gcq.syntax import END
        assert cosimulate(END, bound=4).passed

    def test_dropped_receiver_counterexample(self):
        verdict = cosimulate(sensors(), net=drop_receiver(epp(sensors()), "t2"))
        assert verdict.status == "CounterexampleFound"

    def test_bound_covers_the_start(self):
        """The start pair is at depth 0, so bound 0 checks it."""
        verdict = cosimulate(sensors(), bound=0, net=drop_receiver(epp(sensors()), "t2"))
        assert (verdict.status, verdict.pairs_explored) == ("CounterexampleFound", 1)
        assert "at depth 0 " in verdict.detail

    def test_swapped_label_counterexample(self):
        verdict = cosimulate(sensors(), net=swap_select_label(epp(sensors()), "calibrate"))
        assert verdict.status == "CounterexampleFound"

    def test_pass_is_exhaustive_not_sampled(self):
        v1 = cosimulate(sensors(q2=Q_ANY), bound=32)
        v2 = cosimulate(sensors(q2=Q_ANY), bound=32)
        assert v1.passed and v2.passed and v1.pairs_explored == v2.pairs_explored

    @pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.gcq")))
    def test_bound_is_the_only_cut(self, name):
        """Below the depth a verdict needs, the bound is the only cut; from
        that depth on, a larger bound changes nothing."""
        chor = parse((GOLDEN / f"{name}.gcq").read_text(), lax_select=True).chor
        verdicts = [cosimulate(chor, bound=bound) for bound in range(8)]
        cut = [v for v in verdicts if v.status == "BudgetExceeded"]
        assert [v.detail for v in cut] == [f"exploration stopped at depth {b}"
                                           for b in range(len(cut))]
        decided = verdicts[len(cut):]
        assert decided and all(v == decided[0] for v in decided)
        assert cosimulate(chor, bound=32) == decided[0]

    @pytest.mark.parametrize("bound,status", [
        (1, "BudgetExceeded"), (2, "Pass"), (12, "Pass")])
    def test_bound_decides_linearity_race(self, bound, status):
        chor = parse((GOLDEN / "linearity_race.gcq").read_text()).chor
        assert cosimulate(chor, bound=bound).status == status

    @pytest.mark.parametrize("name", ["sensors_any_all", "sensors_blocking"])
    @pytest.mark.parametrize("bound", [1, 2, 32])
    def test_untypable_golden_is_a_counterexample(self, name, bound):
        chor = parse((GOLDEN / f"{name}.gcq").read_text(), lax_select=True).chor
        assert cosimulate(chor, bound=bound).status == "CounterexampleFound"


class TestFaultsAreNotVerdicts:
    """A fault inside a rule or inside the projection reaches the command
    line as an internal error, not as a stuck network or a failed
    precondition."""

    @pytest.mark.parametrize("module,name,command", [
        (netsem, "eval_quality", "availability"),
        (semantics, "quality_subsets", "cosim"),
        (correspond, "epp", "cosim"),
        (correspond, "epp", "availability"),
    ], ids=["wait-rule", "capable-subsets", "cosim-epp", "availability-epp"])
    def test_fault_is_an_internal_error(self, module, name, command, monkeypatch, capsys):
        def broken(*args):
            raise TypeError("planted fault")

        monkeypatch.setattr(module, name, broken)
        code = cli.main([command, str(GOLDEN / "sensors_all.gcq")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("internal error: TypeError: planted fault")


class TestUnicastEncodings:
    """One-to-one messaging encodes as an all-quality broadcast or an
    identity reduce; both encodings deliver the same value and complete."""

    def test_two_encodings_agree(self):
        from gcq.netsem import net_run, RdIn
        from gcq.syntax import Bcast, GBcastL, GReduceL, Init, Lit, Reduce, athr, seq

        init = Init(actives=(athr("p", "A", off={"P"}),),
                    services=(athr("q", "B", off={"Q"}),), svc="a", key="k")
        as_bcast = seq(init, Bcast(athr("p", "A", {"P"}, {"P2"}), Lit(42),
                                   ((athr("q", "B", {"Q"}, {"Q2"}), "x"),), Q_ALL, "k"))
        as_reduce = seq(init, Reduce(((athr("p", "A", {"P"}, {"P2"}), Lit(42)),),
                                     athr("q", "B", {"Q"}, {"Q2"}), "x", Q_ALL, "id", "k"))
        for chor in (as_bcast, as_reduce):
            gtrace = run(Configuration.initial(chor))
            assert gtrace.verdict == "Completed"
            ntrace = net_run(epp(chor))
            assert ntrace.verdict == "Completed"
            assert cosimulate(chor, bound=16).passed
        gb = run(Configuration.initial(as_bcast)).labels
        gr = run(Configuration.initial(as_reduce)).labels
        (bcast_lab,) = [l for l in gb if isinstance(l, GBcastL)]
        (red_lab,) = [l for l in gr if isinstance(l, GReduceL)]
        assert bcast_lab.value == red_lab.result == SomeV(42)


class TestAvailability:
    def test_golden_tolerates_single_failures(self):
        c = sensors(q2=q_ratio(2, 3))
        oracles = [ALWAYS] + [TolerantFailure(t) for t in ("t1", "t2", "t3")]
        verdict = availability_check(c, oracles, bound=64)
        assert verdict.passed, verdict.detail

    def test_blocking_variant_gets_stuck(self):
        verdict = availability_check(sensors_partial(q1=Q_ANY, q2=Q_ANY), bound=64)
        assert verdict.status == "StuckNetworkFound"

    def test_end_is_inert(self):
        from gcq.syntax import END
        verdict = availability_check(END)
        assert verdict.passed and "inert" in verdict.detail

    def test_net_run_completes_with_one_sensor_withheld(self):
        """The 2/3 reduce finishes on two contributions when one sensor is down."""
        from gcq.netsem import RdIn, net_run
        trace = net_run(epp(sensors(q2=q_ratio(2, 3))), oracle=TolerantFailure("t3"))
        assert trace.verdict == "Completed"
        (rd,) = [l for l in trace.labels if isinstance(l, RdIn)]
        assert rd.payload == SomeV(0)  # avg(1, -2) rounds toward zero

    def test_intolerant_program_blocked_by_hard_failure(self):
        """A permanent failure an all-quality program cannot absorb: stuck."""
        verdict = availability_check(sensors(), [SingleFailure("t2")], bound=64)
        assert verdict.status == "StuckNetworkFound"

    def test_script_oracle_sees_the_step_a_network_is_reached_at(self):
        """z may sit out the 'any' broadcast or take part, so the network in
        which p's contribution is the only move is reached after 5 steps and
        after 6.  The script withholds p at step 6 only: at step 5 p moves, at
        step 6 nothing can.  A search keyed on the network alone expands it at
        step 5 only and passes."""
        chor = parse(STEPS_APART).chor
        free = ("unavailable", frozenset())
        script = ScriptOracle((free,) * 6 + (("unavailable", frozenset({"p"})), free))
        verdict = availability_check(chor, [script])
        assert verdict.status == "StuckNetworkFound"
        assert "stuck non-quiescent network at depth 6" in verdict.detail

    def test_step_free_oracles_visit_each_network_once(self):
        chor = parse(STEPS_APART).chor
        # 10 networks; 4 of them are reached at two steps
        assert availability_check(chor).pairs_explored == 10
        assert availability_check(chor, [TolerantFailure("z")]).pairs_explored == 10
        free = ScriptOracle((("unavailable", frozenset()),))
        assert availability_check(chor, [free]).pairs_explored == 10


def _global_depth(chor) -> int:
    """The largest least depth of a configuration: a breadth-first search
    over ``semantics.enabled`` keyed by ``canon_key``."""
    start = Configuration.initial(chor)
    frontier, depth = deque([start]), {start.canon_key(): 0}
    while frontier:
        conf = frontier.popleft()
        for _, conf2 in enabled(conf):
            if conf2.canon_key() not in depth:
                depth[conf2.canon_key()] = depth[conf.canon_key()] + 1
                frontier.append(conf2)
    return max(depth.values())


def _endpoint_depth(chor, oracle) -> int:
    """The largest least depth of a network under a step-free oracle: a
    breadth-first search over ``net_enabled`` with the availability rule,
    as ``_terminals`` runs it."""
    @epq.per_verdict
    def search():
        table = epq.canon_table()
        start = epp(chor)
        frontier, depth = deque([start]), {table.canon(start): 0}
        while frontier:
            net = frontier.popleft()
            options = net_enabled(net, oracle)
            for _, succ in correspond._forced_sync(net, oracle) or options:
                if table.canon(succ) not in depth:
                    depth[table.canon(succ)] = depth[table.canon(net)] + 1
                    frontier.append(succ)
        return max(depth.values())
    return search()


class TestBoundMeaning:
    """``--bound N`` means one thing to ``cosim`` and ``availability``: every
    state at depth up to N is checked, and the verdict is ``BudgetExceeded``
    exactly when an unseen successor lies at depth N + 1."""

    LAX = {"sensors_any_all", "sensors_blocking"}
    CASES = ([("cosim", name) for name in ("sensors_all", "sensors_23", "sensors_typed")]
             + [("availability", p.stem) for p in sorted(GOLDEN.glob("*.gcq"))])

    def _verdict(self, command, name, capsys, *bound) -> dict:
        flags = ["--lax-select"] if name in self.LAX else []
        cli.main([command, str(GOLDEN / f"{name}.gcq"), *flags, *bound])
        return json.loads(capsys.readouterr().out.splitlines()[-1])

    @pytest.mark.parametrize("command,name", CASES, ids=[f"{c}-{n}" for c, n in CASES])
    def test_least_bound_that_answers(self, command, name, capsys):
        """A pass needs the bound to reach the deepest state, as a search
        written here measures it; a stuck network needs its own depth."""
        chor = parse((GOLDEN / f"{name}.gcq").read_text(), lax_select=name in self.LAX).chor
        default = self._verdict(command, name, capsys)
        if default["status"] == "Pass" and command == "cosim":
            depth = _global_depth(chor)
        elif default["status"] == "Pass":
            oracles = [ALWAYS] + [TolerantFailure(t) for t in sorted(free_names(chor).threads)]
            depth = max(_endpoint_depth(chor, oracle) for oracle in oracles)
        else:
            assert default["status"] == "StuckNetworkFound"
            depth = int(re.search(r"at depth (\d+) ", default["detail"]).group(1))
        at_depth = self._verdict(command, name, capsys, "--bound", str(depth))
        assert (at_depth["status"], at_depth["detail"]) == (default["status"], default["detail"])
        assert self._verdict(command, name, capsys, "--bound", str(depth - 1))["status"] \
            == "BudgetExceeded"


STEPS_APART = """
service a : bcast A2 -> (Z,A1) <int> . reduce (A1) -> A2 <int> . end;
choreography {
  start k (a) (p[A1]{C1}, q[A2]{C2}) -> (z[Z]{C3});
  bcast k [any] q[A2]{C2;C4}.6 -> (z[Z]{C3;C3}: x, p[A1]{C1;C1}: x);
  reduce k [all] sum (p[A1]{C1;C5}.1) -> q[A2]{C4;C6} : y;
  end
}
"""


def _order_programs() -> list:
    """The golden programs, the seed-23 corpus, ``sensor_family(2..4)`` with a
    tolerant reduce, and ``chained_starts``."""
    programs = [parse(p.read_text(), lax_select=True).chor for p in sorted(GOLDEN.glob("*.gcq"))]
    programs += corpus(100, seed=23, config=GenConfig(max_threads=4, max_interactions=5))
    programs += [sensor_family(n, q2=q_ratio(n - 1, n)) for n in range(2, 5)]
    return programs + [chained_starts()]


class _Raw(str):
    """A string whose ``repr`` is itself, to build label and successor texts."""

    def __repr__(self):
        return str(self)


class TestStateIdentity:
    """Searches key states on canonical networks, canonicalized once per verdict."""

    def test_successor_order(self):
        """Inside a verdict, ``net_enabled`` orders successors by the
        ``stable_repr`` of (label, canonical successor), one entry per pair.
        Label texts decide that order unless two tie, as the ``EUp()`` of two
        threads that may each enqueue do; the full text is the oracle."""
        programs = _order_programs()

        def key(step):
            return stable_repr((step[0], epq.net_canon(step[1])))

        @epq.per_verdict
        def ties(nets) -> int:
            count = 0
            for net in nets:
                steps = net_enabled(net)
                keys = [key(step) for step in steps]
                assert keys == sorted(set(keys))
                labels = sorted(stable_repr(label) for label, _ in steps)
                count += any(b.startswith(a) for a, b in zip(labels, labels[1:]))
            return count

        for chor in programs:
            ties(_reachable(chor))
        two_enqueues = [epq.Network(tuple(
            epq.Component(epq.QOut(k, "A", ("B",), Q_ALL, Lit(v), epq.INACT), owner=t)
            for k, v, t in order), (epq.Queue("j"), epq.Queue("k")))
            for order in ([("k", 1, "t1"), ("j", 2, "t2")], [("j", 2, "t2"), ("k", 1, "t1")])]
        assert ties(two_enqueues) == 2

    def test_global_successor_order(self):
        """``semantics.enabled`` lists its successors in the order of their
        rendered (label, canonical successor) pairs, and covers a reference
        that fires every term of the swap closure, on every configuration
        reachable from the programs (at most 40 each)."""
        checked = 0
        for chor in _order_programs():
            confs = [Configuration.initial(chor)]
            seen = {confs[0].canon_key()}
            for conf in confs:
                steps = enabled(conf)
                keys = [(label, succ.canon_key()) for label, succ in steps]
                assert keys == sorted(keys, key=stable_repr)
                assert covers(steps, closure_enabled(conf))
                checked += 1
                for _, succ in steps:
                    if len(confs) < 40 and succ.canon_key() not in seen:
                        seen.add(succ.canon_key())
                        confs.append(succ)
        assert checked > 500

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.text("12, )", max_size=4), st.text("12, )", max_size=3)),
                    max_size=8, unique=True))
    @example([(", ", " "), ("", ",  ")])  # two texts "(, ,  )": input order decides
    def test_label_first_order_is_the_text_order(self, pairs):
        """Labels that tie or are prefixes of one another, with texts that
        continue like the rendered pair does (", "), are ordered as the text
        of the whole pair orders them."""
        pairs = [(_Raw(a), _Raw(b)) for a, b in pairs]
        assert label_first_sorted(pairs) == sorted(pairs, key=stable_repr)

    def test_stored_canonical_key(self):
        conf = Configuration.initial(sensors())
        assert conf._canon is None
        key = conf.canon_key()
        assert conf.canon_key() is key and key == (conf.sigma, chor_canon(conf.chor))
        fresh = Configuration(conf.sigma, conf.chor, conf.used)
        assert fresh == conf and hash(fresh) == hash(conf)
        assert repr(fresh) == repr(conf) and stable_repr(fresh) == stable_repr(conf)
        assert conf.replace(used=frozenset())._canon is None

    @staticmethod
    def _canonicalized(monkeypatch) -> list:
        """The (network, canonical form) pairs ``net_canon`` computes from now
        on; the spy passes the verdict's component memo through."""
        computed = []
        real = epq.net_canon

        def counted(net, memo=None):
            computed.append((net, real(net, memo)))
            return computed[-1][1]

        monkeypatch.setattr(epq, "net_canon", counted)
        return computed

    @staticmethod
    def _global_work(monkeypatch) -> tuple[list, list]:
        """The configurations ``cosimulate`` expands and the top-level
        ``prunes`` queries it computes (each runs on a fresh ``_memo``)."""
        expanded, pruned = [], []
        real_enabled, real_prunes = correspond.enabled, projection.prunes

        def expanding(conf):
            expanded.append(conf)
            return real_enabled(conf)

        def pruning(p, q, _memo=None):
            if _memo == {}:
                pruned.append((p, q))
            return real_prunes(p, q, _memo)

        monkeypatch.setattr(correspond, "enabled", expanding)
        monkeypatch.setattr(projection, "prunes", pruning)
        return expanded, pruned

    def test_verdicts_share_no_canonical_state(self, monkeypatch):
        chor = parse((GOLDEN / "sensors_23.gcq").read_text()).chor
        computed = self._canonicalized(monkeypatch)
        counts = []
        for cosim_first in (False, True, False):
            if cosim_first:
                assert cosimulate(chor).passed
            computed.clear()
            assert availability_check(chor).passed
            counts.append(len(computed))
        assert counts[0] > 0 and counts == [counts[0]] * 3
        expanded, pruned = self._global_work(monkeypatch)
        work = []
        for _ in range(2):
            computed.clear(), expanded.clear(), pruned.clear()
            assert cosimulate(chor).passed
            work.append((len(computed), len(expanded), len(pruned)))
        assert min(work[0]) > 0 and work[1] == work[0]

    @staticmethod
    def _cosim_programs() -> list:
        """The golden programs and the first 20 of the seed-23 corpus."""
        return ([parse(p.read_text(), lax_select=True).chor for p in sorted(GOLDEN.glob("*.gcq"))]
                + corpus(20, seed=23, config=GenConfig(max_threads=4, max_interactions=5)))

    def test_each_configuration_expanded_once_per_verdict(self, monkeypatch):
        """Within one ``cosimulate`` call ``semantics.enabled`` runs at most
        once per configuration and ``prunes`` computes each top-level query
        once, though both are asked again."""
        expanded, pruned = self._global_work(monkeypatch)
        asked = []
        monkeypatch.setattr(correspond, "prunes", lambda *a: asked.append(a) or prunes(*a))
        for chor in self._cosim_programs():
            expanded.clear(), pruned.clear(), asked.clear()
            cosimulate(chor)
            assert len(set(expanded)) == len(expanded)
            assert len(set(pruned)) == len(pruned) <= len(asked)
        assert len(asked) > len(pruned)

    def test_prune_cache_answers_like_a_fresh_call(self, monkeypatch):
        """Every top-level ``prunes`` answer ``cosimulate`` gets equals a
        fresh call's; asked again in one table, each query still answers so."""
        answers = {}

        def asking(*query):
            answers.setdefault(query, []).append(prunes(*query))
            return answers[query][-1]

        monkeypatch.setattr(correspond, "prunes", asking)
        for chor in self._cosim_programs():
            cosimulate(chor)
        fresh = {query: epq.per_verdict(prunes)(*query) for query in answers}
        assert all(got == [fresh[query]] * len(got) for query, got in answers.items())
        assert set(fresh.values()) == {True, False}
        queries = list(fresh)
        assert epq.per_verdict(lambda: [prunes(*query) for query in queries])() == \
            [fresh[query] for query in queries]

    def test_each_network_canonicalized_once_per_verdict(self, monkeypatch):
        chor = parse((GOLDEN / "sensors_23.gcq").read_text()).chor
        computed = self._canonicalized(monkeypatch)
        for verdict in (cosimulate, availability_check):
            computed.clear()
            assert verdict(chor).passed
            known = set()
            for net, form in computed:
                assert net not in known  # neither met before nor a form already computed
                known |= {net, form}
            assert computed

    def test_projection_once_per_choreography(self, monkeypatch):
        """Over one co-simulation, each residual choreography is projected once."""
        chor = parse((GOLDEN / "sensors_23.gcq").read_text()).chor
        projected = Counter()
        real = correspond.epp
        monkeypatch.setattr(correspond, "epp",
                            lambda c, binders: projected.update([(c, binders)]) or real(c, binders))
        assert cosimulate(chor).passed
        assert len(projected) > 1 and set(projected.values()) == {1}

    def test_lone_successor_not_canonicalized(self):
        """A network with one emission returns its successor unrendered and
        not canonicalized: only a search that reads it pays for its form."""
        net = epq.Network((epq.Component(epq.IfP(Lit(True), epq.INACT, epq.INACT), owner="t"),))

        @epq.per_verdict
        def step():
            (label, succ), = net_enabled(net)
            return label, succ, epq.canon_table().forms

        label, succ, forms = step()
        assert label == ETau() and succ.components[0].proc == epq.INACT and forms == {}


def _parent_stable_repr(x) -> str:
    """``syntax.stable_repr`` as first written: fields looked up on every node."""
    if isinstance(x, frozenset):
        return (f"frozenset({{{', '.join(sorted(map(_parent_stable_repr, x)))}}})"
                if x else "frozenset()")
    if isinstance(x, tuple):
        return f"({', '.join(map(_parent_stable_repr, x))}{',' if len(x) == 1 else ''})"
    names = getattr(type(x), "__term_fields__", None)
    if names is not None:
        args = ", ".join(f"{name}={_parent_stable_repr(getattr(x, name))}" for name in names)
        return f"{type(x).__qualname__}({args})"
    return repr(x)


def _reference_transitions(net) -> list:
    """``netsem._transitions`` by its defining rule: every emission keyed on
    (label, canonical successor), the keys sorted by their full text."""
    found: dict = {}
    for label, emissions in netsem._emissions(net).items():
        for guard, succ in emissions:
            found.setdefault((label, epq.net_canon(succ)), []).append((guard, succ))
    return [(key[0], found[key]) for key in sorted(found, key=_parent_stable_repr)]


def test_transitions_match_the_reference():
    """On every network reachable from the programs, breadth first over every
    emission and one network per canonical form, ``_transitions`` lists the
    reference's labels, guards and exact successors in the reference's
    order; and ``stable_repr`` renders each label, network and reachable
    configuration as its first definition did."""
    def same_text(term):
        assert stable_repr(term) == _parent_stable_repr(term)

    networks = configurations = 0
    for chor in _order_programs():
        @epq.per_verdict
        def explore():
            table = epq.canon_table()
            nets = [epp(chor)]
            seen = {table.canon(nets[0])}
            for net in nets:
                steps = netsem._transitions(net, table)
                assert steps == _reference_transitions(net)
                same_text(net)
                for label, emissions in steps:
                    same_text(label)
                    for _, succ in emissions:
                        if table.canon(succ) not in seen:
                            seen.add(table.canon(succ))
                            nets.append(succ)
            return len(nets)

        networks += explore()
        confs = [Configuration.initial(chor)]
        seen = {confs[0].canon_key()}
        for conf in confs:
            same_text(conf)
            for label, succ in enabled(conf):
                same_text(label)
                if succ.canon_key() not in seen:
                    seen.add(succ.canon_key())
                    confs.append(succ)
        configurations += len(confs)
    assert networks > 1500 and configurations > 500  # 1,723 and 544 when written


def _reachable(chor, limit=40) -> list:
    """Networks the projection reaches under ``ALWAYS``, breadth first."""
    @epq.per_verdict
    def explore():
        table = epq.canon_table()
        nets = [epp(chor)]
        seen = {table.canon(nets[0])}
        for net in nets:
            for _, succ in net_enabled(net):
                if len(nets) < limit and table.canon(succ) not in seen:
                    seen.add(table.canon(succ))
                    nets.append(succ)
        return nets
    return explore()


def _after(conf, seq):
    """The configuration reached by firing the global labels ``seq``."""
    for g in seq:
        conf = next(c for lab, c in enabled(conf) if lab == g)
    return conf


@epq.per_verdict
def _windows(chor, length=3) -> list:
    """(network, global labels, endpoint step already fired or None) for each
    window of 1 to ``length`` global steps from every state pair along the
    co-simulation of ``chor``, from the pair's network and from each network
    one endpoint step on."""
    out = []
    frontier = [(Configuration.initial(chor), epp(chor))]
    for conf, net in frontier:
        assert not any(q.msgs for q in net.queues)  # what fire_labels' reduction relies on
        seqs = [[]]
        for _ in range(length):
            seqs = [seq + [g] for seq in seqs for g, _ in enabled(_after(conf, seq))]
            for seq in seqs:
                out.append((net, seq, None))
                out += [(net1, seq, lab) for lab, net1 in net_enabled(net)]
        for g, conf2 in enabled(conf):
            frontier += [(conf2, n) for n in fire_labels(net, [g])[:1]]
    return out


class _Forgetful(set):
    """A set that never reports a member: ``fire_labels`` without its visited set."""

    def __contains__(self, item):
        return False


class TestSuccessorMemo:
    """Each verdict enumerates a network's transitions once; oracles only filter them."""

    PROGRAMS = ([(p.stem, parse(p.read_text(), lax_select=True).chor)
                 for p in sorted(GOLDEN.glob("*.gcq"))]
                + [("chained_starts", chained_starts())]
                + [(f"sensor_family({n})", sensor_family(n)) for n in range(2, 5)])

    @staticmethod
    def _script(chor) -> ScriptOracle:
        """Withholds the first free thread at steps 0-4 and the last from step 5 on."""
        threads = sorted(free_names(chor).threads)
        return ScriptOracle((("unavailable", frozenset(threads[:1])),) * 5
                            + (("unavailable", frozenset(threads[-1:])),))

    @staticmethod
    def _congruent_copies(nets) -> list:
        """Each network, its components reversed, and its sessions renamed:
        congruent networks whose steps differ in order or in keys."""
        out = []
        for net in nets:
            renamed = net
            for key in sorted(net.restricted):
                renamed = correspond._rename_net_session(renamed, key, f"{key}_r")
            for copy in (net, epq.Network(net.components[::-1], net.queues, net.restricted),
                         renamed):
                if copy not in out:
                    out.append(copy)
        return out

    @pytest.mark.parametrize("name,chor", PROGRAMS, ids=[n for n, _ in PROGRAMS])
    def test_warm_table_answers_like_a_fresh_one(self, name, chor):
        nets = self._congruent_copies(_reachable(chor))
        script = self._script(chor)
        queries = ([(ALWAYS, 0)] + [(TolerantFailure(t), 0)
                                    for t in sorted(free_names(chor).threads)]
                   + [(script, 0), (script, 5)])
        fresh = epq.per_verdict(net_enabled)

        @epq.per_verdict
        def compare():
            for oracle, step in queries:
                for net in nets:
                    assert net_enabled(net, oracle, step) == fresh(net, oracle, step)
            assert len(epq.canon_table().steps) == len(nets)

        compare()

    def test_one_entry_serves_two_steps(self):
        chor = sensor_family(3)
        script = self._script(chor)
        nets = _reachable(chor)

        @epq.per_verdict
        def differing():
            table, count = epq.canon_table(), 0
            for net in nets:
                at0 = net_enabled(net, script, 0)
                entries = len(table.steps)
                at5 = net_enabled(net, script, 5)
                assert len(table.steps) == entries
                count += at0 != at5
            return count

        assert differing() > 0

    def test_availability_expands_each_network_once(self, monkeypatch):
        chor = sensor_family(5)
        reached = availability_check(chor).pairs_explored  # ALWAYS reaches every network
        expanded = []
        transitions = netsem._transitions
        monkeypatch.setattr(netsem, "_transitions",
                            lambda net, table: expanded.append(net) or transitions(net, table))
        oracles = [ALWAYS] + [TolerantFailure(t) for t in sorted(free_names(chor).threads)]
        verdict = availability_check(chor, oracles)
        assert verdict.passed and verdict.pairs_explored > 5 * reached
        assert len(expanded) <= reached

    def test_fire_labels_visited_set_keeps_the_networks(self, monkeypatch):
        """Windows on ``chained_starts``, whose two starts invent fresh
        session keys."""
        windows = _windows(chained_starts())

        @epq.per_verdict
        def fire() -> list:
            return [fire_labels(net, seq, already_fired=lab) for net, seq, lab in windows]

        with_set = fire()
        monkeypatch.setattr(correspond, "set", _Forgetful, raising=False)
        without = fire()
        assert any(nets for nets in with_set)
        assert with_set == without


class TestComponentMemo:
    """``net_canon`` reuses each component's canonical form within a verdict."""

    PROGRAMS = TestSuccessorMemo.PROGRAMS + [
        (f"corpus23_{i}", chor) for i, chor in enumerate(
            corpus(20, seed=23, config=GenConfig(max_threads=4, max_interactions=5)))]

    @pytest.mark.parametrize("name,chor", PROGRAMS, ids=[n for n, _ in PROGRAMS])
    def test_warm_memo_answers_like_a_fresh_one(self, name, chor):
        nets = TestSuccessorMemo._congruent_copies(_reachable(chor))
        memo: dict = {}
        for net in nets + nets[::-1]:
            assert epq.net_canon(net, memo) == epq.net_canon(net)


def reference_fire_labels(net, glabels, already_fired=None, shortcut=False) -> list:
    """``fire_labels`` without partial-order reduction: every interleaving of
    the window's synchronizations.  With ``shortcut`` it fires the first
    wanted synchronization alone instead, a reduction that loses networks."""
    want, init_keys = Counter(), {}
    for g in glabels:
        for lab in required_group(g):
            want[correspond._start_key_agnostic(lab)] += 1
            if isinstance(lab, Start):
                init_keys.setdefault(correspond._keyless_start(lab), []).append(lab.key)
    if already_fired is not None:
        key = correspond._start_key_agnostic(already_fired)
        if want[key] <= 0:
            return []
        want[key] -= 1
    found, expanded = {}, set()

    def dfs(current, remaining):
        remaining = +remaining
        if not remaining:
            found.setdefault(epq.canon_table().canon(current), current)
            return
        if (current, frozenset(remaining.items())) in expanded:
            return
        expanded.add((current, frozenset(remaining.items())))
        options = net_enabled(current)
        wanted = [step for step in options
                  if isinstance(step[0], (BcIn, SelIn, RdOut)) and remaining[step[0]] > 0]
        for lab, succ in wanted[:1] if shortcut and wanted else options:
            if isinstance(lab, Start):
                pending = init_keys.get(correspond._keyless_start(lab), [])
                if lab.key not in pending:
                    target_key = next((k for k in pending if remaining[
                        correspond._start_key_agnostic(lab.replace(key=k))] > 0), None)
                    if target_key is None:
                        continue
                    succ = correspond._rename_net_session(succ, lab.key, target_key)
                    lab = lab.replace(key=target_key)
            key = correspond._start_key_agnostic(lab)
            if remaining[key] > 0:
                dfs(succ, remaining - Counter([key]))

    dfs(net, want)
    return list(found.values())

# Both reduces list (k, M, S1) and (k, M, S2): which reduce a contribution
# lands in depends on the order of the synchronizations.
TWO_REDUCES = """
service temperature : branch M -> (S1,S2) { measure: reduce (S1,S2) -> M <int> . reduce (S1,S2) -> M <int> . end };
caps sensors = {Acc0, Acc1, Acc2, Ms0, Ms1, Ms2, E0, E1, E2};
choreography {
  start k (temperature) (t1[S1]{Acc1}, t2[S2]{Acc2}) -> (t0[M]{Acc0});
  select k [all] t0[M]{Acc0;Ms0} -> (t1[S1]{Acc1;Ms1}, t2[S2]{Acc2;Ms2}) : measure;
  reduce k [any] sum (t1[S1]{Ms1;Ms1}.5, t2[S2]{Ms2;Ms2}.5) -> t0[M]{Ms0;Ms0} : x;
  reduce k [all] sum (t1[S1]{Ms1;E1}.5, t2[S2]{Ms2;E2}.5) -> t0[M]{Ms0;E0} : y;
  end
}
"""


def _terminals(chor, oracle, reduce: bool, bound=64) -> dict:
    """{(canonical terminal network, quiescent): least depth} of a
    breadth-first search over ``net_enabled``, with or without the
    availability rule."""
    @epq.per_verdict
    def search():
        table = epq.canon_table()
        frontier = deque([(epp(chor), 0)])
        seen = {table.canon(frontier[0][0])}
        out = {}
        while frontier:
            net, depth = frontier.popleft()
            options = net_enabled(net, oracle)
            if not options:
                out.setdefault((table.canon(net), is_quiescent(net)), depth)
            if reduce:
                options = correspond._forced_sync(net, oracle) or options
            for _, succ in options:
                if depth < bound and table.canon(succ) not in seen:
                    seen.add(table.canon(succ))
                    frontier.append((succ, depth + 1))
        return out
    return search()


class TestPartialOrderReduction:
    """Both searches fire one forced synchronization instead of all its
    interleavings, and find what the unreduced searches find."""

    WINDOW_PROGRAMS = ([(p.stem, parse(p.read_text(), lax_select=True).chor)
                        for p in sorted(GOLDEN.glob("*.gcq")) if p.stem != "linearity_race"]
                       + [("chained_starts", chained_starts()),
                          ("sensors(q2=2/3)", sensors(q2=q_ratio(2, 3))),
                          ("two_reduces", parse(TWO_REDUCES).chor)])

    @pytest.mark.parametrize("name,chor", WINDOW_PROGRAMS, ids=[n for n, _ in WINDOW_PROGRAMS])
    def test_fire_labels_finds_what_the_reference_finds(self, name, chor):
        @epq.per_verdict
        def canonical(fire, net, seq, lab) -> set:
            return {epq.canon_table().canon(n) for n in fire(net, seq, already_fired=lab)}

        windows = _windows(chor)
        found = [canonical(fire_labels, *w) for w in windows]
        assert found == [canonical(reference_fire_labels, *w) for w in windows]
        assert any(found)

    @pytest.mark.parametrize("with_select", [False, True])
    @pytest.mark.parametrize("thread", ["t1", "t2"])
    def test_two_groups_on_one_triple_are_not_reduced(self, thread, with_select):
        """[reduce any by one sensor; reduce all], after the select or with
        it in front, reaches one network; firing the first wanted
        synchronization alone reaches none."""
        chor = parse(TWO_REDUCES).chor
        conf, net, window = Configuration.initial(chor), epp(chor), []
        for _ in range(2):  # the start and the select
            ((g, conf),) = enabled(conf)
            if with_select and isinstance(g, GSelectL):
                window.append(g)
            else:
                (net,) = fire_labels(net, [g])
        first, conf = next((g, c) for g, c in enabled(conf) if g.chosen == {thread})
        ((second, _),) = enabled(conf)
        window += [first, second]
        reference = epq.per_verdict(reference_fire_labels)
        assert len(reference(net, window)) == 1
        assert reference(net, window, shortcut=True) == []
        assert len(fire_labels(net, window)) == 1

    AVAILABILITY_PROGRAMS = (
        [(p.stem, parse(p.read_text(), lax_select=True).chor)
         for p in sorted(GOLDEN.glob("*.gcq")) if p.stem != "linearity_race"]
        + [(f"corpus23_{i}", chor) for i, chor in enumerate(
            corpus(20, seed=23, config=GenConfig(max_threads=4, max_interactions=5)))]
        + [(f"sensor_family({n})", sensor_family(n)) for n in range(2, 6)]
        + [("blocking_twin(4)", sensor_family(4, Q_ANY, Q_ANY, reduce_over=[1, 3, 4])),
           ("steps_apart", parse(STEPS_APART).chor), ("chained_starts", chained_starts())])

    @pytest.mark.parametrize("name,chor", AVAILABILITY_PROGRAMS,
                             ids=[n for n, _ in AVAILABILITY_PROGRAMS])
    def test_availability_rule_keeps_every_terminal_network(self, name, chor):
        """The same terminal networks, stuck or quiescent, at the same least
        depth, under ``ALWAYS``, each ``TolerantFailure``, a one-entry script
        and a crash from step 0: every oracle settled at step 0."""
        threads = sorted(free_names(chor).threads)
        oracles = ([ALWAYS] + [TolerantFailure(t) for t in threads]
                   + [ScriptOracle((("unavailable", frozenset(threads[:1])),))]
                   + [SingleFailure(t, 0) for t in threads[-1:]])
        for oracle in oracles:
            assert _terminals(chor, oracle, True) == _terminals(chor, oracle, False)
        assert _terminals(chor, ALWAYS, True)

    def test_oracles_that_see_the_step_are_not_reduced(self, monkeypatch):
        chor = sensor_family(3)
        oracles = [ALWAYS, ScriptOracle((("unavailable", frozenset({"t1"})),) * 4
                                        + (("unavailable", frozenset()),)),
                   BernoulliOracle(0.8, 1), SingleFailure("t2", 3)]
        reduced = [availability_check(chor, [oracle]).to_json() for oracle in oracles]
        monkeypatch.setattr(correspond, "_forced_sync", lambda net, oracle: [])
        unreduced = [availability_check(chor, [oracle]).to_json() for oracle in oracles]
        assert reduced[0]["pairs_explored"] < unreduced[0]["pairs_explored"]
        assert reduced[1:] == unreduced[1:]

    @pytest.mark.parametrize("n", range(4, 11))
    def test_availability_states_grow_linearly(self, n):
        verdict = availability_check(sensor_family(n))
        assert verdict.passed and verdict.pairs_explored == 2 * n + 6

    def test_cosimulation_of_ten_sensors(self):
        verdict = cosimulate(sensor_family(10))
        assert verdict.status == "Pass" and verdict.pairs_explored == 4
