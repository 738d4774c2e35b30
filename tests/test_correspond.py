"""Label correspondence, co-simulation and availability on the golden set."""

from pathlib import Path

import pytest

from chorfixtures import chained_starts, sensor_family, sensors, sensors_partial, typed_example
from gcq import correspond, epq, netsem
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
from gcq.netsem import BcIn, BcOut, ETau, EUp, SelIn, SelOut, Start, net_enabled
from gcq.parser import parse
from gcq.projection import epp
from gcq.schedule import ScriptOracle, SingleFailure, TolerantFailure
from gcq.semantics import ALWAYS, Configuration, enabled, run
from gcq.syntax import (
    GBcastL,
    GInitL,
    GTau,
    Lit,
    Q_ALL,
    Q_ANY,
    SomeV,
    free_names,
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
        gtrace = run(Configuration.initial(c), policy="first")
        ntrace = net_run(epp(c), policy="first")
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

    def test_swapped_label_counterexample(self):
        verdict = cosimulate(sensors(), net=swap_select_label(epp(sensors()), "calibrate"))
        assert verdict.status == "CounterexampleFound"

    def test_pass_is_exhaustive_not_sampled(self):
        v1 = cosimulate(sensors(q2=Q_ANY), bound=32)
        v2 = cosimulate(sensors(q2=Q_ANY), bound=32)
        assert v1.passed and v2.passed and v1.pairs_explored == v2.pairs_explored


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
            gtrace = run(Configuration.initial(chor), policy="first")
            assert gtrace.verdict == "Completed"
            ntrace = net_run(epp(chor), policy="first")
            assert ntrace.verdict == "Completed"
            assert cosimulate(chor, bound=16).passed
        gb = run(Configuration.initial(as_bcast), policy="first").labels
        gr = run(Configuration.initial(as_reduce), policy="first").labels
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
        trace = net_run(epp(sensors(q2=q_ratio(2, 3))), oracle=TolerantFailure("t3"),
                        policy="first")
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
        assert availability_check(chor, [free]).pairs_explored == 14


STEPS_APART = """
service a : bcast A2 -> (Z,A1) <int> . reduce (A1) -> A2 <int> . end;
choreography {
  start k (a) (p[A1]{C1}, q[A2]{C2}) -> (z[Z]{C3});
  bcast k [any] q[A2]{C2;C4}.6 -> (z[Z]{C3;C3}: x, p[A1]{C1;C1}: x);
  reduce k [all] sum (p[A1]{C1;C5}.1) -> q[A2]{C4;C6} : y;
  end
}
"""


class TestStateIdentity:
    """Searches key states on canonical networks, canonicalized once per verdict."""

    def test_successor_order(self):
        """Inside a verdict, ``net_enabled`` orders successors by the
        ``stable_repr`` of (label, canonical successor), one entry per pair.
        Label texts decide that order unless two tie, as the ``EUp()`` of two
        threads that may each enqueue do; the full text is the oracle."""
        programs = [parse(p.read_text(), lax_select=True).chor
                    for p in sorted(GOLDEN.glob("*.gcq"))]
        programs += corpus(100, seed=23, config=GenConfig(max_threads=4, max_interactions=5))
        programs += [sensor_family(n, q2=q_ratio(n - 1, n)) for n in range(2, 5)]
        programs += [chained_starts()]

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
        """Windows of one to three global steps on ``chained_starts``, whose
        two starts invent fresh session keys, from every state pair along its
        co-simulation, with and without an endpoint step already fired."""
        chor = chained_starts()

        @epq.per_verdict
        def windows() -> list:
            out = []
            frontier = [(Configuration.initial(chor), epp(chor))]
            for conf, net in frontier:
                seqs = [[]]
                for _ in range(3):
                    seqs = [seq + [g] for seq in seqs for g, _ in enabled(_after(conf, seq))]
                    for seq in seqs:
                        out.append(fire_labels(net, seq))
                        out += [fire_labels(net1, seq, already_fired=lab)
                                for lab, net1 in net_enabled(net)]
                for g, conf2 in enabled(conf):
                    frontier += [(conf2, n) for n in fire_labels(net, [g])[:1]]
            return out

        with_set = windows()
        monkeypatch.setattr(correspond, "set", _Forgetful, raising=False)
        without = windows()
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
