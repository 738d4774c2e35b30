"""Capability analysis: golden accept/reject matrix, agreement with the
enumerating specification, and state satisfaction."""

import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capability_reference as reference
from chorfixtures import (concat, interleaved_corpus, sensor_family, sensors, sensors_partial,
                          typed_example)
from gcq import syntax
from gcq.captypes import CapabilityChecker, Failure, Report, check_capabilities, init_ownerships
from gcq.genchor import corpus, session_chain
from gcq.gtypes import check_session_only, infer_gamma
from gcq.linlog import Lolli, Plus, Tensor, TRUE, own, prove
from gcq.parser import parse
from gcq.projection import check_linearity
from gcq.syntax import (
    Bcast,
    CapState,
    If,
    Init,
    Lit,
    Q_ALL,
    Q_ANY,
    Reduce,
    Select,
    Seq,
    athr,
    inter_parts,
    map_chor,
    q_ratio,
    seq,
    subterms,
)
from metahelpers import state_satisfies

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


class TestGoldenMatrix:
    def test_all_all_accepted(self):
        assert check_capabilities([], sensors(Q_ALL, Q_ALL)).ok

    def test_all_any_accepted(self):
        assert check_capabilities([], sensors(Q_ALL, Q_ANY)).ok

    def test_any_all_rejected(self):
        report = check_capabilities([], sensors(Q_ANY, Q_ALL))
        assert not report.ok
        assert any(f.code == "CapabilityUnderivable" for f in report.failures)

    def test_all_two_thirds_accepted(self):
        assert check_capabilities([], sensors(Q_ALL, q_ratio(2, 3))).ok

    def test_two_thirds_all_rejected(self):
        assert not check_capabilities([], sensors(q_ratio(2, 3), Q_ALL)).ok

    def test_blocking_any_rejected(self):
        report = check_capabilities([], sensors_partial(q1=Q_ANY))
        assert not report.ok

    def test_blocking_all_accepted(self):
        assert check_capabilities([], sensors_partial(q1=Q_ALL, q2=Q_ANY)).ok

    def test_typed_example_accepted(self):
        assert check_capabilities([], typed_example()).ok

    def test_failure_carries_witness_subset(self):
        report = check_capabilities([], sensors(Q_ANY, Q_ALL))
        bad = [f for f in report.failures if f.code == "CapabilityUnderivable"]
        assert bad and bad[0].subset is not None

    def test_report_json_schema(self):
        data = check_capabilities([], sensors(Q_ANY, Q_ALL)).to_json()
        assert set(data) == {"ok", "failures"}
        assert all({"code", "interaction", "reason"} <= set(f) for f in data["failures"])


class TestFreshness:
    def test_reused_key_rejected(self):
        c = sensors()
        psi = [own("z", "k", "Z", {"W"})]  # session key k already known
        report = check_capabilities(psi, c)
        assert any(f.code == "FreshnessViolation" for f in report.failures)

    def test_reused_service_thread_rejected(self):
        c = sensors()
        psi = [own("t0", "k9", "Z", {"W"})]  # t0 is a service thread of the start
        report = check_capabilities(psi, c)
        assert any(f.code == "FreshnessViolation" for f in report.failures)

    def test_lolli_context_refused(self):
        with pytest.raises(ValueError):
            check_capabilities([Lolli(TRUE, TRUE)], sensors())


class TestStateSatisfaction:
    def test_single_ownership(self):
        sigma = CapState.of({("t", "k"): {"X"}})
        assert state_satisfies(sigma, [own("t", "k", "A", {"X"})])

    def test_true_always(self):
        assert state_satisfies(CapState(), [TRUE])

    def test_tensor_needs_disjoint_split(self):
        sigma = CapState.of({("t", "k"): {"X"}})
        f = own("t", "k", "A", {"X"})
        assert not state_satisfies(sigma, [Tensor(f, f)])
        sigma2 = CapState([("t", "k", "X"), ("s", "k", "Y")])
        assert state_satisfies(sigma2, [Tensor(f, own("s", "k", "B", {"Y"}))])

    def test_list_is_conjunction_without_split(self):
        sigma = CapState.of({("t", "k"): {"X"}})
        f = own("t", "k", "A", {"X"})
        assert state_satisfies(sigma, [f, f])  # same store satisfies each

    def test_multi_atom_ownership(self):
        f = own("t", "k", "A", {"X", "Y"})
        assert state_satisfies(CapState([("t", "k", "X"), ("t", "k", "Y")]), [f])
        assert not state_satisfies(CapState([("t", "k", "X")]), [f])

    def test_multi_atom_tensor_split_keeps_set_together(self):
        f = own("t", "k", "A", {"X", "Y"})
        g = own("s", "k", "B", {"Z"})
        sigma = CapState([("t", "k", "X"), ("t", "k", "Y"), ("s", "k", "Z")])
        assert state_satisfies(sigma, [Tensor(f, g)])
        # both of f's atoms must land on f's side of the split
        assert not state_satisfies(CapState([("t", "k", "X"), ("s", "k", "Z")]),
                                   [Tensor(f, g)])

    def test_init_ownerships_match_fired_state(self):
        from gcq.semantics import Configuration, step
        c = sensors()
        _, conf = step(Configuration.initial(c))
        init = c.inter
        assert state_satisfies(conf.sigma, init_ownerships(init))


M = own("t0", "k", "M", {"Acc0"})
S1 = own("t1", "k", "S1", {"Acc1"})
S2 = own("t2", "k", "S2", {"Acc2"})
OTHER = own("t9", "k", "Z", {"W"})


class TestDerive:
    """The specification's ``_derive`` on contexts of ownership atoms and
    ``true``: the goal's exact atoms, one per participant, first match first."""

    PRINCIPAL = athr("t0", "M", {"Acc0"}, {"Ms0"})
    BY_THREAD = {"t1": athr("t1", "S1", {"Acc1"}, {"Ms1"}),
                 "t2": athr("t2", "S2", {"Acc2"}, {"Ms2"})}

    @pytest.mark.parametrize("psi,chosen,leftover", [
        ((OTHER, S1, TRUE, M, S2, S1), ["t1"], (OTHER, TRUE, S2, S1)),
        ((OTHER, S1, TRUE, M, S2, S1), ["t1", "t2"], (OTHER, TRUE, S1)),
        ((S2, OTHER, S1, TRUE), ["t1"], None),
        ((M, M, S2, OTHER, TRUE), ["t2"], (M, OTHER, TRUE)),
    ])
    def test_leftover(self, psi, chosen, leftover):
        parts = [self.BY_THREAD[t] for t in chosen]
        assert reference.CapabilityChecker()._derive(psi, self.PRINCIPAL, parts, "k") == leftover

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([M, S1, S2, OTHER, TRUE]), max_size=5),
           st.sampled_from([["t1"], ["t2"], ["t1", "t2"]]))
    def test_agrees_with_the_prover(self, psi, chosen):
        """Derivable exactly when the prover derives the goal from some
        selection of one context formula per participant."""
        parts = [self.BY_THREAD[t] for t in chosen]
        goal = reference.capability_goal(self.PRINCIPAL, parts, "k")
        provable = any(prove([psi[i] for i in combo], goal).provable
                       for combo in itertools.combinations(range(len(psi)), len(parts) + 1))
        derived = reference.CapabilityChecker()._derive(tuple(psi), self.PRINCIPAL, parts, "k")
        assert (derived is not None) == provable

    @pytest.mark.parametrize("formula", [Plus(M, M), Plus(M, OTHER), Tensor(M, S2)])
    def test_compound_context_refused(self, formula):
        with pytest.raises(ValueError, match="ownership atoms and true only"):
            check_capabilities([OTHER, formula], sensors())


def _goal_text(ids):
    """The printed reduce goal: the monitor's and sensors' ``Ms`` atoms, right-nested."""
    atoms = [f"t{i}:k[{'S' + str(i) if i else 'M'}]{{Ms{i}}}" for i in ids]
    goal = atoms[-1]
    for atom in reversed(atoms[:-1]):
        goal = f"({atom} * {goal})"
    return goal


def _reduce_failures(quality, over, subsets):
    senders = ",".join(f"t{i}" for i in over)
    return [Failure("CapabilityUnderivable", f"reduce k[{quality}] avg({senders})->t0",
                    f"cannot derive {_goal_text([0, *subset])} from the context",
                    tuple(f"t{i}" for i in subset))
            for subset in subsets]


class TestProofSearchCost:
    """Rejected twins: the failures the exhaustive search reported, without its cost."""

    @pytest.mark.parametrize("chor,failures", [
        (sensor_family(8, Q_ANY, Q_ALL),
         _reduce_failures("all", range(1, 9), [range(1, 9)])),
        (sensor_family(8, Q_ANY, Q_ANY, reduce_over=[1, 3, 4, 5, 6, 7, 8]),
         _reduce_failures("any", [1, 3, 4, 5, 6, 7, 8], [[i] for i in (3, 1, 4, 5, 6, 7, 8)])),
        (sensor_family(17),
         [Failure("TooManyParticipants", "select k[all] t0->({}):measure".format(
             ",".join(f"t{i}" for i in range(1, 18))), "17 participants exceed the bound 16")]),
    ], ids=["any_all", "blocking", "n17"])
    def test_n8_twin(self, monkeypatch, chor, failures):
        """At most one communication check per subset of the 8 candidates."""
        calls = 0
        check_comm = CapabilityChecker._check_comm

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return check_comm(self, *args)

        monkeypatch.setattr(CapabilityChecker, "_check_comm", counted)
        report = check_capabilities([], chor)
        assert not report.ok
        assert report.failures == failures
        assert calls <= 2 ** 8


class TestSessionChain:
    """A finished session's capabilities do not multiply the work after it."""

    def test_calls_linear_in_sessions(self, monkeypatch):
        calls = 0
        check_raw = CapabilityChecker._check_raw

        def counted(self, psi, c):
            nonlocal calls
            calls += 1
            # each 2/3 reduce leaves one context per tolerated subset: 2^25 - 1
            # calls if every one of them is checked against the rest of the chain
            assert calls <= 3 * 12 + 1, "more than one check per interaction"
            return check_raw(self, psi, c)

        monkeypatch.setattr(CapabilityChecker, "_check_raw", counted)
        report = check_capabilities([], session_chain(12, q_ratio(2, 3)))
        assert report.ok and report.failures == []

    def test_free_names_computed_once_per_node(self, monkeypatch):
        # each communication asks for the free names of its continuation;
        # walking the rest of the chain each time makes 3m^2 calls
        calls = 0
        free = syntax._free

        def counted(c):
            nonlocal calls
            calls += 1
            return free(c)

        monkeypatch.setattr(syntax, "_free", counted)
        chor = session_chain(100, Q_ALL)
        assert check_capabilities([], chor).ok
        assert 0 < calls <= len(list(subterms(chor)))

    @pytest.mark.parametrize("q", [Q_ALL, Q_ANY, q_ratio(2, 3)], ids=str)
    def test_chain_is_well_typed_and_linear(self, q):
        chor = session_chain(3, q)
        assert check_capabilities([], chor).ok
        assert check_session_only(infer_gamma(chor), chor, {}).ok
        assert check_linearity(chor).ok

    def test_failure_after_a_finished_session_still_reported(self):
        # the second session's reduce needs every sensor's Ms atom, which a
        # weak selection does not guarantee
        first = session_chain(1, q_ratio(2, 3))
        second = sensor_family(3, Q_ANY, Q_ALL)
        report = check_capabilities([], concat(first, second))
        assert not report.ok
        assert {f.code for f in report.failures} == {"CapabilityUnderivable"}
        assert report.failures == check_capabilities([], second).failures


def _mutant(c, rng: random.Random):
    """``c`` with, at random, each interaction's quality replaced and each
    annotated thread's ``req`` and ``off`` sets swapped or changed by one
    atom of the program; a start's threads keep an empty ``req``."""
    pool = sorted({a for n in subterms(c) if isinstance(n, Seq)
                   for p in inter_parts(n.inter).athrs for a in p.req | p.off}) or ["X"]

    def thread(p, start=False):
        r = rng.random()
        if r < 0.1:
            p = p.replace(req=p.off, off=p.req)
        elif r < 0.25:
            p = p.replace(req=p.req ^ {rng.choice(pool)})
        elif r < 0.4:
            p = p.replace(off=p.off ^ {rng.choice(pool)})
        return p.replace(req=frozenset()) if start else p

    def quality(q, n):
        if rng.random() < 0.5:
            return q
        return rng.choice([Q_ALL, Q_ANY, q_ratio(max(n - 1, 1), max(n, 1)), q_ratio(1, n + 1)])

    def inter(eta):
        match eta:
            case Init(actives, services, svc, key):
                return Init(tuple(thread(p, True) for p in actives),
                            tuple(thread(p, True) for p in services), svc, key)
            case Bcast(sender, expr, receivers, q, key):
                return Bcast(thread(sender), expr, tuple((thread(p), x) for p, x in receivers),
                             quality(q, len(receivers)), key)
            case Reduce(senders, receiver, var, q, op, key):
                return Reduce(tuple((thread(p), e) for p, e in senders), thread(receiver), var,
                              quality(q, len(senders)), op, key)
            case Select(sender, receivers, q, key, label):
                return Select(thread(sender), tuple(map(thread, receivers)),
                              quality(q, len(receivers)), key, label)

    def walk(node):
        fields = {"inter": inter(node.inter)} if isinstance(node, Seq) else {}
        return map_chor(node, walk, **fields)

    return walk(c)


def _repeated_branches():
    """Conditionals whose else-branch repeats the then-branch's rejected
    protocol, so that it reaches each continuation with all of that
    continuation's failures reported.  In the second, the else-branch has
    started a session on the service thread that a later start takes, and
    its selection needs an atom that sensor t3 lacks."""
    family = sensor_family(3, Q_ANY, Q_ANY)
    start, select, reduce = family.inter, family.cont.inter, family.cont.cont.inter
    reduce_all = sensor_family(3, Q_ANY, Q_ALL).cont.cont.inter
    weak = select.replace(receivers=(*select.receivers[:2],
                                      select.receivers[2].replace(req=frozenset({"Foo"}))))
    later = Init((athr("t5", "S1", off={"Acc1"}),), (athr("t9", "M", off={"Acc0"}),),
                 "temperature", "k2")
    earlier = later.replace(actives=(athr("t8", "S1", off={"Acc1"}),), key="k3")
    return [Seq(start, If(Lit(True), "t0", seq(select, reduce_all), seq(select, reduce_all))),
            Seq(start, If(Lit(True), "t0", seq(select, reduce, later),
                          seq(earlier, weak, reduce, later)))]


def _programs():
    """The golden programs, two generated corpora, the n-sensor family, the
    session chains, and 1,200 seeded mutants of them."""
    programs = [parse(f.read_text(encoding="utf-8"), lax_select=True).chor
                for f in sorted(GOLDEN.glob("*.gcq"))]
    programs += corpus(300, seed=23) + interleaved_corpus(60, seed=4)
    for n in range(2, 7):
        qualities, over = [Q_ALL, Q_ANY, q_ratio(n - 1, n)], [i for i in range(1, n + 1) if i != 2]
        for q1, q2 in itertools.product(qualities, qualities):
            programs += [sensor_family(n, q1, q2), sensor_family(n, q1, q2, reduce_over=over)]
    for q in (Q_ALL, Q_ANY, q_ratio(2, 3)):
        programs += [session_chain(m, q) for m in range(1, 4)]
        programs.append(concat(session_chain(2, q), sensor_family(3, Q_ANY, Q_ANY)))
    programs += _repeated_branches()
    rng = random.Random(19)
    return programs + [_mutant(rng.choice(programs), rng) for _ in range(1200)]


class TestAgainstReference:
    """The one-pass checker gives the enumerating specification's report,
    byte for byte, and records only the specification's verdicts."""

    def test_reports_identical(self):
        rejected = 0
        for i, c in enumerate(_programs()):
            spec, fast = reference.CapabilityChecker(), CapabilityChecker()
            expected = Report(spec.check((TRUE,), c), spec.failures).to_json()
            assert Report(fast.check((TRUE,), c), fast.failures).to_json() == expected, (i, c)
            assert fast._memo.items() <= spec._memo.items(), (i, c)
            rejected += not expected["ok"]
        assert rejected >= 300


class TestCheckCount:
    """Counted, not timed: how often a term is checked under a context."""

    def _calls(self, monkeypatch, chor) -> int:
        calls = 0
        check_raw = CapabilityChecker._check_raw

        def counted(self, psi, c):
            nonlocal calls
            calls += 1
            return check_raw(self, psi, c)

        monkeypatch.setattr(CapabilityChecker, "_check_raw", counted)
        assert not check_capabilities([], chor).ok
        return calls

    def test_any_all_stops_at_the_first_failure(self, monkeypatch):
        assert self._calls(monkeypatch, sensor_family(16, Q_ANY, Q_ALL)) <= 10

    def test_any_any_one_check_per_context(self, monkeypatch):
        n = 10
        assert self._calls(monkeypatch, sensor_family(n, Q_ANY, Q_ANY)) <= 2 ** n + 4 * n
