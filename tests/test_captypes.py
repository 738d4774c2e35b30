"""Capability analysis: golden accept/reject matrix and state satisfaction."""

import pytest

from chorfixtures import sensor_family, sensors, sensors_partial, typed_example
from gcq.captypes import (
    CapabilityChecker,
    Failure,
    check_capabilities,
    init_ownerships,
    state_satisfies,
)
from gcq.linlog import Lolli, Own, Plus, Prover, Tensor, TRUE, own
from gcq.syntax import CapState, Q_ALL, Q_ANY, athr, q_ratio


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
    """The general path of ``_derive``: context formulas that are not plain atoms.

    The leftovers are those the exhaustive search over every selection of
    context formulas returned.
    """

    @pytest.mark.parametrize("psi,chosen,leftover", [
        ((OTHER, S1, TRUE, Plus(M, M), S2, S1), ["t1"], (OTHER, TRUE, S2, S1)),
        ((OTHER, S1, TRUE, Plus(M, M), S2, S1), ["t1", "t2"], (OTHER, TRUE, S1)),
        ((Plus(M, OTHER), S1, Tensor(M, S2), OTHER, TRUE, S1), ["t1"], None),
        ((Plus(M, OTHER), S1, Tensor(M, S2), OTHER, TRUE, S1), ["t1", "t2"],
         (Plus(M, OTHER), OTHER, S1)),
        ((S2, Plus(S1, S1), OTHER, Plus(M, M), TRUE), ["t1"], (S2, OTHER, TRUE)),
        ((S2, Plus(S1, S1), OTHER, Plus(M, M), TRUE), ["t1", "t2"], (OTHER, TRUE)),
    ])
    def test_leftover(self, psi, chosen, leftover):
        principal = athr("t0", "M", {"Acc0"}, {"Ms0"})
        by_thread = {"t1": athr("t1", "S1", {"Acc1"}, {"Ms1"}),
                     "t2": athr("t2", "S2", {"Acc2"}, {"Ms2"})}
        got = CapabilityChecker()._derive(psi, principal, [by_thread[t] for t in chosen], "k")
        assert got == leftover


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
    """Rejected n = 8 twins: the failures the exhaustive search reported, without its cost."""

    @pytest.mark.parametrize("chor,failures", [
        (sensor_family(8, Q_ANY, Q_ALL),
         _reduce_failures("all", range(1, 9), [range(1, 9)])),
        (sensor_family(8, Q_ANY, Q_ANY, reduce_over=[1, 3, 4, 5, 6, 7, 8]),
         _reduce_failures("any", [1, 3, 4, 5, 6, 7, 8], [[i] for i in (3, 1, 4, 5, 6, 7, 8)])),
    ], ids=["any_all", "blocking"])
    def test_n8_twin(self, monkeypatch, chor, failures):
        entries = 0
        search = Prover._search

        def counted(self, *args):
            nonlocal entries
            entries += 1
            return search(self, *args)

        monkeypatch.setattr(Prover, "_search", counted)
        report = check_capabilities([], chor)
        assert not report.ok
        assert report.failures == failures
        assert entries <= 1000
