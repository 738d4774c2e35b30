"""Preservation, progress and the structural lemmas on random corpora.

The acceptance suite reruns these at their full sample counts; here each
property gets a moderate corpus for fast day-to-day feedback.
"""

import random

import pytest

from chor_closure import swap_closure
from chorfixtures import sensors
from gcq.captypes import check_capabilities
from gcq.genchor import GenConfig, corpus
from gcq.linlog import Own, own
from gcq.projection import epp
from gcq.semantics import Configuration, enabled, enabled_under
from gcq.syntax import (
    Bcast,
    Choreography,
    If,
    Init,
    Lit,
    Reduce,
    Select,
    Seq,
    SomeV,
    Var,
    alpha_canonical,
    free_names,
    substitute,
    used_names,
)
from metahelpers import (
    adversarial_oracles,
    assert_preserved,
    context_of,
    initial_state,
    random_traces,
)

CORPUS = corpus(40, seed=101, config=GenConfig(max_threads=4, max_interactions=6))


class TestPreservation:
    @pytest.mark.parametrize("idx", range(0, 40, 4))
    def test_every_transition_preserves_typing(self, idx):
        c = CORPUS[idx]
        for _, _, nxt in random_traces(c, seeds=[11, 12], max_steps=24):
            assert_preserved(nxt)

    def test_all_branches_preserve(self):
        """Breadth-first over every enabled transition of a small program."""
        c = CORPUS[1]
        state = initial_state(c)
        frontier = [state]
        from metahelpers import advance
        for _ in range(6):
            nxt = []
            for st in frontier[:20]:
                for label, conf2 in enabled(st.conf):
                    st2 = advance(st, label, conf2)
                    assert_preserved(st2)
                    nxt.append(st2)
            frontier = nxt


class TestProgress:
    @pytest.mark.parametrize("idx", range(0, 40, 4))
    def test_not_stuck_under_admitting_oracles(self, idx):
        c = CORPUS[idx]
        rng = random.Random(idx)
        for state, _, nxt in random_traces(c, seeds=[5], max_steps=24):
            conf = nxt.conf
            if conf.is_end():
                continue
            options = enabled(conf)
            assert options, f"well-typed non-end configuration stuck: {conf.chor}"
            for oracle in adversarial_oracles(conf, rng, samples=2):
                assert enabled_under(conf, oracle, 0), \
                    f"stuck under subset-admitting oracle"


def fresh_own(c: Choreography, salt: str) -> Own:
    used = used_names(c)
    t = next(f"zz{salt}{i}" for i in range(999) if f"zz{salt}{i}" not in used)
    return own(t, f"kk{salt}", "R", {f"WW{salt}"})


class TestStructuralLemmas:
    @pytest.mark.parametrize("idx", range(0, 40, 5))
    def test_weakening(self, idx):
        c = CORPUS[idx]
        for state, _, nxt in random_traces(c, seeds=[3], max_steps=8):
            psi = context_of(nxt.conf.sigma, nxt.roles)
            core = nxt.conf.chor
            extended = psi + (fresh_own(core, "w"),)
            assert check_capabilities(extended, core).ok

    @pytest.mark.parametrize("idx", range(0, 40, 5))
    def test_strengthening(self, idx):
        c = CORPUS[idx]
        for state, _, nxt in random_traces(c, seeds=[4], max_steps=8):
            psi = context_of(nxt.conf.sigma, nxt.roles)
            core = nxt.conf.chor
            extra = fresh_own(core, "s")
            assert check_capabilities(psi + (extra,), core).ok
            assert check_capabilities(psi, core).ok  # removing the unused atom

    @pytest.mark.parametrize("idx", range(0, 40, 5))
    def test_substitution(self, idx):
        c = _with_free_var(CORPUS[idx])
        report = check_capabilities([], c)
        assert report.ok
        theta = {("w0", t): SomeV(5) for t in free_names(c).threads}
        assert check_capabilities([], substitute(c, theta)).ok

    @pytest.mark.parametrize("idx", range(0, 40, 5))
    def test_subject_congruence(self, idx):
        c = CORPUS[idx]
        assert check_capabilities([], alpha_canonical(c)).ok

    @pytest.mark.parametrize("idx", range(0, 40, 5))
    def test_subject_swap(self, idx):
        c = CORPUS[idx]
        base = check_capabilities([], c).ok
        for variant in swap_closure(c, bound=40):
            assert check_capabilities([], variant).ok == base

    @pytest.mark.parametrize("idx", range(0, 40, 5))
    def test_swap_invariance_of_projection(self, idx):
        c = CORPUS[idx]
        base = epp(c)
        for variant in swap_closure(c, bound=40):
            assert epp(variant) == base


class TestNoGeneralAsynchrony:
    """A label is emitted only when its interaction heads the term modulo swap:
    two actions sharing a thread never reorder."""

    STRAIGHT = corpus(12, seed=77, config=GenConfig(max_threads=4, max_interactions=6,
                                                    allow_if=False))

    @pytest.mark.parametrize("idx", range(12))
    def test_thread_sharing_actions_keep_program_order(self, idx):
        from gcq.syntax import interactions_of, interaction_threads, Interaction

        c = self.STRAIGHT[idx]
        program_order = interactions_of(c)

        for seed in (1, 9):
            state = initial_state(c)
            fired = []
            used: set[int] = set()
            rng = random.Random(seed)
            from gcq.semantics import enabled as genabled
            from metahelpers import advance
            while True:
                options = genabled(state.conf)
                if not options:
                    break
                label, conf2 = options[rng.randrange(len(options))]
                pos = next((i for i, eta in enumerate(program_order)
                            if i not in used and _matches(label, eta)), None)
                if pos is not None:
                    used.add(pos)
                    fired.append((pos, interaction_threads(program_order[pos])))
                state = advance(state, label, conf2)
            for a in range(len(fired)):
                for b in range(a + 1, len(fired)):
                    p1, t1 = fired[a]
                    p2, t2 = fired[b]
                    if t1 & t2:
                        assert p1 < p2, "thread-sharing interactions reordered"


def _matches(label, eta) -> bool:
    from gcq.syntax import (Bcast, GBcastL, GInitL, GReduceL, GSelectL, Init,
                            Reduce, Select)
    match label, eta:
        case GInitL(_, _, svc, _), Init(_, _, svc2, _):
            return svc == svc2
        case GBcastL(sender, _, _, key, _, _), Bcast(s2, _, _, _, key2):
            return sender[0] == s2.thread and key == key2
        case GReduceL(_, receiver, _, key, _, _, _, _), Reduce(_, r2, _, _, _, key2):
            return receiver[0] == r2.thread and key == key2
        case GSelectL(sender, _, _, key, _, lab), Select(s2, _, _, key2, lab2):
            return sender[0] == s2.thread and key == key2 and lab == lab2
    return False


def _with_free_var(c: Choreography) -> Choreography:
    """Replace the first literal payload with a free variable occurrence."""
    match c:
        case Seq(Bcast(sender, Lit(_), receivers, quality, key), cont):
            return Seq(Bcast(sender, Var("w0"), receivers, quality, key), cont)
        case Seq(Reduce(senders, receiver, bind_var, quality, op, key), cont):
            new_senders = tuple((p, Var("w0") if isinstance(e, Lit) else e)
                                for p, e in senders)
            return Seq(Reduce(new_senders, receiver, bind_var, quality, op, key), cont)
        case Seq(inter, cont):
            return Seq(inter, _with_free_var(cont))
        case If(guard, at, then, orelse):
            return If(guard, at, _with_free_var(then), orelse)
        case _:
            return c
