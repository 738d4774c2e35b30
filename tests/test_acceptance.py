"""Acceptance suite: one test per exit criterion, at its stated scale.

Each test prints a single PASS line on success; failures carry the
offending case.  Budgets follow the stated tolerances.
"""

import itertools
import random
import time
from collections import deque
from pathlib import Path

import pytest

from chor_closure import swap_closure
from chorfixtures import sensors, sensors_partial, linearity_race, typed_example
from gcq.captypes import check_capabilities
from gcq.correspond import availability_check, cosimulate, drop_receiver, swap_select_label
from gcq.epq import INACT, Component, IfP, Network
from gcq.genchor import GenConfig, corpus
from gcq.gtypes import GammaEnv, ServiceBinding, check_session_only, infer_gamma
from gcq.linlog import own, prove
from gcq.projection import check_linearity, epp
from gcq.schedule import ScriptOracle, TolerantFailure
from gcq.semantics import ALWAYS, Configuration, enabled, enabled_under, step
from gcq.syntax import END, CapState, GSelectL, Lit, Q_ALL, Q_ANY, SomeV, free_names, q_ratio
from metahelpers import advance, adversarial_oracles, assert_preserved, check_session, initial_state
from oracle_mall import brute_provable, formula_size, replay

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture(scope="module")
def typed_corpus():
    return corpus(200, seed=7, config=GenConfig(max_threads=4, max_interactions=6))


@pytest.fixture(scope="module")
def linear_corpus():
    return corpus(50, seed=23, config=GenConfig(max_threads=4, max_interactions=5))


def _full_check(chor, gamma=None):
    gamma = gamma if gamma is not None else infer_gamma(chor)
    caps = check_capabilities([], chor)
    sess = check_session_only(gamma, chor, {})
    lin = check_linearity(chor)
    return caps.ok and sess.ok and lin.ok


def test_criterion_1_golden_examples():
    """Accept/reject matrix of the worked examples, each decided in under 1 s."""
    cases = [
        ("sensors all/all accepted", sensors(Q_ALL, Q_ALL), True),
        ("sensors all/any accepted", sensors(Q_ALL, Q_ANY), True),
        ("sensors any/all rejected", sensors(Q_ANY, Q_ALL), False),
        ("sensors_partial q1=any rejected", sensors_partial(q1=Q_ANY, q2=Q_ANY), False),
        ("typed example accepted", typed_example(), True),
        ("double start rejected by linearity", linearity_race(), False),
    ]
    for name, chor, expected in cases:
        t0 = time.time()
        got = _full_check(chor, GammaEnv(infer_gamma(chor).services)
                          if name != "double start rejected by linearity"
                          else GammaEnv({"a": ServiceBinding(
                              __import__("gcq.gtypes", fromlist=["END_T"]).END_T)}))
        elapsed = time.time() - t0
        assert got == expected, f"{name}: expected {expected}, got {got}"
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
    # the double-start rejection is specifically the linearity analysis
    assert check_capabilities([], linearity_race()).ok
    assert not check_linearity(linearity_race()).ok
    print("ACCEPTANCE 1 (golden examples): PASS")


def test_criterion_2_capability_evolution():
    """A 2/3 selection with J = {t2,t3} advances the store exactly."""
    conf = Configuration.initial(sensors(q1=q_ratio(2, 3)))
    _, after_init = step(conf)
    chosen = frozenset({"t2", "t3"})
    successors = [succ for lab, succ in enabled(after_init)
                  if isinstance(lab, GSelectL) and lab.chosen == chosen]
    assert len(successors) == 1
    expected = CapState.of({("t0", "k"): {"Ms0"}, ("t1", "k"): {"Acc1"},
                            ("t2", "k"): {"Ms2"}, ("t3", "k"): {"Ms3"}})
    assert successors[0].sigma == expected
    print("ACCEPTANCE 2 (capability evolution): PASS")


def test_criterion_3_prover_oracle_equivalence():
    """Exact agreement with exhaustive search over several thousand sequents."""
    t0 = time.time()
    x = own("t", "k", "A", {"X"})
    y = own("t", "k", "A", {"Y"})
    z = own("s", "k", "B", {"Z"})
    from test_linlog import formula_pool
    shallow = formula_pool([x, y], 1)
    checked = 0
    for goal in shallow:
        for n in range(3):
            for ctx in itertools.combinations_with_replacement(shallow, n):
                assert prove(ctx, goal).provable == brute_provable(ctx, goal), (ctx, goal)
                checked += 1
    deep = [f for f in formula_pool([x, y, z], 3) if formula_size(f) <= 7]
    rng = random.Random(3)
    for _ in range(2000):
        goal = rng.choice(deep)
        ctx = tuple(rng.choice(deep) for _ in range(rng.randrange(0, 3)))
        res = prove(ctx, goal)
        assert res.provable == brute_provable(ctx, goal), (ctx, goal)
        if res.provable:
            assert replay(res.certificate)
        checked += 1
    elapsed = time.time() - t0
    assert checked > 3000
    assert elapsed < 30, f"prover agreement took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3 (prover oracle equivalence, {checked} sequents, "
          f"{elapsed:.1f}s): PASS")


def _explore(chor, cap_states=200):
    """Bounded breadth-first exploration yielding every visited transition."""
    state = initial_state(chor)
    seen = {state.conf.canon_key()}
    frontier = deque([state])
    while frontier and len(seen) <= cap_states:
        st = frontier.popleft()
        for label, conf2 in enabled(st.conf):
            nxt = advance(st, label, conf2)
            yield st, label, nxt
            key = nxt.conf.canon_key()
            if key not in seen:
                seen.add(key)
                frontier.append(nxt)


def test_criterion_4_type_preservation(typed_corpus):
    """Both typings survive every explored transition of 200 random programs."""
    t0 = time.time()
    transitions = 0
    for chor in typed_corpus:
        assert check_capabilities([], chor).ok
        assert check_session(infer_gamma(chor), [], chor).ok
        for _, label, nxt in _explore(chor):
            assert_preserved(nxt)  # includes the session step Delta -(k:alpha)-> Delta'
            transitions += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"preservation suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 4 (type preservation, {transitions} transitions over "
          f"200 programs, {elapsed:.1f}s): PASS")


def test_criterion_5_progress(typed_corpus):
    """No well-typed non-end configuration is stuck under admitting oracles."""
    t0 = time.time()
    rng = random.Random(5)
    states = 0
    for chor in typed_corpus:
        for _, _, nxt in _explore(chor, cap_states=60):
            conf = nxt.conf
            if conf.is_end():
                continue
            options = enabled(conf)
            assert options, f"stuck well-typed configuration: {conf.chor}"
            for oracle in adversarial_oracles(conf, rng, samples=2):
                assert enabled_under(conf, oracle, 0), \
                    "stuck under a subset-admitting availability oracle"
            states += 1
    elapsed = time.time() - t0
    print(f"ACCEPTANCE 5 (progress, {states} configurations, {elapsed:.1f}s): PASS")


def test_criterion_6_epp_correctness(linear_corpus):
    """Co-simulation passes on golden and random programs; mutations fail."""
    t0 = time.time()
    from chorfixtures import chained_starts
    golden = [("sensors_all", sensors()), ("sensors all/any", sensors(q2=Q_ANY)),
              ("sensors_23", sensors(q2=q_ratio(2, 3))), ("sensors_typed", typed_example()),
              ("chained_starts", chained_starts())]
    for name, chor in golden:
        verdict = cosimulate(chor)
        assert verdict.passed, f"{name}: {verdict.status} {verdict.detail}"
    for i, chor in enumerate(linear_corpus):
        assert check_linearity(chor).ok
        verdict = cosimulate(chor)
        assert verdict.passed, f"random #{i}: {verdict.status} {verdict.detail}"
    dropped = cosimulate(sensors(), net=drop_receiver(epp(sensors()), "t2"))
    assert dropped.status == "CounterexampleFound"
    swapped = cosimulate(sensors(), net=swap_select_label(epp(sensors()), "calibrate"))
    assert swapped.status == "CounterexampleFound"
    # a thread the program lacks takes an internal step: no global step absorbs it
    stray = cosimulate(END, net=Network((Component(IfP(Lit(True), INACT, INACT), owner="tx"),)))
    assert (stray.status, stray.detail) == ("CounterexampleFound", "completeness: endpoint "
                                            "step ETau() at depth 0 completes no global step sequence")
    elapsed = time.time() - t0
    assert elapsed < 300, f"co-simulation suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 6 (projection correctness, 5 golden + 50 random + 3 "
          f"mutations, {elapsed:.1f}s): PASS")


def test_criterion_7_availability_by_design(linear_corpus):
    """Single-failure oracles never strand well-typed programs; sensors_partial gets stuck."""
    t0 = time.time()
    # scripted single failure on the tolerant golden program: all threads
    # available through the selection, then sensor t3 goes down forever
    script = ScriptOracle((("unavailable", frozenset()),) * 6
                          + (("unavailable", frozenset({"t3"})),))
    verdict = availability_check(sensors(q2=q_ratio(2, 3)), [script])
    assert verdict.passed, verdict.detail
    for name, chor in [("sensors_all", sensors()), ("sensors_typed", typed_example())]:
        threads = sorted(free_names(chor).threads)
        verdict = availability_check(chor, [ALWAYS] + [TolerantFailure(t) for t in threads])
        assert verdict.passed, f"{name}: {verdict.detail}"
    for i, chor in enumerate(linear_corpus):
        threads = sorted(free_names(chor).threads)
        verdict = availability_check(chor, [ALWAYS] + [TolerantFailure(t) for t in threads])
        assert verdict.passed, f"random #{i}: {verdict.detail}"
    stuck = availability_check(sensors_partial(q1=Q_ANY, q2=Q_ANY))
    assert stuck.status == "StuckNetworkFound"
    elapsed = time.time() - t0
    print(f"ACCEPTANCE 7 (availability by design, {elapsed:.1f}s): PASS")


def test_criterion_8_metatheory_lemmas(typed_corpus):
    """Structural lemmas on 500+ instances; swap invariance of projection."""
    from chorfixtures import interleaved_corpus
    from gcq.syntax import substitute, alpha_canonical
    from metahelpers import context_of, random_traces
    from test_metatheory import _with_free_var, fresh_own

    t0 = time.time()
    weakening = strengthening = substitution = congruence = swaps = 0
    for chor in typed_corpus:
        for _, _, nxt in random_traces(chor, seeds=[8], max_steps=6):
            psi = context_of(nxt.conf.sigma, nxt.roles)
            core = nxt.conf.chor
            extra = fresh_own(core, "a")
            assert check_capabilities(psi + (extra,), core).ok
            weakening += 1
            assert check_capabilities(psi, core).ok
            strengthening += 1
            assert check_capabilities(psi, alpha_canonical(core)).ok
            congruence += 1
        free = _with_free_var(chor)
        if free != chor:
            assert check_capabilities([], free).ok
            for v in (0, 7, -4, 12):
                theta = {("w0", t): SomeV(v) for t in free_names(free).threads}
                assert check_capabilities([], substitute(free, theta)).ok
                substitution += 1
    for chor in interleaved_corpus(64, seed=81):
        base_ok = check_capabilities([], chor).ok
        assert base_ok
        base_net = epp(chor)
        for variant in swap_closure(chor, bound=40):
            assert check_capabilities([], variant).ok == base_ok
            assert epp(variant) == base_net
            swaps += 1
    assert weakening >= 500 and strengthening >= 500 and congruence >= 500
    assert substitution >= 500 and swaps >= 500
    elapsed = time.time() - t0
    print(f"ACCEPTANCE 8 (metatheory: weakening={weakening}, "
          f"strengthening={strengthening}, substitution={substitution}, "
          f"congruence={congruence}, swap={swaps}, {elapsed:.1f}s): PASS")
