"""Core term and state operations: quality predicates, exchange, substitution."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcq.syntax import (
    NONE,
    ArityMismatch,
    Binop,
    CapState,
    If,
    Lit,
    NoneE,
    Q_ALL,
    Q_ANY,
    Quality,
    SomeE,
    SomeV,
    Var,
    alpha_equal,
    apply_op,
    athr,
    eval_expr,
    eval_quality,
    exchange,
    free_names,
    q_ratio,
    quality_subsets,
    seq,
    state_update,
    substitute,
    Bcast,
    Init,
    Reduce,
    Select,
    END,
    Seq,
    free_names,
)


def sensors(q1=Q_ALL, q2=Q_ALL):
    """The temperature-measurement choreography: start, collective select, reduce."""
    init = Init(
        actives=(athr("t1", "S1", off={"Acc1"}), athr("t2", "S2", off={"Acc2"}),
                 athr("t3", "S3", off={"Acc3"})),
        services=(athr("t0", "M", off={"Acc0"}),),
        svc="temperature", key="k")
    sel = Select(
        sender=athr("t0", "M", {"Acc0"}, {"Ms0"}),
        receivers=(athr("t1", "S1", {"Acc1"}, {"Ms1"}), athr("t2", "S2", {"Acc2"}, {"Ms2"}),
                   athr("t3", "S3", {"Acc3"}, {"Ms3"})),
        quality=q1, key="k", label="measure")
    red = Reduce(
        senders=((athr("t1", "S1", {"Ms1"}, {"E1"}), Lit(1)),
                 (athr("t2", "S2", {"Ms2"}, {"E2"}), Lit(-2)),
                 (athr("t3", "S3", {"Ms3"}, {"E3"}), Lit(5))),
        receiver=athr("t0", "M", {"Ms0"}, {"E0"}),
        bind_var="xm", quality=q2, op="avg", key="k")
    return seq(init, sel, red)


class TestQuality:
    def test_all_true(self):
        assert eval_quality(Q_ALL, [True, True, True]) is True

    def test_any_none_true(self):
        assert eval_quality(Q_ANY, [False, False]) is False

    def test_ratio_two_of_three(self):
        assert eval_quality(q_ratio(2, 3), [True, False, True]) is True

    def test_ratio_arity(self):
        with pytest.raises(ArityMismatch):
            eval_quality(q_ratio(2, 3), [True, True])

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            Quality("ratio", 0, 3)
        with pytest.raises(ValueError):
            Quality("ratio", 4, 3)

    @given(st.lists(st.booleans(), min_size=1, max_size=6), st.data())
    def test_monotone(self, flags, data):
        n = len(flags)
        qs = [Q_ALL, Q_ANY] + [q_ratio(m, n) for m in range(1, n + 1)]
        q = data.draw(st.sampled_from(qs))
        grown = [data.draw(st.booleans()) or f for f in flags]
        if eval_quality(q, flags):
            assert eval_quality(q, grown)

    @given(st.integers(1, 6), st.data())
    def test_satisfiable(self, n, data):
        qs = [Q_ALL, Q_ANY] + [q_ratio(m, n) for m in range(1, n + 1)]
        q = data.draw(st.sampled_from(qs))
        assert eval_quality(q, [True] * n)


def mask_quality_subsets(q, candidates):
    """Reference definition: filter all 2^n subsets by their flag vector, then sort."""
    out = []
    n = len(candidates)
    for mask in range(1 << n):
        chosen = frozenset(candidates[i] for i in range(n) if mask >> i & 1)
        if eval_quality(q, [c in chosen for c in candidates]):
            out.append(chosen)
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


class TestQualitySubsets:
    @pytest.mark.parametrize(
        "q", [Q_ALL, Q_ANY] + [q_ratio(m, n) for n in range(1, 9) for m in range(1, n + 1)], ids=str)
    def test_matches_mask_definition(self, q):
        for size in range(9):
            candidates = [f"t{i}" for i in range(size)]
            random.Random(size).shuffle(candidates)
            try:
                expected = mask_quality_subsets(q, tuple(candidates))
            except ArityMismatch as exc:
                with pytest.raises(ArityMismatch) as got:
                    quality_subsets(q, tuple(candidates))
                assert str(got.value) == str(exc)
                continue
            assert quality_subsets(q, tuple(candidates)) == expected

    def test_repeated_candidate_order(self):
        # a thread listed twice: the distinct subsets keep the mask definition's
        # order, though a subset may occur a different number of times
        for q in [Q_ALL, Q_ANY, q_ratio(1, 3), q_ratio(2, 3)]:
            got = quality_subsets(q, ("b", "a", "b"))
            assert got == sorted(got, key=lambda s: (len(s), tuple(sorted(s))))
            assert (list(dict.fromkeys(got))
                    == list(dict.fromkeys(mask_quality_subsets(q, ("b", "a", "b")))))


class TestExchange:
    def test_held_capability_swapped(self):
        assert exchange(frozenset("X"), frozenset("Y"), frozenset("XZ")) == frozenset("YZ")

    def test_missing_capability_keeps_state(self):
        assert exchange(frozenset("X"), frozenset("Y"), frozenset("Z")) == frozenset("Z")

    def test_empty_exchange(self):
        assert exchange(frozenset(), frozenset(), frozenset("ABC")) == frozenset("ABC")

    @given(st.frozensets(st.sampled_from("WXYZ")), st.frozensets(st.sampled_from("WXYZ")),
           st.frozensets(st.sampled_from("WXYZ")))
    def test_result_bounded(self, x, y, z):
        assert exchange(x, y, z) <= (z | y)

    @given(st.frozensets(st.sampled_from("WXYZ")), st.frozensets(st.sampled_from("WXYZ")))
    def test_idempotent_when_x_is_y(self, x, z):
        once = exchange(x, x, z)
        assert exchange(x, x, once) == once


class TestCapState:
    def test_update_overrides_shared_key(self):
        s1 = CapState.of({("t", "k"): {"X"}})
        s2 = CapState.of({("t", "k"): {"Y"}})
        assert state_update(s1, s2) == s2

    def test_update_empty_is_identity(self):
        s = CapState.of({("t", "k"): {"X"}, ("s", "k"): {"Z"}})
        assert state_update(s, CapState()) == s

    def test_update_disjoint_keys_unions(self):
        s1 = CapState.of({("t", "k"): {"X"}})
        s2 = CapState.of({("s", "k"): {"Y"}})
        merged = state_update(s1, s2)
        assert merged.caps("t", "k") == frozenset({"X"})
        assert merged.caps("s", "k") == frozenset({"Y"})

    def test_absent_lookup_is_empty(self):
        assert CapState().caps("t", "k") == frozenset()

    @given(st.dictionaries(
        st.tuples(st.sampled_from("pqr"), st.sampled_from("kl")),
        st.frozensets(st.sampled_from("XYZ"), min_size=1), max_size=4),
        st.dictionaries(
        st.tuples(st.sampled_from("pqr"), st.sampled_from("kl")),
        st.frozensets(st.sampled_from("XYZ"), min_size=1), max_size=4))
    def test_update_restricted_to_new_keys_is_new(self, d1, d2):
        s1, s2 = CapState.of(d1), CapState.of(d2)
        merged = state_update(s1, s2)
        for (t, k) in s2.keys():
            assert merged.caps(t, k) == s2.caps(t, k)


class TestExprEval:
    def test_literals(self):
        assert eval_expr(Lit(3)) == SomeV(3)
        assert eval_expr(NoneE()) == NONE

    def test_some_is_idempotent(self):
        assert eval_expr(SomeE(SomeE(Lit(1)))) == SomeV(1)

    def test_strict_none_propagation(self):
        assert eval_expr(Binop("+", Lit(1), NoneE())) == NONE

    def test_arith_and_bool(self):
        assert eval_expr(Binop("*", Lit(3), Lit(4))) == SomeV(12)
        assert eval_expr(Binop("<", Lit(1), Lit(2))) == SomeV(True)
        assert eval_expr(Binop("and", Lit(True), Lit(False))) == SomeV(False)

    def test_var_env(self):
        assert eval_expr(Var("x"), {"x": SomeV(7)}) == SomeV(7)
        with pytest.raises(KeyError):
            eval_expr(Var("y"), {})


class TestAggOps:
    @pytest.mark.parametrize("op,values,expected", [
        ("avg", [1, -2, 5], 1),     # (1-2+5)/3 = 4/3 -> 1 toward zero
        ("avg", [-1, -2], -1),      # -3/2 -> -1 toward zero
        ("sum", [1, 2, 3], 6),
        ("max", [1, 9, 3], 9),
        ("min", [4, 2], 2),
        ("id", [42], 42),
    ])
    def test_numeric(self, op, values, expected):
        assert apply_op(op, [SomeV(v) for v in values]) == SomeV(expected)

    def test_none_contributions_dropped(self):
        assert apply_op("sum", [SomeV(1), NONE, SomeV(2)]) == SomeV(3)

    def test_empty_undefined(self):
        assert apply_op("avg", [NONE]) == NONE

    def test_float_avg(self):
        assert apply_op("avg", [SomeV(1.0), SomeV(2.0)]) == SomeV(1.5)


class TestSubstitution:
    def test_end_unchanged(self):
        assert substitute(END, {("x", "t"): SomeV(1)}) == END

    def test_if_guard_substituted(self):
        c = If(Var("x"), "t", END, END)
        out = substitute(c, {("x", "t"): SomeV(True)})
        assert out == If(SomeE(Lit(True)), "t", END, END)

    def test_located_at_other_thread_untouched(self):
        c = If(Var("x"), "t", END, END)
        assert substitute(c, {("x", "s"): SomeV(True)}) == c

    def test_receiver_binding_shadows(self):
        b = Bcast(athr("a", "A"), Lit(1), ((athr("b", "B"), "x"),), Q_ALL, "k")
        c = Seq(b, If(Var("x"), "b", END, END))
        out = substitute(c, {("x", "b"): SomeV(False)})
        assert out == c  # x at b is bound by the broadcast

    def test_composition_equals_sequential(self):
        c = sensors()
        th1 = {("u", "t0"): SomeV(1)}
        th2 = {("w", "t1"): SomeV(2)}
        assert substitute(substitute(c, th2), th1) == substitute(c, {**th1, **th2})


class TestFreeNames:
    def test_end_empty(self):
        fn = free_names(END)
        assert not (fn.threads | fn.sessions | fn.services | fn.vars | fn.roles)

    def test_sensors_binding_structure(self):
        fn = free_names(sensors())
        assert fn.threads == frozenset({"t1", "t2", "t3"})  # service thread t0 is bound
        assert fn.sessions == frozenset()                    # k is bound by the start
        assert fn.services == frozenset({"temperature"})
        assert fn.vars == frozenset()                        # xm bound by the reduce

    def test_alpha_renamed_equal_free_names(self):
        c = sensors()
        fn = free_names(c)
        from gcq.syntax import alpha_canonical
        assert free_names(alpha_canonical(c)).threads == fn.threads

    def test_alpha_equal_detects_renaming(self):
        a = sensors()
        assert alpha_equal(a, sensors())
        assert not alpha_equal(a, sensors(q1=Q_ANY))


class TestWellFormedness:
    def test_init_needs_two_participants(self):
        with pytest.raises(ValueError):
            Init(actives=(athr("t", "A"),), services=(), svc="a", key="k")

    def test_init_rejects_duplicate_threads(self):
        with pytest.raises(ValueError):
            Init(actives=(athr("t", "A"), athr("t", "B")), services=(athr("s", "C"),),
                 svc="a", key="k")

    def test_init_rejects_preconditions(self):
        with pytest.raises(ValueError):
            Init(actives=(athr("t", "A", req={"X"}),), services=(athr("s", "C"),),
                 svc="a", key="k")

    def test_select_allows_lax_quality_for_analysis(self):
        # the "all" restriction is a source-program condition, checked by the parser
        sel = Select(athr("a", "A"), (athr("b", "B"),), Q_ANY, "k", "l")
        assert sel.quality == Q_ANY
