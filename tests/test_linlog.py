"""Sequent prover: golden sequents, certificate replay, oracle agreement."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcq.linlog import (
    TRUE,
    _splits,
    Lolli,
    Plus,
    Tensor,
    formula_size,
    lolli_free,
    multiset,
    own,
    prove,
    replay,
    tensor_all,
)
from oracle_mall import brute_provable

X = own("t", "k", "A", {"X"})
Y = own("t", "k", "A", {"Y"})
SX = own("s", "k", "B", {"X"})
SY = own("s", "k", "B", {"Y"})


class TestGoldenSequents:
    def test_axiom(self):
        assert prove([X], X).provable

    def test_tensor_of_two_owners(self):
        assert prove([X, SY], Tensor(X, SY)).provable

    def test_atom_mismatch(self):
        assert not prove([X], Y).provable

    def test_no_weakening(self):
        assert not prove([X, SY], X).provable

    def test_no_contraction(self):
        assert not prove([X], Tensor(X, X)).provable

    def test_duplicates_are_meaningful(self):
        assert prove([X, X], Tensor(X, X)).provable

    def test_plus_right(self):
        assert prove([X], Plus(X, Y)).provable
        assert prove([X], Plus(Y, X)).provable

    def test_plus_left_needs_both(self):
        assert prove([Plus(X, X)], X).provable
        assert not prove([Plus(X, Y)], X).provable

    def test_tensor_with_plus_on_the_left(self):
        # both branches of the plus fit the context; only one leaves the right goal's atom
        assert prove([X, Y], Tensor(Plus(X, Y), X)).provable
        assert prove([X, Y], Tensor(Plus(X, Y), Y)).provable
        assert not prove([X, Y], Tensor(Plus(X, Y), SX)).provable

    def test_lolli(self):
        assert prove([X, Lolli(X, Y)], Y).provable
        assert prove([], Lolli(X, X)).provable
        assert not prove([Lolli(X, Y)], Y).provable

    def test_true_unit(self):
        assert prove([], TRUE).provable
        assert prove([TRUE, X], X).provable
        assert not prove([X], TRUE).provable

    def test_empty_tensor_helper(self):
        assert tensor_all([]) == TRUE
        assert tensor_all([X]) == X


class TestSplits:
    def test_each_distinct_split_once(self):
        for n in range(6):
            for ctx in itertools.product([X, Y, TRUE], repeat=n):
                got = [(multiset(l), multiset(r)) for l, r in _splits(ctx)]
                want = {(multiset(ctx[i] for i in left),
                         multiset(ctx[i] for i in range(n) if i not in left))
                        for r in range(n + 1) for left in itertools.combinations(range(n), r)}
                assert len(got) == len(want) and set(got) == want


class TestDepthCap:
    def test_pathological_input_reports_depth(self):
        from gcq.linlog import DepthExceeded, Prover
        deep = X
        for _ in range(12):
            deep = Tensor(deep, X)
        with pytest.raises(DepthExceeded):
            Prover(max_depth=3).prove([deep], Y)

    def test_default_cap_handles_checker_scale_contexts(self):
        ctx = [own(f"t{i}", "k", "A", {f"C{i}"}) for i in range(10)]
        goal = tensor_all(list(ctx))
        assert prove(ctx, goal).provable


class TestCertificates:
    @pytest.mark.parametrize("ctx,goal", [
        ([X], X),
        ([X, SY], Tensor(X, SY)),
        ([X, Lolli(X, Y)], Y),
        ([Plus(X, X)], X),
        ([TRUE, X, SY, SX], Tensor(SX, Tensor(X, SY))),
        ([], Lolli(X, Plus(X, Y))),
    ])
    def test_replays(self, ctx, goal):
        res = prove(ctx, goal)
        assert res.provable
        assert replay(res.certificate)

    def test_unprovable_has_no_certificate(self):
        res = prove([X], Y)
        assert not res.provable and res.certificate is None


def formula_pool(atoms, depth):
    """All formulas over the given atoms up to a connective depth."""
    level = list(atoms) + [TRUE]
    pools = [level]
    for _ in range(depth):
        prev = pools[-1]
        nxt = []
        for a, b in itertools.product(pools[0], prev):
            nxt.extend([Tensor(a, b), Plus(a, b), Lolli(a, b)])
        pools.append(nxt)
    out = []
    for p in pools:
        out.extend(p)
    return out


class TestOracleAgreement:
    def test_exhaustive_small(self):
        """Full agreement on every sequent over two atoms, depth <= 1, context <= 2."""
        pool = formula_pool([X, SY], 1)
        checked = 0
        for goal in pool:
            for n in range(3):
                for ctx in itertools.combinations_with_replacement(pool, n):
                    assert prove(ctx, goal).provable == brute_provable(ctx, goal), (ctx, goal)
                    checked += 1
        assert checked > 3000

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sampled_deeper(self, data):
        pool = formula_pool([X, Y, SX], 2)
        pool = [f for f in pool if formula_size(f) <= 7]
        goal = data.draw(st.sampled_from(pool))
        ctx = data.draw(st.lists(st.sampled_from(pool), max_size=3))
        res = prove(ctx, goal)
        assert res.provable == brute_provable(ctx, goal)
        if res.provable:
            assert replay(res.certificate)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_atom_contexts(self, data):
        """Atom-only contexts with duplicates and lolli-free goals: the multiset splits."""
        atoms = [X, Y, SX]
        pool = [f for f in formula_pool(atoms, 2) if lolli_free(f) and formula_size(f) <= 7]
        # formula_pool puts compound formulas on the right only; mirror the tensors
        pool += [Tensor(f.right, f.left) for f in pool if isinstance(f, Tensor)]
        goal = data.draw(st.sampled_from(pool))
        # half the draws start from atoms that prove the goal, so both answers occur
        ctx = witness(data, goal) if data.draw(st.booleans()) else []
        ctx += data.draw(st.lists(st.sampled_from(atoms), max_size=6 - len(ctx)))
        ctx = data.draw(st.permutations(ctx))
        res = prove(ctx, goal)
        assert res.provable == brute_provable(ctx, goal)
        if res.provable:
            assert replay(res.certificate)


def witness(data, f):
    """The atoms of one choice of plus branches of a lolli-free formula."""
    if isinstance(f, Tensor):
        return witness(data, f.left) + witness(data, f.right)
    if isinstance(f, Plus):
        return witness(data, data.draw(st.sampled_from([f.left, f.right])))
    return [] if f == TRUE else [f]
