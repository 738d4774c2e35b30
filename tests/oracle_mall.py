"""Naive exhaustive proof search used as an independent oracle for the prover.

Tries every rule at every position, with no rule ordering, no invertibility
shortcuts and no certificates.  Termination follows from the strictly
decreasing total formula size of premises; a per-call memo only avoids
recomputing identical sequents.  ``replay`` checks the prover's proof trees
rule by rule.
"""

from __future__ import annotations

import itertools

from gcq.linlog import TRUE, Formula, Lolli, Own, Plus, ProofNode, Tensor, TrueF, multiset


def _key(ctx, goal):
    return (tuple(sorted(map(str, ctx))), str(goal))


def brute_provable(ctx, goal, _memo=None) -> bool:
    ctx = tuple(ctx)
    if _memo is None:
        _memo = {}
    k = _key(ctx, goal)
    if k in _memo:
        return _memo[k]
    _memo[k] = False
    result = _try_everything(ctx, goal, _memo)
    _memo[k] = result
    return result


def _try_everything(ctx, goal, memo) -> bool:
    n = len(ctx)
    # axioms
    if isinstance(goal, Own) and ctx == (goal,):
        return True
    if isinstance(goal, TrueF) and n == 0:
        return True
    # right rules
    if isinstance(goal, Tensor):
        for split in _subsets(n):
            left = tuple(ctx[i] for i in split)
            right = tuple(ctx[i] for i in range(n) if i not in split)
            if brute_provable(left, goal.left, memo) and brute_provable(right, goal.right, memo):
                return True
    if isinstance(goal, Plus):
        if brute_provable(ctx, goal.left, memo) or brute_provable(ctx, goal.right, memo):
            return True
    if isinstance(goal, Lolli):
        if brute_provable(ctx + (goal.left,), goal.right, memo):
            return True
    # left rules, at every position
    for i in range(n):
        f = ctx[i]
        rest = ctx[:i] + ctx[i + 1:]
        if isinstance(f, TrueF) and brute_provable(rest, goal, memo):
            return True
        if isinstance(f, Tensor) and brute_provable(rest + (f.left, f.right), goal, memo):
            return True
        if isinstance(f, Plus):
            if (brute_provable(rest + (f.left,), goal, memo)
                    and brute_provable(rest + (f.right,), goal, memo)):
                return True
        if isinstance(f, Lolli):
            m = len(rest)
            for split in _subsets(m):
                left = tuple(rest[j] for j in split)
                right = tuple(rest[j] for j in range(m) if j not in split)
                if (brute_provable(left, f.left, memo)
                        and brute_provable(right + (f.right,), goal, memo)):
                    return True
    return False


def _subsets(n):
    for r in range(n + 1):
        yield from (frozenset(c) for c in itertools.combinations(range(n), r))


def formula_size(f: Formula) -> int:
    match f:
        case Tensor(l, r) | Plus(l, r) | Lolli(l, r):
            return 1 + formula_size(l) + formula_size(r)
        case _:
            return 1


def lolli_free(f: Formula) -> bool:
    match f:
        case Lolli(_, _):
            return False
        case Tensor(l, r) | Plus(l, r):
            return lolli_free(l) and lolli_free(r)
        case _:
            return True


def replay(node: ProofNode) -> bool:
    """Check that a proof tree is a valid derivation of its root sequent."""
    ctx, goal = node.ctx, node.goal
    kids = node.children
    match node.rule:
        case "ax":
            return isinstance(goal, Own) and ctx == (goal,) and not kids
        case "true_r":
            return isinstance(goal, TrueF) and ctx == () and not kids
        case "true_l":
            if len(kids) != 1 or TRUE not in ctx:
                return False
            expect = list(ctx)
            expect.remove(TRUE)
            return multiset(kids[0].ctx) == multiset(expect) and kids[0].goal == goal and replay(kids[0])
        case "tensor_r":
            if not isinstance(goal, Tensor) or len(kids) != 2:
                return False
            l, r = kids
            return (l.goal == goal.left and r.goal == goal.right
                    and multiset(ctx) == multiset(l.ctx + r.ctx)
                    and replay(l) and replay(r))
        case "tensor_l":
            if len(kids) != 1:
                return False
            for i, f in enumerate(ctx):
                if isinstance(f, Tensor):
                    reduced = ctx[:i] + (f.left, f.right) + ctx[i + 1:]
                    if multiset(kids[0].ctx) == multiset(reduced) and kids[0].goal == goal and replay(kids[0]):
                        return True
            return False
        case "plus_r1":
            return (isinstance(goal, Plus) and len(kids) == 1 and kids[0].goal == goal.left
                    and multiset(kids[0].ctx) == multiset(ctx) and replay(kids[0]))
        case "plus_r2":
            return (isinstance(goal, Plus) and len(kids) == 1 and kids[0].goal == goal.right
                    and multiset(kids[0].ctx) == multiset(ctx) and replay(kids[0]))
        case "plus_l":
            if len(kids) != 2:
                return False
            for i, f in enumerate(ctx):
                if isinstance(f, Plus):
                    rest = ctx[:i] + ctx[i + 1:]
                    ok_l = multiset(kids[0].ctx) == multiset(rest + (f.left,)) and kids[0].goal == goal
                    ok_r = multiset(kids[1].ctx) == multiset(rest + (f.right,)) and kids[1].goal == goal
                    if ok_l and ok_r and replay(kids[0]) and replay(kids[1]):
                        return True
            return False
        case "lolli_r":
            return (isinstance(goal, Lolli) and len(kids) == 1
                    and multiset(kids[0].ctx) == multiset(ctx + (goal.left,))
                    and kids[0].goal == goal.right and replay(kids[0]))
        case "lolli_l":
            if len(kids) != 2:
                return False
            for i, f in enumerate(ctx):
                if isinstance(f, Lolli):
                    if kids[0].goal != f.left or kids[1].goal != goal:
                        continue
                    # kids[0].ctx + (kids[1].ctx minus the added f.right) must partition rest
                    k1 = list(kids[1].ctx)
                    if f.right not in k1:
                        continue
                    k1.remove(f.right)
                    if (multiset(ctx[:i] + ctx[i + 1:]) == multiset(kids[0].ctx + tuple(k1))
                            and replay(kids[0]) and replay(kids[1])):
                        return True
            return False
    return False
