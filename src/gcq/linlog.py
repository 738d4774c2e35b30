"""Multiplicative-additive intuitionistic linear logic over ownership atoms.

The capability checker reduces every progress question to provability of a
sequent ``Psi |- phi`` where the formulas are built from ownership atoms
``t: k[A]X`` (thread ``t`` plays role ``A`` in session ``k`` holding the
capability atoms ``X``), the unit ``true``, tensor, plus and linear
implication.  Contexts are ordered multisets: duplicates matter and there is
no implicit weakening or contraction.

Provability in this fragment is decidable; the prover below runs a backward
sequent search and returns a replayable proof tree on success.  Contexts are
compared and memoized as multisets of formulas, and the non-invertible rules
split the context into every distinct pair of sub-multisets, so duplicate
formulas are not tried twice.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Optional, Union

from .syntax import CapAtom, Role, SessionKey, Thread, term


class DepthExceeded(RuntimeError):
    """Search passed the configured depth cap; says nothing about provability."""


@term
class TrueF:
    def __str__(self) -> str:
        return "true"


@term
class Own:
    thread: Thread
    session: SessionKey
    role: Role
    caps: frozenset[CapAtom]

    def __str__(self) -> str:
        return f"{self.thread}:{self.session}[{self.role}]{{{','.join(sorted(self.caps))}}}"


@term
class Tensor:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


@term
class Plus:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@term
class Lolli:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({self.left} -o {self.right})"


Formula = Union[TrueF, Own, Tensor, Plus, Lolli]
TRUE = TrueF()
Context = tuple[Formula, ...]


def own(thread: Thread, session: SessionKey, role: Role, caps: Iterable[CapAtom]) -> Own:
    return Own(thread, session, role, frozenset(caps))


def tensor_all(formulas: list[Formula]) -> Formula:
    """Right-nested tensor of a formula list; ``true`` when empty."""
    if not formulas:
        return TRUE
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = Tensor(f, out)
    return out


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


def formula_threads(f: Formula) -> frozenset[Thread]:
    match f:
        case Own(thread, _, _, _):
            return frozenset({thread})
        case Tensor(l, r) | Plus(l, r) | Lolli(l, r):
            return formula_threads(l) | formula_threads(r)
        case _:
            return frozenset()


def formula_keys(f: Formula) -> frozenset[SessionKey]:
    match f:
        case Own(_, session, _, _):
            return frozenset({session})
        case Tensor(l, r) | Plus(l, r) | Lolli(l, r):
            return formula_keys(l) | formula_keys(r)
        case _:
            return frozenset()


def context_threads(ctx: Context) -> frozenset[Thread]:
    out: frozenset[Thread] = frozenset()
    for f in ctx:
        out |= formula_threads(f)
    return out


def context_keys(ctx: Context) -> frozenset[SessionKey]:
    out: frozenset[SessionKey] = frozenset()
    for f in ctx:
        out |= formula_keys(f)
    return out


# ---------------------------------------------------------------------------
# Proof trees


@term
class ProofNode:
    rule: str
    ctx: Context
    goal: Formula
    children: tuple["ProofNode", ...] = ()


@term
class ProofResult:
    provable: bool
    certificate: Optional[ProofNode] = None


def multiset(ctx: Iterable[Formula]) -> frozenset:
    """The context as a hashable multiset: each distinct formula with its count."""
    return frozenset(Counter(ctx).items())


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


# ---------------------------------------------------------------------------
# Prover


class Prover:
    """Backward sequent search with memoization and multiset context splitting."""

    def __init__(self, max_depth: int = 64):
        self.max_depth = max_depth
        self._memo: dict[tuple, Optional[ProofNode]] = {}

    def prove(self, ctx: Iterable[Formula], goal: Formula) -> ProofResult:
        node = self._search(tuple(ctx), goal, 0)
        return ProofResult(node is not None, node)

    def _search(self, ctx: Context, goal: Formula, depth: int) -> Optional[ProofNode]:
        if depth > self.max_depth:
            raise DepthExceeded(f"proof search depth exceeded {self.max_depth}")
        key = (multiset(ctx), goal)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None  # cycle guard; search space is finite anyway
        node = self._try_rules(ctx, goal, depth)
        self._memo[key] = node
        return node

    def _try_rules(self, ctx: Context, goal: Formula, depth: int) -> Optional[ProofNode]:
        # Invertible left rules first: true, tensor, plus.
        for i, f in enumerate(ctx):
            rest = ctx[:i] + ctx[i + 1:]
            if isinstance(f, TrueF):
                child = self._search(rest, goal, depth + 1)
                if child is None:
                    return None
                return ProofNode("true_l", ctx, goal, (child,))
            if isinstance(f, Tensor):
                child = self._search(rest + (f.left, f.right), goal, depth + 1)
                if child is None:
                    return None
                return ProofNode("tensor_l", ctx, goal, (child,))
            if isinstance(f, Plus):
                left = self._search(rest + (f.left,), goal, depth + 1)
                if left is None:
                    return None
                right = self._search(rest + (f.right,), goal, depth + 1)
                if right is None:
                    return None
                return ProofNode("plus_l", ctx, goal, (left, right))

        # Invertible right rule for implication.
        if isinstance(goal, Lolli):
            child = self._search(ctx + (goal.left,), goal.right, depth + 1)
            if child is None:
                return None
            return ProofNode("lolli_r", ctx, goal, (child,))

        # Leaves.
        if isinstance(goal, TrueF):
            if not ctx:
                return ProofNode("true_r", ctx, goal)
        if isinstance(goal, Own):
            if ctx == (goal,):
                return ProofNode("ax", ctx, goal)

        # Non-invertible rules.  Context now holds only atoms and lollis.
        if isinstance(goal, Tensor):
            for lctx, rctx in _splits(ctx):
                lnode = self._search(lctx, goal.left, depth + 1)
                if lnode is None:
                    continue
                rnode = self._search(rctx, goal.right, depth + 1)
                if rnode is not None:
                    return ProofNode("tensor_r", ctx, goal, (lnode, rnode))
        if isinstance(goal, Plus):
            lnode = self._search(ctx, goal.left, depth + 1)
            if lnode is not None:
                return ProofNode("plus_r1", ctx, goal, (lnode,))
            rnode = self._search(ctx, goal.right, depth + 1)
            if rnode is not None:
                return ProofNode("plus_r2", ctx, goal, (rnode,))
        for i, f in enumerate(ctx):
            if not isinstance(f, Lolli):
                continue
            rest = ctx[:i] + ctx[i + 1:]
            for lctx, rctx in _splits(rest):
                lnode = self._search(lctx, f.left, depth + 1)
                if lnode is None:
                    continue
                rnode = self._search(rctx + (f.right,), goal, depth + 1)
                if rnode is not None:
                    return ProofNode("lolli_l", ctx, goal, (lnode, rnode))
        return None


def _splits(ctx: Context):
    """Every split of ``ctx`` into two multisets, smaller left part first.

    Copies of a formula are grouped, and a left part may take a copy only
    with the copy before it, so each distinct split comes once.
    """
    ctx = tuple(Counter(ctx).elements())
    n = len(ctx)
    repeats = [i for i in range(1, n) if ctx[i] == ctx[i - 1]]
    for r in range(n + 1):
        for left in itertools.combinations(range(n), r):
            chosen = set(left)
            if any(i in chosen and i - 1 not in chosen for i in repeats):
                continue
            yield (tuple(ctx[i] for i in left),
                   tuple(ctx[i] for i in range(n) if i not in chosen))


def prove(ctx: Iterable[Formula], goal: Formula, max_depth: int = 64) -> ProofResult:
    """Decide ``ctx |- goal`` in the MALL fragment with implications."""
    return Prover(max_depth).prove(ctx, goal)
