"""Multiplicative-additive intuitionistic linear logic over ownership atoms.

The capability checker reduces every progress question to provability of a
sequent ``Psi |- phi`` where the formulas are built from ownership atoms
``t: k[A]X`` (thread ``t`` plays role ``A`` in session ``k`` holding the
capability atoms ``X``), the unit ``true``, tensor, plus and linear
implication.  Contexts are ordered multisets: duplicates matter and there is
no implicit weakening or contraction.

Provability in this fragment is decidable; the prover below runs a backward
sequent search and returns a proof tree on success.  Contexts are
compared and memoized as multisets of formulas, and the non-invertible rules
split the context into every distinct pair of sub-multisets, so duplicate
formulas are not tried twice.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Optional, Union

from .syntax import CapAtom, Role, SessionKey, Thread, term


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


def context_threads(ctx: Context) -> frozenset[Thread]:
    """The threads of a capability context, which holds ownership atoms and
    ``true`` only."""
    return frozenset(f.thread for f in ctx if isinstance(f, Own))


def context_keys(ctx: Context) -> frozenset[SessionKey]:
    """The sessions of a capability context (see :func:`context_threads`)."""
    return frozenset(f.session for f in ctx if isinstance(f, Own))


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


# ---------------------------------------------------------------------------
# Prover


class Prover:
    """Backward sequent search with memoization and multiset context splitting.

    Every rule's premises have a smaller total formula size than its
    conclusion, so the search ends by itself.
    """

    def __init__(self):
        self._memo: dict[tuple, Optional[ProofNode]] = {}

    def prove(self, ctx: Iterable[Formula], goal: Formula) -> ProofResult:
        node = self._search(tuple(ctx), goal)
        return ProofResult(node is not None, node)

    def _search(self, ctx: Context, goal: Formula) -> Optional[ProofNode]:
        key = (multiset(ctx), goal)
        if key not in self._memo:
            self._memo[key] = self._try_rules(ctx, goal)
        return self._memo[key]

    def _try_rules(self, ctx: Context, goal: Formula) -> Optional[ProofNode]:
        # Invertible left rules first: true, tensor, plus.
        for i, f in enumerate(ctx):
            rest = ctx[:i] + ctx[i + 1:]
            if isinstance(f, TrueF):
                child = self._search(rest, goal)
                if child is None:
                    return None
                return ProofNode("true_l", ctx, goal, (child,))
            if isinstance(f, Tensor):
                child = self._search(rest + (f.left, f.right), goal)
                if child is None:
                    return None
                return ProofNode("tensor_l", ctx, goal, (child,))
            if isinstance(f, Plus):
                left = self._search(rest + (f.left,), goal)
                if left is None:
                    return None
                right = self._search(rest + (f.right,), goal)
                if right is None:
                    return None
                return ProofNode("plus_l", ctx, goal, (left, right))

        # Invertible right rule for implication.
        if isinstance(goal, Lolli):
            child = self._search(ctx + (goal.left,), goal.right)
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
                lnode = self._search(lctx, goal.left)
                if lnode is None:
                    continue
                rnode = self._search(rctx, goal.right)
                if rnode is not None:
                    return ProofNode("tensor_r", ctx, goal, (lnode, rnode))
        if isinstance(goal, Plus):
            lnode = self._search(ctx, goal.left)
            if lnode is not None:
                return ProofNode("plus_r1", ctx, goal, (lnode,))
            rnode = self._search(ctx, goal.right)
            if rnode is not None:
                return ProofNode("plus_r2", ctx, goal, (rnode,))
        for i, f in enumerate(ctx):
            if not isinstance(f, Lolli):
                continue
            rest = ctx[:i] + ctx[i + 1:]
            for lctx, rctx in _splits(rest):
                lnode = self._search(lctx, f.left)
                if lnode is None:
                    continue
                rnode = self._search(rctx + (f.right,), goal)
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


def prove(ctx: Iterable[Formula], goal: Formula) -> ProofResult:
    """Decide ``ctx |- goal`` in the MALL fragment with implications."""
    return Prover().prove(ctx, goal)
