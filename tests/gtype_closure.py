"""The type-level swap relation, enumerated: the specification that
``gtypes._lift`` is checked against.

A type may reorder role-disjoint steps (Carbone & Montesi, POPL 2013).  Here
every swap variant of a type is listed by four rules applied anywhere in
it, and a step is taken by scanning the list for a variant whose head takes
it.  The list grows factorially with the number of disjoint steps, so only
small types are given to it.
"""

from __future__ import annotations

from typing import Optional

from gcq.gtypes import BcastT, BranchT, GlobalType, RedT, Sort, TLabel, _head_roles, branch_t


def _strip_cont(g: GlobalType):
    match g:
        case BcastT(a, bs, s, _):
            return ("bcast", a, bs, s)
        case RedT(as_, b, s, _):
            return ("red", tuple(as_), b, s)
    return None


def _tswap_here(g: GlobalType) -> list[GlobalType]:
    out = []
    # prefix-prefix swaps: bcast/reduce heads over a disjoint next constructor
    if isinstance(g, (BcastT, RedT)):
        roles = _head_roles(g)
        inner = g.cont
        if isinstance(inner, (BcastT, RedT)) and roles.isdisjoint(_head_roles(inner)):
            out.append(inner.replace(cont=g.replace(cont=inner.cont)))
        if isinstance(inner, BranchT) and roles.isdisjoint(_head_roles(inner)):
            out.append(BranchT(inner.sender, inner.receivers,
                               tuple((l, g.replace(cont=gi)) for l, gi in inner.branches)))
    if isinstance(g, BranchT):
        a, bs, branches = g.sender, g.receivers, g.branches
        roles = _head_roles(g)
        inners = [gi for _, gi in branches]
        # branch-over-branch: every branch continues with the same inner branch head
        if inners and all(isinstance(gi, BranchT) for gi in inners):
            first = inners[0]
            same = all(gi.sender == first.sender and gi.receivers == first.receivers
                       and tuple(l for l, _ in gi.branches) == tuple(l for l, _ in first.branches)
                       for gi in inners)
            if same and roles.isdisjoint(_head_roles(first)):
                new_branches = []
                for j, (l2, _) in enumerate(first.branches):
                    inner_map = {l1: inners[i].branches[j][1] for i, (l1, _) in enumerate(branches)}
                    new_branches.append((l2, branch_t(a, bs, inner_map)))
                out.append(BranchT(first.sender, first.receivers, tuple(new_branches)))
        # branch over a uniform bcast/reduce: hoist the prefix out
        if inners and all(isinstance(gi, (BcastT, RedT)) for gi in inners):
            first = inners[0]
            same = all(_strip_cont(gi) == _strip_cont(first) for gi in inners)
            if same and roles.isdisjoint(_head_roles(first)):
                hoisted = {l: gi.cont for (l, _), gi in zip(branches, inners)}
                out.append(first.replace(cont=branch_t(a, bs, hoisted)))
    return out


def _tswap_variants(g: GlobalType) -> list[GlobalType]:
    """One swap anywhere in ``g``."""
    out = list(_tswap_here(g))
    match g:
        case BcastT() | RedT():
            out += [g.replace(cont=v) for v in _tswap_variants(g.cont)]
        case BranchT(a, bs, branches):
            for i, (l, gi) in enumerate(branches):
                for v in _tswap_variants(gi):
                    new = list(branches)
                    new[i] = (l, v)
                    out.append(BranchT(a, bs, tuple(new)))
    return out


def tswap_closure(g: GlobalType) -> set[GlobalType]:
    """Every type that swaps reach from ``g``, ``g`` included."""
    seen = {g}
    frontier = [g]
    while frontier:
        frontier = [v for t in frontier for v in _tswap_variants(t) if v not in seen]
        seen.update(frontier)
    return seen


def _head_step(g: GlobalType, alpha: TLabel) -> Optional[GlobalType]:
    match g, alpha.kind:
        case BcastT(sender, receivers, sort, cont), "bcast":
            if (sender,) == alpha.a_roles and frozenset(receivers) == frozenset(alpha.b_roles) \
                    and (alpha.sort is None or alpha.sort == sort):
                return cont
        case RedT(senders, receiver, sort, cont), "red":
            if frozenset(senders) == frozenset(alpha.a_roles) and (receiver,) == alpha.b_roles \
                    and (alpha.sort is None or alpha.sort == sort):
                return cont
        case BranchT(sender, receivers, branches), "sel":
            if (sender,) == alpha.a_roles and frozenset(receivers) == frozenset(alpha.b_roles):
                for l, cont in branches:
                    if l == alpha.label:
                        return cont
    return None


def closure_steps(g: GlobalType, alpha: TLabel) -> list[tuple[GlobalType, GlobalType]]:
    """``(variant, residual)`` for every swap variant of ``g`` whose head takes ``alpha``."""
    out = []
    for variant in tswap_closure(g):
        residual = _head_step(variant, alpha)
        if residual is not None:
            out.append((variant, residual))
    return out


def declared_sort(g: GlobalType, alpha: TLabel) -> Optional[Sort]:
    """The sort that the variants taking ``alpha`` declare at their head;
    None if no variant takes it or ``alpha`` is a selection."""
    sorts = {getattr(variant, "sort", None) for variant, _ in closure_steps(g, alpha)}
    assert len(sorts) <= 1, f"variants of {g} declare {sorts} for {alpha}"
    return next(iter(sorts), None)
