"""The choreography swap relation, enumerated: the specification that
``semantics.enabled`` is checked against.

Thread-disjoint interactions and conditionals may be reordered (Carbone &
Montesi, POPL 2013).  Here every swap variant of a term is listed by three
rules applied anywhere in it, and a configuration's transitions are those of
the head of every variant.  The list grows factorially with the number of
disjoint steps, so only small terms are given to it, or a ``bound``.
"""

from __future__ import annotations

from typing import Optional

from gcq.semantics import Configuration, _head_transitions, chor_canon
from gcq.syntax import Choreography, GLabel, If, Seq, chor_conts, interaction_threads, map_chor


def _swap_here(c: Choreography) -> list[Choreography]:
    out = []
    match c:
        case Seq(eta, Seq(eta2, rest)):
            if interaction_threads(eta).isdisjoint(interaction_threads(eta2)):
                out.append(Seq(eta2, Seq(eta, rest)))
        case _:
            pass
    match c:
        case Seq(eta, If(guard, at, c1, c2)):
            if at not in interaction_threads(eta):
                out.append(If(guard, at, Seq(eta, c1), Seq(eta, c2)))
        case If(guard, at, Seq(eta1, c1), Seq(eta2, c2)) if eta1 == eta2:
            if at not in interaction_threads(eta1):
                out.append(Seq(eta1, If(guard, at, c1, c2)))
        case _:
            pass
    match c:
        case If(g1, p, If(g2, r, c1, c2), If(g3, r2, c3, c4)) if g2 == g3 and r == r2 and p != r:
            out.append(If(g2, r, If(g1, p, c1, c3), If(g1, p, c2, c4)))
        case _:
            pass
    return out


def _swap_variants(c: Choreography) -> list[Choreography]:
    """One swap-rule application anywhere inside the term."""
    out = list(_swap_here(c))
    conts = chor_conts(c)
    for i, k in enumerate(conts):
        for v in _swap_variants(k):
            replaced = iter(conts[:i] + (v,) + conts[i + 1:])
            out.append(map_chor(c, lambda _: next(replaced)))
    return out


def swap_closure(c: Choreography, bound: Optional[int] = None) -> list[Choreography]:
    """All terms reachable by swap rules plus structural congruence, one per
    ``chor_canon`` class; ``bound`` caps the number of representatives."""
    seen = {chor_canon(c): c}
    frontier = [c]
    while frontier:
        nxt = []
        for term in frontier:
            for v in _swap_variants(term):
                key = chor_canon(v)
                if key not in seen:
                    seen[key] = v
                    nxt.append(v)
                    if bound is not None and len(seen) >= bound:
                        return list(seen.values())
        frontier = nxt
    return list(seen.values())


def swap_equal(c1: Choreography, c2: Choreography) -> bool:
    target = chor_canon(c2)
    return any(chor_canon(v) == target for v in swap_closure(c1))


def closure_enabled(conf: Configuration) -> list[tuple[GLabel, Configuration]]:
    """The head transitions of every term in the swap closure, one per label
    and ``canon_key`` (so swap duplicates stay), in no particular order."""
    seen = {}
    for variant in swap_closure(conf.chor):
        for label, succ in _head_transitions(conf.sigma, variant, conf.binders, conf.used):
            seen.setdefault((label, succ.canon_key()), (label, succ))
    return list(seen.values())


def covers(steps: list, reference: list) -> bool:
    """``steps`` has the labels of ``reference``, no more entries, and a
    swap-equal successor with the same label and store for each of its
    entries."""
    if {label for label, _ in steps} != {label for label, _ in reference} \
            or len(steps) > len(reference):
        return False
    return all(any(label == lab and (s.canon_key() == succ.canon_key() or (
                       s.sigma == succ.sigma and swap_equal(s.chor, succ.chor)))
                   for lab, s in steps)
               for label, succ in reference)
