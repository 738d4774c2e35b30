"""Labelled-transition semantics of configurations ``<sigma, C>``.

A configuration couples a capability store with a choreography.  A
collective interaction fires for any subset of its candidate participants
that satisfies its quality predicate and whose required capability atoms
are held in the store; chosen receivers see the payload, absent ones have
their variables bound to ``none``.  Interactions may fire out of syntactic
order through the swap congruence, but only reorderings of
thread-disjoint interactions are admitted (no general asynchrony rule).
A step takes each head that the swap rules can bring to the front, lifted
there by one pass over the term; the congruence class is never listed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .schedule import ALWAYS, AvailabilityOracle
from .syntax import (
    NONE,
    ArityMismatch,
    Bcast,
    CapState,
    Choreography,
    END,
    GBcastL,
    GInitL,
    GLabel,
    GReduceL,
    GSelectL,
    GTau,
    If,
    Init,
    Reduce,
    Select,
    Seq,
    SomeV,
    Stuck,
    alpha_canonical,
    apply_op,
    comm_parts,
    eval_closed,
    exchange,
    free_names,
    fresh_name,
    glabel_to_json,
    interaction_threads,
    label_first_sorted,
    quality_subsets,
    rename_free,
    state_update,
    substitute,
    subterms,
    term,
    used_names,
)


# ---------------------------------------------------------------------------
# Structural normal form


def chor_canon(c: Choreography, binders: Iterable[tuple[str, str]] = ()) -> tuple:
    """Canonical representative modulo structural congruence of ``c`` under
    the restrictions ``binders``, ``(kind, name)`` pairs.

    Unused restrictions are dropped and the rest ordered by first
    occurrence; the result is their kinds and the term with them renamed
    ``α1…αm`` and its own binders after them (:func:`alpha_canonical`).
    """
    used, order = used_names(c), _occurrence_order(c)
    live = sorted((b for b in binders if b[1] in used), key=lambda b: order.get(b[1], 1 << 30))
    return tuple(kind for kind, _ in live), alpha_canonical(c, live)


def _occurrence_order(c: Choreography) -> dict[str, int]:
    def noted(node: Choreography) -> list[str]:
        if isinstance(node, Seq):
            return sorted(interaction_threads(node.inter)) + [node.inter.key]
        return [node.at] if isinstance(node, If) else []

    names = dict.fromkeys(name for node in subterms(c) for name in noted(node))
    return {name: i for i, name in enumerate(names)}


# ---------------------------------------------------------------------------
# Swap congruence


def _lifts(c: Choreography) -> list[Choreography]:
    """``c`` and, for each other head that swaps bring to its front, one
    term with that head first.

    A head passes a thread-disjoint interaction (into both arms of it, if
    the head is a conditional whose deciding thread the interaction does
    not involve).  A head that both arms of a conditional lift (the same
    interaction, not involving the deciding thread, or a conditional on the
    same guard and thread, decided by another thread) is hoisted out of it.
    """
    out = [c]
    match c:
        case Seq(eta, cont):
            threads = interaction_threads(eta)
            for lifted in _lifts(cont):
                match lifted:
                    case Seq(eta2, rest) if threads.isdisjoint(interaction_threads(eta2)):
                        out.append(Seq(eta2, Seq(eta, rest)))
                    case If(guard, at, c1, c2) if at not in threads:
                        out.append(If(guard, at, Seq(eta, c1), Seq(eta, c2)))
        case If(guard, at, then, orelse):
            for l1, l2 in product(_lifts(then), _lifts(orelse)):
                match l1, l2:
                    case Seq(eta, c1), Seq(eta2, c2) if eta == eta2 and at not in interaction_threads(eta):
                        out.append(Seq(eta, If(guard, at, c1, c2)))
                    case If(g, r, c1, c2), If(g2, r2, c3, c4) if (g, r) == (g2, r2) and r != at:
                        out.append(If(g, r, If(guard, at, c1, c3), If(guard, at, c2, c4)))
    return out


# ---------------------------------------------------------------------------
# Configurations and transitions


@term
class Configuration:
    sigma: CapState
    chor: Choreography
    used: frozenset[str] = frozenset()
    # the restrictions (kind, name) that session starts created, oldest first;
    # structural congruence floats every restriction to the front
    binders: tuple[tuple[str, str], ...] = ()
    _canon = None  # cache slot: canon_key(), computed when first asked for

    @classmethod
    def initial(cls, chor: Choreography, sigma: CapState = CapState()) -> "Configuration":
        # Names bound by a session start are placeholders until it fires, so
        # the freshness source holds the free names and the store's names.
        fn = free_names(chor)
        return cls(sigma, chor, fn.threads | fn.sessions | fn.services | sigma.names())

    def is_end(self) -> bool:
        return self.chor == END

    def canon_key(self):
        key = self._canon
        if key is None:
            key = (self.sigma, chor_canon(self.chor, self.binders))
            object.__setattr__(self, "_canon", key)
        return key


def _head_transitions(sigma: CapState, core: Choreography, binders, used) -> list[tuple[GLabel, Configuration]]:
    out: list[tuple[GLabel, Configuration]] = []
    match core:
        case Seq(inter, cont):
            out.extend(_fire_interaction(sigma, inter, cont, binders, used))
        case If(guard, at, then, orelse):
            w = eval_closed(guard)
            if w is not None:
                branch = then if w == SomeV(True) else orelse
                conf = Configuration(sigma, branch, used, binders)
                out.append((GTau(), conf))
        case _:
            pass
    return out


def _fire_interaction(sigma, inter, cont, binders, used) -> list[tuple[GLabel, Configuration]]:
    out = []
    match inter:
        case Init(actives, services, svc, key):
            renaming: dict[str, str] = {}
            pool = set(used)
            new_services = []
            for p in services:
                nm = fresh_name(p.thread, pool)
                pool.add(nm)
                renaming[p.thread] = nm
                new_services.append(p.replace(thread=nm))
            new_key = fresh_name(key, pool)
            pool.add(new_key)
            body = rename_free(cont, renaming, {key: new_key})
            sig_active = CapState([(p.thread, new_key, a) for p in actives for a in p.off])
            sig_service = CapState([(p.thread, new_key, a) for p in new_services for a in p.off])
            sigma2 = state_update(sigma, state_update(sig_active, sig_service))
            new_binders = binders + tuple(("thread", p.thread) for p in new_services) + (("session", new_key),)
            conf = Configuration(sigma2, body, frozenset(pool), new_binders)
            label = GInitL(tuple((p.thread, p.role) for p in actives),
                           tuple((p.thread, p.role) for p in new_services), svc, new_key)
            out.append((label, conf))

        case Bcast() | Select() | Reduce():
            principal, cand, quality, key = comm_parts(inter)
            if not principal.req <= sigma.caps(principal.thread, key):
                return out
            head, ends = (principal.thread, principal.role), tuple((p.thread, p.role) for p in cand)
            for chosen in _capable_subsets(sigma, quality, cand, key):
                # only the substitution and the label differ per kind
                match inter:
                    case Bcast(_, expr, receivers):
                        w = eval_closed(expr)
                        if w is None:
                            continue
                        theta = {(x, p.thread): w if p.thread in chosen else NONE
                                 for p, x in receivers}
                        label = GBcastL(head, ends, quality, key, chosen, w)
                    case Select(label=lab):
                        theta, label = {}, GSelectL(head, ends, quality, key, chosen, lab)
                    case Reduce(senders, _, bind_var, _, op):
                        exprs = {p.thread: e for p, e in senders}
                        contribs = tuple((t, eval_closed(exprs[t])) for t in sorted(chosen))
                        if any(w is None for _, w in contribs):
                            continue
                        result = apply_op(op, [w for _, w in contribs])
                        if not isinstance(result, SomeV):
                            continue  # the aggregation premise requires some(v)
                        theta = {(bind_var, principal.thread): result}
                        label = GReduceL(ends, head, quality, key, chosen, contribs, result, op)
                sigma2 = _exchange_all(sigma, [principal] + [p for p in cand if p.thread in chosen], key)
                conf = Configuration(sigma2, substitute(cont, theta), used, binders)
                out.append((label, conf))
    return out


def _capable_subsets(sigma, quality, candidates, key):
    """Quality-satisfying subsets whose members hold their required atoms."""
    try:
        subsets = quality_subsets(quality, tuple(p.thread for p in candidates))
    except ArityMismatch:  # no candidates, or a ratio of another arity
        return []
    by_thread = {p.thread: p for p in candidates}
    out = []
    for chosen in subsets:
        if all(by_thread[t].req <= sigma.caps(t, key) for t in chosen):
            out.append(chosen)
    return out


def _exchange_all(sigma: CapState, parts, key) -> CapState:
    prime = CapState([(p.thread, key, a)
                      for p in parts
                      for a in exchange(p.req, p.off, sigma.caps(p.thread, key))])
    # the update domain is exactly the engaged participants
    return state_update(sigma, prime)


def enabled(conf: Configuration) -> list[tuple[GLabel, Configuration]]:
    """Every transition derivable for the configuration, deterministically ordered.

    The enumeration is closed under structural and swap congruence: any
    head that swaps bring to the front (:func:`_lifts`) may fire.  Each label
    has one successor per swap class of the terms it leads to.
    """
    seen = {}
    for lifted in _lifts(conf.chor):
        for label, succ in _head_transitions(conf.sigma, lifted, conf.binders, conf.used):
            seen.setdefault((label, succ.canon_key()), (label, succ))
    return [seen[key] for key in label_first_sorted(seen)]


def enabled_under(conf: Configuration, oracle: AvailabilityOracle, step_index: int
                  ) -> list[tuple[GLabel, Configuration]]:
    """Enabled transitions with quality-bound choices restricted by the oracle.

    A collective communication keeps its label when the oracle allows every
    chosen participant; session starts, conditionals and the principal of a
    communication are not subject to availability injection.
    """
    out = []
    for label, succ in enabled(conf):
        match label:
            case (GBcastL(_, parts, quality, key, chosen, _) | GSelectL(_, parts, quality, key, chosen, _)
                  | GReduceL(parts, _, quality, key, chosen, _, _, _)):
                roles = frozenset(r for _, r in parts)
                if not all(oracle.allows(step_index, key, t, r, quality, roles)
                           for t, r in parts if t in chosen):
                    continue
        out.append((label, succ))
    return out


def step(conf: Configuration, choice: int = 0) -> tuple[GLabel, Configuration]:
    """Take the ``choice``-th enabled transition."""
    options = enabled(conf)
    if not options:
        raise Stuck("no transition available")
    return options[choice]


@dataclass
class Trace:
    labels: list[GLabel]
    final: Configuration
    verdict: str  # Completed | Stuck | Budget

    def to_jsonl(self) -> str:
        lines = [json.dumps(glabel_to_json(i, lab), sort_keys=True)
                 for i, lab in enumerate(self.labels)]
        lines.append(json.dumps({"verdict": self.verdict}, sort_keys=True))
        return "\n".join(lines)


MAX_STEPS = 1000  # a run's step cap: a manifest can recurse through a replicated service


def drive(state, options, finished, policy: int | None = None, max_steps: int = MAX_STEPS):
    """Step from ``state`` until ``finished(state)`` holds, no step is left
    or ``max_steps`` steps are taken; ``options(state, i)`` lists the steps
    at step ``i`` and the policy picks one: the first if it is None, else
    one drawn by ``random.Random(policy)``.  Returns the labels, the last
    state and the verdict: Completed, Stuck or Budget."""
    rng = None if policy is None else random.Random(policy)
    labels = []
    for i in range(max_steps):
        if finished(state):
            return labels, state, "Completed"
        steps = options(state, i)
        if not steps:
            return labels, state, "Stuck"
        label, state = steps[rng.randrange(len(steps)) if rng else 0]
        labels.append(label)
    return labels, state, "Completed" if finished(state) else "Budget"


def run(conf: Configuration, oracle: AvailabilityOracle = ALWAYS, policy: int | None = None,
        max_steps: int = MAX_STEPS) -> Trace:
    """Drive a configuration until completion, stuckness or budget exhaustion."""
    return Trace(*drive(conf, lambda c, i: enabled_under(c, oracle, i), Configuration.is_end,
                        policy, max_steps))
