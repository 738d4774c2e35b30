"""Labelled-transition semantics of configurations ``<sigma, C>``.

A configuration couples a capability store with a choreography.  A
collective interaction fires for any subset of its candidate participants
that satisfies its quality predicate and whose required capability atoms
are held in the store; chosen receivers see the payload, absent ones have
their variables bound to ``none``.  Interactions may fire out of syntactic
order through the swap congruence, but only reorderings of
thread-disjoint interactions are admitted (no general asynchrony rule).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Protocol

from .syntax import (
    NONE,
    Bcast,
    CapState,
    Choreography,
    End,
    END,
    GBcastL,
    GInitL,
    GLabel,
    GReduceL,
    GSelectL,
    GTau,
    If,
    Init,
    New,
    Reduce,
    Select,
    Seq,
    SomeV,
    Stuck,
    alpha_canonical,
    apply_op,
    eval_expr,
    fresh_name,
    glabel_to_json,
    interaction_threads,
    quality_subsets,
    state_update,
    stable_repr,
    substitute,
    used_names,
)


class AvailabilityOracle(Protocol):
    def available(self, step: int, session: str, candidates: frozenset[str]) -> frozenset[str]:
        """Subset of the candidate threads allowed to take part at this step."""


class AlwaysAvailable:
    def available(self, step, session, candidates):
        return frozenset(candidates)

    def __repr__(self):
        return "AlwaysAvailable()"


ALWAYS = AlwaysAvailable()


# ---------------------------------------------------------------------------
# Structural normal form


def split_prenex(c: Choreography) -> tuple[tuple[tuple[str, str], ...], Choreography]:
    """Leading restriction binders and the restriction-free core."""
    binders = []
    while isinstance(c, New):
        binders.append((c.kind, c.name))
        c = c.body
    return tuple(binders), c


def wrap_prenex(binders: Iterable[tuple[str, str]], core: Choreography) -> Choreography:
    out = core
    for kind, name in reversed(tuple(binders)):
        out = New(kind, name, out)
    return out


def chor_canon(c: Choreography) -> Choreography:
    """Canonical representative modulo structural congruence.

    Restrictions are floated to a prenex position, unused binders dropped,
    binder order fixed by first occurrence, and all binders renamed
    canonically.
    """
    binders, core = split_prenex(c)
    if core == END:
        return END
    used = used_names(core)
    live = [b for b in binders if b[1] in used]
    order = _occurrence_order(core)
    live.sort(key=lambda b: order.get(b[1], 1 << 30))
    return alpha_canonical(wrap_prenex(live, core))


def _occurrence_order(c: Choreography) -> dict[str, int]:
    order: dict[str, int] = {}
    counter = [0]

    def note(name: str):
        counter[0] += 1
        order.setdefault(name, counter[0])

    def walk(ch: Choreography):
        match ch:
            case End():
                return
            case New(_, name, body):
                note(name)
                walk(body)
            case If(_, at, then, orelse):
                note(at)
                walk(then)
                walk(orelse)
            case Seq(inter, cont):
                for t in sorted(interaction_threads(inter)):
                    note(t)
                note(inter.key)
                walk(cont)

    walk(c)
    return order


# ---------------------------------------------------------------------------
# Swap congruence


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
    match c:
        case Seq(eta, cont):
            out += [Seq(eta, v) for v in _swap_variants(cont)]
        case If(guard, at, then, orelse):
            out += [If(guard, at, v, orelse) for v in _swap_variants(then)]
            out += [If(guard, at, then, v) for v in _swap_variants(orelse)]
        case New(kind, name, body):
            out += [New(kind, name, v) for v in _swap_variants(body)]
        case _:
            pass
    return out


def swap_closure(c: Choreography, bound: Optional[int] = None) -> list[Choreography]:
    """All terms reachable by swap rules plus structural congruence.

    Terms are finite and small, so the closure is explored exhaustively by
    default; ``bound`` caps the number of representatives if needed.
    """
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


# ---------------------------------------------------------------------------
# Configurations and transitions


@dataclass(frozen=True)
class Configuration:
    sigma: CapState
    chor: Choreography
    used: frozenset[str] = frozenset()

    @classmethod
    def initial(cls, chor: Choreography, sigma: CapState = CapState()) -> "Configuration":
        # Names bound by a session start are placeholders until it fires, so
        # the freshness source holds the free names, the store's names and
        # any already-created restriction binders.
        from .syntax import free_names
        fn = free_names(chor)
        binders, _ = split_prenex(chor)
        return cls(sigma, chor,
                   fn.threads | fn.sessions | fn.services | sigma.names()
                   | frozenset(nm for _, nm in binders))

    def is_end(self) -> bool:
        return split_prenex(self.chor)[1] == END

    def canon_key(self):
        return (self.sigma, chor_canon(self.chor))


def _eval_closed(expr, thread):
    try:
        return eval_expr(expr, {})
    except (KeyError, TypeError, ValueError):
        return None  # open or ill-sorted expression: no evaluation premise holds


def _head_transitions(sigma: CapState, core: Choreography, binders, used) -> list[tuple[GLabel, Configuration]]:
    out: list[tuple[GLabel, Configuration]] = []
    match core:
        case Seq(inter, cont):
            out.extend(_fire_interaction(sigma, inter, cont, binders, used))
        case If(guard, at, then, orelse):
            w = _eval_closed(guard, at)
            if w is not None:
                branch = then if w == SomeV(True) else orelse
                conf = Configuration(sigma, wrap_prenex(binders, branch), used)
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
                new_services.append(replace(p, thread=nm))
            new_key = fresh_name(key, pool)
            pool.add(new_key)
            body = cont
            if renaming or new_key != key:
                body = _rename_free(cont, renaming, {key: new_key})
            sig_active = CapState([(p.thread, new_key, a) for p in actives for a in p.off])
            sig_service = CapState([(p.thread, new_key, a) for p in new_services for a in p.off])
            sigma2 = state_update(sigma, state_update(sig_active, sig_service))
            new_binders = tuple(binders) + tuple(("thread", p.thread) for p in new_services) + (("session", new_key),)
            conf = Configuration(sigma2, wrap_prenex(new_binders, body), frozenset(pool))
            label = GInitL(tuple((p.thread, p.role) for p in actives),
                           tuple((p.thread, p.role) for p in new_services), svc, new_key)
            out.append((label, conf))

        case Bcast(sender, expr, receivers, quality, key):
            if not sender.req <= sigma.caps(sender.thread, key):
                return out
            w = _eval_closed(expr, sender.thread)
            if w is None:
                return out
            cand = tuple(p for p, _ in receivers)
            for chosen in _capable_subsets(sigma, quality, cand, key):
                sigma2 = _exchange_all(sigma, [sender] + [p for p in cand if p.thread in chosen], key)
                theta = {}
                for p, x in receivers:
                    theta[(x, p.thread)] = w if p.thread in chosen else NONE
                conf = Configuration(sigma2, wrap_prenex(binders, substitute(cont, theta)), used)
                label = GBcastL((sender.thread, sender.role),
                                tuple((p.thread, p.role) for p, _ in receivers),
                                quality, key, chosen, w)
                out.append((label, conf))

        case Select(sender, receivers, quality, key, lab):
            if not sender.req <= sigma.caps(sender.thread, key):
                return out
            for chosen in _capable_subsets(sigma, quality, receivers, key):
                sigma2 = _exchange_all(sigma, [sender] + [p for p in receivers if p.thread in chosen], key)
                conf = Configuration(sigma2, wrap_prenex(binders, cont), used)
                label = GSelectL((sender.thread, sender.role),
                                 tuple((p.thread, p.role) for p in receivers),
                                 quality, key, chosen, lab)
                out.append((label, conf))

        case Reduce(senders, receiver, bind_var, quality, op, key):
            if not receiver.req <= sigma.caps(receiver.thread, key):
                return out
            cand = tuple(p for p, _ in senders)
            exprs = {p.thread: e for p, e in senders}
            for chosen in _capable_subsets(sigma, quality, cand, key):
                contribs = []
                for t in sorted(chosen):
                    w = _eval_closed(exprs[t], t)
                    if w is None:
                        break
                    contribs.append((t, w))
                else:
                    result = apply_op(op, [w for _, w in contribs])
                    if not isinstance(result, SomeV):
                        continue  # the aggregation premise requires some(v)
                    sigma2 = _exchange_all(
                        sigma, [receiver] + [p for p in cand if p.thread in chosen], key)
                    theta = {(bind_var, receiver.thread): result}
                    conf = Configuration(sigma2, wrap_prenex(binders, substitute(cont, theta)), used)
                    label = GReduceL(tuple((p.thread, p.role) for p, _ in senders),
                                     (receiver.thread, receiver.role),
                                     quality, key, chosen, tuple(contribs), result, op)
                    out.append((label, conf))
    return out


def _capable_subsets(sigma, quality, candidates, key):
    """Quality-satisfying subsets whose members hold their required atoms."""
    try:
        subsets = quality_subsets(quality, tuple(p.thread for p in candidates))
    except Exception:
        return []
    by_thread = {p.thread: p for p in candidates}
    out = []
    for chosen in subsets:
        if all(by_thread[t].req <= sigma.caps(t, key) for t in chosen):
            out.append(chosen)
    return out


def _exchange_all(sigma: CapState, parts, key) -> CapState:
    from .syntax import exchange
    prime = CapState([(p.thread, key, a)
                      for p in parts
                      for a in exchange(p.req, p.off, sigma.caps(p.thread, key))])
    # the update domain is exactly the engaged participants
    return state_update(sigma, prime)


def _rename_free(c: Choreography, thread_map: dict, key_map: dict) -> Choreography:
    """Rename free thread and session names (used for init freshening)."""
    from .syntax import AnnotatedThread

    def rt(t):
        return thread_map.get(t, t)

    def rk(k):
        return key_map.get(k, k)

    def rp(p: AnnotatedThread) -> AnnotatedThread:
        return replace(p, thread=rt(p.thread))

    def walk(ch):
        match ch:
            case End():
                return ch
            case New(kind, name, body):
                tm = {k: v for k, v in thread_map.items() if k != name} if kind == "thread" else thread_map
                km = {k: v for k, v in key_map.items() if k != name} if kind == "session" else key_map
                return New(kind, name, _rename_free(body, tm, km))
            case If(guard, at, then, orelse):
                return If(guard, rt(at), walk(then), walk(orelse))
            case Seq(inter, cont):
                match inter:
                    case Init(actives, services, svc, key):
                        bound = {p.thread for p in services}
                        tm = {k: v for k, v in thread_map.items() if k not in bound}
                        km = {k: v for k, v in key_map.items() if k != key}
                        new_inter = Init(tuple(rp(p) for p in actives), services, svc, key)
                        return Seq(new_inter, _rename_free(cont, tm, km))
                    case Bcast(sender, expr, receivers, quality, key):
                        new_inter = Bcast(rp(sender), expr,
                                          tuple((rp(p), x) for p, x in receivers), quality, rk(key))
                        return Seq(new_inter, walk(cont))
                    case Reduce(senders, receiver, bind_var, quality, op, key):
                        new_inter = Reduce(tuple((rp(p), e) for p, e in senders), rp(receiver),
                                           bind_var, quality, op, rk(key))
                        return Seq(new_inter, walk(cont))
                    case Select(sender, receivers, quality, key, lab):
                        new_inter = Select(rp(sender), tuple(rp(p) for p in receivers),
                                           quality, rk(key), lab)
                        return Seq(new_inter, walk(cont))
        raise TypeError(f"not a choreography: {ch!r}")

    return walk(c)


def enabled(conf: Configuration) -> list[tuple[GLabel, Configuration]]:
    """Every transition derivable for the configuration, deterministically ordered.

    The enumeration is closed under structural and swap congruence: any
    interaction that some congruent reordering brings to the head may fire.
    """
    binders, _ = split_prenex(conf.chor)
    seen = {}
    for variant in swap_closure(conf.chor):
        vbinders, vcore = split_prenex(variant)
        for label, succ in _head_transitions(conf.sigma, vcore, vbinders, conf.used):
            seen.setdefault((label, succ.canon_key()), (label, succ))
    return [seen[key] for key in sorted(seen, key=stable_repr)]


def enabled_under(conf: Configuration, oracle: AvailabilityOracle, step_index: int
                  ) -> list[tuple[GLabel, Configuration]]:
    """Enabled transitions with quality-bound choices restricted by the oracle.

    Only the chosen subset of a collective communication is filtered; session
    starts, conditionals and the principal of a communication are not subject
    to availability injection.
    """
    out = []
    for label, succ in enabled(conf):
        match label:
            case GBcastL(_, receivers, _, key, chosen, _) | GSelectL(_, receivers, _, key, chosen, _):
                avail = oracle.available(step_index, key, frozenset(t for t, _ in receivers))
                if chosen <= avail:
                    out.append((label, succ))
            case GReduceL(senders, _, _, key, chosen, _, _, _):
                avail = oracle.available(step_index, key, frozenset(t for t, _ in senders))
                if chosen <= avail:
                    out.append((label, succ))
            case _:
                out.append((label, succ))
    return out


Policy = Callable[[int], int]


def make_policy(policy) -> Policy:
    """'first', an int seed, or a callable index chooser."""
    if policy == "first" or policy is None:
        return lambda n: 0
    if isinstance(policy, int):
        rng = random.Random(policy)
        return lambda n: rng.randrange(n)
    return policy


def step(conf: Configuration, choice=0) -> tuple[GLabel, Configuration]:
    """Take one transition; ``choice`` is an index or a policy."""
    options = enabled(conf)
    if not options:
        raise Stuck("no transition available")
    if callable(choice):
        choice = choice(len(options))
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


def run(conf: Configuration, oracle: AvailabilityOracle = ALWAYS, policy=None,
        max_steps: int = 1000) -> Trace:
    """Drive a configuration until completion, stuckness or budget exhaustion."""
    pick = make_policy(policy)
    labels: list[GLabel] = []
    for i in range(max_steps):
        if conf.is_end():
            return Trace(labels, conf, "Completed")
        options = enabled_under(conf, oracle, i)
        if not options:
            return Trace(labels, conf, "Stuck")
        label, conf = options[pick(len(options))]
        labels.append(label)
    verdict = "Completed" if conf.is_end() else "Budget"
    return Trace(labels, conf, verdict)
