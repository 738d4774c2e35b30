"""Shared machinery for preservation, progress and metatheory suites.

Walks seeded traces of a configuration while maintaining the
rule-prescribed typing artefacts: the capability context mirroring the
store, the service environment, the session environment, and the role map
accumulated from initiation labels.  The session environment follows the
trace by the label typing below: each communication label has a
session-type counterpart, which the session's protocol takes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

from gcq.captypes import Report, check_capabilities
from gcq.gtypes import (
    DeltaEnv,
    GammaEnv,
    Sort,
    TLabel,
    _lift,
    check_session_only,
    infer_gamma,
    value_sort,
)
from gcq.linlog import Formula, Lolli, Own, Plus, Tensor, TrueF
from gcq.semantics import Configuration, enabled
from gcq.syntax import (
    CapState,
    Choreography,
    GBcastL,
    GInitL,
    GLabel,
    GReduceL,
    GSelectL,
    GTau,
    NoneV,
    OptValue,
    SessionKey,
)


@dataclass
class TraceState:
    conf: Configuration
    roles: dict  # (thread, session) -> role
    gamma: GammaEnv
    delta: dict  # session -> GlobalType


# ---------------------------------------------------------------------------
# State satisfaction


def _sat(triples: frozenset, f: Formula) -> bool:
    match f:
        case TrueF():
            return True
        case Own(thread, session, _, caps):
            return all((thread, session, a) in triples for a in caps)
        case Tensor(l, r):
            items = sorted(triples)
            n = len(items)
            for mask in range(1 << n):
                left = frozenset(items[i] for i in range(n) if mask >> i & 1)
                if _sat(left, l) and _sat(triples - left, r):
                    return True
            return False
        case Plus(l, r):
            # not covered by the entailment definition; read disjunctively
            return _sat(triples, l) or _sat(triples, r)
        case Lolli(_, _):
            raise ValueError("state satisfaction is undefined for linear implications")
    raise TypeError(f"not a formula: {f!r}")


def state_satisfies(sigma: CapState, psi: Iterable[Formula]) -> bool:
    """Entailment between a capability store and a list of formulas.

    The list is a conjunction: every formula must hold of the whole store.
    Tensor splits the store's atom triples; an ownership formula holds when
    all its atoms are present for that thread and session.
    """
    return all(_sat(sigma.triples, f) for f in psi)


# ---------------------------------------------------------------------------
# The full session judgment and label typing


def check_session(gamma: GammaEnv, psi: Iterable[Formula], c: Choreography,
                  delta: DeltaEnv | None = None) -> Report:
    """Full judgment: capability analysis and protocol conformance, independently."""
    caps, sess = check_capabilities(psi, c), check_session_only(gamma, c, delta)
    return Report(caps.ok and sess.ok, caps.failures + sess.failures)


class Untypable(ValueError):
    """The semantic label has no session-type counterpart."""


def _opt_sort(w: OptValue) -> Optional[Sort]:
    if isinstance(w, NoneV):
        return None
    return value_sort(w.value)


def type_label(gamma: GammaEnv, glabel: GLabel) -> tuple[SessionKey, TLabel]:
    """Session-type counterpart of a semantic label.

    Defined for communication labels only; initiation leaves the session
    environment unchanged and internal steps have no protocol footprint.
    """
    match glabel:
        case GBcastL(sender, receivers, _, key, _, value):
            _check_label_ownership(gamma, key, [sender] + list(receivers))
            return key, TLabel("bcast", (sender[1],), tuple(r for _, r in receivers),
                               _opt_sort(value))
        case GReduceL(senders, receiver, _, key, _, contributions, _, _):
            _check_label_ownership(gamma, key, list(senders) + [receiver])
            sort: Optional[Sort] = None
            for _, w in contributions:
                s = _opt_sort(w)
                if s is not None:
                    if sort is not None and sort != s:
                        raise Untypable(f"mixed contribution sorts {sort} and {s}")
                    sort = s
            return key, TLabel("red", tuple(r for _, r in senders), (receiver[1],), sort)
        case GSelectL(sender, receivers, _, key, _, label):
            _check_label_ownership(gamma, key, [sender] + list(receivers))
            return key, TLabel("sel", (sender[1],), tuple(r for _, r in receivers), None, label)
    raise Untypable(f"label {glabel!r} has no session-type counterpart")


def _check_label_ownership(gamma: GammaEnv, key, parts):
    for thread, role in parts:
        if gamma.ownerships and gamma.ownerships.get((thread, key)) not in (None, role):
            raise Untypable(f"{thread} plays {gamma.ownerships[(thread, key)]} in {key}, not {role}")


def delta_step(delta: DeltaEnv, key: SessionKey, alpha: TLabel) -> DeltaEnv:
    """``delta`` after session ``key`` takes ``alpha``, possibly after type-level swaps."""
    lifted = _lift(delta[key], alpha)
    assert lifted is not None, f"type {delta[key]} cannot take {alpha}"
    return {**delta, key: lifted[1]}


def initial_state(c: Choreography) -> TraceState:
    return TraceState(Configuration.initial(c), {}, infer_gamma(c), {})


def context_of(sigma: CapState, roles: dict):
    """Capability context mirroring the store, one ownership atom per entry."""
    out = []
    for (t, k), caps in sigma.items():
        out.append(Own(t, k, roles.get((t, k), "?"), caps))
    return tuple(out)


def advance(state: TraceState, label, conf2: Configuration) -> TraceState:
    roles = dict(state.roles)
    gamma, delta = state.gamma, dict(state.delta)
    match label:
        case GInitL(actives, services, svc, key):
            own = {}
            for t, r in actives + services:
                roles[(t, key)] = r
                own[(t, key)] = r
            gamma = gamma.with_ownerships(own)
            binding = gamma.services.get(svc)
            if binding is not None:
                delta[key] = binding.gtype
        case GBcastL() | GReduceL() | GSelectL():
            key, alpha = type_label(gamma, label)
            delta = dict(delta_step(delta, key, alpha))
        case GTau():
            pass
    return TraceState(conf2, roles, gamma, delta)


def assert_preserved(state: TraceState) -> None:
    """Residual re-typechecks: capability side and session side."""
    conf = state.conf
    psi = context_of(conf.sigma, state.roles)
    cap = check_capabilities(psi, conf.chor)
    assert cap.ok, f"capability typing lost: {[f.to_json() for f in cap.failures]}"
    assert state_satisfies(conf.sigma, psi)
    sess = check_session_only(state.gamma, conf.chor, state.delta)
    assert sess.ok, f"session typing lost: {[f.to_json() for f in sess.failures]}"


def random_traces(c: Choreography, seeds, max_steps: int = 24):
    """Yield (state, label, next_state) along seeded maximal runs."""
    for seed in seeds:
        rng = random.Random(seed)
        state = initial_state(c)
        for _ in range(max_steps):
            options = enabled(state.conf)
            if not options:
                break
            label, conf2 = options[rng.randrange(len(options))]
            nxt = advance(state, label, conf2)
            yield state, label, nxt
            state = nxt


class SubsetOracle:
    """Admits exactly one chosen subset per (session, candidate roles) point."""

    settles_at = 0

    def __init__(self, choices: dict):
        self.choices = choices  # (session, frozenset candidate roles) -> frozenset threads

    def allows(self, step, session, thread, role, quality, roles):
        return thread in self.choices.get((session, frozenset(roles)), {thread})


def adversarial_oracles(conf: Configuration, rng: random.Random, samples: int = 3):
    """Oracles that admit one quality-satisfying subset per head interaction."""
    from gcq.syntax import quality_subsets

    points = {}
    for label, _ in enabled(conf):
        match label:
            case (GBcastL(_, parts, quality, key, _, _) | GSelectL(_, parts, quality, key, _, _)
                  | GReduceL(parts, _, quality, key, _, _, _, _)):
                cands = tuple(t for t, _ in parts)
            case _:
                continue
        points.setdefault((key, frozenset(r for _, r in parts)), quality_subsets(quality, cands))
    out = []
    for _ in range(samples):
        choice = {}
        for point, subsets in points.items():
            choice[point] = rng.choice(subsets)
        out.append(SubsetOracle(choice))
    return out
