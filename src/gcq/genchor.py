"""Seeded generation of well-typed choreographies.

Programs are built forward while tracking each thread's current capability
atom per session.  Quality predicates weaker than ``all`` make the
post-state of their candidates depend on the chosen subset, so the
generator either gives those candidates idempotent annotations (require
and offer the same atom) or marks them burned and never requires them
again; principals always progress deterministically.  The result is
accepted by the capability checker for every quality-satisfying subset and
carries an inferable session protocol.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    AnnotatedThread,
    Bcast,
    Binop,
    Choreography,
    END,
    If,
    Init,
    Interaction,
    Lit,
    Q_ALL,
    Q_ANY,
    Quality,
    Reduce,
    Select,
    Seq,
    Var,
    athr,
    q_ratio,
    seq,
)

THREAD_POOL = ("p", "q", "r", "u")
SERVICE_THREAD_POOL = ("sv", "sw", "sx", "sy")


@dataclass
class GenConfig:
    max_threads: int = 4
    max_interactions: int = 6
    allow_if: bool = True
    namespace: str = ""  # suffix for every generated identifier


@dataclass
class _SessionState:
    key: str
    threads: list[str]
    roles: dict[str, str]
    cur: dict[str, str]            # determinate capability atom per thread
    burned: set[str] = field(default_factory=set)
    int_vars: dict[str, list[str]] = field(default_factory=dict)  # per thread


class Generator:
    def __init__(self, rng: random.Random, config: GenConfig | None = None):
        self.rng = rng
        self.config = config or GenConfig()
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.config.namespace}{self.counter}"

    def generate(self) -> Choreography:
        rng = self.rng
        ns = self.config.namespace
        n_threads = rng.randint(2, self.config.max_threads)
        actives = [t + ns for t in THREAD_POOL[:max(1, n_threads - 1)]]
        service = SERVICE_THREAD_POOL[0] + ns
        session = self._make_session(f"k{ns}1", actives, service)
        budget = rng.randint(1, self.config.max_interactions - 1)
        init = self._init_interaction(session, f"a{ns}")
        body = self._body(session, budget)
        return Seq(init, body)

    # -- session scaffolding

    def _make_session(self, key, actives, service) -> _SessionState:
        roles = {}
        cur = {}
        for i, t in enumerate(actives):
            roles[t] = f"A{i + 1}"
        roles[service] = "Z"
        for t in actives + [service]:
            cur[t] = self.fresh("C")
        return _SessionState(key, actives + [service], roles, cur)

    def _init_interaction(self, s: _SessionState, svc: str) -> Init:
        actives = tuple(athr(t, s.roles[t], off={s.cur[t]}) for t in s.threads[:-1])
        services = (athr(s.threads[-1], s.roles[s.threads[-1]], off={s.cur[s.threads[-1]]}),)
        return Init(actives, services, svc, s.key)

    # -- interaction generation

    def _usable(self, s: _SessionState) -> list[str]:
        return [t for t in s.threads if t not in s.burned]

    def _annot(self, s: _SessionState, t: str, progress: bool) -> AnnotatedThread:
        old = s.cur[t]
        if progress:
            new = self.fresh("C")
            s.cur[t] = new
            return athr(t, s.roles[t], {old}, {new})
        return athr(t, s.roles[t], {old}, {old})

    def _payload(self, s: _SessionState, t: str):
        rng = self.rng
        vars_here = s.int_vars.get(t, [])
        if vars_here and rng.random() < 0.3:
            return Var(rng.choice(vars_here))
        return Lit(rng.randint(-9, 9))

    def _quality(self, n: int) -> Quality:
        rng = self.rng
        if rng.random() < 0.55:
            return Q_ALL
        if n == 1 or rng.random() < 0.4:
            return Q_ANY
        return q_ratio(rng.randint(1, n), n)

    def _body(self, s: _SessionState, budget: int) -> Choreography:
        rng = self.rng
        if budget <= 0:
            return END
        usable = self._usable(s)
        if len(usable) < 2:
            return END
        if self.config.allow_if and budget >= 2 and len(usable) >= 2 and rng.random() < 0.25:
            return self._conditional(s, budget)
        inter = self._communication(s, budget)
        if inter is None:
            return END
        return Seq(inter, self._body(s, budget - 1))

    def _communication(self, s: _SessionState, budget: int) -> Optional[Interaction]:
        rng = self.rng
        usable = self._usable(s)
        principal = rng.choice(usable)
        others = [t for t in usable if t != principal]
        if not others:
            return None
        count = rng.randint(1, len(others))
        cands = rng.sample(others, count)
        kind = rng.choice(["bcast", "reduce", "select"])
        terminal = budget == 1
        quality = Q_ALL if kind == "select" else self._quality(len(cands))
        weak = quality != Q_ALL
        # weak predicates: keep candidates determinate with idempotent
        # annotations, or burn them on a final progressing step
        idempotent = weak and (not terminal or rng.random() < 0.5)
        p_annot = self._annot(s, principal, progress=True)
        c_annots = []
        for t in cands:
            a = self._annot(s, t, progress=not weak or not idempotent)
            c_annots.append(a)
            if weak and not idempotent:
                s.burned.add(t)
        if kind == "bcast":
            var = self.fresh("x")
            receivers = tuple((a, var) for a in c_annots)
            # a variable is safe to reuse in later payloads only when the
            # broadcast guarantees delivery; an absent receiver holds none,
            # which no aggregation can turn back into a value
            if quality == Q_ALL:
                for a in c_annots:
                    s.int_vars.setdefault(a.thread, []).append(var)
            return Bcast(p_annot, self._payload(s, principal), receivers, quality, s.key)
        if kind == "reduce":
            var = self.fresh("x")
            senders = tuple((a, self._payload(s, a.thread)) for a in c_annots)
            s.int_vars.setdefault(principal, []).append(var)
            return Reduce(senders, p_annot, var, quality, rng.choice(["avg", "max", "min", "sum"]),
                          s.key)
        return Select(p_annot, tuple(c_annots), quality, s.key, self.fresh("l"))

    def _conditional(self, s: _SessionState, budget: int) -> Choreography:
        rng = self.rng
        usable = self._usable(s)
        decider = rng.choice(usable)
        others = [t for t in usable if t != decider]
        guard = self._guard(s, decider)
        label1, label2 = self.fresh("l"), self.fresh("l")
        sel_sender = self._annot(s, decider, progress=True)
        sel_cands = [self._annot(s, t, progress=True) for t in others]
        half = (budget - 1) // 2

        s_then = _SessionState(s.key, list(s.threads), dict(s.roles), dict(s.cur),
                               set(s.burned), {k: list(v) for k, v in s.int_vars.items()})
        s_else = _SessionState(s.key, list(s.threads), dict(s.roles), dict(s.cur),
                               set(s.burned), {k: list(v) for k, v in s.int_vars.items()})
        then = Seq(Select(sel_sender, tuple(sel_cands), Q_ALL, s.key, label1),
                   self._body(s_then, half))
        orelse = Seq(Select(sel_sender, tuple(sel_cands), Q_ALL, s.key, label2),
                     self._body(s_else, half))
        return If(guard, decider, then, orelse)

    def _guard(self, s: _SessionState, t: str):
        rng = self.rng
        vars_here = s.int_vars.get(t, [])
        if vars_here and rng.random() < 0.5:
            return Binop("=", Var(rng.choice(vars_here)), Lit(rng.randint(-9, 9)))
        if rng.random() < 0.5:
            return Lit(rng.random() < 0.5)
        return Binop("<", Lit(rng.randint(-9, 9)), Lit(rng.randint(-9, 9)))


def generate(seed: int, config: GenConfig | None = None) -> Choreography:
    """One seeded well-typed choreography."""
    return Generator(random.Random(seed), config).generate()


def corpus(count: int, seed: int = 0, config: GenConfig | None = None) -> list[Choreography]:
    """A deterministic corpus of distinct well-typed choreographies."""
    out = []
    rng = random.Random(seed)
    while len(out) < count:
        out.append(Generator(random.Random(rng.randrange(1 << 30)), config).generate())
    return out


def session_chain(m: int, q: Quality) -> Choreography:
    """``m`` sessions in a row, each ``start; select [all]; reduce [q]``.

    Sensors t1..t3 take part in every session; session ``ki`` gets its own
    service thread ``mi``.  Under a weak ``q`` each session ends in a
    context that depends on the chosen senders.
    """
    sensors = (1, 2, 3)
    steps: list[Interaction] = []
    for i in range(1, m + 1):
        key, monitor = f"k{i}", f"m{i}"
        steps.append(Init(tuple(athr(f"t{j}", f"S{j}", off={f"Acc{j}"}) for j in sensors),
                          (athr(monitor, "M", off={"Acc0"}),), "temperature", key))
        steps.append(Select(athr(monitor, "M", {"Acc0"}, {"Ms0"}),
                            tuple(athr(f"t{j}", f"S{j}", {f"Acc{j}"}, {f"Ms{j}"}) for j in sensors),
                            Q_ALL, key, "measure"))
        steps.append(Reduce(tuple((athr(f"t{j}", f"S{j}", {f"Ms{j}"}, {f"E{j}"}), Lit(j))
                                  for j in sensors),
                            athr(monitor, "M", {"Ms0"}, {"E0"}), f"x{i}", q, "avg", key))
    return seq(*steps)
