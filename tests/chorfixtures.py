"""Golden choreographies used across the test suite.

``sensors`` is the temperature-measurement protocol: three sensors and a
monitor start a session, the monitor collectively selects ``measure``, and
the sensors reduce their readings back with ``avg``.  ``sensors_partial`` is its
blocking variant whose reduce only involves two of the three sensors.  The
seeded families at the end are random inputs for one analysis each, and
``interleaved_corpus`` composes two generated programs on disjoint
namespaces.
"""

import random

from gcq.genchor import GenConfig, Generator
from gcq.syntax import (
    END,
    Bcast,
    Choreography,
    Date,
    If,
    Init,
    Lit,
    Q_ALL,
    Q_ANY,
    Reduce,
    Select,
    Seq,
    athr,
    map_chor,
    seq,
)


def sensors(q1=Q_ALL, q2=Q_ALL):
    init = Init(
        actives=(athr("t1", "S1", off={"Acc1"}), athr("t2", "S2", off={"Acc2"}),
                 athr("t3", "S3", off={"Acc3"})),
        services=(athr("t0", "M", off={"Acc0"}),),
        svc="temperature", key="k")
    sel = Select(
        sender=athr("t0", "M", {"Acc0"}, {"Ms0"}),
        receivers=(athr("t1", "S1", {"Acc1"}, {"Ms1"}), athr("t2", "S2", {"Acc2"}, {"Ms2"}),
                   athr("t3", "S3", {"Acc3"}, {"Ms3"})),
        quality=q1, key="k", label="measure")
    red = Reduce(
        senders=((athr("t1", "S1", {"Ms1"}, {"E1"}), Lit(1)),
                 (athr("t2", "S2", {"Ms2"}, {"E2"}), Lit(-2)),
                 (athr("t3", "S3", {"Ms3"}, {"E3"}), Lit(5))),
        receiver=athr("t0", "M", {"Ms0"}, {"E0"}),
        bind_var="xm", quality=q2, op="avg", key="k")
    return seq(init, sel, red)


def sensor_family(n, q1=Q_ALL, q2=Q_ALL, reduce_over=None):
    """``sensors`` with sensors t1..tn; sensor i reads i.

    ``reduce_over`` lists the sensors the reduce draws on (default: all);
    leaving one out gives the n-sensor blocking twin of ``sensors_partial``.
    """
    ids = range(1, n + 1)
    over = ids if reduce_over is None else reduce_over
    init = Init(actives=tuple(athr(f"t{i}", f"S{i}", off={f"Acc{i}"}) for i in ids),
                services=(athr("t0", "M", off={"Acc0"}),), svc="temperature", key="k")
    sel = Select(sender=athr("t0", "M", {"Acc0"}, {"Ms0"}),
                 receivers=tuple(athr(f"t{i}", f"S{i}", {f"Acc{i}"}, {f"Ms{i}"}) for i in ids),
                 quality=q1, key="k", label="measure")
    red = Reduce(senders=tuple((athr(f"t{i}", f"S{i}", {f"Ms{i}"}, {f"E{i}"}), Lit(i))
                               for i in over),
                 receiver=athr("t0", "M", {"Ms0"}, {"E0"}),
                 bind_var="xm", quality=q2, op="avg", key="k")
    return seq(init, sel, red)


def sensors_partial(q1=Q_ANY, q2=Q_ANY):
    """Like sensors but the reduce draws on sensors 1 and 3 only."""
    init = Init(
        actives=(athr("t1", "S1", off={"Acc1"}), athr("t2", "S2", off={"Acc2"}),
                 athr("t3", "S3", off={"Acc3"})),
        services=(athr("t0", "M", off={"Acc0"}),),
        svc="temperature", key="k")
    sel = Select(
        sender=athr("t0", "M", {"Acc0"}, {"Ms0"}),
        receivers=(athr("t1", "S1", {"Acc1"}, {"Ms1"}), athr("t2", "S2", {"Acc2"}, {"Ms2"}),
                   athr("t3", "S3", {"Acc3"}, {"Ms3"})),
        quality=q1, key="k", label="measure")
    red = Reduce(
        senders=((athr("t1", "S1", {"Ms1"}, {"E1"}), Lit(1)),
                 (athr("t3", "S3", {"Ms3"}, {"E3"}), Lit(5))),
        receiver=athr("t0", "M", {"Ms0"}, {"E0"}),
        bind_var="x0", quality=q2, op="avg", key="k")
    return seq(init, sel, red)


def typed_example():
    """Broadcast of a date then a reduce of floats, typable against a protocol."""
    init = Init(
        actives=(athr("t1", "S1", off={"X1"}), athr("t2", "S2", off={"X2"}),
                 athr("t3", "S3", off={"X3"})),
        services=(athr("tm", "M", off={"Xm"}),),
        svc="temperature", key="k")
    bc = Bcast(
        sender=athr("tm", "M", {"Xm"}, {"Ym"}),
        expr=Lit(Date("2016-06-01")),
        receivers=((athr("t1", "S1", {"X1"}, {"Y1"}), "x1"),
                   (athr("t2", "S2", {"X2"}, {"Y2"}), "x2"),
                   (athr("t3", "S3", {"X3"}, {"Y3"}), "x3")),
        quality=Q_ALL, key="k")
    red = Reduce(
        senders=((athr("t1", "S1", {"Y1"}, {"Z1"}), Lit(21.5)),
                 (athr("t2", "S2", {"Y2"}, {"Z2"}), Lit(20.0)),
                 (athr("t3", "S3", {"Y3"}, {"Z3"}), Lit(22.25))),
        receiver=athr("tm", "M", {"Ym"}, {"Zm"}),
        bind_var="xm", quality=Q_ALL, op="max", key="k")
    return seq(init, bc, red)


def linearity_race():
    """Two session starts on one service with unrelated threads: a race."""
    i1 = Init(actives=(athr("p", "A"),), services=(athr("q", "B"),), svc="a", key="k")
    i2 = Init(actives=(athr("r", "D"),), services=(athr("s", "E"),), svc="a", key="k2")
    return seq(i1, i2)


def chained_starts():
    """Second start whose active thread took part in the first session.

    Both service instances of ``a`` run the same protocol, so the term is
    projectable as well as linear.
    """
    i1 = Init(actives=(athr("p", "A", off={"P0"}),), services=(athr("q", "B", off={"Q0"}),),
              svc="a", key="k")
    bc1 = Bcast(sender=athr("q", "B", {"Q0"}, {"Q1"}), expr=Lit(7),
                receivers=((athr("p", "A", {"P0"}, {"P1"}), "x"),), quality=Q_ALL, key="k")
    i2 = Init(actives=(athr("p", "A", off={"P2"}),), services=(athr("w", "B", off={"W0"}),),
              svc="a", key="k2")
    bc2 = Bcast(sender=athr("w", "B", {"W0"}, {"W1"}), expr=Lit(7),
                receivers=((athr("p", "A", {"P2"}, {"P3"}), "y"),), quality=Q_ALL, key="k2")
    return seq(i1, bc1, i2, bc2)


def disjoint_bcasts(n, performed):
    """Source text of a typed program whose protocol is ``n`` role-disjoint
    broadcasts ``A->(B)``, ``C->(D)``, ... in that order, and whose body
    performs the broadcasts numbered in ``performed``, in that order."""
    pairs = [(chr(65 + 2 * i), chr(66 + 2 * i)) for i in range(n)]
    protocol = "".join(f"bcast {a}->({b})<int> . " for a, b in pairs) + "end"
    parts = [f"{r.lower()}[{r}]" for pair in pairs for r in pair]
    steps = "".join(f"  bcast k [all] {pairs[i][0].lower()}[{pairs[i][0]}].{i} -> "
                    f"({pairs[i][1].lower()}[{pairs[i][1]}]: x{i});\n" for i in performed)
    return (f"service s : {protocol};\n\nchoreography {{\n"
            f"  start k (s) ({', '.join(parts[:-1])}) -> ({parts[-1]});\n{steps}  end\n}}\n")


def hoisting_family(count, seed):
    """Seeded conditionals whose two arms begin alike, so the swap rules
    may hoist a head out of them: the same broadcast, whose threads
    sometimes include the deciding thread, or two conditionals on one guard
    and thread, which is sometimes the outer deciding thread.  About half
    follow a broadcast, past which the conditional may move."""
    rng = random.Random(seed)
    threads = "abcd"

    def bcast():
        sender, receiver = rng.sample(threads, 2)
        return Bcast(athr(sender, sender.upper()), Lit(1),
                     ((athr(receiver, receiver.upper()), "x"),), Q_ALL, "k")

    def tail():
        return rng.choice([END, seq(bcast())])

    def guard():
        return Lit(rng.random() < 0.5)

    out = []
    for _ in range(count):
        at = rng.choice(threads)
        if rng.random() < 0.5:
            eta = bcast()
            c = If(guard(), at, Seq(eta, tail()), Seq(eta, tail()))
        else:
            g, r = guard(), rng.choice(threads)
            c = If(guard(), at, If(g, r, tail(), tail()), If(g, r, tail(), tail()))
        out.append(Seq(bcast(), c) if rng.random() < 0.5 else c)
    return out


def racy_family(count, seed):
    """Seeded programs of two to four session starts, the first two drawn
    on service ``a`` and the others on ``a`` or ``b``, shuffled among up to
    four communications over five threads; now and then the rest of a
    program becomes a conditional's first arm and part of it, reshuffled,
    the second.  Some starts race and some are chained."""
    rng = random.Random(seed)
    threads = "pqrst"
    pool = [athr(t, t.upper()) for t in threads]

    def start(i, svc):
        *actives, service = rng.sample(pool, rng.randint(2, 3))
        return Init(tuple(actives), (service,), svc, f"k{i}")

    def comm():
        principal, *others = rng.sample(pool, rng.randint(2, 3))
        match rng.randrange(3):
            case 0:
                return Bcast(principal, Lit(1), tuple((p, "x") for p in others), Q_ALL, "k0")
            case 1:
                return Select(principal, tuple(others), Q_ALL, "k0", "l")
        return Reduce(tuple((p, Lit(1)) for p in others), principal, "x", Q_ALL, "sum", "k0")

    def body(items):
        if not items:
            return END
        if len(items) > 1 and rng.random() < 0.15:
            other = rng.sample(items, rng.randint(1, len(items)))
            return If(Lit(True), rng.choice(threads), body(items), body(other))
        return Seq(items[0], body(items[1:]))

    out = []
    for _ in range(count):
        svcs = ["a", "a"] + [rng.choice("ab") for _ in range(rng.randint(0, 2))]
        items = [start(i, svc) for i, svc in enumerate(svcs)] + [comm() for _ in range(rng.randint(0, 4))]
        rng.shuffle(items)
        out.append(body(items))
    return out


def concat(c1: Choreography, c2: Choreography) -> Choreography:
    """Sequence two choreographies."""
    if c1 == END:
        return c2
    return map_chor(c1, lambda k: concat(k, c2))


def interleaved_corpus(count: int, seed: int = 0, per_side: int = 3) -> list[Choreography]:
    """Well-typed compositions of two sessions on disjoint namespaces.

    All cross-session interleavings of these programs are swap-congruent,
    which makes them good stress inputs for swap-related properties.
    """
    cfg_a = GenConfig(max_threads=3, max_interactions=per_side, allow_if=False,
                      namespace="")
    cfg_b = GenConfig(max_threads=3, max_interactions=per_side, allow_if=False,
                      namespace="b")
    out = []
    rng = random.Random(seed)
    while len(out) < count:
        s1, s2 = rng.randrange(1 << 30), rng.randrange(1 << 30)
        a = Generator(random.Random(s1), cfg_a).generate()
        b = Generator(random.Random(s2), cfg_b).generate()
        out.append(concat(a, b))
    return out
