"""Golden choreographies used across the test suite.

``sensors`` is the temperature-measurement protocol: three sensors and a
monitor start a session, the monitor collectively selects ``measure``, and
the sensors reduce their readings back with ``avg``.  ``sensors_partial`` is its
blocking variant whose reduce only involves two of the three sensors.
"""

from gcq.syntax import (
    Bcast,
    Date,
    Init,
    Lit,
    Q_ALL,
    Q_ANY,
    Reduce,
    Select,
    athr,
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
