"""Session types: transitions, swap closure, the judgment, label typing."""

import random

import pytest

from chorfixtures import disjoint_bcasts, sensors, typed_example
from gtype_closure import closure_steps, declared_sort, tswap_closure
from gcq.gtypes import (
    BcastT,
    BranchT,
    END_T,
    GammaEnv,
    RedT,
    ServiceBinding,
    TLabel,
    branch_t,
    check_session_only,
    gtype_roles,
    infer_gamma,
    infer_protocol,
    _lift,
)
from gcq.captypes import check_capabilities
from gcq.parser import parse
from metahelpers import Untypable, check_session, delta_step, type_label
from gcq.semantics import Configuration, step
from gcq.syntax import (
    GInitL,
    GTau,
    Lit,
    seq,
)

SENSOR_G = BcastT("M", ("S1", "S2", "S3"), "date",
                  RedT(("S1", "S2", "S3"), "M", "float", END_T))

SENSORS_BRANCH_G = branch_t("M", ("S1", "S2", "S3"),
                  {"measure": RedT(("S1", "S2", "S3"), "M", "int", END_T)})


def sensor_gamma():
    return GammaEnv({"temperature": ServiceBinding(SENSOR_G, ("S1", "S2", "S3"), ("M",))})


def sensors_branch_gamma():
    return GammaEnv({"temperature": ServiceBinding(SENSORS_BRANCH_G, ("S1", "S2", "S3"), ("M",))})


class TestTypeTransitions:
    def test_bcast_head_consumed(self):
        g = BcastT("M", ("S1", "S2"), "date", END_T)
        alpha = TLabel("bcast", ("M",), ("S1", "S2"), "date")
        assert _lift(g, alpha)[1] == END_T

    def test_end_has_no_transition(self):
        assert _lift(END_T, TLabel("bcast", ("M",), ("S1",), "int")) is None

    def test_branch_steps_to_selected_label(self):
        g = branch_t("A", ("B",), {"l1": BcastT("A", ("B",), "int", END_T), "l2": END_T})
        assert _lift(g, TLabel("sel", ("A",), ("B",), None, "l2"))[1] == END_T

    def test_branch_rejects_unknown_label(self):
        g = branch_t("A", ("B",), {"l1": END_T})
        assert _lift(g, TLabel("sel", ("A",), ("B",), None, "nope")) is None

    def test_disjoint_prefixes_commute(self):
        g = BcastT("A", ("B",), "int", RedT(("C",), "D", "int", END_T))
        stepped = _lift(g, TLabel("red", ("C",), ("D",), "int"))[1]
        assert stepped == BcastT("A", ("B",), "int", END_T)
        swapped = RedT(("C",), "D", "int", BcastT("A", ("B",), "int", END_T))
        assert swapped in tswap_closure(g)
        assert [r for _, r in closure_steps(g, TLabel("red", ("C",), ("D",), "int"))] == [stepped]

    def test_overlapping_prefixes_do_not_commute(self):
        g = BcastT("A", ("B",), "int", RedT(("B",), "A", "int", END_T))
        assert _lift(g, TLabel("red", ("B",), ("A",), "int")) is None

    def test_wildcard_sort_matches(self):
        g = BcastT("A", ("B",), "date", END_T)
        assert _lift(g, TLabel("bcast", ("A",), ("B",), None))[1] == END_T

    def test_step_residual_roles_shrink(self):
        g = SENSOR_G
        stepped = _lift(g, TLabel("bcast", ("M",), ("S1", "S2", "S3"), "date"))[1]
        assert gtype_roles(stepped) <= gtype_roles(g)

    def test_prefix_passes_a_branching(self):
        g = BcastT("A", ("B",), "int",
                   branch_t("C", ("D",), {"x": END_T, "y": RedT(("D",), "C", "int", END_T)}))
        assert _lift(g, TLabel("sel", ("C",), ("D",), None, "y"))[1] \
            == BcastT("A", ("B",), "int", RedT(("D",), "C", "int", END_T))

    def test_branching_passes_a_branching(self):
        def inner(u, v):
            return branch_t("C", ("D",), {"u": u, "v": v})
        g = branch_t("A", ("B",), {"x": inner(END_T, BcastT("A", ("B",), "int", END_T)),
                                   "y": inner(END_T, BcastT("B", ("A",), "date", END_T))})
        assert _lift(g, TLabel("sel", ("C",), ("D",), None, "v"))[1] \
            == branch_t("A", ("B",), {"x": BcastT("A", ("B",), "int", END_T),
                                      "y": BcastT("B", ("A",), "date", END_T)})

    def test_uniform_arms_hoist(self):
        tail = RedT(("B",), "A", "int", END_T)
        g = branch_t("A", ("B",), {"x": BcastT("C", ("D",), "int", END_T),
                                   "y": BcastT("C", ("D",), "int", tail)})
        alpha = TLabel("bcast", ("C",), ("D",), None)
        assert _lift(g, alpha)[1] == branch_t("A", ("B",), {"x": END_T, "y": tail})
        assert _lift(g, alpha)[0].sort == "int"

    @pytest.mark.parametrize("sort", [None, "int", "date"])
    def test_arms_of_different_sorts_do_not_hoist(self, sort):
        g = branch_t("A", ("B",), {"x": BcastT("C", ("D",), "int", END_T),
                                   "y": BcastT("C", ("D",), "date", END_T)})
        assert _lift(g, TLabel("bcast", ("C",), ("D",), sort)) is None


ROLES = ("A", "B", "C", "D")


def _random_head(rng):
    """A bcast or reduce (with an ``END_T`` continuation) or a branching
    head (a label set) over two or three of four roles, most often over
    {A, B} or {C, D}, so that heads are often disjoint."""
    if rng.random() < 0.7:
        roles = rng.sample(rng.choice((ROLES[:2], ROLES[2:])), 2)
    else:
        roles = rng.sample(ROLES, rng.choice((2, 3)))
    match rng.choice(("bcast", "red", "sel")):
        case "bcast":
            return BcastT(roles[0], tuple(roles[1:]), rng.choice(("int", "date")), END_T)
        case "red":
            return RedT(tuple(roles[:-1]), roles[-1], rng.choice(("int", "date")), END_T)
    labels = rng.choice((("x",), ("y",), ("x", "y")))
    return BranchT(roles[0], tuple(roles[1:]), tuple((l, END_T) for l in labels))


def _random_gtype(rng, size):
    """A type of at most ``size`` constructors.  One in three branchings
    gives all its arms one head (its sort redrawn one time in five), which
    is what the swaps that pass a branching need."""
    if size <= 0 or rng.random() < 0.15:
        return END_T
    head = _random_head(rng)
    if isinstance(head, (BcastT, RedT)):
        return head.replace(cont=_random_gtype(rng, size - 1))
    arms = head.branches
    share = (size - 1) // len(arms)
    if len(arms) > 1 and rng.random() < 1 / 3:
        inner = _random_head(rng)
        size_in = max(0, share - 1)

        def arm():
            if isinstance(inner, BranchT):
                share_in = size_in // len(inner.branches)
                return inner.replace(branches=tuple((l, _random_gtype(rng, share_in))
                                                     for l, _ in inner.branches))
            sort = rng.choice(("int", "date")) if rng.random() < 0.2 else inner.sort
            return inner.replace(sort=sort, cont=_random_gtype(rng, size_in))
        return head.replace(branches=tuple((l, arm()) for l, _ in arms))
    return head.replace(branches=tuple((l, _random_gtype(rng, share)) for l, _ in arms))


def _random_label(rng, g):
    """A label of one of ``g``'s constructors below its head (now and then
    of one drawn at random), with a sort and a branch label drawn at random."""
    heads = [t for t in _subtypes(g) if t != END_T] if rng.random() < 0.9 else []
    heads = heads[1:] or heads
    h = rng.choice(heads) if heads else _random_head(rng)
    sort = rng.choice((None, None, "int", "date"))
    match h:
        case BcastT(sender, receivers, _, _):
            return TLabel("bcast", (sender,), tuple(rng.sample(receivers, len(receivers))), sort)
        case RedT(senders, receiver, _, _):
            return TLabel("red", tuple(rng.sample(senders, len(senders))), (receiver,), sort)
    return TLabel("sel", (h.sender,), h.receivers, None, rng.choice(("x", "y")))


def _subtypes(g):
    yield g
    match g:
        case BcastT() | RedT():
            yield from _subtypes(g.cont)
        case BranchT():
            for _, gi in g.branches:
                yield from _subtypes(gi)


class TestAgainstTheClosure:
    """``_lift`` lifts the step to the head; the closure of swap
    variants (``tests/gtype_closure.py``) is the specification."""

    def test_random_types_and_labels(self):
        rng = random.Random(15)
        taken = 0
        for _ in range(3000):
            g = _random_gtype(rng, rng.randint(1, 6))
            alpha = _random_label(rng, g)
            steps = closure_steps(g, alpha)
            lifted = _lift(g, alpha)
            assert (lifted is not None) == bool(steps), (g, alpha)
            if not steps:
                continue
            taken += 1
            assert lifted[1] in tswap_closure(steps[0][1]), (g, alpha)
            if alpha.kind != "sel":
                any_sort = alpha.replace(sort=None)
                assert _lift(g, any_sort)[0].sort == declared_sort(g, any_sort), (g, alpha)
        assert taken >= 300


class TestSessionJudgment:
    def test_typed_example_accepted(self):
        report = check_session(sensor_gamma(), [], typed_example())
        assert report.ok, report.failures

    def test_sensors_accepted_under_branch_protocol(self):
        report = check_session(sensors_branch_gamma(), [], sensors())
        assert report.ok, report.failures

    def test_end_with_end_delta(self):
        report = check_session_only(GammaEnv(), __import__("gcq.syntax", fromlist=["END"]).END,
                                    {"k": END_T})
        assert report.ok

    def test_protocol_residue_rejected(self):
        report = check_session_only(GammaEnv(), __import__("gcq.syntax", fromlist=["END"]).END,
                                    {"k": SENSOR_G})
        assert not report.ok
        assert report.failures[0].code == "ProtocolResidue"

    def test_sort_mismatch_rejected(self):
        bad = typed_example()
        # replace the date payload with an int literal
        inter = bad.cont.inter
        bad2 = seq(bad.inter, inter.replace(expr=Lit(3)), bad.cont.cont.inter)
        report = check_session(sensor_gamma(), [], bad2)
        assert not report.ok
        assert any(f.code == "SortMismatch" for f in report.failures)

    def test_undeclared_service_rejected(self):
        report = check_session(GammaEnv(), [], typed_example())
        assert any(f.code == "ServiceNotDeclared" for f in report.failures)

    def test_disjoint_steps_in_reverse_order_accepted(self):
        prog = parse(disjoint_bcasts(9, reversed(range(9))))
        report = check_session_only(GammaEnv(prog.services), prog.chor)
        assert report.ok, report.failures

    def test_label_not_offered(self):
        gamma = GammaEnv({"temperature": ServiceBinding(
            branch_t("M", ("S1", "S2", "S3"),
                     {"other": RedT(("S1", "S2", "S3"), "M", "int", END_T)}))})
        report = check_session(gamma, [], sensors())
        assert any(f.code == "LabelNotOffered" for f in report.failures)

    # each program fails the judgment once, at its first faulty construct
    _BCAST_AB = "service s : bcast A -> (B) <int> . end;\n"
    _START_AB = "start k (s) (t1[A]) -> (t2[B]);"
    _DECLARED = ServiceBinding(BcastT("A", ("B",), "int", END_T))
    _PAYLOAD = (_BCAST_AB
                + f"choreography {{ {_START_AB} bcast k [all] t1[A].(EXPR) -> (t2[B]: x); end }}")

    @pytest.mark.parametrize("text,binding,code,reason", [
        (_BCAST_AB + "choreography { bcast k [all] t1[A].1 -> (t2[B]: x); end }", None,
         "SessionUntracked", "session 'k' has no protocol"),
        (_BCAST_AB + f"choreography {{ {_START_AB} bcast k [all] t2[A].1 -> (t1[B]: x); end }}",
         None, "RoleNotOwned", "t2 does not own role A in session k (has B)"),
        ("service s : bcast A -> (B, C) <int> . end;\n"
         f"choreography {{ {_START_AB} end }}", None,
         "RoleMismatch", "protocol roles ['A', 'B', 'C'] not covered by ['A', 'B']"),
        ("service s : end;\nchoreography { start k (s) (t1[A]) -> (t2[A]); end }", None,
         "RoleMismatch", "participant roles must be pairwise distinct"),
        (_BCAST_AB + f"choreography {{ {_START_AB} end }}", _DECLARED.replace(actives=("B",)),
         "RoleMismatch", "declared active roles ('B',) vs ('A',)"),
        (_BCAST_AB + f"choreography {{ {_START_AB} end }}", _DECLARED.replace(services=("A",)),
         "RoleMismatch", "declared service roles ('A',) vs ('B',)"),
        (f"service s : end;\nchoreography {{ {_START_AB} start m (s) (t1[A]) -> (t2[B]); end }}",
         None, "FreshnessViolation", "service threads already known: ['t2']"),
        (f"service s : end;\nchoreography {{ {_START_AB} start k (s) (t1[A]) -> (t3[B]); end }}",
         None, "FreshnessViolation", "session 'k' already tracked"),
        ("choreography { if 1 @ t1 { end } else { end } }", None,
         "SortMismatch", "guard has sort int, wanted bool"),
        ("choreography { if x @ t1 { end } else { end } }", None,
         "SortMismatch", "variable x@t1 has no declared sort"),
        (_PAYLOAD.replace("EXPR", "true + 1"), None, "SortMismatch", "sort mismatch: bool vs int"),
        (_PAYLOAD.replace("EXPR", "not 3"), None, "SortMismatch", "'not' applied to int"),
        (_PAYLOAD.replace("EXPR", "- true"), None, "SortMismatch", "negation applied to bool"),
        (_PAYLOAD.replace("EXPR", "true * false"), None, "SortMismatch", "arithmetic on bool"),
        (_PAYLOAD.replace("EXPR", "true < false"), None, "SortMismatch", "'<' on booleans"),
        (_PAYLOAD.replace("EXPR", "1 and true"), None, "SortMismatch", "boolean operator on int"),
        (_PAYLOAD.replace("EXPR", "true or 2"), None, "SortMismatch", "boolean operator on int"),
    ], ids=["untracked", "role-not-owned", "roles-unannounced", "roles-repeated",
            "declared-actives", "declared-services", "service-thread-known", "key-tracked",
            "guard-int", "guard-undeclared-var", "payload-sorts", "not-int", "negate-bool",
            "arithmetic-bool", "less-bool", "and-int", "or-int"])
    def test_each_failure_of_the_judgment(self, text, binding, code, reason):
        prog = parse(text)
        gamma = GammaEnv({"s": binding} if binding else prog.services)
        report = check_session_only(gamma, prog.chor)
        assert [(f.code, f.reason) for f in report.failures] == [(code, reason)]

    def test_separation_of_analyses(self):
        """The full judgment is exactly the conjunction of its two halves."""
        for c, gamma in [(sensors(), sensors_branch_gamma()), (typed_example(), sensor_gamma())]:
            full = check_session(gamma, [], c)
            caps = check_capabilities([], c)
            sess = check_session_only(gamma, c, {})
            assert full.ok == (caps.ok and sess.ok)


class TestLabelTyping:
    def test_bcast_label(self):
        c = typed_example()
        conf = Configuration.initial(c)
        _, c1 = step(conf)
        (label, _), = [(l, s) for l, s in
                       __import__("gcq.semantics", fromlist=["enabled"]).enabled(c1)]
        gamma = sensor_gamma().with_ownerships(
            {("tm", "k"): "M", ("t1", "k"): "S1", ("t2", "k"): "S2", ("t3", "k"): "S3"})
        key, alpha = type_label(gamma, label)
        assert key == "k"
        assert alpha == TLabel("bcast", ("M",), ("S1", "S2", "S3"), "date")
        assert delta_step({"k": SENSOR_G}, key, alpha)["k"] == RedT(("S1", "S2", "S3"), "M",
                                                                    "float", END_T)

    def test_init_and_tau_not_in_domain(self):
        with pytest.raises(Untypable):
            type_label(GammaEnv(), GTau())
        with pytest.raises(Untypable):
            type_label(GammaEnv(), GInitL((("t", "A"),), (("s", "B"),), "a", "k"))


class TestInference:
    def test_sensors_protocol_inferred(self):
        g = infer_protocol(sensors(), "k")
        assert g == SENSORS_BRANCH_G

    def test_typed_example_protocol_inferred(self):
        assert infer_protocol(typed_example(), "k") == SENSOR_G

    def test_inferred_gamma_typechecks(self):
        for c in (sensors(), typed_example()):
            gamma = infer_gamma(c)
            assert check_session(gamma, [], c).ok
