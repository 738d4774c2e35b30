"""Tests of the benchmark's own inputs and correctness checks, at small sizes.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import inputs  # noqa: E402
import run  # noqa: E402
from gcq.correspond import availability_check, cosimulate  # noqa: E402
from gcq.parser import parse  # noqa: E402
from gcq.schedule import TolerantFailure  # noqa: E402
from gcq.semantics import ALWAYS  # noqa: E402
from gcq.syntax import alpha_equal, free_names, quality_subsets  # noqa: E402

SMALL_NS = (2, 3)


def assert_expected(item, tmp_path):
    path = tmp_path / f"{item.name}.gcq"
    path.write_text(item.text, encoding="utf-8")
    for step in item.steps:
        code, out = run.run_step(step, path, item.text)
        assert run.wrong_answer(step, code, out) is None, (item.name, step, out)


def small(items, ns=SMALL_NS):
    return [it for it in items if any(it.name.startswith(f"sensors{n}_") for n in ns)]


def test_golden_matrix(tmp_path):
    golden = [it for it in inputs.check_family_items(0, HERE.parent / "golden")
              if it.name in inputs.GOLDEN_MATRIX]
    assert len(golden) == 6
    for item in golden:
        assert_expected(item, tmp_path)


def test_check_twins(tmp_path):
    twins = small(inputs.check_family_items(0, HERE.parent / "golden"), ns=(2, 3, 4))
    assert len(twins) == 6
    for item in twins:
        assert_expected(item, tmp_path)


@pytest.mark.parametrize("n", SMALL_NS)
def test_pairs_explored_hand_count(n):
    """3 global states before the reduce, then one per satisfying subset."""
    readings = list(range(n))
    sensors = tuple(f"t{i}" for i in range(1, n + 1))
    for q, count in (("all", 4), (f"{n - 1}/{n}", n + 4), ("any", 3 + 2 ** n - 1)):
        chor = parse(inputs.sensor_text(n, "all", q, readings, "avg")).chor
        subsets = quality_subsets(chor.cont.cont.inter.quality, sensors)
        assert 3 + len(subsets) == count
        assert cosimulate(chor).pairs_explored == count


def test_sensor_family_answers(tmp_path):
    items = small(inputs.sensor_family_items(0))
    assert len(items) == 6
    for item in items:
        assert_expected(item, tmp_path)


def test_corpus_round_trip_and_order(tmp_path):
    items = inputs.corpus_items(5, size=12)
    assert inputs.corpus_items(5, size=12) == items
    assert sorted(it.name for it in items) == [f"corpus{i:03d}" for i in range(12)]
    assert [it.name for it in inputs.corpus_items(6, size=12)] != [it.name for it in items]
    for item in items:
        assert alpha_equal(parse(item.text).chor, item.term)
    for item in items[:4]:
        assert_expected(item, tmp_path)


def searched_inputs():
    """The whole corpus and the sensor family up to four sensors."""
    chors = [item.term for item in inputs.corpus_items(0)]
    for item in small(inputs.sensor_family_items(0), ns=(2, 3, 4)):
        if "blocking" not in item.name:
            chors.append(parse(item.text).chor)
    return chors


def test_bounds_do_not_cut():
    """Doubling the default bounds leaves every explored count unchanged.

    ``availability_check`` returns Pass when its bound cuts, so a Pass is
    only exhaustive if a larger bound explores nothing more.
    """
    for chor in searched_inputs():
        assert cosimulate(chor, bound=32).pairs_explored == cosimulate(chor, bound=64).pairs_explored
        oracles = [ALWAYS] + [TolerantFailure(t) for t in sorted(free_names(chor).threads)]
        assert (availability_check(chor, oracles, bound=64).pairs_explored
                == availability_check(chor, oracles, bound=128).pairs_explored)


def test_wrong_answers_are_caught():
    passed = json.dumps({"status": "Pass", "detail": "", "pairs_explored": 5})
    assert run.wrong_answer(inputs.Step("cosim", pairs=5), 0, passed) is None
    assert run.wrong_answer(inputs.Step("cosim", pairs=4), 0, passed)
    assert run.wrong_answer(inputs.Step("cosim", status="CounterexampleFound"), 0, passed)
    assert run.wrong_answer(inputs.Step("cosim"), 1, passed)
    accepted = json.dumps({a: {"ok": True, "failures": []} for a in inputs.ANALYSES})
    assert run.wrong_answer(inputs.Step("check"), 0, accepted) is None
    assert run.wrong_answer(inputs.Step("check", failing=frozenset({"linearity"})), 1, accepted)


def test_tail_has_ten_values_above():
    values = [float(v) for v in range(1, 151)]
    p, value = run.tail(values)
    assert p == 93 and sum(v > value for v in values) == 10
    assert run.tail(values[:39]) is None
