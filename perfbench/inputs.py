"""Inputs of the verdict benchmark and the answer each verdict must give.

Every expected answer here is derived from the construction of the input,
never from a stored copy of the toolchain's output:

* a generated corpus program is well-typed by construction, so ``check``
  accepts it and, by the projection-correctness and availability-by-design
  results, ``cosim`` and ``availability`` pass;
* an n-sensor ``select all; reduce q`` instance co-simulates in
  ``3 + |subsets satisfying q|`` global states (the start, the state after
  the session start, the state after the selection, and one state per
  reduce outcome), that is 4 for ``all`` and n + 4 for (n-1)/n;
* the golden matrix and the n-sensor twins follow the capability argument
  given in each golden file's comment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from gcq import genchor
from gcq.genchor import GenConfig
from gcq.gtypes import infer_gamma
from gcq.parser import SourceProgram, pretty_print_program
from gcq.syntax import Choreography

# The scale of scripts/cosim_corpus.py and acceptance criterion 6, whose
# 50-program corpus (seed 23) is the first half of this one.  The programs
# are fixed: between 100-program corpora drawn from different seeds, the
# total time spreads 17% and the median verdict 20% from make-up alone.
CORPUS_CONFIG = GenConfig(max_threads=4, max_interactions=5)
CORPUS_SEED = 23
CORPUS_SIZE = 100

SENSOR_NS = range(2, 6)   # 3..6 threads: past genchor's 4-thread pool
CHECK_NS = range(2, 8)    # any/all refutation: 2^n context splits
AGGREGATES = ("avg", "max", "min", "sum")

# Hand-derived golden matrix: file -> (needs --lax-select, failing analyses).
GOLDEN_MATRIX = {
    "sensors_all": (False, frozenset()),
    "sensors_23": (False, frozenset()),
    "sensors_typed": (False, frozenset()),
    "sensors_any_all": (True, frozenset({"capabilities"})),
    "sensors_blocking": (True, frozenset({"capabilities"})),
    "linearity_race": (False, frozenset({"linearity"})),
}
ANALYSES = ("capabilities", "session", "linearity")


@dataclass(frozen=True)
class Step:
    """One verdict: a ``gcq`` command or a mutation check, and its answer.

    ``kind`` is ``check``, ``cosim``, ``availability`` (run through
    ``gcq.cli.main``) or ``drop_receiver`` / ``swap_select_label`` (run
    through ``gcq.correspond``).  For ``check`` the answer is the set of
    analyses that must fail (empty: accepted) and, if set, the only failure
    code allowed; otherwise it is a verdict status and, if set, the exact
    ``pairs_explored``.
    """

    kind: str
    flags: tuple[str, ...] = ()
    status: str = "Pass"
    pairs: int | None = None
    failing: frozenset = frozenset()
    code: str | None = None


@dataclass(frozen=True)
class Item:
    """One input program and the verdicts that verify it."""

    name: str
    text: str
    steps: tuple[Step, ...]
    term: Choreography | None = None   # the generated term the text must parse to


# ---------------------------------------------------------------------------
# corpus


def program_text(c: Choreography) -> str:
    """The program with its inferred protocol declarations."""
    return pretty_print_program(SourceProgram(infer_gamma(c).services, {}, c))


def corpus_items(seed: int, size: int = CORPUS_SIZE) -> list[Item]:
    """The fixed corpus, in an order drawn from the seed."""
    programs = genchor.corpus(size, seed=CORPUS_SEED, config=CORPUS_CONFIG)
    steps = (Step("check"), Step("cosim"), Step("availability"))
    order = list(range(size))
    random.Random(seed).shuffle(order)
    return [Item(f"corpus{i:03d}", program_text(programs[i]), steps, programs[i])
            for i in order]


# ---------------------------------------------------------------------------
# n-sensor family


def sensor_text(n: int, select_q: str, reduce_q: str, readings: list[int], op: str,
                reduce_over: list[int] | None = None) -> str:
    """The golden temperature protocol with ``n`` sensors t1..tn and monitor t0."""
    sensors = range(1, n + 1)
    over = list(sensors) if reduce_over is None else reduce_over
    roles = ",".join(f"S{i}" for i in sensors)
    atoms = (["Acc0", "Ms0", "E0"] + [f"Acc{i}" for i in sensors] + [f"Ms{i}" for i in sensors]
             + [f"E{i}" for i in over])
    start = ", ".join(f"t{i}[S{i}]{{Acc{i}}}" for i in sensors)
    select = ", ".join(f"t{i}[S{i}]{{Acc{i};Ms{i}}}" for i in sensors)
    reduce = ", ".join(f"t{i}[S{i}]{{Ms{i};E{i}}}.{readings[i - 1]}" for i in over)
    return "\n".join([
        f"service temperature : branch M -> ({roles}) "
        f"{{ measure: reduce ({','.join(f'S{i}' for i in over)}) -> M <int> . end }};",
        f"caps sensors = {{{', '.join(atoms)}}};",
        "",
        "choreography {",
        f"  start k (temperature) ({start}) -> (t0[M]{{Acc0}});",
        f"  select k [{select_q}] t0[M]{{Acc0;Ms0}} -> ({select}) : measure;",
        f"  reduce k [{reduce_q}] {op} ({reduce}) -> t0[M]{{Ms0;E0}} : xm;",
        "  end",
        "}",
        ""])


def _sensor_values(rng: random.Random, n: int) -> tuple[list[int], str]:
    return [rng.randint(-9, 9) for _ in range(n)], rng.choice(AGGREGATES)


def sensor_family_items(seed: int) -> list[Item]:
    """Both qualities and the blocking variant for each n.

    Verifying the ``all`` instance includes both mutation checks of it.

    The seed draws the readings and the aggregation, which leave the state
    spaces unchanged.
    """
    rng = random.Random(seed)
    items = []
    for n in SENSOR_NS:
        readings, op = _sensor_values(rng, n)
        items.append(Item(f"sensors{n}_all", sensor_text(n, "all", "all", readings, op),
                          (Step("cosim", pairs=4), Step("availability"),
                           Step("drop_receiver", status="CounterexampleFound"),
                           Step("swap_select_label", status="CounterexampleFound"))))
        items.append(Item(f"sensors{n}_{n - 1}of{n}",
                          sensor_text(n, "all", f"{n - 1}/{n}", readings, op),
                          (Step("cosim", pairs=n + 4), Step("availability"))))
        # select any may leave out every sensor the reduce draws on
        blocking = sensor_text(n, "any", "any", readings, op,
                               reduce_over=[i for i in range(1, n + 1) if i != 2])
        items.append(Item(f"sensors{n}_blocking", blocking,
                          (Step("availability", ("--lax-select",), status="StuckNetworkFound"),)))
    return items


# ---------------------------------------------------------------------------
# check family


def check_family_items(seed: int, golden_dir: Path) -> list[Item]:
    """The golden matrix, then the n-sensor any/all and all/(n-1)/n twins."""
    items = []
    for name, (lax, failing) in GOLDEN_MATRIX.items():
        text = (golden_dir / f"{name}.gcq").read_text(encoding="utf-8")
        flags = ("--lax-select",) if lax else ()
        items.append(Item(name, text, (Step("check", flags, failing=failing),)))
    rng = random.Random(seed)
    for n in CHECK_NS:
        readings, op = _sensor_values(rng, n)
        items.append(Item(f"sensors{n}_any_all", sensor_text(n, "any", "all", readings, op),
                          (Step("check", ("--lax-select",), failing=frozenset({"capabilities"}),
                                code="CapabilityUnderivable"),)))
        items.append(Item(f"sensors{n}_all_{n - 1}of{n}",
                          sensor_text(n, "all", f"{n - 1}/{n}", readings, op),
                          (Step("check"),)))
    return items
