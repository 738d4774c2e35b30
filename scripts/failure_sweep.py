#!/usr/bin/env python3
"""Completion rates of the tolerant sensor protocol under random failures.

Runs the projected network of the 2/3-reduce protocol under Bernoulli
availability at several probabilities and reports how many runs complete.
The all-quality protocol is swept alongside for contrast.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from chorfixtures import sensors  # noqa: E402
from gcq.netsem import net_run  # noqa: E402
from gcq.projection import epp  # noqa: E402
from gcq.schedule import BernoulliOracle  # noqa: E402
from gcq.syntax import q_ratio  # noqa: E402

RUNS = 40
PS = (1.0, 0.95, 0.9, 0.8, 0.6)


def sweep(name, chor):
    net = epp(chor)
    print(f"\n{name}")
    print(f"{'p':>5} {'completed':>10} {'stuck':>6} {'budget':>7}")
    for p in PS:
        tally = {"Completed": 0, "Stuck": 0, "Budget": 0}
        for seed in range(RUNS):
            oracle = BernoulliOracle(p, seed)
            trace = net_run(net, oracle=oracle, policy=seed, max_steps=200)
            tally[trace.verdict] += 1
        print(f"{p:>5} {tally['Completed']:>10} {tally['Stuck']:>6} {tally['Budget']:>7}")


def main():
    sweep("reduce tolerates one absent sensor (q2 = 2/3)", sensors(q2=q_ratio(2, 3)))
    sweep("reduce requires all sensors (q2 = all)", sensors())


if __name__ == "__main__":
    main()
