#!/usr/bin/env python3
"""Co-simulate a corpus of random well-typed choreographies and report stats."""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gcq.correspond import cosimulate  # noqa: E402
from gcq.genchor import GenConfig, corpus  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--seed", type=int, default=23)
    ap.add_argument("--max-threads", type=int, default=4)
    ap.add_argument("--max-interactions", type=int, default=5)
    args = ap.parse_args()

    cfg = GenConfig(max_threads=args.max_threads, max_interactions=args.max_interactions)
    progs = corpus(args.count, seed=args.seed, config=cfg)
    verdicts = {}
    pairs = 0
    t0 = time.time()
    for i, chor in enumerate(progs):
        v = cosimulate(chor)
        verdicts[v.status] = verdicts.get(v.status, 0) + 1
        pairs += v.pairs_explored
        if not v.passed:
            print(f"  #{i}: {v.status}: {v.detail}")
    elapsed = time.time() - t0
    print(f"{args.count} programs, {pairs} state pairs, {elapsed:.1f}s")
    for status, n in sorted(verdicts.items()):
        print(f"  {status}: {n}")
    return 0 if verdicts.get("Pass") == args.count else 1


if __name__ == "__main__":
    sys.exit(main())
