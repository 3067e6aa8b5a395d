#!/usr/bin/env python3
"""Sweep Grassmannian parameters and report how many candidate answers
survive the pruned search, mirroring the published results tables.

Duality lets the sweep stay in k <= p/2 and q <= p/2.  Spaces whose
search exceeds the budget are reported as 'budget'.
"""

import argparse
import time

from eqgrass.search import DEFAULT_MAX_MODULES, DEFAULT_MAX_WORDS, Budget, solve


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-p", type=int, default=9)
    ap.add_argument("--max-modules", type=int, default=DEFAULT_MAX_MODULES)
    ap.add_argument("--max-words", type=int, default=DEFAULT_MAX_WORDS)
    args = ap.parse_args()

    budget = Budget(max_modules=args.max_modules, max_words=args.max_words)
    print(f"{'space':>14} {'pages':>6} {'cands':>7} {'answers':>8} {'secs':>7}")
    for p in range(2, args.max_p + 1):
        for k in range(1, p // 2 + 1):
            for q in range(1, p // 2 + 1):
                t0 = time.perf_counter()
                rep = solve(k, p, q, budget=budget)
                dt = time.perf_counter() - t0
                name = f"Gr{k}(R^{p},{q})"
                if rep.incomplete:
                    print(f"{name:>14} {'-':>6} {'-':>7} {'budget':>8} {dt:7.1f}")
                else:
                    print(
                        f"{name:>14} {len(rep.pages):>6} {len(rep.states):>7} "
                        f"{len(rep.survivor_indices):>8} {dt:7.1f}"
                    )


if __name__ == "__main__":
    main()
