#!/usr/bin/env python3
"""Time both ways of summing tension per census block, and the rule's pick.

For each space and each of its first two blocks, prints the median time
of ``_Weigher.tensions`` (the level count) and of the word-by-word sum of
2^w over the block's fields, in alternating runs, their ratio, and
whether ``_Weigher.by_levels`` picks the level count.  ``LEVEL_BITS`` was
set from this table:

    PYTHONPATH=src python scripts/level_crossover.py
    PYTHONPATH=src python scripts/level_crossover.py 2,13,6 1,66,2
"""

import statistics
import sys
import time

from eqgrass import schubert

SPACES = [(3, 6, 3), (3, 7, 2), (4, 8, 2), (4, 8, 3), (2, 11, 5), (2, 13, 6), (4, 12, 2),
          (2, 20, 3), (1, 30, 1), (1, 60, 2), (1, 64, 2), (1, 66, 2), (1, 80, 2), (2, 30, 2),
          (1, 300, 1)]
RUNS = 15


def times(census, n, weights):
    """Median seconds of the level count and of the word-by-word sum."""
    ways = (lambda: census.tensions(n, weights),
            lambda: [sum(map(census.power, ws)) for ws in zip(*census.columns(n, weights))])
    runs = ([], [])
    for i in range(RUNS):
        for way in (0, 1) if i % 2 else (1, 0):
            began = time.perf_counter()
            ways[way]()
            runs[way].append(time.perf_counter() - began)
    return [statistics.median(r) for r in runs]


def main(argv):
    spaces = [tuple(map(int, a.split(","))) for a in argv] or SPACES
    print("space      block  words  levels  cells  f  level_ms  word_ms  word/level  by_levels")
    for space in spaces:
        census = schubert._census(*space)
        for block, (n, weights) in zip(range(2), census.blocks()):
            level, word = times(census, n, weights)
            print(f"{str(space):11}{block:5}{n:7}{census.top:8}{len(census.cells):7}{census.f:3}"
                  f"{level * 1e3:10.3f}{word * 1e3:9.3f}{word / level:12.2f}  {census.by_levels(n)}")


if __name__ == "__main__":
    main(sys.argv[1:])
