#!/usr/bin/env python3
"""Count drawings of the one-ring chain pair on every 12-point double chain.

Runs both counting backends on each (t, l) split and prints a row per
split: the split, the drawing count, the total number of triangulations
of the point set, and wall time.
"""

import argparse
import time

from redraw.comb import build_k_nested_double_chain
from redraw.drawings import count_drawings, count_geometric_triangulations
from redraw.pointsets import gen_double_chain


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    t1 = build_k_nested_double_chain(1)
    m = t1.num_vertices
    print(f"{'t,l':>6} {'direct':>8} {'oracle':>8} {'total':>8} {'secs':>7}")
    for t in range(m - 3, 2, -1):
        l = m - t
        ps = gen_double_chain(t, l)
        tic = time.monotonic()
        d = count_drawings(t1, ps, backend="direct")[0]
        o = count_drawings(t1, ps, backend="oracle")[0]
        total = count_geometric_triangulations(ps)
        secs = time.monotonic() - tic
        flag = "" if d == o else "  MISMATCH"
        print(f"{t:>3},{l:<2} {d:>8} {o:>8} {total:>8} {secs:>7.2f}{flag}")


if __name__ == "__main__":
    main()
