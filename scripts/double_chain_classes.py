#!/usr/bin/env python3
"""Drawing classes of every double chain up to a size limit.

A class is one combinatorial structure, rooted at the hull, and its size
is the number of triangulations of the point set that draw it.  For each
double chain t+l with 2 <= t <= l (the mirror image l+t gives the same
counts) the table shows:

- the number of triangulations, checked against the closed form
  C(t-2) * C(l-2) * binom(t+l-2, t-1), with C the Catalan numbers;
- the number of classes;
- the largest class, the most drawings any one structure has on the
  set, and its per-point rate largest^(1/(t+l));
- the number of polygonalizations.

A row whose count differs from the closed form is flagged MISMATCH, and
the exit status is then 1.
"""

import argparse
from math import comb

from redraw.drawings import (
    classify_drawings,
    count_geometric_triangulations,
    count_polygonalizations,
)
from redraw.pointsets import gen_double_chain


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-points", type=int, default=12)
    args = ap.parse_args()

    bad = False
    print(f"{'t+l':>6} {'triangulations':>14} {'classes':>8} {'largest':>8} "
          f"{'rate':>9} {'polygons':>9}")
    for n in range(4, args.max_points + 1):
        for t in range(2, n // 2 + 1):
            l = n - t
            ps = gen_double_chain(t, l)
            tri = count_geometric_triangulations(ps)
            hist = classify_drawings(ps)
            largest = max(hist.values())
            polygons = count_polygonalizations(ps)
            closed = catalan(t - 2) * catalan(l - 2) * comb(t + l - 2, t - 1)
            flag = "" if tri == closed else f"  MISMATCH (closed form {closed})"
            bad = bad or bool(flag)
            print(f"{t:>3}+{l:<2} {tri:>14} {len(hist):>8} {largest:>8} "
                  f"{largest ** (1 / n):>9.6f} {polygons:>9}{flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
