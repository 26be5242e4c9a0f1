#!/usr/bin/env python3
"""Print the auxiliary quantities along n by both routes.

Shows, at one parameter point (m = 2 or m = 3), the auxiliary row from
the moment table (the integral route) next to the difference-system
iteration, with the worst pairwise deviation -- a quick
cross-representation sanity sweep.

    python scripts/aux_table.py --alpha 0.5 --t 0.3,0.2 --n-max 10
"""

import argparse

from mpmath import mp

from laguerre_lab.ladder import aux_rows, iterate_difference_system
from laguerre_lab.orthopoly import recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", default="0.5")
    ap.add_argument("--t", default="0.3,0.2")
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--digits", type=int, default=120)
    args = ap.parse_args(argv)

    params = WeightParams(args.alpha, [v.strip() for v in args.t.split(",")])
    if params.m not in (2, 3):
        raise SystemExit("iteration route covers m = 2 and m = 3")
    prec = PrecisionContext(digits=args.digits)
    tab = recurrence_table(params, args.n_max + 1, prec)

    with mp.workdps(prec.work_dps):
        integral = [row.R + row.r for row in aux_rows(tab, args.n_max)]
        iterated = [row.R + row.r for row in
                    iterate_difference_system(tab, args.n_max, prec)]
        names = ("R", "R*", "R^")[:params.m] + ("r", "r*", "r^")[:params.m]

        header = f"{'n':>3} " + " ".join(f"{v:>16}" for v in names) + f" {'devmax':>10}"
        print(header)
        worst = mp.mpf(0)
        for n, (row_i, row_d) in enumerate(zip(integral, iterated)):
            dev = max(abs(a - b) for a, b in zip(row_i, row_d))
            worst = max(worst, dev)
            cells = " ".join(f"{mp.nstr(v, 12):>16}" for v in row_i)
            print(f"{n:>3} {cells} {mp.nstr(dev, 3):>10}")
        print(f"worst integral-vs-iteration deviation: {mp.nstr(worst, 5)}")


if __name__ == "__main__":
    main()
