#!/usr/bin/env python3
"""Print the auxiliary quantities along n by both routes.

Shows, at one parameter point (m = 3 with --t3, else m = 2), the
auxiliary row from the moment table (the integral route) next to the
difference-system iteration, with the worst pairwise deviation -- a
quick cross-representation sanity sweep.

    python scripts/aux_table.py --alpha 0.5 --t1 0.3 --t2 0.2 --n-max 10

The flags and their defaults are ``lab``'s (``config.DEFAULTS``); a
negative value takes the ``--t1=-0.3`` form.
"""

import argparse

from mpmath import mp

from laguerre_lab.config import DEFAULTS
from laguerre_lab.ladder import aux_rows, iterate_difference_system
from laguerre_lab.orthopoly import recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    for key in ("alpha", "t1", "t2", "t3"):
        ap.add_argument(f"--{key}", default=DEFAULTS[key])
    ap.add_argument("--n-max", type=int, default=DEFAULTS["n_max"])
    ap.add_argument("--digits", type=int, default=DEFAULTS["digits"])
    args = ap.parse_args(argv)

    t = (args.t1, args.t2) if args.t3 is None else (args.t1, args.t2, args.t3)
    params = WeightParams(args.alpha, t)
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
