#!/usr/bin/env python3
"""Solve the equilibrium measure and dump endpoints, the normalization
residual, the largest Lagrange-condition residual at a + (b-a) {1/4, 1/2,
3/4}, the ratio rho = (Y-X)/W at which the log potential's cosine series
falls, and a density profile.

    python scripts/equilibrium_profile.py --n 10 --alpha 1 --t1 0.3 --t2 0.2 \
        --profile density.csv
"""

import argparse
import json

from mpmath import mp

from laguerre_lab.cli import write_density_profile
from laguerre_lab.equilibrium import (
    density_normalization,
    equilibrium_condition_residual,
    solve_support,
    solve_X_equations,
)
from laguerre_lab.params import PrecisionContext, WeightParams
from laguerre_lab.reports import render


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--alpha", default="1")
    ap.add_argument("--t1", default="0.3")
    ap.add_argument("--t2", default="0.2")
    ap.add_argument("--digits", type=int, default=80)
    ap.add_argument("--points", type=int, default=200)
    ap.add_argument("--profile", default=None, help="CSV output path")
    args = ap.parse_args(argv)

    params = WeightParams(args.alpha, (args.t1, args.t2))
    prec = PrecisionContext(digits=args.digits)
    sol = solve_support(args.n, params, prec=prec)
    with mp.workdps(prec.work_dps):
        norm_res = abs(density_normalization(sol) - args.n)
        probes = [sol.a + mp.mpf(q) * (sol.b - sol.a) for q in ("0.25", "0.5", "0.75")]
        lagrange_res = max(equilibrium_condition_residual(sol, probes))
        x9, x5 = solve_X_equations(sol)
        doc = {
            "a": render(sol.a), "b": render(sol.b), "A": render(sol.A),
            "X": render(sol.X), "Y": render(sol.Y),
            "normalization_residual": render(norm_res),
            "lagrange_residual": render(lagrange_res),
            "rho": render((sol.Y - sol.X) / ((sol.b - sol.a) / 2)),
            "degree9_root": render(x9), "degree5_root": render(x5),
        }
        print(json.dumps(doc, indent=2))
        if args.profile:
            write_density_profile(sol, args.profile, args.points)
            print(f"wrote {args.profile}")


if __name__ == "__main__":
    main()
