#!/usr/bin/env python3
"""Sweep the double-scaling grid and tabulate extrapolated limits.

For each (s1, s2) on the grid, builds the scaled sequences over the
given n-list, extrapolates, and prints/saves the limits with their
error estimates.  Writes one CSV per grid point when --out-dir is set.

    python scripts/sweep_double_scaling.py --grid 0.5,1,2 --n-list 8,12,16,24
"""

import argparse
import json
from pathlib import Path

from mpmath import mp

from laguerre_lab.cli import write_sweep
from laguerre_lab.params import PrecisionContext
from laguerre_lab.reports import render
from laguerre_lab.scaling import ScaledGrid, convergence_slope


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default="0.5,1,2",
                    help="comma list of values; the sweep runs the tensor "
                         "grid plus mirrored negative s1")
    ap.add_argument("--n-list", default="8,12,16,24")
    ap.add_argument("--alpha", default="0.5")
    ap.add_argument("--digits", type=int, default=60)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args(argv)

    vals = [v.strip() for v in args.grid.split(",") if v.strip()]
    n_list = tuple(int(v) for v in args.n_list.split(","))
    prec = PrecisionContext(digits=args.digits)
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    points = [(s1, s2) for s1 in vals for s2 in vals]
    points += [("-" + s1, s2) for s1, s2 in points]
    print(f"{'s1':>6} {'s2':>6} {'R':>14} {'R*':>14} {'H':>14} {'slope':>8}")
    for s1, s2 in points:
        grid = ScaledGrid(s1, s2, n_list, prec, alpha=args.alpha)
        seqs = grid.at()
        with mp.workdps(30):
            slope = convergence_slope(grid)
            cells = " ".join(f"{render(seqs[q].limit)[:14]:>14}" for q in ("R", "Rstar", "H"))
            print(f"{s1:>6} {s2:>6} {cells} {mp.nstr(slope, 4):>8}")
        if out_dir:
            stem = out_dir / f"sweep_s1={s1}_s2={s2}"
            write_sweep(grid, str(stem) + ".csv")
    if out_dir:
        meta = {"grid": vals, "n_list": list(n_list), "alpha": args.alpha,
                "digits": args.digits}
        (out_dir / "sweep_meta.json").write_text(json.dumps(meta, indent=2) + "\n")


if __name__ == "__main__":
    main()
