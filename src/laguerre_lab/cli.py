"""Command-line surface: ``lab <suite> [flags]``.

Runs one suite (or ``all``), prints a per-suite summary, optionally
writes the reports as JSON or CSV, and exits 0 when every residual
passes, 1 on any failure, 2 on configuration/domain errors (an output
path that cannot be written among them), 3 on numerical breakdowns
(lost precision, degenerate brackets, non-convergence).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from mpmath import mp

from .config import DEFAULTS, RunConfig, parse_config
from .errors import ConfigError, DomainError, NumericalError
from .params import to_mpf
from .registry import SUITE_NAMES, validate_ids
from .reports import render


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lab",
        description="residual-verification lab for deformed Laguerre Hankel determinants",
    )
    ap.add_argument("suites", metavar="suite",
                    help="suite name or 'all': %s" % ", ".join(SUITE_NAMES))
    ap.add_argument("--alpha", help="weight exponent alpha (> -1)")
    ap.add_argument("--t1", help="first deformation parameter (nonzero)")
    ap.add_argument("--t2", help="second deformation parameter (> 0 at m = 2)")
    ap.add_argument("--t3", help="third deformation parameter (enables m = 3)")
    ap.add_argument("--n-max", dest="n_max", help="largest polynomial index checked")
    ap.add_argument("--digits", help="working decimal precision (>= 50)")
    ap.add_argument("--s1", help="double-scaling coordinate s1")
    ap.add_argument("--s2", help="double-scaling coordinate s2 (> 0)")
    ap.add_argument("--n-list", dest="n_list", help="comma list of scaling indices")
    ap.add_argument("--out", help="write reports to this path")
    ap.add_argument("--format", choices=("csv", "json"), help="output format")
    ap.add_argument("--config", help="key = value configuration file")
    ap.add_argument("--cache-dir", dest="cache_dir", help="table cache directory")
    ap.add_argument("--table-out", dest="table_out",
                    help="also write the recurrence table of the configured point")
    ap.add_argument("--sweep-csv", dest="sweep_csv",
                    help="scaling suite: write the per-n sweep as CSV plus a JSON limits block")
    ap.add_argument("--density-profile", dest="density_profile",
                    help="equilibrium suite: write a CSV density profile")
    return ap


def config_from_args(args) -> RunConfig:
    # each flag's dest is its config key
    cfg = parse_config(args.config, {key: getattr(args, key) for key in DEFAULTS})
    for flag, path, suite in (("--sweep-csv", args.sweep_csv, "scaling"),
                              ("--density-profile", args.density_profile, "equilibrium")):
        if path and suite not in cfg.active_suites:
            raise ConfigError(f"{flag} needs the {suite} suite, which this run does not include")
    return cfg


def reports_document(reports, timestamp=None) -> dict:
    return {"reports": [r.as_dict() for r in reports],
            "metadata": {} if timestamp is None else {"timestamp": timestamp}}


def write_reports_csv(reports, path: str):
    """The reports as one CSV with a single header row (report JSON is
    ``reports_document``, written by ``run``)."""
    import csv  # in each CSV writer, so that a JSON run never loads it

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["suite", "id", "point", "residual", "tolerance", "pass"])
        for rep in reports:
            writer.writerows(rep.csv_rows())


def write_table(tab, fmt: str, path: str):
    """A recurrence table as JSON or CSV; decimal strings, stable key order."""
    dps = tab.prec.work_dps + 10
    with mp.workdps(dps + 10):
        rows = []
        for n in range(tab.N + 1):
            rows.append({
                "n": n,
                "h": mp.nstr(tab.h[n], dps, strip_zeros=True),
                "alpha": mp.nstr(tab.alpha(n), dps, strip_zeros=True) if n < tab.N else "",
                "beta": mp.nstr(tab.beta(n), dps, strip_zeros=True) if n >= 1 else "",
                "p": mp.nstr(tab.p(n), dps, strip_zeros=True),
            })
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump({"table": rows}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["n", "h", "alpha", "beta", "p"])
            writer.writeheader()
            writer.writerows(rows)


def write_sweep(grid, path: str):
    """The sweep of a ``scaling.ScaledGrid``: the per-n rows (n, n R_n,
    n R_n*, H_n) as CSV at path, and the limits with their errors as JSON
    at path + ".limits.json"."""
    import csv

    seqs = grid.at()
    limits = {}
    for q, v in seqs.items():
        limits[q] = render(v.limit)
        limits["err_" + q] = render(v.err)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "x", "y", "H"])
        for n, x, y, H in zip(grid.n_list, seqs["R"].seq, seqs["Rstar"].seq, seqs["H"].seq):
            writer.writerow([n, render(x), render(y), render(H)])
    with open(path + ".limits.json", "w") as fh:
        json.dump({"limits": limits}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_density_profile(sol, path: str, points: int):
    """The equilibrium density of sol as an "x, sigma" CSV at path, at
    x = a + (b - a) k / points for k = 1..points-1, at sol's precision."""
    import csv

    from .equilibrium import densities

    with mp.workdps(sol.prec.work_dps):
        xs = [sol.a + (sol.b - sol.a) * k / to_mpf(points) for k in range(1, points)]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "sigma"])
            writer.writerows([render(x), render(d)] for x, d in zip(xs, densities(sol, xs)))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (ConfigError, DomainError, OSError) as exc:
        # OSError: a path that cannot be written; exit 1 is for residual failures
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def run(args) -> int:
    """``main`` without its error handling: 1 if a residual failed, else 0."""
    from .suites import run_suite, scaled_grid

    cfg = config_from_args(args)
    # held here to the end, the sweep's grid is the scaling suite's own
    # (``suites.scaled_grid``): the sweep reads no table the suite read
    held = scaled_grid(cfg, cfg.s1, cfg.s2) if args.sweep_csv else None
    reports = run_suite(cfg)
    extras(cfg, args)
    failed = 0
    for rep in reports:
        unknown = validate_ids(rep.suite, rep.entries)
        if unknown:
            print(f"{rep.suite}: ids missing from registry: {unknown}", file=sys.stderr)
            failed += 1
        print(f"{rep.suite}: {len(rep.entries)} checks, {rep.n_failed} failed")
        for c in rep.entries:
            if not c.ok:
                print(f"  FAIL {c.id} @ {c.point}: {render(c.residual)} > {render(c.tol)}")
        failed += rep.n_failed

    if cfg.out:
        if cfg.format == "json":
            doc = reports_document(reports, timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
            with open(cfg.out, "w") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            write_reports_csv(reports, cfg.out)
        print(f"wrote {cfg.out}")
    return 1 if failed else 0


def extras(cfg: RunConfig, args):
    """Optional table / sweep / density artifacts next to the reports."""
    if args.table_out:
        from .cache import cached_recurrence_table

        tab = cached_recurrence_table(cfg.params, cfg.n_max, cfg.prec,
                                      cache_dir=cfg.cache_dir)
        write_table(tab, cfg.format, args.table_out)
    if args.sweep_csv:
        from .suites import scaled_grid

        write_sweep(scaled_grid(cfg, cfg.s1, cfg.s2), args.sweep_csv)
    if args.density_profile:
        from .suites import equilibrium_solution

        write_density_profile(equilibrium_solution(cfg), args.density_profile, 200)


if __name__ == "__main__":
    sys.exit(main())
