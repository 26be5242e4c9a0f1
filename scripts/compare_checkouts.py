#!/usr/bin/env python3
"""Compare two checkouts of the lab bit for bit: reports and table files.

In each checkout it runs ``lab ARGS`` cold and then warm, in one fresh
temporary cache per checkout, each run a fresh process that imports the
lab from that checkout's ``src/``.  It prints whether the cold reports,
and the warm ones, are equal apart from ``metadata.timestamp``, how many
cache files are in the parent's cache only, in the change's only, or in
both with other bytes (up to ten of them by name, with their side), and
each run's exit code, peak RSS and CPU seconds.  It exits 1 on any
difference in bits (or a run that writes no report), else 0.

Peak RSS is the child's ``ru_maxrss``.  On Linux a child started by vfork
and exec begins with its launcher's peak RSS there, so this script reads
no report and no cache file until all four runs are done: it holds none
of their bytes (2.8 MB for the 444 tables of ``lab all``) while a run is
measured.  A child still reads at least this script's own peak.

CPU seconds are the child's ``ru_utime + ru_stime``, from the same
``os.wait4``: user and system time of one process, so a busy host moves
them less than wall time.  One invocation gives one pair of
fresh-process CPU times per run kind, so n invocations give the n pairs
and the spread that a speed claim needs; one pair alone resolves no
difference of a few per cent.

Each run gets its own empty ``PYTHONPYCACHEPREFIX``, so it finds no
bytecode and compiles every module from source (the lab's and its
dependencies'), as a fresh checkout does.  Without it a side could read
``__pycache__`` files that the other side does not have; and where
``PYTHONDONTWRITEBYTECODE`` is set, a side whose modules changed since
their bytecode was written compiles them on every run, and its peak RSS
reads higher for that alone.

    python scripts/compare_checkouts.py PARENT CHANGE
    python scripts/compare_checkouts.py PARENT CHANGE moments --digits 60
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run_lab(checkout: Path, lab_args: list, cache: Path, report: Path, pycache: Path) -> tuple:
    """(exit code, peak RSS in MB, CPU seconds) of ``lab lab_args`` from
    checkout's src/, writing its JSON report to report, with the empty
    directory pycache as its bytecode cache."""
    env = {k: v for k, v in os.environ.items() if k != "LAB_CACHE_DIR"}
    env["PYTHONPATH"] = str(checkout / "src")
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.Popen(
        [sys.executable, "-m", "laguerre_lab.cli", *lab_args, "--cache-dir", str(cache),
         "--out", str(report), "--format", "json"],
        env=env, cwd=report.parent, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


def report_body(path: Path):
    """The report document without its timestamp, or None if there is none."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    doc.get("metadata", {}).pop("timestamp", None)
    return doc


def cache_files(cache: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(cache.iterdir())} if cache.exists() else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("lab_args", nargs=argparse.REMAINDER,
                    help="the lab arguments (default: all)")
    args = ap.parse_args(argv)
    lab_args = args.lab_args or ["all"]

    with tempfile.TemporaryDirectory() as tmp:
        sides = (("parent", args.parent), ("change", args.change))
        for side, checkout in sides:
            work = Path(tmp) / side
            work.mkdir()
            for run in ("cold", "warm"):
                pycache = work / f"{run}-pycache"
                pycache.mkdir()
                code, rss, cpu = run_lab(checkout.resolve(), lab_args, work / "cache",
                                         work / f"{run}.json", pycache)
                print(f"{side} {run}: exit {code}, peak RSS {rss:.2f} MB, CPU {cpu:.3f} s")
        # read only now, so that no run starts with these bytes in its peak RSS
        reports = {(side, run): report_body(Path(tmp) / side / f"{run}.json")
                   for side, _ in sides for run in ("cold", "warm")}
        files = {side: cache_files(Path(tmp) / side / "cache") for side, _ in sides}

        same = True
        for run in ("cold", "warm"):
            a, b = reports["parent", run], reports["change", run]
            equal = a is not None and a == b
            same &= equal
            print(f"{run} reports equal apart from the timestamp: {'yes' if equal else 'NO'}")
        a, b = files["parent"], files["change"]
        side = {name: "parent only" for name in a.keys() - b.keys()}
        side.update((name, "change only") for name in b.keys() - a.keys())
        side.update((name, "bytes differ") for name in a.keys() & b.keys() if a[name] != b[name])
        same &= not side
        counts = ", ".join(f"{list(side.values()).count(k)} {k}"
                           for k in ("parent only", "change only", "bytes differ"))
        print(f"cache files: {len(a)} and {len(b)}, {counts}")
        for name in sorted(side)[:10]:
            print(f"  {name}: {side[name]}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
