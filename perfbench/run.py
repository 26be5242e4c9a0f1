#!/usr/bin/env python3
"""Benchmark of laguerre-lab, timed from the outside the way users run it.

Every measurement starts a fresh worker process (``worker.py``) that
imports the lab from this checkout's ``src/`` and runs
``laguerre_lab.cli.main`` once.  Workers run one after another: a closed
loop with one client and one single-threaded worker at a time.
README.md lists the workloads, the metrics and why each was chosen.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S]
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

A workload run prints its metrics by name and, as its last line, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  It exits 1 when a correctness gate or a counter
reconciliation fails.  Everything it writes goes under
``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import functools
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
#: HOME of every worker; the lab's default cache under it must stay absent
HOME = WORK / "home"
DEFAULT_CACHE = HOME / ".cache" / "laguerre-lab"

#: set-up-only workers started before each lab worker of an untraced run;
#: spread over the whole run, they see the same host speed as the lab
#: workers, and setup_s is the median of them and the lab workers' set-ups
SETUP_PER_WORKER = 8
#: the host speed the reported times are scaled to: the duration of the
#: worker's probe (``worker.probe_work``) on a host where it takes 0.2 ms
PROBE_REF_S = 200e-6
#: the vCPUs workers are pinned to, in turn, so that each run samples all
#: of them rather than whichever one the scheduler happens to prefer
CPUS = sorted(os.sched_getaffinity(0))
WORKER_TIMEOUT_S = 170
#: the untimed cold `lab all` that fills the warm-all cache takes 190-250 s
PREFILL_TIMEOUT_S = 800
#: a check whose margin log10(tol/residual) is below this is a near miss
NEAR_MISS_ORDERS = 2
#: share of the traced verify_s that the suite spans plus the report
#: write may leave uncovered (argument parsing and the summary print)
COVERAGE_SLACK = 0.02

#: what --all runs.  BENCHMARK.json declares only cold-stencil and
#: warm-all: its 4 + 22 runs per workload must fit in an hour, and three
#: workloads do not with runs long enough for a noisy host (README.md)
ALL_WORKLOADS = ("cold-stencil", "cold-scaling", "warm-all")

#: cold-stencil points (alpha; t1, t2), picked by seed % 4
STENCIL_POINTS = (
    ("1/2", "3/10", "1/5"),
    ("1/2", "-3/10", "1/5"),
    ("-1/2", "9/10", "1/20"),
    ("3/2", "1/2", "2/5"),
)

#: the harness's own declaration of each metric: name -> (unit, better);
#: the self-test checks BENCHMARK.json against it
END_TO_END = {
    "verify_ref_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
_HIGHER = {"cache.disk_hits", "cache.memo_hits", "cache.hit_ratio", "reports.min_margin_orders"}


def layer_declaration(name: str):
    """(unit, better) of a per-layer metric."""
    if name.endswith(("_s", ".s")):
        unit = "s"
    elif name.endswith(("ratio", "share")):
        unit = "ratio"
    elif name == "cache.bytes_written":
        unit = "B"
    elif name == "reports.min_margin_orders":
        unit = "orders"
    else:
        unit = "count"
    return unit, "higher" if name in _HIGHER else "lower"


@dataclass(frozen=True)
class Workload:
    name: str
    lab_args: tuple
    #: lab arguments of the untimed run that fills the cache this
    #: workload reads; None gives every worker a fresh, empty cache
    prefill: tuple | None
    point: str


def make_workload(name: str, seed: int) -> Workload:
    """The lab arguments of a workload; the seed only picks the point."""
    if name == "cold-stencil":
        alpha, t1, t2 = STENCIL_POINTS[seed % len(STENCIL_POINTS)]
        args = ("calculus", "--digits=120", f"--alpha={alpha}", f"--t1={t1}", f"--t2={t2}")
        return Workload(name, args, None, f"alpha={alpha};t1={t1};t2={t2};digits=120")
    if name == "cold-scaling":
        args = ("scaling", "--n-list=8,10", "--s1=1", "--s2=1", "--alpha=1/2")
        return Workload(name, args, None, "n_list=8,10;s1=1;s2=1;alpha=1/2")
    if name == "warm-all":
        return Workload(name, ("all",), ("all",), "default config")
    # the self-test's smoke workloads: the same code paths on `lab moments`
    if name == "smoke-cold":
        return Workload(name, ("moments",), None, "default config")
    if name == "smoke-warm":
        return Workload(name, ("moments",), ("moments",), "default config")
    raise SystemExit(f"unknown workload {name!r}")


# -- files under WORK --------------------------------------------------


@contextlib.contextmanager
def locked(name: str):
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / f"{name}.lock", "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def write_json(path: Path, obj):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digests(path: Path) -> dict:
    """sha256 of the report without its timestamp, and of each suite's part."""
    doc = json.loads(path.read_text())
    doc["metadata"].pop("timestamp", None)
    out = {"report": digest(json.dumps(doc, indent=2, sort_keys=True))}
    for rep in doc["reports"]:
        out["suite:" + rep["suite"]] = digest(json.dumps(rep, indent=2, sort_keys=True))
    return out


def check_digests(expected: dict, keys_and_values: dict, what: str) -> list:
    """Compare digests with the store (under the digests lock); record new ones."""
    problems = []
    for key, value in keys_and_values.items():
        if expected.setdefault(key, value) != value:
            problems.append(f"{what}: report differs from an earlier run ({key})")
    return problems


@functools.cache
def source_digest() -> str:
    """Short hash of the lab's sources.

    The warm cache and the stored report digests are kept per source
    version, so editing the lab between runs never compares against (or
    reads tables built by) other code.
    """
    h = hashlib.sha256()
    for path in sorted((SRC / "laguerre_lab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def store_path() -> Path:
    return WORK / f"digests-{source_digest()}.json"


def listing(path: Path) -> set:
    return set(os.listdir(path)) if path.is_dir() else set()


# -- workers -----------------------------------------------------------


def invoke(wl: Workload, run_dir: Path, idx: int, cache: Path, *,
           trace=False, setup_only=False, timeout=WORKER_TIMEOUT_S) -> dict:
    """Start one worker, wait for it, and return what it measured."""
    report = run_dir / f"report-{idx}.json"
    argv = [*wl.lab_args, f"--cache-dir={cache}", f"--out={report}", "--format=json"]
    result = run_dir / f"worker-{idx}.json"
    spec = {"argv": argv, "result": str(result), "setup_only": setup_only,
            "cpu": CPUS[idx % len(CPUS)], "trace": trace,
            "spans": str(WORK / "traces" / f"{wl.name}.spans.json")}
    env = dict(os.environ, PYTHONPATH=str(SRC), HOME=str(HOME), LAB_CACHE_DIR=str(cache))
    before = listing(cache)
    load_before = os.getloadavg()[0]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
        rc, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        rc, err = None, f"worker killed after {timeout} s"
    out = {"wall_s": time.perf_counter() - t0, "load_before": load_before,
           "load_after": os.getloadavg()[0], "worker_rc": rc}
    if rc == 0:
        out.update(json.loads(result.read_text()))
        if "probe_verify" in out:
            out["probe_verify_s"] = probe_time(out.pop("probe_verify"))
    else:
        out["stderr"] = err[-2000:]
    after = listing(cache)
    out["new_files"] = len(after - before)
    out["removed_files"] = len(before - after)
    out["report_path"] = str(report)
    return out


def registry_size(lab_args) -> int:
    """Number of registry ids the lab arguments' suites emit."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from laguerre_lab.registry import REGISTRY

    suite = lab_args[0]
    return sum(len(v) for k, v in REGISTRY.items() if suite in ("all", k))


def margins(doc) -> list:
    """log10(tol / residual) of every check with a nonzero residual."""
    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for rep in doc["reports"]:
            for e in rep["entries"]:
                res, tol = Decimal(e["residual"]), Decimal(e["tolerance"])
                if res > 0 and tol > 0:
                    out.append(float((tol / res).log10()))
    return out


def gate(wl: Workload, inv: dict, store: dict) -> dict:
    """Correctness gates of one lab run; its checks and failed checks."""
    problems = []
    if inv["worker_rc"] != 0:
        problems.append(f"worker failed: {inv.get('stderr', '').strip()[-400:]}")
    elif inv["rc"] != 0:
        problems.append(f"lab exited {inv['rc']}")
    if inv.get("unknown_ids"):
        problems.append(f"ids missing from the registry: {inv['unknown_ids']}")
    if inv.get("lab_file") and not Path(inv["lab_file"]).is_relative_to(SRC):
        problems.append(f"lab imported from {inv['lab_file']}, not from {SRC}")
    if DEFAULT_CACHE.exists():
        problems.append(f"the run wrote under the default cache {DEFAULT_CACHE}")
        shutil.rmtree(DEFAULT_CACHE)
    if wl.prefill is not None and (inv["new_files"] or inv["removed_files"]):
        problems.append("the run changed the prefilled cache")

    checks, failed_checks, found = registry_size(wl.lab_args), 0, {}
    report = Path(inv["report_path"])
    if report.exists():
        doc = json.loads(report.read_text())
        entries = [e for rep in doc["reports"] for e in rep["entries"]]
        checks, failed_checks = len(entries), sum(1 for e in entries if not e["pass"])
        found["margins"] = margins(doc)
        digests = report_digests(report)
        keys = {"report|" + " ".join(wl.lab_args): digests["report"]}
        if wl.lab_args in (make_workload("cold-stencil", 0).lab_args, ("all",)):
            # the cache round-trip contract: a cold calculus run at the
            # default point equals the calculus part of a warm `lab all`
            keys["calculus@default"] = digests["suite:calculus"]
        problems += check_digests(store, keys, wl.name)
    elif not problems:
        problems.append("no report written")
    if failed_checks:
        problems.append(f"{failed_checks} checks failed")
    found.update(checks=checks, failed=checks if problems else 0, problems=problems)
    return found


def ensure_prefill(lab_args: tuple) -> Path:
    """Fill a cache directory once per checkout with a cold lab run.

    The cold run's report digests go into the digest store, so that every
    warm run is checked against the cold one (the cache round trip).
    """
    key = "-".join(lab_args)
    root = WORK / "warm" / f"{source_digest()}-{key}"
    done = root / "prefill.json"
    with locked(f"prefill-{key}"):
        if done.exists():
            return root / "cache"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir(parents=True)
        wl = Workload(f"prefill-{key}", lab_args, None, "default config")
        inv = invoke(wl, root, 0, root / "cache", timeout=PREFILL_TIMEOUT_S)
        with locked("digests"):
            store = load_store()
            found = gate(wl, inv, store)
            if found["problems"]:
                raise SystemExit(f"prefill `lab {' '.join(lab_args)}` failed: "
                                 + "; ".join(found["problems"]))
            write_json(store_path(), store)
        write_json(done, {"seconds": inv["wall_s"], "files": inv["new_files"]})
        print(f"prefilled {inv['new_files']} tables with `lab {' '.join(lab_args)}` "
              f"in {inv['wall_s']:.1f} s (untimed)")
    return root / "cache"


def load_store() -> dict:
    path = store_path()
    return json.loads(path.read_text()) if path.exists() else {}


# -- runs --------------------------------------------------------------


def stamp(seed: int, wl: Workload, invs: list) -> dict:
    first = next((i for i in invs if "backend" in i), {})
    return {
        "python": first.get("python"),
        "mpmath": first.get("mpmath"),
        "backend": first.get("backend"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min": [[i["load_before"], i["load_after"]] for i in invs],
        "seed": seed,
        "workload": wl.name,
        "point": wl.point,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; prints and returns its result object."""
    wl = make_workload(name, seed)
    warm_cache = ensure_prefill(wl.prefill) if wl.prefill is not None else None
    run_dir = WORK / "runs" / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (WORK / "traces").mkdir(exist_ok=True)
    HOME.mkdir(parents=True, exist_ok=True)
    if DEFAULT_CACHE.exists():
        shutil.rmtree(DEFAULT_CACHE)

    def lab_run(idx, **kw):
        return invoke(wl, run_dir, idx, warm_cache or run_dir / f"cache-{idx}", **kw)

    try:
        setups = []
        if trace:
            runs = [lab_run(0), lab_run(1, trace=True)]
        else:
            runs, rounds, start = [], [], time.monotonic()
            idx = itertools.count()
            while True:
                t = time.monotonic()
                setups += [lab_run(next(idx), setup_only=True) for _ in range(SETUP_PER_WORKER)]
                runs.append(lab_run(next(idx)))
                rounds.append(time.monotonic() - t)
                # start another round only if it is due to end no later
                # than half a round past the deadline: a run then lasts
                # `seconds` on average, whatever the length of a round
                if time.monotonic() - start + statistics.median(rounds) / 2 > seconds:
                    break
        with locked("digests"):
            store = load_store()
            gates = [gate(wl, r, store) for r in runs]
            write_json(store_path(), store)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [f"set-up worker failed: {s.get('stderr', '')[-400:]}"
                for s in setups if s["worker_rc"] != 0]
    problems += [p for g in gates for p in g["problems"]]
    ok_runs = [r for r, g in zip(runs, gates) if not g["problems"]]
    raw = {}
    if trace:
        metrics, more = layer_metrics(wl, runs, gates)
        problems += more
    elif ok_runs:
        metrics, raw = end_to_end_metrics(setups + runs, ok_runs)
    else:
        metrics = {}
    units = declared_units()
    order = {n: i for i, n in enumerate(units)}
    result = {
        "correct": not problems and bool(metrics),
        "attempted": max(1, sum(g["checks"] for g in gates)),
        "failed": sum(g["failed"] for g in gates),
        "metrics": {n: {"value": metrics[n], "unit": units.get(n, "?")}
                    for n in sorted(metrics, key=lambda n: order.get(n, len(order)))},
    }
    record = {"result": result, "env": stamp(seed, wl, setups + runs), "trace": trace,
              "seconds": seconds, "problems": problems, "unscaled": raw,
              "setup_samples": [s.get("setup_s") for s in setups + runs],
              "runs": [{k: v for k, v in r.items() if k not in ("layers", "probe_setup")}
                       for r in runs]}
    (WORK / "results").mkdir(exist_ok=True)
    path = WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}-{time.time_ns()}.json"
    write_json(path, record)
    print_run(record, path)
    return result


def probe_time(samples) -> float:
    """The host speed over a phase: the mean of its probe durations
    without the fastest and slowest tenth.  A probe now and then takes ten
    times the usual; the trimmed mean follows the drifts without them."""
    samples = sorted(samples)
    cut = len(samples) // 10
    return statistics.fmean(samples[cut:len(samples) - cut]) if samples else 0.0


def scaled_verify(run: dict) -> float:
    """A lab worker's verify_s at the host speed PROBE_REF_S."""
    probe = run.get("probe_verify_s")
    return run["verify_s"] * PROBE_REF_S / probe if probe else 0.0


def end_to_end_metrics(workers: list, ok_runs: list):
    """verify_ref_s, setup_s and peak_rss_mb of an untraced run, and the
    unscaled medians they come from.

    Times are scaled to the host speed PROBE_REF_S: each lab worker's
    verify_s by the probes taken during its own cli.main, and the median
    set-up by the probes taken during every set-up of the run.
    """
    setup_probe = probe_time(x for w in workers for x in w.get("probe_setup", ()))
    setup_wall = statistics.median(w["setup_s"] for w in workers if "setup_s" in w)
    metrics = {
        "verify_ref_s": statistics.median(scaled_verify(r) for r in ok_runs),
        "setup_s": setup_wall * PROBE_REF_S / setup_probe,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok_runs),
    }
    raw = {
        "verify_s": statistics.median(r["verify_s"] for r in ok_runs),
        "setup_s": setup_wall,
        "probe_verify_s": statistics.median(r["probe_verify_s"] for r in ok_runs),
        "probe_setup_s": setup_probe,
    }
    return metrics, raw


def layer_metrics(wl: Workload, runs: list, gates: list):
    """Per-layer metrics of a trace run, and its reconciliation failures."""
    plain, traced = runs
    if "layers" not in traced:
        return {}, ["traced run produced no spans"]
    m = dict(traced["layers"])
    problems = []
    if m["cache.files_written"] != traced["new_files"]:
        problems.append(f"cache.files_written = {m['cache.files_written']} but "
                        f"{traced['new_files']} new files in the cache directory")
    hits = m["cache.builds"] + m["cache.disk_hits"] + m["cache.memo_hits"]
    if hits != m["cache.requests"]:
        problems.append(f"cache builds + disk hits + memo hits = {hits} "
                        f"!= {m['cache.requests']} requests")
    covered = sum(v for k, v in m.items() if k.startswith("suites.")) + m["cli.report_write_s"]
    uncovered = traced["verify_s"] - covered
    if not 0 <= uncovered <= COVERAGE_SLACK * traced["verify_s"]:
        problems.append(f"suite spans leave {uncovered:.3f} s of the traced "
                        f"verify_s {traced['verify_s']:.3f} s uncovered")
    if wl.prefill is not None and m["cache.builds"]:
        problems.append(f"warm run built {m['cache.builds']} tables")
    marg = gates[-1].get("margins", [])
    m.update({
        "process.cpu_s": plain.get("cpu_s", 0.0),
        "process.verify_wall_s": plain.get("verify_s", 0.0),
        "process.probe_s": plain.get("probe_verify_s") or 0.0,
        "trace.verify_s": traced["verify_s"],
        "trace.overhead_s": scaled_verify(traced) - scaled_verify(plain),
        "trace.table_build_share": (m["quadrature.moments.s"]
                                    + m["orthopoly.recurrence_table.self_s"]) / traced["verify_s"],
        "reports.min_margin_orders": min(marg) if marg else 0.0,
        "reports.near_miss_checks": sum(1 for x in marg if x < NEAR_MISS_ORDERS),
    })
    return m, problems


@functools.cache
def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_units() -> dict:
    """Unit of every declared metric, in declaration order."""
    return {m["name"]: m["unit"] for m in benchmark()["end_to_end"] + benchmark()["per_layer"]}


def print_run(record: dict, path: Path):
    env, result = record["env"], record["result"]
    n_runs = sum(1 for r in record["runs"] if "verify_s" in r)
    n_setup = sum(1 for x in record["setup_samples"] if x is not None)
    print(f"== {env['workload']} seed={env['seed']} point={env['point']} "
          f"trace={int(record['trace'])}")
    loads = env["loadavg_1min"]
    print(f"env: python {env['python']}, mpmath {env['mpmath']}, backend {env['backend']}, "
          f"nproc {env['nproc']}, 1-min load {loads[0][0]:.2f} before / "
          f"{loads[-1][1]:.2f} after")
    if record["trace"]:
        print("per-layer metrics of one traced run:")
    for name, m in result["metrics"].items():
        n = n_setup if name == "setup_s" else n_runs
        if record["trace"]:
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        else:
            print(f"  {name:12s} {m['value']:10.4f} {m['unit']:3s} (median of {n})")
    if record["unscaled"]:
        print("unscaled medians: " + ", ".join(f"{k} {v:.6g} s"
                                               for k, v in record["unscaled"].items()))
    ratio = result["failed"] / result["attempted"]
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed "
          f"(check_fail_ratio {ratio:.4g})")
    for p in record["problems"]:
        print(f"GATE FAILED: {p}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(result))


# -- modes -------------------------------------------------------------


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for key in ("backend", "workload"):
        if a["env"][key] != b["env"][key]:
            print(f"refusing to compare: {key} {a['env'][key]!r} vs {b['env'][key]!r}")
            return 2
    for name, ma in a["result"]["metrics"].items():
        mb = b["result"]["metrics"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        change = f"{(vb - va) / va:+.1%}" if va else "n/a"
        print(f"  {name:42s} {va:>12.6g} -> {vb:<12.6g} {ma['unit']:6s} {change}")
    return 0


def self_test() -> int:
    """Smoke mode: `lab moments` cold and warm, traced and not."""
    bench = benchmark()
    problems = []
    for m in bench["end_to_end"]:
        if END_TO_END.get(m["name"]) != (m["unit"], m["better"]):
            problems.append(f"end_to_end {m['name']} declared as {m['unit']}/{m['better']}, "
                            f"harness says {END_TO_END.get(m['name'])}")
    for m in bench["per_layer"]:
        if layer_declaration(m["name"]) != (m["unit"], m["better"]):
            problems.append(f"per_layer {m['name']} declared as {m['unit']}/{m['better']}, "
                            f"harness says {layer_declaration(m['name'])}")
    want = {0: {m["name"] for m in bench["end_to_end"]},
            1: {m["name"] for m in bench["per_layer"]}}
    for name in ("smoke-cold", "smoke-warm"):
        for trace in (0, 1):
            result = run_workload(name, 0, 1, bool(trace))
            got = set(result["metrics"])
            if got != want[trace]:
                problems.append(f"{name} trace={trace}: emitted but not declared "
                                f"{sorted(got - want[trace])}, declared but not emitted "
                                f"{sorted(want[trace] - got)}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: a gate failed")
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=benchmark()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (SRC / "laguerre_lab" / "cli.py").is_file():
        print(f"no lab sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    # the build step: the first run in a checkout fills the warm-all cache,
    # so that every later run, whatever its workload, stays short
    ensure_prefill(make_workload("warm-all", 0).prefill)
    if args.all:
        ok = True
        for name in ALL_WORKLOADS:
            for trace in (False, True):
                ok &= run_workload(name, args.seed, args.seconds, trace)["correct"]
        return 0 if ok else 1
    if not args.workload:
        ap.error("--workload, --all, --self-test or --compare is required")
    return 0 if run_workload(args.workload, args.seed, args.seconds, bool(args.trace))["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
