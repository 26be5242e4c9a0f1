"""One benchmark worker: a fresh interpreter that runs the lab once.

Usage: python3 worker.py SPEC_JSON

SPEC_JSON is a JSON object with
  argv        the ``lab`` arguments (the report goes to ``--out``),
  result      path of the JSON file this worker writes,
  setup_only  stop after importing the lab and parsing the config,
  cpu         the vCPU the worker pins itself to before it measures,
  trace       install the tracer around ``cli.main``,
  spans       where the tracer writes its raw spans (trace runs only).

The result holds ``setup_s`` (import of the cli and suites modules plus
config parsing), ``verify_s`` (wall time of ``cli.main``), the host-speed
probe's samples (see ``HostProbe``), the exit code, ids missing from the
registry, peak RSS, CPU time and the versions the run used.  The worker
is started with ``PYTHONPATH`` set to the lab's ``src`` directory of the
checkout under test.
"""

import gc
import json
import os
import platform
import resource
import signal
import sys
import time
from types import SimpleNamespace

#: how often the host-speed probe runs while the worker measures
PROBE_INTERVAL_S = 0.02
_MASK = (1 << 400) - 1


def probe_work():
    """A fixed piece of work: pure-Python arithmetic on 400-bit integers,
    the kind mpmath's python backend does, plus dict stores.  About 0.2 ms."""
    x, d = _MASK // 3, {}
    for i in range(1000):
        x = ((x * x) >> 400) ^ i
        d[i & 15] = x & 0xFFFF
    return x


class HostProbe:
    """Times ``probe_work`` from a SIGALRM handler while the worker runs.

    On a shared host the same pure-Python work runs up to 1.9x slower at
    some moments than at others, in bursts and in drifts of minutes.  The
    probe samples that speed on the worker's own vCPU, at the moments the
    lab runs, so the harness can scale the lab's times to a fixed host
    speed.  It costs about 1 % of the worker's time.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # collecting the lab's garbage is not probe work
        t = time.perf_counter()
        probe_work()
        self.samples.append(time.perf_counter() - t)
        if enabled:
            gc.enable()

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def main(spec):
    os.sched_setaffinity(0, {spec["cpu"]})
    probe = HostProbe()
    probe.start()
    t0 = time.perf_counter()
    import laguerre_lab.cli as cli
    import laguerre_lab.suites  # noqa: F401  (imported as part of set-up)

    cli.config_from_args(cli.build_parser().parse_args(spec["argv"]))
    setup_s = time.perf_counter() - t0
    n_setup = len(probe.samples)

    import mpmath

    out = {
        "setup_s": setup_s,
        "lab_file": cli.__file__,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "backend": mpmath.libmp.BACKEND,
    }
    if not spec["setup_only"]:
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            main_fn = tracer.wrap("cli.main", cli.main)
        else:
            main_fn = cli.main
        n_verify = len(probe.samples)
        t1 = time.perf_counter()
        rc = main_fn(spec["argv"])
        verify_s = time.perf_counter() - t1
        probe.stop()
        out.update(rc=rc, verify_s=verify_s, unknown_ids=unknown_ids(spec["argv"]),
                   probe_verify=probe.samples[n_verify:])
        if tracer is not None:
            out["layers"] = tracer.summary()
            tracer.write(spec["spans"])

    probe.stop()
    out["probe_setup"] = probe.samples[:n_setup]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


def unknown_ids(argv):
    """Report ids that ``registry.validate_ids`` rejects, per suite."""
    from laguerre_lab.registry import validate_ids

    path = next(a.split("=", 1)[1] for a in argv if a.startswith("--out="))
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return {}
    bad = {}
    for rep in doc["reports"]:
        ids = validate_ids(rep["suite"], [SimpleNamespace(id=e["id"]) for e in rep["entries"]])
        if ids:
            bad[rep["suite"]] = ids
    return bad


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
