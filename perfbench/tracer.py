"""In-memory spans and counters around the lab's layer functions.

A ``Tracer`` is installed inside a worker process before ``cli.main``
runs.  It replaces every module binding of each traced function with a
wrapper, so copies made by ``from .x import y`` are traced as well as
the defining module's own name.  Each call records a span
``[name, start, end, parent]``; spans stay in memory and are summarised
into per-layer metrics (and optionally written out) when the run ends.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import pkgutil
import time

#: (module, attribute, span name); "Class.method" patches the class
FUNCTIONS = (
    ("quadrature", "moments", "quadrature.moments"),
    ("quadrature", "integrate_weighted", "quadrature.integrate_weighted"),
    ("quadrature", "integrate_finite", "quadrature.integrate_finite"),
    ("orthopoly", "recurrence_table", "orthopoly.recurrence_table"),
    ("orthopoly", "RecurrenceTable.inner_xk", "orthopoly.inner_xk"),
    ("ladder", "aux_integrals", "ladder.aux_integrals"),
    ("ladder", "iterate_difference_system", "ladder.iterate_difference_system"),
    ("multitime", "aux_integrals_m", "multitime.aux_integrals_m"),
    ("multitime", "ladder_A_direct", "multitime.ladder_A_direct"),
    ("multitime", "verify_S1_S2_general_m", "multitime.verify_S1_S2_general_m"),
    ("calculus", "StencilGrid.bundle", "calculus.bundle"),
    ("calculus", "StencilGrid.first", "calculus.derivatives"),
    ("calculus", "StencilGrid.second", "calculus.derivatives"),
    ("calculus", "StencilGrid.mixed", "calculus.derivatives"),
    ("scaling", "ScaledGrid.at", "scaling.grid_request"),
    ("scaling", "scaled_sequences", "scaling.scaled_sequences"),
    ("equilibrium", "solve_support", "equilibrium.solve_support"),
    ("equilibrium", "equilibrium_condition_residual", "equilibrium.condition_residual"),
    ("equilibrium", "solve_X_equations", "equilibrium.solve_X_equations"),
    ("equilibrium", "appendix_integrals", "equilibrium.appendix_integrals"),
    ("cli", "reports_document", "cli.reports_document"),
)

#: factories whose returned closure builds one stencil node's bundle
NODE_BUILDERS = (("calculus", "table_bundle_builder"), ("multitime", "row_bundle_builder"))

#: span names whose (outermost) calls and seconds become ``<name>.calls`` / ``.s``
CALLS_AND_SECONDS = (
    "quadrature.moments", "quadrature.integrate_weighted", "quadrature.integrate_finite",
    "orthopoly.recurrence_table", "orthopoly.inner_xk",
    "ladder.aux_integrals", "multitime.aux_integrals_m",
    "calculus.derivatives", "scaling.scaled_sequences", "equilibrium.solve_support",
)
SECONDS_ONLY = (
    "ladder.iterate_difference_system", "multitime.ladder_A_direct",
    "multitime.verify_S1_S2_general_m", "equilibrium.condition_residual",
    "equilibrium.solve_X_equations", "equilibrium.appendix_integrals",
)
SELF_SECONDS = ("quadrature.moments", "orthopoly.recurrence_table", "scaling.scaled_sequences")


class _ModuleProxy:
    """Stands in for a module object; overrides a few attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans (name, start, end, parent index) and counters of one process."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._modules = {}

    def wrap(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if on_result is not None:
                on_result(out)
            return out

        return traced

    # -- installation -------------------------------------------------

    def _rebind(self, orig, replacement, what):
        hits = 0
        for mod in self._modules.values():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, replacement)
                    hits += 1
        if not hits:
            raise RuntimeError(f"tracer: {what} is bound in no laguerre_lab module")

    def install(self):
        """Wrap the layer functions in every ``laguerre_lab`` module."""
        import laguerre_lab

        self._modules = {"": laguerre_lab}
        for info in pkgutil.iter_modules(laguerre_lab.__path__):
            self._modules[info.name] = importlib.import_module(f"laguerre_lab.{info.name}")
        mods = self._modules

        for modname, attr, name in FUNCTIONS:
            on_result = self._count_moments if name == "quadrature.moments" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[modname], cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), on_result))
            else:
                orig = getattr(mods[modname], attr)
                self._rebind(orig, self.wrap(name, orig, on_result), f"{modname}.{attr}")

        for modname, attr in NODE_BUILDERS:
            factory = getattr(mods[modname], attr)

            def traced_factory(*args, _factory=factory, **kwargs):
                return self.wrap("calculus.stencil_node", _factory(*args, **kwargs))

            self._rebind(factory, functools.wraps(factory)(traced_factory), f"{modname}.{attr}")

        self._install_cache(mods["cache"])

        runners = mods["suites"].SUITE_RUNNERS
        for suite, fn in list(runners.items()):
            runners[suite] = self.wrap(f"suites.{suite}", fn)

        cli = mods["cli"]
        cli.json = _ModuleProxy(cli.json, dump=self.wrap("cli.report_dump", cli.json.dump))

    def _count_moments(self, out):
        self.counts["quadrature.moments.k_count"] += len(out)

    def _install_cache(self, cache):
        """Count memo hits, disk reads and writes of the table cache.

        Each counter is observed separately (the memo's size, the JSON
        parser, the JSON writer), so that the reconciliation
        ``builds + disk_hits + memo_hits == requests`` is a real check.
        """
        counts, memo, real_json = self.counts, cache._memo, cache.json
        orig = cache.cached_recurrence_table

        @functools.wraps(orig)
        def counted(*args, **kwargs):
            before = len(memo)
            out = orig(*args, **kwargs)
            if len(memo) == before:
                counts["cache.memo_hits"] += 1
            return out

        def loads(text, **kwargs):
            counts["cache.disk_hits"] += 1
            return real_json.loads(text, **kwargs)

        def dump(obj, fp, **kwargs):
            text = real_json.dumps(obj, **kwargs)
            fp.write(text)
            counts["cache.files_written"] += 1
            counts["cache.bytes_written"] += len(text.encode())

        cache.json = _ModuleProxy(real_json, loads=loads, dump=dump)
        self._rebind(orig, self.wrap("cache.cached_recurrence_table", counted),
                     "cache.cached_recurrence_table")

    # -- summary --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]

        def nested_in_same(i):
            name, p = spans[i][0], spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return True
                p = spans[p][3]
            return False

        calls = collections.Counter()
        secs = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        builds = 0
        for i, (name, _, _, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if not nested_in_same(i):
                secs[name] += dur[i]
            if (name == "orthopoly.recurrence_table" and parent >= 0
                    and spans[parent][0] == "cache.cached_recurrence_table"):
                builds += 1

        out = {}
        for name in CALLS_AND_SECONDS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = secs[name]
        for name in SECONDS_ONLY:
            out[f"{name}.s"] = secs[name]
        for name in SELF_SECONDS:
            out[f"{name}.self_s"] = self_s[name]
        out["quadrature.moments.k_count"] = self.counts["quadrature.moments.k_count"]

        requests = calls["cache.cached_recurrence_table"]
        disk, memo = self.counts["cache.disk_hits"], self.counts["cache.memo_hits"]
        out.update({
            "cache.requests": requests,
            "cache.builds": builds,
            "cache.disk_hits": disk,
            "cache.memo_hits": memo,
            "cache.hit_ratio": (disk + memo) / requests if requests else 0.0,
            "cache.self_s": self_s["cache.cached_recurrence_table"],
            "cache.files_written": self.counts["cache.files_written"],
            "cache.bytes_written": self.counts["cache.bytes_written"],
            "calculus.bundle_requests": calls["calculus.bundle"],
            "calculus.stencil_nodes": calls["calculus.stencil_node"],
            "scaling.grid_requests": calls["scaling.grid_request"],
            "cli.report_write_s": secs["cli.reports_document"] + secs["cli.report_dump"],
        })
        for suite in self._modules["suites"].SUITE_RUNNERS:
            out[f"suites.{suite}.s"] = secs[f"suites.{suite}"]
        return out

    def write(self, path):
        """Write the raw spans and counters as JSON."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh,
                      separators=(",", ":"))
