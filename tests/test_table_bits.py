"""Table-bits canary: the bits a table build stores are tied to
``cache.FORMAT_VERSION``.

A cache key covers the format version, so a change that moves the bits of
a built table must bump the version, or a warm run would read the old
bits where a cold run builds new ones.  ``tests/golden/table-bits.json``
records the version and a sha256 of the stored values of six tables:
the default centre at P = 120, one shifted stencil node of its grid, the
m = 3 point, t1 = -3/10 at P = 80, the rode-reduction point
t = (1/2, 10^-6) at P = 120, and the n = 24 scaling point
t = (1/48, 1/2304) at N = 24, P = 116, the deepest table a default run
builds.  The stored values are rounded to work_dps, which can hide a
change of the seeds in their last digits at one point: at the first four
tables it hid the seed sweep's move to ``level_settled`` (2e-140
relative at P = 120), which moved the bits of the fifth.  Record the
file again after a bump with

    PYTHONPATH=src python tests/test_table_bits.py
"""

import hashlib
import json
from pathlib import Path

from laguerre_lab import cache
from laguerre_lab.calculus import DerivativeStencil, StencilGrid, table_bundle_builder
from laguerre_lab.params import PrecisionContext, WeightParams

RECORD = Path(__file__).parent / "golden" / "table-bits.json"


def table_bits(cache_dir) -> dict:
    """{name: sha256 of the stored values} of the canary tables, each
    built in cache_dir from an empty memo."""
    p120, p80, p116 = (PrecisionContext(digits=d) for d in (120, 80, 116))
    default = WeightParams("1/2", ("3/10", "1/5"))
    grid = StencilGrid(default, p120, DerivativeStencil(), table_bundle_builder(5, p120, cache_dir))
    builds = {
        "default-d120": lambda: grid.bundle(),
        "node-t1-plus-d120": lambda: grid.bundle(((0, 1),)),
        "m3-d120": lambda: cache.cached_recurrence_table(
            WeightParams("1/2", ("3/10", "1/5", "1/10")), 3, p120, cache_dir=cache_dir),
        "t1-neg-d80": lambda: cache.cached_recurrence_table(
            WeightParams("1/2", ("-3/10", "1/5")), 5, p80, cache_dir=cache_dir),
        "rode-d120": lambda: cache.cached_recurrence_table(
            WeightParams("1/2", ("1/2", "1/1000000")), 2, p120, cache_dir=cache_dir),
        "scaling-n24-d116": lambda: cache.cached_recurrence_table(
            WeightParams("1/2", ("1/48", "1/2304")), 24, p116, cache_dir=cache_dir),
    }
    out = {}
    cache.clear_memo()
    try:
        for name, build in builds.items():
            values = cache._values(vars(build()), lambda v: cache._spell(v._mpf_))
            text = json.dumps(values, sort_keys=True)
            out[name] = hashlib.sha256(text.encode()).hexdigest()
    finally:
        cache.clear_memo()
    return out


def test_table_bits_move_only_with_the_format_version(tmp_path):
    want = json.loads(RECORD.read_text())
    got = table_bits(tmp_path)
    if cache.FORMAT_VERSION == want["format_version"]:
        assert got == want["tables"], (
            "table bits moved while cache.FORMAT_VERSION stayed "
            f"{cache.FORMAT_VERSION}: bump it, then record the canary again")
    assert cache.FORMAT_VERSION == want["format_version"], (
        f"cache.FORMAT_VERSION is {cache.FORMAT_VERSION}, the canary was recorded "
        f"at {want['format_version']}: record it again")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {"format_version": cache.FORMAT_VERSION, "tables": table_bits(tmp)}
    RECORD.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RECORD}")
