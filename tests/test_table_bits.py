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
builds.  The stored values are rounded to work_dps by the build itself
(``recurrence_table``), which can hide a change of the seeds in their
last digits at one point: at the first four tables it hid the seed
sweep's move to ``level_settled`` (2e-140 relative at P = 120), which
moved the bits of the fifth.  Record the file again after a bump with

    PYTHONPATH=src python tests/test_table_bits.py

It refuses (exit 1, the file left as it is) while the recorded version
is the current one and a recorded table's hash differs.
"""

import hashlib
import json
import sys
from pathlib import Path

from laguerre_lab import cache
from laguerre_lab.calculus import StencilGrid, table_bundle_builder
from laguerre_lab.params import PrecisionContext, WeightParams

RECORD = Path(__file__).parent / "golden" / "table-bits.json"


def table_bits(cache_dir) -> dict:
    """{name: sha256 of the stored values} of the canary tables, each
    built in cache_dir from an empty memo."""
    p120, p80, p116 = (PrecisionContext(digits=d) for d in (120, 80, 116))
    default = WeightParams("1/2", ("3/10", "1/5"))
    grid = StencilGrid(default, p120, table_bundle_builder(5, p120, cache_dir))
    builds = {
        "default-d120": lambda: grid.bundle(),
        "node-t1-plus-d120": lambda: grid.bundle(((0, grid.steps_per_h),)),
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


def record(tables: dict, path: Path = RECORD) -> int:
    """Write the canary of tables to path: 0, or 1 with nothing written
    where the record at path has the current version and a hash moved."""
    old = json.loads(path.read_text()) if path.exists() else {}
    if old.get("format_version") == cache.FORMAT_VERSION:
        moved = sorted(n for n, h in old["tables"].items() if tables.get(n, h) != h)
        if moved:
            print(f"table bits moved at cache.FORMAT_VERSION {cache.FORMAT_VERSION}: "
                  f"{', '.join(moved)}; bump it first", file=sys.stderr)
            return 1
    doc = {"format_version": cache.FORMAT_VERSION, "tables": tables}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


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


def test_record_refuses_moved_bits_at_the_same_version(tmp_path):
    tables = json.loads(RECORD.read_text())["tables"]
    path = tmp_path / "table-bits.json"
    tampered = {"format_version": cache.FORMAT_VERSION,
                "tables": {**tables, "default-d120": "0" * 64}}
    path.write_text(json.dumps(tampered))
    assert record(tables, path) == 1
    assert json.loads(path.read_text()) == tampered
    # after a bump, the same tables are recorded
    path.write_text(json.dumps({**tampered, "format_version": cache.FORMAT_VERSION - 1}))
    assert record(tables, path) == 0
    assert json.loads(path.read_text()) == {"format_version": cache.FORMAT_VERSION,
                                            "tables": tables}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tables = table_bits(tmp)
    sys.exit(record(tables))
