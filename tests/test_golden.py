"""Golden reports: committed runs of the CLI, rerun and held to their bytes.

Each ``tests/golden/*.json`` holds the CLI arguments of one run, the
mpmath version and backend it was made with, and each report's suite,
metadata (no timestamp) and entries; ``scripts/bless_golden.py`` writes
it, and this test uses that script's document and no-loosening gate.  The
test reruns the arguments under the session cache and asserts, in this
order:

1. the same mpmath version and backend;
2. the same suites, metadata, ids, entry order and point strings;
3. no tolerance above the golden one;
4. byte-equal residual and tolerance strings.

Every tolerance string of a golden file has at most ``TOL_DIGITS``
significant digits: computed tolerances are floored to them, and fixed
bounds are short.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from laguerre_lab.reports import TOL_DIGITS

GOLDEN = Path(__file__).parent / "golden"
#: the golden report runs; table-bits.json is the canary of test_table_bits.py
RUNS = sorted(p for p in GOLDEN.glob("*.json") if p.name != "table-bits.json")

# the golden document and the no-loosening gate are those of the bless script
_spec = importlib.util.spec_from_file_location(
    "bless_golden", Path(__file__).resolve().parent.parent / "scripts" / "bless_golden.py")
bless = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bless)


@pytest.mark.parametrize("path", RUNS, ids=lambda p: p.stem)
def test_reports_match_golden(path, tmp_path):
    want = json.loads(path.read_text())
    got = bless.golden_document(want["args"], tmp_path / "rep.json")

    assert got["mpmath"] == want["mpmath"], (
        f"golden {path.name} was made with mpmath {want['mpmath']['version']} "
        f"({want['mpmath']['backend']} backend); this run has "
        f"{got['mpmath']['version']} ({got['mpmath']['backend']} backend)")

    shape = lambda doc: [(r["suite"], r["metadata"],
                          [(e["id"], e["point"]) for e in r["entries"]])
                         for r in doc["reports"]]
    assert shape(got) == shape(want)

    assert bless.looser_tolerances(want, got) == []

    pairs = [(g, w) for gr, wr in zip(got["reports"], want["reports"])
             for g, w in zip(gr["entries"], wr["entries"])]
    assert [(g["residual"], g["tolerance"], g["pass"]) for g, _ in pairs] == \
        [(w["residual"], w["tolerance"], w["pass"]) for _, w in pairs]


@pytest.mark.parametrize("path", RUNS, ids=lambda p: p.stem)
def test_tolerances_keep_at_most_tol_digits(path):
    doc = json.loads(path.read_text())
    digits = lambda s: len(s.split("e")[0].replace(".", "").strip("0"))
    assert [(r["suite"], e["id"], e["tolerance"]) for r in doc["reports"]
            for e in r["entries"] if digits(e["tolerance"]) > TOL_DIGITS] == []
