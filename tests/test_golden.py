"""Golden reports: committed runs of the CLI, rerun and held to their bytes.

Each ``tests/golden/*.json`` holds the CLI arguments of one run, the
mpmath version and backend it was made with, and each report's suite,
metadata (no timestamp) and entries.  The test reruns the arguments
under the session cache and asserts, in this order:

1. the same mpmath version and backend;
2. the same suites, metadata, ids, entry order and point strings;
3. no tolerance above the golden one;
4. byte-equal residual and tolerance strings.
"""

import json
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf

from laguerre_lab import cli

GOLDEN = Path(__file__).parent / "golden"


def golden_document(args, out: Path) -> dict:
    """Run ``lab args`` writing JSON to out; the document a golden file holds."""
    assert cli.main(list(args) + ["--out", str(out)]) == 0
    reports = json.loads(out.read_text())["reports"]
    return {
        "args": list(args),
        "mpmath": {"version": mpmath.__version__, "backend": mpmath.libmp.BACKEND},
        "reports": [{k: rep[k] for k in ("suite", "metadata", "entries")}
                    for rep in reports],
    }


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_reports_match_golden(path, tmp_path):
    want = json.loads(path.read_text())
    got = golden_document(want["args"], tmp_path / "rep.json")

    assert got["mpmath"] == want["mpmath"], (
        f"golden {path.name} was made with mpmath {want['mpmath']['version']} "
        f"({want['mpmath']['backend']} backend); this run has "
        f"{got['mpmath']['version']} ({got['mpmath']['backend']} backend)")

    shape = lambda doc: [(r["suite"], r["metadata"],
                          [(e["id"], e["point"]) for e in r["entries"]])
                         for r in doc["reports"]]
    assert shape(got) == shape(want)

    pairs = [(g, w) for gr, wr in zip(got["reports"], want["reports"])
             for g, w in zip(gr["entries"], wr["entries"])]
    with mp.workdps(40):
        looser = [(g["id"], g["point"], w["tolerance"], g["tolerance"]) for g, w in pairs
                  if mpf(g["tolerance"]) > mpf(w["tolerance"])]
    assert looser == []

    assert [(g["residual"], g["tolerance"], g["pass"]) for g, _ in pairs] == \
        [(w["residual"], w["tolerance"], w["pass"]) for _, w in pairs]
