"""What a lab process imports.

A lab run is short, so its start-up is a measurable share of it.  The
records are ``typing.NamedTuple`` or plain classes, not dataclasses:
``dataclasses`` pulls in ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and exec-compiles the methods it generates, about 20 ms
of a run's set-up.  ``csv`` is loaded only where a CSV is written.
"""

from conftest import run_python


def test_a_json_lab_run_imports_neither_dataclasses_nor_csv(tmp_path):
    # compared against the modules present before the lab is imported, so
    # a site hook that loads one of them earlier does not decide the test
    code = f"""
import sys
before = set(sys.modules)
from laguerre_lab import cli, suites
for run in ("cold", "warm"):
    code = cli.main(["moments,recurrence", "--digits", "50",
                     "--cache-dir", {str(tmp_path / "cache")!r},
                     "--format", "json", "--out", {str(tmp_path / "report.json")!r}])
    assert code == 0, (run, code)
print(sorted({{"dataclasses", "inspect", "csv"}} & (set(sys.modules) - before)))
"""
    assert run_python(code).splitlines()[-1] == "[]"
    assert len(list((tmp_path / "cache").glob("table-*.json"))) >= 1
    assert (tmp_path / "report.json").exists()
