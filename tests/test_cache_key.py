"""Table file names: pinned keys, and no OpenSSL in a lab process.

A table file is named by the first 32 hex digits of the SHA-256 of its
request token (``cache.table_key``).  The digest comes from the
interpreter's builtin ``_sha256`` / ``_sha2`` module, so a lab run never
imports ``hashlib`` and never loads OpenSSL's libcrypto (about 3.6 MB of
a run's peak RSS).  The keys below were recorded before that change; a
file name must not move with the interpreter or the route to the digest.
"""

from laguerre_lab.cache import table_key
from laguerre_lab.calculus import StencilGrid
from laguerre_lab.params import PrecisionContext, WeightParams

from conftest import run_python

#: the default centre (alpha; t1, t2) = (1/2; 3/10, 1/5) at N = 12, P = 120
CENTRE_KEY = "f9717b83dfd635b66fc23ded9f7341ff"
#: the t1 + h node of the centre's default grid, N = 5, P = 120, anchored there
NODE_KEY = "cb3e30fa014a06e795b41c060986bece"

#: prints the two pinned keys, one a line
KEYS_SCRIPT = """
from laguerre_lab.cache import table_key
from laguerre_lab.calculus import StencilGrid
from laguerre_lab.params import PrecisionContext, WeightParams
p120 = PrecisionContext(digits=120)
centre = WeightParams("1/2", ("3/10", "1/5"))
node = StencilGrid(centre, p120, None).params_at(((0, 2),))
print(table_key(centre, 12, p120))
print(table_key(node, 5, p120, centre))
"""


def test_table_keys_are_pinned():
    p120 = PrecisionContext(digits=120)
    centre = WeightParams("1/2", ("3/10", "1/5"))
    grid = StencilGrid(centre, p120, None)
    node = grid.params_at(((0, grid.steps_per_h),))
    assert grid.steps_per_h == 2
    assert table_key(centre, 12, p120) == CENTRE_KEY
    assert table_key(node, 5, p120, centre) == NODE_KEY


def test_hashlib_fallback_gives_the_same_keys():
    # None in sys.modules makes an import of that name fail
    out = run_python('import sys\nsys.modules["_sha256"] = sys.modules["_sha2"] = None\n'
                     + KEYS_SCRIPT + 'print("hashlib" in sys.modules)')
    assert out.split() == [CENTRE_KEY, NODE_KEY, "True"]


def test_a_lab_run_never_imports_hashlib(tmp_path):
    # compared against the modules present before the lab is imported, so
    # a site hook that loads hashlib earlier does not decide the test
    code = f"""
import sys
before = set(sys.modules)
from laguerre_lab import cli, suites
for run in ("cold", "warm"):
    code = cli.main(["moments,recurrence", "--digits", "50",
                     "--cache-dir", {str(tmp_path / "cache")!r},
                     "--table-out", {str(tmp_path / "table.csv")!r},
                     "--format", "csv", "--out", {str(tmp_path / "report.csv")!r}])
    assert code == 0, (run, code)
print(sorted({{"hashlib", "_hashlib"}} & (set(sys.modules) - before)))
"""
    assert run_python(code).splitlines()[-1] == "[]"
    assert len(list((tmp_path / "cache").glob("table-*.json"))) >= 1
    assert (tmp_path / "table.csv").exists()
