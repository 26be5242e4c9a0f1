import gc
import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path, PurePath

import pytest
from mpmath import mp, mpf

from laguerre_lab import cache
from laguerre_lab.cache import clear_memo
from laguerre_lab.ladder import aux_rows
from laguerre_lab.orthopoly import RecurrenceTable, polynomials_raw, recurrence_table
from laguerre_lab.params import PrecisionContext, WeightParams, to_mpf


def mpf_integrand(f):
    """The raw integrand that ``quadrature.integrate_weighted`` takes, from
    f(x) -> (f_1(x), f_2(x), ...) on mpf x with mpf or int factors: the rule
    multiplies each raw factor as the mpf rule multiplied w * f_i(x), so
    the integrals keep their bits."""
    return lambda x: tuple(to_mpf(v)._mpf_ for v in f(mp.make_mpf(x)))


def eval_polynomials(table: RecurrenceTable, n: int, x) -> list:
    """[P_0(x), ..., P_n(x)] as mpf, from one run of the lab's forward
    three-term recurrence (``orthopoly.polynomials_raw``) at x."""
    return [mp.make_mpf(v) for v in polynomials_raw(table, n)(to_mpf(x)._mpf_)]


def run_python(code: str) -> str:
    """stdout of code run by a fresh interpreter that imports the lab from src/."""
    env = {k: v for k, v in os.environ.items() if k != "LAB_CACHE_DIR"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def pytest_collection_finish(session):
    """Move what collection built (modules, test functions, the harness's
    own state) to the permanent generation, so a full garbage collection
    during a test scans the objects tests made, not the harness's.  Such a
    collection took about 0.03 s on a 2-vCPU host, as long as the warm run
    ``test_cli.py::test_cache_speedup_and_stability`` times, and where it
    fell was decided by how many objects earlier tests had allocated."""
    gc.freeze()


@pytest.fixture(scope="session", autouse=True)
def lab_cache(tmp_path_factory):
    """Hermetic table cache shared across the test session."""
    path = tmp_path_factory.mktemp("labcache")
    old = os.environ.get("LAB_CACHE_DIR")
    os.environ["LAB_CACHE_DIR"] = str(path)
    yield path
    if old is None:
        os.environ.pop("LAB_CACHE_DIR", None)
    else:
        os.environ["LAB_CACHE_DIR"] = old


@pytest.fixture
def fresh_memo():
    """An empty in-process table memo (``cache.clear_memo``) at the start of
    the test and again at its end: the tables the test reads start with no
    memoized aux row, and none it leaves behind is read by a later test."""
    clear_memo()
    yield
    clear_memo()


def stand_in(value):
    """value, if it is plain data, which reaches no table; a tuple item by
    item; a table by the key the cache's memo holds it under, which hashes
    its point, depth, precision and anchor (by (point, depth, precision)
    if the memo holds it under none); anything else by its type's name."""
    if value is None or isinstance(value, (bool, int, float, str, Fraction, mpf, PurePath,
                                           WeightParams, PrecisionContext)):
        return value
    if isinstance(value, tuple):
        return tuple(map(stand_in, value))
    if isinstance(value, RecurrenceTable):
        return next((key for key, table in cache._memo.items() if table is value),
                    (value.params, value.N, value.prec))
    return type(value).__name__


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, attr): a list that records every later call of
    module.attr through any laguerre_lab binding, each as a dict of the
    arguments it passed, by parameter name, each argument by its
    ``stand_in``: the count holds no reference to a table, a grid or a
    closure, so it keeps alive nothing that a run without it would drop."""

    def count(module, attr):
        calls = []
        real = getattr(module, attr)
        signature = inspect.signature(real)

        def counted(*args, **kwargs):
            calls.append({name: stand_in(value) for name, value
                          in signature.bind(*args, **kwargs).arguments.items()})
            return real(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("laguerre_lab") and getattr(mod, attr, None) is real:
                monkeypatch.setattr(mod, attr, counted)
        return calls

    return count


@pytest.fixture(scope="session", params=[("1/2", "3/10", 120), ("1/2", "-3/10", 80),
                                        ("-1/2", "3/10", 60)],
                ids=["default-d120", "t1-neg-d80", "alpha-neg-d60"])
def oracle_point(request):
    """(alpha, t1, precision): the points at which the raw oracle integrands
    are held to their mpf forms bit for bit."""
    alpha, t1, digits = request.param
    return alpha, t1, PrecisionContext(digits=digits)


@pytest.fixture(scope="session")
def prec120():
    return PrecisionContext(digits=120)


@pytest.fixture(scope="session")
def prec60():
    return PrecisionContext(digits=60)


@pytest.fixture(scope="session")
def params_default():
    return WeightParams("0.5", ("0.3", "0.2"))


@pytest.fixture(scope="session")
def params_neg_t1():
    return WeightParams("0.5", ("-0.3", "0.2"))


@pytest.fixture(scope="session")
def table12(params_default, prec120):
    return recurrence_table(params_default, 12, prec120)


@pytest.fixture(scope="session")
def aux12(table12):
    return aux_rows(table12, 12)


@pytest.fixture(scope="session")
def table12_neg(params_neg_t1, prec120):
    return recurrence_table(params_neg_t1, 12, prec120)


@pytest.fixture(scope="session")
def aux12_neg(table12_neg):
    return aux_rows(table12_neg, 12)
