"""Mantissa bit counts at C speed under mpmath's pure-Python backend.

Importing the lab rebinds mpmath's ``bitcount`` from
``libintmath.python_bitcount`` to ``int.bit_length`` (see
``laguerre_lab._bind_bitcount``).  The two must agree on every n >= 0,
on both sides of the bisect/``math.log`` switch at 300 bits, and a table
built either way must store the same bits.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp.libintmath import python_bitcount

from conftest import run_python


def test_bit_length_is_python_bitcount_around_every_power_of_two():
    for n in (0, 1):
        assert int.bit_length(n) == python_bitcount(n)
    for k in range(1, 5001):
        for n in (2**k - 1, 2**k, 2**k + 1):
            assert int.bit_length(n) == python_bitcount(n), k


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**20000))
def test_bit_length_is_python_bitcount_on_random_ints(n):
    assert int.bit_length(n) == python_bitcount(n)


def test_a_lab_process_counts_bits_with_bit_length():
    code = """
import json, sys
from laguerre_lab import cli
import mpmath.libmp
from mpmath.libmp.libintmath import python_bitcount
mods = {n: m for n, m in sys.modules.items() if n.startswith("mpmath")}
print(json.dumps([mpmath.libmp.BACKEND,
                  [n for n, m in mods.items() if getattr(m, "bitcount", None) is python_bitcount],
                  [n for n, m in mods.items() if getattr(m, "bitcount", None) is int.bit_length]]))
"""
    backend, slow, fast = json.loads(run_python(code).splitlines()[-1])
    assert backend == "python"
    assert slow == []
    assert {"mpmath.libmp.libintmath", "mpmath.libmp.libmpf", "mpmath.ctx_mp"} <= set(fast)


def test_a_table_stores_the_same_bits_with_either_bitcount(tmp_path):
    # the default point at P = 120, N = 5, built from an empty memo and an
    # empty cache directory with each binding in turn
    code = f"""
import sys
from laguerre_lab import cache
from laguerre_lab.params import PrecisionContext, WeightParams
from mpmath.libmp.libintmath import python_bitcount

rebound = [m for n, m in list(sys.modules.items())
           if n.startswith("mpmath") and getattr(m, "bitcount", None) is int.bit_length]
assert rebound

def spelled(bitcount, name):
    for m in rebound:
        m.bitcount = bitcount
    cache.clear_memo()
    tab = cache.cached_recurrence_table(WeightParams("1/2", ("3/10", "1/5")), 5,
                                        PrecisionContext(digits=120),
                                        cache_dir={str(tmp_path)!r} + "/" + name)
    return cache._values(vars(tab), lambda v: cache._spell(v._mpf_))

slow = spelled(python_bitcount, "slow")
fast = spelled(int.bit_length, "fast")
print(len(slow), slow == fast)
"""
    count, same = run_python(code).split()
    assert int(count) > 0
    assert same == "True"
    files = [sorted(p.read_bytes() for p in (tmp_path / name).iterdir())
             for name in ("slow", "fast")]
    assert files[0] and files[0] == files[1]
