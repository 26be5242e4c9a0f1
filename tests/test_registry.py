"""Coverage completeness: each suite emits exactly its registered ids.

The cheap suites are covered in test_cli; these are the heavy ones.
Should run after the acceptance module so the table cache is warm.
"""

import pytest

from laguerre_lab.config import parse_config
from laguerre_lab.registry import REGISTRY
from laguerre_lab.suites import SUITE_RUNNERS


@pytest.mark.parametrize("suite", ["calculus", "sigma-pde", "scaling",
                                   "equilibrium", "multitime"])
def test_registry_coverage(suite):
    cfg = parse_config(None, {"suites": suite})
    rep = SUITE_RUNNERS[suite](cfg)
    emitted = {c.id for c in rep.entries}
    assert emitted == set(REGISTRY[suite])
    assert rep.n_failed == 0, [c.id for c in rep.entries if not c.ok]
