"""Tier-1 mapper oracle: every suite cell reproduces its pinned mapping.

The digests in ``tests/core/golden/expected.json`` fix the per-client
iteration order of all 8 workloads x 4 mapper versions at
``scaled_config(8)``.  Kernel rewrites inside the mapper (chunking,
dependence tests, cluster merging) must keep every one bit-identical.
"""

import pytest

from repro.simulator.runner import VERSIONS
from repro.util.fingerprint import config_fingerprint
from repro.workloads.suite import SUITE
from tests.core.golden import golden_config, load_expected, map_cell, order_digest

EXPECTED = load_expected()
CELLS = [(w, v) for w in SUITE for v in VERSIONS]


def test_pins_cover_every_cell():
    assert sorted(EXPECTED["cells"]) == sorted(f"{w.name}/{v}" for w, v in CELLS)


def test_config_unchanged():
    assert EXPECTED["config"] == config_fingerprint(golden_config())


@pytest.mark.parametrize(
    "workload,version", CELLS, ids=[f"{w.name}/{v}" for w, v in CELLS]
)
def test_mapping_matches_pin(workload, version):
    mapping = map_cell(workload, version, golden_config())
    pinned = EXPECTED["cells"][f"{workload.name}/{version}"]
    assert mapping.total_iterations == pinned["iterations"]
    assert order_digest(mapping.client_order) == pinned["order_sha256"]
