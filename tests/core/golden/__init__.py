"""Golden mapping oracle: pinned per-client iteration orders.

Every suite workload is mapped by every mapper version at
``scaled_config(8)`` and the resulting per-client iteration order is
reduced to one SHA-256 digest per cell, pinned in ``expected.json``.
Any change to chunking, dependence analysis, clustering, balancing,
scheduling or the intra-processor search that alters a single
iteration's client or position changes a digest.

Regenerate with ``PYTHONPATH=src python tests/core/golden/regenerate.py``
only after an *intentional* mapper-semantics change, and say so in the
commit; an unintentional digest drift is exactly what the oracle exists
to catch.
"""

import hashlib
import json
import pathlib

import numpy as np

from repro.experiments.config import scaled_config

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
EXPECTED_PATH = GOLDEN_DIR / "expected.json"

#: Topology scale of the pinned mappings (8 clients).
GOLDEN_SCALE = 8


def golden_config():
    """The configuration every pinned mapping was computed under."""
    return scaled_config(GOLDEN_SCALE)


def order_digest(client_order: dict) -> str:
    """Hex SHA-256 over ``{client: ranks}``: clients ascending, int64 LE."""
    h = hashlib.sha256()
    for client in sorted(client_order):
        ranks = np.ascontiguousarray(client_order[client], dtype="<i8")
        h.update(f"{client}:{len(ranks)};".encode("ascii"))
        h.update(ranks.tobytes())
    return h.hexdigest()


def map_cell(workload, version: str, config):
    """The mapping ``prepare_experiment`` would compute for one cell."""
    from repro.simulator.runner import make_mapper
    from repro.util.rng import derive_seed, make_rng
    from repro.workloads.base import WorkloadParams

    params = WorkloadParams(
        chunk_elems=config.chunk_elems, data_chunks=config.data_chunks
    )
    nest, data_space = workload.build(params)
    hierarchy = config.build_hierarchy()
    rng = make_rng(derive_seed(config.seed, workload.name, version))
    mapping = make_mapper(version, config).map(nest, data_space, hierarchy, rng)
    mapping.validate(nest.num_iterations)
    return mapping


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as f:
        return json.load(f)
