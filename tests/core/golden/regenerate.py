"""Regenerate the pinned mapping digests of the golden mapping oracle.

Usage::

    PYTHONPATH=src python tests/core/golden/regenerate.py

Maps every suite workload with every mapper version at
``scaled_config(8)`` and pins the per-client iteration-order digest of
each cell in ``expected.json``.

Run this only after an intentional mapper-semantics change, and say so
in the commit: a digest change here is a behaviour change.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[3]))

from tests.core.golden import (  # noqa: E402
    EXPECTED_PATH,
    GOLDEN_SCALE,
    golden_config,
    map_cell,
    order_digest,
)


def main() -> int:
    from repro.simulator.runner import VERSIONS
    from repro.util.fingerprint import config_fingerprint
    from repro.workloads.suite import SUITE

    config = golden_config()
    expected: dict = {
        "record": "repro-golden-mappings",
        "scale": GOLDEN_SCALE,
        "config": config_fingerprint(config),
        "cells": {},
    }
    for workload in SUITE:
        for version in VERSIONS:
            mapping = map_cell(workload, version, config)
            cell = f"{workload.name}/{version}"
            expected["cells"][cell] = {
                "iterations": mapping.total_iterations,
                "order_sha256": order_digest(mapping.client_order),
            }
            print(f"{cell}: {expected['cells'][cell]['order_sha256'][:12]}")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
