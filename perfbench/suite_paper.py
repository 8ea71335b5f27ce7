"""Workload ``suite-paper``: the paper-scale reproduction, as ``repro suite`` runs it.

The 8 suite workloads x {original, intra, inter, inter+sched} at
``DEFAULT_CONFIG`` (64 clients), serial and in-process with no store —
the loop a default ``repro suite`` executes.  The mapper (chunking,
O(n^2) clustering, intra search) does nearly all the work here; the
simulator is under 1 %.

The inputs are the paper's fixed workloads, run in ``repro suite``'s
order, so the seed changes nothing here.  Every cell is checked
against pinned digests of its result (per-level access/hit/miss counts)
and of its mapping (per-client iteration order).
"""

from __future__ import annotations

import contextlib
import time

from common import PassResult, level_counts, sha256_arrays, sum_counts

NAME = "suite-paper"

#: The paper's headline averages for the Inter-processor scheme (§5.2).
PAPER_IO_GAIN_PCT = 26.3
PAPER_EXEC_GAIN_PCT = 18.9
#: The paper's compile-time overhead of running the mapper (§5.1).
PAPER_COMPILE_OVERHEAD_PCT = "46-87"


def setup() -> dict:
    """Imports plus the paper-scale hierarchy every cell builds."""
    from repro.experiments.config import DEFAULT_CONFIG
    from repro.simulator import runner
    from repro.workloads.suite import SUITE

    DEFAULT_CONFIG.build_hierarchy()
    cells = [(w, v) for w in SUITE for v in runner.VERSIONS]
    return {"config": DEFAULT_CONFIG, "runner": runner, "cells": cells}


def teardown(state: dict) -> None:
    pass


def warm(state: dict) -> None:
    """One small cell so lazy imports and first-call paths run untimed."""
    from repro.experiments.config import scaled_config

    w, _ = state["cells"][0]
    state["runner"].run_experiment(w, scaled_config(16), "inter+sched")


@contextlib.contextmanager
def _capture_mappings(runner, into: dict):
    """Keep each cell's per-client iteration order for the mapping digest."""
    prepare = runner.prepare_experiment

    def capturing(workload, config, version):
        prep = prepare(workload, config, version)
        into[f"{workload.name}/{version}"] = prep.mapping.client_order
        return prep

    runner.prepare_experiment = capturing
    try:
        yield
    finally:
        runner.prepare_experiment = prepare


def run_pass(state: dict, seed: int, index: int, expected: dict) -> PassResult:
    from repro.scenario.runner import result_digest

    runner, config = state["runner"], state["config"]
    order = state["cells"]
    orders: dict = {}
    results: dict = {}
    op_ms, op_cpu_ms = [], []
    with _capture_mappings(runner, orders):
        start, cpu_start = time.perf_counter(), time.process_time()
        for workload, version in order:
            t0, c0 = time.perf_counter(), time.process_time()
            results[(workload.name, version)] = runner.run_experiment(
                workload, config, version
            )
            op_ms.append(1000.0 * (time.perf_counter() - t0))
            op_cpu_ms.append(1000.0 * (time.process_time() - c0))
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start

    cells = {
        f"{wname}/{version}": {
            "result": result_digest(res),
            "mapping": sha256_arrays(orders[f"{wname}/{version}"]),
        }
        for (wname, version), res in results.items()
    }
    info = {
        "cells": cells,
        "report": _report(results),
        "levels": sum_counts(level_counts(res.sim) for res in results.values()),
    }
    problems = []
    failed = 0
    if expected is not None:
        pinned = expected.get("cells", {})
        problems += [
            f"{cell}: digests {got} != pinned {pinned.get(cell)}"
            for cell, got in cells.items()
            if pinned.get(cell) != got
        ]
        failed = len(problems)
        for name in ("inter_io_gain_pct", "inter_exec_gain_pct"):
            want = expected.get(name)
            got = info["report"][name]
            if want is None or abs(got - want) > 1e-9:
                problems.append(f"{name} {got!r} != pinned {want!r}")
    return PassResult(wall, cpu, op_ms, op_cpu_ms, len(order), failed, info, problems)


def _report(results: dict) -> dict:
    """Paper tie-ins: average gains and mapping cost vs simulated time."""
    from repro.experiments.harness import average_improvement, normalized_suite

    nested: dict = {}
    for (wname, version), res in results.items():
        nested.setdefault(wname, {})[version] = res
    norm = normalized_suite(nested)
    ratio = {}
    for wname, per_version in nested.items():
        for version in ("inter", "inter+sched"):
            res = per_version[version]
            ratio[f"{wname}/{version}"] = (
                100.0 * res.mapping_time_s / (res.execution_time_ms / 1000.0)
            )
    return {
        "inter_io_gain_pct": 100.0 * average_improvement(norm, "inter", "io_latency"),
        "inter_exec_gain_pct": 100.0
        * average_improvement(norm, "inter", "execution_time"),
        "mapping_to_exec_pct": ratio,
    }


def pins(result: PassResult) -> dict:
    return {
        "cells": result.info["cells"],
        "inter_io_gain_pct": result.info["report"]["inter_io_gain_pct"],
        "inter_exec_gain_pct": result.info["report"]["inter_exec_gain_pct"],
    }


def report_lines(passes: list[PassResult]) -> list[str]:
    """Paper tie-ins, printed beside the metrics (reported, not gated)."""
    rep = passes[0].info["report"]
    lines = [
        f"inter_io_gain_pct = {rep['inter_io_gain_pct']:.4f} % "
        f"(paper: {PAPER_IO_GAIN_PCT} %; simulated, exact)",
        f"inter_exec_gain_pct = {rep['inter_exec_gain_pct']:.4f} % "
        f"(paper: {PAPER_EXEC_GAIN_PCT} %; simulated, exact)",
        "note: the simulation model is otherwise unvalidated against the "
        "paper's testbed",
        "mapping_to_exec_pct: host mapping time / simulated execution time, "
        f"beside the paper's {PAPER_COMPILE_OVERHEAD_PCT} % compile-time "
        "overhead (reported, not gated)",
    ]
    ratio = rep["mapping_to_exec_pct"]
    for wname in dict.fromkeys(cell.split("/")[0] for cell in ratio):
        lines.append(
            f"mapping_to_exec_pct[{wname}] = inter {ratio[wname + '/inter']:.1f} %, "
            f"inter+sched {ratio[wname + '/inter+sched']:.1f} %"
        )
    return lines
