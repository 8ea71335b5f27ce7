"""The repository benchmark: one command per workload, every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite-paper --seed 0 --seconds 45 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``suite-paper`` — the paper-scale ``repro suite``: mapper-bound;
* ``serve-mixed`` — cold and warm requests to an in-process server.

A run sets the workload up, then runs *passes* (one fixed unit of work
each) until ``--seconds`` would be exceeded, at least one.  With
``--trace 0`` it reports the end-to-end metrics, untraced.  With
``--trace 1`` it alternates untraced and traced passes (at least one
of each), reports the per-layer metrics from the traced ones, and the
tracing overhead as traced versus untraced pass CPU time (see
``tracing.py``: a traced pass also turns on the program's telemetry).

The gated times are CPU time of the benchmark process (every thread),
not wall-clock time: on a small shared virtual machine the hypervisor
takes the CPUs away for stretches (steal time) that stretch wall-clock
figures by as much as 70 % from one minute to the next, while CPU time
leaves them out.  The wall-clock figures are printed beside them as
``report`` lines.

Every pass checks its outputs (see each workload module).  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 when every check passed, 1 when one failed, and 2
when the run cannot start (e.g. the checkout has no ``src/repro``).
``--pin`` re-pins ``perfbench/expected.json`` for one workload from a
run at the default seed instead of checking against it.

Run records (every figure, the host fingerprint, per-pass detail) and
span logs are written to ``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

from common import (
    DEFAULT_SEED,
    OUT_DIR,
    ROOT,
    SRC,
    ErrorLog,
    host_fingerprint,
    load_expected,
    median,
    peak_rss_mb,
    save_expected,
    tail,
    time_setups,
)

#: Single-threaded BLAS for every run (and its set-up children): on a
#: small shared host a second BLAS thread competes with the interpreter
#: threads and widens the run-to-run spread.  Set before numpy loads.
BLAS_THREADS = "1"

MODULES = {
    "suite-paper": "suite_paper",
    "serve-mixed": "serve_mixed",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(MODULES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true", help="re-pin expected.json")
    return p.parse_args(argv)


def _fail_start(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _measure(mod, state, args, expected, errors):
    """Run passes for ``args.seconds``.

    Returns the untraced passes, the traced passes, one per-layer row per
    traced pass, and every traced pass's spans.
    """
    from tracing import Trace

    plain, traced, rows, spans = [], [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        logged_before = errors.count
        if args.trace and index % 2 == 1:
            trace = Trace()
            with trace.active():
                res = mod.run_pass(state, args.seed, index, expected)
            pass_spans = trace.spans()
            rows.append(_layer_row(mod, res, trace, pass_spans))
            spans += [dict(s, pass_index=index) for s in pass_spans]
            traced.append(res)
        else:
            res = mod.run_pass(state, args.seed, index, expected)
            plain.append(res)
        logged = errors.count - logged_before
        if logged:
            res.failed += logged
            res.problems.append(f"pass {index}: {logged} error(s) logged")
        index += 1
        if plain and (not args.trace or traced):
            typical = median([p.wall_s for p in plain + traced])
            if time.perf_counter() - start + typical > args.seconds:
                break
    return plain, traced, rows, spans


def _layer_row(mod, res, trace, spans) -> dict:
    """Per-layer figures of one traced pass (0 where a layer did no work)."""
    from tracing import REGISTRY_COUNTERS, SIMULATE_SPANS, SpanTree

    tree = SpanTree(spans)
    row = tree.layer_self_times()
    row["chunking.chunks"] = trace.counts["chunking.chunks"]
    row["graph.nodes"] = trace.counts["graph.nodes"]
    for name in SIMULATE_SPANS:
        row[f"{name}_accesses"] = sum(s["attrs"]["accesses"] for s in tree.named(name))
    for name, metric in REGISTRY_COUNTERS.items():
        row[metric] = trace.counter(name)
    per_cell = tree.coverage()
    cov = list(per_cell.values())
    row["coverage.min_pct"] = 100.0 * min(cov) if cov else 0.0
    row["coverage.median_pct"] = 100.0 * median(cov) if cov else 0.0
    for level, counters in res.info.get("levels", {}).items():
        for k, v in counters.items():
            row[f"disk.{k}" if level == "disk" else f"levels.{level}.{k}"] = v
    if hasattr(mod, "layer_metrics"):
        row.update(mod.layer_metrics(res, tree))
    row["trace.spans"] = len(spans)
    row["_coverage"] = per_cell  # printed per cell, not a metric
    return row


def _check_repeatable(passes) -> list[str]:
    """Every pass of a run must reproduce the first pass's digests."""
    problems = []
    for key in ("cells", "results"):
        first = passes[0].info.get(key)
        for i, p in enumerate(passes[1:], 1):
            if p.info.get(key) != first:
                problems.append(f"pass {i}: {key} digests differ from pass 0")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail_start(f"{spec_path.name} not found at the checkout root")
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail_start("no repro sources under src/ in this checkout")
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import repro

    if not repro.__file__.startswith(str(SRC)):
        return _fail_start(f"imported repro from {repro.__file__}, not {SRC}")
    spec = json.loads(spec_path.read_text())
    mod = importlib.import_module(MODULES[args.workload])
    if args.pin and (args.seed != DEFAULT_SEED or args.trace):
        return _fail_start("--pin needs the default seed and --trace 0")
    # None: pinning, so nothing to check against yet.
    expected = None if args.pin else load_expected().get(args.workload, {})

    host = host_fingerprint()
    setup_cpu, setup_wall = time_setups(mod.__name__)
    errors = ErrorLog().install()
    try:
        state = mod.setup()
        state["errors"] = errors
        try:
            mod.warm(state)
            plain, traced, rows, spans = _measure(mod, state, args, expected, errors)
        finally:
            logged_before_teardown = errors.count
            mod.teardown(state)
            shutdown_errors = errors.count - logged_before_teardown
    finally:
        errors.remove()

    passes = plain + traced
    problems = [p for res in passes for p in res.problems] + _check_repeatable(passes)
    if args.pin:
        doc = load_expected()
        doc[args.workload] = mod.pins(plain[0])
        save_expected(doc)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = not problems and failed == 0

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {
            name: median([row[name] for row in rows if name in row] or [0.0])
            for name in units
        }
        values["serve.logged_errors"] = errors.count
        values["trace.overhead_pct"] = 100.0 * (
            median([p.cpu_s for p in traced]) / median([p.cpu_s for p in plain]) - 1.0
        )
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "cpu_s": median([p.cpu_s for p in plain]),
            "setup_s": median(setup_cpu),
            "peak_rss_mb": peak_rss_mb(),
            "op_cpu_ms": median([x for p in plain for x in p.op_cpu_ms]),
        }
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"no value for metric(s) {sorted(missing)}")

    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}",
        f"host {json.dumps(host, sort_keys=True)}",
        f"passes {len(plain)} untraced, {len(traced)} traced; "
        f"pass cpu_s {[round(p.cpu_s, 4) for p in passes]}",
        f"pass wall_s {[round(p.wall_s, 4) for p in passes]}",
        f"setup samples cpu_s {[round(s, 4) for s in setup_cpu]}, "
        f"wall_s {[round(s, 4) for s in setup_wall]}",
    ]
    lines += [f"metric {name} = {values[name]!r} {units[name]}" for name in units]
    ops = [x for p in plain for x in p.op_ms]
    lines += [
        f"report wall_s = {median([p.wall_s for p in plain]):.4f} s (median pass, wall clock)",
        f"report op_p50_ms = {median(ops):.4f} ms (median operation, wall clock)",
        f"report op_tail_ms = {tail(ops).describe('ms')}",
        f"report setup_wall_s = {median(setup_wall):.4f} s (median set-up, wall clock)",
    ]
    lines += [f"report {line}" for line in mod.report_lines(plain)]
    if rows:
        lines += [
            f"coverage[{cell}] = {100.0 * share:.2f} % of cell time in layer spans"
            for cell, share in sorted(rows[0]["_coverage"].items())
        ]
    lines += [
        f"report failed_frac = {failed / attempted:.6f} ({failed} of {attempted} "
        "operations: errors, refusals, digest mismatches)",
        f"report errors logged during teardown (server drain) = {shutdown_errors} "
        f"(of {errors.count} logged in the run; not failed operations)",
    ]
    lines += [f"problem {p}" for p in problems]
    print("\n".join(lines))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "lines": lines,
        "metrics": values,
        "passes": [
            {
                "wall_s": p.wall_s,
                "cpu_s": p.cpu_s,
                "op_ms": p.op_ms,
                "op_cpu_ms": p.op_cpu_ms,
                "traced": kind == "traced",
            }
            for kind, group in (("plain", plain), ("traced", traced))
            for p in group
        ],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans:
        with (OUT_DIR / f"{stem}.spans.jsonl").open("w") as fh:
            for rec in spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
