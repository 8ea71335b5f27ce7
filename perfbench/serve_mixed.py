"""Workload ``serve-mixed``: cold and warm requests against one served store.

One closed-loop client thread with one keep-alive ``ServeClient`` drains
a seeded request sequence against an in-process ``MappingServer`` with
its defaults and a fresh ``ResultStore``.  The caller waits for each
reply, so one request is in flight at a time: on a small shared host,
more client threads beside the server's event-loop and executor threads
would measure the interpreter lock and the scheduler rather than the
server.

One pass is REQUESTS requests at scale 8.  Each *cell* appears once
*cold* — under a fresh config ``seed`` sent through the config
fingerprint, so the key is new to the store — at a seeded position, and
the remaining slots repeat a key issued earlier in the pass (*warm*).
The cells are the 32 suite cells (workload x version), one suite cell
again with write-back and ``prefetch_degree=2`` (the write and prefetch
paths), and 3 generator scenarios (Zipf under ARC at L2, on/off under
RRIP at L2/L3, Zipf under LRU).  Two of the cold keys go out together
in one ``/v1/batch`` request that names the first of them twice: the
server runs batch items concurrently, so the repeat is coalesced onto
the first and the two distinct keys share one executor batch.  Warm
requests exercise HTTP, queueing and the store; cold ones exercise
coalescing, the executor, small mappings, the scenario generators, the
ARC and RRIP policies, both simulation engines and the write path.
Every pass uses fresh seeds, so its cold keys are cold even though the
store lives for the whole run.

Checks: every warm body equals its key's cold body byte for byte (a
batch item's body is its canonical encoding, as a single answer would
carry it); each body names its request's workload, version and digest;
each result's per-level counters match the pinned ones for its suite
cell (the config seed does not enter these mappings, so they hold at
any seed) or, for a scenario (whose streams follow the seed), conserve
flow; at the default seed the first pass's bodies, in sequence order
and without their host-time field ``mapping_time_s``, hash to a pinned
digest.

Server-side errors logged while the benchmark runs are counted by
``run.py`` (``serve.logged_errors``), not suppressed.  Errors logged
while the server drains at the end of the run are reported, but are not
failed requests.

Traced passes run against the same server and store as untraced ones:
the server reads the registry and tracer a traced pass turns on.  Its
``executor=`` is the default ``SerialExecutor`` behind a proxy that
spans each batch (``exec.batch``), a no-op while no tracer is on.
"""

from __future__ import annotations

import collections
import json
import shutil
import tempfile
import threading
import time

from common import (
    DEFAULT_SEED,
    OUT_DIR,
    PassResult,
    flow_problems,
    median,
    sha256_json,
    sum_counts,
    tail,
)

NAME = "serve-mixed"

SCALE = 8
REQUESTS = 116  # 35 cold (one a batch of 2 keys) + 81 warm: ~70 % repeats
CLIENT_TIMEOUT_S = 60.0
SCENARIO_REQUESTS_PER_CLIENT = 512

#: The suite cell sent a second time with write-back and prefetching on
#: (madbench2 is the only suite workload whose writes reach the disks at
#: this scale; its pinned per-level digest includes the write-backs).
WRITE_CELL = ("madbench2", "inter+sched")
WRITE_OPTIONS = {"writeback": True, "prefetch_degree": 2}

#: Cold generator-scenario cells beside the suite cells: their streams
#: come from the scenario generators, and ARC / RRIP levels send them
#: through the reference engine.  Keyed as the server names them.
SCENARIOS = {
    f"scenario:perfbench-{name}": {
        "name": f"perfbench-{name}",
        "kind": kind,
        "params": dict(params, requests_per_client=SCENARIO_REQUESTS_PER_CLIENT),
        "policies": policies,
    }
    for name, kind, params, policies in (
        ("zipf-hot", "zipf", {"alpha": 1.1}, ["lru", "arc", "lru"]),
        ("onoff", "onoff", {}, ["lru", "rrip", "rrip"]),
        ("zipf-uniform", "zipf", {"alpha": 0.4}, None),
    )
}


class SpannedExecutor:
    """The server's ``executor=``: its default, one ``exec.batch`` span a batch.

    The span is the program's ``repro.obs`` span, so it records only
    while a traced pass has a tracer on.
    """

    def __init__(self):
        from repro.exec.executor import SerialExecutor

        self._executor = SerialExecutor()

    def run_payloads(self, payloads, on_result=None):
        from repro.obs.tracer import span

        with span("exec.batch", size=len(payloads)):
            return self._executor.run_payloads(payloads, on_result)

    def __getattr__(self, name):
        return getattr(self._executor, name)


def setup() -> dict:
    """Imports, a fresh store, and a server started until ready."""
    from repro.exec.store import ResultStore
    from repro.experiments.config import scaled_config
    from repro.serve.client import ServeClient, ServeError
    from repro.serve.server import MappingServer
    from repro.simulator.runner import VERSIONS
    from repro.util.fingerprint import config_fingerprint
    from repro.workloads.suite import SUITE

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="serve-", dir=OUT_DIR)
    server = MappingServer(
        port=0, store=ResultStore(f"{scratch}/store"), executor=SpannedExecutor()
    )
    # Daemon thread: a hung server must not keep a failed run alive.
    thread = threading.Thread(
        target=lambda: server.serve_forever(install_signals=False),
        name="perfbench-serve",
        daemon=True,
    )
    thread.start()
    state = {"scratch": scratch, "server": server, "thread": thread}
    if not server.ready.wait(60.0):
        teardown(state)
        raise RuntimeError("server did not become ready")
    # cell label -> (workload, version, write options): bodies name the
    # workload and version; scenarios are named as the server names them.
    cells = {f"{w.name}/{v}": (w.name, v, {}) for w in SUITE for v in VERSIONS}
    cells["{}/{}/writeback".format(*WRITE_CELL)] = (*WRITE_CELL, WRITE_OPTIONS)
    cells.update({name: (name, spec["kind"], {}) for name, spec in SCENARIOS.items()})
    state.update(
        cells=cells,
        client=(ServeClient, ServeError),
        fingerprint=lambda s, options: config_fingerprint(
            scaled_config(SCALE, seed=s, **options)
        ),
    )
    return state


def teardown(state: dict) -> None:
    try:
        state["server"].request_shutdown()
        state["thread"].join(60.0)
        if state["thread"].is_alive():
            raise RuntimeError("server did not drain")
    finally:
        shutil.rmtree(state["scratch"], ignore_errors=True)


def warm(state: dict) -> None:
    pass


def sequence(state: dict, seed: int, index: int) -> list[tuple[tuple[str, int], ...]]:
    """Pass ``index``'s requests, each a tuple of (cell label, config seed) items.

    A single request has one item; the pass's batch request has three:
    a cold key, the same key again, and the next cold key.
    """
    from repro.util.rng import derive_seed, make_rng

    rng = make_rng(derive_seed(seed, NAME, index))
    cells = list(state["cells"])
    cold_order = rng.permutation(len(cells))
    keys = [
        (cells[int(c)], derive_seed(seed, NAME, index, k))
        for k, c in enumerate(cold_order)
    ]
    cold = [(key,) for key in keys]
    b = int(rng.integers(len(keys) - 1))
    cold[b : b + 2] = [(keys[b], keys[b], keys[b + 1])]
    cold_slots = {0, *(1 + rng.choice(REQUESTS - 1, len(cold) - 1, replace=False)).tolist()}
    seq, issued, fresh = [], [], iter(cold)
    for slot in range(REQUESTS):
        if slot in cold_slots:
            seq.append(next(fresh))
            issued += dict.fromkeys(seq[-1])
        else:
            seq.append((issued[int(rng.integers(len(issued)))],))
    return seq


def _drive(state: dict, url: str, seq) -> tuple[float, float, list]:
    """The closed loop: one client sends ``seq`` in order, waiting for each reply.

    Returns the loop's wall-clock and CPU seconds and, per request, its
    (source, wall seconds, CPU seconds, response or error).
    """
    ServeClient, ServeError = state["client"]

    def item(label, s):
        w, v, options = state["cells"][label]
        config = state["fingerprint"](s, options)
        if label in SCENARIOS:
            return {"config": config, "scenario": SCENARIOS[label]}
        return {"workload": w, "version": v, "config": config}

    outcomes = []
    start, cpu_start = time.perf_counter(), time.process_time()
    with ServeClient(url, timeout=CLIENT_TIMEOUT_S) as client:
        for request in seq:
            items = [item(*key) for key in request]
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                if len(items) == 1:
                    resp = client.experiment(**items[0])
                else:
                    resp = client.batch(items)
            except (ServeError, OSError) as exc:
                source, resp = "error", repr(exc)
            else:
                source = resp.source or "batch"
            dt, dc = time.perf_counter() - t0, time.process_time() - c0
            outcomes.append((source, dt, dc, resp))
    return time.perf_counter() - start, time.process_time() - cpu_start, outcomes


def _items(request, resp) -> list[tuple]:
    """(key, source, body, doc, digest) for each item of one answer."""
    if len(request) == 1:
        return [(request[0], resp.source, resp.body, resp.doc, resp.digest)]
    from repro.serve.protocol import encode_doc

    return [
        (key, source, encode_doc(doc), doc, doc.get("digest"))
        for key, source, doc in zip(request, resp.sources, resp.items)
    ]


def _doc_without_host_time(doc: dict) -> dict:
    doc = json.loads(json.dumps(doc))
    doc["result"].pop("mapping_time_s", None)
    return doc


def run_pass(state: dict, seed: int, index: int, expected: dict) -> PassResult:
    seq = sequence(state, seed, index)
    wall, cpu, outcomes = _drive(state, f"http://127.0.0.1:{state['server'].port}", seq)

    problems = []
    failed = 0
    first_body: dict = {}
    bodies: list = []
    cold_ms, warm_ms, op_ms, op_cpu_ms = [], [], [], []
    sources = collections.Counter()
    levels: dict = {}
    pinned = (expected or {}).get("results", {})
    for i, (request, (source, dt, dc, resp)) in enumerate(zip(seq, outcomes)):
        if source == "error":
            failed += len(request)
            bodies += [None] * len(request)
            problems.append(f"request {i} {request[0][0]}: {resp}")
            continue
        op_ms.append(1000.0 * dt)
        op_cpu_ms.append(1000.0 * dc)
        # Coalesced requests and the batch waited on a computation: cold.
        (warm_ms if source == "cache" else cold_ms).append(1000.0 * dt)
        items = _items(request, resp)
        if len(items) != len(request):
            failed += len(request)
            problems.append(f"request {i}: {len(items)} items for {len(request)} asked")
            continue
        for (label, s), src, body, doc, digest in items:
            sources[src] += 1
            w, v, _ = state["cells"][label]
            bad = None
            if src == "error":
                bad = f"item failed: {doc.get('error')}"
            elif (label, s) in first_body and body != first_body[(label, s)]:
                bad = "body differs from the key's first body"
            elif doc.get("workload") != w or doc.get("version") != v:
                bad = f"body names {doc.get('workload')}/{doc.get('version')}"
            elif not digest or doc.get("digest") != digest:
                bad = "body digest differs from the X-Repro-Digest header"
            elif label in SCENARIOS:
                requests = SCENARIO_REQUESTS_PER_CLIENT * (64 // SCALE)
                flow = flow_problems("", _counts(doc["result"]["sim"]), requests)
                bad = "; ".join(flow) or None
            elif expected is not None and sha256_json(
                doc["result"]["sim"]["levels"]
            ) != pinned.get(label):
                bad = "per-level counters differ from the pinned cell"
            bodies.append(None if src == "error" else _doc_without_host_time(doc))
            if bad:
                failed += 1
                problems.append(f"request {i} {label}: {bad}")
                continue
            first_body.setdefault((label, s), body)
            if src != "cache" and label not in levels:
                levels[label] = doc["result"]["sim"]

    info = {
        "bodies_digest": sha256_json(bodies),
        # Scenario streams follow the config seed: only suite cells pin.
        "results": {
            label: sha256_json(sim["levels"])
            for label, sim in levels.items()
            if label not in SCENARIOS
        },
        "cold_ms": cold_ms,
        "warm_ms": warm_ms,
        "sources": dict(sources),
        "levels": sum_counts(_counts(sim) for sim in levels.values()),
    }
    if (
        expected is not None
        and seed == DEFAULT_SEED
        and index == 0
        and info["bodies_digest"] != expected.get("bodies_digest")
    ):
        problems.append(
            f"bodies digest {info['bodies_digest']} != pinned {expected.get('bodies_digest')}"
        )
    attempted = sum(len(request) for request in seq)
    return PassResult(wall, cpu, op_ms, op_cpu_ms, attempted, failed, info, problems)


def _counts(sim: dict) -> dict:
    """``common.level_counts`` of a served (serialised) simulation result."""
    doc = {
        level: {k: st[k] for k in ("accesses", "hits", "misses", "writebacks")}
        for level, st in sim["levels"].items()
    }
    doc["disk"] = {"reads": sim["disk_reads"], "writes": sim["disk_writes"]}
    return doc


def layer_metrics(result: PassResult, tree) -> dict:
    """Store, executor and serve-layer figures of one traced pass.

    Store times come from the server's own ``store.get`` / ``store.put``
    spans, batch figures from the ``exec.batch`` spans.
    """

    def mean_ms(recs) -> float:
        return 1000.0 * sum(r["elapsed_s"] for r in recs) / len(recs) if recs else 0.0

    gets = tree.named("store.get")
    hits = [s for s in gets if s["attrs"].get("hit")]
    batches = tree.named("exec.batch")
    warm = result.info["warm_ms"]
    return {
        "store.get_ms": mean_ms(gets),
        "store.put_ms": mean_ms(tree.named("store.put")),
        "store.hit_frac": len(hits) / len(gets) if gets else 0.0,
        "exec.batch_ms": mean_ms(batches),
        "exec.batch_size": (
            sum(b["attrs"]["size"] for b in batches) / len(batches) if batches else 0.0
        ),
        "serve.overhead_ms": (sum(warm) / len(warm) - mean_ms(hits)) if warm else 0.0,
    }


def pins(result: PassResult) -> dict:
    return {
        "seed": DEFAULT_SEED,
        "bodies_digest": result.info["bodies_digest"],
        "results": dict(sorted(result.info["results"].items())),
    }


def report_lines(passes: list[PassResult]) -> list[str]:
    cold = [x for p in passes for x in p.info["cold_ms"]]
    warm = [x for p in passes for x in p.info["warm_ms"]]
    walls = [p.wall_s for p in passes]
    lines = [
        f"serve_rps = {REQUESTS / median(walls):.3f} 1/s "
        f"({REQUESTS} requests per pass, one closed-loop client, median pass)",
    ]
    for name, xs in (("cold", cold), ("warm", warm)):
        if xs:
            lines.append(f"{name}_p50_ms = {median(xs):.4f} ms ({len(xs)} samples)")
            lines.append(f"{name}_tail_ms = {tail(xs).describe('ms')}")
    sources = collections.Counter()
    for p in passes:
        sources.update(p.info["sources"])
    lines.append(f"sources = {dict(sources)}")
    return lines
