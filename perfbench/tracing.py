"""Per-layer attribution of a traced pass.

A traced pass turns on the program's own telemetry for its duration: a
live ``MetricsRegistry`` (``use_registry``) and a ``repro.obs`` span
``Tracer`` (``use_tracer``).  The program then records, as parented
spans, the phases it already times — ``workload_build``, ``mapping``,
``chunking``, ``affinity_graph``, ``clustering``, ``scheduling``,
``streams``, ``scenario_streams``, ``simulate`` — and, in a server,
``request.experiment``, ``store.get``, ``store.put`` and ``exec.task``;
its counters (clustering merges, balancing moves, ...) land in the
registry.

From outside, a traced pass wraps only the calls the program does not
phase, each in a ``repro.obs`` span on the same tracer:
``run_experiment`` (the cell's root, carrying its ``cell`` name),
``IntraProcessorMapper.map``, ``OriginalMapper.map``,
``balance_clusters``, and each ``simulate()`` call, named by the engine
path it takes.  Two more wrappers count chunks and graph nodes without
recording anything.  The wrappers are removed when the pass ends.  No
program file changes.

So the traced passes pay for the program's telemetry as well as for
the spans: ``trace.overhead_pct`` measures both.

A span's *self time* is its duration minus the durations of its
children (children nest inside their parent).
"""

from __future__ import annotations

import collections
import contextlib
import functools
import threading

#: Span name -> per-layer self-time metric.  The program's own phases
#: first, then the spans the outside wrappers add.
LAYER_SPANS = {
    "workload_build": "workloads.build_s",
    "chunking": "chunking.form_s",
    "affinity_graph": "graph.build_s",
    "clustering": "clustering.distribute_s",
    "scheduling": "scheduling.schedule_s",
    # InterProcessorMapper.map minus its phased children: _finalize.
    "mapping": "mapper.self_s",
    "streams": "streams.build_s",
    "scenario_streams": "scenario.generate_s",
    "balancing.balance": "balancing.balance_s",
    "intra.map": "intra.map_s",
    "original.map": "original.map_s",
    "simulate.fast": "simulate.fast_s",
    "simulate.reference": "simulate.reference_s",
    "simulate.write": "simulate.write_s",
}

#: Mappers whose work sits in a ``mapping`` phase directly under their
#: span: that phase's self time is charged to the mapper.
WRAPPED_MAPPERS = ("intra.map", "original.map")

#: Spans that only group layers: their self time is cell time that no
#: layer covers.
CONTAINER_SPANS = ("experiment.run", "prepare", "simulate")

#: One ``simulate()`` span per engine path.
SIMULATE_SPANS = ("simulate.fast", "simulate.reference", "simulate.write")

#: Registry counters the program keeps (registry name -> metric name).
REGISTRY_COUNTERS = {
    "clustering.merges": "clustering.merges",
    "balancing.moves": "balancing.moves",
    "balancing.splits": "balancing.splits",
    "scheduling.groups": "scheduling.groups",
    "baselines.intra.candidates": "intra.candidates",
    "serve.coalesced": "serve.coalesced",
    "serve.rejected": "serve.rejected",
}

#: Far above the few thousand spans one pass records; a pass that
#: overflows the ring fails instead of reporting partial figures.
SPAN_CAPACITY = 1 << 20


class Trace:
    """The program's telemetry for one pass, plus the outside wrappers."""

    def __init__(self):
        from repro.obs.tracer import Tracer
        from repro.telemetry import MetricsRegistry

        self.tracer = Tracer(capacity=SPAN_CAPACITY)
        self.registry = MetricsRegistry()
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def active(self):
        """Telemetry on and the wrappers in place, for the scope."""
        from repro.obs.tracer import use_tracer
        from repro.telemetry import use_registry

        with use_registry(self.registry), use_tracer(self.tracer):
            self._patch_all()
            try:
                yield self
            finally:
                while self._patches:
                    owner, attr, original = self._patches.pop()
                    setattr(owner, attr, original)

    def spans(self) -> list[dict]:
        if self.tracer.dropped:
            raise RuntimeError(f"span ring overflowed ({self.tracer.dropped} dropped)")
        return [s.as_dict() for s in self.tracer.spans()]

    def counter(self, name: str) -> int:
        return sum(int(c.value) for n, _, c in self.registry.counters() if n == name)

    # -- wrappers -------------------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._patches.append((owner, attr, original))

    def _span(self, owner, attr: str, name: str, attrs=None) -> None:
        """Run ``owner.attr`` inside a span; ``attrs(*args)`` labels it."""
        from repro.obs.tracer import span

        def make(original):
            def traced(*args, **kwargs):
                with span(name, **(attrs(*args, **kwargs) if attrs else {})):
                    return original(*args, **kwargs)

            return traced

        self._replace(owner, attr, make)

    def _count(self, owner, attr: str, metric: str, size) -> None:
        """Add ``size(result)`` of each ``owner.attr`` call to ``counts``."""

        def make(original):
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                with self._lock:
                    self.counts[metric] += size(result)
                return result

            return counted

        self._replace(owner, attr, make)

    def _split_simulate(self, module) -> None:
        """Span each ``simulate()`` that ``module.resolve_engine`` hands out.

        The span is named by the path the call takes — ``simulate.write``
        with write masks, else ``simulate.fast`` when every cache runs a
        vectorised policy, else ``simulate.reference`` (the fallback) —
        and carries the number of requests simulated.
        """
        from repro.obs.tracer import span
        from repro.simulator.fast import is_vectorizable

        def make(resolve):
            def resolve_traced(name=None):
                simulate = resolve(name)

                @functools.wraps(simulate)
                def simulate_traced(streams, hierarchy, *args, **kwargs):
                    if kwargs.get("write_masks") is not None:
                        path = "simulate.write"
                    elif is_vectorizable(hierarchy):
                        path = "simulate.fast"
                    else:
                        path = "simulate.reference"
                    accesses = sum(len(s) for s in streams.values())
                    with span(path, accesses=accesses):
                        return simulate(streams, hierarchy, *args, **kwargs)

                return simulate_traced

            return resolve_traced

        self._replace(module, "resolve_engine", make)

    def _patch_all(self) -> None:
        from repro.core import baselines, clustering, mapper
        from repro.simulator import engines, runner

        self._span(
            runner,
            "run_experiment",
            "experiment.run",
            attrs=lambda workload, config, version, *a, **k: {
                "cell": f"{workload.name}/{version}"
            },
        )
        self._span(baselines.OriginalMapper, "map", "original.map")
        self._span(baselines.IntraProcessorMapper, "map", "intra.map")
        self._span(clustering, "balance_clusters", "balancing.balance")
        self._count(mapper, "form_iteration_chunks", "chunking.chunks", lambda c: c.num_chunks)
        self._count(mapper, "build_affinity_graph", "graph.nodes", lambda g: g.num_nodes)
        # Experiments resolve the engine through the runner's import of
        # resolve_engine; scenarios through the engines module's own.
        for module in (runner, engines):
            self._split_simulate(module)


# -- analysis -----------------------------------------------------------------------


class SpanTree:
    """Self times and layer attribution over one pass's span dicts."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["span_id"]: s for s in spans}
        self.children: dict[str, list[dict]] = collections.defaultdict(list)
        for s in spans:
            if s["parent_id"] in self.by_id:
                self.children[s["parent_id"]].append(s)

    def own(self, rec: dict) -> float:
        return rec["elapsed_s"] - sum(c["elapsed_s"] for c in self.children[rec["span_id"]])

    def layer(self, rec: dict) -> str | None:
        name = rec["name"]
        if name == "mapping":
            parent = self.by_id.get(rec["parent_id"])
            if parent is not None and parent["name"] in WRAPPED_MAPPERS:
                name = parent["name"]
        return LAYER_SPANS.get(name)

    def layer_self_times(self) -> dict[str, float]:
        """Per-layer metric -> summed self time, plus the unattributed rest."""
        out = {metric: 0.0 for metric in LAYER_SPANS.values()}
        out["experiment.unattributed_s"] = 0.0
        for rec in self.spans:
            metric = self.layer(rec)
            if metric is not None:
                out[metric] += self.own(rec)
            elif rec["name"] in CONTAINER_SPANS:
                out["experiment.unattributed_s"] += self.own(rec)
        return out

    def coverage(self) -> dict[str, float]:
        """Per cell: the share of its time inside layer spans."""
        out = {}
        for rec in self.spans:
            if rec["name"] != "experiment.run" or rec["elapsed_s"] <= 0:
                continue
            stack, unattributed = [rec], 0.0
            while stack:
                node = stack.pop()
                if node["name"] in CONTAINER_SPANS:
                    unattributed += self.own(node)
                    stack.extend(self.children[node["span_id"]])
            out[rec["attrs"]["cell"]] = 1.0 - unattributed / rec["elapsed_s"]
        return out

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]
