"""Spans and counts recorded around repro's public entry points.

The benchmark never turns on ``repro.obs``: it patches the entry points
listed in ``ENTRY_POINTS`` where their callers look them up, records one
span per call (name, start, end, parent) and reads counts from the
objects the calls return.  A :class:`Recorder` has two modes:

* ``timed=False`` (the untraced run) wraps only the three simulation
  engines (``ENGINES``) and keeps a small summary of each result and the
  host seconds the call took, which the output checks and the
  simulated-work rates need.
* ``timed=True`` (the traced run) wraps every entry point and records
  spans, from which :func:`layer_metrics` derives per-layer self time.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

#: (label, module, attribute path) of every patched entry point.  The
#: module is where the caller looks the name up, so a function imported
#: by name into another module is patched in that module.
ENTRY_POINTS = (
    ("compile", "repro.compiler.driver", "TPUDriver.compile"),
    ("replay", "repro.core.device", "TPUDevice.run"),
    # Every curve lookup, the module-level helpers and ``PerfCache.warm``
    # included, goes through this method.
    ("curve_probe", "repro.perfcache", "PerfCache.occupancy_latency"),
    ("fleet", "repro.serving.fleet", "FleetSim.run"),
    ("llm", "repro.serving.continuous", "ContinuousBatchingSim.run"),
    ("plan", "repro.analysis.datacenter", "plan_capacity"),
    ("autoscale", "repro.analysis.datacenter", "compare_policies"),
    ("route", "repro.globe", "plan_routes"),
    ("hybrid", "repro.globe", "evaluate_hybrid"),
    ("exact", "repro.globe", "evaluate_exact"),
    ("run", "repro", "run"),
)

#: The simulation engines: the untraced run wraps only these.
ENGINES = ("replay", "fleet", "llm")


@dataclass
class Span:
    name: str
    phase: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)
    child_seconds: float = 0.0

    @property
    def self_seconds(self) -> float:
        return (self.end - self.start) - self.child_seconds


def _fleet_info(sim, result) -> dict:
    return {
        "router": type(sim.router).__name__,
        "requests": int(sim.arrivals.size),
        "served": int(sum(result.served_per_replica)),
        "unserved": int(result.unserved),
        "batches": int(sum(result.batches_per_replica)),
    }


def _llm_info(result) -> dict:
    prompts = result.prompts
    return {
        "requests": int(result.arrivals.size),
        "tokens": int(result.tokens),
        "decode_tokens": int(result.decodes.sum()),
        "iterations": int(result.iterations),
        "evictions": int(result.evictions),
        "prompt_tokens": int(prompts.sum()),
        "prefilled_tokens": int((prompts * result.prefills).sum()),
    }


class Recorder:
    """Installs the entry-point wrappers and keeps what they record."""

    def __init__(self, timed: bool) -> None:
        self.timed = timed
        self.phase = "setup"
        self.spans: list[Span] = []
        #: (engine label, summary) of every engine run, in call order (both
        #: modes); each summary holds the call's host ``seconds``.
        self.sims: list[tuple[str, dict]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        for label, module_name, path in ENTRY_POINTS:
            if not self.timed and label not in ENGINES:
                continue
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(label, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans ----------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span the benchmark opens itself."""
        if not self.timed:
            return fn(*args, **kwargs)
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.phase, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_seconds += span.end - span.start

    def _wrap(self, label: str, original):
        recorder = self

        if not self.timed:
            def counted(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                recorder._observe(label, args, kwargs, result, time.perf_counter() - start)
                return result

            return counted

        def traced(*args, **kwargs):
            before = _lowering_stats() if label == "compile" else None
            index = recorder._open(label)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                recorder._close(index)
                recorder.spans[index].info["error"] = type(exc).__name__
                raise
            recorder._close(index)
            span = recorder.spans[index]
            span.info.update(
                recorder._observe(label, args, kwargs, result, span.end - span.start, before)
            )
            return result

        return traced

    def _observe(
        self, label: str, args: tuple, kwargs: dict, result, seconds: float, before=None
    ) -> dict:
        """What a span keeps of its call; engine runs also go to ``sims``."""
        if label in ENGINES:
            if label == "fleet":
                info = _fleet_info(args[0], result)
            elif label == "llm":
                info = _llm_info(result)
            else:
                info = {
                    "functional": bool(args[0].functional),
                    "instructions": len(args[1].instructions),
                    "cycles": float(result.cycles),
                }
            info["seconds"] = seconds
            self.sims.append((label, info))
            return info
        if label == "compile":
            return _compile_info(before, kwargs, result)
        if label == "hybrid":
            return {"cells": dict(result.backend_cells)}
        return {}


def _lowering_stats() -> tuple[int, int]:
    from repro import perfcache

    stats = perfcache.GLOBAL_LOWERING.stats()
    return stats.hits, stats.misses


def _compile_info(before: tuple[int, int], kwargs: dict, result) -> dict:
    hits, misses = _lowering_stats()
    if kwargs.get("params") is not None or misses > before[1]:
        kind = "lower"
    elif hits > before[0]:
        kind = "materialize"
    else:
        kind = "cached"
    return {"kind": kind, "instructions": len(result.program.instructions)}


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: name -> (unit, better); the order is the order they are printed in.
LAYER_METRICS = {
    "nn.build_ms": ("ms", "lower"),
    "compiler.lower_ms": ("ms", "lower"),
    "compiler.instructions": ("count", "lower"),
    "compiler.infeasible": ("count", "lower"),
    "compiler.materialize_ms": ("ms", "lower"),
    "compiler.lowering_hit_rate": ("ratio", "higher"),
    "core.replay_ns_per_instr": ("ns", "lower"),
    "core.sim_cycles": ("count", "lower"),
    "core.functional_ms": ("ms", "lower"),
    "platforms.curve_probe_ms": ("ms", "lower"),
    "perfcache.hit_rate": ("ratio", "higher"),
    "analysis.paper_experiments_ms": ("ms", "lower"),
    "serving.fleet_rr_ns_per_request": ("ns", "lower"),
    "serving.fleet_jsq_ns_per_request": ("ns", "lower"),
    "serving.requests": ("count", "higher"),
    "serving.unserved": ("count", "lower"),
    "serving.batches": ("count", "lower"),
    "serving.mean_batch": ("req/batch", "higher"),
    "serving.llm_us_per_iteration": ("us", "lower"),
    "serving.llm_iterations": ("count", "lower"),
    "serving.llm_tokens": ("count", "higher"),
    "serving.llm_evictions": ("count", "lower"),
    "serving.llm_useful_token_ratio": ("ratio", "higher"),
    "datacenter.plan_ms": ("ms", "lower"),
    "datacenter.fleet_sims_per_plan": ("count", "lower"),
    "datacenter.autoscale_ms": ("ms", "lower"),
    "globe.route_ms": ("ms", "lower"),
    "globe.hybrid_ms": ("ms", "lower"),
    "globe.cells_analytic": ("count", "higher"),
    "globe.cells_event": ("count", "lower"),
    "globe.cells_fluid": ("count", "higher"),
    "globe.exact_ms": ("ms", "lower"),
    "api.run_self_ms": ("ms", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
}

#: span label -> the layer metric its self time is charged to.
_SELF_MS = {
    "nn.build": "nn.build_ms",
    "curve_probe": "platforms.curve_probe_ms",
    "analysis.experiment": "analysis.paper_experiments_ms",
    "plan": "datacenter.plan_ms",
    "autoscale": "datacenter.autoscale_ms",
    "route": "globe.route_ms",
    "hybrid": "globe.hybrid_ms",
    "exact": "globe.exact_ms",
    "run": "api.run_self_ms",
}


def layer_metrics(
    spans: list[Span], scales: dict[str, float], cache_deltas: dict[str, tuple[int, int]]
) -> dict[str, float]:
    """Per-layer numbers for one invocation: set-up plus one pass.

    ``scales`` maps each phase ("setup", "pass0", ...) to the factor that
    brings its times to the reference host speed.  Times and counts from
    the set-up phase are taken once and those of the traced passes are
    averaged; per-unit costs (ns per request, us per iteration, ns per
    instruction) and rates are ratios of totals over every recorded span.
    A layer the workload does not exercise reads 0.
    """
    totals = {name: 0.0 for name in LAYER_METRICS}
    cost = {"rr": [0.0, 0], "jsq": [0.0, 0], "llm": [0.0, 0], "replay": [0.0, 0]}
    useful = [0, 0]
    plans = sims_in_plans = 0
    passes = sum(1 for phase in scales if phase != "setup")
    weights = {phase: 1.0 if phase == "setup" else 1.0 / passes for phase in scales}

    def ancestor(span: Span, label: str) -> bool:
        while span.parent >= 0:
            span = spans[span.parent]
            if span.name == label:
                return True
        return False

    for span in spans:
        w = weights[span.phase]
        info = span.info
        self_s = span.self_seconds * scales[span.phase]
        self_ms = self_s * 1e3
        if span.name in _SELF_MS:
            totals[_SELF_MS[span.name]] += w * self_ms
        if span.name == "compile":
            if "error" in info:
                totals["compiler.infeasible"] += w
                totals["compiler.lower_ms"] += w * self_ms
            elif info["kind"] != "cached":
                key = "compiler.lower_ms" if info["kind"] == "lower" else "compiler.materialize_ms"
                totals[key] += w * self_ms
                totals["compiler.instructions"] += w * info["instructions"]
        elif span.name == "replay" and "error" not in info:
            if info["functional"]:
                totals["core.functional_ms"] += w * self_ms
            else:
                totals["core.sim_cycles"] += w * info["cycles"]
                cost["replay"][0] += self_s
                cost["replay"][1] += info["instructions"]
        elif span.name == "fleet" and "error" not in info:
            key = "jsq" if info["router"] == "ShortestQueueRouter" else "rr"
            cost[key][0] += self_s
            cost[key][1] += info["requests"]
            totals["serving.requests"] += w * info["served"]
            totals["serving.unserved"] += w * info["unserved"]
            totals["serving.batches"] += w * info["batches"]
            if ancestor(span, "plan"):
                sims_in_plans += 1
        elif span.name == "llm" and "error" not in info:
            cost["llm"][0] += self_s
            cost["llm"][1] += info["iterations"]
            totals["serving.llm_iterations"] += w * info["iterations"]
            totals["serving.llm_tokens"] += w * info["tokens"]
            totals["serving.llm_evictions"] += w * info["evictions"]
            useful[0] += info["prompt_tokens"] + info["decode_tokens"]
            useful[1] += info["prefilled_tokens"] + info["tokens"]
        elif span.name == "hybrid" and "error" not in info:
            for kind, count in info["cells"].items():
                metric = f"globe.cells_{kind}"
                if metric in totals:
                    totals[metric] += w * count
        elif span.name == "plan":
            plans += 1

    def per(pair: list, scale: float) -> float:
        return pair[0] * scale / pair[1] if pair[1] else 0.0

    totals["core.replay_ns_per_instr"] = per(cost["replay"], 1e9)
    totals["serving.fleet_rr_ns_per_request"] = per(cost["rr"], 1e9)
    totals["serving.fleet_jsq_ns_per_request"] = per(cost["jsq"], 1e9)
    totals["serving.llm_us_per_iteration"] = per(cost["llm"], 1e6)
    if totals["serving.batches"]:
        totals["serving.mean_batch"] = totals["serving.requests"] / totals["serving.batches"]
    totals["serving.llm_useful_token_ratio"] = useful[0] / useful[1] if useful[1] else 0.0
    totals["datacenter.fleet_sims_per_plan"] = sims_in_plans / plans if plans else 0.0
    for metric, (hits, misses) in cache_deltas.items():
        totals[metric] = hits / (hits + misses) if hits + misses else 0.0
    return totals
