"""The four benchmark workloads: set-up, per-pass operations and checks.

A workload is built from ``(seed, size)``.  ``setup`` is what every CLI
invocation pays (imports, model builds and, for the serving workloads,
the cold compile/profile of the latency-curve anchors); the set-up
probes time it in fresh processes.  ``prepare`` makes seeded inputs and
oracles and is not timed.  ``ops`` returns one pass: the operations the
benchmark issues in a closed loop, each with

* ``work`` -- whether the op's engine runs count toward the workload's
  simulated-work rate (``engine`` names the engine, ``work_of`` what one
  run of it contributes);
* ``digest`` -- the simulated statistics compared against the values
  recorded for the recorded seed (``expected.json``);
* ``check`` -- invariants that hold for every seed.

Operations marked ``seeded=False`` do not depend on the seed, so their
digests are compared on every seed.
"""

from __future__ import annotations

import gc
import importlib
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable

import numpy as np

#: Digest and check signatures: (result, summaries of the op's runs of
#: the workload's engine, results of the earlier ops of the pass by name).
Digest = Callable[[Any, list], dict]
Check = Callable[[Any, list, dict], list]


@dataclass
class Op:
    name: str
    fn: Callable[[], Any]
    digest: Digest | None = None
    check: Check | None = None
    seeded: bool = True
    #: Key of the recorded values; defaults to ``name``.
    key: str | None = None
    #: Operations whose host latency is a ``compile_replay`` sample.
    latency_sample: bool = False
    #: Its engine runs count toward the simulated-work rate.
    work: bool = False


def _pick(rows: list[dict], fields: tuple[str, ...]) -> list[dict]:
    return [{k: row[k] for k in fields if k in row} for row in rows]


# ----------------------------------------------------------------------
# tpu_compile_replay
# ----------------------------------------------------------------------
#: The 20 paper table/figure experiments (the report's extensions are
#: measured by the serving workloads instead).
PAPER_EXPERIMENTS = (
    "table1", "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "figure2", "figure4", "figure5", "figure6", "figure7",
    "figure8", "figure9", "figure10", "figure11", "tpu_prime",
    "boost_mode", "server_scale",
)


@dataclass(frozen=True)
class Refused:
    """A variant the compiler cannot stage (an expected outcome)."""

    error: str


def _variant_digest(result, _sims) -> dict:
    if isinstance(result, Refused):
        return {"refused": result.error}
    compiled, run = result
    b = run.breakdown
    return {
        "cycles": run.cycles,
        "active": b.active,
        "weight_stall": b.weight_stall,
        "weight_shift": b.weight_shift,
        "instructions": len(compiled.program.instructions),
    }


class CompileReplay:
    """Compile and replay every workload over the curve-anchor batch grid."""

    name = "tpu_compile_replay"
    engine = "replay"
    SIZES = {
        "full": {
            "models": None,  # every registered workload
            "batches": None,  # the serving curve's anchor batches
            "functional": ("mlp0", "mlp1"),
            "functional_batch": 8,
            "experiments": PAPER_EXPERIMENTS,
        },
        "tiny": {
            "models": ("mlp0", "mlp1", "cnn0"),
            "batches": (8, 200, 1024),
            "functional": ("mlp1",),
            "functional_batch": 4,
            "experiments": ("table1", "table5", "figure2"),
        },
    }

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.params = self.SIZES[size]

    def setup(self, rec) -> None:
        import repro.analysis  # noqa: F401  (the experiment registry)
        from repro.nn.workloads import WORKLOAD_NAMES
        from repro.platforms.base import BATCH_CANDIDATES

        names = self.params["models"] or WORKLOAD_NAMES
        batches = self.params["batches"] or BATCH_CANDIDATES
        self.variants = rec.span("nn.build", self._build, names, batches)

    @staticmethod
    def _build(names, batches) -> list:
        from repro.nn.workloads import build_workload

        variants = []
        for name in names:
            model = build_workload(name)
            for batch in batches:
                variant = model if batch == model.batch_size else replace(model, batch_size=batch)
                variants.append((name, batch, variant))
        return variants

    def prepare(self) -> None:
        """Seeded weights, inputs and reference output codes."""
        from repro.nn.reference import ReferenceExecutor, initialize_weights, random_input
        from repro.nn.workloads import build_workload

        self.functional = {}
        for name in self.params["functional"]:
            model = replace(build_workload(name), batch_size=self.params["functional_batch"])
            executor = ReferenceExecutor(model, initialize_weights(model, seed=self.seed))
            x = random_input(model, seed=self.seed + 4)
            params = executor.calibrate(x)
            self.functional[name] = (model, params, x, executor.run_quantized(x, params))

    def reset(self) -> None:
        """Start every pass with empty lowering, curve and analysis caches."""
        from repro import perfcache
        from repro.analysis import common
        from repro.compiler.driver import TPUDriver

        perfcache.GLOBAL_LOWERING.invalidate()
        perfcache.GLOBAL.invalidate()
        TPUDriver._shared.clear()
        for cached in (common.workloads, common.workload, common.platforms,
                       common.tpu_driver, common.compiled, common.profiled):
            cached.cache_clear()
        gc.collect()

    def ops(self, rec) -> list[Op]:
        from repro.analysis import EXPERIMENTS
        from repro.compiler.driver import TPUDriver

        ops = []
        for stage in ("cold", "warm"):
            driver = TPUDriver()
            ops += [
                Op(f"{stage}/{name}/{batch}", partial(_compile_replay, driver, variant),
                   digest=_variant_digest, seeded=False, key=f"variant/{name}/{batch}",
                   latency_sample=True, work=True)
                for name, batch, variant in self.variants
            ]
        ops += [
            Op(f"functional/{name}", partial(_functional, *self.functional[name][:3]),
               digest=_functional_digest, check=partial(_functional_check, self.functional[name][3]))
            for name in self.functional
        ]
        ops += [
            Op(f"experiment/{exp_id}", partial(rec.span, "analysis.experiment", EXPERIMENTS[exp_id]),
               digest=_experiment_digest, seeded=False)
            for exp_id in self.params["experiments"]
        ]
        return ops

    @staticmethod
    def work_of(info: dict) -> float:
        """Simulated TPU cycles of a timing replay."""
        return 0.0 if info["functional"] else info["cycles"]


def _compile_replay(driver, model):
    from repro.compiler.allocator import UBOverflowError

    try:
        compiled = driver.compile(model)
    except (UBOverflowError, ValueError) as exc:
        return Refused(type(exc).__name__)
    return compiled, driver.profile(compiled)


def _functional(model, params, x):
    from repro.compiler.driver import TPUDriver

    driver = TPUDriver()
    return driver.run(driver.compile(model, params=params), x)


def _functional_digest(result, _sims) -> dict:
    out, run = result
    return {"cycles": run.cycles, "checksum": int(np.asarray(out, dtype=np.int64).sum())}


def _functional_check(reference, result, _sims, _done) -> list[str]:
    out = result[0]
    if not np.array_equal(np.asarray(reference).reshape(out.shape), out):
        return ["functional device output differs from the reference executor"]
    return []


def _experiment_digest(result, _sims) -> dict:
    from repro.api.result import jsonable

    return jsonable(result.measured)


# ----------------------------------------------------------------------
# the serving workloads
# ----------------------------------------------------------------------
def _warm_anchors(kinds: tuple[str, ...], workload: str) -> None:
    """Cold compile/profile of the curve anchors (what a CLI run pays)."""
    from repro import perfcache
    from repro.analysis.common import platforms, workload as resolve
    from repro.platforms.base import BATCH_CANDIDATES

    model = resolve(workload)
    batches = sorted(set(BATCH_CANDIDATES) | {1, model.batch_size})
    for kind in kinds:
        perfcache.GLOBAL.warm(platforms()[kind], model, batches)


def _run(spec):
    """``repro.run``, looked up at call time so a traced run's wrapper applies."""
    import repro

    return repro.run(spec)


def _global_row(result) -> dict:
    return next(row for row in result.rows if row["section"] == "global")


def _global_digest(result, sims) -> dict:
    row = _global_row(result)
    return {
        "p99_seconds": row["p99_seconds"],
        "throughput_rps": row["throughput_rps"],
        "total_requests": row["total_requests"],
        "backend_cells": row["backend_cells"],
        "event_requests": sum(info["served"] for info in sims),
    }


def _exact_check(result, sims, done) -> list[str]:
    simulated = sum(info["requests"] for info in sims)
    realized = _global_row(result)["total_requests"]
    if simulated != realized:
        return [f"exact backend simulated {simulated} of {realized} requests"]
    return []


#: The pinned hybrid-vs-exact tolerance (tests/test_globe.py, 5%).
HYBRID_RTOL = 0.05


def _hybrid_check(result, sims, done) -> list[str]:
    if "globe/exact" not in done:
        return ["no exact result to validate against"]
    exact = _global_row(done["globe/exact"])
    hybrid = _global_row(result)
    problems = []
    for field in ("p99_seconds", "throughput_rps"):
        error = abs(hybrid[field] - exact[field]) / exact[field]
        if not error <= HYBRID_RTOL:
            problems.append(f"hybrid {field} is {error:.1%} from exact (> {HYBRID_RTOL:.0%})")
    return problems


_SERVE_FIELDS = ("load_fraction", "p50_seconds", "p99_seconds", "throughput_rps", "mean_batch")


def _serve_digest(result, sims) -> dict:
    return {
        "points": _pick(result.rows, _SERVE_FIELDS),
        "served": [info["served"] for info in sims],
    }


def _serve_check(spec, result, sims, _done) -> list[str]:
    problems = []
    if len(sims) != len(spec.loads):
        problems.append(f"{len(sims)} fleet runs for {len(spec.loads)} loads")
    return problems + [
        f"operating point served {info['served']} of {spec.requests}"
        for info in sims if info["served"] != spec.requests
    ]


class _Serving:
    """Shared shape of the three serving workloads."""

    SIZES: dict = {}
    #: Modules the operations use; set-up imports them, as a CLI run does.
    imports: tuple[str, ...] = ()
    #: (platform kinds, workload) whose curve anchors set-up warms.
    anchors: tuple = (("tpu",), "mlp0")
    build = "mlp0"
    engine = "fleet"

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.params = self.SIZES[size]

    def setup(self, rec) -> None:
        for module in ("repro", "repro.api.runner", *self.imports):
            importlib.import_module(module)
        from repro.nn.workloads import build_workload

        rec.span("nn.build", build_workload, self.build)
        if self.anchors:
            _warm_anchors(*self.anchors)

    def prepare(self) -> None:
        pass

    def reset(self) -> None:
        gc.collect()

    def _op(self, name: str, spec, digest: Digest, check: Check | None = None) -> Op:
        return Op(name, partial(_run, spec), digest=digest, check=check, work=True)

    @staticmethod
    def work_of(info: dict) -> float:
        """Requests a ``FleetSim`` run retired (none priced analytically)."""
        return info["served"]


class GlobeRRServing(_Serving):
    name = "globe_rr_serving"
    imports = ("repro.analysis.globe", "repro.globe", "repro.serving.sweep")
    SIZES = {
        "full": {"event_requests": 4000, "validation_s": 30.0, "requests": 20000, "loads": None},
        "tiny": {"event_requests": 500, "validation_s": 3.0, "requests": 2000, "loads": (0.5, 0.9)},
    }

    def ops(self, rec) -> list[Op]:
        from repro.analysis.globe import _VALIDATION_SCENARIO
        from repro.api.spec import GlobalScenario, ServeScenario
        from repro.globe import ROUTING_POLICIES

        p = self.params
        ops = [
            self._op(f"globe/{policy}",
                     GlobalScenario(routing=policy, event_requests=p["event_requests"], seed=self.seed),
                     _global_digest)
            for policy in sorted(ROUTING_POLICIES)
        ]
        world = _VALIDATION_SCENARIO.replace(
            duration_s=p["validation_s"], period_s=p["validation_s"], seed=self.seed,
        )
        ops.append(self._op("globe/exact", world.replace(backend="exact"), _global_digest, _exact_check))
        ops.append(self._op("globe/hybrid_validation", world, _global_digest, _hybrid_check))
        for traffic in ("poisson", "diurnal"):
            spec = ServeScenario(workload="mlp0", replicas=4, router="round_robin",
                                 traffic=traffic, requests=p["requests"], seed=self.seed)
            if p["loads"]:
                spec = spec.replace(loads=p["loads"])
            ops.append(self._op(f"serve/rr_{traffic}", spec, _serve_digest, partial(_serve_check, spec)))
        return ops


_PLAN_FIELDS = ("platform", "replicas", "p99_seconds", "meets_slo", "utilization",
                "usd_per_million_requests")
_POLICY_FIELDS = ("policy", "peak_replicas", "mean_powered", "p99_seconds", "slo_miss_fraction")


def _datacenter_digest(result, sims) -> dict:
    rows = result.rows
    return {
        "plans": _pick([r for r in rows if r["section"] == "provisioning"], _PLAN_FIELDS),
        "policies": _pick([r for r in rows if r["section"] == "autoscaling"], _POLICY_FIELDS),
        "fleet_runs": len(sims),
        "served": sum(info["served"] for info in sims),
    }


def _replicas(result) -> dict:
    return {r["platform"]: r["replicas"] for r in result.rows if r["section"] == "provisioning"}


def _replan_check(result, sims, done) -> list[str]:
    if "datacenter/plan" not in done:
        return ["no first plan to compare against"]
    if _replicas(result) != _replicas(done["datacenter/plan"]):
        return ["new economics changed the SLO-feasible fleet sizes"]
    return []


class DatacenterJSQAutoscale(_Serving):
    name = "datacenter_jsq_autoscale"
    imports = ("repro.analysis.datacenter", "repro.serving.sweep")
    anchors = (("cpu", "gpu", "tpu"), "mlp0")
    SIZES = {
        "full": {"requests": 20000, "serve_requests": 20000, "loads": None},
        "tiny": {"requests": 2000, "serve_requests": 2000, "loads": (0.5, 0.9)},
    }

    def ops(self, rec) -> list[Op]:
        from repro.api.spec import DatacenterScenario, ServeScenario

        p = self.params
        plan = DatacenterScenario(requests=p["requests"], seed=self.seed)
        replan = plan.replace(usd_per_kwh=0.2, pue=1.2, capex_per_watt=8.0)
        serve = ServeScenario(workload="mlp0", replicas=4, router="jsq",
                              requests=p["serve_requests"], seed=self.seed)
        if p["loads"]:
            serve = serve.replace(loads=p["loads"])
        return [
            self._op("datacenter/plan", plan, _datacenter_digest),
            self._op("datacenter/replan", replan, _datacenter_digest, _replan_check),
            self._op("serve/jsq_poisson", serve, _serve_digest, partial(_serve_check, serve)),
        ]


_LLM_FIELDS = ("load", "p50_ttft_ms", "p99_ttft_ms", "p50_tpot_ms", "p99_tpot_ms",
               "evictions", "mean_batch")


def _llm_digest(result, sims) -> dict:
    return {
        "points": _pick(result.rows, _LLM_FIELDS),
        "tokens": [info["tokens"] for info in sims],
        "iterations": [info["iterations"] for info in sims],
        "evictions": [info["evictions"] for info in sims],
    }


def _llm_check(spec, result, sims, _done) -> list[str]:
    problems = []
    if len(sims) != len(spec.loads):
        problems.append(f"{len(sims)} decode runs for {len(spec.loads)} loads")
    return problems + [
        f"decode run had {info['requests']} of {spec.requests} requests"
        for info in sims if info["requests"] != spec.requests
    ]


class LLMDecode(_Serving):
    name = "llm_decode"
    imports = ("repro.serving.continuous", "repro.datacenter.llm_pools")
    anchors = ()
    build = "gpt_s"
    engine = "llm"
    #: (name, spec overrides): chat-like and long decodes under continuous
    #: batching, the fixed-gang baseline, and autoscaled disaggregation.
    CASES = (
        ("continuous_chat", {"prompt_tokens": 96, "decode_tokens": 48}),
        ("continuous_long", {"prompt_tokens": 64, "decode_tokens": 256}),
        ("fixed_gang", {"scheduler": "fixed"}),
        ("disaggregated_autoscale", {"mode": "disaggregated", "autoscale": True}),
    )
    SIZES = {
        "full": {"requests": 2000, "loads": None},
        "tiny": {"requests": 200, "loads": (0.5, 0.95)},
    }

    def ops(self, rec) -> list[Op]:
        from repro.api.spec import LLMServeScenario

        p = self.params
        ops = []
        for case, overrides in self.CASES:
            spec = LLMServeScenario(requests=p["requests"], seed=self.seed, **overrides)
            if p["loads"]:
                spec = spec.replace(loads=p["loads"])
            ops.append(self._op(f"llm/{case}", spec, _llm_digest, partial(_llm_check, spec)))
        return ops

    @staticmethod
    def work_of(info: dict) -> float:
        """Decode tokens a decode run simulated."""
        return info["tokens"]


WORKLOADS = {
    cls.name: cls
    for cls in (CompileReplay, GlobeRRServing, DatacenterJSQAutoscale, LLMDecode)
}

#: What ``sim_work_per_s`` counts on each workload, under its own name:
#: the work of the ``work`` ops' engine runs per host second in them.
WORK_UNITS = {
    "tpu_compile_replay": ("sim_cycles_per_s", "simulated TPU cycles"),
    "globe_rr_serving": ("sim_requests_per_s", "event-simulated requests"),
    "datacenter_jsq_autoscale": ("sim_requests_per_s", "event-simulated requests"),
    "llm_decode": ("sim_tokens_per_s", "simulated decode tokens"),
}


# ----------------------------------------------------------------------
# comparing digests
# ----------------------------------------------------------------------
def compare(expected: Any, actual: Any, path: str = "", rel_tol: float = 1e-9) -> list[str]:
    """Paths where ``actual`` differs from the recorded ``expected``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(actual)} != recorded {sorted(expected)}"]
        return [p for k in expected for p in compare(expected[k], actual[k], f"{path}.{k}", rel_tol)]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: {len(actual)} items != recorded {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{path}[{i}]", rel_tol)]
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
            if math.isclose(expected, actual, rel_tol=rel_tol, abs_tol=1e-12) or (
                math.isnan(expected) and math.isnan(actual)
            ):
                return []
        return [f"{path}: {actual!r} != recorded {expected!r}"]
    if expected != actual:
        return [f"{path}: {actual!r} != recorded {expected!r}"]
    return []


def paper_error(result) -> dict | None:
    """Median |relative error| of an experiment against the paper values."""
    from repro.api.result import jsonable

    def flatten(value, prefix=""):
        if isinstance(value, dict):
            for k, v in value.items():
                yield from flatten(v, f"{prefix}/{k}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                yield from flatten(v, f"{prefix}[{i}]")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield prefix, float(value)

    paper = dict(flatten(jsonable(result.paper)))
    measured = dict(flatten(jsonable(result.measured)))
    errors = sorted(
        abs(measured[k] - v) / abs(v)
        for k, v in paper.items() if k in measured and v != 0 and math.isfinite(measured[k])
    )
    if not errors:
        return None
    return {"values": len(errors), "median_rel_error": errors[len(errors) // 2]}
