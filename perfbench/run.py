"""One benchmark for the simulator stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tpu_compile_replay --seed 0 --seconds 15 --trace 0

Each run sets up the workload, then repeats whole passes of its
operations in a closed loop until ``--seconds`` have elapsed since the
first pass began, checking every operation's output.  With ``--trace 0`` it
reports the end-to-end metrics (host time, memory, simulated work per
host second), with ``--trace 1`` the per-layer metrics from spans
recorded around repro's entry points (see ``probes.py``).  The last line
of standard output is one JSON object; the lines before it print every
metric with its unit, and the full self-describing record is written to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
RECORDED_SEED = 0
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 9
#: The reference kernel's time on the reference host.  Every host time
#: is reported at that host speed: raw time x REFERENCE_S / the kernel's
#: time measured next to it (README.md, "Host-speed normalisation").
REFERENCE_S = 0.030
#: Measured operation time between two reference measurements.
SEGMENT_S = 0.5


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-tests")
    parser.add_argument("--record", action="store_true",
                        help="run one pass and store its digests as the "
                             "recorded values for --size (seed must be the recorded seed)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.record and args.seed != RECORDED_SEED:
        parser.error(f"--record needs --seed {RECORDED_SEED}")
    return args


def _isolate() -> None:
    """Measure the code as shipped: no ``REPRO_*`` toggles, obs off."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ----------------------------------------------------------------------
# self-description
# ----------------------------------------------------------------------
def host_fingerprint() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def tree_hash() -> str:
    """SHA-256 over the measured sources and the benchmark itself."""
    digest = hashlib.sha256()
    files = sorted(
        p for base in (SRC, HERE) for p in base.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts and OUT not in p.parents
    )
    for path in [ROOT / "BENCHMARK.json", *files]:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def peak_rss_mb() -> float:
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def _reference_kernel() -> float:
    """Interpreter-bound work shaped like the simulators: a heap-driven
    loop over dict and float operations plus small numpy reductions."""
    import heapq

    import numpy as np

    heap: list[float] = []
    counts: dict[int, int] = {}
    total = 0.0
    for i in range(40000):
        heapq.heappush(heap, ((i * 7919) % 1000) / 7.0)
        counts[i % 512] = counts.get(i % 512, 0) + 1
        total += i * 0.5
    while heap:
        total += heapq.heappop(heap)
    values = np.arange(20000, dtype=float)
    for _ in range(50):
        total += float(np.cumsum(values)[-1])
    shuffled = (np.arange(200000) * 7919) % 200003
    return total + float(np.sort(shuffled)[100000])


def reference_seconds() -> float:
    """The reference kernel's time now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup_probe(args) -> float:
    """Seconds from spawning a fresh interpreter to a ready workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-probe"]
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    ready = float(out.stdout.strip().splitlines()[-1])
    return ready - start


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class Pass:
    """The outcome of one pass of a workload's operations."""

    def __init__(self) -> None:
        #: Operation time at the reference host speed, and as measured.
        self.wall = 0.0
        self.raw_wall = 0.0
        self.reference_s: list[float] = []
        #: Simulated work of the ``work`` ops' engine runs.
        self.work = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        #: Each operation's time at the reference host speed, by name, and
        #: the part of it spent in engine runs that count as work.
        self.op_seconds: dict[str, float] = {}
        self.engine_seconds: dict[str, float] = {}
        self.digests: dict[str, dict] = {}
        self.paper_error: dict[str, dict] = {}


def run_pass(workload, rec, expected: dict | None, compare_seeded: bool) -> Pass:
    workload.reset()
    rec.sims.clear()
    outcome = Pass()
    done: dict = {}
    segment: list[tuple[str, float, float, bool]] = []
    outcome.reference_s.append(reference_seconds())

    def close_segment() -> None:
        outcome.reference_s.append(reference_seconds())
        scale = 2 * REFERENCE_S / sum(outcome.reference_s[-2:])
        for name, elapsed, engine, sample in segment:
            outcome.op_seconds[name] = elapsed * scale
            outcome.engine_seconds[name] = engine * scale
            outcome.wall += elapsed * scale
            outcome.raw_wall += elapsed
            if sample:
                outcome.latencies.append(elapsed * scale)
        segment.clear()

    for op in workload.ops(rec):
        if sum(e for _, e, _, _ in segment) >= SEGMENT_S:
            close_segment()
        mark = len(rec.sims)
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            result = op.fn()
        except Exception:  # an operation that raises is a counted failure
            segment.append((op.name, time.perf_counter() - start, 0.0, False))
            outcome.failed += 1
            outcome.failures.append(f"{op.name}: {traceback.format_exc(limit=3)}")
            continue
        elapsed = time.perf_counter() - start
        sims = [info for kind, info in rec.sims[mark:] if kind == workload.engine]
        engine = 0.0
        if op.work:
            engine = sum(info["seconds"] for info in sims)
            outcome.work += sum(workload.work_of(info) for info in sims)
        segment.append((op.name, elapsed, engine, op.latency_sample and isinstance(result, tuple)))
        done[op.name] = result
        try:
            problems = check_op(op, result, sims, done, outcome, expected, compare_seeded)
        except Exception:  # a result the checks cannot read is a failure too
            problems = [f"check raised: {traceback.format_exc(limit=3)}"]
        outcome.failed += bool(problems)
        outcome.failures += [f"{op.name}: {p}" for p in problems]
    close_segment()
    return outcome


def check_op(op, result, sims, done, outcome, expected, compare_seeded) -> list[str]:
    """Invariants, then recorded values; stores the digest and paper error."""
    from workloads import compare, paper_error

    problems = op.check(result, sims, done) if op.check else []
    if op.digest:
        key = op.key or op.name
        digest = outcome.digests[key] = op.digest(result, sims)
        if expected is not None and (compare_seeded or not op.seeded):
            if key not in expected:
                problems.append(f"no recorded value for {key}")
            else:
                problems += compare(expected[key], digest, key)
    if op.name.startswith("experiment/"):
        error = paper_error(result)
        if error:
            outcome.paper_error[op.name.split("/", 1)[1]] = error
    return problems


def median_pass(passes: list[Pass], field: str = "op_seconds") -> float:
    """One pass's time, taking each operation's median over the passes."""
    names = getattr(passes[0], field)
    return sum(statistics.median(getattr(p, field)[name] for p in passes) for name in names)


def cache_counts() -> dict[str, tuple[int, int]]:
    from repro import perfcache

    caches = {
        "perfcache.hit_rate": perfcache.GLOBAL,
        "compiler.lowering_hit_rate": perfcache.GLOBAL_LOWERING,
    }
    return {metric: (cache.stats().hits, cache.stats().misses) for metric, cache in caches.items()}


def _add_delta(total: dict, before: dict, after: dict) -> None:
    for key in after:
        hits, misses = total.get(key, (0, 0))
        total[key] = (hits + after[key][0] - before[key][0],
                      misses + after[key][1] - before[key][1])


def percentile_report(samples: list[float]) -> dict:
    """p50 and, when at least ten samples lie beyond it, p90 (in ms)."""
    report = {"samples": len(samples), "p50_ms": None, "p90_ms": None}
    if samples:
        report["p50_ms"] = statistics.median(samples) * 1e3
    if len(samples) >= 2:
        p90 = statistics.quantiles(samples, n=10)[8]
        if sum(1 for s in samples if s > p90) >= 10:
            report["p90_ms"] = p90 * 1e3
    return report


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def measure(args, workload, expected: dict | None) -> dict:
    from probes import Recorder, layer_metrics

    compare_seeded = args.seed == RECORDED_SEED
    passes: list[Pass] = []
    traced: list[Pass] = []
    deltas: dict = {}
    scales: dict[str, float] = {}
    if args.trace:
        tracer = Recorder(timed=True)
        before = cache_counts()
        reference = reference_seconds()
        with tracer:
            workload.setup(tracer)
        scales["setup"] = 2 * REFERENCE_S / (reference + reference_seconds())
        _add_delta(deltas, before, cache_counts())
    else:
        workload.setup(Recorder(timed=False))
    workload.prepare()

    counter = Recorder(timed=False)
    started = time.perf_counter()
    while True:
        with counter:
            passes.append(run_pass(workload, counter, expected, compare_seeded))
        if args.trace:
            tracer.phase = f"pass{len(traced)}"
            before = cache_counts()
            with tracer:
                traced.append(run_pass(workload, tracer, expected, compare_seeded))
            scales[tracer.phase] = traced[-1].wall / traced[-1].raw_wall
            _add_delta(deltas, before, cache_counts())
        if time.perf_counter() - started >= args.seconds:
            break

    every = passes + traced
    record = {
        "passes": len(passes),
        "attempted": sum(p.attempted for p in every),
        "failed": sum(p.failed for p in every),
        "failures": [f for p in every for f in p.failures][:20],
        "pass_wall_s": [p.wall for p in passes],
        "pass_raw_wall_s": [p.raw_wall for p in passes],
        "reference_s": [p.reference_s for p in passes],
        "paper_error": passes[0].paper_error,
        "digests": passes[0].digests,
    }
    if args.trace:
        layers = layer_metrics(tracer.spans, scales, deltas)
        layers["bench.trace_overhead"] = median_pass(traced) / median_pass(passes)
        record["traced_pass_wall_s"] = [p.wall for p in traced]
        record["layers"] = layers
        record["spans"] = tracer.spans
        return record

    references = [reference_seconds()]
    setups = []
    for _ in range(SETUP_PROBES):
        setups.append(setup_probe(args))
        references.append(reference_seconds())
    scaled = [
        seconds * 2 * REFERENCE_S / (before + after)
        for seconds, before, after in zip(setups, references, references[1:])
    ]
    latencies = [s for p in passes for s in p.latencies]
    wall = median_pass(passes)
    engine = median_pass(passes, "engine_seconds")
    record.update({
        "setup_samples_s": setups,
        "setup_reference_s": references,
        "setup_s": statistics.median(scaled),
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "sim_work_per_s": statistics.median(p.work for p in passes) / engine,
        "sim_work_per_pass": passes[0].work,
        "sim_engine_s": engine,
        "compile_replay": percentile_report(latencies) if latencies else None,
    })
    return record


def end_to_end(record: dict) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (record["setup_s"], "s"),
        "wall_s": (record["wall_s"], "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "sim_work_per_s": (record["sim_work_per_s"], "1/s"),
    }


def print_report(args, record: dict, metrics: dict[str, tuple[float, str]]) -> None:
    from workloads import WORK_UNITS

    lines = [f"# {args.workload} seed {args.seed} size {args.size} "
             f"trace {args.trace}: {record['passes']} pass(es)"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:36s} {value:<14.6g} {unit}")
    fail_rate = record["failed"] / record["attempted"]
    lines.append(f"{'fail_rate':36s} {fail_rate:<14.6g} ratio "
                 f"({record['failed']} of {record['attempted']} operations)")
    if not args.trace:
        alias, what = WORK_UNITS[args.workload]
        lines.append(f"{alias:36s} {record['sim_work_per_s']:<14.6g} 1/s ({what} per host second)")
        latency = record.get("compile_replay")
        if latency:
            for key in ("p50_ms", "p90_ms"):
                value = latency[key]
                shown = "n/a (fewer than 10 samples beyond it)" if value is None else f"{value:<14.6g} ms"
                lines.append(f"{'compile_replay_' + key:36s} {shown} "
                             f"(n={latency['samples']} compile+replay variants)")
    for exp_id, error in record["paper_error"].items():
        lines.append(f"  paper error {exp_id:16s} median {error['median_rel_error']:.1%} "
                     f"over {error['values']} values (informational)")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure.strip()}")
    print("\n".join(lines))


def write_record(args, record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as handle:
            for index, span in enumerate(spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "phase": span.phase,
                    "parent": span.parent, "start": span.start, "end": span.end,
                    "self_s": span.self_seconds, **span.info,
                }) + "\n")
    path = OUT / f"{stem}.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, default=str)
        handle.write("\n")
    return path


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    _isolate()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.size)
    if args.setup_probe:
        from probes import Recorder

        workload.setup(Recorder(timed=False))
        print(time.monotonic())
        return 0

    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    if args.record:
        return record_expected(args, workload, recorded)
    expected = recorded.get(args.workload, {}).get(args.size)
    record = measure(args, workload, expected)
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "recorded_values": expected is not None,
        "host": host_fingerprint(),
        "tree_sha256": tree_hash(),
    })
    if args.trace:
        from probes import LAYER_METRICS

        metrics = {name: (record["layers"][name], unit)
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = end_to_end(record)
    print_report(args, record, metrics)
    print(f"record: {write_record(args, record)}")
    if expected is None:
        print("perfbench: no recorded values for this workload and size", file=sys.stderr)
    print(json.dumps({
        "correct": record["failed"] == 0 and expected is not None,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def record_expected(args, workload, recorded: dict) -> int:
    """Store one pass's digests as the recorded values (after checking it)."""
    from probes import Recorder

    workload.setup(Recorder(timed=False))
    workload.prepare()
    counter = Recorder(timed=False)
    with counter:
        outcome = run_pass(workload, counter, None, False)
    if outcome.failed:
        print("\n".join(outcome.failures), file=sys.stderr)
        return 1
    recorded.setdefault(args.workload, {})[args.size] = outcome.digests
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(outcome.digests)} digests for {args.workload} ({args.size})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
