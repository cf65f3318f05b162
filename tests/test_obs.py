"""Observability tests: trace validity, zero-overhead disabled mode,
metrics registry semantics, logging, and the CLI trace surfaces."""

import json
import logging

import pytest

from repro import obs, perfcache
from repro.analysis import EXPERIMENTS
from repro.compiler.driver import TPUDriver
from repro.nn.workloads import paper_workloads
from repro.serving.batcher import FixedBatcher
from repro.serving.engine import ConstantCurve
from repro.serving.fleet import Fleet, Replica


@pytest.fixture(autouse=True)
def _pristine_obs():
    """Every test starts and ends with tracing/metrics off and empty."""
    obs.set_tracing(False)
    obs.set_metrics(False)
    obs.TRACER.clear()
    obs.REGISTRY.reset()
    yield
    obs.set_tracing(False)
    obs.set_metrics(False)
    obs.TRACER.clear()
    obs.REGISTRY.reset()


def _small_fleet_run():
    curve = ConstantCurve(occupancy_seconds=1e-3, latency_seconds=2e-3)
    fleet = Fleet(
        [Replica(curve, FixedBatcher(4), name=f"r{i}") for i in range(2)],
        router="jsq",
    )
    arrivals = [i * 2.5e-4 for i in range(64)]
    return fleet.run(__import__("numpy").asarray(arrivals))


def _traced_all_layers():
    """Compile + profile a fresh model and run a fleet inside capture()."""
    # Fresh driver + cold emission memo: the compile cannot cache-hit,
    # so the trace contains real pass:/allocate: spans.
    perfcache.GLOBAL_LOWERING.invalidate("mlp0")
    with obs.capture() as tracer:
        driver = TPUDriver()
        compiled = driver.compile(paper_workloads()["mlp0"])
        driver.profile(compiled)
        _small_fleet_run()
        spans = tracer.snapshot()
        trace = tracer.chrome_trace()
    return spans, trace


# ----------------------------------------------------------------------
# trace format
# ----------------------------------------------------------------------
def test_chrome_trace_has_required_keys_and_layers():
    spans, trace = _traced_all_layers()
    events = trace["traceEvents"]
    assert events, "traced run produced no events"
    for event in events:
        for key in ("ph", "ts", "pid", "tid", "name"):
            assert key in event, f"event missing {key!r}: {event}"
        assert event["ph"] in ("X", "M")
        if event["ph"] == "X":
            assert event["dur"] >= 0
    cats = {e.get("cat") for e in events if e["ph"] == "X"}
    assert {"compiler", "device", "serving"} <= cats, cats
    # Both clock domains present: wall (compiler/device) and simulated.
    pids = {e["pid"] for e in events if e["ph"] == "X"}
    assert obs.WALL_PID in pids and obs.SIM_PID in pids


def test_spans_nest_monotonically_per_track():
    """Wall tracks form a call tree; replica tracks serialize batches.

    Request lifecycle spans (REQ_PID) overlap by design -- a request is
    an arrival-to-completion interval, not a call frame -- so the
    nesting invariant applies to the other two clock domains.
    """
    spans, _ = _traced_all_layers()
    by_track = {}
    for span in spans:
        if span.pid != obs.REQ_PID:
            by_track.setdefault((span.pid, span.tid), []).append(span)
    assert by_track
    eps = 1e-3  # microseconds; perf_counter jitter guard
    for track, track_spans in by_track.items():
        track_spans.sort(key=lambda s: (s.ts, -s.dur))
        stack = []  # end timestamps of open spans
        for span in track_spans:
            while stack and stack[-1] <= span.ts + eps:
                stack.pop()
            if stack:
                assert span.ts + span.dur <= stack[-1] + eps, (
                    f"span {span.name!r} on track {track} overlaps its "
                    "enclosing span without nesting"
                )
            stack.append(span.ts + span.dur)


def test_compile_span_encloses_pass_spans():
    spans, _ = _traced_all_layers()
    compile_spans = [s for s in spans if s.name == "compile:mlp0"]
    passes = [s for s in spans if s.name.startswith("pass:mlp0.")]
    assert compile_spans and passes
    outer = compile_spans[0]
    for inner in passes:
        assert outer.ts <= inner.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-3


def test_request_spans_live_on_their_own_pid():
    spans, _ = _traced_all_layers()
    requests = [s for s in spans if s.name == "request"]
    assert len(requests) == 64  # every arrival got a lifecycle span
    assert {s.pid for s in requests} == {obs.REQ_PID}
    batches = [s for s in spans if s.name == "batch"]
    assert batches and {s.pid for s in batches} == {obs.SIM_PID}


def test_trace_exports_round_trip(tmp_path):
    _, trace = _traced_all_layers()
    with obs.capture() as tracer:
        with obs.span("outer", cat="test", answer=42):
            pass
        chrome_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "spans.jsonl"
        n_chrome = tracer.write_chrome(str(chrome_path))
        n_jsonl = tracer.write_jsonl(str(jsonl_path))
    assert n_chrome == n_jsonl == 1
    loaded = json.loads(chrome_path.read_text())
    assert loaded["traceEvents"][-1]["args"] == {"answer": 42}
    lines = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert lines[0]["name"] == "outer" and lines[0]["args"] == {"answer": 42}


# ----------------------------------------------------------------------
# disabled mode is really off
# ----------------------------------------------------------------------
def test_disabled_tracer_records_nothing():
    assert not obs.tracing_enabled()
    driver = TPUDriver()
    compiled = driver.compile(paper_workloads()["mlp0"])
    driver.profile(compiled)
    _small_fleet_run()
    assert obs.TRACER.events == []
    assert obs.span("x") is obs.span("y")  # the shared no-op span


def test_disabled_registry_mutates_nothing():
    assert not obs.metrics_enabled()
    obs.counter("t.c").inc()
    obs.gauge("t.g").set(3.0)
    obs.histogram("t.h").observe(1.0)
    assert obs.counter("t.c").value == 0.0
    assert obs.gauge("t.g").value is None
    assert obs.histogram("t.h").count == 0


def test_paper_table_bytes_identical_with_tracing_enabled():
    """Tracing observes; it must not move a rendered byte (spot check)."""
    import hashlib

    from tests.test_paper_parity import TABLE_TEXT_SHA256

    for exp_id in ("table1", "table6"):
        with obs.capture():
            result = EXPERIMENTS[exp_id]()
        digest = hashlib.sha256(result.text.encode()).hexdigest()
        assert digest == TABLE_TEXT_SHA256[exp_id], (
            f"{exp_id} changed when tracing was enabled"
        )


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
def test_counter_gauge_histogram_when_enabled():
    obs.set_metrics(True)
    obs.counter("m.c").inc()
    obs.counter("m.c").inc(2.5)
    obs.gauge("m.g").set(7)
    for value in (1.0, 2.0, 3.0, 4.0):
        obs.histogram("m.h").observe(value)
    snapshot = obs.metrics_snapshot()
    assert snapshot["m.c"] == 3.5
    assert snapshot["m.g"] == 7.0
    hist = snapshot["m.h"]
    assert hist["count"] == 4 and hist["sum"] == 10.0
    assert hist["min"] == 1.0 and hist["max"] == 4.0 and hist["mean"] == 2.5
    assert hist["p50"] == 3.0  # nearest-rank over [1, 2, 3, 4]


def test_histogram_percentile_and_empty_summary():
    obs.set_metrics(True)
    hist = obs.histogram("m.p")
    assert hist.summary() == {"count": 0}
    for value in range(100):
        hist.observe(float(value))
    assert hist.percentile(50.0) == 50.0
    assert hist.percentile(99.0) == 99.0


def test_perfcache_counters_surface_in_snapshot():
    from repro import perfcache

    obs.set_metrics(True)
    snapshot = obs.metrics_snapshot()
    stats = perfcache.get_cache().stats()
    assert snapshot["perfcache.hits"] == stats.hits
    assert snapshot["perfcache.misses"] == stats.misses
    assert snapshot["perfcache.entries"] == stats.entries
    assert 0.0 <= snapshot["perfcache.hit_rate"] <= 1.0


def test_serving_metrics_recorded_per_batch():
    obs.set_metrics(True)
    result = _small_fleet_run()
    snapshot = obs.metrics_snapshot()
    assert snapshot["serving.batches"] == sum(result.batches_per_replica)
    assert snapshot["serving.requests"] == 64
    assert snapshot["serving.batch_size"]["max"] <= 4


def test_round_robin_replay_emits_the_event_paths_telemetry():
    """The round-robin replay records the same batch and request spans
    and serving histograms as the event path; only the order differs,
    and each replica's track is its position in the fleet."""
    import numpy as np

    from repro.serving.batcher import TimeoutBatcher
    from repro.serving.fleet import FleetSim, make_router
    from repro.serving.traffic import poisson_arrivals

    arrivals = poisson_arrivals(rate=5000.0, n_requests=400, seed=4)
    seen = {}
    for fast in (True, False):
        obs.TRACER.clear()
        obs.REGISTRY.reset()
        obs.set_tracing(True)
        obs.set_metrics(True)
        replicas = [
            Replica(ConstantCurve(1e-3, 1.5e-3), TimeoutBatcher(8, 5e-4)) for _ in range(3)
        ]
        result = FleetSim(replicas, make_router("round_robin"), arrivals, fast=fast).run()
        spans = sorted(
            (s.name, s.pid, s.ts, s.dur, sorted(s.args.items()))
            for s in obs.TRACER.snapshot() if s.cat == "serving"
        )
        hists = {
            name: (h.count, h.min, h.max, sorted(h._samples))
            for name in ("serving.queue_depth_at_launch", "serving.queue_wait_s",
                         "serving.batch_size", "serving.batch_occupancy_s")
            for h in [obs.histogram(name)]
        }
        seen[fast] = (spans, hists, result.responses.tobytes())
        if fast:
            batch_tids = {s.tid for s in obs.TRACER.snapshot() if s.name == "batch"}
            assert batch_tids == {0, 1, 2}
    assert seen[True] == seen[False]
    assert len([s for s in seen[True][0] if s[0] == "request"]) == arrivals.size
    assert np.isfinite(seen[True][1]["serving.queue_wait_s"][2])


def test_device_metrics_mirror_cycle_breakdown():
    obs.set_metrics(True)
    driver = TPUDriver()
    compiled = driver.compile(paper_workloads()["mlp0"])
    result = driver.profile(compiled)
    snapshot = obs.metrics_snapshot()
    assert snapshot["device.runs"] == 1
    assert snapshot["device.cycles.total"] == result.cycles
    assert snapshot["device.cycles.mxu_active"] > 0


# ----------------------------------------------------------------------
# profile summary + logging
# ----------------------------------------------------------------------
def test_span_summary_groups_and_ranks():
    with obs.capture() as tracer:
        tracer.record_wall("slow", 0.0, 3000.0, cat="test")
        tracer.record_wall("fast", 0.0, 1000.0, cat="test")
        tracer.record_wall("fast", 1000.0, 1000.0, cat="test")
        tracer.sim_span("batch", 0.0, 1.0, cat="serving", tid=0)
        table = obs.span_summary(tracer.snapshot())
    text = table.render()
    lines = [line for line in text.splitlines() if "|" in line]
    assert any("slow" in line and "wall" in line for line in lines)
    assert any("batch" in line and "sim" in line for line in lines)
    fast_row = next(line for line in lines if "fast" in line)
    assert " 2 " in fast_row  # count column groups the two fast spans


def test_logging_goes_to_current_stderr(capsys):
    log = obs.get_logger("repro.test_obs")
    log.info("hello from the logger")
    assert "hello from the logger" in capsys.readouterr().err
    assert log.level in (logging.NOTSET,)  # children inherit the root level


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def test_cli_trace_subcommand_writes_chrome_trace(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    code = main([
        "trace", "serve", "--workload", "mlp0", "--replicas", "2",
        "--requests", "800", "--loads", "0.5", "--trace-out", str(out),
    ])
    assert code == 0
    events = json.loads(out.read_text())["traceEvents"]
    cats = {e.get("cat") for e in events if e.get("ph") == "X"}
    assert "serving" in cats
    assert not obs.tracing_enabled()  # the CLI restored the global state


def test_cli_trace_requires_a_command_and_rejects_nesting(capsys):
    from repro.__main__ import main

    assert main(["trace"]) == 2
    assert main(["trace", "trace", "serve"]) == 2
    err = capsys.readouterr().err
    assert "give a command" in err and "cannot nest" in err


def test_cli_profile_flag_prints_span_table(tmp_path, capsys):
    from repro.__main__ import main

    code = main([
        "serve", "--workload", "mlp0", "--replicas", "2",
        "--requests", "800", "--loads", "0.5", "--profile",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "span-time profile" in err
    assert not obs.metrics_enabled()


def test_env_trace_out_enables_tracing(tmp_path, monkeypatch):
    from repro.__main__ import main

    out = tmp_path / "env_trace.json"
    monkeypatch.setenv("REPRO_TRACE_OUT", str(out))
    code = main([
        "serve", "--workload", "mlp0", "--replicas", "2",
        "--requests", "800", "--loads", "0.5",
    ])
    assert code == 0
    assert json.loads(out.read_text())["traceEvents"]


# ----------------------------------------------------------------------
# bench schema
# ----------------------------------------------------------------------
def test_bench_validate_accepts_and_checks_metrics():
    from repro.benchmark import SCHEMA, validate

    base = {
        "schema": SCHEMA,
        "git_rev": "abc1234",
        "quick": True,
        "benches": [{
            "name": "x", "wall_seconds": 0.5, "cache_hit_rate": 0.9,
            "metrics": {"serving.batches": 3.0},
        }],
    }
    validate(base)  # metrics dict is fine
    del base["benches"][0]["metrics"]
    validate(base)  # and optional
    base["benches"][0]["metrics"] = ["not", "a", "dict"]
    with pytest.raises(ValueError, match="metrics must be a dict"):
        validate(base)
