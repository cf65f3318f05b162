"""Fleet serving simulator tests: batchers, routers, traffic, sweeps."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.serving.fleet as fleet_module
from repro.latency.queueing import simulate_batch_queue
from repro.serving.batcher import (
    FixedBatcher,
    SLOAdaptiveBatcher,
    TimeoutBatcher,
    make_batcher,
)
from repro.serving.engine import (
    ConstantCurve,
    EventLoop,
    LatencyCurve,
    run_closed_loop,
    summarize,
)
from repro.serving.fleet import (
    Fleet,
    FleetSim,
    PlatformCurve,
    Replica,
    RoundRobinRouter,
    make_router,
)
from repro.serving.sweep import (
    FleetSpec,
    max_throughput_under_slo,
    run_point,
    serving_sweep,
)
from repro.serving.traffic import (
    diurnal_arrivals,
    load_trace,
    poisson_arrivals,
    trace_arrivals,
    uniform_arrivals,
)

SERVICE = 2e-3  # 2 ms per batch, any size


class _LinearCurve(LatencyCurve):
    """``fixed + per_item * n`` occupancy, plus a constant response tail."""

    def __init__(self, fixed, per_item, tail):
        self.fixed, self.per_item, self.tail = fixed, per_item, tail

    def occupancy(self, batch):
        return self.fixed + self.per_item * batch

    def latency(self, batch):
        return self.occupancy(batch) + self.tail


def single_replica(batcher, occupancy=SERVICE, latency=None):
    return Fleet([Replica(ConstantCurve(occupancy, latency), batcher)])


class TestEventLoop:
    def test_orders_by_time_then_insertion(self):
        seen = []
        loop = EventLoop()
        loop.schedule(2.0, lambda t: seen.append("late"))
        loop.schedule(1.0, lambda t: seen.append("a"))
        loop.schedule(1.0, lambda t: seen.append("b"))
        loop.run()
        assert seen == ["a", "b", "late"]

    def test_rejects_past_events(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda t: loop.schedule(0.5, lambda _t: None))
        with pytest.raises(ValueError):
            loop.run()


class TestClosedFormParity:
    """A one-replica fixed-batch fleet IS simulate_batch_queue."""

    def test_matches_simulate_batch_queue(self):
        rate, batch, n = 1000.0, 16, 4000
        legacy = simulate_batch_queue(rate, batch, SERVICE, n_requests=n, seed=3)
        fleet = single_replica(FixedBatcher(batch))
        result = fleet.run(poisson_arrivals(rate, n, seed=3))
        stats = result.stats()
        assert stats.p99_seconds == pytest.approx(legacy.p99_seconds, rel=1e-12)
        assert stats.p50_seconds == pytest.approx(legacy.p50_seconds, rel=1e-12)
        assert stats.throughput_rps == pytest.approx(legacy.throughput_ips, rel=1e-12)
        assert stats.utilization == pytest.approx(legacy.server_utilization, rel=1e-12)

    def test_drain_false_reports_unserved(self):
        # A fixed batcher never launches the partial tail; without
        # draining those requests are counted, not crashed on.
        fleet = single_replica(FixedBatcher(16))
        result = fleet.run(poisson_arrivals(1000.0, 100, seed=3), drain=False)
        assert result.unserved == 100 % 16
        assert result.responses.size == 100 - result.unserved

    def test_deterministic_uniform_load(self):
        # Requests every 1 ms, batch 4, 2 ms service: batch k collects
        # until arrival 4k ms, runs 2 ms; first request waits 3+2 ms.
        fleet = single_replica(FixedBatcher(4))
        result = fleet.run(uniform_arrivals(1000.0, 8))
        assert result.responses[0] == pytest.approx(5e-3)
        assert result.responses[3] == pytest.approx(2e-3)


class TestBatchers:
    def test_timeout_fires_on_partial_batch(self):
        # Load far too low to fill batch 16: every batch is partial and
        # launches exactly at the timeout.
        timeout = 5e-3
        fleet = single_replica(TimeoutBatcher(16, timeout))
        result = fleet.run(poisson_arrivals(100.0, 2000, seed=1), drain=False)
        stats = result.stats(warmup_fraction=0.0)
        assert stats.mean_batch < 16
        assert stats.p99_seconds <= timeout + SERVICE + 1e-9
        # Oldest request in each batch waits the full timeout.
        assert np.max(result.responses) == pytest.approx(timeout + SERVICE, rel=1e-9)

    def test_timeout_zero_serves_immediately(self):
        fleet = single_replica(TimeoutBatcher(16, 0.0))
        result = fleet.run(poisson_arrivals(50.0, 500, seed=2))
        assert result.stats(warmup_fraction=0.0).p99_seconds <= 2 * SERVICE + 1e-9

    def test_slo_adaptive_never_misses_at_low_load(self):
        slo = 7e-3
        curve = ConstantCurve(SERVICE)
        fleet = Fleet([Replica(curve, SLOAdaptiveBatcher(slo, curve))])
        result = fleet.run(poisson_arrivals(200.0, 3000, seed=4), drain=False)
        assert float(np.max(result.responses)) <= slo + 1e-9

    def test_slo_adaptive_batches_grow_with_load(self):
        slo = 7e-3
        curve = ConstantCurve(SERVICE)

        def mean_batch(rate):
            fleet = Fleet([Replica(curve, SLOAdaptiveBatcher(slo, curve))])
            return fleet.run(poisson_arrivals(rate, 3000, seed=5)).stats().mean_batch

        assert mean_batch(20000.0) > mean_batch(500.0)

    def test_slo_adaptive_target_batch_from_curve(self):
        # Latency grows with batch: 1 ms + 0.05 ms/example; with a 7 ms
        # SLO and half the budget for service, the largest candidate
        # under 3.5 ms is batch 32 (2.6 ms); batch 64 needs 4.2 ms.
        class Linear(ConstantCurve):
            def latency(self, batch):
                return 1e-3 + 5e-5 * batch

        curve = Linear(1e-3)
        batcher = SLOAdaptiveBatcher(7e-3, curve)
        assert batcher.max_batch == 32

    def test_make_batcher_validation(self):
        curve = ConstantCurve(SERVICE)
        with pytest.raises(ValueError):
            make_batcher("fixed", curve, slo_seconds=7e-3)  # no batch size
        with pytest.raises(ValueError):
            make_batcher("nope", curve, slo_seconds=7e-3)
        assert make_batcher("timeout", curve, 7e-3, batch_size=8).max_batch == 8


class TestJSQTieBreaking:
    def test_equal_backlogs_prefer_idle_server(self):
        from repro.serving.fleet import ShortestQueueRouter

        curve = ConstantCurve(SERVICE)
        busy, idle = (Replica(curve, FixedBatcher(4), name=n) for n in ("a", "b"))
        busy.server.start_batch(0.0, 4)  # busy until t=2ms
        router = ShortestQueueRouter()
        assert router.pick([busy, idle], now=1e-3) is idle
        # Once the busy one frees up, the tie falls back to index order.
        assert router.pick([busy, idle], now=3e-3) is busy

    def test_backlog_dominates_idleness(self):
        from repro.serving.fleet import ShortestQueueRouter
        from repro.serving.engine import Request

        curve = ConstantCurve(SERVICE)
        shallow, deep = (Replica(curve, FixedBatcher(4)) for _ in range(2))
        shallow.server.start_batch(0.0, 4)  # busy, but queue is empty
        deep.admit(Request(index=0, arrival=0.0))
        router = ShortestQueueRouter()
        assert router.pick([deep, shallow], now=1e-3) is shallow

    def test_all_equal_picks_lowest_index(self):
        from repro.serving.fleet import ShortestQueueRouter

        curve = ConstantCurve(SERVICE)
        replicas = [Replica(curve, FixedBatcher(4)) for _ in range(3)]
        assert ShortestQueueRouter().pick(replicas, now=0.0) is replicas[0]


class TestDrainInvariant:
    def test_trace_drain_flushes_residual_queues(self):
        # A trace that parks partial batches on several replicas: with
        # drain=True every request must complete, including on replicas
        # that are busy when the trace ends.
        curve = ConstantCurve(SERVICE)
        fleet = Fleet(
            [Replica(curve, FixedBatcher(16)) for _ in range(3)],
            router="round_robin",
        )
        result = fleet.run(trace_arrivals([i * 1e-4 for i in range(50)]))
        assert result.unserved == 0
        assert result.responses.size == 50
        assert not np.isnan(result.responses).any()
        assert sum(result.served_per_replica) == 50

    def test_drain_is_deterministic(self):
        curve = ConstantCurve(SERVICE)

        def run():
            fleet = Fleet(
                [Replica(curve, FixedBatcher(16)) for _ in range(3)], router="jsq"
            )
            return fleet.run(poisson_arrivals(2000.0, 777, seed=12))

        a, b = run(), run()
        assert np.array_equal(a.responses, b.responses)
        assert a.served_per_replica == b.served_per_replica

    def test_stranding_batcher_is_flushed(self):
        # A pathological policy that never dispatches and never sets a
        # deadline: the structural flush must still serve everyone.
        class Stubborn(FixedBatcher):
            def dispatch_size(self, queue_len, oldest_age):
                return 0

        fleet = single_replica(Stubborn(8))
        result = fleet.run(uniform_arrivals(1000.0, 20))
        assert result.unserved == 0
        assert result.responses.size == 20

    def test_admission_accounting(self):
        fleet = single_replica(FixedBatcher(4))
        fleet.run(uniform_arrivals(1000.0, 12))
        replica = fleet.replicas[0]
        assert replica.admitted == 12
        assert replica.server.served == 12


class TestBusyIntervals:
    def test_intervals_match_busy_time(self):
        fleet = single_replica(TimeoutBatcher(8, 1e-3))
        result = fleet.run(poisson_arrivals(1500.0, 600, seed=13))
        (intervals,) = result.busy_intervals
        assert sum(e - s for s, e in intervals) == pytest.approx(result.busy_time)
        # Intervals are chronological and disjoint (idle gaps between).
        for (_s0, e0), (s1, _e1) in zip(intervals, intervals[1:]):
            assert e0 <= s1 + 1e-12

    def test_batch_server_records_occupancy(self):
        from repro.serving.engine import BatchServer

        server = BatchServer(ConstantCurve(2e-3, 5e-3))
        server.start_batch(1.0, 4)
        assert server.busy_intervals == [(1.0, 1.002)]
        with pytest.raises(RuntimeError):  # still busy at 1.001
            server.start_batch(1.001, 1)


class TestRouters:
    def test_round_robin_fairness(self):
        curve = ConstantCurve(SERVICE)
        fleet = Fleet(
            [Replica(curve, FixedBatcher(8)) for _ in range(4)],
            router="round_robin",
        )
        result = fleet.run(poisson_arrivals(4000.0, 8000, seed=6))
        served = result.served_per_replica
        assert sum(served) == 8000
        assert max(served) - min(served) <= 8  # one batch of slack

    def test_jsq_balances_load(self):
        # JSQ needs a batcher whose partial queues drain (fixed-only
        # batching starves replicas stuck below a full batch).
        curve = ConstantCurve(SERVICE)
        fleet = Fleet(
            [Replica(curve, TimeoutBatcher(8, 5e-3)) for _ in range(4)],
            router="jsq",
        )
        result = fleet.run(poisson_arrivals(4000.0, 8000, seed=7))
        served = result.served_per_replica
        assert sum(served) == 8000
        assert min(served) > 0.7 * 8000 / 4

    def test_fleet_scales_throughput(self):
        def capacity(n_replicas):
            curve = ConstantCurve(SERVICE)
            fleet = Fleet(
                [Replica(curve, FixedBatcher(16)) for _ in range(n_replicas)]
            )
            # Far beyond one server's capacity (8000/s per replica).
            result = fleet.run(poisson_arrivals(30000.0, 12000, seed=8))
            return result.stats().throughput_rps

        assert capacity(4) > 3.2 * capacity(1)

    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError):
            make_router("central-scheduler")


class TestTraffic:
    def test_poisson_reproducible_and_sorted(self):
        a = poisson_arrivals(100.0, 500, seed=9)
        b = poisson_arrivals(100.0, 500, seed=9)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            trace_arrivals([])
        with pytest.raises(ValueError):
            trace_arrivals([2.0, 1.0])
        assert trace_arrivals([0.0, 1.0, 1.0]).size == 3

    def test_trace_normalizes_origin(self):
        # Epoch-style timestamps must not inflate the horizon (they
        # would report ~0 throughput and utilization).
        times = trace_arrivals([1.7e9, 1.7e9 + 0.5, 1.7e9 + 1.0])
        assert times.tolist() == [0.0, 0.5, 1.0]

    def test_diurnal_mean_rate(self):
        times = diurnal_arrivals(1000.0, 0.5, period_seconds=1.0,
                                 n_requests=4000, seed=10)
        realized = times.size / times[-1]
        assert realized == pytest.approx(1000.0, rel=0.15)

    def test_load_trace_file(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# comment\n0.0\n0.5\n\n1.5  # inline\n")
        times = load_trace(str(path))
        assert times.tolist() == [0.0, 0.5, 1.5]


class TestVectorizedServingParity:
    """The REPRO_SERVING_FAST paths must be bit-identical to the
    reference per-request loops: same responses, same per-replica
    accounting, same busy timeline.  Overloaded traffic exercises the
    bulk-admission window; the trailing drain exercises partial
    batches."""

    def _replicas(self, n=3):
        curve = ConstantCurve(occupancy_seconds=1e-3, latency_seconds=1.5e-3)
        return [Replica(curve, TimeoutBatcher(8, 5e-4), name=f"r{i}") for i in range(n)]

    @pytest.mark.parametrize("router", ["round_robin", "jsq"])
    @pytest.mark.parametrize("traffic", ["poisson", "diurnal"])
    def test_fleet_fast_matches_reference(self, router, traffic):
        if traffic == "poisson":
            arrivals = poisson_arrivals(rate=4000.0, n_requests=3000, seed=3)
        else:
            arrivals = diurnal_arrivals(
                mean_rate=4000.0, swing=0.6, period_seconds=0.25,
                n_requests=3000, seed=3,
            )
        runs = {}
        for fast in (True, False):
            sim = FleetSim(self._replicas(), make_router(router), arrivals, fast=fast)
            runs[fast] = sim.run()
        assert np.array_equal(runs[True].responses, runs[False].responses)
        assert runs[True].served_per_replica == runs[False].served_per_replica
        assert runs[True].batches_per_replica == runs[False].batches_per_replica
        assert runs[True].busy_intervals == runs[False].busy_intervals

    def test_fleet_fast_matches_reference_under_light_load(self):
        """Below saturation bulk admission must stand down, not misfire."""
        arrivals = poisson_arrivals(rate=500.0, n_requests=1000, seed=9)
        runs = {
            fast: FleetSim(
                self._replicas(), make_router("jsq"), arrivals, fast=fast
            ).run()
            for fast in (True, False)
        }
        assert np.array_equal(runs[True].responses, runs[False].responses)
        assert runs[True].busy_intervals == runs[False].busy_intervals

    # -- round-robin replay vs the event path ---------------------------
    #
    # Arrivals sit on a coarse time grid and service times are grid
    # multiples, so exact time ties -- arrival vs free event vs deadline
    # timer vs drain -- are the common case, not the exception.  A
    # power-of-two grid keeps every sum exact; decimal grids add
    # rounding.
    GRIDS = (2.0**-11, 5e-4, 1e-3)
    GAPS = (0, 0, 1, 2, 3, 6, 12)  # inter-arrival ticks; zero is a tie

    @staticmethod
    def _outcome(run):
        """Every ``FleetResult`` field, or the exception the run raised."""
        try:
            r = run()
        except Exception as exc:  # both paths must fail the same way
            return ("raised", type(exc).__name__, str(exc))
        return (
            r.responses.tobytes(), r.horizon, r.busy_time, r.served_per_replica,
            r.batches_per_replica, r.unserved, r.busy_intervals,
        )

    @staticmethod
    def _build_replica(grid, policy, max_batch, ticks, timeout_ticks):
        occupancy = ticks[0] * grid
        if policy == "adaptive":
            curve = _LinearCurve(occupancy, ticks[1] * grid / 4, ticks[2] * grid)
            batcher = SLOAdaptiveBatcher(
                max(timeout_ticks, 1) * 4 * grid, curve, candidates=(1, 2, 4, 8)
            )
        else:
            curve = ConstantCurve(occupancy, occupancy + ticks[2] * grid)
            batcher = (
                FixedBatcher(max_batch) if policy == "fixed"
                else TimeoutBatcher(max_batch, timeout_ticks * grid)
            )
        return Replica(curve, batcher)

    @settings(max_examples=300, deadline=None)
    @given(
        grid=st.sampled_from(GRIDS),
        policy=st.sampled_from(["fixed", "timeout", "adaptive"]),
        shapes=st.lists(
            st.tuples(
                st.integers(1, 6),  # max batch
                st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)),
                st.integers(0, 5),  # timeout / SLO, in grid ticks (0 included)
            ),
            min_size=1, max_size=4,
        ),
        first=st.lists(st.sampled_from(GAPS), min_size=1, max_size=60),
        second=st.lists(st.sampled_from(GAPS), min_size=1, max_size=30),
        gap=st.one_of(st.none(), st.integers(-20, 10)),
        drain=st.booleans(),
        router_offset=st.integers(0, 7),
        block=st.sampled_from([1, 2, 1024]),
    )
    # The server frees up exactly at the last instant, where two
    # arrivals tie: the first must poll it idle before the drain does.
    @example(
        grid=2.0**-11, policy="timeout", shapes=[(6, (3, 0, 0), 0)], first=[0, 3, 0],
        second=[0], gap=None, drain=True, router_offset=0, block=1024,
    )
    def test_round_robin_replay_matches_event_path(
        self, grid, policy, shapes, first, second, gap, drain, router_offset, block
    ):
        """``fast=True`` replays round-robin fleets replica by replica;
        every result field must equal the event path's.  ``gap`` adds a
        second ``Fleet.run`` on the same fleet, whose router offset and
        per-server ``free_at`` carry over (a negative gap overlaps the
        first run's busy tail, which sends the run to the event path).
        """
        first_trace = np.cumsum(first, dtype=float) * grid

        def run(fast):
            fleet = Fleet(
                [self._build_replica(grid, policy, *shape) for shape in shapes], "round_robin"
            )
            fleet.router._next = router_offset
            replay = mock.patch.object(
                FleetSim, "_replay_round_robin", autospec=True,
                side_effect=FleetSim._replay_round_robin,
            )
            with mock.patch.object(fleet_module, "_FAST_DEFAULT", fast), mock.patch.object(
                FleetSim, "_WRITE_BATCHES", block
            ), replay as replayed:
                outcomes = [self._outcome(lambda: fleet.run(first_trace, drain=drain))]
                assert replayed.call_count == int(fast)
                if gap is not None and outcomes[0][0] != "raised":
                    start = outcomes[0][1] + gap * grid
                    second_trace = start + np.cumsum(second, dtype=float) * grid
                    outcomes.append(self._outcome(lambda: fleet.run(second_trace, drain=drain)))
            return outcomes

        assert run(True) == run(False)

    def test_stale_deadline_timer_launches_in_the_rounding_corner(self):
        """A deadline timer left by an earlier head still polls.  Here it
        fires at ``fl(x + 0.1)``, before the new head's own deadline
        ``fl(x' + 0.1)``, yet ``fl(t - x') >= 0.1`` -- so it launches, on
        both paths."""
        x = 0.0095
        x_next = math.nextafter(x, math.inf)
        assert x + 0.1 < x_next + 0.1 and (x + 0.1) - x_next >= 0.1
        arrivals = np.array([x, x, x_next, 1.0])
        runs = {}
        for fast in (True, False):
            replica = Replica(ConstantCurve(0.0), TimeoutBatcher(2, 0.1))
            runs[fast] = FleetSim([replica], make_router("round_robin"), arrivals, fast=fast).run()
        assert runs[True].busy_intervals == runs[False].busy_intervals
        assert np.array_equal(runs[True].responses, runs[False].responses)
        # The second batch starts at the stale timer, not the live one.
        assert runs[True].busy_intervals[0][1][0] == x + 0.1

    def test_fleet_runs_twice_on_carried_state(self):
        """A second ``Fleet.run`` continues the router offset and server
        clocks; the conservation check counts only its own requests."""
        curve = ConstantCurve(1e-3)
        fleet = Fleet([Replica(curve, TimeoutBatcher(4, 5e-4)) for _ in range(3)])
        first = poisson_arrivals(rate=3000.0, n_requests=100, seed=1)
        one = fleet.run(first)
        two = fleet.run(one.horizon + poisson_arrivals(rate=3000.0, n_requests=50, seed=2))
        assert fleet.router._next == 150
        assert two.responses.size == 50 and np.all(two.responses > 0)
        assert sum(two.served_per_replica) == 150  # server counters accumulate

    @pytest.mark.parametrize("case", ["unsorted", "router", "batcher", "autoscaled"])
    def test_replay_stays_off_outside_its_preconditions(self, case, monkeypatch):
        def refuse(self):
            raise AssertionError("round-robin replay engaged")

        monkeypatch.setattr(FleetSim, "_replay_round_robin", refuse)
        arrivals = poisson_arrivals(rate=3000.0, n_requests=300, seed=5)
        curve = ConstantCurve(1e-3)
        if case == "unsorted":
            arrivals[[10, 11]] = arrivals[[11, 10]]
            result = Fleet([Replica(curve, TimeoutBatcher(4, 5e-4))]).run(arrivals)
        elif case == "router":
            class Cycling(RoundRobinRouter):
                pass

            fleet = Fleet([Replica(curve, TimeoutBatcher(4, 5e-4)) for _ in range(2)], Cycling())
            result = fleet.run(arrivals)
        elif case == "batcher":
            class Patient(TimeoutBatcher):
                pass

            result = Fleet([Replica(curve, Patient(4, 5e-4)) for _ in range(2)]).run(arrivals)
        else:
            from repro.datacenter.autoscaler import AutoscaleConfig, AutoscaledFleet, StaticPolicy

            result = AutoscaledFleet(
                lambda i: Replica(curve, TimeoutBatcher(4, 5e-4)), StaticPolicy(2),
                AutoscaleConfig(control_interval_seconds=0.02, spinup_seconds=0.0),
                replica_rps=4000.0, router="round_robin",
            ).run(arrivals).fleet
        assert result.responses.size == 300

    def test_closed_loop_fast_matches_reference(self):
        curve = ConstantCurve(occupancy_seconds=1e-3, latency_seconds=2e-3)
        fast, fast_server = run_closed_loop(64, 16, curve, n_batches=50, fast=True)
        ref, ref_server = run_closed_loop(64, 16, curve, n_batches=50, fast=False)
        assert np.array_equal(fast, ref)
        assert fast_server.busy_intervals == ref_server.busy_intervals


class TestSummarize:
    def test_matches_numpy_percentile(self):
        responses = np.linspace(1e-3, 1e-1, 1000)
        stats = summarize(responses, horizon=1.0, busy_time=0.5,
                          warmup_fraction=0.0, slo_seconds=5e-2)
        assert stats.p99_seconds == pytest.approx(np.percentile(responses, 99))
        assert stats.slo_miss_fraction == pytest.approx(0.5, abs=0.01)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize(np.array([]), horizon=1.0, busy_time=0.0)


class TestSweep:
    @pytest.fixture(scope="class")
    def spec(self, workloads):
        from repro.analysis.common import platforms

        return FleetSpec(
            platform=platforms()["tpu"], model=workloads["mlp0"],
            replicas=2, policy="adaptive", slo_seconds=7e-3, router="jsq",
        )

    def test_operating_curve_and_best_point(self, spec):
        points = serving_sweep(spec, (0.4, 0.9), n_requests=4000)
        assert len(points) == 2
        best = max_throughput_under_slo(points)
        assert best is not None and best.meets_slo
        assert all(p.throughput_rps > 0 for p in points)

    def test_tpu_adaptive_batch_is_large(self, spec):
        # The paper's Table 4 point: deterministic execution keeps large
        # batches (≈200+) inside the 7 ms budget.
        assert spec.max_batch() >= 200

    def test_tight_slo_starves_batch(self, workloads):
        from repro.analysis.common import platforms

        tight = FleetSpec(
            platform=platforms()["cpu"], model=workloads["mlp0"],
            replicas=1, policy="adaptive", slo_seconds=7e-3,
        )
        loose = FleetSpec(
            platform=platforms()["cpu"], model=workloads["mlp0"],
            replicas=1, policy="adaptive", slo_seconds=100e-3,
        )
        assert tight.max_batch() < loose.max_batch()

    def test_run_point_validates_load(self, spec):
        with pytest.raises(ValueError):
            run_point(spec, 0.0)


class TestPlatformCurve:
    def test_interpolates_between_anchors(self, workloads):
        from repro.analysis.common import platforms

        curve = PlatformCurve(platforms()["cpu"], workloads["mlp0"])
        lat_lo, lat_hi = curve.latency(16), curve.latency(32)
        mid = curve.latency(24)
        assert min(lat_lo, lat_hi) <= mid <= max(lat_lo, lat_hi)

    def test_exact_at_anchor(self, workloads):
        from repro.analysis.common import platforms
        from repro.serving.fleet import occupancy_latency

        platform = platforms()["cpu"]
        curve = PlatformCurve(platform, workloads["mlp0"])
        occ, lat = occupancy_latency(platform, workloads["mlp0"], 64)
        assert curve.occupancy(64) == pytest.approx(occ)
        assert curve.latency(64) == pytest.approx(lat)

    def test_rejects_nonpositive_batch(self, workloads):
        from repro.analysis.common import platforms

        curve = PlatformCurve(platforms()["cpu"], workloads["mlp0"])
        with pytest.raises(ValueError):
            curve.latency(0)
