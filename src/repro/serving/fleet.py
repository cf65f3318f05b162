"""A fleet of batching accelerator replicas behind a router.

``Fleet`` runs the open-loop simulation on the shared event engine:
requests arrive (Poisson or trace), the router assigns each to a
replica, the replica's batching policy decides when to launch, and the
replica's latency curve (platform-derived or constant) says how long the
batch occupies the device and when responses return.  One event loop
drives every replica, so cross-replica effects (load imbalance, JSQ
draining hotspots) are simulated, not approximated.  A static
round-robin fleet has no such effects -- the router's assignment is
fixed by arrival order -- so ``FleetSim.run`` replays it one replica at
a time, batch by batch, with the event loop's exact results.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs, perfcache
from repro.nn.graph import Model
from repro.platforms.base import BATCH_CANDIDATES, Platform
from repro.serving.batcher import Batcher, FixedBatcher, SLOAdaptiveBatcher, TimeoutBatcher
from repro.serving.engine import (
    _FAST_DEFAULT,
    BatchServer,
    EventLoop,
    LatencyCurve,
    Request,
    ServingStats,
    summarize,
)


def occupancy_latency(platform: Platform, model: Model, batch: int) -> tuple[float, float]:
    """(occupancy, response latency) per batch on a platform.

    Occupancy is how long the device is unavailable; latency is when the
    responses come back.  They differ on the TPU, where the host share
    pipelines with device execution.

    Every curve probe in the repo funnels through here, and from here
    through the process-wide :mod:`repro.perfcache` memo table, so the
    serving sweeps, batcher probes, provisioning search, and autoscaler
    all share one set of platform evaluations.
    """
    return perfcache.occupancy_latency(platform, model, batch)


class PlatformCurve(LatencyCurve):
    """Batch latency curve measured from a platform model.

    Exact platform evaluations are expensive on the TPU (each new batch
    size compiles and profiles a model variant), but a running simulation
    asks about arbitrary partial-batch sizes.  So the curve is exact at a
    grid of anchor batch sizes (evaluated lazily, memoized) and
    piecewise-linear in between -- a good fit, since batch time is close
    to ``fixed overhead + per-example cost`` on every platform.  Batches
    beyond the largest anchor extrapolate from the last segment.
    """

    def __init__(
        self,
        platform: Platform,
        model: Model,
        anchors: Sequence[int] = BATCH_CANDIDATES,
    ) -> None:
        self.platform = platform
        self.model = model
        self.anchors = sorted(set(anchors) | {1})
        if len(self.anchors) < 2:
            raise ValueError("PlatformCurve needs at least two distinct anchors")
        self._cache: dict[int, tuple[float, float]] = {}
        self._points: dict[int, tuple[float, float]] = {}

    def _exact(self, batch: int) -> tuple[float, float]:
        cached = self._cache.get(batch)
        if cached is None:
            cached = occupancy_latency(self.platform, self.model, batch)
            self._cache[batch] = cached
        return cached

    def _point(self, batch: int) -> tuple[float, float]:
        point = self._points.get(batch)
        if point is None:
            point = self._points[batch] = self._interpolate(batch)
        return point

    def _interpolate(self, batch: int) -> tuple[float, float]:
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        pos = bisect_left(self.anchors, batch)
        if pos < len(self.anchors) and self.anchors[pos] == batch:
            return self._exact(batch)
        if pos >= len(self.anchors):  # extrapolate past the grid
            lo, hi = self.anchors[-2], self.anchors[-1]
        else:
            lo, hi = self.anchors[pos - 1], self.anchors[pos]
        (occ_lo, lat_lo), (occ_hi, lat_hi) = self._exact(lo), self._exact(hi)
        frac = (batch - lo) / (hi - lo)
        return (
            occ_lo + frac * (occ_hi - occ_lo),
            lat_lo + frac * (lat_hi - lat_lo),
        )

    def occupancy(self, batch: int) -> float:
        return self._point(batch)[0]

    def latency(self, batch: int) -> float:
        return self._point(batch)[1]


class Replica:
    """One accelerator behind its own queue and batching policy.

    The queue holds *request indices* (positions in the simulation's
    arrival vector); arrival times live in one shared array on the
    simulation, which is what lets completions be written back over
    index arrays instead of per-request objects.
    """

    def __init__(self, curve: LatencyCurve, batcher: Batcher, name: str = "") -> None:
        self.name = name
        self.server = BatchServer(curve)
        self.batcher = batcher
        self.queue: deque[int] = deque()
        self.admitted = 0

    def admit(self, request: Request) -> None:
        self.admit_index(request.index)

    def admit_index(self, index: int) -> None:
        self.queue.append(index)
        self.admitted += 1

    @property
    def backlog(self) -> int:
        return len(self.queue)


class Router:
    """Assigns each arriving request to a replica."""

    def pick(self, replicas: list[Replica], now: float) -> Replica:
        raise NotImplementedError


class RoundRobinRouter(Router):
    def __init__(self) -> None:
        self._next = 0

    def pick(self, replicas: list[Replica], now: float) -> Replica:
        replica = replicas[self._next % len(replicas)]
        self._next += 1
        return replica


class ShortestQueueRouter(Router):
    """Join-shortest-queue: fewest waiting requests, busy server breaks ties."""

    def pick(self, replicas: list[Replica], now: float) -> Replica:
        # Explicit scan (first strict minimum wins) == the old
        # min-with-key over (backlog, busy, index), minus the 2N lambda
        # calls per arrival on the simulation's hottest path.
        best = replicas[0]
        best_key = (len(best.queue), best.server.free_at > now)
        for replica in replicas[1:]:
            key = (len(replica.queue), replica.server.free_at > now)
            if key < best_key:
                best, best_key = replica, key
        return best


ROUTERS = {
    "round_robin": RoundRobinRouter,
    "jsq": ShortestQueueRouter,
}


def make_router(name: str) -> Router:
    try:
        return ROUTERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown router {name!r}; try one of {sorted(ROUTERS)}"
        ) from None


@dataclass(frozen=True)
class FleetResult:
    """Raw simulation output plus per-replica accounting."""

    responses: np.ndarray  # per-served-request response time, request order
    horizon: float
    busy_time: float
    served_per_replica: tuple[int, ...]
    batches_per_replica: tuple[int, ...]
    unserved: int = 0  # requests still queued at the end (drain=False)
    #: Per-replica busy (start, end) intervals -- the utilization
    #: timelines the datacenter energy accounting integrates.
    busy_intervals: tuple[tuple[tuple[float, float], ...], ...] = ()

    def stats(
        self,
        warmup_fraction: float = 0.1,
        slo_seconds: float | None = None,
    ) -> ServingStats:
        return summarize(
            self.responses,
            horizon=self.horizon,
            busy_time=self.busy_time,
            n_servers=len(self.served_per_replica),
            warmup_fraction=warmup_fraction,
            slo_seconds=slo_seconds,
            batches=sum(self.batches_per_replica),
        )


#: Batchers whose launch rule the round-robin replay reproduces.
_REPLAY_BATCHERS = (FixedBatcher, TimeoutBatcher, SLOAdaptiveBatcher)


class FleetSim:
    """One in-flight discrete-event fleet simulation.

    ``Fleet.run`` drives it start to finish over a static replica set;
    the autoscaler (:mod:`repro.datacenter.autoscaler`) drives the same
    core with a *dynamic* routing set (``eligible``) and its own
    control-loop events scheduled on ``loop``.  ``replicas`` accumulates
    every replica that ever admitted work -- deactivated replicas stay
    in it so their residual queues drain and their accounting is kept.
    """

    def __init__(
        self,
        replicas: Sequence[Replica],
        router: Router,
        arrivals: np.ndarray,
        drain: bool = True,
        fast: bool | None = None,
    ) -> None:
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.size == 0:
            raise ValueError("arrivals must be non-empty")
        self.replicas: list[Replica] = list(replicas)
        self.eligible: list[Replica] = list(replicas)  # routing targets
        self.router = router
        self.arrivals = arrivals
        self.drain = drain
        self.loop = EventLoop()
        self.responses = np.full(arrivals.size, np.nan)
        self.pending = arrivals.size  # arrivals not yet processed
        #: ``REPRO_SERVING_FAST=0`` forces the per-request reference
        #: loops (no bulk admission, scalar completion writes).
        self.fast = _FAST_DEFAULT if fast is None else fast
        # Arrival times as a plain list: queue heads are looked up per
        # poll, and list indexing beats ndarray scalar extraction there.
        self._times: list[float] = arrivals.tolist()
        # One flag decides whether the hot launch path pays for
        # observability at all; replica trace tracks are assigned lazily
        # so autoscaler-spawned replicas get tids too.
        self._observe = obs.TRACER.enabled or obs.REGISTRY.enabled
        self._tids: dict[int, int] = {}
        # Replicas and servers keep their counters across runs; the
        # conservation check counts this run's share.
        self._admitted_before = sum(r.admitted for r in self.replicas)
        self._served_before = sum(r.server.served for r in self.replicas)

    def poll(self, replica: Replica) -> None:
        """Launch a batch on ``replica`` if its policy says so."""
        now = self.loop.now
        queue = replica.queue
        if not queue or replica.server.free_at > now:
            return
        oldest = self._times[queue[0]]
        n = replica.batcher.dispatch_size(len(queue), now - oldest)
        if n == 0:
            # Compare absolute deadlines, not ages: recomputing the
            # deadline reproduces the exact float a timer fired at,
            # where age arithmetic can round just below the budget
            # and spin the loop at zero delay.
            deadline = replica.batcher.wait_deadline(len(replica.queue), oldest)
            if deadline is not None and deadline <= now:
                n = min(len(replica.queue), replica.batcher.max_batch)
            elif self.pending == 0 and self.drain:
                # End of trace: serve the leftover partial batch.
                n = min(len(replica.queue), replica.batcher.max_batch)
            elif deadline is not None:
                self.loop.schedule(deadline, lambda _t: self.poll(replica))
        if n > 0:
            self._launch(replica, n, now)
            self.loop.schedule(replica.server.free_at, lambda _t: self.poll(replica))

    def _launch(self, replica: Replica, n: int, now: float) -> None:
        if self._observe:
            self._pre_launch(replica, n)
        popleft = replica.queue.popleft
        batch = [popleft() for _ in range(n)]
        done = replica.server.start_batch(now, n)
        if self.fast and n >= 32:
            # Completion scheduling over arrays: one float64 subtraction
            # per batch.  Bit-identical to the scalar loop -- IEEE
            # arithmetic is elementwise either way.
            idx = np.asarray(batch, dtype=np.intp)
            self.responses[idx] = done - self.arrivals[idx]
        else:
            responses = self.responses
            times = self._times
            for index in batch:
                responses[index] = done - times[index]
        if self._observe:
            self._post_launch(replica, batch, now, done)

    def _pre_launch(self, replica: Replica, n: int) -> None:
        """Observability bookkeeping before a batch is popped (cold path)."""
        tid = self._tids.get(id(replica))
        if tid is None:
            tid = self._tids[id(replica)] = len(self._tids)
        replica.server.trace_tid = tid
        if obs.REGISTRY.enabled:
            obs.histogram("serving.queue_depth_at_launch").observe(len(replica.queue))

    def _post_launch(
        self, replica: Replica, batch: Sequence[int], now: float, done: float
    ) -> None:
        """Per-request lifecycle spans and queue-wait metrics (cold path)."""
        times = self._times
        if obs.TRACER.enabled:
            tid = replica.server.trace_tid
            for index in batch:
                arrival = times[index]
                obs.TRACER.sim_span(
                    "request",
                    arrival,
                    done - arrival,
                    cat="serving",
                    tid=tid,
                    pid=obs.REQ_PID,
                    wait_ms=(now - arrival) * 1e3,
                    batch=len(batch),
                )
        if obs.REGISTRY.enabled:
            obs.histogram("serving.queue_wait_s").observe(now - times[batch[0]])

    def _on_arrival(self, index: int) -> None:
        self.pending -= 1
        replica = self.router.pick(self.eligible, self.loop.now)
        replica.admit_index(index)
        self.poll(replica)
        if self.pending == 0:
            # End of trace: drain idle replicas with partial queues
            # (busy ones drain when their free event polls them).
            for other in self.replicas:
                if other is not replica:
                    self.poll(other)

    def _flush_residual(self) -> None:
        """Serve whatever the event cascade left queued, deterministically.

        The in-loop drain handles every in-tree batcher, but the
        guarantee "every admitted request gets a response" must not
        depend on each policy's deadline discipline: a custom batcher
        that neither dispatches nor sets a deadline would otherwise
        strand its queue.  Flush replica by replica (index order, then
        time), so the residual schedule is reproducible.
        """
        for replica in self.replicas:
            while replica.queue:
                now = max(self.loop.now, replica.server.free_at)
                self._launch(replica, min(len(replica.queue), replica.batcher.max_batch), now)

    def _run_events(self) -> None:
        """Drive the event loop over the arrival trace.

        Sorted traces (every generated workload) merge the arrival
        stream directly against the dynamic-event heap instead of
        pushing a heap event per arrival -- the single hottest loop in
        the repo.  Event order is identical to scheduling every arrival
        up front: events already on the loop when the run starts carry
        lower sequence numbers than the arrivals would have received,
        so they win exact time ties; events scheduled during the run
        would have received higher ones, so they lose them.
        """
        loop = self.loop
        arrivals = self.arrivals
        if arrivals.size > 1 and np.any(np.diff(arrivals) < 0):
            # Unsorted trace: the heap is the sort.
            for index, when in enumerate(self._times):
                loop.schedule(when, lambda _t, i=index: self._on_arrival(i))
            loop.run()
            return
        heap = loop._heap
        pre_seq = loop._seq  # events below this watermark win time ties
        pop = heapq.heappop
        on_arrival = self._on_arrival
        # Bulk admission replays only the in-tree routers exactly; a
        # custom Router subclass keeps the per-arrival reference path.
        bulk = self.fast and type(self.router) in (RoundRobinRouter, ShortestQueueRouter)
        times = self._times
        n = len(times)
        i = 0
        while True:
            if i < n:
                when = times[i]
                top_when = math.inf
                if heap:
                    top = heap[0]
                    top_when = top[0]
                    if top_when < when or (top_when == when and top[1] < pre_seq):
                        pop(heap)
                        loop.now = top_when
                        top[2](top_when)
                        continue
                if bulk:
                    j = self._bulk_admit(i, top_when)
                    if j > i:
                        i = j
                        continue
                loop.now = when
                on_arrival(i)
                i += 1
            elif heap:
                when, _, callback = pop(heap)
                loop.now = when
                callback(when)
            else:
                break

    #: Minimum run length before bulk admission beats the scalar path.
    _BULK_MIN = 8

    def _bulk_admit(self, i: int, top_when: float) -> int:
        """Admit a run of queued-behind-busy arrivals in one step.

        While every routing-eligible replica is busy, ``poll`` returns
        immediately, so admitting an arrival is a pure queue append plus
        router bookkeeping -- no event can fire and no batch can launch
        before ``min(free_at)`` or the next heap event.  Arrivals
        strictly before both bounds are therefore assigned *en masse*,
        replaying the router's sequential decisions exactly (see the
        per-router blocks).  Returns the first unconsumed index
        (``== i`` when the window is too small to bother).
        """
        eligible = self.eligible
        if not eligible:
            return i
        bound = min(r.server.free_at for r in eligible)
        if top_when < bound:
            bound = top_when
        times = self._times
        if times[i] >= bound:
            return i
        # The final arrival always takes the reference path: its
        # ``_on_arrival`` triggers the end-of-trace drain polls.
        j = min(bisect_left(times, bound, i, len(times)), len(times) - 1)
        m = j - i
        if m < self._BULK_MIN:
            return i
        if type(self.router) is RoundRobinRouter:
            # Sequential round-robin == strided slices of the window.
            base = self.router._next
            count = len(eligible)
            for offset in range(min(count, m)):
                replica = eligible[(base + offset) % count]
                indices = range(i + offset, j, count)
                replica.queue.extend(indices)
                replica.admitted += len(indices)
            self.router._next = base + m
        else:
            self._bulk_admit_jsq(i, j, eligible)
        self.pending -= m
        self.loop.now = times[j - 1]
        return j

    @staticmethod
    def _bulk_admit_jsq(i: int, j: int, eligible: list[Replica]) -> None:
        """Vectorized join-shortest-queue water-fill over one window.

        With every eligible replica busy, the sequential JSQ scan picks
        the first replica with the minimum queue length -- so arrival k
        of the window lands on the k-th pair of the lexicographic
        (queue-level, scan-index) enumeration with level >= the
        replica's starting backlog.  ``np.nonzero`` on the level x
        replica openness mask yields exactly that enumeration.
        """
        m = j - i
        depths = np.array([len(r.queue) for r in eligible])
        count = len(eligible)
        top = int(depths.max()) + -(-m // count)  # fill levels can't exceed this
        levels = np.arange(int(depths.min()), top)
        open_slots = depths[None, :] <= levels[:, None]
        _, replica_ids = np.nonzero(open_slots)  # row-major == lexicographic
        replica_ids = replica_ids[:m]
        order = np.argsort(replica_ids, kind="stable")  # group, keep arrival order
        assigned = (np.arange(i, j)[order]).tolist()
        counts = np.bincount(replica_ids, minlength=count)
        pos = 0
        for r, c in enumerate(counts.tolist()):
            if c:
                replica = eligible[r]
                replica.queue.extend(assigned[pos : pos + c])
                replica.admitted += c
                pos += c

    def _replays_round_robin(self) -> bool:
        """Whether ``run`` may replay the fleet replica by replica.

        Round-robin replicas share nothing but the arrival order and the
        end-of-trace instant, so a static round-robin fleet of in-tree
        batchers can be replayed one replica at a time.  Anything else
        -- a custom router or batcher, a dynamic eligible set or
        pre-scheduled events (the autoscaler), an unsorted trace, work
        or busy time carried over from an earlier run -- takes the event
        path, which stays the reference (``fast=False``).
        """
        first = self._times[0]
        return (
            self.fast
            and type(self.router) is RoundRobinRouter
            and self.eligible == self.replicas
            and not self.loop._heap
            and all(type(r.batcher) in _REPLAY_BATCHERS for r in self.replicas)
            # No carried-over work: a server still busy from an earlier
            # run has no free event on this loop, so requests queued
            # behind it can be left to ``_flush_residual``, whose timing
            # depends on the whole fleet's event clock.
            and all(not r.queue and r.server.free_at <= first for r in self.replicas)
            and not np.any(np.diff(self.arrivals) < 0)
        )

    def _replay_round_robin(self) -> None:
        """Replay a static round-robin fleet one replica at a time.

        Replica ``p`` receives the arrivals ``i`` with
        ``(router._next + i) % N == p`` -- a strided slice of the sorted
        trace -- and nothing else couples the replicas except the
        end-of-trace drain, which fires on every replica at the last
        arrival.  Each replica's batches are therefore a function of its
        own slice, and :meth:`_replay_replica` forms them by walking
        idle phases instead of dispatching heap events.
        """
        replicas = self.replicas
        count = len(replicas)
        base = self.router._next
        times = self._times
        n = len(times)
        owner = (base + n - 1) % count  # replica that takes the last arrival
        for pos, replica in enumerate(replicas):
            start = (pos - base) % count
            # A strided view shares the float objects; one replica needs none.
            own = times[start::count] if count > 1 else times
            if not own:
                continue
            replica.admitted += len(own)
            if self._observe:
                replica.server.trace_tid = self._tids[id(replica)] = pos
            served = self._replay_replica(replica, own, start, count, pos == owner)
            if served < len(own):  # drain=False leftovers stay queued
                replica.queue.extend(range(start + served * count, n, count))
        self.router._next = base + n
        self.pending = 0

    def _replay_replica(
        self, replica: Replica, own: list[float], start: int, stride: int, owns_last: bool
    ) -> int:
        """Form one replica's batches from its arrivals; returns how many it served.

        The replica is polled exactly where the event path polls it: at
        each arrival (arrivals win time ties against timers), at the
        end-of-trace drain instant (the last arrival, after every
        arrival), at the free event after each launch, and at every
        deadline timer it scheduled -- stale ones from earlier batches
        included, since a poll on a new head can still launch there.
        Polls while busy are no-ops, so after a launch every arrival
        before ``free_at`` is admitted with one bisect.

        A stale timer finds the same queue as the poll before it, and
        only the clock has moved; for a head that arrived at ``a`` with
        wait budget ``w`` it launches only if ``t - a >= w`` while
        ``t < a + w`` in floating point -- a rounding corner, but a real
        one, so live timers are kept rather than dropped.
        """
        server = replica.server
        batcher = replica.batcher
        dispatch_size = batcher.dispatch_size
        wait_deadline = batcher.wait_deadline
        max_batch = batcher.max_batch
        drain = self.drain
        observe = self._observe
        inf = math.inf
        last = self._times[-1]  # the drain instant
        m = len(own)
        polled = m - 1 if owns_last else m  # the last arrival polls as the drain
        drained = False
        free_at = server.free_at
        free_poll = False  # no free event pending before the first launch
        timers: list[float] = []  # live deadline timers (heap)
        newest_timer = -inf
        head = admitted = written = 0
        # Completion time and size of the batches whose responses are
        # not yet written, flushed in blocks to bound the temporaries.
        dones: list[float] = []
        sizes: list[int] = []
        while True:
            # Next poll in event order: an arrival, then the drain, then
            # the heap (free event or deadline timer) at equal times.
            heap_at = free_at if free_poll else inf
            if timers and timers[0] < heap_at:
                heap_at = timers[0]
            if admitted < polled and own[admitted] <= heap_at:
                now = own[admitted]
                admitted += 1
                pending_zero = False
            elif not drained and last <= heap_at:
                now = last
                admitted = m
                drained = pending_zero = True
            elif heap_at < inf:
                now = heap_at
                if free_poll and free_at == now:
                    free_poll = False
                else:
                    heapq.heappop(timers)
                pending_zero = now >= last
            else:
                break
            queued = admitted - head
            if not queued:
                continue
            oldest = own[head]
            n = dispatch_size(queued, now - oldest)
            if n == 0:
                deadline = wait_deadline(queued, oldest)
                if (deadline is not None and deadline <= now) or (pending_zero and drain):
                    n = min(queued, max_batch)
                else:
                    if deadline is not None and deadline != newest_timer:
                        heapq.heappush(timers, deadline)
                        newest_timer = deadline
                    continue
            if observe and obs.REGISTRY.enabled:
                obs.histogram("serving.queue_depth_at_launch").observe(queued)
            done = server.start_batch(now, n)
            if observe:
                first = start + head * stride
                self._post_launch(replica, range(first, first + n * stride, stride), now, done)
            dones.append(done)
            sizes.append(n)
            head += n
            if len(sizes) == self._WRITE_BATCHES:
                written = self._write_responses(start, stride, written, dones, sizes)
            # Busy until free_at: earlier arrivals queue silently, the
            # drain poll (if it falls inside) is a no-op, timers lapse.
            free_at = server.free_at
            free_poll = True
            admitted = bisect_left(own, free_at, admitted, polled)
            if not drained and last < free_at:
                admitted = m
                drained = True
            while timers and timers[0] < free_at:
                heapq.heappop(timers)
        if sizes:
            self._write_responses(start, stride, written, dones, sizes)
        return head

    #: Batches per response write of the round-robin replay.
    _WRITE_BATCHES = 1024

    def _write_responses(
        self, start: int, stride: int, written: int, dones: list[float], sizes: list[int]
    ) -> int:
        """Write one replica's next batches of responses; empties the buffers.

        The replica's requests are served in arrival order, so the next
        ``sum(sizes)`` of its strided slice are exactly these batches.
        """
        end = written + sum(sizes)
        served = slice(start + written * stride, start + end * stride, stride)
        np.subtract(np.repeat(dones, sizes), self.arrivals[served], out=self.responses[served])
        dones.clear()
        sizes.clear()
        return end

    def run(self) -> FleetResult:
        if self._replays_round_robin():
            self._replay_round_robin()
        else:
            self._run_events()
            if self.drain:
                self._flush_residual()

        # The engine invariant: every admitted request got a response
        # (or, with drain=False, is reported as unserved -- never lost).
        admitted = sum(r.admitted for r in self.replicas) - self._admitted_before
        served = sum(r.server.served for r in self.replicas) - self._served_before
        unserved_mask = np.isnan(self.responses)
        unserved = int(np.count_nonzero(unserved_mask))
        if admitted != self.arrivals.size or admitted != served + unserved:
            raise RuntimeError(
                f"request conservation violated: {self.arrivals.size} arrived, "
                f"{admitted} admitted, {served} served, {unserved} unserved"
            )
        if unserved and self.drain:
            raise RuntimeError("simulation ended with unserved requests")
        horizon = max(
            max(r.server.free_at for r in self.replicas), float(self.arrivals[-1])
        )
        return FleetResult(
            responses=self.responses[~unserved_mask] if unserved else self.responses,
            horizon=horizon,
            busy_time=sum(r.server.busy_time for r in self.replicas),
            served_per_replica=tuple(r.server.served for r in self.replicas),
            batches_per_replica=tuple(r.server.batches for r in self.replicas),
            unserved=unserved,
            busy_intervals=tuple(tuple(r.server.busy_intervals) for r in self.replicas),
        )


class Fleet:
    """N replicas, one router, one discrete-event loop."""

    def __init__(self, replicas: list[Replica], router: Router | str = "round_robin") -> None:
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        self.replicas = replicas
        self.router = make_router(router) if isinstance(router, str) else router

    def run(self, arrivals: np.ndarray, drain: bool = True) -> FleetResult:
        """Simulate the fleet over an arrival-time vector.

        With ``drain=True`` (default) partial batches left at the end of
        the trace are served, so every request completes.  With
        ``drain=False`` requests a non-draining policy (e.g. a fixed
        batcher with a partial final batch) never launches are reported
        via ``FleetResult.unserved`` and excluded from the statistics.
        """
        return FleetSim(self.replicas, self.router, arrivals, drain=drain).run()
