"""Iteration-level (continuous) batching for transformer decode.

The paper's Table 4 charges the 99th-percentile SLO against *request*
batches: a batch launches, runs to completion, and only then admits new
work.  Autoregressive decode breaks that model -- one request may need
12 tokens and its neighbor 70, so request-level gangs strand batch slots
exactly where the weight-streaming economics (intensity ``~ batch``,
see ``transformer_roofline``) punish it most.  This module schedules at
*token-iteration* granularity instead:

* every iteration emits one token for each running request, costs the
  full weight stream once, and is priced by
  :class:`repro.platforms.kv.DecodeTiming`;
* requests join and leave the running batch between iterations, subject
  to the KV-cache budget of
  :func:`repro.platforms.kv.kv_capacity_tokens` -- the Unified Buffer
  treated the way the compiler treats activation overflow: a request
  that no longer fits is *evicted to the head of the queue* (its cache
  is rebuilt on re-admission), never dropped;
* ``scheduler="fixed"`` keeps the same engine but only admits into an
  empty batch, reproducing the request-level gang as the baseline;
* ``mode="disaggregated"`` splits the fleet into a prefill pool and a
  decode pool joined by a KV transfer hop, each pool optionally driven
  by its own autoscaler (:mod:`repro.datacenter.llm_pools`).

An iteration costs O(1) in the batch size: each decode chip records one
end time per iteration, a running request keeps only where it joined
that timeline and where it will finish, and its tokens are timeline
slices assembled once, when the run ends.  The run ends at the last
completion.

The scheduler is validated against an independently written per-request
event simulation (``tests/oracles/llm_per_request.py``) within
:data:`LLM_VALIDATION_RTOL`, mirroring the hybrid-vs-exact pattern of
:mod:`repro.globe`.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro import obs
from repro.platforms.kv import (
    DecodeTiming,
    kv_bytes_per_token,
    kv_capacity_tokens,
    kv_transfer_seconds,
)
from repro.serving.engine import EventLoop
from repro.util.units import MIB

#: Pinned relative tolerance between the continuous scheduler and the
#: per-request reference simulation (tests/test_llm.py enforces it; the
#: two implementations share only the closed-form timing arithmetic).
LLM_VALIDATION_RTOL = 5e-3


def _length_bounds(mean: int) -> tuple[int, int]:
    """The uniform integer sampling window ``[mean - mean//2, mean + mean//2]``."""
    return max(1, mean - mean // 2), mean + mean // 2


def sample_llm_requests(
    n: int,
    rate_rps: float,
    prompt_mean: int,
    decode_mean: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded Poisson arrivals with uniform prompt/decode lengths."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=n))
    plo, phi = _length_bounds(prompt_mean)
    dlo, dhi = _length_bounds(decode_mean)
    prompts = rng.integers(plo, phi + 1, size=n).astype(np.int64)
    decodes = rng.integers(dlo, dhi + 1, size=n).astype(np.int64)
    return arrivals, prompts, decodes


@dataclass(frozen=True)
class ContinuousConfig:
    """Everything the iteration-level engine needs to price a run."""

    timing: DecodeTiming
    kv_capacity: int
    kv_bytes_per_token: int
    chips: int = 1
    max_batch: int = 32
    scheduler: str = "continuous"  # continuous | fixed
    mode: str = "aggregated"  # aggregated | disaggregated
    prefill_chips: int = 1
    prefill_batch: int = 8
    transfer_rtt_s: float = 2e-4
    transfer_bytes_per_s: float = 12.5e9
    #: Optional per-pool controllers (see :mod:`repro.datacenter.llm_pools`);
    #: duck-typed: ``interval_s``, ``spinup_s``, ``min_chips``, ``desired()``.
    prefill_controller: object | None = None
    decode_controller: object | None = None


def build_llm_config(scenario, **controllers) -> ContinuousConfig:
    """Resolve an ``LLMServeScenario`` into a :class:`ContinuousConfig`."""
    from repro.core.config import TPU_V1
    from repro.nn.workloads import build_workload

    model = build_workload(scenario.workload)
    timing = DecodeTiming.for_model(model, TPU_V1)
    reserve = int(scenario.kv_reserve_mib * MIB)
    capacity = kv_capacity_tokens(model, TPU_V1, reserve_bytes=reserve)
    _, phi = _length_bounds(scenario.prompt_tokens)
    _, dhi = _length_bounds(scenario.decode_tokens)
    if phi + dhi + 1 > capacity:
        raise ValueError(
            f"one request can exceed the KV budget: up to {phi + dhi} cached "
            f"tokens vs capacity {capacity} ({scenario.workload}, "
            f"{scenario.kv_reserve_mib:g} MiB reserved); shrink "
            "prompt_tokens/decode_tokens or kv_reserve_mib"
        )
    return ContinuousConfig(
        timing=timing,
        kv_capacity=capacity,
        kv_bytes_per_token=kv_bytes_per_token(model),
        chips=scenario.chips,
        max_batch=scenario.max_batch,
        scheduler=scenario.scheduler,
        mode=scenario.mode,
        prefill_chips=scenario.prefill_chips,
        prefill_batch=scenario.prefill_batch,
        transfer_rtt_s=scenario.transfer_ms * 1e-3,
        transfer_bytes_per_s=scenario.link_gbps * 1e9 / 8.0,
        **controllers,
    )


def fleet_capacity_tokens_per_s(
    cfg: ContinuousConfig, prompt_mean: int, decode_mean: int
) -> float:
    """Ideal steady-state decode-pool token throughput (sizing anchor)."""
    mean_kv = prompt_mean + decode_mean // 2 + 1
    batch = min(cfg.max_batch, max(1, cfg.kv_capacity // mean_kv))
    step = cfg.timing.iteration_seconds(batch, batch * mean_kv)
    return cfg.chips * batch / step


class _LLMRequest:
    """Mutable per-request record inside one simulation run.

    A running request holds no per-token state.  It joined its chip's
    running set at chip iteration ``join`` with ``need`` cached tokens and
    finishes at iteration ``done_at``; at the start of chip iteration
    ``k`` its cache holds ``need + k - join + 1`` tokens (this iteration's
    growth included), and its tokens so far are the chip timeline's
    entries ``[join, k)``.  ``emitted`` counts the tokens of closed stints
    only, which is all a queued request needs to rebuild its cache.
    """

    __slots__ = (
        "index", "arrival", "prompt", "decode",
        "emitted", "prefills", "evictions", "join", "need", "done_at",
    )

    def __init__(self, index: int, arrival: float, prompt: int, decode: int):
        self.index = index
        self.arrival = arrival
        self.prompt = prompt
        self.decode = decode
        self.emitted = 0
        self.prefills = 0
        self.evictions = 0
        self.join = 0
        self.need = 0
        self.done_at = 0


class _Chip:
    """One accelerator in a pool: running set, KV ledger, power state.

    A decode chip also keeps its token timeline: ``times[k]`` is the end
    time of its iteration ``k``, when every member of that iteration's
    running set emitted one token.  ``next_done`` is the earliest
    ``done_at`` in the running set, so retirement is only looked for on
    the iterations where some member finishes.
    """

    __slots__ = (
        "index", "running", "kv_used", "idle", "enabled", "spinning",
        "busy_seconds", "powered_since", "powered_seconds",
        "times", "next_done", "end_iteration",
    )

    def __init__(self, index: int, enabled: bool):
        self.index = index
        self.running: list[int] = []
        self.kv_used = 0
        self.idle = True
        self.enabled = enabled
        self.spinning = False
        self.busy_seconds = 0.0
        self.powered_since: float | None = 0.0 if enabled else None
        self.powered_seconds = 0.0
        self.times = array("d")
        self.next_done = math.inf
        self.end_iteration = None

    def power_off(self, now: float) -> None:
        if self.powered_since is not None:
            self.powered_seconds += now - self.powered_since
            self.powered_since = None

    def power_on(self, now: float) -> None:
        if self.powered_since is None:
            self.powered_since = now


class _Pool:
    """A named chip pool plus the rolling stats its controller reads."""

    def __init__(self, name: str, size: int, controller) -> None:
        self.name = name
        self.controller = controller
        start = size if controller is None else min(controller.min_chips, size)
        self.chips = [_Chip(i, enabled=i < start) for i in range(size)]
        self.window_arrivals = 0
        self.window_busy = 0.0

    def active(self) -> int:
        return sum(1 for c in self.chips if c.enabled)

    def spinning(self) -> int:
        return sum(1 for c in self.chips if c.spinning)


@dataclass
class LLMRunResult:
    """Raw per-request outcome of one simulated trace (see ``llm_row``)."""

    arrivals: np.ndarray
    prompts: np.ndarray
    decodes: np.ndarray
    first_token: np.ndarray
    finish: np.ndarray
    emitted: np.ndarray
    prefills: np.ndarray
    evictions_per_request: np.ndarray
    tpot_intervals: np.ndarray
    horizon: float
    tokens: int
    iterations: int
    token_batch_sum: int
    evictions: int
    transfers: int
    prefill_batches: int
    kv_peak: int
    kv_capacity: int
    decode_busy_seconds: float
    prefill_busy_seconds: float
    decode_chip_seconds: float
    prefill_chip_seconds: float


def _stint_token_times(
    timelines: list[array],
    owner: np.ndarray,
    chip_of: np.ndarray,
    join: np.ndarray,
    length: np.ndarray,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First-token times, finish times and token intervals from stints.

    The stints arrive sorted by request and, within one, in the order
    they closed; each is the slice ``[join, join + length)`` of its chip's
    timeline.  A request's token intervals are its stints' timeline steps
    plus, before each stint after the first, the gap its eviction cost --
    element for element ``np.diff`` of its concatenated token times, but
    built from views of one ``np.diff`` per run, so no per-token array
    is ever materialized besides the result.
    """
    base = np.cumsum([0] + [len(t) for t in timelines[:-1]])
    timeline = np.concatenate([np.frombuffer(times) for times in timelines])
    first = base[chip_of] + join  # flat index of each stint's first token
    last = first + length - 1
    rows = np.arange(n)
    first_token = timeline[first[np.searchsorted(owner, rows)]]
    finish = timeline[last[np.searchsorted(owner, rows, side="right") - 1]]
    steps = np.diff(timeline)
    resumed = np.zeros(owner.size, dtype=bool)
    resumed[1:] = owner[1:] == owner[:-1]
    gaps = timeline[first[resumed]] - timeline[last[:-1][resumed[1:]]]
    pieces = []
    g = 0
    for lo, hi, after_eviction in zip(
        first.tolist(), last.tolist(), resumed.tolist()
    ):
        if after_eviction:
            pieces.append(gaps[g:g + 1])
            g += 1
        pieces.append(steps[lo:hi])
    intervals = np.concatenate(pieces) if pieces else np.empty(0)
    return first_token, finish, intervals


class ContinuousBatchingSim:
    """The iteration-level engine (both schedulers, both fleet modes)."""

    def __init__(self, cfg: ContinuousConfig) -> None:
        if cfg.scheduler not in ("continuous", "fixed"):
            raise ValueError(f"unknown scheduler {cfg.scheduler!r}")
        if cfg.mode not in ("aggregated", "disaggregated"):
            raise ValueError(f"unknown mode {cfg.mode!r}")
        self.cfg = cfg
        self.timing = cfg.timing

    # -- lifecycle ------------------------------------------------------

    def run(
        self,
        arrivals: np.ndarray,
        prompts: np.ndarray,
        decodes: np.ndarray,
    ) -> LLMRunResult:
        cfg = self.cfg
        self.requests = [
            _LLMRequest(i, float(arrivals[i]), int(prompts[i]), int(decodes[i]))
            for i in range(len(arrivals))
        ]
        self.n = len(self.requests)
        self.completed = 0
        self.tokens = 0
        self.iterations = 0
        self.token_batch_sum = 0
        self.evictions = 0
        self.transfers = 0
        self.prefill_batches = 0
        self.kv_peak = 0
        self.decode_queue: deque[int] = deque()
        self.prefill_queue: deque[int] = deque()
        #: Closed stints, flat ``(request, chip, join, tokens)`` quadruples,
        #: one per stay in a running set; the request's tokens in it are
        #: the chip timeline slice ``[join, join + tokens)``.
        self.stints = array("q")
        disagg = cfg.mode == "disaggregated"
        self.decode_pool = _Pool("decode", cfg.chips, cfg.decode_controller)
        for chip in self.decode_pool.chips:
            chip.end_iteration = partial(self._end_iteration, chip)
        self.prefill_pool = (
            _Pool("prefill", cfg.prefill_chips, cfg.prefill_controller)
            if disagg else None
        )
        self.loop = EventLoop()
        self._observe = obs.TRACER.enabled or obs.REGISTRY.enabled
        for req in self.requests:
            self.loop.schedule(req.arrival, self._make_arrival(req.index))
        for pool in self._pools():
            if pool.controller is not None:
                self.loop.schedule(
                    pool.controller.interval_s, self._make_tick(pool)
                )
        self.loop.run()
        return self._finalize()

    def _pools(self) -> list[_Pool]:
        pools = [self.decode_pool]
        if self.prefill_pool is not None:
            pools.append(self.prefill_pool)
        return pools

    def _finalize(self) -> LLMRunResult:
        if self.completed != self.n:
            raise RuntimeError(
                f"request conservation violated: {self.completed} of "
                f"{self.n} requests completed (scheduler lost work)"
            )
        horizon = self.loop.now
        for pool in self._pools():
            for chip in pool.chips:
                chip.power_off(horizon)
        decodes = np.array([r.decode for r in self.requests])
        stints = np.frombuffer(self.stints, dtype=np.int64).reshape(-1, 4)
        # Stable by request: each request's stints stay in the order they
        # closed, which is the order its tokens were emitted.
        owner, chip_of, join, length = stints[
            np.argsort(stints[:, 0], kind="stable")
        ].T
        emitted = np.bincount(owner, weights=length, minlength=self.n).astype(np.int64)
        short = np.flatnonzero(emitted != decodes)
        if short.size:
            i = int(short[0])
            raise RuntimeError(
                f"token conservation violated: request {i} "
                f"emitted {emitted[i]} of {decodes[i]} tokens"
            )
        first_token, finish, intervals = _stint_token_times(
            [c.times for c in self.decode_pool.chips],
            owner, chip_of, join, length, self.n,
        )
        prefill_pool = self.prefill_pool
        return LLMRunResult(
            arrivals=np.array([r.arrival for r in self.requests]),
            prompts=np.array([r.prompt for r in self.requests]),
            decodes=decodes,
            first_token=first_token,
            finish=finish,
            emitted=emitted,
            prefills=np.array([r.prefills for r in self.requests]),
            evictions_per_request=np.array(
                [r.evictions for r in self.requests]
            ),
            tpot_intervals=intervals,
            horizon=horizon,
            tokens=self.tokens,
            iterations=self.iterations,
            token_batch_sum=self.token_batch_sum,
            evictions=self.evictions,
            transfers=self.transfers,
            prefill_batches=self.prefill_batches,
            kv_peak=self.kv_peak,
            kv_capacity=self.cfg.kv_capacity,
            decode_busy_seconds=sum(
                c.busy_seconds for c in self.decode_pool.chips
            ),
            prefill_busy_seconds=(
                sum(c.busy_seconds for c in prefill_pool.chips)
                if prefill_pool else 0.0
            ),
            decode_chip_seconds=sum(
                c.powered_seconds for c in self.decode_pool.chips
            ),
            prefill_chip_seconds=(
                sum(c.powered_seconds for c in prefill_pool.chips)
                if prefill_pool else 0.0
            ),
        )

    # -- events ---------------------------------------------------------

    def _make_arrival(self, index: int):
        def arrival(now: float) -> None:
            if self.prefill_pool is not None:
                self.prefill_pool.window_arrivals += 1
                self.prefill_queue.append(index)
                self._kick_prefill(now)
            else:
                self.decode_pool.window_arrivals += 1
                self.decode_queue.append(index)
                self._kick_decode(now)

        return arrival

    def _kick_decode(self, now: float) -> None:
        for chip in self.decode_pool.chips:
            if not self.decode_queue:
                return
            if chip.idle and chip.enabled:
                self._start_iteration(chip, now)

    def _kick_prefill(self, now: float) -> None:
        for chip in self.prefill_pool.chips:
            if not self.prefill_queue:
                return
            if chip.idle and chip.enabled:
                self._start_prefill(chip, now)

    # -- decode pool ----------------------------------------------------

    def _close_stint(self, req: _LLMRequest, chip: _Chip, tokens: int) -> None:
        # Every stint holds a token: admission reserves its iteration's
        # growth, so no request is evicted in the iteration it joined.
        req.emitted += tokens
        self.stints.extend((req.index, chip.index, req.join, tokens))

    def _start_iteration(self, chip: _Chip, now: float) -> None:
        cfg = self.cfg
        run = chip.running
        k = len(chip.times)
        inline_prefill_macs = 0
        admit = chip.enabled and (cfg.scheduler == "continuous" or not run)
        while admit and self.decode_queue and len(run) < cfg.max_batch:
            req = self.requests[self.decode_queue[0]]
            need = req.prompt + req.emitted
            # Reserve one growth token per running request (including the
            # newcomer) so the admission iteration itself cannot overflow.
            if chip.kv_used + need + len(run) + 1 > cfg.kv_capacity:
                break
            self.decode_queue.popleft()
            req.join = k
            req.need = need
            req.done_at = k + req.decode - req.emitted - 1
            if req.done_at < chip.next_done:
                chip.next_done = req.done_at
            chip.kv_used += need
            run.append(req.index)
            if self.prefill_pool is None:
                # Aggregated mode (re)builds the cache on the decode chip,
                # piggybacked on this iteration's weight stream.
                req.prefills += 1
                inline_prefill_macs += self.timing.prefill_macs(need)
        evicted = False
        # Every running request caches one more token this iteration.
        chip.kv_used += len(run)
        while chip.kv_used > cfg.kv_capacity:
            victim = self.requests[run.pop()]
            chip.kv_used -= victim.need + k - victim.join + 1
            self._close_stint(victim, chip, k - victim.join)
            victim.evictions += 1
            self.evictions += 1
            evicted = True
            if self.prefill_pool is not None:
                self.prefill_queue.appendleft(victim.index)
            else:
                self.decode_queue.appendleft(victim.index)
        if evicted:
            chip.next_done = min(
                (self.requests[i].done_at for i in run), default=math.inf
            )
        if not run:
            if evicted and self.prefill_pool is None and self.decode_queue:
                # Everything was evicted; retry admission on the now-empty
                # chip (terminates: an empty chip either admits the head
                # of the queue or the queue is truly oversized).
                self._start_iteration(chip, now)
                return
            chip.idle = True
            if not chip.enabled:
                chip.power_off(now)
            if evicted and self.prefill_pool is not None:
                self._kick_prefill(now)
            return
        active = len(run)
        step = self.timing.iteration_seconds(
            active, chip.kv_used, inline_prefill_macs
        )
        chip.idle = False
        chip.busy_seconds += step
        self.decode_pool.window_busy += step
        self.iterations += 1
        self.token_batch_sum += active
        if chip.kv_used > self.kv_peak:
            self.kv_peak = chip.kv_used
        if self._observe:
            if obs.TRACER.enabled:
                obs.TRACER.sim_span(
                    "iter", now, step, cat="llm",
                    tid=chip.index, batch=active, kv=chip.kv_used,
                )
            if obs.REGISTRY.enabled:
                obs.counter("llm.iterations").inc()
                obs.gauge("llm.kv_tokens").set(chip.kv_used)
                obs.histogram("llm.kv_occupancy").observe(
                    chip.kv_used / cfg.kv_capacity
                )
                obs.histogram("llm.iteration_batch").observe(active)
        self.loop.schedule(now + step, chip.end_iteration)
        if evicted and self.prefill_pool is not None:
            self._kick_prefill(now)

    def _end_iteration(self, chip: _Chip, now: float) -> None:
        k = len(chip.times)
        chip.times.append(now)
        self.tokens += len(chip.running)
        if obs.REGISTRY.enabled:
            obs.counter("llm.tokens").inc(len(chip.running))
        if k == chip.next_done:
            self._retire(chip, k)
        self._start_iteration(chip, now)
        # An eviction or retirement may have left work for idle peers.
        if self.decode_queue:
            self._kick_decode(now)
        if self.completed == self.n:
            # The run ends at its last completion: pending control ticks
            # and spin-ups would only bill chip time nobody used.
            self.loop.stop()

    def _retire(self, chip: _Chip, k: int) -> None:
        """Retire the members that emitted their last token in iteration ``k``."""
        keep = []
        next_done = math.inf
        for index in chip.running:
            req = self.requests[index]
            if req.done_at == k:
                chip.kv_used -= req.need + k - req.join + 1
                self._close_stint(req, chip, k - req.join + 1)
                self.completed += 1
            else:
                keep.append(index)
                if req.done_at < next_done:
                    next_done = req.done_at
        chip.running = keep
        chip.next_done = next_done

    # -- prefill pool (disaggregated mode) -------------------------------

    def _start_prefill(self, chip: _Chip, now: float) -> None:
        cfg = self.cfg
        taken: list[int] = []
        needs: list[int] = []
        kv_sum = 0
        while (
            chip.enabled
            and self.prefill_queue
            and len(taken) < cfg.prefill_batch
        ):
            req = self.requests[self.prefill_queue[0]]
            need = req.prompt + req.emitted
            if taken and kv_sum + need > cfg.kv_capacity:
                break
            self.prefill_queue.popleft()
            req.prefills += 1
            taken.append(req.index)
            needs.append(need)
            kv_sum += need
        if not taken:
            chip.idle = True
            if not chip.enabled:
                chip.power_off(now)
            return
        step = self.timing.prefill_seconds(needs)
        chip.idle = False
        chip.busy_seconds += step
        self.prefill_pool.window_busy += step
        self.prefill_batches += 1
        if self._observe:
            if obs.TRACER.enabled:
                obs.TRACER.sim_span(
                    "prefill", now, step, cat="llm",
                    tid=1000 + chip.index, batch=len(taken), kv=kv_sum,
                )
            if obs.REGISTRY.enabled:
                obs.counter("llm.prefill_batches").inc()
                obs.histogram("llm.prefill_batch").observe(len(taken))
        self.loop.schedule(
            now + step,
            lambda t, c=chip, m=tuple(taken), k=tuple(needs):
                self._end_prefill(c, m, k, t),
        )

    def _end_prefill(
        self, chip: _Chip, members: tuple[int, ...],
        needs: tuple[int, ...], now: float,
    ) -> None:
        cfg = self.cfg
        for index, need in zip(members, needs):
            delay = kv_transfer_seconds(
                need, cfg.kv_bytes_per_token,
                cfg.transfer_bytes_per_s, cfg.transfer_rtt_s,
            )
            self.transfers += 1
            self.loop.schedule(
                now + delay, lambda t, i=index: self._decode_arrival(i, t)
            )
        if obs.REGISTRY.enabled:
            obs.counter("llm.transfers").inc(len(members))
        self._start_prefill(chip, now)

    def _decode_arrival(self, index: int, now: float) -> None:
        self.decode_pool.window_arrivals += 1
        self.decode_queue.append(index)
        self._kick_decode(now)

    # -- per-pool autoscaling --------------------------------------------

    def _make_tick(self, pool: _Pool):
        def tick(now: float) -> None:
            self._control_tick(pool, now)

        return tick

    def _control_tick(self, pool: _Pool, now: float) -> None:
        ctl = pool.controller
        queued = len(
            self.prefill_queue if pool.name == "prefill" else self.decode_queue
        )
        active = pool.active()
        rate = pool.window_arrivals / ctl.interval_s
        utilization = (
            min(1.0, pool.window_busy / (active * ctl.interval_s))
            if active else 1.0
        )
        pool.window_arrivals = 0
        pool.window_busy = 0.0
        desired = ctl.desired(
            now, queued=queued, arrival_rate=rate, active=active,
            spinning=pool.spinning(), utilization=utilization,
        )
        desired = max(ctl.min_chips, min(desired, len(pool.chips)))
        have = active + pool.spinning()
        if desired > have:
            for chip in pool.chips:
                if have >= desired:
                    break
                if not chip.enabled and not chip.spinning:
                    chip.spinning = True
                    self.loop.schedule(
                        now + ctl.spinup_s,
                        lambda t, c=chip, p=pool: self._activate(p, c, t),
                    )
                    have += 1
        elif desired < have:
            # Deterministic scale-down: highest-index enabled chips first;
            # busy chips drain (no new admissions) and power off when empty.
            for chip in reversed(pool.chips):
                if have <= desired:
                    break
                if chip.enabled:
                    chip.enabled = False
                    if chip.idle:
                        chip.power_off(now)
                    have -= 1
        if obs.REGISTRY.enabled:
            obs.gauge(f"llm.{pool.name}_chips").set(active)
        if self.completed < self.n:
            self.loop.schedule(now + ctl.interval_s, self._make_tick(pool))

    def _activate(self, pool: _Pool, chip: _Chip, now: float) -> None:
        chip.spinning = False
        chip.enabled = True
        chip.power_on(now)
        if pool.name == "prefill":
            self._kick_prefill(now)
        else:
            self._kick_decode(now)


def run_llm_point(
    cfg: ContinuousConfig,
    *,
    rate_rps: float,
    requests: int,
    prompt_mean: int,
    decode_mean: int,
    seed: int,
) -> LLMRunResult:
    """Sample a seeded trace and run it through the iteration engine."""
    arrivals, prompts, decodes = sample_llm_requests(
        requests, rate_rps, prompt_mean, decode_mean, seed
    )
    return ContinuousBatchingSim(cfg).run(arrivals, prompts, decodes)


def llm_row(
    result: LLMRunResult,
    *,
    load: float,
    rate_rps: float,
    slo_tpot_s: float,
    slo_ttft_s: float,
) -> dict:
    """One operating-curve row: throughput, latency tails, SLO goodput.

    Goodput follows the LLM-serving literature: a request counts only if
    its first token met the TTFT SLO *and* its per-token pace met the
    TPOT SLO; goodput is those requests' tokens per powered chip-second.
    """
    ttft = result.first_token - result.arrivals
    span = result.finish - result.first_token
    steps = np.maximum(result.decodes - 1, 1)
    per_request_tpot = np.where(result.decodes > 1, span / steps, 0.0)
    met = (ttft <= slo_ttft_s) & (per_request_tpot <= slo_tpot_s)
    chip_seconds = result.decode_chip_seconds + result.prefill_chip_seconds
    intervals = result.tpot_intervals
    p50_tpot = float(np.quantile(intervals, 0.50)) if intervals.size else 0.0
    p99_tpot = float(np.quantile(intervals, 0.99)) if intervals.size else 0.0
    return {
        "load": load,
        "offered_rps": rate_rps,
        "tokens_per_second": result.tokens / result.horizon,
        "tokens_per_second_per_chip": (
            result.tokens / chip_seconds if chip_seconds else 0.0
        ),
        "goodput_tokens_per_second_per_chip": (
            float(result.decodes[met].sum()) / chip_seconds
            if chip_seconds else 0.0
        ),
        "slo_attainment": float(met.mean()) if met.size else 0.0,
        "p50_tpot_ms": p50_tpot * 1e3,
        "p99_tpot_ms": p99_tpot * 1e3,
        "p50_ttft_ms": float(np.quantile(ttft, 0.50)) * 1e3,
        "p99_ttft_ms": float(np.quantile(ttft, 0.99)) * 1e3,
        "mean_batch": (
            result.token_batch_sum / result.iterations
            if result.iterations else 0.0
        ),
        "kv_peak_fraction": result.kv_peak / result.kv_capacity,
        "evictions": result.evictions,
        "transfers": result.transfers,
        "mean_decode_chips": (
            result.decode_chip_seconds / result.horizon
            if result.horizon else 0.0
        ),
        "mean_prefill_chips": (
            result.prefill_chip_seconds / result.horizon
            if result.horizon else 0.0
        ),
        "utilization": (
            result.decode_busy_seconds / result.decode_chip_seconds
            if result.decode_chip_seconds else 0.0
        ),
    }
