"""The per-token iteration engine, frozen as the oracle for
:class:`repro.serving.continuous.ContinuousBatchingSim`.

This is the engine as it was before the library switched to per-chip
token timelines: every iteration walks every running request twice --
``kv += 1`` when the iteration starts, ``emitted += 1`` and a
``token_times.append`` when it ends.  It is slow and obviously right,
which is what an oracle is for.  It shares the library's span names,
metrics and end-of-run rule (the run ends at the last completion), so
the parity property in ``tests/test_llm.py`` can demand every
``LLMRunResult`` field, every span and every metric be identical.

Do not optimise this file; change it only when the engine's observable
behaviour is meant to change.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro import obs
from repro.platforms.kv import kv_transfer_seconds
from repro.serving.continuous import ContinuousConfig, LLMRunResult
from repro.serving.engine import EventLoop


class _Request:
    __slots__ = (
        "index", "arrival", "prompt", "decode",
        "emitted", "kv", "prefills", "evictions",
        "first_token", "finish", "token_times",
    )

    def __init__(self, index: int, arrival: float, prompt: int, decode: int):
        self.index = index
        self.arrival = arrival
        self.prompt = prompt
        self.decode = decode
        self.emitted = 0
        self.kv = 0
        self.prefills = 0
        self.evictions = 0
        self.first_token = math.nan
        self.finish = math.nan
        self.token_times: list[float] = []


class _Chip:
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

    def power_off(self, now: float) -> None:
        if self.powered_since is not None:
            self.powered_seconds += now - self.powered_since
            self.powered_since = None

    def power_on(self, now: float) -> None:
        if self.powered_since is None:
            self.powered_since = now


class _Pool:
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


class PerTokenBatchingSim:
    """Same constructor and ``run`` signature as ``ContinuousBatchingSim``."""

    def __init__(self, cfg: ContinuousConfig) -> None:
        self.cfg = cfg
        self.timing = cfg.timing

    def run(self, arrivals, prompts, decodes) -> LLMRunResult:
        cfg = self.cfg
        self.requests = [
            _Request(i, float(arrivals[i]), int(prompts[i]), int(decodes[i]))
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
        disagg = cfg.mode == "disaggregated"
        self.decode_pool = _Pool("decode", cfg.chips, cfg.decode_controller)
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
        intervals: list[np.ndarray] = []
        for req in self.requests:
            if req.emitted != req.decode:
                raise RuntimeError(
                    f"token conservation violated: request {req.index} "
                    f"emitted {req.emitted} of {req.decode} tokens"
                )
            times = np.asarray(req.token_times)
            if times.size > 1:
                intervals.append(np.diff(times))
        prefill_pool = self.prefill_pool
        return LLMRunResult(
            arrivals=np.array([r.arrival for r in self.requests]),
            prompts=np.array([r.prompt for r in self.requests]),
            decodes=np.array([r.decode for r in self.requests]),
            first_token=np.array([r.first_token for r in self.requests]),
            finish=np.array([r.finish for r in self.requests]),
            emitted=np.array([r.emitted for r in self.requests]),
            prefills=np.array([r.prefills for r in self.requests]),
            evictions_per_request=np.array(
                [r.evictions for r in self.requests]
            ),
            tpot_intervals=(
                np.concatenate(intervals) if intervals else np.empty(0)
            ),
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

    def _start_iteration(self, chip: _Chip, now: float) -> None:
        cfg = self.cfg
        run = chip.running
        inline_prefill_macs = 0
        admit = chip.enabled and (cfg.scheduler == "continuous" or not run)
        while admit and self.decode_queue and len(run) < cfg.max_batch:
            req = self.requests[self.decode_queue[0]]
            need = req.prompt + req.emitted
            if chip.kv_used + need + len(run) + 1 > cfg.kv_capacity:
                break
            self.decode_queue.popleft()
            req.kv = need
            chip.kv_used += need
            run.append(req.index)
            if self.prefill_pool is None:
                req.prefills += 1
                inline_prefill_macs += self.timing.prefill_macs(need)
        evicted = False
        for index in run:
            self.requests[index].kv += 1
        chip.kv_used += len(run)
        while chip.kv_used > cfg.kv_capacity:
            victim = self.requests[run.pop()]
            chip.kv_used -= victim.kv
            victim.kv = 0
            victim.evictions += 1
            self.evictions += 1
            evicted = True
            if self.prefill_pool is not None:
                self.prefill_queue.appendleft(victim.index)
            else:
                self.decode_queue.appendleft(victim.index)
        if not run:
            if evicted and self.prefill_pool is None and self.decode_queue:
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
        self.loop.schedule(
            now + step, lambda t, c=chip: self._end_iteration(c, t)
        )
        if evicted and self.prefill_pool is not None:
            self._kick_prefill(now)

    def _end_iteration(self, chip: _Chip, now: float) -> None:
        finished = []
        for index in chip.running:
            req = self.requests[index]
            req.emitted += 1
            self.tokens += 1
            if math.isnan(req.first_token):
                req.first_token = now
            req.token_times.append(now)
            if req.emitted == req.decode:
                finished.append(index)
        if obs.REGISTRY.enabled:
            obs.counter("llm.tokens").inc(len(chip.running))
        for index in finished:
            req = self.requests[index]
            req.finish = now
            chip.kv_used -= req.kv
            req.kv = 0
            chip.running.remove(index)
            self.completed += 1
        self._start_iteration(chip, now)
        if self.decode_queue:
            self._kick_decode(now)
        if self.completed == self.n:
            self.loop.stop()

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

    def _end_prefill(self, chip, members, needs, now: float) -> None:
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
