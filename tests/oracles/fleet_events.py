"""The per-arrival serving paths, frozen as oracles for
:class:`repro.serving.fleet.FleetSim` and
:func:`repro.serving.engine.run_closed_loop`.

:class:`EventFleetSim` is the fleet as it was before the library grew
its shortcuts: every arrival is its own event (no bulk admission of a
queued-behind-busy window), round-robin fleets go through the shared
event loop instead of the replica-by-replica replay, and completion
times are written one request at a time.  :func:`run_closed_loop` is
the closed-loop generator with its scalar per-slot loop.  They are slow
and obviously right, which is what an oracle is for; the parity
properties in ``tests/test_serving.py``, ``tests/test_datacenter.py``
and ``tests/test_obs.py`` demand identical responses, accounting, busy
timelines and telemetry.

Do not optimise this file; change it only when the serving engine's
observable behaviour is meant to change.
"""

from __future__ import annotations

import numpy as np

from repro.serving.engine import BatchServer, LatencyCurve
from repro.serving.fleet import FleetSim, Replica


class EventFleetSim(FleetSim):
    """:class:`FleetSim` that always takes the per-arrival event path."""

    def _replays_round_robin(self) -> bool:
        return False

    def _bulk_admit(self, i: int, top_when: float) -> int:
        return i

    def _launch(self, replica: Replica, n: int, now: float) -> None:
        if self._observe:
            self._pre_launch(replica, n)
        popleft = replica.queue.popleft
        batch = [popleft() for _ in range(n)]
        done = replica.server.start_batch(now, n)
        responses = self.responses
        times = self._times
        for index in batch:
            responses[index] = done - times[index]
        if self._observe:
            self._post_launch(replica, batch, now, done)


def run_closed_loop(
    concurrency: int,
    batch_size: int,
    curve: LatencyCurve,
    n_batches: int = 2000,
) -> tuple[np.ndarray, BatchServer]:
    """Closed-loop load generation, one request slot at a time."""
    if concurrency < batch_size:
        raise ValueError(
            f"concurrency {concurrency} cannot fill batches of {batch_size}"
        )
    server = BatchServer(curve)
    head = 0
    responses = np.empty(n_batches * batch_size)
    out = 0
    enqueue_list = [0.0] * concurrency
    for _ in range(n_batches):
        start = server.free_at
        done = server.start_batch(start, batch_size)
        for _slot in range(batch_size):
            responses[out] = done - enqueue_list[head]
            out += 1
            enqueue_list[head] = done  # the request re-enters the pool
            head = (head + 1) % concurrency
    return responses, server
