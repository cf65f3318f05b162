"""The hybrid backend: price a planet without event-simulating it.

Every (cluster, time-bin) cell of the routed demand profile is evaluated
by one of three regimes, picked by its utilization ``rho = rate /
capacity``:

* ``analytic`` (``rho < knee_lo``) -- closed form.  Far below the knee a
  request's response is batching delay plus batch latency: the window
  model enumerates the batch-size distribution (Poisson arrivals into a
  collection window) and the in-window wait (first request waits the
  full window; later requests' offsets are marginally uniform), then
  shifts everything by the M/D/c mean queueing delay from
  :mod:`repro.latency.queueing`.
* ``event`` (``knee_lo <= rho < knee_hi``) -- the exact
  :class:`~repro.serving.fleet.FleetSim` engine, run once per (cluster,
  quantized rho) at a bounded trace length and memoized: near the knee
  no closed form is trustworthy, so the hybrid pays real event-loop time
  there -- but only there, and only once per distinct operating point.
* ``fluid`` (``rho >= knee_hi``, or a backlog carried in) -- flow
  conservation.  Overloaded cells grow a deficit ``(rate - capacity) *
  dt`` that drains at capacity; the wait is backlog over capacity, and
  the backlog carries across bins.

Per-cell response distributions are held as quantile-grid samples and
mixed into global percentiles weighted by expected request counts, with
each (region, cluster) flow shifted by its inter-region RTT.

``evaluate_exact`` is the validation backend: it materializes every
arrival, splits each bin's arrivals across clusters by stride-scheduling
the *same* routing fractions, and runs every cluster through the pure
event engine -- small traces only, but ground truth.  The two backends
share topology and routing by construction, so their gap measures
exactly the hybrid's approximation error (pinned to 5% in
``tests/test_globe.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.globe.routing import RoutingPlan
from repro.globe.topology import Cluster, Topology, region_arrivals
from repro.latency.queueing import mmc_mean_wait
from repro.serving.batcher import (
    Batcher,
    FixedBatcher,
    SLOAdaptiveBatcher,
    TimeoutBatcher,
    make_batcher,
)
from repro.serving.traffic import poisson_arrivals

#: Chrome-trace track base for per-cluster globe spans (clear of replica
#: tracks and the autoscaler's reserved track).
GLOBE_TID_BASE = 2000

#: Event samples are memoized per (cluster, rho quantized to this step).
RHO_STEP = 0.025

#: Steady-state sampling is meaningless at/above capacity; event-regime
#: rho is clamped here and the fluid backlog term carries the deficit.
_RHO_SAMPLE_MAX = 0.975

#: Quantile grid for per-cell response distributions: coarse through the
#: body, fine through the top 2.5% so the p99 mixture stays resolved.
_Q_GRID = np.concatenate([
    np.linspace(0.004, 0.972, 55),
    np.linspace(0.976, 0.9996, 45),
])

#: Stratified standard-normal quantiles (9 equal-mass bins' midpoints).
_Z9 = (-1.5932, -0.9674, -0.5895, -0.2822, 0.0, 0.2822, 0.5895, 0.9674, 1.5932)
#: Same, 5 bins -- for the per-rank Erlang spread of the fixed policy.
_Z5 = (-1.2816, -0.5244, 0.0, 0.5244, 1.2816)

#: In-window offset strata for non-first requests (uniform marginal).
_OFFSETS = (np.arange(16) + 0.5) / 16.0


def _grid_weights(grid: np.ndarray) -> np.ndarray:
    """Probability mass each quantile-grid point represents (midpoint rule)."""
    edges = np.concatenate([[0.0], (grid[1:] + grid[:-1]) / 2.0, [1.0]])
    return np.diff(edges)


_Q_WEIGHTS = _grid_weights(_Q_GRID)


def weighted_percentile(values: np.ndarray, weights: np.ndarray, fraction: float) -> float:
    """The ``fraction`` quantile of a weighted sample mixture."""
    if values.size == 0:
        return 0.0
    order = np.argsort(values, kind="stable")
    v = values[order]
    cw = np.cumsum(weights[order])
    idx = int(np.searchsorted(cw, fraction * cw[-1], side="left"))
    return float(v[min(idx, v.size - 1)])


@dataclass(frozen=True)
class GlobalResult:
    """One completed world simulation, hybrid or exact."""

    backend: str  # "hybrid" | "exact"
    routing: str
    duration_s: float
    total_requests: float  # expected (hybrid) or realized (exact)
    throughput_rps: float
    p50_seconds: float
    p99_seconds: float
    mean_seconds: float
    spill_fraction: float
    #: Demand-weighted mean cluster cost per request (relative units).
    cost_per_request: float
    #: Regime -> number of (cluster, bin) cells it evaluated.
    backend_cells: dict[str, int]
    cluster_rows: tuple[dict, ...]


# ----------------------------------------------------------------------
# closed-form (analytic) cells
# ----------------------------------------------------------------------
def _poisson_pmf(mu: float, mmax: int) -> np.ndarray:
    """Poisson pmf over 0..mmax with the tail mass lumped into mmax."""
    pmf = np.zeros(mmax + 1)
    p = math.exp(-mu)
    pmf[0] = p
    for m in range(1, mmax + 1):
        p *= mu / m
        pmf[m] = p
    pmf[mmax] += max(0.0, 1.0 - pmf.sum())
    return pmf


def _adaptive_window(batcher: SLOAdaptiveBatcher, lam: float) -> float:
    """Effective collection window of the SLO-adaptive policy at rate lam.

    The dispatch condition is ``age >= budget(q)`` with ``budget(q) =
    margin * slo - latency(q)`` shrinking as the queue grows, so the
    window length is the fixed point ``tau = budget(lam * tau)`` --
    solved by damped iteration against the real latency curve.
    """
    cap = batcher.slo_seconds * batcher.slo_margin
    tau = max(cap - batcher.curve.latency(1), 0.0)
    for _ in range(40):
        q = max(1, min(int(lam * tau) + 1, batcher.max_batch))
        nxt = max(cap - batcher.curve.latency(q), 0.0)
        if abs(nxt - tau) < 1e-12:
            break
        tau = 0.5 * (tau + nxt)
    return tau


def _batch_size_atoms(lam: float, tau: float, max_batch: int) -> list[tuple[int, float]]:
    """Size-biased batch-size distribution: (n, per-request weight) pairs.

    A request's batch has ``n = 1 + Poisson(lam * tau)`` members
    (size-biased: a random request lands in a batch of size n with
    probability proportional to ``n * pmf``).  Large means use a
    stratified normal approximation; sizes clamp at the policy's
    ``max_batch`` (early-dispatch batches are folded into the largest
    atom -- a light-load model, which is the only place it is used).
    """
    mu = lam * tau
    if mu <= 30.0:
        mmax = min(max_batch - 1, max(int(mu + 10.0 * math.sqrt(mu + 1.0)) + 5, 4))
        pmf = _poisson_pmf(mu, mmax)
        sizes = np.arange(1, mmax + 2, dtype=float)
        biased = sizes * pmf
        biased /= biased.sum()
        return [(int(n), float(w)) for n, w in zip(sizes, biased) if w > 1e-9]
    sd = math.sqrt(mu)
    atoms: dict[int, float] = {}
    for z in _Z9:
        n = int(round(1.0 + mu + z * sd))
        n = max(1, min(n, max_batch))
        atoms[n] = atoms.get(n, 0.0) + 1.0 / len(_Z9)
    return sorted(atoms.items())


def _window_model_atoms(
    cluster: Cluster, batcher: Batcher, lam: float, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Response atoms for a collect-then-dispatch window of length tau."""
    curve = cluster.spec.curve
    if tau <= 1e-12:
        return np.array([curve.latency(1)]), np.array([1.0])
    values: list[float] = []
    weights: list[float] = []
    for n, w_n in _batch_size_atoms(lam, tau, batcher.max_batch):
        latency = curve.latency(n)
        # The window's first request waits the full tau...
        values.append(tau + latency)
        weights.append(w_n / n)
        if n > 1:
            # ...and each later request's offset is marginally uniform.
            share = w_n * (n - 1) / n / len(_OFFSETS)
            for u in _OFFSETS:
                values.append(tau * (1.0 - u) + latency)
                weights.append(share)
    return np.asarray(values), np.asarray(weights)


def _fixed_policy_atoms(
    cluster: Cluster, batcher: FixedBatcher, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-batch light-load model: rank k waits Erlang(B-1-k) arrivals.

    The Erlang spread is approximated by a stratified normal (exact mean
    and variance), which is tight for the deep ranks that dominate p99.
    """
    B = batcher.max_batch
    latency = cluster.spec.curve.latency(B)
    values: list[float] = []
    weights: list[float] = []
    w = 1.0 / (B * len(_Z5))
    for rank in range(B):
        k = B - 1 - rank  # arrivals still needed after this one
        mean = k / lam
        sd = math.sqrt(k) / lam
        for z in _Z5:
            values.append(max(mean + z * sd, 0.0) + latency)
            weights.append(w)
    return np.asarray(values), np.asarray(weights)


def _analytic_cell(
    cluster: Cluster, batcher: Batcher, rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form response distribution for one sub-knee (cluster, bin)."""
    replicas = cluster.spec.replicas
    lam = rate / replicas  # per-replica arrival rate
    if isinstance(batcher, FixedBatcher):
        values, weights = _fixed_policy_atoms(cluster, batcher, lam)
        mean_batch = float(batcher.max_batch)
        # Batch dispatches renew every B arrivals: Erlang(B) gaps,
        # squared coefficient of variation 1/B.
        ca2 = 1.0 / batcher.max_batch
    else:
        if isinstance(batcher, TimeoutBatcher):
            tau = batcher.timeout_seconds
        else:  # SLOAdaptiveBatcher
            tau = _adaptive_window(batcher, lam)
        values, weights = _window_model_atoms(cluster, batcher, lam, tau)
        mean_batch = min(1.0 + lam * tau, float(batcher.max_batch))
        # Windows dispatch one per tau once arrivals keep them open --
        # near-deterministic gaps; only the arrival-triggered opening
        # keeps a Poisson remnant at very light load.
        ca2 = 1.0 / mean_batch
    # Queueing on top of collection: batches contend for the replicas.
    # Allen-Cunneen with deterministic service (Cs^2 = 0): the regular
    # dispatch clock suppresses almost all of the M/M/c wait -- pricing
    # with raw M/D/c here would invent delay the engine never sees.
    n = max(1, int(round(mean_batch)))
    occupancy = cluster.spec.curve.occupancy(n)
    wq = mmc_mean_wait(rate / mean_batch, replicas, occupancy) * 0.5 * ca2
    if math.isfinite(wq) and wq > 0:
        values = values + wq
    return values, weights


# ----------------------------------------------------------------------
# event-engine cells
# ----------------------------------------------------------------------
def _event_samples(
    cluster: Cluster, rho_q: float, event_requests: int, seed: int
) -> np.ndarray:
    """Steady-state response quantiles from one bounded FleetSim run."""
    rate = rho_q * cluster.capacity_rps
    arrivals = poisson_arrivals(rate, event_requests, seed=seed)
    result = cluster.spec.build().run(arrivals)
    responses = result.responses[int(0.1 * result.responses.size):]  # warmup
    if obs.REGISTRY.enabled:
        obs.counter("globe.event_sim_requests").inc(int(arrivals.size))
    return np.quantile(responses, _Q_GRID)


# ----------------------------------------------------------------------
# fluid cells
# ----------------------------------------------------------------------
def _fluid_cell(
    cluster: Cluster,
    max_batch: int,
    rate: float,
    carry_in: float,
    bin_seconds: float,
    samples: int = 64,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Flow-conservation response atoms plus the backlog carried out."""
    cap = cluster.capacity_rps
    base = cluster.spec.curve.latency(max_batch)
    carry_out = max(0.0, carry_in + (rate - cap) * bin_seconds)
    if rate <= 0:
        return np.empty(0), np.empty(0), carry_out
    t = (np.arange(samples) + 0.5) / samples * bin_seconds
    backlog = np.maximum(carry_in + (rate - cap) * t, 0.0)
    values = backlog / cap + base
    weights = np.full(samples, 1.0 / samples)
    return values, weights, carry_out


# ----------------------------------------------------------------------
# the hybrid evaluator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Cell:
    bin: int
    cluster: int
    kind: str
    values: np.ndarray  # response samples, service-side (no RTT)
    weights: np.ndarray  # per-request probability mass, sums to 1


def evaluate_hybrid(
    topology: Topology,
    plan: RoutingPlan,
    knee_lo: float,
    knee_hi: float,
    event_requests: int,
    seed: int,
) -> GlobalResult:
    """Price the routed world bin by bin through the three regimes."""
    rates = plan.cluster_rates()  # [bins, clusters]
    bin_dur = topology.bin_seconds
    tracing = obs.TRACER.enabled
    metering = obs.REGISTRY.enabled

    batchers = {
        c.index: make_batcher(
            c.spec.policy,
            c.spec.curve,
            slo_seconds=c.spec.slo_seconds,
            batch_size=c.spec.batch_size,
            timeout_seconds=c.spec.timeout_seconds,
        )
        for c in topology.clusters
    }
    event_cache: dict[tuple[int, int], np.ndarray] = {}
    carry = {c.index: 0.0 for c in topology.clusters}
    cells: list[_Cell] = []
    counts = {"analytic": 0, "event": 0, "fluid": 0}

    for b in range(topology.bins):
        for cluster in topology.clusters:
            ci = cluster.index
            rate = float(rates[b, ci])
            rho = rate / cluster.capacity_rps
            if carry[ci] > 1e-9 or rho >= knee_hi:
                kind = "fluid"
                values, weights, carry[ci] = _fluid_cell(
                    cluster, batchers[ci].max_batch, rate, carry[ci], bin_dur
                )
            elif rate <= 0:
                continue
            elif rho < knee_lo:
                kind = "analytic"
                values, weights = _analytic_cell(cluster, batchers[ci], rate)
            else:
                kind = "event"
                # Interpolate quantile-wise between the two bracketing
                # rho samples -- snapping to one grid point would bias
                # the peak bins by up to half a step.
                pos = min(rho, _RHO_SAMPLE_MAX) / RHO_STEP
                step_max = int(_RHO_SAMPLE_MAX / RHO_STEP)
                lo = min(max(int(pos), 1), step_max)
                hi = min(lo + 1, step_max)
                frac = min(max(pos - lo, 0.0), 1.0)

                def sample(step: int) -> np.ndarray:
                    key = (ci, step)
                    cached = event_cache.get(key)
                    if cached is None:
                        cached = event_cache[key] = _event_samples(
                            cluster,
                            step * RHO_STEP,
                            event_requests,
                            seed=seed * 1000003 + ci * 101 + step,
                        )
                    return cached

                if frac <= 0.0 or hi == lo:
                    values = sample(lo)
                else:
                    values = (1.0 - frac) * sample(lo) + frac * sample(hi)
                weights = _Q_WEIGHTS
            counts[kind] += 1
            if values.size:
                cells.append(_Cell(b, ci, kind, values, weights))
            if tracing:
                obs.TRACER.sim_span(
                    f"globe:{cluster.name}",
                    b * bin_dur,
                    bin_dur,
                    cat="globe",
                    tid=GLOBE_TID_BASE + ci,
                    rate_rps=rate,
                    rho=rho,
                    backend=kind,
                )
            if metering:
                obs.counter(f"globe.cells_{kind}").inc()

    # Flow conservation: everything offered completes except the backlog
    # still queued when the horizon ends.
    served_total = float(rates.sum()) * bin_dur - sum(carry.values())

    # Mix every cell into global percentiles: weight = expected request
    # count of each (region -> cluster) flow, value shift = its RTT.
    shifted_values: list[np.ndarray] = []
    shifted_weights: list[np.ndarray] = []
    per_cluster: dict[int, list[_Cell]] = {}
    for cell in cells:
        per_cluster.setdefault(cell.cluster, []).append(cell)
        cluster = topology.clusters[cell.cluster]
        for r in range(len(topology.regions)):
            share = float(plan.shares[cell.bin, r, cell.cluster])
            if share <= 0:
                continue
            rtt = topology.rtt_s[r, cluster.region_index]
            shifted_values.append(cell.values + rtt)
            shifted_weights.append(cell.weights * (share * bin_dur))
    if shifted_values:
        all_values = np.concatenate(shifted_values)
        all_weights = np.concatenate(shifted_weights)
        p50 = weighted_percentile(all_values, all_weights, 0.50)
        p99 = weighted_percentile(all_values, all_weights, 0.99)
        mean = float(np.average(all_values, weights=all_weights))
    else:
        p50 = p99 = mean = 0.0

    cluster_rows = []
    for cluster in topology.clusters:
        own = per_cluster.get(cluster.index, [])
        crates = rates[:, cluster.index]
        if own:
            v = np.concatenate([c.values for c in own])
            w = np.concatenate([
                c.weights * float(crates[c.bin]) * bin_dur for c in own
            ])
            c_p99 = weighted_percentile(v, w, 0.99)
            c_p50 = weighted_percentile(v, w, 0.50)
        else:
            c_p99 = c_p50 = 0.0
        kinds = {k: sum(1 for c in own if c.kind == k) for k in counts}
        cluster_rows.append({
            "cluster": cluster.name,
            "region": topology.regions[cluster.region_index].name,
            "mean_rps": float(crates.mean()),
            "peak_rho": float(crates.max() / cluster.capacity_rps),
            "p50_seconds": c_p50,
            "p99_seconds": c_p99,
            "backends": ",".join(f"{k}:{n}" for k, n in kinds.items() if n),
        })

    total = topology.total_expected_requests()
    spill = plan.spilled_fraction(topology)
    if metering:
        obs.counter("globe.routed_requests").inc(total)
        obs.counter("globe.spilled_requests").inc(total * spill)
    return GlobalResult(
        backend="hybrid",
        routing=plan.policy,
        duration_s=topology.duration_s,
        total_requests=total,
        throughput_rps=served_total / topology.duration_s,
        p50_seconds=p50,
        p99_seconds=p99,
        mean_seconds=mean,
        spill_fraction=spill,
        cost_per_request=plan.mean_cost(topology),
        backend_cells={k: n for k, n in counts.items() if n},
        cluster_rows=tuple(cluster_rows),
    )


# ----------------------------------------------------------------------
# the exact (validation) evaluator
# ----------------------------------------------------------------------
def _stride_assign(n: int, fractions: np.ndarray) -> np.ndarray:
    """Deterministic proportional interleave: arrival k -> a cluster id.

    Stride scheduling: every arrival credits each cluster its fraction
    and the fullest credit wins, so realized counts track the routing
    fractions within one request at every prefix -- the per-request
    analogue of the hybrid's rate split.
    """
    active = np.nonzero(fractions > 0)[0]
    if active.size == 1:
        return np.full(n, active[0], dtype=np.intp)
    # Plain floats, not numpy scalars: ``+=``, the first-maximum scan
    # and ``-= 1.0`` are the same IEEE float64 operations as the vector
    # form, at a fraction of its per-request cost.
    shares = np.asarray(fractions, dtype=np.float64).tolist()
    credits = [0.0] * len(shares)
    clusters = range(len(shares))
    out = [0] * n
    for k in range(n):
        pick = 0
        best = -math.inf
        for c in clusters:
            credit = credits[c] + shares[c]
            credits[c] = credit
            if credit > best:
                pick, best = c, credit
        credits[pick] = best - 1.0
        out[k] = pick
    return np.array(out, dtype=np.intp)


def evaluate_exact(
    topology: Topology, plan: RoutingPlan, seed: int
) -> GlobalResult:
    """Ground truth: materialize, route, and event-simulate every request."""
    bins = topology.bins
    bin_dur = topology.bin_seconds
    edges = np.arange(bins + 1) * bin_dur
    n_clusters = len(topology.clusters)
    cluster_times: list[list[np.ndarray]] = [[] for _ in range(n_clusters)]
    cluster_origins: list[list[np.ndarray]] = [[] for _ in range(n_clusters)]
    caps = np.array([c.capacity_rps for c in topology.clusters])

    realized = 0
    spilled = 0
    for region in topology.regions:
        arr = region_arrivals(region, topology, seed=seed + 7919 * region.index)
        realized += arr.size
        if arr.size == 0:
            continue
        cuts = np.searchsorted(arr, edges)
        for b in range(bins):
            seg = arr[cuts[b]:cuts[b + 1]]
            if seg.size == 0:
                continue
            fractions = plan.region_fractions(b, region.index)
            if fractions.sum() <= 0:  # no planned share: fall back to capacity
                fractions = caps / caps.sum()
            assign = _stride_assign(seg.size, fractions)
            for ci in np.unique(assign):
                mask = assign == ci
                cluster_times[ci].append(seg[mask])
                cluster_origins[ci].append(
                    np.full(int(mask.sum()), region.index, dtype=np.intp)
                )
                if topology.clusters[ci].region_index != region.index:
                    spilled += int(mask.sum())

    tracing = obs.TRACER.enabled
    all_adjusted: list[np.ndarray] = []
    cluster_rows = []
    active_clusters = 0
    for cluster in topology.clusters:
        ci = cluster.index
        if not cluster_times[ci]:
            cluster_rows.append({
                "cluster": cluster.name,
                "region": topology.regions[cluster.region_index].name,
                "mean_rps": 0.0, "peak_rho": 0.0,
                "p50_seconds": 0.0, "p99_seconds": 0.0,
                "backends": "exact:0",
            })
            continue
        times = np.concatenate(cluster_times[ci])
        origins = np.concatenate(cluster_origins[ci])
        order = np.argsort(times, kind="stable")
        times, origins = times[order], origins[order]
        result = cluster.spec.build().run(times)
        adjusted = result.responses + topology.rtt_s[origins, cluster.region_index]
        all_adjusted.append(adjusted)
        active_clusters += 1
        per_bin = np.diff(np.searchsorted(times, edges)) / bin_dur
        cluster_rows.append({
            "cluster": cluster.name,
            "region": topology.regions[cluster.region_index].name,
            "mean_rps": times.size / topology.duration_s,
            "peak_rho": float(per_bin.max() / cluster.capacity_rps),
            "p50_seconds": float(np.percentile(result.responses, 50)),
            "p99_seconds": float(np.percentile(result.responses, 99)),
            "backends": f"exact:{bins}",
        })
        if tracing:
            obs.TRACER.sim_span(
                f"globe:{cluster.name}", 0.0, topology.duration_s,
                cat="globe", tid=GLOBE_TID_BASE + ci,
                requests=int(times.size), backend="exact",
            )

    if all_adjusted:
        responses = np.concatenate(all_adjusted)
        p50 = float(np.percentile(responses, 50))
        p99 = float(np.percentile(responses, 99))
        mean = float(responses.mean())
    else:
        p50 = p99 = mean = 0.0
    spill = spilled / realized if realized else 0.0
    if obs.REGISTRY.enabled:
        obs.counter("globe.routed_requests").inc(realized)
        obs.counter("globe.spilled_requests").inc(spilled)
    return GlobalResult(
        backend="exact",
        routing=plan.policy,
        duration_s=topology.duration_s,
        total_requests=float(realized),
        throughput_rps=realized / topology.duration_s,
        p50_seconds=p50,
        p99_seconds=p99,
        mean_seconds=mean,
        spill_fraction=spill,
        cost_per_request=plan.mean_cost(topology),
        backend_cells={"exact": active_clusters},
        cluster_rows=tuple(cluster_rows),
    )
