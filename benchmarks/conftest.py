"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures (plus a
few microbenchmarks of the simulator's hot kernels).  No pytest config
collects ``bench_*.py``, so name the pattern when running them::

    PYTHONPATH=src:. pytest benchmarks/ -o python_files='bench_*.py' --benchmark-only

They are not the gated benchmark; that is ``perfbench/run.py``.

Experiment regenerators are deterministic, so they run one round via
``benchmark.pedantic``; the reported time is the cost of regenerating
that artifact from scratch-warm caches.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def _warm_caches():
    """Compile the six workloads once so benches measure steady state."""
    from repro.analysis.common import profiled, workloads

    for name in workloads():
        profiled(name)
    yield


def run_experiment(benchmark, exp_id: str):
    """Benchmark one registered experiment and return its result."""
    from repro.analysis import EXPERIMENTS

    result = benchmark.pedantic(EXPERIMENTS[exp_id], rounds=1, iterations=1)
    print(result)
    return result
