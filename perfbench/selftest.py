"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench/selftest.py``.

Each end-to-end test runs the one command in a subprocess at
``--size tiny`` and parses the last line of its output.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    out = subprocess.run(
        [sys.executable, str(script), "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


def copy_benchmark(root: Path) -> Path:
    """``BENCHMARK.json`` and ``perfbench/`` (without run output) under ``root``."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    return root / "perfbench"


def result_of(out) -> dict:
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed,trace", [(0, 0), (3, 0), (0, 1)])
def test_tiny_run_passes_its_checks(workload, seed, trace):
    result = result_of(bench("--workload", workload, "--seed", str(seed), "--trace", str(trace)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload,seed,path", [
    # a seeded digest, compared on the recorded seed
    ("llm_decode", 0, ("llm/continuous_chat", "tokens", 0)),
    # a seed-independent digest, compared on every seed
    ("tpu_compile_replay", 5, ("variant/mlp1/8", "cycles")),
])
def test_perturbed_expected_value_is_a_failure(tmp_path, workload, seed, path):
    copy = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    recorded = json.loads((copy / "expected.json").read_text())
    *parents, leaf = (workload, "tiny", *path)
    node = recorded
    for key in parents:
        node = node[key]
    node[leaf] = node[leaf] * 1.01 + 1
    (copy / "expected.json").write_text(json.dumps(recorded))
    out = bench("--workload", workload, "--seed", str(seed), cwd=tmp_path, script=copy / "run.py")
    result = result_of(out)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED" in out.stdout and path[0] in out.stdout


def test_compare_reports_every_difference():
    from workloads import compare

    recorded = {"a": [1, 2.0], "b": {"c": "x"}}
    assert compare(recorded, {"a": [1, 2.0 * (1 + 1e-12)], "b": {"c": "x"}}) == []
    assert len(compare(recorded, {"a": [1, 2.1], "b": {"c": "y"}})) == 2
    assert compare(recorded, {"a": [1], "b": {"c": "x"}}) == [".a: 1 items != recorded 2"]


def test_metric_names_are_well_formed():
    from probes import LAYER_METRICS

    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(set(names)) == len(names)
    assert [m["name"] for m in SPEC["per_layer"]] == list(LAYER_METRICS)
    assert {m["name"] for m in SPEC["end_to_end"]} >= {"setup_s"}


def test_refuses_to_run_without_the_sources(tmp_path):
    copy = copy_benchmark(tmp_path)
    out = bench("--workload", WORKLOADS[0], cwd=tmp_path, script=copy / "run.py")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
