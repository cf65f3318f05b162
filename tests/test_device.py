"""Device tests: functional equivalence and timing behaviour."""

import re
from dataclasses import replace

import numpy as np
import pytest

from repro.compiler.driver import TPUDriver
from repro.core import device as device_module
from repro.core.config import TPU_V1
from repro.core.device import TPUDevice, _timing_plan_for
from repro.nn.graph import Model
from repro.nn.reference import random_input
from tests.conftest import functional_pair


class TestFunctionalEquivalence:
    """The device's int8 output must equal the quantized reference."""

    def test_mlp_bit_exact(self, tiny_mlp):
        ref, out, _result = functional_pair(tiny_mlp)
        assert np.array_equal(ref, out)

    def test_cnn_with_pool_and_residual_bit_exact(self, tiny_cnn):
        ref, out, _result = functional_pair(tiny_cnn)
        assert np.array_equal(ref, out)

    def test_lstm_stack_bit_exact(self, tiny_lstm):
        ref, out, _result = functional_pair(tiny_lstm)
        assert np.array_equal(ref, out)

    def test_multiple_seeds_stay_exact(self, tiny_mlp):
        for seed in (11, 23, 77):
            ref, out, _result = functional_pair(tiny_mlp, seed=seed)
            assert np.array_equal(ref, out)

    def test_output_shape_roundtrip_sequence(self, tiny_lstm):
        ref, out, _result = functional_pair(tiny_lstm)
        assert out.shape == (4, 5, 16)

    def test_run_requires_params(self, tiny_mlp, driver):
        compiled = driver.compile(tiny_mlp)
        with pytest.raises(ValueError):
            driver.run(compiled, np.zeros((5, 20), dtype=np.float32))

    def test_run_checks_batch(self, tiny_mlp):
        drv = TPUDriver()
        compiled = drv.compile_functional(tiny_mlp, seed=1)
        with pytest.raises(ValueError):
            drv.run(compiled, np.zeros((3, 20), dtype=np.float32))

    @pytest.mark.parametrize(
        "shape", [None, (3, 20), (5, 21)], ids=["missing", "short_batch", "wrong_width"]
    )
    def test_device_rejects_misshaped_input(self, tiny_mlp, shape):
        """A functional run never computes on zero rows or fails inside
        numpy: the error names the expected and the given shape."""
        compiled = TPUDriver().compile_functional(tiny_mlp, seed=1)
        host_input = None if shape is None else np.zeros(shape, dtype=np.int8)
        given = "none" if shape is None else str(shape)
        with pytest.raises(ValueError, match=re.escape(f"(5, 20), got {given}")):
            TPUDevice(functional=True).run(compiled.program, host_input=host_input)


class TestTimingBehaviour:
    def test_taxonomy_partitions_total(self, profiles):
        for name, result in profiles.items():
            b = result.breakdown
            total = b.active + b.weight_stall + b.weight_shift + b.non_matrix
            assert total == pytest.approx(b.total, rel=1e-9), name

    def test_useful_bounded_by_active(self, profiles):
        for result in profiles.values():
            b = result.breakdown
            assert b.useful_mac_weighted <= b.active + 1e-9

    def test_memory_bound_apps_are_weight_stalled(self, profiles):
        for name in ("mlp0", "mlp1", "lstm0", "lstm1"):
            b = profiles[name].breakdown
            assert b.weight_stall_fraction > 0.4, name
            assert b.active_fraction < 0.25, name

    def test_cnn0_is_compute_bound(self, profiles):
        b = profiles["cnn0"].breakdown
        assert b.active_fraction > 0.6
        assert b.weight_stall_fraction < 0.1

    def test_cnn1_half_macs_unused(self, profiles):
        b = profiles["cnn1"].breakdown
        # Shallow feature depths leave a large unused-MAC share.
        assert b.unused_mac_fraction > 0.2

    def test_tops_ordering_matches_paper(self, profiles):
        tops = {name: r.tera_ops for name, r in profiles.items()}
        assert tops["cnn0"] > tops["cnn1"] > tops["mlp0"] > tops["lstm0"]
        assert tops["cnn0"] < 92.0  # never above peak

    def test_mlp0_tops_band(self, profiles):
        # Paper: 12.3 TOPS.  Memory-bound at intensity 200.
        assert profiles["mlp0"].tera_ops == pytest.approx(12.3, rel=0.25)

    def test_faster_memory_speeds_up_memory_bound_apps(self, workloads):
        fast = TPUDriver(TPU_V1.scaled(memory=4.0))
        base = TPUDriver()
        model = workloads["mlp1"]
        base_s = base.profile(base.compile(model)).seconds
        fast_s = fast.profile(fast.compile(model)).seconds
        assert base_s / fast_s > 2.5

    def test_four_deep_weight_fifo_is_ample(self, workloads):
        """The DRAM stream is the bottleneck: depth 4 beats depth 1 and
        deepening to 8 changes MLP0's batch time by under 5%."""
        seconds = {}
        for depth in (1, 4, 8):
            drv = TPUDriver(replace(TPU_V1, weight_fifo_tiles=depth))
            seconds[depth] = drv.profile(drv.compile(workloads["mlp0"])).seconds
        assert seconds[4] <= seconds[1] * 1.01
        assert abs(seconds[4] - seconds[8]) / seconds[4] < 0.05

    def test_paper_programs_take_the_precomputed_plan(
        self, workloads, driver, tiny_mlp, monkeypatch
    ):
        """Timing, functional and sidecar-less runs all replay the
        program's cached timing plan -- there is no other engine."""
        replayed = []
        original = device_module._Run._replay

        def spy(run, plan):
            replayed.append(plan)
            return original(run, plan)

        monkeypatch.setattr(device_module._Run, "_replay", spy)
        timing = driver.compile(workloads["mlp0"]).program
        TPUDevice().run(timing)
        functional = driver.compile_functional(tiny_mlp, seed=1)
        driver.run(functional, random_input(tiny_mlp, seed=7))
        sidecar_less = replace(
            timing, metadata={k: v for k, v in timing.metadata.items() if k != "deps"}
        )
        TPUDevice().run(sidecar_less)
        programs = (timing, functional.program, sidecar_less)
        assert replayed == [_timing_plan_for(p, TPU_V1) for p in programs]
        assert all(plan is p._timing_plan[1] for plan, p in zip(replayed, programs))

    def test_faster_clock_barely_helps_mlp(self, workloads):
        fast = TPUDriver(TPU_V1.scaled(clock=4.0))
        base = TPUDriver()
        model = workloads["mlp1"]
        base_s = base.profile(base.compile(model)).seconds
        fast_s = fast.profile(fast.compile(model)).seconds
        assert base_s / fast_s < 1.3

    def test_instruction_counters(self, profiles, workloads, driver):
        compiled = driver.compile(workloads["mlp1"])
        result = profiles["mlp1"]
        counts = compiled.program.instruction_counts()
        assert result.counters["matmul_instructions"] == counts["MATRIX_MULTIPLY"]
        assert result.counters["weight_tiles_loaded"] == counts["READ_WEIGHTS"]

    def test_weight_bytes_counter_matches_compiler(self, profiles, workloads, driver):
        for name, model in workloads.items():
            compiled = driver.compile(model)
            assert profiles[name].counters["weight_bytes_read"] == pytest.approx(
                compiled.weight_traffic_bytes
            )

    def test_device_rejects_scaled_matrix(self):
        with pytest.raises(NotImplementedError):
            TPUDevice(TPU_V1.scaled(matrix=2))

    def test_sequential_fallback_without_deps(self):
        """Hand-assembled programs (no dep sidecar) still execute."""
        from repro.isa.instructions import Halt, Nop
        from repro.isa.program import TPUProgram

        program = TPUProgram(
            name="nops",
            instructions=(Nop(), Nop(), Halt()),
            tiles={},
            scales=(),
            host_buffers={},
            batch_size=1,
        )
        result = TPUDevice().run(program)
        assert result.counters["nop_instructions"] == 2

    def test_ips_and_tops_properties(self, profiles):
        r = profiles["mlp0"]
        assert r.ips == pytest.approx(200 / r.seconds)
        assert r.tera_ops == pytest.approx(2 * r.useful_macs / r.seconds / 1e12)


class TestHostModel:
    def test_host_fraction_bands(self, workloads, driver, profiles):
        # Table 5 shape: MLP1 has the largest host share; LSTMs small.
        fractions = {
            name: driver.host_fraction(driver.compile(model), profiles[name])
            for name, model in workloads.items()
        }
        assert fractions["mlp1"] == max(fractions.values())
        assert fractions["mlp1"] > 0.3
        assert 0.05 < fractions["mlp0"] < 0.5
        assert fractions["lstm0"] < 0.2

    def test_batch_seconds_adds_host(self, workloads, driver, profiles):
        compiled = driver.compile(workloads["mlp0"])
        total = driver.batch_seconds(compiled, profiles["mlp0"])
        assert total > profiles["mlp0"].seconds

    def test_mlp0_ips_matches_paper_band(self, workloads, driver, profiles):
        # Paper: 225,000 IPS at batch 200 including host overhead.
        compiled = driver.compile(workloads["mlp0"])
        ips = driver.ips(compiled, profiles["mlp0"])
        assert 120_000 < ips < 400_000

    def test_host_overhead_limits_throughput(self, workloads):
        """Table 4 note: max TPU throughput is limited by host overhead."""
        ips = []
        for factor in (0.5, 1.0, 2.0):
            drv = TPUDriver(replace(TPU_V1, host_overhead_s=TPU_V1.host_overhead_s * factor))
            compiled = drv.compile(workloads["mlp1"])
            ips.append(drv.ips(compiled, drv.profile(compiled)))
        assert ips[0] > ips[1] > ips[2]
