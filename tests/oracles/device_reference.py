"""The per-instruction TPU timing loop, frozen as the oracle for
:class:`repro.core.device.TPUDevice`.

This is the device engine as it was before the library replayed a
precomputed timing plan for every run: each instruction is dispatched to
an ``_exec_*`` method that consults the token scoreboard, advances its
engine's clock, adds its counters one at a time and -- in functional
mode -- moves the data in the same step.  Programs without a dependency
sidecar chain every instruction on the one before it.  It is slow and
obviously right, which is what an oracle is for; the parity properties
in ``tests/test_oracles.py`` and ``tests/test_paper_parity.py`` demand
identical cycles, breakdowns, counters (value types included) and
functional outputs.

Do not optimise this file; change it only when the device's observable
behaviour is meant to change.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.accumulators import AccumulatorFile
from repro.core.activation_unit import ActivationUnit
from repro.core.config import TPUConfig, TPU_V1
from repro.core.counters import CounterBank, CycleBreakdown
from repro.core.device import ExecutionResult
from repro.core.dma import DMAEngine
from repro.core.matrix_unit import MatrixUnit, speed_factor
from repro.core.weight_fifo import WeightFIFO
from repro.core.weight_memory import WeightMemory
from repro.isa.instructions import (
    Activate,
    Configure,
    DebugTag,
    Halt,
    InterruptHost,
    MatrixMultiply,
    Nop,
    ReadHostMemory,
    ReadWeights,
    Sync,
    SyncHost,
    VectorInstruction,
    VectorKind,
    WriteHostMemory,
    unpack_pooling_config,
)
from repro.isa.program import TPUProgram
from repro.nn.layers import Activation
from repro.nn.quantization import apply_activation, quantize
from repro.nn.reference import im2col, max_pool

ROW_BYTES = 256
SETUP_BASE = 0x800000
SETUP_BANK_STRIDE = 1 << 22


@dataclass
class _Tensor:
    base_row: int
    rows: int
    width: int
    data: np.ndarray | None = None  # allocated lazily in functional mode


class ReferenceDevice:
    """Executes TPUPrograms one instruction at a time."""

    def __init__(
        self,
        config: TPUConfig = TPU_V1,
        functional: bool = False,
        activation_mode: str = "exact",
    ) -> None:
        self.config = config
        self.functional = functional
        self.activation_unit = ActivationUnit(config.activation_lanes, mode=activation_mode)
        self.dma = DMAEngine(config.pcie_bandwidth)

    def run(self, program: TPUProgram, host_input: np.ndarray | None = None) -> ExecutionResult:
        return _Run(self, program, host_input).execute()


class _Run:
    """Single-program execution state (timing + optional functional)."""

    def __init__(self, device: ReferenceDevice, program: TPUProgram, host_input: np.ndarray | None) -> None:
        self.device = device
        self.config = device.config
        self.program = program
        self.functional = device.functional
        self.host_input = host_input
        self.counters = CounterBank()
        clock = self.config.clock_hz
        self.cycles_per_second = clock
        # -- engines -------------------------------------------------------
        self.unit_free = {
            "matrix": 0.0,
            "vector": 0.0,
            "setup": 0.0,  # the floorplan's Systolic Data Setup block
            "dma_in": 0.0,
            "dma_out": 0.0,
            "dram": 0.0,
            "control": 0.0,
        }
        # -- scoreboard ------------------------------------------------------
        self.token_write: dict[int, tuple[float, str]] = {}
        self.token_read: dict[int, float] = {}
        deps = program.metadata.get("deps")
        self.deps = deps if deps is not None else None
        # -- weight path ------------------------------------------------------
        self.fifo_depth = self.config.weight_fifo_tiles
        self.tile_load_cycles = self.config.tile_load_cycles()
        self.ready_queue: deque[tuple[int, float]] = deque()  # (tile_id, ready)
        self.pop_times: list[float] = []
        self.push_count = 0
        self.prev_mm_start = 0.0
        # -- stall accounting --------------------------------------------------
        self.active = 0.0
        self.useful = 0.0
        self.weight_stall = 0.0
        self.weight_shift = 0.0
        self.raw_stall = 0.0
        self.input_stall = 0.0
        # -- functional state ----------------------------------------------------
        self.tensors: list[_Tensor] = []
        self.tensor_bases: list[int] = []
        self.setup: dict[int, np.ndarray] = {}
        self.cell_state: dict[int, np.ndarray] = {}
        self.pool_config: dict[str, int] | None = None
        self.conv_config: dict[str, int] | None = None
        self.output: np.ndarray | None = None
        self.weight_memory: WeightMemory | None = None
        self.fifo_data = WeightFIFO(self.fifo_depth)
        self.matrix_unit = MatrixUnit(self.config)
        self.acc = AccumulatorFile(self.config.accumulator_rows, self.config.matrix_dim)
        self._last_serial_token = -1  # fallback chaining when deps missing
        self._init_memory()

    # ------------------------------------------------------------------
    def _init_memory(self) -> None:
        table = self.program.metadata.get("tensors", {})
        for name, (base_row, rows, width) in sorted(table.items(), key=lambda kv: kv[1][0]):
            self.tensors.append(_Tensor(base_row, rows, width))
        self.tensors.sort(key=lambda t: t.base_row)
        self.tensor_bases = [t.base_row for t in self.tensors]
        if self.functional:
            self.weight_memory = WeightMemory(
                self.config.weight_dram_bytes, self.config.weight_bandwidth
            )
            for tile_id, spec in self.program.tiles.items():
                if spec.data is None:
                    raise ValueError(
                        f"tile {tile_id} carries no data; compile with "
                        f"quantized parameters for functional runs"
                    )
                self.weight_memory.store_tile(tile_id, spec.data)

    def _find_tensor(self, row: int) -> tuple[_Tensor, int]:
        idx = bisect_right(self.tensor_bases, row) - 1
        if idx < 0:
            raise KeyError(f"UB row {row} is below every tensor")
        tensor = self.tensors[idx]
        span = tensor.rows * math.ceil(tensor.width / ROW_BYTES)
        if row >= tensor.base_row + span:
            raise KeyError(f"UB row {row} not inside any tensor")
        return tensor, row - tensor.base_row

    def _tensor_array(self, tensor: _Tensor) -> np.ndarray:
        if tensor.data is None:
            tensor.data = np.zeros((tensor.rows, tensor.width), dtype=np.int8)
        return tensor.data

    # ------------------------------------------------------------------
    # scoreboard helpers
    # ------------------------------------------------------------------
    def _dep_times(self, index: int) -> tuple[float, str, float]:
        """(read-ready time, binding unit, WAR/WAW-ready time)."""
        if self.deps is None:
            # Sequential fallback for hand-assembled programs.
            prev = self.token_write.get(self._last_serial_token, (0.0, "control"))
            return prev[0], prev[1], prev[0]
        dep = self.deps[index]
        ready, unit = 0.0, "control"
        for token in dep.reads:
            t, u = self.token_write.get(token, (0.0, "control"))
            if t > ready:
                ready, unit = t, u
        war_ready = 0.0
        for token in dep.war:
            t, _u = self.token_write.get(token, (0.0, "control"))
            war_ready = max(war_ready, t, self.token_read.get(token, 0.0))
        return ready, unit, war_ready

    def _commit(self, index: int, end: float, unit: str) -> None:
        if self.deps is None:
            self._last_serial_token = index
            self.token_write[index] = (end, unit)
            return
        dep = self.deps[index]
        for token in dep.writes:
            self.token_write[token] = (end, unit)
        for token in dep.reads:
            if self.token_read.get(token, 0.0) < end:
                self.token_read[token] = end

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def execute(self) -> ExecutionResult:
        bank = self.counters
        for index, instr in enumerate(self.program.instructions):
            bank.add("instructions_issued", 1)
            if isinstance(instr, ReadWeights):
                self._exec_read_weights(index, instr)
            elif isinstance(instr, MatrixMultiply):
                self._exec_matmul(index, instr)
            elif isinstance(instr, Activate):
                self._exec_activate(index, instr)
            elif isinstance(instr, VectorInstruction):
                self._exec_vector(index, instr)
            elif isinstance(instr, ReadHostMemory):
                self._exec_dma_in(index, instr)
            elif isinstance(instr, WriteHostMemory):
                self._exec_dma_out(index, instr)
            elif isinstance(instr, Configure):
                self._exec_configure(index, instr)
            elif isinstance(instr, (Sync, SyncHost)):
                barrier = max(self.unit_free.values())
                self.unit_free["control"] = barrier
                bank.add("sync_instructions", 1)
                self._commit(index, barrier, "control")
            elif isinstance(instr, (DebugTag, Nop, InterruptHost)):
                start = self.unit_free["control"]
                self.unit_free["control"] = start + 1
                if isinstance(instr, Nop):
                    bank.add("nop_instructions", 1)
                self._commit(index, start + 1, "control")
            elif isinstance(instr, Halt):
                break
            else:
                raise TypeError(f"device cannot execute {type(instr)!r}")

        total = max(self.unit_free.values())
        total = max(total, 1.0)
        bank.add("total_cycles", total)
        bank.add("array_active_cycles", self.active)
        bank.add("useful_mac_cycles", self.useful)
        bank.add("weight_stall_cycles", self.weight_stall)
        bank.add("weight_shift_cycles", self.weight_shift)
        non_matrix = max(total - self.active - self.weight_stall - self.weight_shift, 0.0)
        bank.add("non_matrix_cycles", non_matrix)
        bank.add("raw_stall_cycles", min(self.raw_stall, non_matrix))
        bank.add("input_stall_cycles", min(self.input_stall, non_matrix))
        bank.add("batches_completed", 1)
        breakdown = CycleBreakdown(
            total=total,
            active=self.active,
            weight_stall=self.weight_stall,
            weight_shift=self.weight_shift,
            non_matrix=non_matrix,
            useful_mac_weighted=min(self.useful, self.active),
            raw_stall=min(self.raw_stall, non_matrix),
            input_stall=min(self.input_stall, non_matrix),
        )
        return ExecutionResult(
            program_name=self.program.name,
            batch_size=self.program.batch_size,
            cycles=total,
            seconds=total / self.cycles_per_second,
            breakdown=breakdown,
            counters=bank.snapshot(),
            output=self.output,
        )
    # ------------------------------------------------------------------
    # engines
    # ------------------------------------------------------------------
    def _exec_read_weights(self, index: int, instr: ReadWeights) -> None:
        slot_free = 0.0
        if self.push_count >= self.fifo_depth:
            pop_index = self.push_count - self.fifo_depth
            if pop_index < len(self.pop_times):
                slot_free = self.pop_times[pop_index]
            else:
                # The consuming matmul has not been issued yet (should not
                # happen with compiler-ordered streams); fall back to the
                # last known matrix time.
                slot_free = self.unit_free["matrix"]
        # Static weight tiles stream the full padded tile; dynamic tiles
        # (attention K^T/V staged through Weight Memory) move only their
        # packed bytes, and must wait for the activations they stage.
        spec = self.program.tiles.get(instr.tile_id)
        if spec is not None and spec.dynamic:
            nbytes = spec.rows * spec.cols
            load_cycles = self.tile_load_cycles * nbytes / self.config.tile_bytes
        else:
            nbytes = self.config.tile_bytes
            load_cycles = self.tile_load_cycles
        dep_ready = 0.0
        if self.deps is not None:
            dep_ready, _unit, _war = self._dep_times(index)
        start = max(self.unit_free["dram"], slot_free, dep_ready)
        end = start + load_cycles
        self.unit_free["dram"] = end
        self.ready_queue.append((instr.tile_id, end))
        self.push_count += 1
        self.counters.add("read_weights_instructions", 1)
        self.counters.add("weight_tiles_loaded", 1)
        self.counters.add("weight_bytes_read", nbytes)
        self._commit(index, end, "dram")

    def _exec_matmul(self, index: int, instr: MatrixMultiply) -> None:
        cfg = self.config
        dep_ready, dep_unit, war_ready = self._dep_times(index)
        matrix_free = self.unit_free["matrix"]
        shift_done = 0.0
        tile_ready = 0.0
        shift_start = 0.0
        spec = None
        if instr.load_new_tile:
            if not self.ready_queue:
                raise RuntimeError("MatrixMultiply with load_new_tile but empty Weight FIFO")
            tile_id, tile_ready = self.ready_queue.popleft()
            spec = self.program.tiles[tile_id]
            shift_start = max(tile_ready, self.prev_mm_start)
            self.pop_times.append(shift_start)
            shift_done = shift_start + cfg.weight_shift_cycles
            if self.functional:
                data, _seconds = self.weight_memory.read_tile(tile_id)
                self.matrix_unit.install_tile(tile_id, data)
        start = max(matrix_free, shift_done, dep_ready, war_ready)
        idle = start - matrix_free
        if idle > 0:
            stall = 0.0
            shift = 0.0
            if instr.load_new_tile:
                stall = max(0.0, min(start, tile_ready) - matrix_free)
                shift = max(
                    0.0,
                    min(start, shift_done) - max(matrix_free, shift_start, tile_ready),
                )
            covered = stall + shift
            self.weight_stall += stall
            self.weight_shift += shift
            rest = idle - covered
            if rest > 0 and dep_ready >= start - 1e-9:
                if dep_unit == "dma_in":
                    self.input_stall += rest
                else:
                    self.raw_stall += rest
        factor = speed_factor(instr.weight_bits, instr.activation_bits)
        duration = instr.rows * factor
        end = start + duration
        self.unit_free["matrix"] = end
        self.prev_mm_start = start
        self.active += duration
        if spec is not None:
            fill = (spec.rows * spec.cols) / (cfg.matrix_dim * cfg.matrix_dim)
        else:
            fill = 1.0
        self.useful += duration * fill
        macs = instr.rows * (spec.rows * spec.cols if spec is not None else cfg.macs)
        self.counters.add("macs_issued", macs)
        self.counters.add("ops_committed", 2 * macs)
        self.counters.add("rows_streamed", instr.rows)
        self.counters.add(
            "convolve_instructions" if instr.convolve else "matmul_instructions", 1
        )
        if self.functional:
            self._matmul_functional(instr, spec)
        self._commit(index, end, "matrix")

    def _matmul_functional(self, instr: MatrixMultiply, spec) -> None:
        x = self._read_matmul_input(instr, spec.rows if spec else self.config.matrix_dim)
        result = self.matrix_unit.multiply(x)
        self.acc.write(instr.acc_row, result, accumulate=instr.accumulate)
        self.counters.add("acc_rows_written", instr.rows)

    def _read_matmul_input(self, instr: MatrixMultiply, k_ext: int) -> np.ndarray:
        row = instr.ub_row
        if row >= SETUP_BASE:
            bank = (row - SETUP_BASE) // SETUP_BANK_STRIDE
            offset = (row - SETUP_BASE) % SETUP_BANK_STRIDE
            arr = self.setup[bank]
            group = offset // instr.rows
            lo = group * ROW_BYTES
            data = arr[:, lo : lo + k_ext]
        else:
            tensor, rel = self._find_tensor(row)
            arr = self._tensor_array(tensor)
            group = rel // tensor.rows
            r0 = rel % tensor.rows
            lo = group * ROW_BYTES
            data = arr[r0 : r0 + instr.rows, lo : lo + k_ext]
        if data.shape[1] < k_ext:
            padded = np.zeros((data.shape[0], k_ext), dtype=data.dtype)
            padded[:, : data.shape[1]] = data
            data = padded
        self.counters.add("ub_bytes_read", data.shape[0] * ROW_BYTES)
        return data

    def _exec_activate(self, index: int, instr: Activate) -> None:
        dep_ready, _unit, war_ready = self._dep_times(index)
        duration = self.device.activation_unit.cycles(instr.rows * instr.lanes)
        start = max(self.unit_free["vector"], dep_ready, war_ready)
        end = start + duration
        self.unit_free["vector"] = end
        self.counters.add("activate_instructions", 1)
        self.counters.add("activation_cycles", duration)
        if self.functional:
            entry = self.program.scales[instr.scale_id]
            acc_rows = self.acc.read(instr.acc_row, instr.rows)
            codes = self.device.activation_unit.activate(
                acc_rows,
                entry.input_scale,
                entry.weight_scale,
                entry.output_scale,
                instr.function,
            )
            tensor, rel = self._find_tensor(instr.ub_row)
            arr = self._tensor_array(tensor)
            group = rel // tensor.rows
            r0 = rel % tensor.rows
            lo = group * ROW_BYTES
            arr[r0 : r0 + instr.rows, lo : lo + instr.lanes] = codes[:, : instr.lanes]
            self.counters.add("ub_bytes_written", instr.rows * ROW_BYTES)
        self._commit(index, end, "vector")

    # -- vector path ------------------------------------------------------
    def _exec_vector(self, index: int, instr: VectorInstruction) -> None:
        dep_ready, _unit, war_ready = self._dep_times(index)
        elements = instr.rows * instr.lanes * VectorKind.PASSES[instr.kind]
        if instr.kind == VectorKind.POOL and self.pool_config:
            elements *= self.pool_config["window"] ** 2
        # Patch streaming runs on the dedicated setup block, concurrent
        # with the activation pipeline.
        unit = "setup" if instr.kind == VectorKind.IM2COL else "vector"
        duration = self.device.activation_unit.cycles(elements)
        start = max(self.unit_free[unit], dep_ready, war_ready)
        end = start + duration
        self.unit_free[unit] = end
        self.counters.add(
            "pooling_cycles" if instr.kind == VectorKind.POOL else "activation_cycles",
            duration,
        )
        if self.functional:
            self._vector_functional(instr)
        self._commit(index, end, unit)

    def _vector_functional(self, instr: VectorInstruction) -> None:
        entry = self.program.scales[instr.scale_id]
        if instr.kind == VectorKind.UNARY:
            self._unary_functional(instr)
        elif instr.kind == VectorKind.LSTM_GATE:
            self._lstm_gate_functional(instr)
        elif instr.kind == VectorKind.RESIDUAL_ADD:
            src_t, _ = self._find_tensor(instr.src_row)
            skip_t, _ = self._find_tensor(instr.aux_id)
            src = self._tensor_array(src_t).astype(np.float64) * entry.input_scale.scale
            skip = self._tensor_array(skip_t).astype(np.float64) * entry.aux_scale.scale
            result = quantize(src + skip, entry.output_scale)
            dst_t, _ = self._find_tensor(instr.dst_row)
            self._tensor_array(dst_t)[:, :] = result
        elif instr.kind == VectorKind.POOL:
            self._pool_functional(instr, entry)
        elif instr.kind == VectorKind.IM2COL:
            self._im2col_functional(instr)
        elif instr.kind in (VectorKind.SOFTMAX, VectorKind.LAYER_NORM):
            raise NotImplementedError(
                "softmax/layer-norm execute on the timing path only; the "
                "functional int8 contract covers the Table 1 layer kinds"
            )
        else:
            raise ValueError(f"unknown vector kind {instr.kind}")

    def _unary_functional(self, instr: VectorInstruction) -> None:
        entry = self.program.scales[instr.scale_id]
        src_t, rel = self._find_tensor(instr.src_row)
        arr = self._tensor_array(src_t)
        r0 = rel % src_t.rows
        if r0 == 0 and instr.rows == src_t.rows and instr.lanes == src_t.width:
            data = arr
        elif r0 == 0 and instr.rows * instr.lanes == src_t.rows * src_t.width:
            data = arr.reshape(instr.rows, instr.lanes)
        else:
            data = arr[r0 : r0 + instr.rows, : instr.lanes]
        if instr.function is Activation.NONE and entry.input_scale == entry.output_scale:
            codes = data.copy()
        else:
            real = apply_activation(
                data.astype(np.float64) * entry.input_scale.scale, instr.function
            )
            codes = quantize(real, entry.output_scale)
        dst_t, dst_rel = self._find_tensor(instr.dst_row)
        dst = self._tensor_array(dst_t)
        dr0 = dst_rel % dst_t.rows
        col0 = instr.aux_id
        dst[dr0 : dr0 + instr.rows, col0 : col0 + instr.lanes] = codes

    def _lstm_gate_functional(self, instr: VectorInstruction) -> None:
        entry = self.program.scales[instr.scale_id]
        hidden = instr.lanes
        batch = instr.rows
        groups = math.ceil(4 * hidden / ROW_BYTES)
        gate_cols = []
        for g in range(groups):
            gate_cols.append(self.acc.read(instr.src_row + g * batch, batch))
        acc = np.concatenate(gate_cols, axis=1)[:, : 4 * hidden]
        gates = acc.astype(np.float64) * (entry.input_scale.scale * entry.weight_scale.scale)
        gi, gf, gg, go = np.split(gates, 4, axis=1)
        gi = apply_activation(gi, Activation.SIGMOID)
        gf = apply_activation(gf, Activation.SIGMOID)
        gg = apply_activation(gg, Activation.TANH)
        go = apply_activation(go, Activation.SIGMOID)
        c = self.cell_state.get(instr.aux_id)
        if c is None:
            c = np.zeros((batch, hidden))
        c = gf * c + gi * gg
        self.cell_state[instr.aux_id] = c
        h_real = go * np.tanh(c)
        # Step output at the sequence tensor's scale...
        out_t, rel = self._find_tensor(instr.dst_row)
        r0 = rel % out_t.rows
        self._tensor_array(out_t)[r0 : r0 + batch, :hidden] = quantize(
            h_real, entry.output_scale
        )
        # ...and the recurrent copy at the concat scale.
        h_t, _ = self._find_tensor(instr.aux_id)
        self._tensor_array(h_t)[:, :hidden] = quantize(h_real, entry.aux_scale)

    def _pool_functional(self, instr: VectorInstruction, entry) -> None:
        if not self.pool_config:
            raise RuntimeError("POOL executed before Configure(KEY_POOLING)")
        cfg = self.pool_config
        src_t, _ = self._find_tensor(instr.src_row)
        arr = self._tensor_array(src_t)
        h, w, c = cfg["height"], cfg["width"], cfg["channels"]
        batch = src_t.rows // (h * w)
        image = arr[:, :c].reshape(batch, h, w, c)
        pooled = max_pool(image, cfg["window"], cfg["stride"])
        flat = pooled.reshape(-1, c)
        if entry.input_scale != entry.output_scale:
            real = flat.astype(np.float64) * entry.input_scale.scale
            flat = quantize(real, entry.output_scale)
        dst_t, _ = self._find_tensor(instr.dst_row)
        self._tensor_array(dst_t)[:, :c] = flat

    def _im2col_functional(self, instr: VectorInstruction) -> None:
        if not self.conv_config:
            raise RuntimeError("IM2COL executed before Configure(KEY_CONV)")
        cfg = self.conv_config
        src_t, _ = self._find_tensor(instr.src_row)
        arr = self._tensor_array(src_t)
        h, w, c = cfg["height"], cfg["width"], cfg["channels"]
        batch = src_t.rows // (h * w)
        image = arr[:, :c].reshape(batch, h, w, c)
        cols, _ohw = im2col(image, cfg["window"], cfg["stride"])
        r0 = instr.aux_id
        bank = (instr.dst_row - SETUP_BASE) // SETUP_BANK_STRIDE
        self.setup[bank] = cols[r0 : r0 + instr.rows].copy()

    # -- DMA -----------------------------------------------------------------
    def _exec_dma_in(self, index: int, instr: ReadHostMemory) -> None:
        nbytes = instr.rows * ROW_BYTES
        seconds = self.device.dma.host_to_device(None, nbytes)
        duration = seconds * self.cycles_per_second
        _ready, _unit, war_ready = self._dep_times(index)
        start = max(self.unit_free["dma_in"], war_ready)
        end = start + duration
        self.unit_free["dma_in"] = end
        self.counters.add("read_host_instructions", 1)
        self.counters.add("pcie_bytes_in", nbytes)
        self.counters.add("dma_in_cycles", duration)
        if self.functional:
            self._dma_in_functional(instr)
        self._commit(index, end, "dma_in")

    def _dma_in_functional(self, instr: ReadHostMemory) -> None:
        if self.host_input is None:
            return
        layout = self.program.metadata.get("input_layout", "rows")
        payload = np.asarray(self.host_input)
        if layout == "rows":
            flat = payload.reshape(payload.shape[0], -1)
        elif layout == "sequence":
            flat = payload.transpose(1, 0, 2).reshape(-1, payload.shape[-1])
        elif layout == "image":
            flat = payload.reshape(-1, payload.shape[-1])
        else:
            raise ValueError(f"unknown input layout {layout!r}")
        tensor, _ = self._find_tensor(instr.ub_row)
        arr = self._tensor_array(tensor)
        arr[: flat.shape[0], : flat.shape[1]] = flat.astype(np.int8)

    def _exec_dma_out(self, index: int, instr: WriteHostMemory) -> None:
        nbytes = instr.rows * ROW_BYTES
        seconds = self.device.dma.device_to_host(None, nbytes)
        duration = seconds * self.cycles_per_second
        ready, _unit, _war = self._dep_times(index)
        start = max(self.unit_free["dma_out"], ready)
        end = start + duration
        self.unit_free["dma_out"] = end
        self.counters.add("write_host_instructions", 1)
        self.counters.add("pcie_bytes_out", nbytes)
        self.counters.add("dma_out_cycles", duration)
        if self.functional:
            self._dma_out_functional(instr)
        self._commit(index, end, "dma_out")

    def _dma_out_functional(self, instr: WriteHostMemory) -> None:
        tensor, _ = self._find_tensor(instr.ub_row)
        arr = self._tensor_array(tensor)
        out_shape = self.program.metadata.get("output_shape")
        batch = self.program.batch_size
        if out_shape is None or len(out_shape) == 1:
            self.output = arr[:, : (out_shape[0] if out_shape else arr.shape[1])].copy()
        elif len(out_shape) == 2:  # sequence: step-major back to (B, T, F)
            t, f = out_shape
            self.output = arr[:, :f].reshape(t, batch, f).transpose(1, 0, 2).copy()
        elif len(out_shape) == 3:
            h, w, c = out_shape
            self.output = arr[:, :c].reshape(batch, h, w, c).copy()
        else:
            raise ValueError(f"unsupported output shape {out_shape}")

    # -- control ----------------------------------------------------------
    def _exec_configure(self, index: int, instr: Configure) -> None:
        start = self.unit_free["control"]
        self.unit_free["control"] = start + 1
        if instr.key == Configure.KEY_POOLING:
            self.pool_config = unpack_pooling_config(instr.value)
        elif instr.key == Configure.KEY_CONV:
            self.conv_config = unpack_pooling_config(instr.value)
        self._commit(index, start + 1, "control")
