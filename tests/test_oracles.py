"""Library vs frozen oracle: the device and compiler beyond the paper six.

Each hot path has one library implementation; the path it replaced is
frozen under ``tests/oracles/`` and only tests use it.  The paper
programs are pinned against the oracles in ``tests/test_paper_parity.py``
and the serving paths in ``tests/test_serving.py``,
``tests/test_datacenter.py`` and ``tests/test_obs.py``; this module covers
functional runs, hand-assembled streams without a dependency sidecar,
malformed streams, the transformer family and functional compiles.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.device_reference import ReferenceDevice
from oracles.lowering_per_tile import PerTileLowering

from repro.compiler.driver import TPUDriver
from repro.compiler.lowering import Lowering
from repro.core.config import TPU_V1
from repro.core.device import TPUDevice
from repro.isa.instructions import (
    Activate,
    Configure,
    DebugTag,
    Halt,
    MatrixMultiply,
    Nop,
    ReadHostMemory,
    ReadWeights,
    Sync,
    SyncHost,
    VectorInstruction,
    VectorKind,
    WriteHostMemory,
    pack_pooling_config,
)
from repro.isa.program import TileSpec, TPUProgram
from repro.nn.graph import Model
from repro.nn.layers import Activation, FullyConnected
from repro.nn.quantization import quantize
from repro.nn.reference import random_input
from repro.nn.workloads import build_workload

pytestmark = pytest.mark.oracle


def assert_same_run(library, reference):
    """Every observable of an ExecutionResult, counter value types included."""
    assert library.program_name == reference.program_name
    assert library.batch_size == reference.batch_size
    assert library.cycles == reference.cycles
    assert library.seconds == reference.seconds
    assert dataclasses.asdict(library.breakdown) == dataclasses.asdict(reference.breakdown)
    assert library.counters == reference.counters
    assert {k: type(v) for k, v in library.counters.items()} == {
        k: type(v) for k, v in reference.counters.items()
    }
    if reference.output is None:
        assert library.output is None
    else:
        assert library.output.dtype == reference.output.dtype
        assert np.array_equal(library.output, reference.output)


def functional_compile(model):
    """(functional program, quantized input codes, params) for a small model."""
    compiled = TPUDriver().compile_functional(model, seed=3)
    x = random_input(model, seed=7)
    codes = quantize(np.asarray(x, dtype=np.float64), compiled.params.input_scale)
    return compiled.program, codes, compiled.params


@pytest.fixture
def wide_mlp():
    """Layers wider than the array in K and N, so tiles are sliced on a grid."""
    return Model(
        name="wide_mlp",
        layers=(FullyConnected("a", 300, 520), FullyConnected("b", 520, 10)),
        input_shape=(300,),
        batch_size=3,
    )


MODELS = ["tiny_mlp", "tiny_lstm", "tiny_cnn", "wide_mlp"]


class TestDeviceFunctional:
    @pytest.mark.parametrize("fixture", MODELS)
    def test_functional_run_matches_reference_loop(self, fixture, request):
        program, codes, _params = functional_compile(request.getfixturevalue(fixture))
        library = TPUDevice(functional=True).run(program, host_input=codes)
        reference = ReferenceDevice(functional=True).run(program, host_input=codes)
        assert library.output is not None
        assert_same_run(library, reference)


# ----------------------------------------------------------------------
# hand-assembled streams (no dependency sidecar)
# ----------------------------------------------------------------------
TILES = {
    0: TileSpec(tile_id=0, rows=256, cols=256),
    1: TileSpec(tile_id=1, rows=40, cols=200),
    2: TileSpec(tile_id=2, rows=64, cols=64, dynamic=True),
}

_rows = st.integers(1, 300)
_simple = st.one_of(
    st.just(Nop()),
    st.just(Sync()),
    st.just(SyncHost()),
    st.builds(DebugTag, tag=st.integers(0, 9)),
    st.builds(
        Configure,
        key=st.just(Configure.KEY_POOLING),
        value=st.builds(
            pack_pooling_config,
            window=st.integers(1, 3), stride=st.integers(1, 2),
            height=st.just(8), width=st.just(8), channels=st.just(16),
        ),
    ),
    st.builds(Configure, key=st.just(Configure.KEY_MODE), value=st.integers(0, 3)),
    st.builds(ReadHostMemory, buffer_id=st.just(0), ub_row=st.just(0), rows=st.integers(0, 64)),
    st.builds(WriteHostMemory, buffer_id=st.just(1), ub_row=st.just(0), rows=st.integers(0, 64)),
    st.builds(
        Activate, acc_row=st.just(0), ub_row=st.just(0), rows=_rows,
        lanes=st.integers(1, 256), function=st.just(Activation.RELU), scale_id=st.just(0),
    ),
    st.builds(
        VectorInstruction, kind=st.sampled_from([VectorKind.UNARY, VectorKind.POOL,
                                                 VectorKind.IM2COL, VectorKind.SOFTMAX]),
        src_row=st.just(0), dst_row=st.just(0), rows=_rows, lanes=st.integers(1, 256),
        scale_id=st.just(0),
    ),
)
_matmul = st.builds(
    MatrixMultiply, ub_row=st.just(0), acc_row=st.just(0), rows=_rows,
    accumulate=st.booleans(), load_new_tile=st.booleans(),
    weight_bits=st.sampled_from([8, 16]), activation_bits=st.sampled_from([8, 16]),
    convolve=st.booleans(),
)
_step = st.one_of(
    _simple,
    st.builds(ReadWeights, tile_id=st.sampled_from(sorted(TILES))),
    _matmul,
)


def _well_formed(steps):
    """Drop a tile-loading matmul whose Weight FIFO would be empty."""
    stream, queued = [], 0
    for instr in steps:
        if isinstance(instr, ReadWeights):
            queued += 1
        elif isinstance(instr, MatrixMultiply) and instr.load_new_tile:
            if not queued:
                instr = dataclasses.replace(instr, load_new_tile=False)
            else:
                queued -= 1
        stream.append(instr)
    return stream


def _program(instructions):
    return TPUProgram(
        name="hand", instructions=tuple(instructions), tiles=dict(TILES), scales=(),
        host_buffers={}, batch_size=1,
    )


class TestDeviceHandAssembled:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(_step, max_size=40), halt=st.booleans(),
           depth=st.sampled_from([1, 2, 4]))
    def test_sidecar_less_stream_matches_reference_loop(self, steps, halt, depth):
        stream = _well_formed(steps)
        if halt:
            stream.insert(len(stream) // 2, Halt())
        config = dataclasses.replace(TPU_V1, weight_fifo_tiles=depth)
        program = _program(stream)
        assert_same_run(TPUDevice(config).run(program), ReferenceDevice(config).run(program))

    def test_empty_weight_fifo_raises_like_reference(self):
        program = _program([
            Nop(),
            MatrixMultiply(ub_row=0, acc_row=0, rows=4, accumulate=False, load_new_tile=True),
        ])
        for device in (TPUDevice(), ReferenceDevice()):
            with pytest.raises(RuntimeError, match="empty Weight FIFO"):
                device.run(program)

    def test_unknown_instruction_raises_like_reference(self):
        class Bogus:
            opcode = 0

        program = _program([Nop(), Bogus()])
        for device in (TPUDevice(), ReferenceDevice()):
            with pytest.raises(TypeError, match="device cannot execute"):
                device.run(program)


# ----------------------------------------------------------------------
# compiler emission
# ----------------------------------------------------------------------
def assert_same_lowering(model, params=None):
    library = Lowering(model, TPU_V1, params=params).lower().program
    reference = PerTileLowering(model, TPU_V1, params=params).lower().program
    assert library.binary() == reference.binary()
    assert library.metadata == reference.metadata
    assert list(library.metadata) == list(reference.metadata)
    assert list(library.tiles) == list(reference.tiles)
    for tile_id, spec in library.tiles.items():
        other = reference.tiles[tile_id]
        assert (spec.rows, spec.cols, spec.dynamic) == (other.rows, other.cols, other.dynamic)
        if other.data is None:
            assert spec.data is None
        else:
            assert np.array_equal(spec.data, other.data)


class TestLowering:
    @pytest.mark.parametrize("name", ["bert_s", "gpt_s"])
    def test_transformer_emission_matches_per_tile_loop(self, name):
        assert_same_lowering(build_workload(name))

    @pytest.mark.parametrize("fixture", MODELS)
    def test_functional_compile_matches_per_tile_loop(self, fixture, request):
        model = request.getfixturevalue(fixture)
        _program, _codes, params = functional_compile(model)
        assert_same_lowering(model, params=params)
