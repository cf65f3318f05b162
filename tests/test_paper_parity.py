"""Paper-parity pins: registering the transformer family must not move
a single byte of the Table 1 six's compiled programs or table outputs.

The hashes below were recorded from the repo *before* the transformer
layer kinds, the per-token FC path, and the dynamic-tile weight charging
existed.  They pin:

* the compiled instruction stream of each paper workload (so compiler
  refactors shared with the transformer path provably leave the six's
  emission untouched), and
* the rendered text of Tables 1-8 (so analysis surfaces keep iterating
  exactly the paper registry).

If one of these legitimately needs to change (e.g. a deliberate
compiler improvement), re-record the constants in the same commit and
say why in its message.
"""

import dataclasses
import hashlib

import pytest
from oracles.device_reference import ReferenceDevice
from oracles.lowering_per_tile import PerTileLowering

from repro import perfcache
from repro.analysis import EXPERIMENTS
from repro.compiler.driver import TPUDriver
from repro.compiler.lowering import Lowering
from repro.core.config import TPU_V1
from repro.core.device import TPUDevice
from repro.nn.workloads import paper_workloads

#: sha256 of TPUProgram.binary() per paper workload (timing compile).
PROGRAM_SHA256 = {
    "mlp0": "99116d2ab8c7d2fc9e5cdf22423dfc3a24b1679f97e09815ca81cd2792b802f4",
    "mlp1": "d0a8a777b849c8006dd5baa832daaf4a30057e70f5257a127de8675e25720334",
    "lstm0": "f365b4742fb0465e8677fe258b6414cbf65d0668d7f3486763c4b89db9d2a918",
    "lstm1": "ebe083c501e10389d8ca3abbacca91ffe7a42c19ddf7ca9d36725337a6d6505a",
    "cnn0": "b2565ac7b08f8a1eab216b82dd5a7dc32bb7b804abcd162a66b70402e8a87705",
    "cnn1": "3a4d97042205579c36e272b5ec2df4f8f0bf230fa47c838a70bb5c67286a8b6f",
}

#: sha256 of ExperimentResult.text for the paper tables.
TABLE_TEXT_SHA256 = {
    "table1": "1cc516851e2945159a3b6bcbb0672f3597f39b94cc0b9f96ee72f7e1969306fd",
    "table2": "d837b19b431da1c2e68c8691cb7b3e4ea69cc29e1f6c7d6eeaed1c143e34d00e",
    "table3": "2a50345e7073b21eaecd3266f5abe570581213859b43ad5b0b99bf5980d58a38",
    "table4": "8bf7732a1640ddb67fd952ac2a9885da4ffad21ea08675ae4b4695bb1641d0ef",
    "table5": "d0a52ef10cca9dd5740c3e56fa7ec54b5242d219b8977e07f1198e645d82b8b9",
    "table6": "f9f093801a20a0d04613079483bda2d5603f31fba89ad124cf35dde2dabcdb9e",
    "table7": "3fd7c633c0ce151fdba98e89044bcbeb8b40352892988193cff2d4ee924cbea5",
    "table8": "c2d3af779b2d70f9c4fc383f1dd59897b5dab97b537ffb6df93146652cb8e0eb",
}


@pytest.mark.parametrize("name", list(PROGRAM_SHA256))
def test_paper_program_byte_identical(name):
    model = paper_workloads()[name]
    program = TPUDriver().compile(model).program
    assert hashlib.sha256(program.binary()).hexdigest() == PROGRAM_SHA256[name], (
        f"{name}: compiled instruction stream changed vs the pre-transformer "
        "seed; paper-parity surfaces must stay pinned"
    )


@pytest.mark.parametrize("exp_id", list(TABLE_TEXT_SHA256))
def test_paper_table_text_byte_identical(exp_id):
    result = EXPERIMENTS[exp_id]()
    assert hashlib.sha256(result.text.encode()).hexdigest() == TABLE_TEXT_SHA256[exp_id], (
        f"{exp_id}: rendered table changed vs the pre-transformer seed"
    )


@pytest.mark.parametrize("exp_id", list(TABLE_TEXT_SHA256))
def test_paper_table_text_pinned_with_perfcache_disabled(exp_id):
    """The perfcache must be a pure memo: bypassing it cannot move a byte.

    The default-path test above runs with the cache enabled, so together
    they pin Tables 1-8 with the cache both on and off.
    """
    with perfcache.disabled():
        result = EXPERIMENTS[exp_id]()
    assert hashlib.sha256(result.text.encode()).hexdigest() == TABLE_TEXT_SHA256[exp_id], (
        f"{exp_id}: rendered table changed when the perfcache was bypassed"
    )


@pytest.mark.oracle
@pytest.mark.parametrize("name", list(PROGRAM_SHA256))
def test_vectorized_device_path_bit_identical(name):
    """The device's timing-plan replay must match the frozen
    per-instruction loop (tests/oracles/device_reference.py).

    Cycle counts, seconds, the cycle breakdown, and every counter --
    including the int-vs-float type of each value, which the Table 3
    rendering distinguishes -- must be identical.  (The pinned tables
    above already run through the library engine, so this localizes any
    future divergence to the device layer.)
    """
    program = TPUDriver.shared().compile(paper_workloads()[name]).program
    library = TPUDevice().run(program)
    reference = ReferenceDevice().run(program)
    assert library.cycles == reference.cycles
    assert library.seconds == reference.seconds
    assert dataclasses.asdict(library.breakdown) == dataclasses.asdict(reference.breakdown)
    assert library.counters == reference.counters
    assert {k: type(v) for k, v in library.counters.items()} == {
        k: type(v) for k, v in reference.counters.items()
    }


@pytest.mark.oracle
@pytest.mark.parametrize("name", list(PROGRAM_SHA256))
def test_fast_lowering_bit_identical(name):
    """The compiler's emission must match the frozen per-tile loop
    (tests/oracles/lowering_per_tile.py): same instruction stream, same
    dependency tokens, same metadata -- byte for byte, in the same key
    order.  (The pinned program hashes above run through the library
    path; this localizes any future divergence to the emission pass.)"""
    model = paper_workloads()[name]
    library = Lowering(model, TPU_V1).lower()
    reference = PerTileLowering(model, TPU_V1).lower()
    assert library.program.binary() == reference.program.binary()
    assert library.program.metadata == reference.program.metadata
    assert list(library.program.metadata) == list(reference.program.metadata)


@pytest.mark.oracle
@pytest.mark.parametrize("name", list(PROGRAM_SHA256))
def test_oracle_lowering_reproduces_program_pins(name):
    """The pins hold through the oracle emission too, so a re-recorded
    pin cannot silently bless a drift in the library alone."""
    program = PerTileLowering(paper_workloads()[name], TPU_V1).lower().program
    assert hashlib.sha256(program.binary()).hexdigest() == PROGRAM_SHA256[name]
