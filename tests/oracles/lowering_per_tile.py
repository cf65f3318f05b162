"""The per-tile matmul emission loop, frozen as the oracle for
:class:`repro.compiler.lowering.Lowering`.

This is the compiler's emission as it was before the library hoisted
loop-invariant work out of the matmul passes: tiles are registered one
:class:`~repro.compiler.tiling.TileCoord` at a time, every
Read_Weights/MatrixMultiply is a freshly built instruction, and each
K-step asks the dependency tracker for its own source and accumulator
tokens.  It is slow and obviously right, which is what an oracle is for;
the parity properties in ``tests/test_oracles.py`` and
``tests/test_paper_parity.py`` demand the same ``binary()`` and the same
metadata, key order included.

Do not optimise this file; change it only when the compiler's emitted
programs are meant to change.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.lowering import ROW_BYTES, InstrDeps, LoweredTensor, Lowering
from repro.compiler.tiling import tile_matmul
from repro.isa.instructions import MatrixMultiply, ReadWeights
from repro.isa.program import TileSpec


class PerTileLowering(Lowering):
    """:class:`Lowering` with the per-tile reference emission loop."""

    def _weight_tiles(
        self, layer_name: str, k: int, n: int, dynamic: bool = False
    ) -> dict[int, list[tuple[int, int, int, int, int]]]:
        weight = None
        if not dynamic and self.params is not None and layer_name in self.params.weights:
            weight = self.params.weights[layer_name].data
        stripes: dict[int, list[tuple[int, int, int, int, int]]] = {}
        for coord in tile_matmul(k, n, self.dim):
            tile_id = len(self._tiles)
            data = None
            if weight is not None:
                data = np.ascontiguousarray(
                    weight[coord.k0 : coord.k0 + coord.k, coord.n0 : coord.n0 + coord.n]
                )
            self._tiles[tile_id] = TileSpec(
                tile_id=tile_id, rows=coord.k, cols=coord.n, data=data, dynamic=dynamic
            )
            stripes.setdefault(coord.n0, []).append((tile_id, coord.k0, coord.k, coord.n0, coord.n))
        return stripes

    def _matmul_pass(
        self,
        stripe: list[tuple[int, int, int, int, int]],
        src_tokens_of_group,
        src_row_of_group,
        rows: int,
        acc_base: int,
        convolve: bool = False,
        rw_reads: tuple[int, ...] = (),
    ) -> None:
        for seq, (tile_id, k0, _k_ext, _n0, _n_ext) in enumerate(stripe):
            group = k0 // self.dim
            self._emit(ReadWeights(tile_id=tile_id), InstrDeps(reads=rw_reads))
            acc_writes, acc_war = (
                self._acc_write(acc_base, rows) if seq == 0 else ((), ())
            )
            if seq > 0:
                # Accumulating writes read-modify-write the same rows.
                acc_reads = self._tracker.read("acc", acc_base, acc_base + rows)
            else:
                acc_reads = ()
            self._emit(
                MatrixMultiply(
                    ub_row=src_row_of_group(group),
                    acc_row=acc_base,
                    rows=rows,
                    accumulate=seq > 0,
                    load_new_tile=True,
                    convolve=convolve,
                    weight_bits=self.weight_bits,
                    activation_bits=self.activation_bits,
                ),
                InstrDeps(
                    reads=tuple(src_tokens_of_group(group)) + acc_reads,
                    writes=acc_writes,
                    war=acc_war,
                ),
            )

    def _pass_inputs(self, src_t: LoweredTensor, r0: int, rows: int):
        return (
            lambda g: self._read_tensor_range(src_t, r0, rows, g * ROW_BYTES, ROW_BYTES),
            lambda g: src_t.group_row(g, r0),
        )
