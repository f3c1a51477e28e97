"""The closed-form fold schedule against its event-simulator oracle.

``arrival_schedule`` is a table lookup; ``_probe`` runs one event
application and records every delivery.  The table was read off the
probe on fabrics up to 9x9, so the sweep here holds out larger,
degenerate, odd and non-square fabrics.
"""

import numpy as np
import pytest

from repro.ir.schedule import (
    _REUSE,
    _class,
    _probe,
    arrival_schedule,
    fold_blocks,
)

#: every parity mix of (nx, ny) - odd, even, 1 - so that the sweep
#: reaches each of the table's 81 classes
SIZES = [
    (1, 1),
    (1, 10),
    (1, 11),
    (10, 1),
    (11, 1),
    (2, 2),
    (12, 10),
    (11, 10),
    (10, 13),
    (13, 11),
    (3, 17),
    (67, 4),
]


class TestTableMatchesProbe:
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_table_equals_probe(self, size, vectorized):
        nx, ny = size
        assert arrival_schedule(nx, ny, vectorized=vectorized) == _probe(
            nx, ny, True, True, vectorized
        )

    def test_sweep_reaches_every_class(self):
        reached = {
            _class(x, y, nx, ny)
            for nx, ny in SIZES
            for y in range(ny)
            for x in range(nx)
        }
        assert reached == set(_REUSE)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_order_is_independent_of_nz_dtype_and_flux_kernel(
        self, vectorized
    ):
        probed = _probe(
            7,
            6,
            True,
            True,
            vectorized,
            nz=3,
            dtype=np.float64,
            compute_fluxes=True,
        )
        assert arrival_schedule(7, 6) == probed

    def test_no_reuse_order_depends_on_the_dtype(self):
        """Why no reuse_buffers=False table is kept: its order would
        hold only at one nz/dtype/flux-kernel setting."""
        assert _probe(7, 6, False, True, True) != _probe(
            7, 6, False, True, True, dtype=np.float64
        )

    def test_no_reuse_is_rejected(self):
        with pytest.raises(ValueError, match="reuse_buffers=True"):
            arrival_schedule(4, 4, reuse_buffers=False)

    def test_invalid_option_combination_is_rejected(self):
        with pytest.raises(ValueError, match="overlap_compute"):
            arrival_schedule(4, 4, overlap_compute=False)


class TestFoldBlocks:
    @pytest.mark.parametrize(
        "size", [(1, 1), (1, 5), (5, 1), (2, 3), (3, 3), (8, 5), (64, 65)]
    )
    def test_blocks_partition_the_fabric(self, size):
        nx, ny = size
        blocks = fold_blocks(nx, ny)
        assert len(blocks) <= 16
        hits = np.zeros((ny, nx), dtype=int)
        for ys, xs, _order in blocks:
            hits[ys, xs] += 1
        assert (hits == 1).all()

    def test_blocks_expand_to_the_schedule(self):
        nx, ny = 12, 9
        expanded = {
            (x, y): order
            for ys, xs, order in fold_blocks(nx, ny)
            for y in range(ny)[ys]
            for x in range(nx)[xs]
        }
        assert expanded == arrival_schedule(nx, ny)
