"""Unit tests for CartesianMesh3D."""

import tracemalloc

import numpy as np
import pytest

from repro.core import CartesianMesh3D


class TestConstruction:
    def test_basic_shape(self, small_mesh):
        assert small_mesh.shape_xyz == (6, 5, 4)
        assert small_mesh.shape_zyx == (4, 5, 6)
        assert small_mesh.num_cells == 120

    def test_cell_volume(self):
        m = CartesianMesh3D(2, 2, 2, dx=10.0, dy=5.0, dz=2.0)
        assert m.cell_volume == pytest.approx(100.0)

    def test_scalar_permeability_broadcast(self, small_mesh):
        assert small_mesh.permeability.shape == small_mesh.shape_zyx
        assert np.all(small_mesh.permeability == small_mesh.permeability[0, 0, 0])

    def test_array_permeability_kept(self, hetero_mesh):
        assert hetero_mesh.permeability.shape == hetero_mesh.shape_zyx
        assert hetero_mesh.permeability.std() > 0

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="nx"):
            CartesianMesh3D(0, 2, 2)

    def test_rejects_float_dimension(self):
        with pytest.raises(ValueError, match="ny"):
            CartesianMesh3D(2, 2.5, 2)

    def test_rejects_negative_spacing(self):
        with pytest.raises(ValueError, match="dz"):
            CartesianMesh3D(2, 2, 2, dz=-1.0)

    def test_rejects_nonpositive_permeability(self):
        with pytest.raises(ValueError, match="permeability"):
            CartesianMesh3D(2, 2, 2, permeability=0.0)

    def test_rejects_wrong_shape_permeability(self):
        with pytest.raises(ValueError, match="permeability"):
            CartesianMesh3D(2, 2, 2, permeability=np.ones((3, 2, 2)) * 1e-13)

    def test_numpy_integer_dims_accepted(self):
        m = CartesianMesh3D(np.int64(3), np.int32(2), np.int64(2))
        assert m.shape_xyz == (3, 2, 2)


class TestMemory:
    def test_homogeneous_rock_allocates_nothing_per_cell(self):
        """Twice the paper's plane at full depth is 733M cells; dense
        scalar rock fields would take 11.7 GB before any cell is used."""
        tracemalloc.start()
        try:
            mesh = CartesianMesh3D(1500, 1988, 246)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert mesh.permeability.shape == mesh.shape_zyx
        assert not mesh.permeability.flags.writeable
        assert not mesh.porosity.flags.writeable


class TestGeometry:
    def test_elevation_varies_only_in_z(self, small_mesh):
        z = small_mesh.elevation
        assert z.shape == small_mesh.shape_zyx
        assert np.all(z[0] == z[0, 0, 0])
        np.testing.assert_allclose(
            z[:, 0, 0], (np.arange(4) + 0.5) * small_mesh.dz
        )

    def test_elevation_honours_origin(self):
        m = CartesianMesh3D(2, 2, 2, dz=4.0, origin=(0.0, 0.0, 100.0))
        assert m.elevation[0, 0, 0] == pytest.approx(102.0)

    def test_cell_centre(self):
        m = CartesianMesh3D(3, 3, 3, dx=2.0, dy=4.0, dz=6.0, origin=(1.0, 2.0, 3.0))
        assert m.cell_centre(0, 0, 0) == pytest.approx((2.0, 4.0, 6.0))
        assert m.cell_centre(2, 1, 0) == pytest.approx((6.0, 8.0, 6.0))


class TestIndexing:
    def test_cell_index_order(self, small_mesh):
        assert small_mesh.cell_index(1, 2, 3) == (3, 2, 1)

    def test_cell_index_bounds(self, small_mesh):
        with pytest.raises(IndexError):
            small_mesh.cell_index(6, 0, 0)
        with pytest.raises(IndexError):
            small_mesh.cell_index(0, -1, 0)

    def test_flat_index_row_major_x_innermost(self, small_mesh):
        # (x=0..) consecutive in memory
        assert small_mesh.flat_index(1, 0, 0) - small_mesh.flat_index(0, 0, 0) == 1
        assert (
            small_mesh.flat_index(0, 1, 0) - small_mesh.flat_index(0, 0, 0)
            == small_mesh.nx
        )
        assert (
            small_mesh.flat_index(0, 0, 1) - small_mesh.flat_index(0, 0, 0)
            == small_mesh.nx * small_mesh.ny
        )

    def test_flat_index_matches_ravel(self, small_mesh):
        field = np.arange(small_mesh.num_cells, dtype=np.float64).reshape(
            small_mesh.shape_zyx
        )
        x, y, z = 4, 3, 2
        assert field.ravel()[small_mesh.flat_index(x, y, z)] == field[z, y, x]


class TestFieldHelpers:
    def test_full_and_zeros(self, small_mesh):
        f = small_mesh.full(3.0)
        assert f.shape == small_mesh.shape_zyx
        assert np.all(f == 3.0)
        assert np.all(small_mesh.zeros() == 0.0)

    def test_validate_field(self, small_mesh):
        small_mesh.validate_field(small_mesh.zeros())
        with pytest.raises(ValueError, match="myname"):
            small_mesh.validate_field(np.zeros((1, 1, 1)), name="myname")

    def test_column_is_view(self, small_mesh):
        f = small_mesh.zeros()
        col = small_mesh.column(f, 2, 3)
        col[:] = 7.0
        assert np.all(f[:, 3, 2] == 7.0)
        assert col.shape == (small_mesh.nz,)

    def test_column_bounds(self, small_mesh):
        with pytest.raises(IndexError):
            small_mesh.column(small_mesh.zeros(), 6, 0)
