"""3D Cartesian mesh with geometry and rock properties (paper Secs. 3, 5.1).

The data domain is an ``Nx x Ny x Nz`` Cartesian mesh (Fig. 4).  Arrays are
stored C-ordered with shape ``(nz, ny, nx)`` so the X dimension is innermost
— exactly the memory layout of the paper's GPU reference implementation
(Sec. 6) — while the public API speaks in ``(x, y, z)`` cell coordinates.

Gravity acts along the Z axis; ``elevation`` returns cell-centre z
coordinates used in the potential difference of Eq. 3b.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import constants
from repro.util.arrays import broadcast_to_shape, check_positive

__all__ = ["CartesianMesh3D"]


@dataclass
class CartesianMesh3D:
    """Uniform-spacing Cartesian mesh carrying per-cell rock properties.

    Parameters
    ----------
    nx, ny, nz:
        Number of cells per axis (all >= 1).
    dx, dy, dz:
        Cell spacing per axis [m].
    origin:
        Coordinate of the minimum corner of cell (0, 0, 0) [m].
    permeability:
        Scalar (homogeneous, kept as a read-only broadcast view) or
        ``(nz, ny, nx)`` array of kappa [m^2].
    porosity:
        Scalar or ``(nz, ny, nx)`` array of reference porosity [-]; only
        used by the implicit solver's accumulation term.
    dz_layers:
        Optional per-layer thicknesses, shape ``(nz,)`` [m].  Geological
        models routinely have non-uniform layering; when given, ``dz``
        is ignored, elevations/volumes follow the cumulative
        thicknesses, and vertical transmissibilities use each side's own
        half distance.
    """

    nx: int
    ny: int
    nz: int
    dx: float = 10.0
    dy: float = 10.0
    dz: float = 2.0
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    permeability: np.ndarray | float = constants.DEFAULT_PERMEABILITY
    porosity: np.ndarray | float = constants.DEFAULT_POROSITY
    dz_layers: np.ndarray | None = None
    _elevation: np.ndarray = field(init=False, repr=False)
    _dz_column: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{name}: must be a positive integer, got {n!r}")
            setattr(self, name, int(n))
        check_positive(self.dx, name="dx")
        check_positive(self.dy, name="dy")
        if self.dz_layers is not None:
            layers = np.ascontiguousarray(self.dz_layers, dtype=np.float64)
            if layers.shape != (self.nz,):
                raise ValueError(
                    f"dz_layers: expected shape ({self.nz},), got {layers.shape}"
                )
            check_positive(layers, name="dz_layers")
            self.dz_layers = layers
            self._dz_column = layers
            self.dz = float(layers.mean())
        else:
            check_positive(self.dz, name="dz")
            self._dz_column = np.full(self.nz, float(self.dz))
        self.permeability = self._rock_field(self.permeability, "permeability")
        self.porosity = self._rock_field(self.porosity, "porosity")
        z0 = self.origin[2]
        tops = z0 + np.concatenate(([0.0], np.cumsum(self._dz_column)))
        centres = 0.5 * (tops[:-1] + tops[1:])
        self._elevation = np.broadcast_to(
            centres[:, None, None], self.shape_zyx
        )

    def _rock_field(self, value, name: str) -> np.ndarray:
        """A validated rock-property field of the storage shape.

        A scalar becomes a read-only broadcast view (like ``elevation``),
        so a homogeneous mesh costs no memory per cell; an array is
        copied.
        """
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            check_positive(arr, name=name)
            return np.broadcast_to(arr, self.shape_zyx)
        arr = broadcast_to_shape(arr, self.shape_zyx, name=name)
        check_positive(arr, name=name)
        return arr

    # ------------------------------------------------------------------ #
    # Shape / size helpers
    # ------------------------------------------------------------------ #
    @property
    def shape_xyz(self) -> tuple[int, int, int]:
        """Logical dimensions ``(nx, ny, nz)`` as the paper writes them."""
        return (self.nx, self.ny, self.nz)

    @property
    def shape_zyx(self) -> tuple[int, int, int]:
        """Array storage shape ``(nz, ny, nx)`` (X innermost)."""
        return (self.nz, self.ny, self.nx)

    @property
    def num_cells(self) -> int:
        """Total number of cells ``Nx * Ny * Nz``."""
        return self.nx * self.ny * self.nz

    @property
    def is_uniform_z(self) -> bool:
        """True when every layer shares one thickness."""
        return self.dz_layers is None

    @property
    def dz_column(self) -> np.ndarray:
        """Per-layer thicknesses, shape ``(nz,)`` (uniform -> constant)."""
        return self._dz_column

    @property
    def cell_volume(self) -> float:
        """Uniform cell volume ``V_K = dx * dy * dz`` [m^3] (Eq. 2).

        Raises
        ------
        ValueError
            For variable layering — use :attr:`cell_volumes`.
        """
        if not self.is_uniform_z:
            raise ValueError(
                "cell_volume is undefined for variable layering; use "
                "cell_volumes"
            )
        return self.dx * self.dy * self.dz

    @property
    def cell_volumes(self) -> np.ndarray:
        """Per-cell volumes as a ``(nz, 1, 1)`` broadcastable array."""
        return (self.dx * self.dy * self._dz_column)[:, None, None]

    @property
    def spacing(self) -> tuple[float, float, float]:
        """Cell spacing ``(dx, dy, dz)`` (dz is the mean layer thickness
        for variable layering)."""
        return (self.dx, self.dy, self.dz)

    @property
    def elevation(self) -> np.ndarray:
        """Cell-centre z coordinates, shape ``(nz, ny, nx)`` (read-only view)."""
        return self._elevation

    # ------------------------------------------------------------------ #
    # Coordinate conversion
    # ------------------------------------------------------------------ #
    def cell_index(self, x: int, y: int, z: int) -> tuple[int, int, int]:
        """Convert cell coordinate ``(x, y, z)`` into an array index ``(z, y, x)``."""
        if not (0 <= x < self.nx and 0 <= y < self.ny and 0 <= z < self.nz):
            raise IndexError(f"cell ({x}, {y}, {z}) outside mesh {self.shape_xyz}")
        return (z, y, x)

    def flat_index(self, x: int, y: int, z: int) -> int:
        """Row-major flat index of cell ``(x, y, z)`` in a raveled field."""
        z_, y_, x_ = self.cell_index(x, y, z)
        return (z_ * self.ny + y_) * self.nx + x_

    def cell_centre(self, x: int, y: int, z: int) -> tuple[float, float, float]:
        """Physical coordinates of the cell centre [m]."""
        self.cell_index(x, y, z)
        ox, oy, _ = self.origin
        return (
            ox + (x + 0.5) * self.dx,
            oy + (y + 0.5) * self.dy,
            float(self._elevation[z, 0, 0]),
        )

    # ------------------------------------------------------------------ #
    # Field constructors
    # ------------------------------------------------------------------ #
    def full(self, value: float, dtype=np.float64) -> np.ndarray:
        """Allocate a constant cell field of the mesh's storage shape."""
        return np.full(self.shape_zyx, float(value), dtype=dtype)

    def zeros(self, dtype=np.float64) -> np.ndarray:
        """Allocate a zero cell field of the mesh's storage shape."""
        return np.zeros(self.shape_zyx, dtype=dtype)

    def validate_field(self, arr: np.ndarray, *, name: str = "field") -> np.ndarray:
        """Check that *arr* is a cell field of this mesh; return it unchanged."""
        if tuple(arr.shape) != self.shape_zyx:
            raise ValueError(
                f"{name}: expected shape {self.shape_zyx} (nz, ny, nx), got {tuple(arr.shape)}"
            )
        return arr

    # ------------------------------------------------------------------ #
    # Column access (dataflow mapping: one PE owns a whole Z column)
    # ------------------------------------------------------------------ #
    def column(self, arr: np.ndarray, x: int, y: int) -> np.ndarray:
        """View of field *arr* along the Z column at ``(x, y)`` (Sec. 5.1)."""
        self.validate_field(arr)
        if not (0 <= x < self.nx and 0 <= y < self.ny):
            raise IndexError(f"column ({x}, {y}) outside mesh plane")
        return arr[:, y, x]
