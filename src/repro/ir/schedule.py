"""The event backend's fold schedule, as a closed-form table.

The fused backend replays the event backend's *exact* per-PE summation
order, so it must know in which order each PE's eight X-Y halo messages
arrive.  The fabric program's schedule is static — fixed per-direction
sends and receives plus the rotating two-hop diagonal (paper Sec. 5) —
so that order needs no timing run: it is a pure function of the PE's
*class*, eight bits written ``pppp eeee`` in the tables below:

* ``pppp`` — the parities ``x % 2``, ``(nx-1-x) % 2``, ``y % 2`` and
  ``(ny-1-y) % 2``;
* ``eeee`` — the edge flags ``x == 0``, ``x == nx-1``, ``y == 0`` and
  ``y == ny-1``.

Each table row lists one class's arrival order (``N`` is ``NORTH``,
``SE`` is ``SOUTHEAST``, ...).  81 classes occur: 64 on fabrics at
least 2 wide on both axes, 16 more on the degenerate ``nx == 1`` /
``ny == 1`` rows, and the lone PE of a 1x1 fabric, which receives
nothing.

The table was read off :func:`_probe` — one event-simulator
application at ``nz=1``, float32, flux kernel off, that records every
delivery — on every fabric from 1x1 to 9x9.  ``_probe`` stays in this
module only as the tests' oracle: they check the table against it over
a held-out size sweep, vectorized and scalar.  No construction path
runs it.

Measured invariances (pinned by tests): with ``reuse_buffers=True`` the
order is independent of ``vectorized``, ``nz``, the dtype and
``compute_fluxes`` (and ``overlap_compute`` must be on), so one table
describes every such program.  Without buffer reuse the order also
changes with ``nz``, the dtype, ``compute_fluxes`` and
``overlap_compute``; no table is kept for it, and both this module and
the fused backend refuse ``reuse_buffers=False``.

At a fixed ``(nx, ny)`` the classes cut the fabric into at most 16
blocks — per axis the two edge lines and the two interior parities,
each a basic slice — which :func:`fold_blocks` returns for the fused
backend's strided in-place fold.  The blocks are a *derived
annotation* of the IR (:meth:`FabricProgramIR.annotate` under
``"fold_schedule"``), excluded from the content hash.
"""

from __future__ import annotations

import numpy as np

__all__ = ["arrival_schedule", "fold_blocks"]

_NAMES = {
    "E": "EAST",
    "W": "WEST",
    "N": "NORTH",
    "S": "SOUTH",
    "NE": "NORTHEAST",
    "NW": "NORTHWEST",
    "SE": "SOUTHEAST",
    "SW": "SOUTHWEST",
}


def _parse(text: str) -> dict[str, tuple[str, ...]]:
    table = {}
    for line in text.strip().splitlines():
        parities, edges, *order = line.split()
        table[parities + edges] = tuple(_NAMES[name] for name in order)
    return table


#: reuse_buffers=True (either vectorized)
_REUSE = _parse(
    """
    0000 0000  NW NE SW SE N W E S
    0000 0001  NW NE W E N
    0000 0010  SW SE W E S
    0000 0011  W E
    0000 0100  NW SW N S W
    0000 0101  NW N W
    0000 0110  SW W S
    0000 0111  W
    0000 1000  NE SE N S E
    0000 1001  NE N E
    0000 1010  SE E S
    0000 1011  E
    0000 1100  N S
    0000 1101  N
    0000 1110  S
    0000 1111
    0001 0000  S NW NE SW SE N W E
    0001 0010  S SW SE W E
    0001 0100  S NW SW N W
    0001 0110  S SW W
    0001 1000  S NE SE N E
    0001 1010  S SE E
    0001 1100  S N
    0001 1110  S
    0010 0000  N NE SW SE NW W E S
    0010 0001  N NE NW W E
    0010 0100  N SW NW S W
    0010 0101  N NW W
    0010 1000  N NE SE S E
    0010 1001  N NE E
    0010 1100  N S
    0010 1101  N
    0011 0000  N S NE SW NW SE W E
    0011 0100  N S SW NW W
    0011 1000  N S NE SE E
    0011 1100  N S
    0100 0000  E NW SW SE NE N W S
    0100 0001  E NW NE W N
    0100 0010  E SW SE W S
    0100 0011  E W
    0100 1000  E SE NE N S
    0100 1001  E NE N
    0100 1010  E SE S
    0100 1011  E
    0101 0000  E S NW SW NE SE N W
    0101 0010  E S SW SE W
    0101 1000  E S NE SE N
    0101 1010  E S SE
    0110 0000  N E SW SE NW NE W S
    0110 0001  N E NW NE W
    0110 1000  N E SE NE S
    0110 1001  N E NE
    0111 0000  N E S SW NW NE SE W
    0111 1000  N E S NE SE
    1000 0000  W NW NE SE SW N E S
    1000 0001  W NW NE E N
    1000 0010  W SE SW E S
    1000 0011  W E
    1000 0100  W NW SW N S
    1000 0101  W NW N
    1000 0110  W SW S
    1000 0111  W
    1001 0000  W S NW NE SW SE N E
    1001 0010  W S SW SE E
    1001 0100  W S NW SW N
    1001 0110  W S SW
    1010 0000  N W NE SE NW SW E S
    1010 0001  N W NE NW E
    1010 0100  N W NW SW S
    1010 0101  N W NW
    1011 0000  N W S NE NW SW SE E
    1011 0100  N W S NW SW
    1100 0000  W E NW SE NE SW N S
    1100 0001  W E NW NE N
    1100 0010  W E SE SW S
    1100 0011  W E
    1101 0000  W E S NW NE SW SE N
    1101 0010  W E S SW SE
    1110 0000  N W E SE NW NE SW S
    1110 0001  N W E NW NE
    1111 0000  N W E S NW NE SW SE
"""
)

def _check_options(reuse_buffers: bool, overlap_compute: bool) -> None:
    if not reuse_buffers:
        raise ValueError(
            "the fold schedule needs reuse_buffers=True: without buffer "
            "reuse the event arrival order also depends on nz, dtype, "
            "compute_fluxes and overlap_compute, which it does not tabulate"
        )
    if not overlap_compute:
        raise ValueError(
            "overlap_compute=False requires reuse_buffers=False "
            "(deferred compute needs every halo live)"
        )


def _class(x: int, y: int, nx: int, ny: int) -> str:
    bits = (
        x % 2,
        (nx - 1 - x) % 2,
        y % 2,
        (ny - 1 - y) % 2,
        x == 0,
        x == nx - 1,
        y == 0,
        y == ny - 1,
    )
    return "".join(str(int(bit)) for bit in bits)


def _axis_blocks(n: int) -> list[tuple[int, slice]]:
    """One axis's classes: a representative coordinate and the basic
    slice of every coordinate in the class."""
    blocks = [(0, slice(0, 1))]
    if n > 1:
        blocks.append((n - 1, slice(n - 1, n)))
    for first in (1, 2):  # interior, odd then even
        if first < n - 1:
            blocks.append((first, slice(first, n - 1, 2)))
    return blocks


def fold_blocks(nx: int, ny: int) -> list[tuple[slice, slice, tuple[str, ...]]]:
    """The fabric's PEs grouped by arrival order, as ``(ys, xs, order)``.

    ``ys`` and ``xs`` are basic slices of the logical y and x axes;
    every PE they select receives its X-Y halos in ``order``
    (connection names).  The at most 16 blocks are disjoint and cover
    the fabric.
    """
    return [
        (ys, xs, _REUSE[_class(x, y, nx, ny)])
        for y, ys in _axis_blocks(ny)
        for x, xs in _axis_blocks(nx)
    ]


def arrival_schedule(
    nx: int,
    ny: int,
    *,
    reuse_buffers: bool = True,
    overlap_compute: bool = True,
    vectorized: bool = True,
) -> dict[tuple[int, int], tuple[str, ...]]:
    """Per-PE X-Y halo arrival order, as connection names.

    Maps each logical ``(x, y)`` that receives halos to the tuple of
    connection names in the order the event runtime delivers them — the
    serial fold order of that PE's residual accumulation.  Only
    ``reuse_buffers=True`` programs are tabulated; ``vectorized`` does
    not change their order.
    """
    _check_options(reuse_buffers, overlap_compute)
    schedule = {}
    for ys, xs, order in fold_blocks(nx, ny):
        if order:
            for y in range(ny)[ys]:
                for x in range(nx)[xs]:
                    schedule[(x, y)] = order
    return schedule


def _probe(
    nx: int,
    ny: int,
    reuse_buffers: bool,
    overlap_compute: bool,
    vectorized: bool,
    *,
    nz: int = 1,
    dtype=np.float32,
    compute_fluxes: bool = False,
) -> dict[tuple[int, int], tuple[str, ...]]:
    """The tables' oracle: one event application, recording every PE's
    deliveries.

    The defaults (``nz=1``, flux kernel disabled) keep the probe cheap;
    with buffer reuse they do not change the delivery order (measured
    invariance, see module docstring).
    """
    from repro.core.fluid import FluidProperties
    from repro.core.mesh import CartesianMesh3D
    from repro.dataflow.program import FluxProgram
    from repro.wse.perf import WSE2
    from repro.wse.runtime import EventRuntime

    mesh = CartesianMesh3D(nx, ny, nz)
    program = FluxProgram(
        mesh,
        FluidProperties(),
        dtype=dtype,
        reuse_buffers=reuse_buffers,
        overlap_compute=overlap_compute,
        vectorized=vectorized,
        compute_fluxes=compute_fluxes,
    )
    orders: dict[tuple[int, int], list] = {}
    original = program._receive_neighbour

    def capture(pe, msg, conn):
        orders.setdefault(pe.state["logical"], []).append(conn)
        original(pe, msg, conn)

    # instance-attribute override shadows the bound method: the receive
    # tasks look up ``self._receive_neighbour`` at call time
    program._receive_neighbour = capture
    rt = EventRuntime(program.fabric, WSE2)
    program.load_pressure(np.zeros((nz, ny, nx)))
    program.begin_application(rt)
    rt.run()
    program.verify_deliveries()
    return {
        coord: tuple(conn.name for conn in arrivals)
        for coord, arrivals in orders.items()
    }
