"""Lowering equivalence: one IR, three runtimes, one set of bits.

Property test over randomized small meshes (channelized and variable
``dz_layers`` geomodels, both float dtypes): the event and fused
lowerings of the same IR must agree **bitwise** (they share a conform
fold class), and lockstep must agree within the documented
summation-order tolerance (identical operations, different final
additions — see tests/integration/test_equivalence.py).  On
forced-order fabric shapes all three coincide exactly.
"""

import numpy as np
import pytest

from repro.core import CartesianMesh3D, FluidProperties, random_pressure
from repro.dataflow import WseFluxComputation
from repro.ir import FusedFluxComputation, derive_ir, ir_from_fabric
from repro.ir.lower import (
    lower_to_event,
    lower_to_fused,
    lower_to_lockstep,
)
from repro.ir import schedule
from repro.workloads.geomodels import make_geomodel
from repro.wse.fabric import Fabric

DTYPES = (np.float32, np.float64)
SEEDS = range(4)
APPLICATIONS = 2


def _random_mesh(seed: int, geomodel: str) -> CartesianMesh3D:
    rng = np.random.default_rng(seed)
    nx = int(rng.integers(2, 6))
    ny = int(rng.integers(1, 5))
    nz = int(rng.integers(2, 6))
    if geomodel == "dz_layers":
        dz_layers = [round(t, 3) for t in rng.uniform(0.5, 3.0, size=nz)]
        return make_geomodel(
            nx, ny, nz, kind="channelized", seed=seed, dz_layers=dz_layers
        )
    return make_geomodel(nx, ny, nz, kind=geomodel, seed=seed)


class TestLoweringsAgree:
    @pytest.mark.parametrize("geomodel", ["channelized", "dz_layers"])
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_event_fused_bitwise_lockstep_ulp_bounded(
        self, seed, dtype, geomodel
    ):
        mesh = _random_mesh(seed, geomodel)
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        pressures = [
            random_pressure(mesh, seed=100 * seed + k)
            for k in range(APPLICATIONS)
        ]
        event = lower_to_event(ir, mesh, fluid)
        lockstep = lower_to_lockstep(ir, mesh, fluid)
        fused = lower_to_fused(ir, mesh, fluid)
        batch = fused.run(pressures, keep_all=True)
        for k, pressure in enumerate(pressures):
            r_event = event.run_single(pressure).residual
            r_fused = batch.residuals[k]
            assert r_fused.dtype == r_event.dtype == np.dtype(dtype)
            assert (r_event == r_fused).all(), (
                f"fused diverged from event bitwise on seed={seed} "
                f"{geomodel} {mesh.nx}x{mesh.ny}x{mesh.nz} app {k}"
            )
            r_lock = lockstep.run_application(pressure)
            tol = 1e-6 if dtype is np.float32 else 1e-14
            scale = float(np.abs(r_event).max())
            np.testing.assert_allclose(r_lock, r_event, atol=tol * scale)

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_forced_order_mesh_makes_all_three_bitwise(self, dtype):
        mesh = CartesianMesh3D(2, 1, 5)
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        pressure = random_pressure(mesh, seed=7)
        r_event = lower_to_event(ir, mesh, fluid).run_single(pressure).residual
        r_lock = lower_to_lockstep(ir, mesh, fluid).run_application(pressure)
        r_fused = lower_to_fused(ir, mesh, fluid).run([pressure]).residual
        assert (r_event == r_lock).all()
        assert (r_event == r_fused).all()

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    @pytest.mark.parametrize(
        "shape", [(1, 7, 3), (6, 1, 2), (1, 1, 3)], ids=str
    )
    def test_degenerate_fabrics_fold_bitwise(self, shape, dtype):
        """1xN and Nx1 fabrics are where the strided fold's edge lines
        and interior parities collapse into each other."""
        mesh = make_geomodel(*shape, kind="lognormal", seed=5)
        fluid = FluidProperties()
        ir = derive_ir(mesh, dtype=dtype)
        pressure = random_pressure(mesh, seed=11)
        r_event = lower_to_event(ir, mesh, fluid).run_single(pressure).residual
        r_fused = lower_to_fused(ir, mesh, fluid).run([pressure]).residual
        assert (r_event == r_fused).all()

    def test_ir_lowered_event_matches_the_plain_event_driver(self):
        """Consuming IR-carried routes must not change the event bits."""
        mesh = make_geomodel(4, 3, 4, kind="channelized", seed=3)
        fluid = FluidProperties()
        pressure = random_pressure(mesh, seed=1)
        plain = WseFluxComputation(mesh, fluid).run_single(pressure).residual
        lowered = (
            lower_to_event(derive_ir(mesh), mesh, fluid)
            .run_single(pressure)
            .residual
        )
        assert (plain == lowered).all()


class TestLoweringGuards:
    def test_bare_fabric_ir_refuses_to_lower(self):
        ir = ir_from_fabric(Fabric(2, 2))
        mesh = CartesianMesh3D(2, 2, 2)
        with pytest.raises(ValueError, match="fabric"):
            lower_to_fused(ir, mesh, FluidProperties())

    def test_mesh_mismatch_is_rejected(self):
        ir = derive_ir(CartesianMesh3D(3, 3, 3))
        with pytest.raises(ValueError, match="mesh"):
            lower_to_fused(ir, CartesianMesh3D(3, 3, 4), FluidProperties())

    def test_no_reuse_program_is_rejected(self):
        mesh = CartesianMesh3D(3, 3, 2)
        ir = derive_ir(mesh, reuse_buffers=False)
        with pytest.raises(ValueError, match="reuse_buffers"):
            lower_to_fused(ir, mesh, FluidProperties())


class TestColdStart:
    def test_construction_never_runs_the_event_probe(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fused construction ran the event probe")

        monkeypatch.setattr(schedule, "_probe", refuse)
        mesh = CartesianMesh3D(9, 8, 2)
        drv = FusedFluxComputation(mesh, FluidProperties())
        drv.run([random_pressure(mesh, seed=1)])
        assert len(drv.ir.annotations["fold_schedule"]) == 16


class TestAccounting:
    def test_fused_report_equals_lockstep_report(self):
        """Fused books the halo FMOVs it never performs."""
        mesh = CartesianMesh3D(16, 12, 6)
        fluid = FluidProperties()
        ir = derive_ir(mesh)
        pressures = [random_pressure(mesh, seed=k) for k in range(2)]
        fused = lower_to_fused(ir, mesh, fluid)
        fused.run(pressures)
        lockstep = lower_to_lockstep(ir, mesh, fluid)
        lockstep.run(pressures)
        got, want = fused.report(), lockstep.report()
        assert got.instruction_counts == want.instruction_counts
        assert got.instruction_counts["FMOV"] == 32_928
        assert got.flops == want.flops
        assert got.fabric_words_received == want.fabric_words_received
        assert got.fabric_word_hops == want.fabric_word_hops
        assert got.compute_cycles == want.compute_cycles
