"""The three benchmark workloads, one per layer's public API.

Each workload builds its system cold from the seed (:meth:`setup`),
then answers closed-loop calls (:meth:`call`: the next call is sent only
after the previous one returned).  Every call returns the residual of
its last application; the session compares those against
:meth:`reference`, an independent backend, under :attr:`tolerance`.
:meth:`counts` returns the per-application counts of the last call,
which must repeat exactly from call to call and from process to process.

Rationale (which layer metric is predicted to move which end-to-end
metric) is recorded per workload in ``BENCHMARK.json`` and in the
class docstrings below.
"""

from __future__ import annotations

import time

import numpy as np

from repro.conform.tolerance import BIT_EXACT, ULP_BOUNDED, ToleranceClass
from repro.core import constants
from repro.core.fluid import FluidProperties
from repro.core.flux import compute_flux_residual
from repro.core.mesh import CartesianMesh3D
from repro.core.transmissibility import Transmissibility
from repro.workloads.geomodels import make_geomodel

from tracing import layer, peak_rss_mb, proc_hwm_mb

__all__ = ["WORKLOADS", "FLOAT32_ULP_BOUNDED"]

#: ``ULP_BOUNDED`` carries a float64 absolute escape (1e-12 of the
#: field's scale, about 4500 float64 epsilons); the same escape counted
#: in float32 epsilons.  A float32 residual compared across fold classes
#: has cells that cancel to near zero, where 16 ulps alone is too tight.
FLOAT32_ULP_BOUNDED = ToleranceClass(
    "ulp-bounded-float32",
    max_ulps=ULP_BOUNDED.max_ulps,
    rtol=ULP_BOUNDED.rtol
    * float(np.finfo(np.float32).eps / np.finfo(np.float64).eps),
)


def pressure_fields(shape_zyx, count: int, seed: int, dtype) -> list[np.ndarray]:
    """``count`` seeded pressure fields around the reference pressure."""
    fields = []
    for i in range(count):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        )
        field = constants.DEFAULT_REFERENCE_PRESSURE + 1.0e6 * rng.standard_normal(
            shape_zyx
        )
        fields.append(np.ascontiguousarray(field, dtype=dtype))
    return fields


class Workload:
    """Common shape of a workload; subclasses fill in the layer calls."""

    name = ""
    #: (nx, ny, nz)
    shape = (1, 1, 1)
    dtype = np.float32
    #: applications per call
    batch = 1
    #: distinct pressure fields, coprime to ``batch`` so the last field
    #: of successive calls visits every one of them
    pool = 4
    tolerance = BIT_EXACT

    def __init__(self) -> None:
        self.fluid = FluidProperties()
        self.mesh = None
        self.trans = None
        #: the independent backend :meth:`reference` runs, built on first use
        self._reference = None

    @property
    def cells(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def fields(self, seed: int) -> list[np.ndarray]:
        nx, ny, nz = self.shape
        return pressure_fields((nz, ny, nx), self.pool, seed, self.dtype)

    def build_mesh(self, seed: int) -> CartesianMesh3D:
        nx, ny, nz = self.shape
        return make_geomodel(nx, ny, nz, kind="lognormal", seed=seed)

    def _mesh_and_trans(self, seed: int) -> None:
        with layer("core.mesh.build"):
            self.mesh = self.build_mesh(seed)
        with layer("core.transmissibility.build"):
            self.trans = Transmissibility(self.mesh, dtype=self.dtype)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        pass

    def layer_metrics(self, view) -> dict[str, float]:
        return {
            "core.mesh.build_s": view.seconds("core.mesh.build"),
            "core.mesh.rss_mb": view.arg("core.mesh.build", "rss_growth_mb"),
            "core.transmissibility.build_s": view.seconds(
                "core.transmissibility.build"
            ),
        }


class FusedLarge(Workload):
    """128x128x32, homogeneous scalar rock properties, float32, 1 per call.

    The only workload of ``repro.ir``.  ``ir.schedule.arrival_s`` dominates ``setup_s`` and its probe
    (``ir.schedule.rss_mb``) sets ``peak_rss_mb``; ``ir.fused.rounds_s``
    (which includes the fold) dominates ``mcells_per_s``.  Checked
    against ``compute_flux_residual`` (float64) within
    :data:`FLOAT32_ULP_BOUNDED`.
    """

    name = "fused-large"
    shape = (128, 128, 32)
    batch = 1
    pool = 4
    tolerance = FLOAT32_ULP_BOUNDED

    def build_mesh(self, seed: int) -> CartesianMesh3D:
        nx, ny, nz = self.shape
        return CartesianMesh3D(nx, ny, nz)

    def reference(self, field: np.ndarray) -> np.ndarray:
        ref = compute_flux_residual(self.mesh, self.fluid, field.astype(np.float64))
        return ref.astype(self.dtype)

    def setup(self, seed: int, traced: bool) -> None:
        from repro.ir import FusedFluxComputation, arrival_schedule, derive_ir

        self._mesh_and_trans(seed)
        with layer("ir.builder.derive"):
            ir = derive_ir(self.mesh, dtype=self.dtype)
        with layer("ir.schedule.arrival"):
            arrival_schedule(self.mesh.nx, self.mesh.ny)
        with layer("ir.fused.init"):
            self.comp = FusedFluxComputation(
                self.mesh, self.fluid, self.trans, dtype=self.dtype, ir=ir
            )
        self._last = self.comp.report()

    def call(self, fields) -> np.ndarray:
        return self.comp.run(fields).residual

    def counts(self) -> dict[str, int]:
        rep = self.comp.report()
        last, self._last = self._last, rep
        apps = rep.applications - last.applications
        return {
            "ir.fused.flops_per_app": (rep.flops - last.flops) // apps,
            "ir.fused.fabric_words_per_app": (
                rep.fabric_words_received - last.fabric_words_received
            )
            // apps,
            "ir.fused.word_hops_per_app": (
                rep.fabric_word_hops - last.fabric_word_hops
            )
            // apps,
        }

    def bytes_per_app(self) -> int:
        """Computed compulsory traffic of one application: pressure in,
        residual out, elevation and the padded transmissibility fields."""
        itemsize = np.dtype(self.dtype).itemsize
        trans = sum(a.nbytes for a in self.comp.trans_fields.values())
        return 3 * self.cells * itemsize + trans

    def layer_metrics(self, view) -> dict[str, float]:
        out = super().layer_metrics(view)
        apps = view.call_apps
        local = view.self_within("bench.call", "fused.local")
        rounds = view.self_within("bench.call", "fused.rounds")
        host = view.self_within("bench.call", "fused.run")
        flops = view.counts["ir.fused.flops_per_app"]
        nbytes = self.bytes_per_app()
        out.update(
            {
                "ir.builder.derive_s": view.seconds("ir.builder.derive"),
                "ir.schedule.arrival_s": view.seconds("ir.schedule.arrival"),
                "ir.schedule.rss_mb": view.arg(
                    "ir.schedule.arrival", "rss_growth_mb"
                ),
                "ir.fused.init_s": view.seconds("ir.fused.init"),
                "ir.fused.local_s": local / apps,
                "ir.fused.rounds_s": rounds / apps,
                "ir.fused.host_s": host / apps,
                "ir.fused.bytes_per_app": nbytes,
                "ir.fused.flops_per_byte": flops / nbytes,
            }
        )
        return out


class Par256(Workload):
    """256x256x16 channelized, float64, 2x1 ranks in 1 worker, 1 per call.

    The multiprocess runtime (warm pool, shared-memory arena and halos,
    ``RankKernel``); it bypasses ``repro.ir``, so fused-only changes
    should show no change.  One worker process runs both ranks, so the
    benchmark keeps no more processes busy than a 2-CPU host has cores
    minus one: with two workers on two cores, any other load on the
    host stalls the lock-stepped ranks, and a burst of load on one core
    raised p90 by a third while one worker did not move.  The cost is
    that the overlap of interior compute with in-flight halos (on only
    with several workers) is not exercised, and ``par.speedup`` reads
    the runtime's overhead over the serial backend, not parallel gain.
    16 layers, not 32, because one worker takes twice as long per call
    and the run must still fit its time budget.  One application per
    call: p90 needs 100 timed calls, and at 2 per call those alone
    would take a minute a run; the runtime's two-deep pipelining across
    the applications of one call is not exercised.
    ``par.first_call_s`` moves ``setup_s``, ``par.compute_s``/``wait_s``
    move ``mcells_per_s``, and ``par.worker_rss_mb`` moves
    ``peak_rss_mb``.  Checked bit-exact against the serial 1x1
    ``ClusterFluxComputation``, whose per-call time is
    ``cluster.serial_app_s``.
    """

    name = "par-256"
    shape = (256, 256, 16)
    dtype = np.float64
    batch = 1
    pool = 3
    workers = 1

    def build_mesh(self, seed: int) -> CartesianMesh3D:
        nx, ny, nz = self.shape
        return make_geomodel(nx, ny, nz, kind="channelized", seed=seed)

    def setup(self, seed: int, traced: bool) -> None:
        from repro.par import ParClusterFluxComputation

        with layer("core.mesh.build"):
            self.mesh = self.build_mesh(seed)
        self.comp = ParClusterFluxComputation(
            self.mesh,
            self.fluid,
            px=2,
            py=1,
            workers=self.workers,
            dtype=self.dtype,
            record_spans=traced,
            timeout_seconds=60.0,
        )
        self._result = None
        self._first_rows = None
        self._respawns = 0
        self._serial_s: list[float] = []

    def call(self, fields) -> np.ndarray:
        self._result = self.comp.run(fields)
        self._respawns += self._result.respawns
        if self._first_rows is None:
            self._first_rows = [dict(row) for row in self._result.per_rank]
        return self._result.residual

    def counts(self) -> dict[str, int]:
        res = self._result
        return {
            "par.messages_per_app": res.messages_per_application,
            "par.halo_bytes_per_app": res.halo_bytes_per_application,
        }

    def peak_rss_mb(self) -> float:
        """Parent ``ru_maxrss`` plus each worker's ``VmHWM``; pages of the
        shared arena count once per process that maps them."""
        pids = {row["pid"] for row in self._result.per_rank}
        self._worker_rss = sum(proc_hwm_mb(pid) for pid in pids)
        return peak_rss_mb() + self._worker_rss

    def close(self) -> None:
        from repro.par.runtime import shutdown_warm_pool

        self._last_rows = [dict(row) for row in self._result.per_rank]
        self.comp.close()
        shutdown_warm_pool()

    def reference(self, field: np.ndarray) -> np.ndarray:
        from repro.cluster.flux import ClusterFluxComputation

        if self._reference is None:
            with layer("core.transmissibility.build"):
                Transmissibility(self.mesh, dtype=self.dtype)
            self._reference = ClusterFluxComputation(
                self.mesh, self.fluid, px=1, py=1, dtype=self.dtype
            )
        t0 = time.perf_counter()
        residual = self._reference.run_single(field).residual
        self._serial_s.append(time.perf_counter() - t0)
        return residual

    def layer_metrics(self, view) -> dict[str, float]:
        out = super().layer_metrics(view)
        ranks = len(self._last_rows)
        apps = view.timed_apps
        delta = {
            key: sum(
                last[key] - first[key]
                for first, last in zip(self._first_rows, self._last_rows)
            )
            / ranks
            / apps
            for key in ("compute_seconds", "exchange_seconds", "wait_seconds")
        }
        busy = sum(delta.values())
        out.update(
            {
                "par.first_call_s": view.seconds("bench.first_call"),
                "par.compute_s": delta["compute_seconds"],
                "par.exchange_s": delta["exchange_seconds"],
                "par.wait_s": delta["wait_seconds"],
                "par.wait_frac": delta["wait_seconds"] / busy,
                "par.respawns": self._respawns,
                "par.worker_rss_mb": self._worker_rss,
            }
        )
        if self._serial_s:  # only the process that ran the reference
            serial = float(np.median(self._serial_s))
            speedup = serial / (view.untraced_app_ms / 1e3)
            out.update(
                {
                    "par.speedup": speedup,
                    "par.efficiency": speedup / self.workers,
                    "cluster.serial_app_s": serial,
                }
            )
        return out


class EventFabric(Workload):
    """16x16x8 lognormal on the event simulator, float32, 1 per call.

    The only workload that builds ``dataflow.program`` and runs the
    per-message ``wse`` runtime (the paper's protocol):
    ``dataflow.program.build_s`` moves ``setup_s`` and
    ``wse.host_us_per_event`` moves ``mcells_per_s``/``app_ms_*``.
    Every simulated count must repeat exactly.  Checked bit-exact
    against the fused backend on the same field.
    """

    name = "event-fabric"
    shape = (16, 16, 8)
    batch = 1
    pool = 4

    def setup(self, seed: int, traced: bool) -> None:
        from repro.dataflow.driver import WseFluxComputation

        self._mesh_and_trans(seed)
        with layer("dataflow.program.build"):
            self.comp = WseFluxComputation(
                self.mesh, self.fluid, self.trans, dtype=self.dtype
            )

    def call(self, fields) -> np.ndarray:
        self._result = self.comp.run(fields)
        return self._result.residual

    def counts(self) -> dict[str, int | float]:
        res = self._result
        stats = res.stats
        apps = res.applications
        return {
            "wse.events_per_app": stats.events_processed // apps,
            "wse.messages_per_app": stats.messages_delivered // apps,
            "wse.word_hops_per_app": stats.fabric_word_hops // apps,
            "wse.control_advances_per_app": stats.control_advances // apps,
            "wse.device_cycles_per_app": res.device_cycles / apps,
        }

    def reference(self, field: np.ndarray) -> np.ndarray:
        from repro.ir import FusedFluxComputation

        if self._reference is None:
            self._reference = FusedFluxComputation(
                self.mesh, self.fluid, self.trans, dtype=self.dtype
            )
        return self._reference.run([field]).residual

    def layer_metrics(self, view) -> dict[str, float]:
        out = super().layer_metrics(view)
        events = view.counts["wse.events_per_app"]
        out.update(
            {
                "dataflow.program.build_s": view.seconds("dataflow.program.build"),
                "wse.host_us_per_event": view.untraced_app_ms * 1e3 / events,
            }
        )
        return out


WORKLOADS = {
    cls.name: cls for cls in (FusedLarge, Par256, EventFabric)
}
