"""One cold benchmark process: set up a workload, drive it, check it.

Run by ``perfbench/run.py``, once per set-up repetition, so process-wide
caches start empty and peak memory belongs to this workload alone::

    python3 perfbench/session.py --workload event-fabric --seed 1 \
        --seconds 3 --min-calls 34 --trace 0 --run-id r1 --index 0

Prints one JSON object on its last stdout line.  With ``--trace 1`` a
``SpanRecorder`` is installed for set-up and for every other timed call
(the calls in between run untraced, which gives the tracing overhead),
per-layer metrics are derived from the spans, and the spans are written
as Chrome trace JSON under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.conform.tolerance import BIT_EXACT  # noqa: E402
from repro.obs.spans import SpanRecorder, set_recorder, span, write_chrome_trace  # noqa: E402

from tracing import link_spans, self_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: a call slower than this counts as failed (timed out)
CALL_TIMEOUT_S = 60.0
#: hard cap on one process's measuring phase when ``--min-calls`` is
#: not yet reached
MAX_MEASURE_S = 45.0


class TraceView:
    """Per-layer lookups over one run's linked spans."""

    def __init__(
        self,
        recorder,
        children,
        *,
        counts: dict,
        call_apps: int,
        timed_apps: int,
        untraced_app_ms: float,
    ) -> None:
        self.spans = recorder.spans
        self.children = children
        self.parent = {
            id(child): sp for sp in self.spans for child in children.get(id(sp), ())
        }
        #: the per-application counts of the run
        self.counts = counts
        #: applications made by traced calls (the spans' denominator)
        self.call_apps = call_apps
        #: applications made by all timed calls, traced or not
        self.timed_apps = timed_apps
        #: median untraced milliseconds per application
        self.untraced_app_ms = untraced_app_ms

    def seconds(self, name: str) -> float | None:
        """Summed duration of the spans *name*; None when none ran."""
        found = [sp.duration_seconds for sp in self.spans if sp.name == name]
        return sum(found) if found else None

    def arg(self, name: str, key: str) -> float | None:
        return next((sp.args[key] for sp in self.spans if sp.name == name), None)

    def _under(self, sp, ancestor: str) -> bool:
        sp = self.parent.get(id(sp))
        while sp is not None:
            if sp.name == ancestor:
                return True
            sp = self.parent.get(id(sp))
        return False

    def self_within(self, ancestor: str, name: str) -> float:
        """Summed self time of spans *name* nested under *ancestor*."""
        return sum(
            self_seconds(sp, self.children)
            for sp in self.spans
            if sp.name == name and self._under(sp, ancestor)
        )


class Checker:
    """Keeps the first residual seen per pressure field; later calls
    ending on the same field must reproduce it bit for bit.  The kept
    residuals are compared against the reference at the end, or, in a
    later process of the same run, by digest against the first
    process's (``perfbench/run.py``)."""

    def __init__(self) -> None:
        self.kept: dict[int, list] = {}

    def observe(self, index: int, residual: np.ndarray, apps: int) -> bool:
        kept = self.kept.get(index)
        if kept is None:
            self.kept[index] = [residual.copy(), apps]
            return True
        if BIT_EXACT.failures(kept[0], residual).any():
            return False
        kept[1] += apps
        return True

    def against_reference(self, workload, fields) -> list[str]:
        """Indices of the fields whose residual disagrees with the reference."""
        return [
            str(index)
            for index, (residual, _apps) in sorted(self.kept.items())
            if workload.tolerance.failures(
                workload.reference(fields[index]), residual
            ).any()
        ]

    def digests(self) -> dict[str, list]:
        """``{field index: [sha256 of the residual bytes, applications]}``."""
        return {
            str(index): [hashlib.sha256(residual.tobytes()).hexdigest(), apps]
            for index, (residual, apps) in sorted(self.kept.items())
        }


def run(args) -> dict:
    workload = WORKLOADS[args.workload]()
    fields = workload.fields(args.seed)
    batch, pool = workload.batch, workload.pool

    def batch_fields(call: int) -> tuple[list, int]:
        indices = [(call * batch + i) % pool for i in range(batch)]
        return [fields[i] for i in indices], indices[-1]

    recorder = SpanRecorder() if args.trace else None
    set_recorder(recorder)
    gc.collect()

    started = perf_counter()
    with span("bench.setup", cat="bench", workload=workload.name, seed=args.seed):
        workload.setup(args.seed, bool(args.trace))
        first, last_index = batch_fields(0)
        with span("bench.first_call", cat="bench"):
            residual = workload.call(first)
    setup_s = perf_counter() - started

    checker = Checker()
    checker.observe(last_index, residual, batch)
    expected_counts = workload.counts()
    attempted, failed = batch, 0
    traced_ms: list[float] = []
    untraced_ms: list[float] = []
    call = 1
    gc.collect()
    measure_started = perf_counter()
    while True:
        elapsed = perf_counter() - measure_started
        enough = elapsed >= args.seconds and call - 1 >= args.min_calls
        if enough or elapsed >= MAX_MEASURE_S:
            break
        traced = args.trace and call % 2 == 1
        set_recorder(recorder if traced else None)
        batch_list, last_index = batch_fields(call)
        ok = True
        t0 = perf_counter()
        try:
            with span("bench.call", cat="bench", call=call):
                residual = workload.call(batch_list)
        except Exception:  # a failed call is counted, not fatal
            print(f"call {call} raised:", file=sys.stderr)
            traceback.print_exc()
            ok = False
        dt = perf_counter() - t0
        set_recorder(recorder)
        attempted += batch
        call += 1
        if ok:
            (traced_ms if traced else untraced_ms).append(dt * 1e3 / batch)
            same_counts = workload.counts() == expected_counts
            ok = (
                same_counts
                and dt <= CALL_TIMEOUT_S
                and checker.observe(last_index, residual, batch)
            )
        if not ok:
            failed += batch

    peak_rss = workload.peak_rss_mb()
    workload.close()
    bad_fields = []
    if args.index == 0:
        with span("bench.references", cat="bench"):
            bad_fields = checker.against_reference(workload, fields)
    set_recorder(None)

    timed_apps = batch * len(untraced_ms)
    result = {
        "setup_s": setup_s,
        "app_ms": untraced_ms,
        "timed_apps": timed_apps,
        "timed_wall_s": sum(untraced_ms) * batch / 1e3,
        "cells": workload.cells,
        "peak_rss_mb": peak_rss,
        "attempted": attempted,
        "failed": failed,
        "counts": expected_counts,
        "digests": checker.digests(),
        "bad_fields": bad_fields,
    }
    if recorder is not None:
        children = link_spans(recorder, args.run_id)
        untraced = statistics.median(untraced_ms)
        view = TraceView(
            recorder,
            children,
            counts=expected_counts,
            call_apps=batch * len(traced_ms),
            timed_apps=batch * (len(traced_ms) + len(untraced_ms)),
            untraced_app_ms=untraced,
        )
        layers = dict(expected_counts)
        layers.update(
            (name, value)
            for name, value in workload.layer_metrics(view).items()
            if value is not None
        )
        layers["obs.trace_overhead_frac"] = (
            statistics.median(traced_ms) - untraced
        ) / untraced
        result["layers"] = layers
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{workload.name}-seed{args.seed}-{args.index}.json"
        write_chrome_trace(path, recorder)
        result["trace_file"] = str(path.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-calls", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
