"""Repository benchmark: cold start, throughput, tail latency and memory.

Usage, from the root of a source checkout (no build or install step)::

    python3 perfbench/run.py --workload event-fabric --seed 1 --seconds 6 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``fused-large``  — ``repro.ir.FusedFluxComputation``, 128x128x32, 1 per call
* ``par-256``      — ``repro.par.ParClusterFluxComputation``, 256x256x16,
  2x1 ranks in 1 worker process, 1 per call
* ``event-fabric`` — ``repro.dataflow.WseFluxComputation`` on the event
  simulator, 16x16x8, 1 per call

Each workload is a closed loop from one client: the next call is sent
only after the previous one returned.  The run starts two or five
(:data:`COLD_STARTS`) fresh processes one after another
(``perfbench/session.py``); each sets the system up cold from the seed,
then measures for its share of ``--seconds`` (extended until
:data:`MIN_CALLS` calls in total, so that at least ten samples lie beyond
p90).  End-to-end metrics, measured with tracing off:

* ``setup_s``      — median over the processes of seed-to-first-residual
* ``mcells_per_s`` — cells x applications / summed wall time of timed calls
* ``app_ms_p90``   — call time / applications per call
* ``peak_rss_mb``  — median over the processes of ``ru_maxrss``; on
  ``par-256`` plus each worker's ``VmHWM`` (shared-arena pages count once
  per process that maps them)

``app_ms_p50`` and ``fail_frac`` are printed but are not metrics of the
result line.  A shared host's cores alternate for seconds at a time
between two speeds (up to 1.75x apart on the event simulator), so the
per-call times are bimodal and their median jumps between the modes
from run to run; ``mcells_per_s`` (the mean) moves with the share of
slow calls instead, and p90 sits in the slow mode.

``fail_frac`` is the result line's ``failed / attempted``: a call that
raises, exceeds its time limit, disagrees with the reference backend or
repeats a count differently counts all its applications as failed.  The
first process checks its residuals against the reference backend; the
later ones must reproduce them bit for bit (compared by digest), which
also checks determinism across processes.  The process exits 1 when any
application failed.

With ``--trace 1`` the result carries the per-layer metrics of
``BENCHMARK.json`` instead (median over the processes; a layer the
workload does not exercise reads 0), and each process writes its spans
as Chrome trace JSON to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: cold set-ups per run, by workload; ``setup_s`` and ``peak_rss_mb`` are
#: their medians.  The speed of a shared host's cores drifts over seconds,
#: so five set-ups spread over the run give a steadier median than three;
#: fused-large sets up in 6-12 s (its schedule probe) on a 2-CPU host, so
#: it gets two, which keeps one run near 50 s
COLD_STARTS = {"fused-large": 2, "par-256": 5, "event-fabric": 5}
#: timed calls per run, so that p90 has at least ten samples beyond it
MIN_CALLS = 100
#: the whole run must end well inside three minutes
DEADLINE_S = 170.0



def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, as ``statistics.quantiles(n=100)``."""
    return statistics.quantiles(values, n=100)[q - 1]


def run_session(args, index: int, run_id: str, deadline: float) -> dict:
    cold_starts = COLD_STARTS[args.workload]
    command = [
        sys.executable,
        str(HERE / "session.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds / cold_starts),
        "--min-calls", str(math.ceil(MIN_CALLS / cold_starts)),
        "--trace", str(args.trace),
        "--run-id", run_id,
        "--index", str(index),
    ]
    # its own process group, so that a session which overruns is killed
    # together with any par workers it forked
    proc = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        wait_for_group(proc.pid)
    if proc.returncode != 0:
        raise RuntimeError(f"session {index} exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def group_alive(pgid: int) -> bool:
    """Whether a process of group *pgid* is still running (not a zombie)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _ppid, pgrp = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, IndexError, ValueError):
            continue
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def wait_for_group(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until every process of group *pgid* has ended; after half of
    *limit_s*, kill the ones still running."""
    started = time.monotonic()
    while group_alive(pgid) and time.monotonic() - started < limit_s:
        if time.monotonic() - started > limit_s / 2:
            os.killpg(pgid, signal.SIGKILL)
        time.sleep(0.05)


def end_to_end(sessions: list[dict]) -> dict[str, float]:
    samples = [ms for s in sessions for ms in s["app_ms"]]
    apps = sum(s["timed_apps"] for s in sessions)
    wall = sum(s["timed_wall_s"] for s in sessions)
    return {
        "setup_s": statistics.median(s["setup_s"] for s in sessions),
        "mcells_per_s": sessions[0]["cells"] * apps / wall / 1e6,
        "app_ms_p50": statistics.median(samples),
        "app_ms_p90": percentile(samples, 90),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }


def per_layer(sessions: list[dict], names: list[str]) -> dict[str, float]:
    """Median over the processes that measured each metric; 0 for a
    layer the workload does not exercise."""
    out = {}
    for name in names:
        values = [s["layers"][name] for s in sessions if name in s["layers"]]
        out[name] = statistics.median(values) if values else 0
    return out


def check_failures(sessions: list[dict]) -> int:
    """Applications whose residual is wrong.  The first process compared
    its residuals with the reference backend; a later process's residual
    for a field must be bit-identical to the first process's, and is
    wrong too where that one was (a field the first process never saw
    counts as wrong)."""
    first = sessions[0]["digests"]
    bad = set(sessions[0]["bad_fields"])
    failed = 0
    for s in sessions:
        for index, (digest, apps) in s["digests"].items():
            if index in bad or first.get(index, [None])[0] != digest:
                print(f"field {index}: wrong residual ({apps} applications)")
                failed += apps
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=tuple(COLD_STARTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + DEADLINE_S
    run_id = f"{args.workload}-seed{args.seed}-{time.time_ns()}"
    try:
        sessions = [
            run_session(args, index, run_id, deadline)
            for index in range(COLD_STARTS[args.workload])
        ]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in sessions)
    failed = sum(s["failed"] for s in sessions) + check_failures(sessions)
    # counts must repeat exactly across processes with the same seed
    for s in sessions[1:]:
        if s["counts"] != sessions[0]["counts"]:
            print(f"counts differ: {s['counts']} != {sessions[0]['counts']}")
            failed += s["attempted"]
    # an application can fail more than one check
    failed = min(failed, attempted)

    if args.trace:
        metrics = per_layer(sessions, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for s in sessions:
            print(f"trace: {s['trace_file']}")
    else:
        metrics = end_to_end(sessions)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units["app_ms_p50"] = "ms"
    samples = sum(len(s["app_ms"]) for s in sessions)
    print(f"{args.workload} seed {args.seed}: {len(sessions)} cold starts, "
          f"{samples} untraced timed calls")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} "
          f"({failed}/{attempted} applications)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
