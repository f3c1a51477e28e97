"""Span tree, self time and process memory for the benchmark's traced runs.

The benchmark wraps each call it makes into a layer's public API in a
``repro.obs`` span, so its own spans and the spans the program already
records (``fused.run``/``fused.local``/``fused.rounds``, par worker
spans) land in one :class:`~repro.obs.spans.SpanRecorder`.  When a run
ends, :func:`link_spans` gives every span an id, its parent (the
innermost span on the same process/thread track that encloses it) and
the run id; :func:`self_seconds` is a span's duration minus the time its
children cover.
"""

from __future__ import annotations

import resource
from contextlib import contextmanager

from repro.obs.spans import span

__all__ = [
    "layer",
    "link_spans",
    "self_seconds",
    "rss_mb",
    "peak_rss_mb",
    "proc_hwm_mb",
]


def _status_kib(pid: int | str, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} missing from /proc/{pid}/status")


def rss_mb() -> float:
    """Current resident set of this process (MiB)."""
    return _status_kib("self", "VmRSS") / 1024.0


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss``, MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process (MiB)."""
    return _status_kib(pid, "VmHWM") / 1024.0


@contextmanager
def layer(name: str, **args):
    """Span around one call into a layer, recording its RSS growth."""
    before = rss_mb()
    with span(name, cat="bench", **args) as sp:
        yield sp
        sp.set(rss_growth_mb=rss_mb() - before)


def link_spans(recorder, run_id: str) -> dict[int, list]:
    """Stamp ``run_id``/``span_id``/``parent_id`` on every recorded span.

    Parents are found by interval nesting per ``(pid, tid)`` track.
    Returns ``{id(span): [child spans]}`` for :func:`self_seconds`.
    """
    tracks: dict[tuple, list] = {}
    for sp in recorder.spans:
        tracks.setdefault((sp.pid, sp.tid), []).append(sp)
    children: dict[int, list] = {}
    next_id = 1
    for spans in tracks.values():
        spans.sort(key=lambda s: (s.start_ns, -s.duration_ns))
        stack: list = []
        for sp in spans:
            end = sp.start_ns + sp.duration_ns
            while stack and stack[-1].start_ns + stack[-1].duration_ns < end:
                stack.pop()
            parent = stack[-1] if stack else None
            sp.args["run_id"] = run_id
            sp.args["span_id"] = next_id
            sp.args["parent_id"] = parent.args["span_id"] if parent else 0
            next_id += 1
            if parent is not None:
                children.setdefault(id(parent), []).append(sp)
            stack.append(sp)
    return children


def self_seconds(sp, children: dict[int, list]) -> float:
    """Duration of *sp* minus the part of it its child spans cover."""
    covered = 0
    cursor = sp.start_ns
    for child in sorted(children.get(id(sp), ()), key=lambda s: s.start_ns):
        lo = max(cursor, child.start_ns)
        hi = child.start_ns + child.duration_ns
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0, sp.duration_ns - covered) / 1e9
