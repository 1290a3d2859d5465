"""In-memory spans around the benchmark's calls into conversekit.

A span records name, start, end, parent span and job id.  Spans stay in a
list until the run ends; `summarize` turns them into per-name call counts
and self times, where a span's self time is its duration minus the part
covered by its child spans.

Probe spans time a layer that the job reaches only through another layer
(for example `ChannelFamily.divergences` inside `strong_converse_bound`):
the traced run calls that layer's public function again on the same
inputs.  Probe work is extra work, so it is excluded from job time and
from the tracing overhead.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class NullTracer:
    """Untraced runs: calls go straight through and nothing is recorded."""

    on = False
    job = -1

    def call(self, name, fn, *args, probe=False):
        return fn(*args)

    def count(self, key, value=1.0):
        pass

    def peak(self, key, value):
        pass


class Tracer:
    """Records one span per call, in memory, plus counters noted by the jobs."""

    on = True

    def __init__(self):
        # (name, start, end, parent index or -1, job id, probe)
        self.spans = []
        self.counts = defaultdict(float)
        self.peaks = defaultdict(float)
        self.job = -1
        self._stack = []
        self._in_probe = 0

    def call(self, name, fn, *args, probe=False):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        probe = probe or self._in_probe > 0
        self.spans.append(None)
        self._stack.append(idx)
        self._in_probe += probe
        start = _clock()
        try:
            return fn(*args)
        finally:
            end = _clock()
            self._in_probe -= probe
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.job, probe)

    def count(self, key, value=1.0):
        self.counts[key] += value

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks[key], value)


def self_times(spans):
    """Self time of every span: its duration minus its children's durations."""
    own = [end - start for (_, start, end, _, _, _) in spans]
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(spans):
    """Per span name: number of calls and summed self time."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        rec = out.setdefault(span[0], {"calls": 0, "busy_s": 0.0})
        rec["calls"] += 1
        rec["busy_s"] += own
    return out


def busy_under(spans, prefixes):
    """Summed self time of the non-probe spans whose name starts with a prefix."""
    return sum(
        own
        for span, own in zip(spans, self_times(spans))
        if not span[5] and span[0].startswith(prefixes)
    )


def probe_wall(spans):
    """Summed duration of the outermost probe spans (probes nested in probes count once)."""
    total = 0.0
    for name, start, end, parent, _, probe in spans:
        if probe and (parent < 0 or not spans[parent][5]):
            total += end - start
    return total


def to_records(spans, t_origin):
    """JSON-friendly span rows, times relative to t_origin."""
    return {
        "fields": ["name", "start", "end", "parent", "job", "probe"],
        "rows": [
            [name, start - t_origin, end - t_origin, parent, job, probe]
            for name, start, end, parent, job, probe in spans
        ],
    }
