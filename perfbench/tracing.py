"""In-memory spans around the harness's calls into each layer, and a log
handler that counts the package's observability events.

A span is ``(name, start, end, parent, window)``; ``name`` starts with the
layer (module) it times.  Start and end read the process's CPU clock, the
clock the harness times windows with.  Spans are kept in a list and written out once, at
the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import logging
import time
from collections import Counter, defaultdict

from surfelslam import fusion

SPAN_FIELDS = ("name", "start", "end", "parent", "window")

# Substrings of the package's log format strings, by event name.
LOG_EVENTS = {
    "fusion.cholesky_regularized": "singular during fusion; regularizing",
    "fusion.ambiguous_normals": "ambiguous surfel normal",
    "fusion.icp_not_converged": "ICP did not converge",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, window]
        self._open = []

    @contextlib.contextmanager
    def span(self, name, window=None):
        parent = self._open[-1] if self._open else None
        if window is None and parent is not None:
            window = self.spans[parent][4]
        record = [name, time.process_time(), None, parent, window]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.process_time()
            self._open.pop()

    @contextlib.contextmanager
    def icp_spans(self, sink):
        """Span every ICP call the fusion step makes and append its result
        to ``sink``; the step looks the function up in its module, so this
        is the only way to time it from outside."""
        original = fusion.icp_point_to_plane

        def traced(*args, **kwargs):
            with self.span("fusion.icp_point_to_plane"):
                result = original(*args, **kwargs)
            sink.append(result)
            return result

        fusion.icp_point_to_plane = traced
        try:
            yield
        finally:
            fusion.icp_point_to_plane = original

    def self_times(self):
        """Per span name: total duration minus the time its child spans cover."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return dict(totals)

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def write_jsonl(self, f, pass_index):
        for record in self.spans:
            row = dict(zip(SPAN_FIELDS, record), pass_index=pass_index)
            f.write(json.dumps(row) + "\n")


class LogCounter(logging.Handler):
    """Counts records of the ``surfelslam`` logger tree by event name."""

    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.counts = Counter()

    def emit(self, record):
        message = str(record.msg)
        for event, needle in LOG_EVENTS.items():
            if needle in message:
                self.counts[event] += 1

    @contextlib.contextmanager
    def attached(self):
        logger = logging.getLogger("surfelslam")
        level = logger.level
        logger.addHandler(self)
        logger.setLevel(logging.DEBUG)
        try:
            yield self
        finally:
            logger.removeHandler(self)
            logger.setLevel(level)
