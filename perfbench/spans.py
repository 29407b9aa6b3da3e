"""In-memory spans for the traced benchmark run.

A span records a name, start, end, parent span and record id. Spans are
kept in a list and written out once, at the end of the run, so that
recording one costs two clock reads and a list append. A layer's self
time is its spans' durations minus the part covered by their children.
"""
import json
import time
from contextlib import contextmanager


class Tracer:
    """Collects spans when ``enabled``; otherwise every method is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, record: str | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if record is None and parent is not None:
            record = self.spans[parent]["record"]
        s = {"id": len(self.spans), "name": name, "parent": parent,
             "record": record, "start": time.perf_counter(), "end": None}
        self.spans.append(s)
        self._stack.append(s["id"])
        try:
            yield
        finally:
            s["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapping(self, module, attr: str, name: str):
        """Record a span around every call of ``module.attr`` in the block.

        This is how a call made *inside* one layer into another (for
        example the decoder's call of ``markers.parse``) becomes a child
        span without editing the program.
        """
        if not self.enabled:
            yield
            return
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, orig)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus that of their children."""
        ids = {s["id"] for s in self.spans if s["name"] == name}
        child = sum(s["end"] - s["start"] for s in self.spans
                    if s["parent"] in ids)
        return self.total(name) - child

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
