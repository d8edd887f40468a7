"""Spans kept in memory around calls into squashcube, written out at exit.

A span is (id, name, start, end, parent), plus an optional note.  The
benchmark opens spans only in its own code, around the public functions it
calls; nothing inside the library is instrumented.  After a round the
benchmark adds `speed` (box speed around an operation or probe) and
`scaled` (the duration rescaled by the speed of the enclosing one).
"""

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []      # dicts: id, name, start, end, parent, note
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "note": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        with self.span(name):
            return fn(*args, **kwargs)

    def since(self, first_id):
        """Spans opened at or after span id `first_id`."""
        return self.spans[first_id:]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def duration(rec):
    return rec["end"] - rec["start"]


def total(spans, name, note=None):
    """Summed rescaled duration of the spans called `name` (and carrying `note`)."""
    return sum(
        s["scaled"] for s in spans
        if s["name"] == name and (note is None or s["note"] == note)
    )


def count(spans, name, note=None):
    return sum(
        1 for s in spans
        if s["name"] == name and (note is None or s["note"] == note)
    )
