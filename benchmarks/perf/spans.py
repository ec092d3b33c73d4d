"""In-memory span recording for the traced run.

A span is one call into a layer: name, start, end, and the span that
caused it.  Per-event layers produce millions of spans, so they are
aggregated as they close into ``(name, parent layer) -> [calls, total_s,
self_s]`` and only the first :data:`RAW_LIMIT` are kept raw.  A span's self
time is its duration minus the part of it covered by child spans, so the
self times of all spans plus the time inside no span add up to the wall
time of the traced region.

Wrappers are installed by :class:`Patches` on the classes and modules of
the program under test and removed again when the ``with`` block ends;
nothing in ``src/`` knows about them.
"""

import functools
import sys
import time

RAW_LIMIT = 1000


class SpanRecorder:
    """Aggregated spans of one traced region."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # One frame per open span: [child_s, layer, raw index].  The root
        # frame collects the time of top-level spans, so glue (time inside
        # no span) is the region's wall time minus root child_s.
        self.stack = [[0.0, "", -1]]
        self.edges = {}     # (name, layer, parent layer) -> [calls, total, self]
        self.raw = []       # first RAW_LIMIT spans: name, layer, start, end, parent
        self.tallies = {}   # free-form counters the custom wrappers feed

    def wrap(self, name, layer, fn, tally=None):
        """``fn`` timed as a span called ``name`` in ``layer``.

        ``tally(result)``, when given, returns a number added to
        ``tallies[name]`` (rows returned by a reader, say).
        """
        stack, edges, raw, clock = self.stack, self.edges, self.raw, self.clock
        tallies = self.tallies

        def traced(*args, **kwargs):
            parent = stack[-1]
            index = -1
            if len(raw) < RAW_LIMIT:
                index = len(raw)
                raw.append(None)
            frame = [0.0, layer, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if tally is not None:
                    tallies[name] = tallies.get(name, 0) + tally(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                key = (name, layer, parent[1])
                edge = edges.get(key)
                if edge is None:
                    edge = edges[key] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += duration
                edge[2] += duration - frame[0]
                if index >= 0:
                    raw[index] = (name, layer, start, end, parent[2])

        functools.update_wrapper(traced, fn)
        traced.perf_span = name
        return traced

    # -- reading the aggregate ----------------------------------------------

    def covered_s(self):
        """Wall time inside any span (the root frame's children)."""
        return self.stack[0][0]

    def by_layer(self):
        """``layer -> [calls, self_s]`` summed over every span of the layer."""
        out = {}
        for (_name, layer, _parent), (calls, _total, self_s) in self.edges.items():
            entry = out.setdefault(layer, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return out

    def by_name(self, parent_layer=None):
        """``name -> [calls, total_s]``, optionally under one parent layer."""
        out = {}
        for (name, _layer, parent), (calls, total, _self) in self.edges.items():
            if parent_layer is not None and parent != parent_layer:
                continue
            entry = out.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += total
        return out

    def edge_rows(self):
        """The aggregate as JSON-friendly rows, largest self time first."""
        rows = [
            {"name": name, "layer": layer, "parent_layer": parent,
             "calls": calls, "total_s": total, "self_s": self_s}
            for (name, layer, parent), (calls, total, self_s)
            in self.edges.items()
        ]
        rows.sort(key=lambda row: (-row["self_s"], row["name"],
                                   row["parent_layer"]))
        return rows

    def raw_rows(self):
        """The raw spans that closed, times relative to the first one."""
        spans = [span for span in self.raw if span is not None]
        if not spans:
            return []
        origin = min(span[2] for span in spans)
        return [
            {"id": index, "name": span[0], "layer": span[1],
             "start_s": span[2] - origin, "end_s": span[3] - origin,
             "parent": span[4]}
            for index, span in enumerate(self.raw) if span is not None
        ]


def chrome_trace(raw_rows):
    """Raw spans as Chrome ``traceEvents`` (complete events, microseconds)."""
    return {"traceEvents": [
        {"name": row["name"], "cat": row["layer"], "ph": "X", "pid": 1,
         "tid": 1, "ts": row["start_s"] * 1e6,
         "dur": (row["end_s"] - row["start_s"]) * 1e6,
         "args": {"id": row["id"], "parent": row["parent"]}}
        for row in raw_rows
    ]}


class Patches:
    """Attribute replacements that are undone when the block ends."""

    def __init__(self):
        self._undo = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def replace(self, owner, attr, value):
        """Set ``owner.attr = value``, remembering what was there."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr, make):
        """Replace ``cls.attr`` by ``make(function)``, whatever its kind.

        The attribute must be defined on ``cls`` itself; plain functions,
        classmethods and staticmethods keep their kind.
        """
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            value = classmethod(make(original.__func__))
        elif isinstance(original, staticmethod):
            value = staticmethod(make(original.__func__))
        else:
            value = make(original)
        self.replace(cls, attr, value)

    def wrap_function(self, module, attr, make):
        """Replace a module-level function wherever it has been imported.

        ``from module import attr`` copies the reference, so every loaded
        ``repro`` module holding the same object under the same name is
        patched too.
        """
        original = vars(module)[attr]
        value = make(original)
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not name.startswith("repro"):
                continue
            if vars(candidate).get(attr) is original:
                self.replace(candidate, attr, value)
