"""Trace exporters: JSONL (replayable) and Chrome ``trace_event`` JSON.

- **JSONL** is the archival format: one event per line, loadable back into
  :class:`~repro.trace.events.TraceEvent` objects by :func:`read_jsonl`, so
  ``grctl trace --replay`` can summarize a run after the fact.
- **Chrome trace** is the visual format: the exported file loads directly in
  Perfetto or ``chrome://tracing``.  Virtual nanoseconds are mapped to the
  format's microsecond ``ts``; each category becomes a named "thread" so the
  timeline groups hook fires, monitor checks, actions, etc. into lanes.
"""

import json

from repro.trace.events import CATEGORIES, PHASE_SPAN, TraceEvent


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def event_to_jsonl_line(event):
    data = event.to_dict()
    if "args" in data:
        data["args"] = {k: _jsonable(v) for k, v in data["args"].items()}
    return json.dumps(data, sort_keys=True)


def write_jsonl(events, fp):
    """Write events to a file-like object, one JSON object per line."""
    count = 0
    for event in events:
        fp.write(event_to_jsonl_line(event))
        fp.write("\n")
        count += 1
    return count


def read_jsonl(fp_or_path):
    """Load a JSONL trace back into :class:`TraceEvent` objects."""
    if isinstance(fp_or_path, str):
        with open(fp_or_path) as fp:
            return read_jsonl(fp)
    events = []
    for line in fp_or_path:
        line = line.strip()
        if line:
            events.append(TraceEvent.from_dict(json.loads(line)))
    return events


#: The one process every record belongs to.
PID = 1


def chrome_trace_dict(events):
    """Events as a Chrome ``trace_event`` "JSON Object Format" dict.

    Categories map to synthetic thread ids (with ``thread_name`` metadata)
    so each category renders as its own lane.  ``ts``/``dur`` are converted
    from virtual nanoseconds to the format's microseconds.
    """
    tids = {category: i + 1 for i, category in enumerate(CATEGORIES)}
    records = []
    for category in CATEGORIES:
        records.append({
            "ph": "M", "name": "thread_name", "pid": PID,
            "tid": tids[category], "args": {"name": category},
        })
    for event in events:
        tid = tids.get(event.category)
        if tid is None:  # unknown category: park it on its own lane
            tid = tids[event.category] = len(tids) + 1
            records.append({
                "ph": "M", "name": "thread_name", "pid": PID, "tid": tid,
                "args": {"name": event.category},
            })
        args = {k: _jsonable(v) for k, v in (event.args or {}).items()}
        if event.guardrail is not None:
            args.setdefault("guardrail", event.guardrail)
        record = {
            "name": event.name,
            "cat": event.category,
            "pid": PID,
            "tid": tid,
            "ts": event.ts / 1000.0,
            "args": args,
        }
        if event.phase == PHASE_SPAN:
            record["ph"] = "X"
            record["dur"] = event.dur / 1000.0
        else:
            record["ph"] = "i"
            record["s"] = "t"
        records.append(record)
    return {"traceEvents": records, "displayTimeUnit": "ms"}


def write_chrome_trace(events, fp):
    json.dump(chrome_trace_dict(events), fp)
