"""repro.trace — kernel-style tracing & telemetry for guardrail runs.

An ftrace/perf analogue for the simulated kernel: tracepoints in the hot
paths (hook fires, monitor checks, rule evaluations, action dispatches,
feature-store saves, retrain jobs) emit structured events into a bounded
ring buffer through the process-global :data:`TRACER`.  Tracing costs one
predicate check per tracepoint when off; when on, per-category filters and
1-in-N sampling keep overhead tunable.  Exporters produce replayable JSONL
and Chrome ``trace_event`` JSON (Perfetto / ``chrome://tracing``).

See ``docs/tracing.md`` and ``grctl trace``.
"""

from repro.trace.events import CATEGORIES, PHASE_INSTANT, PHASE_SPAN, TraceEvent
from repro.trace.export import (
    chrome_trace_dict,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.trace.ring import RingBuffer
from repro.trace.summary import render_summary, summarize_events, summarize_tracer
from repro.trace.tracer import TRACER, GuardrailCounters, Tracer, tracing

__all__ = [
    "CATEGORIES",
    "PHASE_INSTANT",
    "PHASE_SPAN",
    "TraceEvent",
    "RingBuffer",
    "Tracer",
    "GuardrailCounters",
    "TRACER",
    "tracing",
    "read_jsonl",
    "write_jsonl",
    "chrome_trace_dict",
    "write_chrome_trace",
    "summarize_events",
    "summarize_tracer",
    "render_summary",
]
