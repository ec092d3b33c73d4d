"""Exporters: JSONL round-trip and Chrome trace_event validity."""

import io
import json

from repro.trace.events import CATEGORIES, TraceEvent
from repro.trace.export import (
    chrome_trace_dict,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)


def _events():
    return [
        TraceEvent("hook", "storage.submit_io", 1000, args={"probes": 2},
                   seq=0),
        TraceEvent("monitor.check", "g", 2000, dur=150, phase="X",
                   guardrail="g", args={"violations": 1}, seq=1),
        TraceEvent("action", "SAVE", 2000, guardrail="g",
                   args={"rule": "(x <= 1)", "detail": "k = v"}, seq=2),
        TraceEvent("featurestore.save", "k", 2500,
                   args={"value": object()}, seq=3),
    ]


def test_jsonl_roundtrip():
    buf = io.StringIO()
    count = write_jsonl(_events(), buf)
    assert count == 4
    lines = buf.getvalue().strip().split("\n")
    assert len(lines) == 4
    for line in lines:
        json.loads(line)  # every line is standalone JSON

    back = read_jsonl(io.StringIO(buf.getvalue()))
    assert [e.name for e in back] == [e.name for e in _events()]
    assert back[1].dur == 150
    assert back[1].phase == "X"
    assert back[1].guardrail == "g"
    assert back[2].args["detail"] == "k = v"


def test_jsonl_file_roundtrip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    with open(path, "w") as fp:
        assert write_jsonl(_events(), fp) == 4
    back = read_jsonl(path)
    assert len(back) == 4
    assert back[0].ts == 1000


def test_non_serializable_args_degrade_to_repr():
    buf = io.StringIO()
    write_jsonl(_events(), buf)
    last = json.loads(buf.getvalue().strip().split("\n")[-1])
    assert last["args"]["value"].startswith("<object object")


def test_chrome_trace_is_valid_json_with_expected_phases(tmp_path):
    path = str(tmp_path / "trace.json")
    with open(path, "w") as fp:
        write_chrome_trace(_events(), fp)
    with open(path) as fp:
        data = json.load(fp)  # must parse with plain json.load
    records = data["traceEvents"]

    metadata = [r for r in records if r["ph"] == "M"]
    assert {m["args"]["name"] for m in metadata} >= set(CATEGORIES)

    spans = [r for r in records if r["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["ts"] == 2.0      # 2000 ns -> 2.0 us
    assert spans[0]["dur"] == 0.15    # 150 ns -> 0.15 us

    instants = [r for r in records if r["ph"] == "i"]
    assert len(instants) == 3
    assert all(r["s"] == "t" for r in instants)

    # Every event carries category, thread lane, and JSON-safe args.
    for record in records:
        if record["ph"] == "M":
            continue
        assert record["cat"] in CATEGORIES
        assert isinstance(record["tid"], int)
    action = next(r for r in records if r.get("cat") == "action")
    assert action["args"]["guardrail"] == "g"


def test_chrome_trace_distinct_lanes_per_category():
    data = chrome_trace_dict(_events())
    lanes = {r["cat"]: r["tid"] for r in data["traceEvents"] if r["ph"] != "M"}
    assert len(set(lanes.values())) == len(lanes)
