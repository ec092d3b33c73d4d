"""Bench harness helpers: formatting and shared scenarios."""


from repro.bench.report import format_series, format_table
from repro.bench.scenarios import (
    LISTING2_SPEC,
    REPLICAS,
    bucket_series,
    build_storage_kernel,
)
from repro.sim.metrics import TimeSeries


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert "long-name" in lines[3]

    def test_title_prepended(self):
        text = format_table(["h"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = format_table(["v"], [[0.12345], [1e9], [1e-9]])
        assert "0.123" in text
        assert "1e+09" in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestFormatSeries:
    def test_points_per_line(self):
        pairs = [(i, float(i)) for i in range(10)]
        text = format_series("s", pairs, unit="us", points_per_line=4)
        lines = text.splitlines()
        assert lines[0] == "s (us)"
        assert len(lines) == 1 + 3  # 4 + 4 + 2 points

    def test_empty_series(self):
        assert format_series("s", []) == "s"


def test_bucket_series_means():
    series = TimeSeries("x")
    for t, v in [(0, 2.0), (5, 4.0), (10, 10.0), (19, 20.0), (30, 1.0)]:
        series.append(t, v)
    assert bucket_series(series, 10) == [(0, 3.0), (1, 15.0), (3, 1.0)]


def test_build_storage_kernel_shape():
    kernel, devices, volume = build_storage_kernel(seed=3)
    assert len(devices) == REPLICAS == 3
    assert volume.devices == devices
    assert volume.kernel is kernel
    assert "false_submit_rate" in kernel.store


def test_listing2_spec_matches_paper_text():
    # The exact constants from the paper's Listing 2.
    assert "TIMER(start_time, 1e9)" in LISTING2_SPEC
    assert "LOAD(false_submit_rate) <= 0.05" in LISTING2_SPEC
    assert "SAVE(ml_enabled, false)" in LISTING2_SPEC
    assert "// Periodically check every 1s." in LISTING2_SPEC
