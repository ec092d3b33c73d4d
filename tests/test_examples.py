"""Smoke tests: every example script runs to completion.

The fast ones run in the normal suite; the expensive ones are marked slow.
"""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name):
    path = EXAMPLES / name
    assert path.exists(), "missing example {}".format(name)
    # Run as __main__ so the `if __name__ == "__main__":` body executes.
    runpy.run_path(str(path), run_name="__main__")


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "disabled it" in out


def test_scheduler_fairness(capsys):
    run_example("scheduler_fairness.py")
    out = capsys.readouterr().out
    assert "with P6 guardrail" in out
    assert "batch" in out


def test_feedback_loops(capsys):
    run_example("feedback_loops.py")
    out = capsys.readouterr().out
    assert "key-flapping" in out
    assert "dampened by disabling" in out
    assert "dependency checking: 1 trip(s)" in out


def test_synthesized_guardrails(capsys):
    run_example("synthesized_guardrails.py")
    out = capsys.readouterr().out
    assert "generated P4 guardrail" in out
    assert "auto-tightening trajectory" in out


def test_fleet_rollout(capsys):
    run_example("fleet_rollout.py")
    out = capsys.readouterr().out
    assert "clean rollout" in out
    assert "rolled back to v1" in out


@pytest.mark.slow
def test_tiered_memory(capsys):
    run_example("tiered_memory.py")
    out = capsys.readouterr().out
    assert "hit rate (skewed)" in out


@pytest.mark.slow
def test_congestion_collapse(capsys):
    run_example("congestion_collapse.py")
    out = capsys.readouterr().out
    assert "utilization @400Mbps" in out


@pytest.mark.slow
def test_linnos_guardrail(capsys):
    run_example("linnos_guardrail.py")
    out = capsys.readouterr().out
    assert "Figure 2 summary" in out
    assert "guardrail triggered" in out


@pytest.mark.slow
def test_closed_loop_example(capsys):
    run_example("closed_loop.py")
    out = capsys.readouterr().out
    assert "RETRAIN_DONE" in out
