"""§6 feedback-loop study: oscillation, damping, and idle-check accounting.

Everything here is pinned at the registry's fixed seed (17).  The physics:
each false submit files retry debt onto the bottleneck link; under
timer-driven checking the storage guardrail's detection delay lets the
debt overdrive the link, the loss guardrail re-enables the broken model,
and the pair alternates for the whole run.  Dependency-driven checking
fires the storage check off the feature-store write, catches the drift
within the drain headroom, and the loop damps after a single trip.
"""

import pytest

from repro.core.feedback import FeedbackDetector
from repro.scenarios import get_scenario, run_scenario
from repro.scenarios.feedback import (
    A_NAME,
    B_NAME,
    build_feedback_kernel,
    run_feedback_study,
)
from repro.sim.units import SECOND

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def timer_study():
    return run_feedback_study("timer", seed=17, duration_s=40.0)


@pytest.fixture(scope="module")
def dependency_study():
    return run_feedback_study("dependency", seed=17, duration_s=40.0)


def assert_detector_defines_oscillation(study, report):
    """The study's ``alternations`` is the detector's key-flapping count
    (0 without a report), and the hand count of guardrail changes agrees
    with it at this seed."""
    assert study["alternations"] == (report.count if report else 0)
    assert study["oscillating"] == (report is not None)
    trips = study["trip_sequence"]
    assert study["alternations"] == sum(
        1 for a, b in zip(trips, trips[1:]) if a != b)


@pytest.fixture(scope="module")
def flapping():
    """Per mode, the detector's ``ml_enabled`` key-flapping report over a
    whole rig run, or None."""
    reports = {}
    for mode in ("timer", "dependency"):
        kernel, _monitors, _bridge, _auditor = build_feedback_kernel(mode)
        kernel.run(until=40 * SECOND)
        found = [report for report
                 in FeedbackDetector(kernel, window=40 * SECOND).scan()
                 if report.kind == "key-flapping"]
        reports[mode] = found[0] if found else None
    return reports


def test_timer_mode_oscillates(timer_study, flapping):
    study = timer_study
    assert_detector_defines_oscillation(study, flapping["timer"])
    key, *guardrails = flapping["timer"].subjects
    assert key == "ml_enabled" and set(guardrails) == {A_NAME, B_NAME}
    assert study["alternations"] >= 3
    assert not study["converged"]
    assert study["tail_trips"] > 0  # still thrashing in the final quarter
    # Strict alternation: every trip flips which guardrail fired.
    trips = study["trip_sequence"]
    assert set(trips) == {A_NAME, B_NAME}
    assert all(a != b for a, b in zip(trips, trips[1:]))


def test_dependency_mode_converges(dependency_study, flapping):
    study = dependency_study
    assert_detector_defines_oscillation(study, flapping["dependency"])
    assert flapping["dependency"] is None
    assert study["converged"]
    assert study["alternations"] == 0
    assert study["tail_trips"] == 0
    # Exactly one trip: the genuine post-drift detection by the storage
    # guardrail, which turns the model off for good.
    assert study["trip_sequence"] == [A_NAME]
    assert study["ml_enabled_final"] is False


def test_dependency_detection_is_faster(timer_study, dependency_study):
    """Dependency checking catches the drift strictly before the timer's
    next period (3.838 s vs 4.0 s), and the run files strictly less retry
    debt onto the link."""
    assert dependency_study["first_trip_s"] < timer_study["first_trip_s"]
    assert (dependency_study["retry_debt_filed_mbit"]
            < timer_study["retry_debt_filed_mbit"])


def test_idle_check_study_shows_reduction():
    """On a quiet host the timer burns idle checks; dependency burns none.

    ``false_submit_rate`` is never written (model off, no drift), so every
    timer-driven storage check re-reads unchanged keys.  The dependency
    trigger simply never fires for it.
    """
    timer = run_feedback_study("timer", seed=17, duration_s=40.0, quiet=True)
    dependency = run_feedback_study("dependency", seed=17, duration_s=40.0,
                                    quiet=True)
    assert timer["trips"] == dependency["trips"] == 0
    assert timer["idle_checks"] > 0
    assert dependency["idle_checks"] == 0
    assert dependency["checks_total"] < timer["checks_total"]


def test_feedback_scenarios_match_registry(flapping):
    timer = run_scenario(get_scenario("feedback/coupled/timer"))
    dependency = run_scenario(get_scenario("feedback/coupled/dependency"))
    # The registry calls a run oscillating exactly when the detector
    # reports key flapping.
    for result, mode in ((timer, "timer"), (dependency, "dependency")):
        assert ((result["verdicts"]["behavior"] == "oscillates")
                == (flapping[mode] is not None))
    assert timer["matched"]
    assert timer["verdicts"] == {"behavior": "oscillates"}
    assert timer["overall"] == "trip"
    assert dependency["matched"]
    assert dependency["verdicts"] == {"behavior": "converges"}
    assert dependency["overall"] == "allow"
    # The study payload rides along for benchmarks and docs.
    assert timer["study"]["alternations"] >= 3
    assert dependency["study"]["tail_trips"] == 0
