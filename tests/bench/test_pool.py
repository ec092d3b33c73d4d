"""The shared process pool's one child protocol, tested directly."""

import os
import time

import pytest

from repro.bench.pool import PoolTask, run_pool


def double(value):
    return {"doubled": value * 2}


def broken():
    raise ValueError("deliberately broken target")


def dies():
    os._exit(3)


def hangs():
    time.sleep(60)


def naps(seconds):
    time.sleep(seconds)
    return seconds


def test_returned_value_arrives_as_ok():
    (outcome,) = run_pool([PoolTask("t", double, (21,))])
    assert outcome["id"] == "t"
    assert outcome["status"] == "ok"
    assert outcome["attempts"] == 1
    assert outcome["payload"]["result"] == {"doubled": 42}
    assert outcome["payload"]["wall_time_s"] >= 0.0


def test_exception_is_a_final_error_with_traceback_and_summary():
    (outcome,) = run_pool([PoolTask("t", broken)])
    assert outcome["status"] == "error"
    assert outcome["attempts"] == 1  # deterministic: never retried
    payload = outcome["payload"]
    assert payload["error"].startswith("Traceback")
    assert "in broken" in payload["error"]
    assert payload["summary"] == "ValueError: deliberately broken target"
    assert payload["wall_time_s"] >= 0.0


def test_child_that_exits_is_a_crash_retried_once():
    (outcome,) = run_pool([PoolTask("t", dies)])
    assert outcome["status"] == "crash"
    assert outcome["attempts"] == 2
    assert outcome["payload"]["error"] == "worker exited with code 3"


def test_hung_child_is_killed_as_timeout():
    started = time.monotonic()
    (outcome,) = run_pool([PoolTask("t", hangs)], timeout_s=0.3)
    assert outcome["status"] == "timeout"
    assert outcome["attempts"] == 2
    assert "timeout" in outcome["payload"]["error"]
    assert time.monotonic() - started < 30


@pytest.mark.parametrize("jobs", [1, 3])
def test_results_are_sorted_by_id(jobs):
    # Started in this order, the short naps finish first at jobs=3.
    tasks = [PoolTask(task_id, naps, (seconds,)) for task_id, seconds in
             (("e", 0.3), ("c", 0.0), ("a", 0.2), ("d", 0.0), ("b", 0.1))]
    outcomes = run_pool(tasks, jobs=jobs)
    assert [o["id"] for o in outcomes] == ["a", "b", "c", "d", "e"]
    assert [o["payload"]["result"] for o in outcomes] == [
        0.2, 0.1, 0.0, 0.0, 0.3]
    assert {o["status"] for o in outcomes} == {"ok"}
