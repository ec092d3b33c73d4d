"""Retraining lifecycle daemon."""

import pytest

from repro.core.retraining import RetrainDaemon
from repro.sim.units import SECOND


def make_daemon(host, **kwargs):
    return RetrainDaemon(host, poll_interval=1 * SECOND, **kwargs)


def test_trains_and_reenables(host):
    daemon = make_daemon(host)
    trained, completed = [], []
    daemon.register(
        "m",
        trainer=lambda request: trained.append(request) or "new-model",
        on_complete=lambda result, request: completed.append(result),
        training_time=3 * SECOND,
    )
    daemon.start()
    host.retrain_queue.request("m", now=0, requested_by="guardrail")
    host.engine.run(until=2 * SECOND)
    # Picked up at the 1s poll, training until 4s: not done yet.
    assert host.retrain_queue.pending == []
    assert trained == []
    host.engine.run(until=5 * SECOND)
    assert trained[0]["requested_by"] == "guardrail"
    assert completed == ["new-model"]
    assert daemon.completed_count == 1
    # The finished run leaves flight: a later request trains again instead
    # of collapsing into it (poll at 6s, training until 9s).
    host.retrain_queue.request("m", now=host.engine.now, requested_by="again")
    host.engine.run(until=10 * SECOND)
    assert completed == ["new-model", "new-model"]
    assert daemon.completed_count == 2
    assert daemon.collapsed_count == 0


def test_training_time_elapses_on_virtual_clock(host):
    daemon = make_daemon(host)
    finish_times = []
    daemon.register("m", trainer=lambda r: None,
                    on_complete=lambda *a: finish_times.append(host.engine.now),
                    training_time=10 * SECOND)
    daemon.start()
    host.retrain_queue.request("m", now=0)
    host.engine.run(until=12 * SECOND)
    assert finish_times == [11 * SECOND]  # 1s poll + 10s training


def test_duplicate_requests_collapse_while_in_flight(host):
    daemon = make_daemon(host)
    runs = []
    daemon.register("m", trainer=lambda r: runs.append(1),
                    training_time=5 * SECOND)
    daemon.start()
    for t in range(4):
        host.engine.schedule_at(t * SECOND, host.retrain_queue.request, "m", t)
    host.engine.run(until=10 * SECOND)
    assert len(runs) == 1
    assert daemon.collapsed_count >= 2


def test_unregistered_models_stay_queued(host):
    daemon = make_daemon(host)
    daemon.start()
    host.retrain_queue.request("mystery", now=0)
    host.engine.run(until=3 * SECOND)
    assert len(host.retrain_queue.pending) == 1


def test_notes_record_lifecycle(host):
    daemon = make_daemon(host)
    daemon.register("m", trainer=lambda r: None, training_time=1 * SECOND)
    daemon.start()
    host.retrain_queue.request("m", now=0, requested_by="g")
    host.engine.run(until=4 * SECOND)
    kinds = [n["kind"] for n in host.reporter.notes]
    assert "RETRAIN_START" in kinds
    assert "RETRAIN_DONE" in kinds


def test_stop_halts_polling(host):
    daemon = make_daemon(host)
    runs = []
    daemon.register("m", trainer=lambda r: runs.append(1),
                    training_time=1 * SECOND)
    daemon.start()
    daemon.stop()
    host.retrain_queue.request("m", now=0)
    host.engine.run(until=5 * SECOND)
    assert runs == []


def test_double_start_and_duplicate_register_rejected(host):
    daemon = make_daemon(host)
    daemon.register("m", trainer=lambda r: None)
    with pytest.raises(ValueError):
        daemon.register("m", trainer=lambda r: None)
    daemon.start()
    with pytest.raises(RuntimeError):
        daemon.start()


def test_independent_models_train_concurrently(host):
    daemon = make_daemon(host)
    done = []
    for name in ("a", "b"):
        daemon.register(name, trainer=lambda r, n=name: done.append(n),
                        training_time=2 * SECOND)
    daemon.start()
    host.retrain_queue.request("a", now=0)
    host.retrain_queue.request("b", now=0)
    host.engine.run(until=4 * SECOND)
    assert sorted(done) == ["a", "b"]
