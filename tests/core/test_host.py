"""Monitor host plumbing: retrain queue, reporter, defaults."""

from repro.core.host import (
    MonitorHost,
    NullTaskController,
    RetrainQueue,
    ViolationReporter,
)


def test_host_builds_consistent_defaults():
    host = MonitorHost()
    assert host.store is not None
    assert host.hooks.engine is host.engine
    # The store clock follows the engine.
    host.engine.schedule(100, host.store.save, "k", 1)
    host.engine.run()
    assert host.store.version("k") == 1


class TestRetrainQueue:
    def test_requests_queue_and_drain(self):
        queue = RetrainQueue()
        trained = []
        queue.register_trainer("m", lambda request: trained.append(request))
        queue.request("m", now=0, data_ref="window")
        completed = queue.drain()
        assert len(completed) == 1
        assert trained[0]["data_ref"] == "window"
        assert queue.pending == []

    def test_drain_without_trainer_still_completes(self):
        queue = RetrainQueue()
        queue.request("m", now=0)
        assert len(queue.drain()) == 1

    def test_rate_limit_per_model(self):
        queue = RetrainQueue(min_interval=100)
        assert queue.request("m", now=0)
        assert not queue.request("m", now=50)
        assert queue.request("m", now=200)
        assert queue.request("other", now=50)  # independent limit
        assert queue.accepted_count == 3
        assert queue.rejected_count == 1

    def test_abuse_protection_counts(self):
        # The paper: retraining "must be protected to prevent abuse from
        # malicious processes intentionally triggering frequent retraining".
        queue = RetrainQueue(min_interval=1000)
        for t in range(0, 100, 10):
            queue.request("m", now=t)
        assert queue.accepted_count == 1
        assert queue.rejected_count == 9


def test_null_task_controller_records():
    controller = NullTaskController()
    controller.deprioritize(["a"], [1])
    assert controller.requests == [(["a"], [1])]


def test_reporter_note_capacity():
    host = MonitorHost(reporter=ViolationReporter(capacity=2))
    for i in range(4):
        host.reporter.note("K", "g", i)
    assert len(host.reporter.notes) == 2
    assert host.reporter.dropped == 2
    assert host.reporter.notes[0]["time"] == 2
