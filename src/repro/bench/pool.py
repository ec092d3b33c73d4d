"""Generic sharded process pool shared by the bench, eval and scenario runners.

One worker *process* per task: a per-task timeout can kill a hung run
without poisoning a shared pool, and a crashed interpreter (OOM,
segfaulting native code) costs one retry instead of the whole suite.
Results travel over a pipe rather than a ``multiprocessing.Queue``:
``Pipe.send`` writes synchronously before the child exits, so the parent
can never observe a dead child whose result is still stuck in a queue
feeder thread.

The pool knows nothing about benchmarks, eval episodes or scenarios —
callers hand it :class:`PoolTask` entries whose ``target`` is a picklable
module-level ``target(*args) -> result``.  The pool's one child protocol
(:func:`_child`) times the call and sends exactly one ``(status,
payload)`` tuple: ``("ok", {"result", "wall_time_s"})`` or, for any
exception, ``("error", {"error": <traceback>, "summary": "<Type>: <msg>",
"wall_time_s"})``.  Supervision (poll with deadline, retry-once on
crash/timeout) is written here once.
"""

import multiprocessing
import time
import traceback

DEFAULT_TIMEOUT_S = 300.0
_POLL_S = 0.05


def _child(target, args, conn):
    """Child-process entry: run ``target(*args)``, send one outcome."""
    started = time.perf_counter()
    try:
        result = target(*args)
    except BaseException as exc:
        conn.send(("error", {
            "error": traceback.format_exc(),
            "summary": "{}: {}".format(type(exc).__name__, exc),
            "wall_time_s": time.perf_counter() - started,
        }))
    else:
        conn.send(("ok", {"result": result,
                          "wall_time_s": time.perf_counter() - started}))
    finally:
        conn.close()


class PoolTask:
    """One unit of pool work: a picklable target plus its arguments.

    ``cost`` is a relative duration estimate used only for progress
    output; callers order the task list themselves (longest-first packs
    the pool best).
    """

    __slots__ = ("id", "target", "args", "cost")

    def __init__(self, task_id, target, args=(), cost=1.0):
        self.id = task_id
        self.target = target
        self.args = tuple(args)
        self.cost = float(cost)

    def __repr__(self):
        return "PoolTask({!r}, cost={:g})".format(self.id, self.cost)


class _Job:
    def __init__(self, task, attempt):
        self.task = task
        self.attempt = attempt
        self.conn = None
        self.process = None
        self.deadline = None

    def start(self, timeout_s):
        self.conn, child_conn = multiprocessing.Pipe(duplex=False)
        self.process = multiprocessing.Process(
            target=_child,
            args=(self.task.target, self.task.args, child_conn),
            daemon=True)
        self.process.start()
        child_conn.close()
        self.deadline = time.monotonic() + timeout_s

    def receive(self):
        """(status, payload) if the child has reported, else None."""
        try:
            if self.conn.poll():
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None


def run_pool(tasks, jobs=1, timeout_s=DEFAULT_TIMEOUT_S, progress=None):
    """Run tasks on up to ``jobs`` worker processes; return outcome dicts.

    Tasks start in list order.  Per-task failure policy: a status the
    child itself reported (``"ok"``, or ``"error"`` for an exception the
    target raised) is final and recorded immediately; a crashed or
    timed-out worker is retried once (``status="crash"``/``"timeout"`` if
    the retry also dies, with the diagnostic under ``payload["error"]``).  The returned list is
    sorted by task id regardless of completion order, so merged output is
    canonical.
    """
    jobs = max(1, int(jobs))
    progress = progress or (lambda message: None)
    pending = list(tasks)
    running = []
    outcomes = []

    def finish(job, status, payload):
        outcomes.append({
            "id": job.task.id,
            "attempts": job.attempt,
            "status": status,
            "payload": payload,
        })
        progress("{:<9} {} (attempt {}, {:.2f}s)".format(
            status, job.task.id, job.attempt,
            (payload or {}).get("wall_time_s") or 0.0))

    def retry_or_fail(job, status, payload):
        if job.attempt == 1:
            progress("{:<9} {} (attempt 1) — retrying once".format(
                status, job.task.id))
            replacement = _Job(job.task, attempt=2)
            replacement.start(timeout_s)
            running.append(replacement)
        else:
            finish(job, status, payload)

    while pending or running:
        while pending and len(running) < jobs:
            job = _Job(pending.pop(0), attempt=1)
            job.start(timeout_s)
            progress("start     {} (cost {:g})".format(
                job.task.id, job.task.cost))
            running.append(job)
        time.sleep(_POLL_S)
        for job in running[:]:
            received = job.receive()
            alive = job.process.is_alive()
            if received is None and not alive:
                received = job.receive()  # result raced the exit check
            if received is not None:
                status, payload = received
                job.process.join()
                running.remove(job)
                finish(job, status, payload)
            elif not alive:
                # Died without reporting: crashed interpreter.
                job.process.join()
                running.remove(job)
                retry_or_fail(job, "crash", {
                    "error": "worker exited with code {}".format(
                        job.process.exitcode)})
            elif time.monotonic() > job.deadline:
                job.process.terminate()
                job.process.join(5)
                if job.process.is_alive():
                    job.process.kill()
                    job.process.join()
                running.remove(job)
                retry_or_fail(job, "timeout", {
                    "error": "task exceeded {:.0f}s timeout".format(
                        timeout_s)})
    return sorted(outcomes, key=lambda outcome: outcome["id"])


__all__ = ["DEFAULT_TIMEOUT_S", "PoolTask", "run_pool"]
