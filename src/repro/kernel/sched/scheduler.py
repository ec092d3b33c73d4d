"""Timeslice scheduler with a swappable pick-next policy.

The scheduler loop: pick a runnable task through the ``sched.pick_next``
function slot, run it for ``min(timeslice, remaining burst)``, account
vruntime and wait times, publish fairness metrics to the feature store, and
repeat.  When no task is runnable the CPU idles until the next wakeup.

Published feature-store keys (the P6 property surface):

- ``sched.max_wait_ms`` — the longest any currently-runnable task has been
  waiting (starvation signal);
- ``sched.wait_ms`` — per-dispatch wait samples (feeding derived
  aggregates such as ``sched.wait_ms.avg``).

The ``sched.pick_next_task`` hook fires on every dispatch.
"""

from repro.kernel.sched.task import Task
from repro.sim.units import MILLISECOND


def cfs_pick():
    """Baseline: minimum-vruntime (CFS-like) picker."""

    def pick(scheduler):
        runnable = scheduler.runnable_tasks()
        if not runnable:
            return None
        return min(runnable, key=lambda t: (t.vruntime, t.name))

    return pick


class SchedulerTaskController:
    """A4 DEPRIORITIZE target: renice or kill tasks by name.

    Priorities map to nice values; a priority <= ``KILL_BELOW`` kills the
    task (the OOM-killer analogy from the paper).
    """

    KILL_BELOW = 0

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.renice_count = 0
        self.kill_count = 0

    def deprioritize(self, targets, priorities):
        for name, priority in zip(targets, priorities):
            task = self.scheduler.find_task(name)
            if task is None or not task.alive:
                continue
            if priority <= self.KILL_BELOW:
                self.scheduler.kill(task)
                self.kill_count += 1
            else:
                task.set_nice(min(int(priority), 19))
                self.renice_count += 1


class CpuScheduler:
    PICK_SLOT = "sched.pick_next"
    BASELINE_NAME = "sched.cfs"
    TIMESLICE = 4 * MILLISECOND

    def __init__(self, kernel):
        self.kernel = kernel
        self.tasks = []
        self._running = None
        self._idle = True
        self.context_switches = 0
        self.idle_ns = 0
        self._idle_since = None

        self.pick_hook = kernel.hooks.declare("sched.pick_next_task")
        baseline = cfs_pick()
        if self.PICK_SLOT not in kernel.functions:
            kernel.functions.register(self.PICK_SLOT, baseline)
            kernel.functions.register_implementation(self.BASELINE_NAME, baseline)
        kernel.store.derive_moving_average("sched.wait_ms", window=64)
        kernel.task_controller = SchedulerTaskController(self)

    # -- task management -----------------------------------------------------

    def add_task(self, task):
        if self.find_task(task.name) is not None:
            raise ValueError("task name {!r} already exists".format(task.name))
        self.tasks.append(task)
        task.mark_runnable(self.kernel.engine.now)
        self._kick()
        return task

    def spawn(self, name, **kwargs):
        return self.add_task(Task(name, **kwargs))

    def find_task(self, name):
        for task in self.tasks:
            if task.name == name:
                return task
        return None

    def kill(self, task):
        task.killed = True
        task.runnable_since = None

    def runnable_tasks(self):
        return [t for t in self.tasks if t.alive and t.runnable_since is not None]

    # -- scheduler loop ----------------------------------------------------------

    def _kick(self):
        if self._idle and self._running is None:
            self._idle = False
            if self._idle_since is not None:
                self.idle_ns += self.kernel.engine.now - self._idle_since
                self._idle_since = None
            self.kernel.engine.schedule(0, self._dispatch)

    def _dispatch(self):
        now = self.kernel.engine.now
        self._publish_waits(now)
        picker = self.kernel.functions.slot(self.PICK_SLOT)
        task = picker(self)
        if task is None or not task.alive:
            self._running = None
            self._idle = True
            self._idle_since = now
            return
        task.record_dispatch(now)
        self.kernel.store.save("sched.wait_ms",
                               task.wait_samples[-1] / MILLISECOND
                               if task.wait_samples else 0.0)
        self.pick_hook.fire(
            task=task.name,
            wait_ms=(task.wait_samples[-1] / MILLISECOND) if task.wait_samples else 0.0,
            runnable=len(self.runnable_tasks()),
        )
        self._running = task
        self.context_switches += 1
        run_ns = min(self.TIMESLICE, task.remaining_burst_ns)
        self.kernel.engine.schedule(run_ns, self._tick, task, run_ns)

    def _tick(self, task, ran_ns):
        now = self.kernel.engine.now
        self._running = None
        if task.killed:
            self.kernel.engine.schedule(0, self._dispatch)
            return
        finished = task.account_run(ran_ns)
        self.kernel.metrics.record("sched.ran_ns", ran_ns)
        if finished:
            self.kernel.metrics.increment("sched.finished")
        elif task.remaining_burst_ns <= 0:
            # Burst done: think, then become runnable again.
            task.remaining_burst_ns = task.burst_ns
            if task.think_ns > 0:
                self.kernel.engine.schedule(task.think_ns, self._wake, task)
            else:
                task.mark_runnable(now)
        else:
            # Preempted mid-burst: still runnable.
            task.mark_runnable(now)
        self.kernel.engine.schedule(0, self._dispatch)

    def _wake(self, task):
        if not task.alive:
            return
        task.mark_runnable(self.kernel.engine.now)
        self._kick()

    def _publish_waits(self, now):
        waits = [t.waiting_ns(now) for t in self.runnable_tasks()]
        max_wait_ms = max(waits) / MILLISECOND if waits else 0.0
        self.kernel.store.save("sched.max_wait_ms", max_wait_ms)

    # -- summaries ------------------------------------------------------------

    def wait_stats(self):
        """Per-task mean/max wait in ms, for reports and tests.

        A task that is *still* waiting counts its in-progress wait toward
        the max — otherwise a fully starved task would report zero.
        """
        now = self.kernel.engine.now
        out = {}
        for task in self.tasks:
            samples = task.wait_samples
            max_wait = max(task.max_wait_ns, task.waiting_ns(now))
            out[task.name] = {
                "dispatches": task.dispatch_count,
                "mean_wait_ms": (sum(samples) / len(samples) / MILLISECOND)
                if samples else 0.0,
                "max_wait_ms": max_wait / MILLISECOND,
                "executed_ms": task.executed_ns / MILLISECOND,
                "alive": task.alive,
            }
        return out
