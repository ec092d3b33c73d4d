"""Learned scheduling (P6 substrate).

A shortest-predicted-job-first picker: per task, an online EWMA predictor of
the next CPU burst; the picker always dispatches the task with the smallest
prediction.  Mean turnaround improves (SJF is optimal for it), but long
tasks starve whenever short tasks keep arriving — the liveness violation the
P6 guardrail ("no ready task should be starved for more than 100 ms")
exists to catch, answered by REPLACE(sched.pick_next, sched.cfs) or by
DEPRIORITIZE.
"""


class BurstPredictor:
    """EWMA of each task's observed bursts."""

    def __init__(self, alpha=0.4, initial_ns=1_000_000):
        self.alpha = alpha
        self.initial_ns = initial_ns
        self._estimates = {}

    def observe(self, task_name, burst_ns):
        previous = self._estimates.get(task_name)
        self._estimates[task_name] = (
            burst_ns if previous is None
            else self.alpha * burst_ns + (1 - self.alpha) * previous
        )

    def predict(self, task_name):
        return self._estimates.get(task_name, self.initial_ns)


class LearnedShortestJobPolicy:
    """``policy(scheduler) -> task`` picking the smallest predicted burst."""

    def __init__(self):
        self.predictor = BurstPredictor()

    def __call__(self, scheduler):
        runnable = scheduler.runnable_tasks()
        if not runnable:
            return None
        # Ties (equal predictions) go to the longest-waiting task, so equal
        # short tasks share the CPU; the starvation this policy causes is of
        # *long* tasks, not an artifact of tie-breaking.
        return min(
            runnable,
            key=lambda t: (self.predictor.predict(t.name), t.runnable_since, t.name),
        )


#: Implementation name of the learned scheduling policy.
POLICY_NAME = "sched.learned_sjf"


def attach_learned_sched_policy(kernel, scheduler):
    """Install the learned picker and its online trainer on ``scheduler``
    and activate it."""
    policy = LearnedShortestJobPolicy()

    def on_dispatch(hook, now, payload):
        # Online training: learn each task's characteristic burst from what
        # it actually consumed last time around.
        task = scheduler.find_task(payload["task"])
        if task is not None:
            policy.predictor.observe(task.name, task.burst_ns)

    scheduler.pick_hook.attach(on_dispatch, name=POLICY_NAME + ".trainer")
    kernel.functions.register_implementation(POLICY_NAME, policy)
    kernel.functions.replace(scheduler.PICK_SLOT, POLICY_NAME)
    return policy
