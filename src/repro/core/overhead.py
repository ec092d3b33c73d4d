"""Monitor overhead accounting (backs the P5 property).

The paper's third practitioner concern is that nobody can tell whether the
cost of running a learned policy — or of the guardrails themselves — is
justified.  Every monitor charges its rule evaluations and action dispatches
to an :class:`OverheadAccount`, which converts primitive-op counts into
simulated nanoseconds with a simple linear cost model.  Benchmarks and the
P5 property template read these accounts.
"""


class CostModel:
    """Linear cost model: fixed per-check cost plus per-op cost."""

    def __init__(self, ns_per_op=5, ns_per_check=50, ns_per_action=500):
        self.ns_per_op = ns_per_op
        self.ns_per_check = ns_per_check
        self.ns_per_action = ns_per_action

    def check_cost(self, ops):
        return self.ns_per_check + ops * self.ns_per_op

    def action_cost(self):
        return self.ns_per_action


class OverheadAccount:
    """Accumulated cost of one monitor."""

    def __init__(self, cost_model=None):
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.checks = 0
        self.ops = 0
        self.actions = 0
        self.simulated_ns = 0

    def charge_check(self, ops):
        self.checks += 1
        self.ops += ops
        # check_cost() inlined: charge_check is on every monitor check.
        cost = self.cost_model
        self.simulated_ns += cost.ns_per_check + ops * cost.ns_per_op

    def charge_action(self):
        self.actions += 1
        self.simulated_ns += self.cost_model.action_cost()

    def overhead_fraction(self, elapsed_ns):
        """Monitor time as a fraction of elapsed virtual time."""
        if elapsed_ns <= 0:
            return 0.0
        return self.simulated_ns / elapsed_ns

    def merge(self, other):
        self.checks += other.checks
        self.ops += other.ops
        self.actions += other.actions
        self.simulated_ns += other.simulated_ns
        return self

    def snapshot(self):
        return {
            "checks": self.checks,
            "ops": self.ops,
            "actions": self.actions,
            "simulated_ns": self.simulated_ns,
        }


class InferenceMeter:
    """Cost/benefit ledger for a learned policy itself (P5).

    ``record_inference`` charges model-inference time; ``record_gain``
    credits measured benefit versus the baseline (both in ns).  The P5 rule
    is then simply ``LOAD(policy.net_benefit) >= 0`` — inference overhead
    must be offset by its gains.

    A cumulative ledger can hide a regression behind months of banked
    gains, so ``record_decision`` additionally maintains
    ``<prefix>.net_benefit_window`` — the moving average of per-decision
    net benefit over the last ``window`` decisions — which is what a
    responsive P5 guardrail should watch.
    """

    def __init__(self, store, prefix, window=64):
        from repro.detect.streaming import MovingAverage

        self.store = store
        self.prefix = prefix
        self.inference_ns = 0
        self.gain_ns = 0
        self.inferences = 0
        self._window = MovingAverage(window)
        self._keys = tuple(prefix + suffix for suffix in (
            ".inference_ns", ".gain_ns", ".net_benefit", ".inferences"))
        self._publish()

    def record_inference(self, ns):
        self.inference_ns += ns
        self.inferences += 1
        self._publish()

    def record_gain(self, ns):
        self.gain_ns += ns
        self._publish()

    def record_decision(self, inference_ns, gain_ns):
        """One decision's cost and measured benefit, cumulative + windowed."""
        self.inference_ns += inference_ns
        self.inferences += 1
        self.gain_ns += gain_ns
        self._window.update(gain_ns - inference_ns)
        self.store.save(self.prefix + ".net_benefit_window", self._window.value)
        self._publish()

    @property
    def net_benefit(self):
        return self.gain_ns - self.inference_ns

    def _publish(self):
        save = self.store.save
        inference_key, gain_key, net_key, count_key = self._keys
        save(inference_key, self.inference_ns)
        save(gain_key, self.gain_ns)
        save(net_key, self.net_benefit)
        save(count_key, self.inferences)
