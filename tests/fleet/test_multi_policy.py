"""Fleet hosts run the shortest-queue storage policy through the model.

Shortest-queue predicts "fast" on every submit, so the Listing-2
false-submit signal exists on every host.
"""

from repro.fleet.rollout import GuardrailVersion
from repro.fleet.scenario import FLEET_SPEC_V1, GUARDRAIL_NAME
from repro.fleet.worker import FleetRunner, HostSpec
from repro.sim.units import SECOND


def _run_fleet(specs, rounds=3):
    version = GuardrailVersion(GUARDRAIL_NAME, 1, FLEET_SPEC_V1)
    digests = []
    with FleetRunner(specs, version, round_ns=1 * SECOND,
                     total_rounds=rounds, jobs=1) as runner:
        for index in range(rounds):
            digests.extend(runner.step_round(index, (index + 1) * SECOND))
    return digests


def test_shortest_queue_host_uses_model():
    digests = _run_fleet([HostSpec(0, seed=11)])
    assert sum(d.completed_ios for d in digests) > 0
    assert sum(d.model_submits for d in digests) > 0
