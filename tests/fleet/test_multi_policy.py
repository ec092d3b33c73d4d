"""Multi-policy hosts: spec-driven policy (S1), digest groups, identity.

The S1 regression: ``SimulatedHost`` used to hardcode
``storage.shortest_queue`` regardless of the spec, so a round-robin host
still ran the model.  Pre-fix, ``test_round_robin_host_never_uses_model``
fails with thousands of model submits.
"""

import json

import pytest

from repro.fleet.aggregate import FleetDigest, HostDigest, merge_groups
from repro.fleet.rollout import GuardrailVersion
from repro.fleet.scenario import FLEET_SPEC_V1, GUARDRAIL_NAME
from repro.fleet.worker import FleetRunner, HostSpec, SimulatedHost
from repro.sim.units import SECOND


def _version():
    return GuardrailVersion(GUARDRAIL_NAME, 1, FLEET_SPEC_V1)


def _run_fleet(specs, rounds=3, jobs=1):
    digests = []
    with FleetRunner(specs, _version(), round_ns=1 * SECOND,
                     total_rounds=rounds, jobs=jobs) as runner:
        for index in range(rounds):
            digests.extend(runner.step_round(index, (index + 1) * SECOND))
    return digests


# -- S1: the storage policy comes from the spec ---------------------------

def test_round_robin_host_never_uses_model():
    digests = _run_fleet([HostSpec(0, seed=11,
                                   policy="storage.round_robin")])
    assert sum(d.completed_ios for d in digests) > 0
    assert sum(d.model_submits for d in digests) == 0
    assert sum(d.false_submits for d in digests) == 0


def test_shortest_queue_host_uses_model():
    digests = _run_fleet([HostSpec(0, seed=11,
                                   policy="storage.shortest_queue")])
    assert sum(d.model_submits for d in digests) > 0


def test_default_policy_is_shortest_queue():
    assert HostSpec(0, seed=1).policy == "storage.shortest_queue"


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown storage policy"):
        HostSpec(0, seed=1, policy="storage.psychic")


def test_spec_validates_domains():
    with pytest.raises(ValueError, match="start with 'storage'"):
        HostSpec(0, seed=1, domains=("cache",))
    with pytest.raises(ValueError, match="duplicate"):
        HostSpec(0, seed=1, domains=("storage", "cache", "cache"))


# -- multi-policy hosts and digest groups ---------------------------------

def test_multi_domain_host_populates_groups():
    spec = HostSpec(0, seed=7, domains=("storage", "cache", "sched"))
    digests = _run_fleet([spec], rounds=2)
    for digest in digests:
        assert set(digest.groups) == {"storage", "cache", "sched"}
        # Top-level counters remain the sum over the per-domain groups.
        for field in ("checks", "violations", "actions", "inconclusive"):
            assert getattr(digest, field) == sum(
                group[field] for group in digest.groups.values())
        # One TIMER(1s) check per guardrail per round.
        assert all(group["checks"] == 1
                   for group in digest.groups.values())


def test_legacy_host_leaves_groups_empty():
    digests = _run_fleet([HostSpec(0, seed=11)], rounds=1)
    digest = digests[0]
    assert digest.groups == {}
    assert "groups" not in digest.to_dict()
    sketches = json.loads(digest.to_row()["sketches"])
    assert "groups" not in sketches  # byte-identical legacy rows


def test_groups_merge_exactly_across_rounds_and_hosts():
    specs = [HostSpec(i, seed=30 + i, domains=("storage", "mm")) for i in range(3)]
    digests = _run_fleet(specs, rounds=3)
    fleet = FleetDigest()
    for digest in digests:
        fleet.merge_host(digest)
    expected = {}
    for digest in digests:
        merge_groups(expected, digest.groups)
    assert fleet.groups == expected
    assert fleet.to_dict()["groups"] == {
        domain: dict(counters)
        for domain, counters in sorted(expected.items())}
    # 3 hosts x 3 rounds x one check per guardrail per round.
    assert fleet.groups["storage"]["checks"] == 9
    assert fleet.groups["mm"]["checks"] == 9


def test_groups_survive_row_round_trip():
    spec = HostSpec(0, seed=7, domains=("storage", "net"))
    digest = _run_fleet([spec], rounds=1)[0]
    assert digest.groups
    restored = HostDigest.from_row(digest.to_row())
    assert restored.groups == digest.groups
    assert restored.to_row() == digest.to_row()


def test_multi_domain_digests_identical_across_jobs():
    def run(jobs):
        specs = [HostSpec(i, seed=20 + i, domains=("storage", "cache")) for i in range(4)]
        return [json.dumps(d.to_row(), sort_keys=True)
                for d in _run_fleet(specs, rounds=3, jobs=jobs)]

    assert run(1) == run(3)


def test_host_digest_merge_round_adds_groups():
    spec = HostSpec(0, seed=7, domains=("storage", "cache"))
    first, second = _run_fleet([spec], rounds=2)
    merged = HostDigest.from_row(first.to_row())
    merged.merge_round(HostDigest.from_row(second.to_row()))
    for domain in ("storage", "cache"):
        for field in ("checks", "violations", "actions", "inconclusive"):
            assert merged.groups[domain][field] == (
                first.groups[domain][field] + second.groups[domain][field])


def test_apply_retires_counters_into_the_right_group():
    """A guardrail version update on a multi-policy host keeps per-domain
    deltas exact across the monitor swap."""
    spec = HostSpec(0, seed=7, domains=("storage", "cache"))
    host = SimulatedHost(spec, _version(), round_ns=1 * SECOND,
                         total_rounds=4)
    host.step(2 * SECOND)
    first = host.digest(0)
    host.apply(GuardrailVersion(GUARDRAIL_NAME, 2, FLEET_SPEC_V1))
    host.step(4 * SECOND)
    second = host.digest(1)
    # Two rounds each: storage checks once per second either side of the
    # update; the cache guardrail is untouched by the rollout.
    assert first.groups["storage"]["checks"] == 2
    assert second.groups["storage"]["checks"] == 2
    assert first.groups["cache"]["checks"] == 2
    assert second.groups["cache"]["checks"] == 2
