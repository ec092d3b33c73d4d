"""Eval runner: selection, result merging, jobs-invariant documents."""

import json

import pytest

from repro.eval.dataset import load_dataset
from repro.eval.results import compare_to_baseline
from repro.eval.runner import _merge_outcome, run_eval, select_episodes

# A small mixed subset (4 host + 1 quick fleet episode) keeps the
# byte-identity test fast while exercising both worker kinds.
SUBSET = [
    "host-P1-clean-s11",
    "host-P3-faulty-s11",
    "host-P5-blinded-s12",
    "host-A4-faulty-s12",
    "fleet-quick-corrupt-s42",
]


class TestSelectEpisodes:
    def setup_method(self):
        _, self.episodes = load_dataset()

    def test_quick_tier_keeps_only_quick_episodes(self):
        selected = select_episodes(self.episodes, tier="quick")
        assert selected
        assert all(e["tier"] == "quick" for e in selected)

    def test_full_tier_keeps_everything(self):
        assert select_episodes(self.episodes, tier="full") == self.episodes

    def test_ids_restrict_the_selection(self):
        selected = select_episodes(self.episodes, ids=SUBSET)
        assert sorted(e["id"] for e in selected) == sorted(SUBSET)

    def test_unknown_id_fails_loudly(self):
        with pytest.raises(ValueError, match="host-P1-clean-s99"):
            select_episodes(self.episodes, ids=["host-P1-clean-s99"])

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError, match="unknown tier"):
            select_episodes(self.episodes, tier="smoke")


class TestMergeOutcome:
    EPISODE = {"record": "episode", "id": "host-P1-clean-s11",
               "kind": "host", "tier": "quick", "family": "P1",
               "regime": "clean", "seed": 11, "expected": "allow"}

    def test_worker_failure_becomes_an_error_verdict(self):
        from repro.fleet.rollout import GateConfig

        outcome = {"id": self.EPISODE["id"], "status": "timeout",
                   "payload": None}
        result = _merge_outcome(self.EPISODE, outcome, GateConfig())
        assert result["verdict"] == "error"
        assert result["correct"] is False
        assert result["error"] == "timeout"

    def test_worker_traceback_is_preserved(self):
        from repro.fleet.rollout import GateConfig

        outcome = {"id": self.EPISODE["id"], "status": "error",
                   "payload": {"error": "Traceback: boom"}}
        result = _merge_outcome(self.EPISODE, outcome, GateConfig())
        assert result["verdict"] == "error"
        assert result["error"] == "Traceback: boom"


class TestRunEval:
    @pytest.fixture(scope="class")
    def documents(self):
        # The satellite acceptance check: --jobs must not leak into the
        # document, so jobs=1 and jobs=4 serialize byte-identically.
        return (run_eval(ids=SUBSET, tier="quick", jobs=1),
                run_eval(ids=SUBSET, tier="quick", jobs=4))

    def test_jobs_one_and_four_are_byte_identical(self, documents):
        doc_j1, doc_j4 = documents
        assert (json.dumps(doc_j1, indent=2, sort_keys=True)
                == json.dumps(doc_j4, indent=2, sort_keys=True))

    def test_document_shape_and_correctness(self, documents):
        document, _ = documents
        assert document["schema"] == "repro-eval/v1"
        assert document["dataset"]["schema_version"]
        assert [r["id"] for r in document["episodes"]] == sorted(SUBSET)
        assert all(r["correct"] for r in document["episodes"])
        assert document["scores"]["accuracy"] == 1.0
        fleet = [r for r in document["episodes"] if r["kind"] == "fleet"][0]
        assert fleet["stages"]  # recorded for offline calibration
        assert fleet["stage_verdicts"][0]["tripped_axes"] == ["inconclusive"]

    def test_document_passes_against_itself_as_baseline(self, documents):
        document, _ = documents
        diff = compare_to_baseline(document, document)
        assert diff["passed"]
        assert diff["regressions"] == []

    def test_doctored_baseline_detects_a_regression(self, documents):
        import copy

        document, _ = documents
        doctored = copy.deepcopy(document)
        doctored["episodes"][0]["verdict"] = "error"
        doctored["episodes"][0]["correct"] = False
        # Current run regressed vs a passing baseline -> gate fails.
        diff = compare_to_baseline(doctored, document)
        assert not diff["passed"]
        assert [r["id"] for r in diff["regressions"]] == \
            [document["episodes"][0]["id"]]
        # The same failure already known in the baseline -> tolerated.
        diff = compare_to_baseline(doctored, doctored)
        assert diff["passed"]
        assert [r["id"] for r in diff["known_failures"]] == \
            [document["episodes"][0]["id"]]

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="no episodes"):
            run_eval(ids=[], tier="quick")
