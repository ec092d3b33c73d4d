"""The substrate's bit-identity contract as a unit test.

A short guarded Figure 2 run is hashed: every ``(time, latency)`` sample of
the series the figure plots, plus the counters a perturbed engine order,
device model, inference path or feature store would move.  The expected
digest was recorded **on the parent commit of the simulator-floor PR**
(0a2556c, before any of ``sim/engine.py``, ``kernel/storage``, ``ml/mlp.py``
or ``policies/linnos.py`` changed), so a substrate optimisation that alters
one float bit, one RNG draw or one event's position fails here in seconds
instead of only in the benchmark's ``sim_fingerprint`` field.

Re-recording (only when a PR *means* to change simulated behaviour, and
says so): check out the parent commit, run

    PYTHONPATH=src python -c "from tests.integration.test_fig2_fingerprint \
import digest; print(digest())"

there, paste the value into ``EXPECTED``, and name the parent commit above.
"""

import hashlib
import json

from repro.bench.scenarios import run_figure2_scenario, train_default_linnos_model

MODEL_SEED = 1
RUN_SEED = 8
DRIFT_AT_S = 4
DURATION_S = 8

EXPECTED = "af469ad86a6865c333e9074967d21f3f3ca517ef4a44f4a0f4dcf12cd009f03f"


def digest():
    model = train_default_linnos_model(seed=MODEL_SEED, train_seconds=12)
    result = run_figure2_scenario(model, "guarded", seed=RUN_SEED,
                                  drift_at_s=DRIFT_AT_S, duration_s=DURATION_S)
    kernel, volume = result.kernel, result.volume
    outputs = {
        # repr() keeps every bit of a float; JSON's float text would too,
        # but repr makes the intent explicit.
        "series": [[time, repr(value)] for time, value in result.series],
        "completed": volume.completed,
        "false_submits": volume.false_submits,
        "model_submits": volume.model_submits,
        "save_count": kernel.store.save_count,
        "load_count": kernel.store.load_count,
        # Sequence numbers drawn = events scheduled + rescheduled.
        "events": kernel.engine._seq,
        "ml_enabled": result.ml_enabled,
    }
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_guarded_fig2_run_is_bit_identical_to_the_recorded_parent():
    assert digest() == EXPECTED
