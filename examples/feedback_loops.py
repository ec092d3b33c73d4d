"""§6 discussion: guardrail feedback loops, detected and dampened.

Two well-meaning guardrails on one host fight over the same switch:

- ``feedback-storage-false-submit`` disables the learned storage policy
  when its false-submit rate leaves the envelope;
- ``feedback-net-retry-loss`` re-enables it when link loss says the
  fallback's retry traffic is hurting the network.

Every false submit files retry debt onto the link, so each fix triggers
the other guardrail's violation.  Under timer-driven checking the pair
oscillates after the device drift — exactly the failure mode the
paper's discussion predicts.  The FeedbackDetector spots the
``ml_enabled`` flapping and dampens the loop by disabling the younger
guardrail.  Under dependency-driven checking the storage guardrail
catches the drift on the write that crosses its bound, and the loop
never starts.

Run:  python examples/feedback_loops.py
"""

from repro.core.feedback import FeedbackDetector
from repro.scenarios.feedback import build_feedback_kernel, run_feedback_study
from repro.sim.units import SECOND

DURATION_S = 20.0
DAMPEN_AT_S = 10.0


def main():
    kernel, _monitors, _bridge, _auditor = build_feedback_kernel(
        "timer", duration_s=DURATION_S)
    detector = FeedbackDetector(kernel, window=int(DURATION_S * SECOND))
    kernel.run(until=int(DAMPEN_AT_S * SECOND))

    saves = kernel.reporter.notes_for(kind="SAVE")
    print("timer checking: ml_enabled writes in {:g}s: {}".format(
        DAMPEN_AT_S, len(saves)))
    print("  sequence:", " -> ".join(n["detail"].split(" = ")[1]
                                     for n in saves[:10]), "...")

    reports = detector.scan()
    for report in reports:
        print("detected:", report)

    flapping = [r for r in reports if r.kind == "key-flapping"]
    victim = detector.dampen(kernel.guardrails, flapping[0])
    print("\ndampened by disabling:", victim)

    before = len(saves)
    kernel.run(until=int(DURATION_S * SECOND))
    after = len(kernel.reporter.notes_for(kind="SAVE"))
    print("SAVE actions in the {:g}s after dampening: {}".format(
        DURATION_S - DAMPEN_AT_S, after - before))
    print("ml_enabled settled at:", kernel.store.load("ml_enabled"))

    study = run_feedback_study("dependency", duration_s=DAMPEN_AT_S)
    print("\ndependency checking: {} trip(s), first at {:.3f}s, "
          "ml_enabled settled at: {}".format(
              study["trips"], study["first_trip_s"],
              study["ml_enabled_final"]))


if __name__ == "__main__":
    main()
