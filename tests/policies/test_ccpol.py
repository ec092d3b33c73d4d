"""Learned congestion controller."""

import numpy as np
import pytest

from repro.kernel.net import BottleneckLink
from repro.policies.ccpol import (
    LearnedCcController,
    generate_teacher_trace,
    install_learned_cc,
    train_cc_model,
)
from repro.sim.units import SECOND


@pytest.fixture(scope="module")
def trained():
    observations, deltas = generate_teacher_trace(epochs=1500)
    mlp, normalizer = train_cc_model(observations, deltas, epochs=120)
    return observations, deltas, mlp, normalizer


def test_teacher_trace_shape(trained):
    observations, deltas, _, _ = trained
    assert observations.shape[1] == 3
    assert len(observations) == len(deltas)
    # AIMD: mostly +2 increases, occasional big decreases.
    assert (deltas == 2.0).mean() > 0.5
    assert deltas.min() < -10


def test_model_imitates_increase_on_clean_input(trained):
    _, _, mlp, normalizer = trained
    x = normalizer.transform(np.array([[50.0, 50.0, 0.0]]))
    delta = mlp.predict(x)[0, 0]
    assert delta == pytest.approx(2.0, abs=1.5)


def test_model_imitates_backoff_on_loss(trained):
    _, _, mlp, normalizer = trained
    # A realistic steady-state loss epoch: rate slightly over capacity.
    x = normalizer.transform(np.array([[110.0, 100.0, 0.09]]))
    delta = mlp.predict(x)[0, 0]
    assert delta < -10


def test_controller_wraps_model(kernel, trained):
    _, _, mlp, normalizer = trained
    controller = LearnedCcController(kernel, mlp, normalizer)
    rate = controller({"rate_mbps": 50.0, "delivered_mbps": 50.0, "loss": 0.0})
    assert rate > 50.0
    assert controller.decisions == 1
    assert kernel.store.load("learned_cc.inferences") == 1


def test_controller_respects_min_rate(kernel, trained):
    _, _, mlp, normalizer = trained
    controller = LearnedCcController(kernel, mlp, normalizer, min_rate=2.0)
    rate = controller({"rate_mbps": 2.0, "delivered_mbps": 1.0, "loss": 0.9})
    assert rate >= 2.0


def test_good_utilization_at_training_capacity(kernel, trained):
    link = kernel.attach("net", BottleneckLink(kernel, capacity_mbps=100.0))
    _, _, mlp, normalizer = trained
    controller = LearnedCcController(kernel, mlp, normalizer)
    kernel.functions.register_implementation("net.learned", controller)
    kernel.functions.replace("net.cc_update", "net.learned")
    link.start()
    kernel.run(until=15 * SECOND)
    steady = [v for t, v in kernel.metrics.series("net.utilization")
              if t > 8 * SECOND]
    assert sum(steady) / len(steady) > 0.7


def test_underutilizes_after_capacity_jump(kernel, trained):
    link = kernel.attach("net", BottleneckLink(kernel, capacity_mbps=100.0))
    _, _, mlp, normalizer = trained
    controller = LearnedCcController(kernel, mlp, normalizer)
    kernel.functions.register_implementation("net.learned", controller)
    kernel.functions.replace("net.cc_update", "net.learned")
    link.start()
    kernel.run(until=10 * SECOND)
    link.set_capacity(400.0)
    kernel.run(until=20 * SECOND)
    late = [v for t, v in kernel.metrics.series("net.utilization")
            if t > 15 * SECOND]
    # The §2 misbehavior: the model never exploits the new headroom.
    assert sum(late) / len(late) < 0.5


def test_install_helper_registers_and_activates(kernel):
    link = kernel.attach("net", BottleneckLink(kernel, capacity_mbps=100.0))
    controller = install_learned_cc(kernel, link)
    assert kernel.functions.slot("net.cc_update").current is controller


def test_sensitivity_published_under_use(kernel, trained):
    link = kernel.attach("net", BottleneckLink(kernel, capacity_mbps=100.0,
                                               noise_std=0.05))
    _, _, mlp, normalizer = trained
    controller = LearnedCcController(kernel, mlp, normalizer)
    kernel.functions.register_implementation("net.learned", controller)
    kernel.functions.replace("net.cc_update", "net.learned")
    link.start()
    kernel.run(until=10 * SECOND)
    assert kernel.store.load("learned_cc.output_sensitivity") is not None
