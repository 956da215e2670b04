"""Grad mode is per thread: concurrent ``no_grad`` blocks cannot leak.

Server workers score requests under ``no_grad`` on their own threads.
With one process-wide flag, two overlapping blocks that exit in the
order enter A, enter B, exit A, exit B restore "off" last, so every
later ``fit`` in the process silently learns nothing.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.autograd import Tensor, is_grad_enabled, no_grad
from repro.kge import ModelConfig, TrainConfig, fit
from repro.kge.base import create_model


def test_overlapping_no_grad_blocks_on_two_threads_do_not_leak(tiny_graph):
    barrier = threading.Barrier(2, timeout=10)
    inside_second: list[bool] = []

    def first() -> None:
        with no_grad():
            barrier.wait()  # 1: first is inside
            barrier.wait()  # 2: second is inside
        barrier.wait()  # 3: first has exited

    def second() -> None:
        barrier.wait()  # 1
        with no_grad():
            barrier.wait()  # 2
            barrier.wait()  # 3
            inside_second.append(is_grad_enabled())

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)

    # The first thread's exit did not switch recording back on for the
    # second thread, and neither thread switched it off for this one.
    assert inside_second == [False]
    assert is_grad_enabled()

    model_config = ModelConfig("distmult", dim=8, seed=0)
    result = fit(
        tiny_graph,
        model_config,
        TrainConfig(job="kvsall", loss="bce", epochs=1, batch_size=64, lr=0.05),
    )
    initial = create_model(
        "distmult",
        num_entities=tiny_graph.num_entities,
        num_relations=tiny_graph.num_relations,
        dim=model_config.dim,
        seed=model_config.seed,
    ).state_dict()
    trained = result.model.state_dict()
    assert initial.keys() == trained.keys()
    assert any(
        not np.array_equal(initial[name], trained[name]) for name in initial
    ), "one epoch of fit left every parameter unchanged"


def _on_thread(target):
    """Run ``target`` on a fresh thread and return what it returned."""
    out: list = []
    thread = threading.Thread(target=lambda: out.append(target()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(out) == 1
    return out[0]


def test_a_new_thread_records_even_while_its_creator_is_in_no_grad():
    with no_grad():
        assert not is_grad_enabled()
        assert _on_thread(is_grad_enabled) is True
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_no_grad_on_another_thread_leaves_this_threads_tape_recording():
    def score_without_tape() -> bool:
        with no_grad():
            x = Tensor(np.ones(3), requires_grad=True)
            y = (x * 2.0).sum()
            return x.requires_grad or y.requires_grad

    assert _on_thread(score_without_tape) is False
    x = Tensor(np.ones(3), requires_grad=True)
    (x * 2.0).sum().backward()
    np.testing.assert_allclose(x.grad, np.full(3, 2.0))


def test_nested_no_grad_restores_each_level_and_survives_exceptions():
    with no_grad():
        with no_grad():
            assert not is_grad_enabled()
        assert not is_grad_enabled()
        try:
            with no_grad():
                raise RuntimeError("scoring failed")
        except RuntimeError:
            pass
        assert not is_grad_enabled()
    assert is_grad_enabled()
