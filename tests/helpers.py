"""Test utilities: numerical gradient checking for the autodiff engine,
and running one call on several threads at once."""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.autograd import Tensor


def numeric_gradient(
    func: Callable[[np.ndarray], float],
    x: np.ndarray,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = func(x)
        flat[i] = orig - eps
        minus = func(x)
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_gradients(
    build: Callable[[Tensor], Tensor],
    x_data: np.ndarray,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> None:
    """Assert analytic gradients of ``build(x).sum()`` match numeric ones.

    ``build`` maps a requires-grad tensor to an output tensor; the scalar
    objective is the sum of that output.
    """
    x = Tensor(np.asarray(x_data, dtype=np.float64).copy(), requires_grad=True)
    out = build(x)
    out.sum().backward()
    analytic = x.grad.copy()

    def objective(arr: np.ndarray) -> float:
        return float(build(Tensor(arr)).data.sum())

    numeric = numeric_gradient(objective, x.data.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def run_in_threads(count: int, call: Callable[[], object]) -> list:
    """Run ``call()`` on ``count`` threads released together.

    Returns the results in thread order; a thread that raised leaves
    ``None`` in its slot.
    """
    barrier = threading.Barrier(count, timeout=60)
    results: list = [None] * count

    def run(index: int) -> None:
        barrier.wait()
        results[index] = call()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return results
