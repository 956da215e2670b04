"""The dense tape's fast paths train bit-identical models.

Gradient ownership in ``Tensor._accumulate`` and the fused BCE node are
pure optimisations.  This module carries the code they replaced — the
``zeros_like``-then-add accumulation and the chained softplus loss — and
checks that short fits of the tuned configurations leave every
parameter byte equal under both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import fit, load_dataset
from repro.autograd import SparseGrad, Tensor
from repro.experiments import default_model_config, default_train_config
from repro.kge.losses import BCEWithLogitsLoss


def _reference_accumulate(self, grad):
    if not self.requires_grad:
        return
    if isinstance(grad, SparseGrad):
        if self.grad is None:
            self.grad = grad
        elif isinstance(self.grad, SparseGrad):
            self.grad = self.grad.merged_with(grad)
        else:
            grad.add_into_dense(self.grad)
        return
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    elif isinstance(self.grad, SparseGrad):
        self.grad = self.grad.to_dense()
    self.grad += grad


def _reference_bce(self, logits, targets):
    targets = np.asarray(targets, dtype=np.float64)
    if self.label_smoothing > 0.0:
        targets = targets * (1.0 - self.label_smoothing) + self.label_smoothing / 2.0
    if np.all((targets == 0.0) | (targets == 1.0)):
        return (logits * (-(2.0 * targets - 1.0))).softplus().mean()
    return (logits.softplus() - logits * targets).mean()


def _state_bytes(graph, name):
    model = fit(
        graph, default_model_config(name), default_train_config(name).with_(epochs=2)
    ).model
    return {key: value.tobytes() for key, value in model.state_dict().items()}


@pytest.fixture(scope="module")
def graph():
    return load_dataset("wn18rr-like")


@pytest.mark.parametrize(
    "name", ["distmult", "conve", "transe", "complex", "rescal", "hole"]
)
def test_fast_tape_matches_reference_tape(graph, name, monkeypatch):
    fast = _state_bytes(graph, name)
    monkeypatch.setattr(Tensor, "_accumulate", _reference_accumulate)
    monkeypatch.setattr(BCEWithLogitsLoss, "__call__", _reference_bce)
    reference = _state_bytes(graph, name)
    assert fast.keys() == reference.keys()
    for key in fast:
        assert fast[key] == reference[key], key
