"""The retired extensions stay retired.

RotatE, SimplE, TuckER, the reciprocal-relations wrapper, the 1vsAll job
and the softmax and self-adversarial losses were removed because nothing
in the paper's pipeline ran them.  These tests pin that removal: the
names are not exported, their modules are gone, the tensor ops only they
used are gone, and state that names them is rejected with an error that
lists what remains.
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

import repro.kge
from repro.autograd import Tensor
from repro.kge import TrainConfig, create_model, load_model, save_model

PAPER_MODELS = ["complex", "conve", "distmult", "hole", "rescal", "transe"]


@pytest.mark.parametrize(
    "name",
    [
        "RotatE",
        "SimplE",
        "TuckER",
        "ReciprocalWrapper",
        "SelfAdversarialLoss",
        "SoftmaxCrossEntropyLoss",
    ],
)
def test_name_is_not_exported(name):
    assert name not in repro.kge.__all__
    assert not hasattr(repro.kge, name)


@pytest.mark.parametrize("module", ["rotate", "simple_", "tucker", "reciprocal"])
def test_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(f"repro.kge.{module}")


@pytest.mark.parametrize("op", ["exp", "log", "cos", "sin"])
def test_tensor_op_is_gone(op):
    assert not hasattr(Tensor, op)


@pytest.mark.parametrize("name", ["rotate", "simple", "tucker"])
def test_checkpoint_of_a_retired_model_names_the_remaining_ones(tmp_path, name):
    path = tmp_path / "model.npz"
    save_model(create_model("distmult", num_entities=5, num_relations=2, dim=4), path)
    with np.load(path) as stored:
        arrays = {key: stored[key].copy() for key in stored.files}
    header = json.loads(arrays["__repro_header__"].tobytes().decode("utf-8"))
    header["model"] = name
    arrays["__repro_header__"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    np.savez(path, **arrays)
    with pytest.raises(KeyError) as excinfo:
        load_model(path)
    message = str(excinfo.value)
    assert f"unknown model {name!r}" in message
    assert all(repr(model) in message for model in PAPER_MODELS)


def test_one_vs_all_job_is_rejected():
    with pytest.raises(ValueError, match="unknown training job '1vsall'"):
        TrainConfig(job="1vsall", loss="bce")
