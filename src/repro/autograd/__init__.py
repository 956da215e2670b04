"""Numpy-based reverse-mode automatic differentiation.

The substrate that lets :mod:`repro.kge` train TransE, DistMult, ComplEx,
RESCAL, HolE and ConvE without torch.  Public surface:

* :class:`Tensor` — numpy array with gradient tape, :func:`no_grad`.
* :class:`SparseGrad` — row-sparse gradient for opt-in embedding tables.
* :mod:`repro.autograd.ops` — conv2d, circular correlation, dropout,
  fused BCE-with-logits.
* :mod:`repro.autograd.modules` — Module/Parameter/Embedding/Linear/
  Conv2d/BatchNorm/Dropout.
* :mod:`repro.autograd.optim` — SGD/Adagrad/Adam.
"""

from .modules import (
    BatchNorm,
    Conv2d,
    Dropout,
    Embedding,
    Linear,
    Module,
    Parameter,
)
from .ops import (
    bce_with_logits,
    circular_convolution,
    circular_correlation,
    conv2d,
    dropout,
)
from .optim import SGD, Adagrad, Adam, Optimizer
from .sparse import SparseGrad
from .tensor import Tensor, concatenate, is_grad_enabled, no_grad, stack

__all__ = [
    "Tensor",
    "SparseGrad",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "Module",
    "Parameter",
    "Embedding",
    "Linear",
    "Conv2d",
    "BatchNorm",
    "Dropout",
    "conv2d",
    "dropout",
    "bce_with_logits",
    "circular_correlation",
    "circular_convolution",
    "Optimizer",
    "SGD",
    "Adagrad",
    "Adam",
]
