"""Neural-network building blocks on top of the autodiff tensor.

A deliberately small module system: parameters are discovered recursively
through attributes, there is a train/eval switch, and initialisation
follows the common Xavier/Glorot schemes used by KGE libraries.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import ops
from .tensor import Tensor

__all__ = [
    "Module",
    "Parameter",
    "Embedding",
    "Linear",
    "Conv2d",
    "BatchNorm",
    "Dropout",
    "xavier_uniform",
    "xavier_normal",
]


class Parameter(Tensor):
    """A tensor registered as a trainable model parameter.

    ``sparse_grad=True`` opts the parameter into row-sparse gradient
    accumulation for integer-array row lookups (see
    :meth:`Tensor.gather_rows`); dense accumulation stays the default.
    The flag can also be toggled after construction.
    """

    def __init__(self, data: np.ndarray, sparse_grad: bool = False) -> None:
        super().__init__(data, requires_grad=True)
        self.sparse_grad = bool(sparse_grad)


class Module:
    """Base class with recursive parameter discovery and a training flag."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> Iterator[Parameter]:
        """Yield every :class:`Parameter` reachable from this module."""
        seen: set[int] = set()
        stack: list[object] = [self]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            for value in vars(obj).values():
                if isinstance(value, Parameter):
                    if id(value) not in seen:
                        seen.add(id(value))
                        yield value
                elif isinstance(value, Module):
                    stack.append(value)
                elif isinstance(value, (list, tuple)):
                    stack.extend(v for v in value if isinstance(v, Module))

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every reachable submodule."""
        stack: list[Module] = [self]
        seen: set[int] = set()
        while stack:
            module = stack.pop()
            if id(module) in seen:
                continue
            seen.add(id(module))
            yield module
            for value in vars(module).values():
                if isinstance(value, Module):
                    stack.append(value)
                elif isinstance(value, (list, tuple)):
                    stack.extend(v for v in value if isinstance(v, Module))

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat name → array mapping of all parameters (copies)."""
        state: dict[str, np.ndarray] = {}
        self._collect_state(state, prefix="")
        return state

    #: Names of non-trainable ndarray attributes (e.g. batch-norm running
    #: statistics) that belong in the state dict.  Subclasses override.
    buffer_names: tuple[str, ...] = ()

    def _collect_state(self, state: dict[str, np.ndarray], prefix: str) -> None:
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Parameter):
                state[key] = value.data.copy()
            elif isinstance(value, Module):
                value._collect_state(state, prefix=f"{key}.")
        for name in self.buffer_names:
            state[f"{prefix}{name}"] = np.asarray(getattr(self, name)).copy()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters saved with :meth:`state_dict` (shape-checked)."""
        params: dict[str, Parameter] = {}
        buffers: dict[str, tuple[Module, str]] = {}
        self._collect_slots(params, buffers, prefix="")
        own_keys = set(params) | set(buffers)
        missing = own_keys - set(state)
        extra = set(state) - own_keys
        if missing or extra:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)}, extra={sorted(extra)}"
            )
        for key, param in params.items():
            if param.data.shape != state[key].shape:
                raise ValueError(
                    f"shape mismatch for {key}: "
                    f"{param.data.shape} vs {state[key].shape}"
                )
            param.data[...] = state[key]
        for key, (module, name) in buffers.items():
            current = np.asarray(getattr(module, name))
            if current.shape != state[key].shape:
                raise ValueError(
                    f"shape mismatch for buffer {key}: "
                    f"{current.shape} vs {state[key].shape}"
                )
            setattr(module, name, state[key].copy())

    def _collect_slots(
        self,
        params: dict[str, Parameter],
        buffers: dict[str, tuple["Module", str]],
        prefix: str,
    ) -> None:
        for name, value in vars(self).items():
            key = f"{prefix}{name}"
            if isinstance(value, Parameter):
                params[key] = value
            elif isinstance(value, Module):
                value._collect_slots(params, buffers, prefix=f"{key}.")
        for name in self.buffer_names:
            buffers[f"{prefix}{name}"] = (self, name)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def xavier_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier normal initialisation."""
    fan_in, fan_out = shape[0], shape[-1]
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


class Embedding(Module):
    """Dense lookup table with scatter-add gradients."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator,
        init: str = "xavier_uniform",
        sparse_grad: bool = False,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("num_embeddings and embedding_dim must be positive")
        shape = (num_embeddings, embedding_dim)
        if init == "xavier_uniform":
            data = xavier_uniform(shape, rng)
        elif init == "xavier_normal":
            data = xavier_normal(shape, rng)
        elif init == "normal":
            data = rng.normal(0.0, 0.1, size=shape)
        else:
            raise ValueError(f"unknown init scheme: {init!r}")
        self.weight = Parameter(data, sparse_grad=sparse_grad)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim

    def __call__(self, indices: np.ndarray) -> Tensor:
        return self.weight.gather_rows(indices)

    def normalize_rows_(self) -> None:
        """In-place L2 row normalisation (TransE's per-step constraint)."""
        norms = np.linalg.norm(self.weight.data, axis=1, keepdims=True)
        np.maximum(norms, 1e-12, out=norms)
        self.weight.data /= norms


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.weight = Parameter(xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out


class Conv2d(Module):
    """Valid, stride-1 2-D convolution layer (all ConvE needs)."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        fan_in = in_channels * kernel_size * kernel_size
        limit = np.sqrt(6.0 / (fan_in + out_channels))
        self.weight = Parameter(
            rng.uniform(
                -limit, limit, size=(out_channels, in_channels, kernel_size, kernel_size)
            )
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self.kernel_size = kernel_size

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias)


class BatchNorm(Module):
    """Batch normalisation over all axes except the channel axis.

    Works for both 2-D inputs ``(B, C)`` (channel axis 1) and 4-D inputs
    ``(B, C, H, W)``, matching what ConvE requires.
    """

    buffer_names = ("running_mean", "running_var")

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        self.momentum = momentum
        self.eps = eps
        self.num_features = num_features

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            reduce_axes: tuple[int, ...] = (0,)
            shape = (1, self.num_features)
        elif x.ndim == 4:
            reduce_axes = (0, 2, 3)
            shape = (1, self.num_features, 1, 1)
        else:
            raise ValueError(f"BatchNorm supports 2-D/4-D inputs, got ndim={x.ndim}")

        if self.training:
            mean = x.mean(axis=reduce_axes, keepdims=True)
            centred = x - mean
            var = (centred * centred).mean(axis=reduce_axes, keepdims=True)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mean.data.reshape(-1)
            self.running_var = (1 - m) * self.running_var + m * var.data.reshape(-1)
            x_hat = centred * ((var + self.eps) ** -0.5)
        else:
            mean_arr = self.running_mean.reshape(shape)
            var_arr = self.running_var.reshape(shape)
            x_hat = (x - mean_arr) * ((var_arr + self.eps) ** -0.5)

        return x_hat * self.gamma.reshape(shape) + self.beta.reshape(shape)


class Dropout(Module):
    """Inverted dropout layer; identity in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = rng

    def __call__(self, x: Tensor) -> Tensor:
        return ops.dropout(x, self.rate, self._rng, self.training)
