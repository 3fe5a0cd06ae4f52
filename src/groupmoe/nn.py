"""Small neural building blocks on top of the tensor engine.

Initialization is uniform in +-sqrt(1/fan_in) with zero biases.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor


class ParamStore:
    """Ordered registry of named trainable tensors."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self._params: list[tuple[str, Tensor]] = []

    def add(self, name: str, array: np.ndarray) -> Tensor:
        t = Tensor(array, requires_grad=True)
        self._params.append((self.prefix + name, t))
        return t

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._params)


def uniform_init(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    """Affine map on the trailing axis: x @ W + b."""

    def __init__(self, store: ParamStore, name: str, d_in: int, d_out: int, rng: np.random.Generator):
        self.W = store.add(f"{name}.W", uniform_init(rng, d_in, (d_in, d_out)))
        self.b = store.add(f"{name}.b", np.zeros(d_out))

    def __call__(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.W), self.b)


class LayerNorm:
    """Normalize the trailing axis, learned gain and shift."""

    EPS = 1e-5

    def __init__(self, store: ParamStore, name: str, width: int):
        self.gamma = store.add(f"{name}.gamma", np.ones(width))
        self.beta = store.add(f"{name}.beta", np.zeros(width))

    def __call__(self, x: Tensor) -> Tensor:
        mu = T.tmean(x, axis=-1, keepdims=True)
        centered = T.sub(x, mu)
        var = T.tmean(T.square(centered), axis=-1, keepdims=True)
        normed = T.div(centered, T.sqrt(T.add(var, Tensor(self.EPS))))
        return T.add(T.mul(normed, self.gamma), self.beta)
