"""Gradient-descent optimizers for the pure-NumPy DNN substrate.

Plain SGD (with optional momentum) and Adam are sufficient to train the
small synthetic-dataset versions of the Table-I models used by the Fig. 5
accuracy-vs-resolution experiment.  Optimizers operate on the dictionaries of
parameters/gradients exposed by each layer, updating parameters in place so
that layer objects keep owning their weights.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive


class Optimizer:
    """Base optimizer operating on a list of layers."""

    def __init__(self, learning_rate: float) -> None:
        check_positive("learning_rate", learning_rate)
        self.learning_rate = learning_rate

    def step(self, layers) -> None:
        """Apply one update to every trainable parameter of ``layers``."""
        for layer_index, layer in enumerate(layers):
            params = layer.parameters()
            grads = layer.gradients()
            for name, param in params.items():
                grad = grads.get(name)
                if grad is None:
                    continue
                self._update(f"{layer_index}.{name}", param, grad)

    def _update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError


# Kept as a test reference: the optimizer tests compare momentum with plain descent.
class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity: dict[str, np.ndarray] = {}

    def _update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        if self.momentum > 0.0:
            velocity = self._velocity.get(key)
            if velocity is None:
                velocity = np.zeros_like(param)
            velocity = self.momentum * velocity - self.learning_rate * grad
            self._velocity[key] = velocity
            param += velocity
        else:
            param -= self.learning_rate * grad


class Adam(Optimizer):
    """Adam optimizer with bias-corrected first and second moments."""

    def __init__(
        self,
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        check_positive("eps", eps)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def step(self, layers) -> None:
        self._t += 1
        super().step(layers)

    def _update(self, key: str, param: np.ndarray, grad: np.ndarray) -> None:
        m = self._m.get(key)
        v = self._v.get(key)
        if m is None:
            m = np.zeros_like(param)
            v = np.zeros_like(param)
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad**2
        self._m[key] = m
        self._v[key] = v
        m_hat = m / (1.0 - self.beta1**self._t)
        v_hat = v / (1.0 - self.beta2**self._t)
        param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
