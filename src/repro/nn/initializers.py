"""Weight initializers for the pure-NumPy DNN substrate.

Small, deterministic (seedable) initializers sufficient for training the
Table-I evaluation models from scratch: Glorot/Xavier and He schemes for
dense and convolutional kernels, and zeros for biases.  A model builder may
hand its layers a :class:`DeferredDraws` instead of a Generator, so kernels
are drawn on first use rather than at construction.
"""

from __future__ import annotations

import numpy as np


def glorot_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization.

    Fan-in and fan-out are computed from the first two dimensions for dense
    kernels, and include the receptive-field size for convolution kernels of
    shape ``(out_channels, in_channels, kh, kw)``.
    """
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialization, appropriate for ReLU networks."""
    fan_in, _ = _fans(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zeros initializer (biases)."""
    return np.zeros(shape, dtype=float)


class DeferredDraws:
    """A builder-owned seeded stream whose kernel draws wait for first use.

    A layer given one registers its kernel (initializer and shape) instead
    of drawing it.  The first read of any registered layer's ``weight``
    draws *every* pending kernel, in registration order, from
    ``default_rng(seed)`` -- the same values eager draws from that Generator
    give -- while a model whose weights are never read allocates none.  The
    Generator stays private: deferring a caller's Generator would let the
    caller's own draws in between shift the stream.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._pending: list = []

    def defer(self, layer, initializer, shape: tuple[int, ...]) -> None:
        """Queue ``layer.weight = initializer(shape, rng)`` for the first read."""
        self._pending.append((layer, initializer, shape))
        layer._draws = self

    def materialise(self) -> None:
        """Draw every pending kernel, in the order they were deferred."""
        pending, self._pending = self._pending, []
        for layer, initializer, shape in pending:
            layer.weight = initializer(shape, self._rng)
            del layer._draws


def _fans(shape: tuple[int, ...]) -> tuple[float, float]:
    """Fan-in / fan-out of a kernel shape."""
    if len(shape) == 2:  # dense: (in, out)
        return float(shape[0]), float(shape[1])
    if len(shape) == 4:  # conv: (out_c, in_c, kh, kw)
        receptive = shape[2] * shape[3]
        return float(shape[1] * receptive), float(shape[0] * receptive)
    size = float(np.prod(shape))
    return size, size
