"""Weight/activation quantization (the QKeras substitute).

The paper studies how inference accuracy degrades as the resolution of
weights and activations is reduced from 16 bits down to 1 bit (Fig. 5),
using QKeras quantization-aware training.  This module provides the
quantizers on the pure-NumPy substrate (the Fig. 5 driver sweeps
post-training quantization):

* :class:`UniformQuantizer` -- symmetric uniform quantizer with a
  configurable bit width, used for both weights and activations;
* :func:`quantize_array` / :func:`quantize_array_stack` -- stateless
  helpers fitting the range to the data (per tensor, or per ensemble member);
* :func:`capture_parameters` / :func:`restore_parameters` /
  :func:`swapped_parameters` -- the save/transform/restore machinery for
  temporarily replacing Conv2D/Dense parameters.

Quantized *inference* (weights and inter-layer activations) runs on the
ensemble engine: a :class:`repro.sim.noise.QuantizationChannel` stack per
resolution plus ``activation_bits``, see
:class:`repro.sim.photonic_inference.EnsembleInferenceEngine`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Conv2D, Dense
from repro.nn.model import Sequential
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class UniformQuantizer:
    """Symmetric uniform quantizer with ``bits`` of resolution.

    Values are clipped to ``[-max_abs, +max_abs]`` and snapped to the nearest
    of ``2**bits`` equally spaced levels.  For ``bits = 1`` this degenerates
    to binarization to ``{-max_abs, +max_abs}``, matching the harshest point
    of the paper's resolution sweep.
    """

    bits: int
    max_abs: float = 1.0

    def __post_init__(self) -> None:
        check_positive_int("bits", self.bits)
        if self.max_abs <= 0:
            raise ValueError("max_abs must be positive")

    @property
    def n_levels(self) -> int:
        """Number of representable levels."""
        return 2**self.bits

    @property
    def step(self) -> float:
        """Quantization step size."""
        return 2.0 * self.max_abs / (self.n_levels - 1) if self.n_levels > 1 else 2.0 * self.max_abs

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantize ``values`` to the representable grid.

        The grid spans exactly ``[-max_abs, +max_abs]`` with ``2**bits``
        levels (both endpoints representable), so quantized values never
        exceed the clipping range and re-quantizing is a no-op.

        A floating input dtype is preserved and the arithmetic runs in that
        precision: float64 inputs follow the historical bit-exact path, and
        float32 ensembles quantize without round-tripping through double
        (accuracy shifts stay within the float32 policy's tolerance).
        Non-floating inputs are promoted to float64.
        """
        values = np.asarray(values)
        if not np.issubdtype(values.dtype, np.floating):
            values = values.astype(float)
        clipped = np.asarray(np.clip(values, -self.max_abs, self.max_abs))
        return _snap(clipped, clipped, self.max_abs, self.n_levels)


def _snap(values: np.ndarray, out: np.ndarray, max_abs: float, n_levels: int) -> np.ndarray:
    """Snap ``values`` (within ``[-max_abs, +max_abs]``) to the nearest grid level.

    The one copy of the grid arithmetic, in place into ``out`` (which may be
    ``values``), with the range and step in ``values``' dtype.
    """
    bound = values.dtype.type(max_abs)
    if n_levels == 2:
        positive = values >= 0.0
        np.copyto(out, -bound)
        np.copyto(out, bound, where=positive)
        return out
    step = values.dtype.type(2.0 * max_abs / (n_levels - 1))
    if step == 0.0:
        # A subnormal max_abs underflows the step: the grid collapses onto the
        # range bounds, and in-range values are already its nearest levels.
        np.copyto(out, values)
        return out
    np.add(values, bound, out=out)
    np.divide(out, step, out=out)
    np.rint(out, out=out)
    np.multiply(out, step, out=out)
    return np.subtract(out, bound, out=out)


def quantize_array(values: np.ndarray, bits: int, max_abs: float | None = None) -> np.ndarray:
    """Quantize an array to ``bits`` using a range fit to the data.

    When ``max_abs`` is not given it is taken from the array itself (the
    per-tensor dynamic range a DAC would be programmed for).  Floating input
    dtypes are preserved (see :meth:`UniformQuantizer.quantize`).
    """
    if max_abs is not None:
        return UniformQuantizer(bits=bits, max_abs=max_abs).quantize(values)
    return quantize_array_stack(np.asarray(values)[np.newaxis], bits)[0]


def quantize_array_stack(values: np.ndarray, bits: int) -> np.ndarray:
    """Quantize each member of a stacked ensemble to its own dynamic range.

    ``values`` has shape ``(E, *shape)``: the leading axis enumerates
    ensemble members, and member ``e`` of the result is exactly
    ``quantize_array(values[e], bits)`` -- per-member ``max_abs`` from the
    member's own data, zero-range members passed through.  The ensemble
    inference path relies on this elementwise identity.

    The range is the member's max |v| (one ``max``/``min`` pair), so no value
    needs clipping.  Each member snaps in place into one preallocated stack:
    a member of a conv-sized activation stays cache-resident across the
    snap's passes, which measured faster than broadcasting per-member ranges
    over the whole stack at the Monte-Carlo and fig5 shapes.

    Preserves a floating input dtype: like :func:`quantize_array`, the
    per-member arithmetic runs in the input precision, so float32 ensembles
    quantize in float32 end to end.
    """
    check_positive_int("bits", bits)
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.floating):
        values = values.astype(float)
    if values.ndim == 0:
        raise ValueError("quantize_array_stack expects a stacked (E, ...) array")
    out = np.empty(values.shape, dtype=values.dtype)
    for member in range(values.shape[0]):
        member_values, member_out = values[member : member + 1], out[member : member + 1]
        max_abs = max(float(member_values.max(initial=0.0)), -float(member_values.min(initial=0.0)))
        if max_abs == 0.0:
            member_out[...] = member_values
        else:
            _snap(member_values, member_out, max_abs, 2**bits)
    return out


def capture_parameters(
    model: Sequential, param_names: Iterable[str] | None = None
) -> dict[int, dict[str, np.ndarray]]:
    """Copy the Conv2D/Dense parameters of ``model`` for later restoration.

    Parameters
    ----------
    model:
        The model whose parameters to snapshot.
    param_names:
        Restrict the snapshot to these parameter names (e.g. ``("weight",)``
        to leave biases alone); ``None`` captures every parameter.

    Returns
    -------
    dict
        ``{layer_index: {name: copy}}`` suitable for
        :func:`restore_parameters`.
    """
    names = None if param_names is None else set(param_names)
    saved: dict[int, dict[str, np.ndarray]] = {}
    for index, layer in enumerate(model.layers):
        if not isinstance(layer, (Conv2D, Dense)):
            continue
        stored = {
            name: param.copy()
            for name, param in layer.parameters().items()
            if names is None or name in names
        }
        if stored:
            saved[index] = stored
    return saved


def restore_parameters(model: Sequential, saved: dict[int, dict[str, np.ndarray]]) -> None:
    """Write a :func:`capture_parameters` snapshot back into ``model``."""
    for index, stored in saved.items():
        layer = model.layers[index]
        for name, value in stored.items():
            layer.parameters()[name][...] = value


# Kept as a test oracle: the ensemble identity tests' one-realisation forward pass.
@contextmanager
def swapped_parameters(
    model: Sequential,
    transform: Callable[[np.ndarray], np.ndarray],
    param_names: Iterable[str] | None = None,
):
    """Temporarily replace Conv2D/Dense parameters with ``transform(param)``.

    The transform is applied layer by layer in model order (relevant when it
    consumes randomness), and the original float parameters are restored on
    exit even if the body raises.
    """
    saved = capture_parameters(model, param_names)
    try:
        for index, stored in saved.items():
            layer = model.layers[index]
            for name in stored:
                param = layer.parameters()[name]
                param[...] = transform(param)
        yield model
    finally:
        restore_parameters(model, saved)
