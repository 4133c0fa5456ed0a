"""Low-level numerical primitives for the pure-NumPy DNN substrate.

The paper trains its evaluation models with TensorFlow/QKeras; that stack is
unavailable offline, so this subpackage implements the needed DNN machinery
from scratch on NumPy.  This module holds the stateless numerical kernels:

* im2col / col2im transformations that turn convolution into matrix
  multiplication (the same lowering CrossLight itself performs when it maps
  CONV layers onto vector-dot-product units -- see paper Section IV.C.1);
* activation functions and their derivatives;
* softmax / log-softmax with the usual numerical-stability shifts.

All kernels use NCHW layout: ``(batch, channels, height, width)``.

The heavy kernels (GEMMs, im2col/col2im, activation ufuncs) run on the
process-wide :class:`repro.nn.backend.ComputeBackend` kernel object
(:func:`repro.nn.backend.active_backend`), whose numpy kernels are
bit-identical to the historical implementations; see
:mod:`repro.nn.backend` for the kernels and the precision policy.

Every function here preserves a floating input dtype (float32 in, float32
out) -- the float32 precision policy relies on no kernel silently upcasting
to float64.
"""

from __future__ import annotations

import numpy as np

from repro.nn.backend import active_backend


# --------------------------------------------------------------------------- #
# Convolution lowering
# --------------------------------------------------------------------------- #
def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    if size + 2 * padding < kernel:
        raise ValueError(
            f"input size {size} with padding {padding} is smaller than kernel {kernel}"
        )
    return (size + 2 * padding - kernel) // stride + 1


def im2col(
    images: np.ndarray, kernel_h: int, kernel_w: int, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Unfold image patches into columns.

    Parameters
    ----------
    images:
        Input tensor of shape ``(N, C, H, W)``.
    kernel_h, kernel_w:
        Kernel height and width.
    stride:
        Stride of the sliding window.
    padding:
        Zero padding applied symmetrically to both spatial dimensions.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``: one
        row per output position, one column per kernel tap.  A convolution is
        then a single matrix product against the reshaped kernel bank, which
        is exactly the dot-product decomposition the photonic VDP units
        execute.

    Notes
    -----
    The lowering is a pure gather, bit-identical to the historical
    slice loop: the kernel object applies a cached per-geometry index with
    one fused :func:`numpy.take` (no python loop, no transpose copy).
    """
    return active_backend().im2col(images, kernel_h, kernel_w, stride, padding)


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold columns back into an image tensor (adjoint of :func:`im2col`).

    Overlapping patch positions accumulate, which is what makes this the
    correct gradient operation for the convolution backward pass.  The
    accumulation order over kernel taps is part of the kernels' bit-identity
    contract (it fixes the float64 training trajectory).
    """
    return active_backend().col2im(
        cols, tuple(input_shape), kernel_h, kernel_w, stride, padding
    )


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2-D matrix product on the compute kernels."""
    return active_backend().matmul(a, b, out=out)


def max_pool_tiled(x: np.ndarray, pool_size: int) -> np.ndarray:
    """Value-only max pooling over ``pool_size`` windows that tile ``(..., H, W)``.

    One ``np.maximum`` per strided window tap into one output buffer, so any
    leading axes (an ``(E, N, C, H, W)`` member stack) pool in one pass.  A
    window holding a NaN pools to NaN; where a window's maximum is a tie
    between -0.0 and +0.0, either zero may come back.
    """
    ps = pool_size
    taps = [x[..., dy::ps, dx::ps] for dy in range(ps) for dx in range(ps)]
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    return out


# --------------------------------------------------------------------------- #
# Ensemble-vectorized kernels
# --------------------------------------------------------------------------- #
def ensemble_dense(inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fused dense forward for ``E`` weight realisations of one layer.

    Parameters
    ----------
    inputs:
        ``(N, F)`` activations shared by all ensemble members, or
        ``(E, N, F)`` per-member activations.
    weights:
        ``(E, F, O)`` stacked weight matrices.

    Returns
    -------
    numpy.ndarray
        ``(E, N, O)`` outputs.  The stacked product runs one GEMM per member
        with exactly the operand values a per-member ``inputs @ weights[e]``
        would use, so member ``e`` is elementwise identical to the sequential
        forward pass -- the property the ensemble inference engine's
        equivalence guarantee rests on.
    """
    return active_backend().batched_matmul(inputs, weights)


def ensemble_conv2d(
    images: np.ndarray,
    kernels: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    cols: np.ndarray | None = None,
    bias: np.ndarray | None = None,
) -> np.ndarray:
    """Fused conv forward for ``E`` kernel realisations of one layer.

    Parameters
    ----------
    images:
        ``(N, C, H, W)`` input shared by all members, or ``(E, N, C, H, W)``
        per-member inputs (members diverge after the first noisy layer).
    kernels:
        ``(E, O, C, kh, kw)`` stacked kernel banks.
    stride, padding:
        Convolution geometry.
    cols:
        Optional precomputed :func:`im2col` lowering of ``images`` --
        ``(N*out_h*out_w, C*kh*kw)`` for shared input, ``(E, N*out_h*out_w,
        C*kh*kw)`` for stacked input.  For shared input the lowering is
        independent of the ensemble member, so callers evaluating several
        member chunks pass it in to compute the patch matrix **once per input
        batch** instead of once per chunk.
    bias:
        Optional ``(O,)`` bias, added right after the matmul (the same point
        in the operation sequence as the scalar forward pass, keeping the
        ensemble elementwise identical to it).

    Returns
    -------
    numpy.ndarray
        ``(E, N, O, out_h, out_w)`` outputs.

    Notes
    -----
    The per-member work (patch lowering of diverged activations, one GEMM
    per kernel realisation) deliberately runs as a loop of *batch-sized*
    operations rather than one merged ``(E*N, ...)`` mega-batch: the im2col
    transpose-gather thrashes the cache at merged sizes (measured ~2-3x
    slower than the same work in member-sized pieces), and each loop
    iteration issues exactly the dgemm the scalar forward pass would, which
    is what keeps members bit-identical.  What the ensemble *fuses* is the
    shared lowering (one im2col for all members when the input is common)
    and the Python-level dispatch (one call per layer per batch instead of
    one per member).
    """
    backend = active_backend()
    kernels = np.asarray(kernels)
    n_members, out_channels = kernels.shape[:2]
    kernel_h, kernel_w = kernels.shape[3], kernels.shape[4]
    shared = images.ndim == 4
    if not shared and images.shape[0] != n_members:
        raise ValueError(
            f"stacked input has {images.shape[0]} members, kernels have {n_members}"
        )
    n = images.shape[0] if shared else images.shape[1]
    h, w = images.shape[-2], images.shape[-1]
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    if cols is None and shared:
        cols = backend.im2col(images, kernel_h, kernel_w, stride, padding)
    kernel_matrices = kernels.reshape(n_members, out_channels, -1).transpose(0, 2, 1)
    n_positions = n * out_h * out_w
    output = np.empty(
        (n_members, n_positions, out_channels),
        dtype=np.result_type(images.dtype, kernel_matrices.dtype),
    )
    for member in range(n_members):
        if shared:
            member_cols = cols
        elif cols is not None:
            member_cols = cols[member]
        else:
            member_cols = backend.im2col(
                images[member], kernel_h, kernel_w, stride, padding
            )
        backend.matmul(member_cols, kernel_matrices[member], out=output[member])
    if bias is not None:
        # Cast keeps float32 ensembles in float32 (no-copy identity at
        # float64); without it a float64 bias upcasts the whole output.
        output = output + np.asarray(bias).astype(output.dtype, copy=False)
    return output.reshape(n_members, n, out_h, out_w, out_channels).transpose(0, 1, 4, 2, 3)


# --------------------------------------------------------------------------- #
# Activations
# --------------------------------------------------------------------------- #
def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return active_backend().relu(x)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of ReLU with respect to its input."""
    return (x > 0.0).astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid (dtype-preserving)."""
    return active_backend().sigmoid(x)


def sigmoid_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of the sigmoid with respect to its input.

    Preserves a floating input dtype: the intermediate sigmoid is computed
    at the input precision instead of being forced to float64, so a float32
    precision policy stays float32 through the backward pass.
    """
    s = sigmoid(x)
    return s * (1.0 - s)


def tanh(x: np.ndarray) -> np.ndarray:
    """Hyperbolic tangent activation."""
    return active_backend().tanh(x)


def tanh_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of tanh with respect to its input."""
    t = np.tanh(x)
    return 1.0 - t * t


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))

