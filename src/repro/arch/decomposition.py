"""Vector decomposition of CONV/FC layer operations (paper Section IV.C.1).

CrossLight maps both convolution and fully connected layers onto vector dot
products, decomposing long vectors into chunks that fit one VDP unit (size
``N`` or ``K``) and, inside a unit, into per-arm chunks of at most 15
elements; the partial sums are accumulated by photodetectors and, across
cycles, electronically.

This module provides the *functional* side of that mapping: exact
decomposition and re-assembly of dot products, the im2col-style lowering of
convolutions, and the cycle-count arithmetic the performance model uses.
The key invariant -- the decomposed computation produces exactly the same
result as the monolithic dot product -- is what the property-based tests
check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nn.functional import conv_output_size, im2col
from repro.utils.validation import check_positive_int


# Kept as a test oracle: no simulator path calls it.
def decompose_vector(vector: np.ndarray, chunk_size: int) -> list[np.ndarray]:
    """Split a 1-D vector into chunks of at most ``chunk_size`` elements.

    The final chunk may be shorter; the concatenation of the chunks is
    exactly the original vector.
    """
    check_positive_int("chunk_size", chunk_size)
    vector = np.asarray(vector)
    if vector.ndim != 1:
        raise ValueError("vector must be 1-D")
    return [vector[i : i + chunk_size] for i in range(0, vector.size, chunk_size)]


# Kept as a test oracle: no simulator path calls it.
def dot_product_partial_sums(
    weights: np.ndarray, activations: np.ndarray, chunk_size: int
) -> tuple[np.ndarray, float]:
    """Decomposed dot product: per-chunk partial sums and their total.

    Implements Eq. 4 of the paper: a long dot product is evaluated as the
    sum of shorter dot products ``SP_i`` computed in parallel VDP arms.

    Returns
    -------
    tuple
        ``(partial_sums, total)`` where ``total == weights @ activations``
        up to floating-point rounding.
    """
    weights = np.asarray(weights, dtype=float)
    activations = np.asarray(activations, dtype=float)
    if weights.shape != activations.shape or weights.ndim != 1:
        raise ValueError("weights and activations must be 1-D arrays of equal length")
    weight_chunks = decompose_vector(weights, chunk_size)
    activation_chunks = decompose_vector(activations, chunk_size)
    partial_sums = np.array(
        [float(w @ a) for w, a in zip(weight_chunks, activation_chunks)]
    )
    return partial_sums, float(partial_sums.sum())


# Kept as a test oracle: no simulator path calls it.
def conv2d_reference(
    images: np.ndarray, kernels: np.ndarray, stride: int = 1, padding: int = 0
) -> np.ndarray:
    """Direct convolution used as the ground truth for mapping tests.

    Parameters
    ----------
    images:
        Input tensor ``(N, C, H, W)``.
    kernels:
        Kernel bank ``(F, C, kh, kw)``.
    """
    if images.ndim != 4 or kernels.ndim != 4:
        raise ValueError("images must be NCHW and kernels must be FCHW")
    n, c, h, w = images.shape
    f, kc, kh, kw = kernels.shape
    if kc != c:
        raise ValueError("kernel channel count must match image channels")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    cols = im2col(images, kh, kw, stride, padding)
    kernel_matrix = kernels.reshape(f, -1).T
    out = cols @ kernel_matrix
    return out.reshape(n, out_h, out_w, f).transpose(0, 3, 1, 2)


# Kept as a test oracle: no simulator path calls it.
def conv2d_via_vdp(
    images: np.ndarray,
    kernels: np.ndarray,
    chunk_size: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Convolution evaluated through decomposed VDP-style dot products.

    Every output element is computed as a sum of ``ceil(C*kh*kw /
    chunk_size)`` partial dot products, exactly as the accelerator would
    schedule it.  The result must match :func:`conv2d_reference` to floating
    point accuracy; the integration tests rely on this.
    """
    check_positive_int("chunk_size", chunk_size)
    if images.ndim != 4 or kernels.ndim != 4:
        raise ValueError("images must be NCHW and kernels must be FCHW")
    n, c, h, w = images.shape
    f, kc, kh, kw = kernels.shape
    if kc != c:
        raise ValueError("kernel channel count must match image channels")
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    cols = im2col(images, kh, kw, stride, padding)  # (n*out_h*out_w, c*kh*kw)
    kernel_rows = kernels.reshape(f, -1)  # (f, c*kh*kw)

    length = cols.shape[1]
    n_chunks = math.ceil(length / chunk_size)
    output = np.zeros((cols.shape[0], f))
    for chunk_index in range(n_chunks):
        start = chunk_index * chunk_size
        stop = min(start + chunk_size, length)
        output += cols[:, start:stop] @ kernel_rows[:, start:stop].T
    return output.reshape(n, out_h, out_w, f).transpose(0, 3, 1, 2)


# Kept as a test oracle: no simulator path calls it.
def matvec_via_vdp(
    matrix: np.ndarray, vector: np.ndarray, chunk_size: int
) -> np.ndarray:
    """Matrix-vector product evaluated through decomposed dot products.

    Models an FC layer mapped onto K-sized VDP units: each output neuron's
    dot product is split into chunks and the partial sums are accumulated.
    """
    check_positive_int("chunk_size", chunk_size)
    matrix = np.asarray(matrix, dtype=float)
    vector = np.asarray(vector, dtype=float)
    if matrix.ndim != 2 or vector.ndim != 1 or matrix.shape[1] != vector.size:
        raise ValueError("matrix must be (out, in) and vector length must match")
    result = np.zeros(matrix.shape[0])
    for start in range(0, vector.size, chunk_size):
        stop = min(start + chunk_size, vector.size)
        result += matrix[:, start:stop] @ vector[start:stop]
    return result


# --------------------------------------------------------------------------- #
# Cycle-count arithmetic
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class DecompositionPlan:
    """How one layer's dot products decompose onto VDP units of a given size.

    Attributes
    ----------
    dot_product_length:
        Original dot-product length of the layer.
    n_dot_products:
        How many dot products the layer performs per inference.
    unit_vector_size:
        Dot-product capacity of one VDP unit (``N`` or ``K``).
    chunks_per_dot_product:
        Unit-operations needed per original dot product.
    total_unit_operations:
        Total unit-operations the layer generates per inference.
    """

    dot_product_length: int
    n_dot_products: int
    unit_vector_size: int

    @property
    def chunks_per_dot_product(self) -> int:
        """Number of VDP-unit operations per original dot product."""
        if self.dot_product_length == 0:
            return 0
        return math.ceil(self.dot_product_length / self.unit_vector_size)

    @property
    def total_unit_operations(self) -> int:
        """Total VDP-unit operations for the layer (one inference)."""
        return self.chunks_per_dot_product * self.n_dot_products

    def cycles_on_units(self, n_units: int) -> int:
        """Sequential cycles needed when the operations share ``n_units`` units."""
        check_positive_int("n_units", n_units)
        if self.total_unit_operations == 0:
            return 0
        return math.ceil(self.total_unit_operations / n_units)


def plan_layer(
    dot_product_length: int, n_dot_products: int, unit_vector_size: int
) -> DecompositionPlan:
    """Build a :class:`DecompositionPlan` with validated arguments."""
    if dot_product_length < 0 or n_dot_products < 0:
        raise ValueError("workload sizes must be non-negative")
    check_positive_int("unit_vector_size", unit_vector_size)
    return DecompositionPlan(
        dot_product_length=int(dot_product_length),
        n_dot_products=int(n_dot_products),
        unit_vector_size=int(unit_vector_size),
    )
