"""The compute kernels and the precision policy of the DNN substrate.

Every GEMM, im2col lowering, and elementwise activation in the repository
funnels through one narrow kernel object, :class:`ComputeBackend`, whose
process-wide instance :func:`active_backend` is what
:mod:`repro.nn.functional` calls on every kernel invocation.  The kernels
are numpy and *bit-identical* to the pre-kernel-object implementations at
every dtype (the im2col lowering is a pure gather, the GEMMs issue the exact
same BLAS calls, and col2im adds every pixel's addends in the exact same
tap order), so the float64 results of every experiment are unchanged.  They
are nevertheless substantially faster than the historical kernels: the
im2col patch geometry is compiled once per layer geometry into a cached
gather index and applied with one fused :func:`numpy.take` per call instead
of a python loop plus a 6-D transpose copy, and col2im folds each tap
straight from a strided view of the columns into an NHWC buffer, so the
column matrix is never copied.

Orthogonal to the kernels is the precision they run at:
:class:`PrecisionPolicy` names the two supported compute modes,

* ``float64`` (:data:`FLOAT64_EXACT`) -- the default.  Results are
  bit-identical to the historical float64 path; this is the reproducibility
  contract every experiment's committed reference numbers rest on.
* ``float32`` (:data:`FLOAT32_FAST`) -- single-precision GEMMs and
  activations.  Halves memory traffic and roughly doubles BLAS throughput;
  bit-identity is explicitly relaxed to the documented tolerance
  (:attr:`PrecisionPolicy.rtol` / :attr:`PrecisionPolicy.atol` on logits;
  accuracies of the evaluation models move by at most a few counts on a
  ~100-sample test set).

The policy threads through :class:`~repro.sim.photonic_inference.\
EnsembleInferenceEngine`, the ensemble chunking helpers, and the
fig5/resolution/ablation study configs as a CLI-visible ``--precision``
flag; :func:`resolve_precision` is the single coercion point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PrecisionPolicy",
    "FLOAT64_EXACT",
    "FLOAT32_FAST",
    "resolve_precision",
    "ComputeBackend",
    "active_backend",
]


# --------------------------------------------------------------------------- #
# Precision policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PrecisionPolicy:
    """A named compute-precision contract.

    Attributes
    ----------
    name:
        ``"float64"`` or ``"float32"`` -- the value accepted by config
        fields and CLI flags.
    dtype:
        The numpy dtype all GEMMs, activations, and ensemble stacks run in.
    rtol, atol:
        The documented tolerance of this policy's *logits* against the
        float64-exact reference (``0`` for the exact policy: bit-identity).
        Model accuracies derived from the logits may shift by a few counts
        where logit gaps are smaller than the tolerance.
    description:
        One-line human-readable contract, surfaced by ``repro describe``.
    """

    name: str
    dtype: np.dtype
    rtol: float
    atol: float
    description: str

    @property
    def exact(self) -> bool:
        """Whether this policy guarantees bit-identity to the reference."""
        return self.rtol == 0.0 and self.atol == 0.0

    def describe(self) -> str:
        """Human-readable one-line summary of the precision contract."""
        return f"{self.name}: {self.description}"


FLOAT64_EXACT = PrecisionPolicy(
    name="float64",
    dtype=np.dtype(np.float64),
    rtol=0.0,
    atol=0.0,
    description="double-precision compute, bit-identical to the reference path",
)

FLOAT32_FAST = PrecisionPolicy(
    name="float32",
    dtype=np.dtype(np.float32),
    rtol=1e-4,
    atol=1e-6,
    description=(
        "single-precision compute; logits within rtol=1e-4/atol=1e-6 of the "
        "float64 reference, accuracies within a few counts"
    ),
)

_POLICIES = {policy.name: policy for policy in (FLOAT64_EXACT, FLOAT32_FAST)}


def resolve_precision(spec) -> PrecisionPolicy:
    """Coerce a policy spec (policy or name) into a PrecisionPolicy.

    Accepts a :class:`PrecisionPolicy`, a policy name (``"float64"`` /
    ``"float32"``), or ``None`` (the exact default).
    """
    if spec is None:
        return FLOAT64_EXACT
    if isinstance(spec, PrecisionPolicy):
        return spec
    if isinstance(spec, str) and spec in _POLICIES:
        return _POLICIES[spec]
    raise ValueError(f"precision must be one of {sorted(_POLICIES)}, got {spec!r}")


# --------------------------------------------------------------------------- #
# Compute kernels
# --------------------------------------------------------------------------- #
def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    if size + 2 * padding < kernel:
        raise ValueError(
            f"input size {size} with padding {padding} is smaller than kernel {kernel}"
        )
    return (size + 2 * padding - kernel) // stride + 1


class _PatchIndexCache:
    """Bounded cache of im2col gather indices, keyed by patch geometry.

    The gather index maps each ``(output position, kernel tap)`` pair of one
    padded sample to its flat offset; it depends only on the layer geometry
    ``(C, padded H, padded W, kh, kw, stride)``, so one index serves every
    batch, every epoch, and every ensemble member of a layer.  Entries are a
    few hundred KB at the model sizes here; the bound exists only to keep
    pathological sweeps over many geometries from accumulating.
    """

    def __init__(self, maxsize: int = 128) -> None:
        self._maxsize = maxsize
        self._entries: dict[tuple, np.ndarray] = {}

    def get(
        self, c: int, hp: int, wp: int, kh: int, kw: int, stride: int, out_h: int, out_w: int
    ) -> np.ndarray:
        key = (c, hp, wp, kh, kw, stride)
        index = self._entries.get(key)
        if index is None:
            taps = (
                np.arange(c)[:, None, None] * (hp * wp)
                + np.arange(kh)[None, :, None] * wp
                + np.arange(kw)[None, None, :]
            ).reshape(1, -1)
            positions = (
                np.arange(out_h)[:, None] * (stride * wp)
                + np.arange(out_w)[None, :] * stride
            ).reshape(-1, 1)
            index = positions + taps  # (out_h*out_w, c*kh*kw)
            if len(self._entries) >= self._maxsize:
                self._entries.clear()
            self._entries[key] = index
        return index


class ComputeBackend:
    """The numpy kernels behind the DNN substrate, bit-identical to the legacy path.

    The object supplies exactly the operations the hot paths spend their
    time in: 2-D GEMM, batched (ensemble) GEMM, the im2col/col2im patch
    lowering pair, and the elementwise activation ufuncs.  Everything else
    (bias adds, reshapes, quantization) stays dtype-generic numpy in the
    callers.  Activations preserve floating input dtypes (a float32 array
    in gives a float32 array out) -- the float32 policy relies on this.

    The im2col lowering gathers every patch with one :func:`numpy.take`
    through a cached per-geometry index (measured 3-7x faster than the
    historical slice-loop plus 6-D transpose copy, with byte-identical
    output -- a gather moves values, it never re-computes them).  col2im
    keeps the historical ordered slice accumulation -- the summation *order*
    of overlapping patches is part of the bit-identity contract of the
    float64 training path -- but folds into a channels-last (NHWC) buffer,
    where each tap's addends are a strided view of the columns as they are,
    and returns the NCHW view of that buffer.  Layout changes which memory
    an add touches, never which numbers it adds or in which order, so the
    fold is bit-identical to the historical NCHW one.
    """

    #: Provenance label recorded next to benchmark results.
    name = "numpy"

    def __init__(self) -> None:
        self._patch_index = _PatchIndexCache()

    # -- GEMM ----------------------------------------------------------- #
    def matmul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """2-D matrix product ``a @ b`` (optionally into ``out``)."""
        return np.matmul(a, b, out=out) if out is not None else np.matmul(a, b)

    def batched_matmul(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Broadcasting batched matmul with :func:`numpy.matmul` semantics."""
        return np.matmul(a, b, out=out) if out is not None else np.matmul(a, b)

    # -- Convolution lowering ------------------------------------------- #
    def im2col(
        self, images: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
    ) -> np.ndarray:
        """Unfold NCHW image patches into ``(N*oh*ow, C*kh*kw)`` columns."""
        if images.ndim != 4:
            raise ValueError(f"expected NCHW input, got shape {images.shape}")
        n, c, h, w = images.shape
        out_h = _conv_output_size(h, kernel_h, stride, padding)
        out_w = _conv_output_size(w, kernel_w, stride, padding)
        hp, wp = h + 2 * padding, w + 2 * padding
        if padding:
            framed = np.zeros((n, c, hp, wp), dtype=images.dtype)
            framed[:, :, padding : padding + h, padding : padding + w] = images
            images = framed
        index = self._patch_index.get(c, hp, wp, kernel_h, kernel_w, stride, out_h, out_w)
        flat = np.ascontiguousarray(images).reshape(n, c * hp * wp)
        cols = np.take(flat, index, axis=1)
        return cols.reshape(n * out_h * out_w, c * kernel_h * kernel_w)

    def col2im(
        self,
        cols: np.ndarray,
        input_shape: tuple[int, int, int, int],
        kernel_h: int,
        kernel_w: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Fold columns back into images (adjoint of :meth:`im2col`)."""
        n, c, h, w = input_shape
        out_h = _conv_output_size(h, kernel_h, stride, padding)
        out_w = _conv_output_size(w, kernel_w, stride, padding)
        # Overlapping patches accumulate in (y, x) tap order; keeping that
        # order is what makes the float64 training path bit-identical to
        # the pre-backend implementation.  The fold runs in NHWC, the
        # layout the columns already have: each tap's addend is the strided
        # view ``taps[..., y, x]`` of shape (N, out_h, out_w, C), added
        # without first copying the column matrix.  Every pixel still gets
        # the same addends in the same (y, x) order, so the sums -- and the
        # NCHW view returned -- are bit-identical.
        taps = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
        padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=cols.dtype)
        for y in range(kernel_h):
            y_max = y + stride * out_h
            for x in range(kernel_w):
                x_max = x + stride * out_w
                padded[:, y:y_max:stride, x:x_max:stride] += taps[..., y, x]
        images = padded.transpose(0, 3, 1, 2)
        if padding == 0:
            return images
        return images[:, :, padding:-padding, padding:-padding]

    # -- Elementwise activations ---------------------------------------- #
    def relu(self, x: np.ndarray) -> np.ndarray:
        """Rectified linear unit."""
        return np.maximum(x, 0.0)

    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        """Numerically stable logistic sigmoid, dtype-preserving."""
        dtype = x.dtype if np.issubdtype(x.dtype, np.floating) else np.dtype(float)
        out = np.empty_like(x, dtype=dtype)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return out

    def tanh(self, x: np.ndarray) -> np.ndarray:
        """Hyperbolic tangent."""
        return np.tanh(x)


_ACTIVE = ComputeBackend()


def active_backend() -> ComputeBackend:
    """The process-wide kernel object every kernel call routes through."""
    return _ACTIVE
