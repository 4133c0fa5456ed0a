"""Neural-network layers for the pure-NumPy DNN substrate.

Implements the layer types used by the paper's four evaluation models
(Table I): 2-D convolution, dense (fully connected), max/average pooling,
flatten, ReLU / sigmoid / tanh activations, batch normalization, and dropout.
Every layer provides ``forward`` and ``backward`` passes so models can be
trained from scratch, plus a ``parameters()`` view used by the optimizers and
the quantization machinery.

The convolution and dense layers are also the layers CrossLight accelerates
optically; the performance simulator (:mod:`repro.sim`) walks a trained
model's layers and maps exactly these two types onto the photonic VDP units,
which is why each of them exposes its multiply-accumulate (MAC) count and dot
product structure via :meth:`Layer.workload`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.nn import functional as F
from repro.nn.initializers import DeferredDraws, glorot_uniform, he_normal, zeros
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class LayerWorkload:
    """Dot-product workload of one layer, consumed by the accelerator mapper.

    Attributes
    ----------
    kind:
        ``"conv"``, ``"fc"``, or ``"other"`` (layers executed electronically).
    dot_product_length:
        Length of each vector dot product the layer performs (e.g. ``C*k*k``
        for a convolution, ``fan_in`` for a dense layer).
    n_dot_products:
        How many such dot products one inference of the layer requires.
    macs:
        Total multiply-accumulate operations (= length x count).
    """

    kind: str
    dot_product_length: int
    n_dot_products: int

    @property
    def macs(self) -> int:
        """Total multiply-accumulate count of the layer."""
        return self.dot_product_length * self.n_dot_products

    def scaled(self, batch_size: int) -> "LayerWorkload":
        """The workload of a fused batch of ``batch_size`` inferences.

        Each inference contributes the same dot products, so a batch
        multiplies the count while the per-dot-product length (set by the
        layer geometry) is unchanged.  The serving runtime uses this to size
        micro-batched accelerator dispatches.
        """
        check_positive_int("batch_size", batch_size)
        if batch_size == 1:
            return self
        return LayerWorkload(
            kind=self.kind,
            dot_product_length=self.dot_product_length,
            n_dot_products=self.n_dot_products * batch_size,
        )


class Layer:
    """Base class for all layers.

    Sub-classes implement :meth:`forward` and :meth:`backward`; stateful
    layers additionally expose their parameters and gradients through
    :meth:`parameters` and :meth:`gradients` as dictionaries keyed by
    parameter name.  Only a training-mode forward keeps the state
    :meth:`backward` needs: in eval mode a layer holds no input, patch
    matrix or mask, and :meth:`backward` raises ``RuntimeError``.
    """

    #: Human-readable layer-type name used in model summaries.
    kind = "layer"

    def __init__(self) -> None:
        self.training = True

    def __getattr__(self, name: str):
        # Reached only when normal lookup misses, so a drawn ``weight`` costs
        # nothing here.  A kernel deferred to a DeferredDraws is drawn, with
        # every other pending kernel of its builder, on its first read.
        draws = self.__dict__.get("_draws")
        if name == "weight" and draws is not None:
            draws.materialise()
            if name in self.__dict__:
                return self.__dict__[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Compute the layer output for ``inputs``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the input gradient."""
        raise NotImplementedError

    def backward_params(self, grad_output: np.ndarray) -> None:
        """Accumulate parameter gradients only (input gradient not needed).

        The training loop calls this for the *first* layer of a model,
        whose input gradient nothing consumes.  The base implementation
        simply runs :meth:`backward` and discards the result; layers whose
        input gradient is expensive (Conv2D's col2im fold, Dense's second
        GEMM) override it to skip that work -- the parameter gradients are
        bit-identical either way.
        """
        self.backward(grad_output)

    def parameters(self) -> dict[str, np.ndarray]:
        """Trainable parameters of the layer (empty for stateless layers)."""
        return {}

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradients matching :meth:`parameters` (same keys)."""
        return {}

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the output given an input shape (excluding batch)."""
        raise NotImplementedError

    def workload(self, input_shape: tuple[int, ...]) -> LayerWorkload:
        """Dot-product workload for one sample with the given input shape."""
        return LayerWorkload(kind="other", dot_product_length=0, n_dot_products=0)

    def train(self) -> None:
        """Put the layer in training mode (affects dropout / batch norm)."""
        self.training = True

    def eval(self) -> None:
        """Put the layer in inference mode."""
        self.training = False

    @property
    def n_parameters(self) -> int:
        """Total number of trainable scalars in the layer."""
        return int(sum(p.size for p in self.parameters().values()))


class _KernelLayer(Layer):
    """Parameter plumbing shared by Dense and Conv2D: a kernel and an optional bias.

    ``rng`` may be a :class:`~repro.nn.initializers.DeferredDraws`, which
    defers the kernel draw to the first read of ``weight``; a Generator (or
    none, meaning ``default_rng(0)``) draws it at construction.
    """

    def _init_parameters(self, shape, initializer, n_out: int, use_bias: bool, rng) -> None:
        self.use_bias = use_bias
        self._weight_shape = shape
        if isinstance(rng, DeferredDraws):
            rng.defer(self, initializer, shape)
        else:
            self.weight = initializer(shape, rng or np.random.default_rng(0))
        self.bias = zeros((n_out,)) if use_bias else None
        # np.zeros (calloc), not zeros_like: no page is touched before backward replaces it.
        self._grad_weight = np.zeros(shape, float)
        self._grad_bias = np.zeros((n_out,), float) if use_bias else None

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"weight": self.weight}
        if self.use_bias:
            params["bias"] = self.bias
        return params

    def gradients(self) -> dict[str, np.ndarray]:
        grads = {"weight": self._grad_weight}
        if self.use_bias:
            grads["bias"] = self._grad_bias
        return grads

    @property
    def n_parameters(self) -> int:
        # From the shapes, so counting draws no deferred kernel.
        return math.prod(self._weight_shape) + (self.bias.size if self.use_bias else 0)


class Dense(_KernelLayer):
    """Fully connected layer: ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    use_bias:
        Whether to add a bias vector.
    rng:
        Random generator for weight initialization (seeded for
        reproducibility of the accuracy experiments), or a builder's
        :class:`~repro.nn.initializers.DeferredDraws`.
    """

    kind = "fc"

    def __init__(
        self,
        in_features: int,
        out_features: int,
        use_bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        check_positive_int("in_features", in_features)
        check_positive_int("out_features", out_features)
        self.in_features = in_features
        self.out_features = out_features
        self._init_parameters(
            (in_features, out_features), glorot_uniform, out_features, use_bias, rng
        )
        self._last_input: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input of shape (N, {self.in_features}), got {inputs.shape}"
            )
        self._last_input = inputs if self.training else None
        output = F.matmul(inputs, self.weight)
        if self.use_bias:
            output = output + self.bias
        return output

    def forward_ensemble(self, inputs: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Fused forward for ``E`` perturbed realisations of this layer.

        ``weights`` is an ``(E, in_features, out_features)`` stack replacing
        :attr:`weight`; ``inputs`` is either ``(N, in_features)`` (shared by
        all members) or ``(E, N, in_features)`` (per-member activations).
        Returns ``(E, N, out_features)`` with member ``e`` elementwise
        identical to a scalar :meth:`forward` under ``weights[e]``.  The
        layer's own parameters and training path are untouched.
        """
        weights = np.asarray(weights)
        if weights.ndim != 3 or weights.shape[1:] != (self.in_features, self.out_features):
            raise ValueError(
                f"Dense ensemble expected weights (E, {self.in_features}, "
                f"{self.out_features}), got {weights.shape}"
            )
        if inputs.shape[-1] != self.in_features or inputs.ndim not in (2, 3):
            raise ValueError(
                f"Dense ensemble expected input (N, {self.in_features}) or "
                f"(E, N, {self.in_features}), got {inputs.shape}"
            )
        if inputs.ndim == 3 and inputs.shape[0] != weights.shape[0]:
            raise ValueError(
                f"stacked input has {inputs.shape[0]} members, weights have "
                f"{weights.shape[0]}"
            )
        output = F.ensemble_dense(inputs, weights)
        if self.use_bias:
            # Cast keeps float32 ensembles in float32 (a float64 bias would
            # silently upcast the largest intermediate of the pass); at
            # float64 it is a no-copy identity.
            output = output + self.bias.astype(output.dtype, copy=False)
        return output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise RuntimeError("backward needs a training-mode forward first")
        self._grad_weight = F.matmul(self._last_input.T, grad_output)
        if self.use_bias:
            self._grad_bias = grad_output.sum(axis=0)
        return F.matmul(grad_output, self.weight.T)

    def backward_params(self, grad_output: np.ndarray) -> None:
        if self._last_input is None:
            raise RuntimeError("backward needs a training-mode forward first")
        self._grad_weight = F.matmul(self._last_input.T, grad_output)
        if self.use_bias:
            self._grad_bias = grad_output.sum(axis=0)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (self.out_features,)

    def workload(self, input_shape: tuple[int, ...]) -> LayerWorkload:
        return LayerWorkload(
            kind="fc",
            dot_product_length=self.in_features,
            n_dot_products=self.out_features,
        )


class Conv2D(_KernelLayer):
    """2-D convolution layer in NCHW layout, lowered to im2col matrix products.

    Parameters
    ----------
    in_channels, out_channels:
        Number of input and output feature maps.
    kernel_size:
        Side length of the (square) kernel; the paper's models use 2x2 to
        5x5 kernels, which is also the range CrossLight's CONV VDP units are
        sized for.
    stride, padding:
        Convolution stride and symmetric zero padding.
    """

    kind = "conv"

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        use_bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        check_positive_int("in_channels", in_channels)
        check_positive_int("out_channels", out_channels)
        check_positive_int("kernel_size", kernel_size)
        check_positive_int("stride", stride)
        if padding < 0:
            raise ValueError("padding must be non-negative")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self._init_parameters(
            (out_channels, in_channels, kernel_size, kernel_size),
            he_normal, out_channels, use_bias, rng,
        )
        self._cache: tuple | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if inputs.ndim != 4 or inputs.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2D expected input (N, {self.in_channels}, H, W), got {inputs.shape}"
            )
        n, _, h, w = inputs.shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        cols = F.im2col(inputs, self.kernel_size, self.kernel_size, self.stride, self.padding)
        kernel_matrix = self.weight.reshape(self.out_channels, -1).T
        output = F.matmul(cols, kernel_matrix)
        if self.use_bias:
            output = output + self.bias
        output = output.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        self._cache = (inputs.shape, cols) if self.training else None
        return output

    def lower(self, inputs: np.ndarray) -> np.ndarray:
        """The layer's :func:`~repro.nn.functional.im2col` patch lowering.

        Exposed so the ensemble inference engine can compute the patch matrix
        of a shared input batch once and reuse it across member chunks.
        """
        return F.im2col(inputs, self.kernel_size, self.kernel_size, self.stride, self.padding)

    def forward_ensemble(
        self,
        inputs: np.ndarray,
        weights: np.ndarray,
        cols: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fused forward for ``E`` perturbed kernel banks of this layer.

        ``weights`` is an ``(E, out_channels, in_channels, k, k)`` stack;
        ``inputs`` is ``(N, C, H, W)`` (shared) or ``(E, N, C, H, W)``
        (per-member).  ``cols`` optionally carries a precomputed
        :meth:`lower` result for shared input so several member chunks reuse
        one patch matrix.  Returns ``(E, N, out_channels, out_h, out_w)``
        with member ``e`` elementwise identical to a scalar :meth:`forward`
        under ``weights[e]``.
        """
        weights = np.asarray(weights)
        if weights.ndim != 5 or weights.shape[1:] != self.weight.shape:
            raise ValueError(
                f"Conv2D ensemble expected weights (E, *{self.weight.shape}), "
                f"got {weights.shape}"
            )
        if inputs.ndim not in (4, 5) or inputs.shape[-3] != self.in_channels:
            raise ValueError(
                f"Conv2D ensemble expected input (N, {self.in_channels}, H, W) or "
                f"(E, N, {self.in_channels}, H, W), got {inputs.shape}"
            )
        return F.ensemble_conv2d(
            inputs,
            weights,
            stride=self.stride,
            padding=self.padding,
            cols=cols,
            bias=self.bias if self.use_bias else None,
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward needs a training-mode forward first")
        input_shape, cols = self._cache
        n, _, out_h, out_w = grad_output.shape
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self._grad_weight = (
            F.matmul(cols.T, grad_matrix).T.reshape(self.weight.shape)
        )
        if self.use_bias:
            self._grad_bias = grad_matrix.sum(axis=0)
        kernel_matrix = self.weight.reshape(self.out_channels, -1)
        grad_cols = F.matmul(grad_matrix, kernel_matrix)
        return F.col2im(
            grad_cols,
            input_shape,
            self.kernel_size,
            self.kernel_size,
            self.stride,
            self.padding,
        )

    def backward_params(self, grad_output: np.ndarray) -> None:
        # Skips the grad_cols GEMM and the col2im fold -- for the first
        # (largest-spatial) conv of a model that is the single most
        # expensive step of the whole backward pass.
        if self._cache is None:
            raise RuntimeError("backward needs a training-mode forward first")
        _, cols = self._cache
        grad_matrix = grad_output.transpose(0, 2, 3, 1).reshape(-1, self.out_channels)
        self._grad_weight = F.matmul(cols.T, grad_matrix).T.reshape(self.weight.shape)
        if self.use_bias:
            self._grad_bias = grad_matrix.sum(axis=0)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.kernel_size, self.stride, self.padding)
        out_w = F.conv_output_size(w, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def workload(self, input_shape: tuple[int, ...]) -> LayerWorkload:
        _, out_h, out_w = self.output_shape(input_shape)
        return LayerWorkload(
            kind="conv",
            dot_product_length=self.in_channels * self.kernel_size * self.kernel_size,
            n_dot_products=self.out_channels * out_h * out_w,
        )


class _Pool2D(Layer):
    """Shared machinery for max and average pooling."""

    def __init__(self, pool_size: int = 2, stride: int | None = None) -> None:
        super().__init__()
        check_positive_int("pool_size", pool_size)
        self.pool_size = pool_size
        self.stride = stride if stride is not None else pool_size
        check_positive_int("stride", self.stride)
        self._cache: tuple | None = None

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = F.conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = F.conv_output_size(w, self.pool_size, self.stride, 0)
        return (c, out_h, out_w)

    def tiles(self, h: int, w: int) -> bool:
        """Whether the pooling windows tile the input exactly (no overlap).

        Every model in the paper's zoo pools with ``stride == pool_size`` on
        evenly divisible maps, so this is the hot case.  When it holds, the
        patch matrix is a pure reshape/transpose of the input (no im2col
        gather) and the backward pass is a pure scatter (no col2im
        accumulation) -- both bit-identical to the general path because each
        input position belongs to exactly one window.
        """
        return self.stride == self.pool_size and h % self.pool_size == 0 and w % self.pool_size == 0

    def _patches(self, inputs: np.ndarray) -> tuple[np.ndarray, int, int]:
        n, c, h, w = inputs.shape
        out_h = F.conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = F.conv_output_size(w, self.pool_size, self.stride, 0)
        ps = self.pool_size
        if self.tiles(h, w):
            # Window taps land in the same (row-major y, x) column order the
            # im2col lowering produces, so downstream argmax tie-breaks and
            # mean reduction orders are unchanged.
            windows = inputs.reshape(n, c, out_h, ps, out_w, ps)
            cols = windows.transpose(0, 1, 2, 4, 3, 5).reshape(-1, ps * ps)
            return cols, out_h, out_w
        reshaped = inputs.reshape(n * c, 1, h, w)
        cols = F.im2col(reshaped, ps, ps, self.stride, 0)
        return cols, out_h, out_w

    def _scatter(
        self, grad_cols: np.ndarray, input_shape: tuple[int, int, int, int],
        out_h: int, out_w: int,
    ) -> np.ndarray:
        """Fold per-window gradients back onto the input grid."""
        n, c, h, w = input_shape
        ps = self.pool_size
        if self.tiles(h, w):
            return (
                grad_cols.reshape(n, c, out_h, out_w, ps, ps)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w)
            )
        grad_images = F.col2im(grad_cols, (n * c, 1, h, w), ps, ps, self.stride, 0)
        return grad_images.reshape(n, c, h, w)


class MaxPool2D(_Pool2D):
    """Max pooling over square windows."""

    kind = "pool"

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        # Only backward needs the argmax: inference over tiling windows takes
        # the value-only kernel, on any (..., H, W) input.
        if not self.training and self.tiles(*inputs.shape[-2:]):
            self._cache = None
            return F.max_pool_tiled(inputs, self.pool_size)
        n, c, h, w = inputs.shape
        cols, out_h, out_w = self._patches(inputs)
        argmax = np.argmax(cols, axis=1)
        output = cols[np.arange(cols.shape[0]), argmax]
        self._cache = (inputs.shape, argmax, out_h, out_w) if self.training else None
        return output.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward needs a training-mode forward first")
        input_shape, argmax, out_h, out_w = self._cache
        n, c, h, w = input_shape
        grad_cols = np.zeros(
            (n * c * out_h * out_w, self.pool_size * self.pool_size),
            dtype=grad_output.dtype,
        )
        grad_cols[np.arange(grad_cols.shape[0]), argmax] = grad_output.reshape(-1)
        return self._scatter(grad_cols, input_shape, out_h, out_w)


class AvgPool2D(_Pool2D):
    """Average pooling over square windows."""

    kind = "pool"

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        n, c, h, w = inputs.shape
        cols, out_h, out_w = self._patches(inputs)
        output = cols.mean(axis=1)
        self._cache = (inputs.shape, out_h, out_w) if self.training else None
        return output.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward needs a training-mode forward first")
        input_shape, out_h, out_w = self._cache
        window = self.pool_size * self.pool_size
        grad_cols = np.repeat(grad_output.reshape(-1, 1), window, axis=1) / window
        return self._scatter(grad_cols, input_shape, out_h, out_w)


class Flatten(Layer):
    """Flatten all non-batch dimensions into one."""

    kind = "reshape"

    def __init__(self) -> None:
        super().__init__()
        self._input_shape: tuple[int, ...] | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._input_shape = inputs.shape if self.training else None
        return inputs.reshape(inputs.shape[0], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward needs a training-mode forward first")
        return grad_output.reshape(self._input_shape)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return (int(np.prod(input_shape)),)


class ReLU(Layer):
    """Rectified linear activation."""

    kind = "activation"

    def __init__(self) -> None:
        super().__init__()
        self._last_input: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._last_input = inputs if self.training else None
        return F.relu(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise RuntimeError("backward needs a training-mode forward first")
        return grad_output * F.relu_grad(self._last_input)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Sigmoid(Layer):
    """Logistic sigmoid activation."""

    kind = "activation"

    def __init__(self) -> None:
        super().__init__()
        self._last_input: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._last_input = inputs if self.training else None
        return F.sigmoid(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise RuntimeError("backward needs a training-mode forward first")
        return grad_output * F.sigmoid_grad(self._last_input)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    kind = "activation"

    def __init__(self) -> None:
        super().__init__()
        self._last_input: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        self._last_input = inputs if self.training else None
        return F.tanh(inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._last_input is None:
            raise RuntimeError("backward needs a training-mode forward first")
        return grad_output * F.tanh_grad(self._last_input)

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class Dropout(Layer):
    """Inverted dropout; a no-op in inference mode."""

    kind = "regularizer"

    def __init__(self, rate: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = rng or np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return inputs
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape


class BatchNorm(Layer):
    """Batch normalization over the feature axis.

    Works for both dense activations ``(N, F)`` (normalising each feature)
    and convolutional activations ``(N, C, H, W)`` (normalising each
    channel).  The paper notes batch normalization is executed in the
    electronic domain, so this layer contributes no photonic workload.
    """

    kind = "norm"

    def __init__(self, num_features: int, momentum: float = 0.9, eps: float = 1e-5) -> None:
        super().__init__()
        check_positive_int("num_features", num_features)
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = np.ones(num_features)
        self.beta = np.zeros(num_features)
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)
        # np.zeros (calloc), not zeros_like: no page is touched before backward replaces it.
        self._grad_gamma = np.zeros(self.gamma.shape, self.gamma.dtype)
        self._grad_beta = np.zeros(self.beta.shape, self.beta.dtype)
        self._cache: tuple | None = None

    def _reshape_stats(self, array: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 2:
            return array
        return array.reshape(1, -1, 1, 1)

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        axes = (0,) if inputs.ndim == 2 else (0, 2, 3)
        if self.training:
            mean = inputs.mean(axis=axes)
            var = inputs.var(axis=axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        mean_b = self._reshape_stats(mean, inputs.ndim)
        var_b = self._reshape_stats(var, inputs.ndim)
        normalized = (inputs - mean_b) / np.sqrt(var_b + self.eps)
        self._cache = (normalized, var_b, axes, inputs.shape) if self.training else None
        gamma_b = self._reshape_stats(self.gamma, inputs.ndim)
        beta_b = self._reshape_stats(self.beta, inputs.ndim)
        return gamma_b * normalized + beta_b

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward needs a training-mode forward first")
        normalized, var_b, axes, input_shape = self._cache
        m = np.prod([input_shape[a] for a in axes])
        self._grad_gamma = (grad_output * normalized).sum(axis=axes)
        self._grad_beta = grad_output.sum(axis=axes)
        gamma_b = self._reshape_stats(self.gamma, grad_output.ndim)
        grad_norm = grad_output * gamma_b
        term1 = m * grad_norm
        term2 = grad_norm.sum(axis=axes, keepdims=True)
        term3 = normalized * (grad_norm * normalized).sum(axis=axes, keepdims=True)
        return (term1 - term2 - term3) / (m * np.sqrt(var_b + self.eps))

    def parameters(self) -> dict[str, np.ndarray]:
        return {"gamma": self.gamma, "beta": self.beta}

    def gradients(self) -> dict[str, np.ndarray]:
        return {"gamma": self._grad_gamma, "beta": self._grad_beta}

    def output_shape(self, input_shape: tuple[int, ...]) -> tuple[int, ...]:
        return input_shape
