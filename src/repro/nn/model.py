"""Sequential and Siamese model containers with training and evaluation loops.

The :class:`Sequential` container chains layers from :mod:`repro.nn.layers`
and provides ``fit`` / ``evaluate`` / ``predict`` methods comparable to a
minimal Keras API, which is what the Fig. 5 accuracy-vs-resolution experiment
and the examples use.  :class:`SiameseModel` wraps a shared embedding trunk
for the one-shot-learning model 4 of Table I.

Models also expose the structural information the photonic simulator needs:
per-layer workloads (dot-product shapes and counts) and parameter counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Layer, LayerWorkload
from repro.nn.losses import Loss, SoftmaxCrossEntropy, accuracy
from repro.nn.optimizers import Adam, Optimizer
from repro.utils.validation import check_input_rows, check_positive_int


@dataclass(frozen=True)
class TrainingHistory:
    """Per-epoch record of a training run."""

    losses: tuple[float, ...]
    accuracies: tuple[float, ...]

    @property
    def final_accuracy(self) -> float:
        """Training accuracy of the last epoch."""
        return self.accuracies[-1]


class Sequential:
    """A feed-forward stack of layers.

    Parameters
    ----------
    layers:
        Layer instances applied in order.
    input_shape:
        Shape of one input sample (excluding the batch dimension), e.g.
        ``(1, 28, 28)`` for a grayscale image; needed to compute per-layer
        workloads without running data through the model.
    name:
        Human-readable model name, used in experiment reports.
    """

    def __init__(
        self,
        layers: list[Layer],
        input_shape: tuple[int, ...],
        name: str = "model",
    ) -> None:
        if not layers:
            raise ValueError("a model needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name

    # ------------------------------------------------------------------ #
    # Forward / backward
    # ------------------------------------------------------------------ #
    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Run the full forward pass."""
        out = inputs
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """Back-propagate through all layers (reverse order).

        ``need_input_grad=False`` lets the first layer accumulate its
        parameter gradients without materialising the model-input gradient
        (:meth:`Layer.backward_params`), which nothing consumes during
        plain training; parameter gradients are bit-identical either way.
        Returns the input gradient, or ``None`` when skipped.
        """
        grad = grad_output
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if need_input_grad:
            return self.layers[0].backward(grad)
        self.layers[0].backward_params(grad)
        return None

    def predict(self, inputs: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Inference-mode forward pass, batched to bound memory."""
        check_positive_int("batch_size", batch_size)
        inputs = check_input_rows(inputs)
        self.eval()
        outputs = []
        for start in range(0, inputs.shape[0], batch_size):
            outputs.append(self.forward(inputs[start : start + batch_size]))
        return np.concatenate(outputs, axis=0)

    def astype(self, dtype) -> "Sequential":
        """Cast every layer's floating state to ``dtype``, in place.

        Covers trainable parameters, gradient buffers, and normalisation
        running statistics, so a model cast to float32 *before* training
        optimises entirely in single precision (optimizer state is created
        with ``zeros_like`` and inherits the dtype).  Returns the model for
        chaining.  Casting to the model's current dtype is a no-op.
        """
        dtype = np.dtype(dtype)
        for layer in self.layers:
            layer.parameters()  # draws deferred kernels, so vars() holds them
            for name, value in vars(layer).items():
                if isinstance(value, np.ndarray) and np.issubdtype(
                    value.dtype, np.floating
                ):
                    setattr(layer, name, value.astype(dtype, copy=False))
        return self

    # ------------------------------------------------------------------ #
    # Modes
    # ------------------------------------------------------------------ #
    def train(self) -> None:
        """Switch every layer to training mode."""
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        """Switch every layer to inference mode."""
        for layer in self.layers:
            layer.eval()

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        inputs: np.ndarray,
        labels: np.ndarray,
        epochs: int = 5,
        batch_size: int = 32,
        loss: Loss | None = None,
        optimizer: Optimizer | None = None,
        shuffle: bool = True,
        seed: int = 0,
        verbose: bool = False,
        track_accuracy: bool = True,
    ) -> TrainingHistory:
        """Train the model with mini-batch gradient descent.

        ``track_accuracy=False`` skips the full-dataset accuracy evaluation
        at the end of every epoch (the ``accuracies`` history records NaN).
        The optimisation trajectory -- and therefore the final weights -- is
        bit-identical either way; callers that only consume the trained model
        (e.g. the fig5 sweep) disable tracking to avoid paying one extra
        inference epoch per training epoch.

        Returns
        -------
        TrainingHistory
            Per-epoch mean loss and training accuracy.
        """
        check_positive_int("epochs", epochs)
        check_positive_int("batch_size", batch_size)
        loss = loss or SoftmaxCrossEntropy()
        optimizer = optimizer or Adam()
        rng = np.random.default_rng(seed)

        n_samples = inputs.shape[0]
        epoch_losses: list[float] = []
        epoch_accuracies: list[float] = []
        for epoch in range(epochs):
            self.train()
            order = rng.permutation(n_samples) if shuffle else np.arange(n_samples)
            batch_losses = []
            for start in range(0, n_samples, batch_size):
                batch_idx = order[start : start + batch_size]
                batch_x = inputs[batch_idx]
                batch_y = labels[batch_idx]
                logits = self.forward(batch_x)
                loss_value, grad = loss(logits, batch_y)
                self.backward(grad, need_input_grad=False)
                optimizer.step(self.layers)
                batch_losses.append(loss_value)
            epoch_losses.append(float(np.mean(batch_losses)))
            if track_accuracy:
                epoch_accuracies.append(self.evaluate(inputs, labels, batch_size=batch_size))
            else:
                epoch_accuracies.append(float("nan"))
            if verbose:
                print(
                    f"[{self.name}] epoch {epoch + 1}/{epochs} "
                    f"loss={epoch_losses[-1]:.4f} acc={epoch_accuracies[-1]:.3f}"
                )
        # The tracking evaluate leaves the model in eval mode; keep that
        # post-condition when tracking is disabled too.
        self.eval()
        return TrainingHistory(tuple(epoch_losses), tuple(epoch_accuracies))

    def evaluate(self, inputs: np.ndarray, labels: np.ndarray, batch_size: int = 128) -> float:
        """Top-1 accuracy of the model on a labelled dataset."""
        logits = self.predict(inputs, batch_size=batch_size)
        return accuracy(logits, labels)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_parameters(self) -> int:
        """Total number of trainable scalars in the model."""
        return int(sum(layer.n_parameters for layer in self.layers))

    def layer_shapes(self) -> list[tuple[int, ...]]:
        """Input shape of every layer, starting from the model input."""
        shapes = [self.input_shape]
        for layer in self.layers[:-1]:
            shapes.append(layer.output_shape(shapes[-1]))
        return shapes

    def workloads(self) -> list[LayerWorkload]:
        """Per-layer dot-product workloads for one inference sample."""
        shapes = self.layer_shapes()
        return [layer.workload(shape) for layer, shape in zip(self.layers, shapes)]

    def count_layers(self, kind: str) -> int:
        """Number of layers of a given kind (``"conv"``, ``"fc"``, ...)."""
        return sum(1 for layer in self.layers if layer.kind == kind)

    def summary(self) -> str:
        """Human-readable model summary (one line per layer)."""
        lines = [f"Model: {self.name} (input {self.input_shape})"]
        shapes = self.layer_shapes()
        for layer, shape in zip(self.layers, shapes):
            out_shape = layer.output_shape(shape)
            lines.append(
                f"  {type(layer).__name__:<12} in={shape} out={out_shape} "
                f"params={layer.n_parameters}"
            )
        lines.append(f"Total parameters: {self.n_parameters}")
        return "\n".join(lines)


class SiameseModel:
    """Siamese network sharing one embedding trunk across two inputs.

    Used for the Omniglot-style one-shot model (Table I, model 4): both
    inputs of a pair pass through the same :class:`Sequential` trunk and the
    model outputs the Euclidean distance between the two embeddings.  The
    photonic workload of a pair inference is exactly two trunk inferences,
    which is how the performance simulator accounts for it.
    """

    def __init__(self, trunk: Sequential, name: str = "siamese") -> None:
        self.trunk = trunk
        self.name = name

    def embed(self, inputs: np.ndarray) -> np.ndarray:
        """Embedding of a batch of inputs."""
        return self.trunk.predict(inputs)

    def pair_distances(self, inputs_a: np.ndarray, inputs_b: np.ndarray) -> np.ndarray:
        """Euclidean distances between the embeddings of paired inputs."""
        if inputs_a.shape != inputs_b.shape:
            raise ValueError("paired inputs must have identical shapes")
        emb_a = self.embed(inputs_a)
        emb_b = self.embed(inputs_b)
        return np.sqrt(np.sum((emb_a - emb_b) ** 2, axis=1) + 1e-12)

    @property
    def n_parameters(self) -> int:
        """Parameters of the shared trunk (counted once)."""
        return self.trunk.n_parameters

    @property
    def input_shape(self) -> tuple[int, ...]:
        """Input shape of one branch."""
        return self.trunk.input_shape

    def workloads(self) -> list[LayerWorkload]:
        """Workloads of a *pair* inference (two passes through the trunk)."""
        single = self.trunk.workloads()
        return [
            LayerWorkload(
                kind=w.kind,
                dot_product_length=w.dot_product_length,
                n_dot_products=2 * w.n_dot_products,
            )
            for w in single
        ]

    def count_layers(self, kind: str) -> int:
        """Number of trunk layers of a given kind."""
        return self.trunk.count_layers(kind)
