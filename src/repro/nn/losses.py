"""Loss functions for training the evaluation models.

Provides softmax cross-entropy, the loss of the three classification CNNs
of the Table-I model zoo; it returns both the scalar loss value and the
gradient with respect to the model output, which the
:class:`repro.nn.model.Sequential` training loop back-propagates.  The
Siamese model (model 4) is never trained here, only evaluated by
:func:`pair_accuracy`.
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F


class Loss:
    """Base class: callable returning ``(loss_value, grad_wrt_predictions)``."""

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        raise NotImplementedError


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy on integer class labels.

    Combining the two keeps the gradient numerically simple and stable:
    ``grad = (softmax(logits) - onehot(targets)) / batch``.
    """

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
        if predictions.ndim != 2:
            raise ValueError("predictions must be (batch, classes) logits")
        targets = np.asarray(targets, dtype=int)
        if targets.ndim != 1 or targets.shape[0] != predictions.shape[0]:
            raise ValueError("targets must be a 1-D array of class indices matching the batch")
        batch, n_classes = predictions.shape
        log_probs = F.log_softmax(predictions, axis=1)
        loss = -float(np.mean(log_probs[np.arange(batch), targets]))
        grad = F.softmax(predictions, axis=1)
        grad[np.arange(batch), targets] -= 1.0
        return loss, grad / batch


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 classification accuracy for logits and integer labels."""
    predictions = np.argmax(logits, axis=1)
    labels = np.asarray(labels, dtype=int)
    if predictions.shape != labels.shape:
        raise ValueError("logits batch size must match labels")
    return float(np.mean(predictions == labels))


def pair_accuracy(distances: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> float:
    """Verification accuracy of a Siamese model.

    A pair is predicted "same" when its embedding distance falls below
    ``threshold``; accuracy is measured against the binary pair labels.
    """
    distances = np.asarray(distances, dtype=float).reshape(-1)
    labels = np.asarray(labels, dtype=int).reshape(-1)
    predictions = (distances < threshold).astype(int)
    return float(np.mean(predictions == labels))
