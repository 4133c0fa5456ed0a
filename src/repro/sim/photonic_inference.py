"""Functional photonic inference: accuracy under device non-idealities.

The performance simulator (:mod:`repro.sim.simulator`) answers "how fast and
how efficient"; this module answers "how *accurate*": it executes a trained
model's Conv2D/Dense layers through the same decomposition the VDP units use,
while injecting the device-level non-idealities the paper's cross-layer
optimizations exist to suppress.

The non-idealities themselves live in :mod:`repro.sim.noise` as composable
:class:`~repro.sim.noise.NoiseChannel` objects -- quantization, residual
Lorentzian drift, Monte-Carlo FPV drift, spectral and thermal crosstalk --
assembled into an ordered :class:`~repro.sim.noise.NoiseStack`.  The engine
here runs a model's weights through a stack (and optionally quantizes the
activations flowing between layers), so any combination of effects can be
evaluated without touching the engine:

* :class:`EnsembleInferenceEngine` / :func:`evaluate_ensemble` evaluate E
  perturbed realisations of one model *in fused forward passes*: weight
  stacks are sampled through the vectorized
  :func:`~repro.sim.noise.ensemble_apply` on one shared row, every
  Dense/Conv2D layer runs one stacked GEMM over the ``(E, ...)`` weight
  axis, and im2col patch matrices are computed once per input batch and
  shared across members -- with chunking over the member and batch axes
  (each member chunk's weights are perturbed just before its forward
  passes, so peak memory does not grow with E) and an opt-in float32
  compute mode.  At float64 the ensemble is elementwise identical to
  evaluating each member alone with a sequential forward pass.
  A one-member engine over a caller-owned ``np.random.Generator`` is how
  functional serving runs each worker's device;
* :func:`monte_carlo_accuracy` runs seeded FPV/crosstalk trials on the
  ensemble path (a :class:`~repro.sim.sweep.SweepExecutor` spreads
  contiguous *seed chunks*, each itself ensemble-vectorized, over its
  process pool) and reports mean/std accuracy, as does
  :func:`accuracy_vs_residual_drift` for drift sweeps.

This closes the loop of the paper's argument: the optimized MR design and the
TED hybrid tuning keep the residual drift small, which keeps the imprinted
weights accurate, which keeps inference accuracy at its quantization-limited
value.  The ablation experiment (:mod:`repro.experiments.ablation`) sweeps
the residual drift to show exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import hashlib
import operator
from collections import OrderedDict
from collections.abc import Iterable, Sequence as SequenceABC
from functools import partial

from repro.nn.backend import resolve_precision
from repro.nn.layers import BatchNorm, Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU, Sigmoid, Tanh
from repro.nn.model import Sequential
from repro.nn.quantization import quantize_array_stack
from repro.sim.noise import (
    NoiseStack,
    QuantizationChannel,
    ResidualDriftChannel,
    default_noise_stack,
    ensemble_apply,
)
from repro.sim.sweep import SweepExecutor, plan_chunks, run_sweep
from repro.utils.validation import check_input_rows, check_positive_int


@dataclass(frozen=True)
class PhotonicInferenceResult:
    """Accuracy of a model executed on the (non-ideal) photonic substrate.

    ``resolution_bits`` / ``residual_drift_nm`` summarise the corresponding
    channels of the engine's noise stack when present; a stack without a
    quantization channel reports ``resolution_bits = 0`` (unquantized /
    float weights), and ``noise`` always carries the full stack description.
    """

    model: str
    resolution_bits: int
    residual_drift_nm: float
    accuracy: float
    ideal_accuracy: float
    noise: str = ""

    @property
    def accuracy_loss(self) -> float:
        """Accuracy lost relative to ideal (float, noiseless) inference."""
        return self.ideal_accuracy - self.accuracy


def _stack_resolution_bits(stack: NoiseStack) -> int:
    """Weight resolution of ``stack``; 0 means unquantized (float) weights."""
    for channel in stack:
        if isinstance(channel, QuantizationChannel) and channel.bits is not None:
            return channel.bits
    return 0


def _stack_residual_drift(stack: NoiseStack) -> float:
    """Total uniform residual drift of ``stack``'s drift channels."""
    return sum(
        channel.residual_drift_nm
        for channel in stack
        if isinstance(channel, ResidualDriftChannel)
    )


def _seed_tuple(seeds, *, generators: bool) -> tuple:
    """Per-member seeds: ``0..n-1`` for a count ``n``, else the given members.

    Integer seeds pass through :func:`operator.index`, so a float raises
    ``TypeError`` rather than truncating; with ``generators`` an
    ``np.random.Generator`` member is kept as is.
    """
    if isinstance(seeds, (int, np.integer)):
        return tuple(range(check_positive_int("seeds", operator.index(seeds))))
    seed_list = tuple(
        seed
        if generators and isinstance(seed, np.random.Generator)
        else operator.index(seed)
        for seed in seeds
    )
    if not seed_list:
        raise ValueError("seeds must not be empty")
    return seed_list


# ---------------------------------------------------------------------- #
# Ensemble-vectorized inference
# ---------------------------------------------------------------------- #
#: Stateless layers whose forward pass is shape-agnostic in inference mode,
#: so the ensemble engine can apply them to an (E, N, ...) stack without
#: merging the leading axes first (Dropout is an inference-mode no-op).
_ELEMENTWISE_LAYERS = (ReLU, Sigmoid, Tanh, Dropout)

#: Members perturbed and evaluated together when ``member_chunk`` is not
#: given.  One chunk's weight stacks, noise-channel intermediates and
#: activations are all that is resident, so bounding the default keeps peak
#: memory flat in the ensemble size (an unbounded default would make
#: ``seeds=512`` hold 512 weight realisations and activations at once),
#: while one chunk of this size already captures the fusion win of the
#: benchmark workloads.
DEFAULT_MEMBER_CHUNK = 16


class EnsembleInferenceEngine:
    """Evaluate E perturbed realisations of one model in fused passes.

    Monte-Carlo noise studies and drift sweeps all reduce to running *many
    perturbed copies of the same model* over *the same dataset*.  Doing that
    one realisation at a time pays E full forward passes
    and recomputes identical im2col patch matrices E times; this engine
    instead stacks the E weight realisations along a leading ensemble axis
    and evaluates them together:

    * weight perturbation runs through the vectorized
      :func:`~repro.sim.noise.ensemble_apply` on one shared weight row when
      all members share one stack (heterogeneous per-member stacks fall
      back to a per-member loop for the perturbation only -- the forward
      passes stay fused), one member chunk at a time, just before that
      chunk's forward passes;
    * every Dense/Conv2D layer executes one stacked GEMM over the
      ``(E, ...)`` weight axis (:meth:`~repro.nn.layers.Dense.\
forward_ensemble` / :meth:`~repro.nn.layers.Conv2D.forward_ensemble`);
    * im2col patch matrices and all activations upstream of the first noisy
      layer are computed **once per input batch and activation resolution**
      and shared across that resolution's members; each resolution lowers
      the batch itself (no merged lowering across resolutions), and its
      cached prefix is freed after its last member chunk;
    * non-parametric layers run on the whole ``(E, N, ...)`` stack where
      their inference forward is shape-agnostic (elementwise activations in
      one ufunc pass, max pooling over tiling windows in one value-only
      pass, flatten as a reshape) and per member at batch size otherwise
      (batch norm, average pooling, windows that do not tile), each
      per-member call being the exact scalar forward.

    At ``precision="float64"`` (the default) every member's logits and
    accuracy are elementwise identical to running that member alone: its
    weights swapped for its stack's perturbation under its own generator,
    then one layer ``forward`` at a time with the input and every layer's
    output quantized to its activation resolution; ``precision="float32"`` is
    an opt-in compute mode that halves peak memory at a small numerical
    tolerance.  ``member_chunk`` bounds how many members are resident at
    once: a chunk's weight stacks, the noise channels' intermediates and its
    activations (which scale with ``member_chunk * batch_size``) are freed
    before the next chunk, so peak memory is flat in the ensemble size.

    Parameters
    ----------
    noise_stacks:
        A single :class:`~repro.sim.noise.NoiseStack` (or iterable of noise
        channels) shared by every member, or a sequence of per-member
        ``NoiseStack`` objects (e.g. one per drift point of a sweep).
    seeds:
        Per-member generator seeds: an int E (seeds ``0..E-1``) or an
        explicit sequence of integers and ``np.random.Generator`` objects.
        An integer member replays its stream on every :meth:`predict`; a
        Generator member continues its stream, so successive calls draw
        fresh realisations (give each member its own Generator: one shared
        by several members would interleave their draws in an order that
        depends on ``member_chunk``).  With per-member stacks the length
        must match; repeating one seed across members replays the same
        random draws against each stack (the drift-sweep convention).
    activation_bits:
        Inter-layer activation resolution: one value for all members or a
        per-member sequence (``None`` keeps activations in float).
    precision:
        A :class:`~repro.nn.backend.PrecisionPolicy` (or its name,
        ``"float64"`` / ``"float32"``) selecting the compute precision and
        its documented tolerance contract.
    member_chunk:
        Maximum members perturbed and evaluated together; defaults to
        :data:`DEFAULT_MEMBER_CHUNK` so peak memory stays flat in the
        ensemble size (results are chunk-invariant).
    """

    def __init__(
        self,
        noise_stacks,
        seeds,
        *,
        activation_bits=None,
        precision=None,
        member_chunk: int | None = None,
    ) -> None:
        shared_stack, member_stacks = self._normalise_stacks(noise_stacks)
        seed_list = _seed_tuple(seeds, generators=True)
        if member_stacks is not None and len(member_stacks) != len(seed_list):
            raise ValueError(
                f"got {len(member_stacks)} noise stacks for {len(seed_list)} seeds"
            )
        self._shared_stack = shared_stack
        self._member_stacks = member_stacks
        self.seeds = seed_list
        n_members = len(seed_list)

        if activation_bits is None or isinstance(activation_bits, (int, np.integer)):
            bits_list = (activation_bits if activation_bits is None else int(activation_bits),) * n_members
        else:
            bits_list = tuple(
                None if bits is None else int(bits) for bits in activation_bits
            )
            if len(bits_list) != n_members:
                raise ValueError(
                    f"got {len(bits_list)} activation_bits for {n_members} members"
                )
        for bits in bits_list:
            if bits is not None:
                check_positive_int("activation_bits", bits)
        self.activation_bits = bits_list

        self.precision = resolve_precision(precision)
        self._dtype = self.precision.dtype
        if member_chunk is not None:
            check_positive_int("member_chunk", member_chunk)
        self._member_chunk = member_chunk if member_chunk is not None else DEFAULT_MEMBER_CHUNK

    @staticmethod
    def _normalise_stacks(noise_stacks):
        """Resolve the stack argument into (shared, per_member) form."""
        if isinstance(noise_stacks, NoiseStack):
            return noise_stacks, None
        if not isinstance(noise_stacks, (SequenceABC, Iterable)):
            raise TypeError(
                f"noise_stacks must be a NoiseStack or a sequence, got {noise_stacks!r}"
            )
        items = tuple(noise_stacks)
        if not items:
            raise ValueError("noise_stacks must not be empty")
        if all(isinstance(item, NoiseStack) for item in items):
            return None, items
        if any(isinstance(item, NoiseStack) for item in items):
            raise TypeError(
                "noise_stacks mixes NoiseStack objects with noise channels; "
                "pass either one stack (or channel iterable) or a sequence of stacks"
            )
        # An iterable of channels: one stack shared by every member.
        return NoiseStack(items), None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_members(self) -> int:
        """Number of ensemble members (perturbed model realisations)."""
        return len(self.seeds)

    @property
    def noise_stacks(self) -> tuple[NoiseStack, ...]:
        """Per-member noise stacks (the shared stack repeated when shared)."""
        if self._member_stacks is not None:
            return self._member_stacks
        return (self._shared_stack,) * self.n_members

    # ------------------------------------------------------------------ #
    # Weight perturbation
    # ------------------------------------------------------------------ #
    def perturbed_weight_stacks(
        self, model: Sequential, members: range | None = None
    ) -> dict[int, np.ndarray]:
        """Per-layer ``(len(members), *weight.shape)`` stacks of perturbed weights.

        ``members`` is a range of member indices (``None``: all members);
        row ``i`` of every stack belongs to member ``members[i]``, so the
        stacks of ``range(a, b)`` equal rows ``a:b`` of the full call.
        Layers are perturbed in model order and member ``e`` consumes the
        ``default_rng(seeds[e])`` stream (a fresh one for an integer seed,
        the Generator itself otherwise), so the stacks are elementwise
        identical to independent sweeps of
        :meth:`~repro.sim.noise.NoiseStack.apply` over the model's weights.
        The weights are read in place through read-only views (channels
        must not mutate their input), so nothing is copied per call.
        """
        if members is None:
            members = range(self.n_members)
        rngs = [np.random.default_rng(self.seeds[member]) for member in members]
        stacks: dict[int, np.ndarray] = {}
        for index, layer in enumerate(model.layers):
            if not isinstance(layer, (Conv2D, Dense)):
                continue
            weight = layer.weight.view()
            weight.flags.writeable = False
            if self._shared_stack is not None:
                stacked = ensemble_apply(self._shared_stack, weight[None], rngs)
                # A deterministic stack keeps the shared row, and a channel may
                # hand its input back: expand or copy only then.
                if stacked.shape[0] != len(rngs) or np.may_share_memory(stacked, weight):
                    stacked = np.array(np.broadcast_to(stacked, (len(rngs), *weight.shape)))
            else:
                stacked = np.stack(
                    [
                        np.asarray(self._member_stacks[member].apply(weight, rng), dtype=float)
                        for member, rng in zip(members, rngs)
                    ]
                )
            stacks[index] = stacked.astype(self._dtype, copy=False)
        return stacks

    # ------------------------------------------------------------------ #
    # Fused forward passes
    # ------------------------------------------------------------------ #
    def _cast(self, values: np.ndarray) -> np.ndarray:
        return values.astype(self._dtype, copy=False)

    def _quantize_shared(self, values: np.ndarray, bits: int | None) -> np.ndarray:
        if bits is None:
            return values
        # The single-member stack quantizer preserves dtype and is
        # elementwise identical to quantize_array at float64.
        return quantize_array_stack(values[np.newaxis], bits)[0]

    def _quantize_stacked(self, values: np.ndarray, bits: int | None) -> np.ndarray:
        if bits is None:
            return values
        return quantize_array_stack(values, bits)

    def _member_chunks(self) -> list[range]:
        """Contiguous member chunks, split at activation-resolution changes.

        Keeping each chunk homogeneous in ``activation_bits`` lets
        :meth:`_forward_members` share the pre-divergence prefix (input
        quantization, patch matrices) within the chunk and cache it across
        chunks with the same resolution; a resolution sweep (the fig5 shape)
        thereby degenerates to one chunk per resolution rather than forcing
        the whole ensemble onto the fully-stacked path.  :meth:`predict`
        drops a resolution's cached prefix after its last chunk, so a sweep
        holds one resolution's patch matrices at a time.  ``member_chunk``
        additionally bounds each chunk's size.
        """
        limit = self._member_chunk
        chunks: list[range] = []
        start = 0
        for member in range(1, self.n_members + 1):
            boundary = (
                member == self.n_members
                or self.activation_bits[member] != self.activation_bits[start]
            )
            if boundary:
                for chunk in plan_chunks(member - start, chunk_size=limit):
                    chunks.append(range(start + chunk.start, start + chunk.stop))
                start = member
        return chunks

    def _forward_members(
        self,
        model: Sequential,
        layer_stacks: dict[int, np.ndarray],
        batch: np.ndarray,
        members: range,
        cache: dict,
    ) -> np.ndarray:
        """Forward one member chunk over one input batch.

        ``layer_stacks`` holds the chunk's own perturbed weights
        (:meth:`perturbed_weight_stacks` over ``members``).  Activations
        stay *shared* (one ``(N, ...)`` array) until the first noisy
        layer, then become *stacked* (``(E_chunk, N, ...)``).  Shared
        activations and im2col patch matrices are memoized in ``cache``
        across member chunks of the same batch, keyed by the chunk's
        activation resolution -- :meth:`_member_chunks` guarantees every
        chunk is homogeneous in ``activation_bits``.
        """
        bits = self.activation_bits[members.start]
        stacked = False
        key = ("in", bits)
        x = cache.get(key)
        if x is None:
            x = self._quantize_shared(self._cast(np.asarray(batch)), bits)
            cache[key] = x

        for index, layer in enumerate(model.layers):
            weight_stack = layer_stacks.get(index)
            if weight_stack is None:
                if stacked:
                    if isinstance(layer, _ELEMENTWISE_LAYERS) or (
                        isinstance(layer, MaxPool2D) and layer.tiles(*x.shape[-2:])
                    ):
                        # Shape-agnostic in inference mode: one pass over the
                        # whole (E, N, ...) stack.
                        x = layer.forward(x)
                    elif isinstance(layer, Flatten):
                        x = x.reshape(x.shape[0], x.shape[1], -1)
                    else:
                        # Batch norm, average pooling and windows that do not
                        # tile take (N, C, H, W): run them per member.
                        x = np.stack([layer.forward(member) for member in x])
                    x = self._cast(self._quantize_stacked(x, bits))
                else:
                    key = ("act", index, bits)
                    shared = cache.get(key)
                    if shared is None:
                        shared = self._cast(
                            self._quantize_shared(layer.forward(x), bits)
                        )
                        cache[key] = shared
                    x = shared
                continue

            if not stacked and isinstance(layer, Conv2D):
                key = ("cols", index, bits)
                cols = cache.get(key)
                if cols is None:
                    cols = layer.lower(x)
                    cache[key] = cols
                x = layer.forward_ensemble(x, weight_stack, cols=cols)
            else:
                x = layer.forward_ensemble(x, weight_stack)
            stacked = True
            x = self._cast(self._quantize_stacked(x, bits))

        if not stacked:
            x = np.broadcast_to(x, (len(members), *x.shape)).copy()
        return x

    def predict(
        self, model: Sequential, inputs: np.ndarray, batch_size: int = 64
    ) -> np.ndarray:
        """Logits of every ensemble member: shape ``(E, N, n_classes)``.

        Member ``e`` matches a sequential forward pass of that member alone
        (see the class docstring) elementwise at float64.  The loop is
        chunk-outer: each member chunk's weights are perturbed just before
        its forward passes over every input batch and dropped after them.
        """
        check_positive_int("batch_size", batch_size)
        inputs = check_input_rows(inputs)
        model.eval()
        chunks = self._member_chunks()
        chunk_bits = [self.activation_bits[members.start] for members in chunks]
        last_chunk = {bits: position for position, bits in enumerate(chunk_bits)}
        # One shared-prefix cache per input batch, kept across member chunks.
        caches = {start: {} for start in range(0, inputs.shape[0], batch_size)}
        logits = None
        for position, (members, bits) in enumerate(zip(chunks, chunk_bits)):
            layer_stacks = self.perturbed_weight_stacks(model, members)
            for start, cache in caches.items():
                batch = inputs[start : start + batch_size]
                out = self._forward_members(model, layer_stacks, batch, members, cache)
                if logits is None:
                    logits = np.empty((self.n_members, inputs.shape[0], *out.shape[2:]), out.dtype)
                logits[members.start : members.stop, start : start + batch.shape[0]] = out
                if last_chunk[bits] == position:
                    # Every cache key ends in its resolution: free this one's prefix.
                    for key in [key for key in cache if key[-1] == bits]:
                        del cache[key]
            # Free this chunk's weights before the next chunk perturbs its own.
            del layer_stacks
        return logits

    def evaluate(
        self,
        model: Sequential,
        inputs: np.ndarray,
        labels: np.ndarray,
        batch_size: int = 64,
        ideal_accuracy: float | None = None,
    ) -> tuple[PhotonicInferenceResult, ...]:
        """Per-member accuracies on a labelled dataset, in member order.

        Returns one :class:`PhotonicInferenceResult` per member, summarising
        that member's stack, all sharing one cached ideal-accuracy baseline.
        """
        logits = self.predict(model, inputs, batch_size=batch_size)
        predictions = np.argmax(logits, axis=2)
        labels_array = np.asarray(labels, dtype=int)
        accuracies = np.mean(predictions == labels_array[np.newaxis, :], axis=1)
        if ideal_accuracy is None:
            ideal_accuracy = ideal_model_accuracy(model, inputs, labels, batch_size=batch_size)
        records = []
        for member, stack in enumerate(self.noise_stacks):
            records.append(
                PhotonicInferenceResult(
                    model=model.name,
                    resolution_bits=_stack_resolution_bits(stack),
                    residual_drift_nm=_stack_residual_drift(stack),
                    accuracy=float(accuracies[member]),
                    ideal_accuracy=float(ideal_accuracy),
                    noise=stack.describe(),
                )
            )
        return tuple(records)


def evaluate_ensemble(
    model: Sequential,
    inputs: np.ndarray,
    labels: np.ndarray,
    noise_stacks,
    seeds,
    *,
    activation_bits=None,
    batch_size: int = 64,
    precision=None,
    member_chunk: int | None = None,
    ideal_accuracy: float | None = None,
) -> tuple[PhotonicInferenceResult, ...]:
    """One-shot :class:`EnsembleInferenceEngine` evaluation.

    Builds the engine over ``noise_stacks``/``seeds`` and returns the
    per-member :class:`PhotonicInferenceResult` records.  This is the fused
    primitive :func:`monte_carlo_accuracy`,
    :func:`accuracy_vs_residual_drift`, and the experiment drivers run on.
    ``precision`` selects the compute policy exactly as on the engine
    constructor.
    """
    engine = EnsembleInferenceEngine(
        noise_stacks,
        seeds,
        activation_bits=activation_bits,
        precision=precision,
        member_chunk=member_chunk,
    )
    return engine.evaluate(
        model, inputs, labels, batch_size=batch_size, ideal_accuracy=ideal_accuracy
    )


def _array_fingerprint(array) -> tuple:
    """Content fingerprint of an array: shape, dtype, and a byte-level hash.

    Since the ideal-accuracy cache keys on fingerprints alone (no object
    identity), the fingerprint must be collision-free in practice -- cheap
    statistical summaries (sums, dot products) demonstrably alias distinct
    label vectors.  Hashing the raw bytes is the same O(n) cost as a
    reduction and orders of magnitude cheaper than the full-dataset model
    evaluation the cache guards.
    """
    contiguous = np.ascontiguousarray(array)
    return (
        np.shape(array),
        str(contiguous.dtype),
        hashlib.sha256(contiguous.tobytes()).hexdigest(),
    )


def _model_weight_fingerprint(model: Sequential) -> tuple:
    """Fingerprint of a model's prediction-affecting state.

    Covers the model's layer structure (type sequence and input shape),
    every layer's trainable parameters (the base ``Layer.parameters`` API,
    empty for stateless layers), and BatchNorm running statistics, so
    retraining a cached model in place -- including mutations that touch
    only normalisation state -- changes the fingerprint, while two models
    with identical structure and parameters (e.g. copies unpickled in sweep
    workers) share one.
    """
    parts: list = [
        model.input_shape,
        tuple(type(layer).__name__ for layer in model.layers),
    ]
    for index, layer in enumerate(model.layers):
        for name, param in layer.parameters().items():
            parts.append((index, name, _array_fingerprint(param)))
        if isinstance(layer, BatchNorm):
            parts.append((index, "running_mean", _array_fingerprint(layer.running_mean)))
            parts.append((index, "running_var", _array_fingerprint(layer.running_var)))
    return tuple(parts)


class _IdealAccuracyCache:
    """Content-keyed LRU cache of drift-independent ideal accuracies.

    Keys are content fingerprints of the model's prediction-affecting state
    (:func:`_model_weight_fingerprint`) and of the dataset arrays
    (:func:`_array_fingerprint`), plus the batch size.  Keying by content
    rather than object identity means logically-equal datasets and model
    copies -- ``test_x.copy()``, a model unpickled into a sweep worker, a
    rebuilt-and-identically-trained model -- all hit the same entry, and
    in-place mutation (retraining, renormalising a buffer, relabelling)
    naturally misses because the fingerprint changes.  No references to the
    keyed objects are retained, so the cache never extends dataset or model
    lifetimes.  It is small and bounded, matching its purpose: reusing the
    noiseless baseline across the points of a sweep.
    """

    def __init__(self, maxsize: int = 8) -> None:
        self._maxsize = maxsize
        self._entries: OrderedDict[tuple, float] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, model: Sequential, inputs, labels, batch_size: int) -> float:
        key = (
            _model_weight_fingerprint(model),
            _array_fingerprint(inputs),
            _array_fingerprint(labels),
            int(batch_size),
        )
        accuracy = self._entries.get(key)
        if accuracy is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return accuracy
        self.misses += 1
        accuracy = float(model.evaluate(inputs, labels, batch_size=batch_size))
        self._entries[key] = accuracy
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
        return accuracy

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


_IDEAL_ACCURACY_CACHE = _IdealAccuracyCache()


def ideal_model_accuracy(
    model: Sequential, inputs: np.ndarray, labels: np.ndarray, batch_size: int = 64
) -> float:
    """Noiseless accuracy of ``model``, cached across repeated evaluations."""
    return _IDEAL_ACCURACY_CACHE.get(model, inputs, labels, batch_size)


def clear_ideal_accuracy_cache() -> None:
    """Drop all cached ideal-accuracy baselines (e.g. after retraining)."""
    _IDEAL_ACCURACY_CACHE.clear()


def accuracy_vs_residual_drift(
    model: Sequential,
    inputs: np.ndarray,
    labels: np.ndarray,
    drifts_nm,
    resolution_bits: int = 16,
    seed: int = 0,
    member_chunk: int | None = None,
    precision=None,
) -> list[PhotonicInferenceResult]:
    """Sweep the uncompensated drift and measure inference accuracy.

    This is the accuracy-side ablation of the paper's tuning contribution:
    small residual drifts (what the hybrid TED circuit achieves) leave
    accuracy at its quantization-limited value, while letting the full
    FPV drift go uncompensated destroys it.

    All drift points evaluate as one ensemble (one member per drift value,
    each replaying the same ``seed``) through
    :class:`EnsembleInferenceEngine`, so the dataset's im2col patch matrices
    and the shared prefix of every forward pass are computed once per batch
    rather than once per drift point; per-point records are elementwise
    identical to evaluating each drift point alone.  The drift-independent
    ideal accuracy is likewise computed once and shared across all points.
    """
    ideal = ideal_model_accuracy(model, inputs, labels, batch_size=64)
    stacks = [default_noise_stack(resolution_bits, float(drift)) for drift in drifts_nm]
    records = evaluate_ensemble(
        model,
        inputs,
        labels,
        stacks,
        seeds=[seed] * len(stacks),
        activation_bits=resolution_bits,
        batch_size=64,
        precision=precision,
        member_chunk=member_chunk,
        ideal_accuracy=ideal,
    )
    return list(records)


# ---------------------------------------------------------------------- #
# Monte-Carlo accuracy over noise-stack seeds
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class MonteCarloAccuracy:
    """Accuracy statistics of repeated seeded trials of one noise stack."""

    model: str
    noise: str
    seeds: tuple[int, ...]
    records: tuple[PhotonicInferenceResult, ...]
    ideal_accuracy: float

    @property
    def accuracies(self) -> tuple[float, ...]:
        """Per-seed accuracies, in seed order."""
        return tuple(record.accuracy for record in self.records)

    @property
    def mean_accuracy(self) -> float:
        """Mean accuracy across the Monte-Carlo trials."""
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self) -> float:
        """Population standard deviation of accuracy across the trials."""
        return float(np.std(self.accuracies))

    @property
    def mean_accuracy_loss(self) -> float:
        """Mean accuracy lost relative to ideal (float, noiseless) inference."""
        return self.ideal_accuracy - self.mean_accuracy


def monte_carlo_accuracy(
    model: Sequential,
    inputs: np.ndarray,
    labels: np.ndarray,
    noise_stack: NoiseStack,
    seeds=8,
    activation_bits: int | None = None,
    batch_size: int = 64,
    executor: SweepExecutor | None = None,
    ideal_accuracy: float | None = None,
    member_chunk: int | None = None,
    precision=None,
) -> MonteCarloAccuracy:
    """Accuracy distribution of a noise stack over seeded Monte-Carlo trials.

    Each seed drives one independent trial: the member's generator is seeded
    with it, so stochastic channels (FPV wafer draws, drift error signs)
    sample a fresh but reproducible realisation, while deterministic
    channels (quantization, crosstalk mixing) repeat exactly.

    All trials evaluate together through :class:`EnsembleInferenceEngine`
    -- one fused forward pass per input batch with the weight realisations
    stacked along the ensemble axis -- instead of one pass per seed; at
    float64 the per-seed records are elementwise identical to evaluating
    each seed alone.  With an ``executor`` the seed list splits into one
    contiguous chunk per pool worker, each itself ensemble-vectorized; the
    pool remains the right tool for fanning out across *datasets or models*,
    while within one dataset the ensemble axis does the heavy lifting.

    Parameters
    ----------
    model, inputs, labels:
        Trained model and labelled evaluation set.
    noise_stack:
        The noise-channel stack each trial applies to the weights.
    seeds:
        Either the number of trials (seeds ``0..n-1``) or an iterable of
        explicit seeds.
    activation_bits:
        Inter-layer activation resolution (``None`` keeps activations in
        float; weight quantization belongs in the stack).
    batch_size:
        Forward-pass batch size.
    executor:
        :class:`~repro.sim.sweep.SweepExecutor` whose pool the seed chunks
        fan out over (``None`` keeps everything in-process on the ensemble
        path).
    ideal_accuracy:
        Precomputed noiseless baseline shared across the trials (mirrors
        :meth:`EnsembleInferenceEngine.evaluate`); computed once via
        :func:`ideal_model_accuracy` when omitted.
    member_chunk:
        Maximum seeds perturbed and evaluated together per process
        (bounds peak memory; defaults to :data:`DEFAULT_MEMBER_CHUNK`).
    precision:
        :class:`~repro.nn.backend.PrecisionPolicy` (or name) selecting the
        compute precision, in worker processes too.

    Returns
    -------
    MonteCarloAccuracy
        Per-seed records plus mean/std accuracy; deterministic for a fixed
        seed list regardless of ``executor`` or ``member_chunk``.
    """
    seed_list = _seed_tuple(seeds, generators=False)
    inputs = check_input_rows(inputs)
    ideal = (
        float(ideal_accuracy)
        if ideal_accuracy is not None
        else ideal_model_accuracy(model, inputs, labels, batch_size=batch_size)
    )
    evaluate = partial(
        evaluate_ensemble,
        model,
        inputs,
        labels,
        noise_stack,
        activation_bits=activation_bits,
        batch_size=batch_size,
        precision=resolve_precision(precision),
        member_chunk=member_chunk,
        ideal_accuracy=ideal,
    )
    if executor is not None:
        chunks = plan_chunks(len(seed_list), n_chunks=executor.n_workers)
        sweep = run_sweep(
            evaluate,
            [{"seeds": tuple(seed_list[i] for i in chunk)} for chunk in chunks],
            executor=executor,
        )
        records = tuple(record for chunk_records in sweep.values for record in chunk_records)
    else:
        records = evaluate(seeds=seed_list)
    return MonteCarloAccuracy(
        model=model.name,
        noise=noise_stack.describe(),
        seeds=seed_list,
        records=records,
        ideal_accuracy=ideal,
    )
