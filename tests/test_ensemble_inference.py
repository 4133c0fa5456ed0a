"""Tests for ensemble-vectorized inference (PR 3).

The contract under test: evaluating E perturbed realisations of a model
through the fused ensemble path -- stacked weight perturbation
(``ensemble_apply``/``apply_stacked``), stacked layer forwards, chunking over
members and batches -- is **elementwise identical** at float64 to running E
independent layer-by-layer forward passes (``sequential_logits``), for every
built-in noise channel and for composed stacks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from noise_channel_cases import CHANNELS as NAMED_CHANNELS
from noise_channel_cases import JitterChannel, sequential_logits

from repro.nn.layers import AvgPool2D, BatchNorm, Conv2D, Dense, Dropout, Flatten, MaxPool2D, ReLU
from repro.nn.model import Sequential
from repro.nn.quantization import quantize_array, quantize_array_stack
from repro.sim import (
    EnsembleInferenceEngine,
    FPVDriftChannel,
    InterChannelCrosstalkChannel,
    NoiseStack,
    QuantizationChannel,
    ThermalCrosstalkChannel,
    default_noise_stack,
    evaluate_ensemble,
    monte_carlo_accuracy,
)
from repro.sim.noise import ensemble_apply
from repro.sim.sweep import SweepExecutor, plan_chunks, run_sweep

#: Every built-in channel at a non-trivial operating point, plus stacks.
CHANNELS = list(NAMED_CHANNELS.values())


def _member_ids(value):
    return value.describe() if hasattr(value, "describe") else repr(value)


def _shared_row(channel, weights, seeds):
    """``ensemble_apply`` on one shared row, broadcast to ``(E, *shape)``."""
    rngs = [np.random.default_rng(s) for s in seeds]
    out = ensemble_apply(channel, np.asarray(weights, dtype=float)[None], rngs)
    assert out.shape[0] in (1, len(rngs))
    return np.broadcast_to(out, (len(rngs), *np.shape(weights)))


# ---------------------------------------------------------------------- #
# Channel-level identity
# ---------------------------------------------------------------------- #
class TestApplyManyIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        data_seed=st.integers(min_value=0, max_value=2**16),
        n_members=st.integers(min_value=1, max_value=7),
        seed0=st.integers(min_value=0, max_value=2**16),
        channel_index=st.integers(min_value=0, max_value=len(CHANNELS) - 1),
        shape=st.sampled_from([(9,), (7, 5), (4, 3, 3, 3)]),
    )
    def test_apply_many_matches_sequential_loop(
        self, data_seed, n_members, seed0, channel_index, shape
    ):
        """ensemble_apply on a shared row == E sequential apply calls, elementwise."""
        channel = CHANNELS[channel_index]
        weights = np.random.default_rng(data_seed).normal(size=shape)
        seeds = [seed0 + member for member in range(n_members)]
        fused = _shared_row(channel, weights, seeds)
        reference = np.stack(
            [
                np.asarray(channel.apply(weights, np.random.default_rng(s)), dtype=float)
                for s in seeds
            ]
        )
        np.testing.assert_array_equal(fused, reference)

    @pytest.mark.parametrize("channel", CHANNELS, ids=_member_ids)
    def test_apply_stacked_on_diverged_members(self, channel, rng):
        """apply_stacked treats each member independently (own dynamic range)."""
        members = np.stack(
            [rng.normal(size=(6, 5)), np.zeros((6, 5)), 3.0 * rng.normal(size=(6, 5))]
        )
        rngs = [np.random.default_rng(seed) for seed in (11, 12, 13)]
        fused = ensemble_apply(channel, members, rngs)
        reference = np.stack(
            [
                np.asarray(
                    channel.apply(members[e], np.random.default_rng(11 + e)), dtype=float
                )
                for e in range(3)
            ]
        )
        np.testing.assert_array_equal(fused, reference)

    @pytest.mark.parametrize("channel", CHANNELS, ids=_member_ids)
    def test_apply_many_zero_tensor_is_identity(self, channel):
        fused = _shared_row(channel, np.zeros((4, 3)), range(3))
        np.testing.assert_array_equal(fused, np.zeros((3, 4, 3)))

    def test_third_party_channel_falls_back_to_loop(self, rng):
        """Channels without apply_stacked compose via the per-member loop."""
        stack = NoiseStack([QuantizationChannel(bits=8), JitterChannel()])
        weights = rng.normal(size=(5, 4))
        fused = _shared_row(stack, weights, range(4))
        reference = np.stack(
            [stack.apply(weights, np.random.default_rng(s)) for s in range(4)]
        )
        np.testing.assert_array_equal(fused, reference)

    def test_apply_many_requires_generators(self):
        with pytest.raises(ValueError, match="at least one generator"):
            ensemble_apply(QuantizationChannel(bits=8), np.ones((1, 2, 2)), [])


class TestSharedPrefix:
    """A shared row runs a stack's deterministic prefix once per tensor."""

    def test_prefix_ahead_of_first_stochastic_channel_sees_one_row(self, monkeypatch, rng):
        seen = []
        for cls in (
            QuantizationChannel,
            InterChannelCrosstalkChannel,
            FPVDriftChannel,
            ThermalCrosstalkChannel,
        ):

            def recording(self, stacked, rngs, _original=cls.apply_stacked, _name=cls.__name__):
                seen.append((_name, np.shape(stacked)[0]))
                return _original(self, stacked, rngs)

            monkeypatch.setattr(cls, "apply_stacked", recording)
        stack = NoiseStack(
            [
                QuantizationChannel(bits=8),
                InterChannelCrosstalkChannel(calibration_rejection_db=25.0),
                FPVDriftChannel(),
                ThermalCrosstalkChannel(coupling_scale=0.03),
            ]
        )
        weights = rng.normal(size=(6, 5))
        rngs = [np.random.default_rng(s) for s in range(16)]
        out = ensemble_apply(stack, weights[None], rngs)
        assert seen == [
            ("QuantizationChannel", 1),
            ("InterChannelCrosstalkChannel", 1),
            ("FPVDriftChannel", 1),
            ("ThermalCrosstalkChannel", 16),
        ]
        assert out.shape == (16, 6, 5)

    def test_deterministic_stack_consumes_no_randomness(self, rng):
        stack = NoiseStack(
            [
                QuantizationChannel(bits=8),
                InterChannelCrosstalkChannel(calibration_rejection_db=25.0),
                ThermalCrosstalkChannel(coupling_scale=0.03),
            ]
        )
        weights = rng.normal(size=(6, 5))
        rngs = [np.random.default_rng(s) for s in range(16)]
        out = ensemble_apply(stack, weights[None], rngs)
        for seed, generator in enumerate(rngs):
            assert generator.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        assert out.shape == (1, 6, 5)

    def test_engine_expands_a_shared_row_into_writable_member_rows(self):
        """The engine copies a kept shared row out to E rows, and only then."""
        model = Sequential([Dense(5, 6, rng=np.random.default_rng(0))], input_shape=(5,))
        deterministic = NoiseStack([QuantizationChannel(bits=8)])
        out = EnsembleInferenceEngine(deterministic, seeds=16).perturbed_weight_stacks(model)[0]
        assert out.shape == (16, *model.layers[0].weight.shape) and out.flags.writeable
        assert not np.may_share_memory(out, model.layers[0].weight)
        np.testing.assert_array_equal(out, np.broadcast_to(out[0], out.shape))
        out[0] = 0.0
        assert not np.array_equal(out[0], out[1])

    def test_engine_keeps_fresh_member_rows_without_a_copy(self, monkeypatch):
        produced = []
        original = NoiseStack.apply_stacked

        def recording(self, stacked, rngs):
            produced.append(original(self, stacked, rngs))
            return produced[-1]

        monkeypatch.setattr(NoiseStack, "apply_stacked", recording)
        model = Sequential([Dense(5, 6, rng=np.random.default_rng(0))], input_shape=(5,))
        stack = NoiseStack([QuantizationChannel(bits=8), FPVDriftChannel()])
        out = EnsembleInferenceEngine(stack, seeds=4).perturbed_weight_stacks(model)[0]
        assert out is produced[0] and out.shape[0] == 4


class TestQuantizeArrayStack:
    @settings(max_examples=15, deadline=None)
    @given(
        data_seed=st.integers(min_value=0, max_value=2**16),
        bits=st.sampled_from([1, 2, 6, 16]),
        n_members=st.integers(min_value=1, max_value=5),
    )
    def test_matches_per_member_quantize_array(self, data_seed, bits, n_members):
        values = np.random.default_rng(data_seed).normal(size=(n_members, 4, 6))
        values[0] *= 10.0  # distinct per-member dynamic ranges
        fused = quantize_array_stack(values, bits)
        reference = np.stack([quantize_array(values[e], bits) for e in range(n_members)])
        np.testing.assert_array_equal(fused, reference)

    def test_strided_input_and_zero_members(self, rng):
        values = np.transpose(rng.normal(size=(3, 5, 4)))  # non-contiguous
        fused = quantize_array_stack(values, 8)
        reference = np.stack([quantize_array(values[e], 8) for e in range(4)])
        np.testing.assert_array_equal(fused, reference)
        zeros = np.zeros((2, 3, 3))
        np.testing.assert_array_equal(quantize_array_stack(zeros, 8), zeros)

    def test_preserves_float32(self, rng):
        values = rng.normal(size=(2, 8)).astype(np.float32)
        assert quantize_array_stack(values, 8).dtype == np.float32


# ---------------------------------------------------------------------- #
# Engine-level identity
# ---------------------------------------------------------------------- #
def _sequential_logits(model, inputs, stack, seeds, activation_bits, batch_size=64):
    return np.stack(
        [
            sequential_logits(model, inputs, stack, seed, activation_bits, batch_size)
            for seed in seeds
        ]
    )


def _sequential_accuracy(model, inputs, labels, stack, seed, activation_bits):
    logits = sequential_logits(model, inputs, stack, seed, activation_bits)
    return float(np.mean(np.argmax(logits, axis=1) == labels))


@pytest.fixture(scope="module")
def fpv_stack():
    return NoiseStack([QuantizationChannel(bits=8), FPVDriftChannel()])


class TestEnsembleEngineIdentity:
    def test_logits_match_per_seed_engines(self, trained_compact_lenet, fpv_stack):
        model, test_x, _ = trained_compact_lenet
        seeds = list(range(5))
        engine = EnsembleInferenceEngine(fpv_stack, seeds, activation_bits=8)
        fused = engine.predict(model, test_x)
        reference = _sequential_logits(model, test_x, fpv_stack, seeds, 8)
        np.testing.assert_array_equal(fused, reference)

    def test_monte_carlo_matches_per_seed_loop(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        result = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=6, activation_bits=8
        )
        for seed, record in zip(result.seeds, result.records):
            assert record.accuracy == _sequential_accuracy(
                model, test_x, test_y, fpv_stack, seed, 8
            )
            assert record.noise == fpv_stack.describe()

    def test_drift_sweep_matches_per_point_engines(self, trained_compact_lenet):
        from repro.sim import accuracy_vs_residual_drift

        model, test_x, test_y = trained_compact_lenet
        drifts = (0.0, 0.1, 0.5, 1.5)
        records = accuracy_vs_residual_drift(
            model, test_x, test_y, drifts, resolution_bits=8, seed=3
        )
        for drift, record in zip(drifts, records):
            assert record.accuracy == _sequential_accuracy(
                model, test_x, test_y, default_noise_stack(8, drift), 3, 8
            )
            assert record.residual_drift_nm == drift

    def test_heterogeneous_activation_bits_match_sequential(self, trained_compact_lenet):
        """The fig5 shape: one member per resolution, per-member activations."""
        model, test_x, test_y = trained_compact_lenet
        bits_sweep = (2, 4, 8, 16)
        records = evaluate_ensemble(
            model,
            test_x,
            test_y,
            [NoiseStack([QuantizationChannel(bits=b)]) for b in bits_sweep],
            seeds=[0] * len(bits_sweep),
            activation_bits=list(bits_sweep),
        )
        for bits, record in zip(bits_sweep, records):
            assert record.accuracy == _sequential_accuracy(
                model, test_x, test_y, NoiseStack([QuantizationChannel(bits=bits)]), 0, bits
            )
            assert record.resolution_bits == bits

    def test_covers_all_layer_kinds(self, rng):
        """BatchNorm/pool/dropout/flatten layers run identically in ensembles."""
        model = Sequential(
            [
                Conv2D(1, 3, kernel_size=3, rng=rng),
                BatchNorm(3),
                ReLU(),
                AvgPool2D(pool_size=2),
                Flatten(),
                Dropout(rate=0.3),
                Dense(3 * 5 * 5, 7, rng=rng),
            ],
            input_shape=(1, 12, 12),
            name="mixed",
        )
        inputs = rng.normal(size=(9, 1, 12, 12))
        model.train()
        model.forward(inputs)  # populate BatchNorm running statistics
        stack = default_noise_stack(resolution_bits=6, residual_drift_nm=0.4)
        seeds = [3, 5, 8]
        engine = EnsembleInferenceEngine(stack, seeds, activation_bits=6)
        fused = engine.predict(model, inputs, batch_size=4)
        reference = _sequential_logits(model, inputs, stack, seeds, 6, batch_size=4)
        np.testing.assert_array_equal(fused, reference)

    @pytest.mark.parametrize(
        ("pool", "height", "pool_ndim"),
        [(MaxPool2D(2), 10, 5), (MaxPool2D(2), 9, 4), (MaxPool2D(3, stride=2), 10, 4)],
    )
    def test_only_tiling_pools_run_on_the_member_stack(self, monkeypatch, rng, pool, height, pool_ndim):
        """Tiling windows pool the whole (E, N, ...) stack; others pool per member."""
        out_h, out_w = ((size - 2 - pool.pool_size) // pool.stride + 1 for size in (height, 10))
        model = Sequential(
            [Conv2D(1, 2, kernel_size=3, rng=rng), ReLU(), pool, Flatten(), Dense(2 * out_h * out_w, 5, rng=rng)],
            input_shape=(1, height, 10),
            name="pooled",
        )
        inputs = rng.normal(size=(6, 1, height, 10))
        stack = NoiseStack([QuantizationChannel(bits=8), FPVDriftChannel()])
        seen = []
        forward = pool.forward
        monkeypatch.setattr(pool, "forward", lambda x: seen.append(x.ndim) or forward(x))
        fused = EnsembleInferenceEngine(stack, [1, 2, 3], activation_bits=8).predict(model, inputs)
        assert set(seen) == {pool_ndim}
        monkeypatch.undo()
        reference = _sequential_logits(model, inputs, stack, [1, 2, 3], 8)
        np.testing.assert_array_equal(fused, reference)


class TestGeneratorSeeds:
    """``seeds`` members are integers (replayed) or Generators (continued)."""

    def test_int_member_replays_its_stream(self, trained_compact_lenet, fpv_stack):
        model, test_x, _ = trained_compact_lenet
        engine = EnsembleInferenceEngine(fpv_stack, [7], activation_bits=8)
        np.testing.assert_array_equal(
            engine.predict(model, test_x[:16]), engine.predict(model, test_x[:16])
        )

    def test_generator_member_continues_its_stream(self, trained_compact_lenet, fpv_stack):
        model, test_x, _ = trained_compact_lenet
        engine = EnsembleInferenceEngine(
            fpv_stack, [np.random.default_rng(7)], activation_bits=8
        )
        first = engine.predict(model, test_x[:16])
        second = engine.predict(model, test_x[:16])
        reference_rng = np.random.default_rng(7)
        np.testing.assert_array_equal(
            first[0], sequential_logits(model, test_x[:16], fpv_stack, reference_rng, 8)
        )
        np.testing.assert_array_equal(
            second[0], sequential_logits(model, test_x[:16], fpv_stack, reference_rng, 8)
        )
        assert not np.array_equal(first, second)

    def test_mixed_int_and_generator_seeds(self, trained_compact_lenet, fpv_stack):
        model, test_x, _ = trained_compact_lenet
        engine = EnsembleInferenceEngine(
            fpv_stack, [3, np.random.default_rng(4), np.int64(5)], activation_bits=8
        )
        assert engine.seeds[0] == 3 and engine.seeds[2] == 5
        reference = _sequential_logits(model, test_x[:16], fpv_stack, [3, 4, 5], 8)
        np.testing.assert_array_equal(engine.predict(model, test_x[:16]), reference)

    def test_float_seeds_raise(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        with pytest.raises(TypeError):
            EnsembleInferenceEngine(fpv_stack, seeds=[1.7])
        with pytest.raises(TypeError):
            EnsembleInferenceEngine(fpv_stack, seeds=2.0)
        with pytest.raises(TypeError):
            monte_carlo_accuracy(model, test_x, test_y, fpv_stack, seeds=[1.7])
        with pytest.raises(TypeError):
            monte_carlo_accuracy(
                model, test_x, test_y, fpv_stack, seeds=[np.random.default_rng(0)]
            )
        assert EnsembleInferenceEngine(fpv_stack, seeds=np.int64(3)).seeds == (0, 1, 2)


class TestChunkingAndDtype:
    @pytest.mark.parametrize("member_chunk", [1, 2, 4])
    def test_member_chunking_is_exact(
        self, trained_compact_lenet, fpv_stack, member_chunk
    ):
        """Every member chunk runs over every input batch, stitched exactly."""
        model, test_x, _ = trained_compact_lenet
        inputs, seeds = test_x[:40], [4, 5, 6, 7, 8]
        engine = EnsembleInferenceEngine(
            fpv_stack, seeds, activation_bits=8, member_chunk=member_chunk
        )
        reference = _sequential_logits(model, inputs, fpv_stack, seeds, 8, batch_size=16)
        np.testing.assert_array_equal(engine.predict(model, inputs, batch_size=16), reference)

    def test_resolution_change_mid_ensemble_matches_sequential(
        self, trained_compact_lenet, fpv_stack
    ):
        model, test_x, _ = trained_compact_lenet
        inputs, bits = test_x[:40], [8, 8, 8, 4, 4, 16]
        engine = EnsembleInferenceEngine(
            fpv_stack, range(6), activation_bits=bits, member_chunk=2
        )
        reference = np.stack(
            [
                sequential_logits(model, inputs, fpv_stack, seed, member_bits, batch_size=16)
                for seed, member_bits in enumerate(bits)
            ]
        )
        np.testing.assert_array_equal(engine.predict(model, inputs, batch_size=16), reference)

    def test_per_member_stacks_match_sequential(self, trained_compact_lenet):
        model, test_x, _ = trained_compact_lenet
        inputs = test_x[:40]
        stacks = [default_noise_stack(8, drift) for drift in (0.0, 0.1, 0.3, 0.5, 1.0)]
        seeds = [3, 3, 4, 5, 3]
        engine = EnsembleInferenceEngine(stacks, seeds, activation_bits=8, member_chunk=2)
        reference = np.stack(
            [
                sequential_logits(model, inputs, stack, seed, 8, batch_size=16)
                for stack, seed in zip(stacks, seeds)
            ]
        )
        np.testing.assert_array_equal(engine.predict(model, inputs, batch_size=16), reference)

    def test_generator_members_continue_across_chunked_predicts(
        self, trained_compact_lenet, fpv_stack
    ):
        model, test_x, _ = trained_compact_lenet
        inputs = test_x[:40]
        engine = EnsembleInferenceEngine(
            fpv_stack,
            [np.random.default_rng(seed) for seed in (7, 8, 9)],
            activation_bits=8,
            member_chunk=2,
        )
        references = [np.random.default_rng(seed) for seed in (7, 8, 9)]
        for _ in range(2):
            expected = np.stack(
                [
                    sequential_logits(model, inputs, fpv_stack, rng, 8, batch_size=16)
                    for rng in references
                ]
            )
            np.testing.assert_array_equal(
                engine.predict(model, inputs, batch_size=16), expected
            )

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-member"])
    def test_member_range_stacks_are_rows_of_the_full_call(
        self, trained_compact_lenet, fpv_stack, shared
    ):
        model, _, _ = trained_compact_lenet
        stacks = fpv_stack if shared else [default_noise_stack(8, 0.1 * e) for e in range(6)]
        engine = EnsembleInferenceEngine(stacks, range(6))
        full = engine.perturbed_weight_stacks(model)
        assert full.keys() == engine.perturbed_weight_stacks(model, range(6)).keys()
        for a, b in [(0, 2), (2, 5), (5, 6)]:
            part = engine.perturbed_weight_stacks(model, range(a, b))
            assert part.keys() == full.keys()
            for index, stacked in part.items():
                np.testing.assert_array_equal(stacked, full[index][a:b])

    def test_batch_chunking_is_exact(self, trained_compact_lenet, fpv_stack):
        """Splitting the batch axis must not change any member's logits.

        (The *activation quantization ranges* are per forward batch, so the
        comparison fixes batch_size and only varies member chunking; here we
        check that the engine's own batching loop stitches batches exactly.)
        """
        model, test_x, _ = trained_compact_lenet
        engine = EnsembleInferenceEngine(fpv_stack, [0, 1, 2], activation_bits=8)
        reference = _sequential_logits(
            model, test_x, fpv_stack, [0, 1, 2], 8, batch_size=17
        )
        np.testing.assert_array_equal(
            engine.predict(model, test_x, batch_size=17), reference
        )

    def test_float32_mode_is_close(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        exact = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=4, activation_bits=None
        )
        lean = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=4, activation_bits=None,
            precision="float32",
        )
        np.testing.assert_allclose(lean.accuracies, exact.accuracies, atol=0.05)
        engine = EnsembleInferenceEngine(
            fpv_stack, [0, 1], activation_bits=None, precision="float32"
        )
        logits = engine.predict(model, test_x)
        assert logits.dtype == np.float32
        reference = EnsembleInferenceEngine(
            fpv_stack, [0, 1], activation_bits=None
        ).predict(model, test_x)
        np.testing.assert_allclose(logits, reference, rtol=1e-3, atol=1e-3)

    def test_array_fingerprint_has_no_cheap_collisions(self):
        """Regression: sum/ramp statistics aliased distinct label vectors."""
        from repro.sim.photonic_inference import _array_fingerprint

        first = np.array([1, 0, 1])
        second = np.array([0, 2, 0])  # same shape, sum, |sum|, and ramp-dot
        assert _array_fingerprint(first) != _array_fingerprint(second)

    def test_ensemble_memory_is_flat_in_members(self, trained_compact_lenet):
        """Peak memory is set by one member chunk, not by the ensemble size.

        Each chunk's weights are perturbed just before its forward passes, so
        a 4x larger ensemble may not raise the traced peak by 4x (the
        perturb-everything-first loop order read about 4x here).
        """
        import tracemalloc

        from repro.sim.photonic_inference import DEFAULT_MEMBER_CHUNK

        model, test_x, test_y = trained_compact_lenet
        inputs, labels = test_x[:32], test_y[:32]
        stack = NoiseStack(
            [
                QuantizationChannel(bits=8),
                FPVDriftChannel(residual_fraction=0.01),
                ThermalCrosstalkChannel(coupling_scale=0.01),
                InterChannelCrosstalkChannel(calibration_rejection_db=25.0),
            ]
        )
        engine = EnsembleInferenceEngine(stack, seeds=3 * DEFAULT_MEMBER_CHUNK)
        chunks = engine._member_chunks()
        assert max(len(chunk) for chunk in chunks) == DEFAULT_MEMBER_CHUNK
        assert [i for chunk in chunks for i in chunk] == list(range(engine.n_members))

        def traced_peak(n_members):
            tracemalloc.start()
            try:
                monte_carlo_accuracy(
                    model, inputs, labels, stack, seeds=n_members,
                    activation_bits=8, ideal_accuracy=0.5,
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = traced_peak(4 * DEFAULT_MEMBER_CHUNK)
        large = traced_peak(16 * DEFAULT_MEMBER_CHUNK)
        assert large / small < 1.25, (small, large)

    def test_float32_bias_does_not_upcast(self, rng):
        """Biased layer ensembles stay in float32 (the mode's memory story)."""
        dense = Dense(6, 4, rng=rng)
        out = dense.forward_ensemble(
            rng.normal(size=(3, 6)).astype(np.float32),
            rng.normal(size=(2, 6, 4)).astype(np.float32),
        )
        assert out.dtype == np.float32
        conv = Conv2D(1, 2, kernel_size=3, rng=rng)
        out = conv.forward_ensemble(
            rng.normal(size=(3, 1, 8, 8)).astype(np.float32),
            rng.normal(size=(2, 2, 1, 3, 3)).astype(np.float32),
        )
        assert out.dtype == np.float32

    def test_parallel_seed_chunks_match_serial(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        serial = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=5, activation_bits=8
        )
        with SweepExecutor(2) as executor:
            parallel = monte_carlo_accuracy(
                model, test_x, test_y, fpv_stack, seeds=5, activation_bits=8,
                executor=executor,
            )
        assert serial.accuracies == parallel.accuracies

    def test_float32_policy_reaches_pool_workers(self, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        kwargs = dict(seeds=5, activation_bits=8, precision="float32")
        serial = monte_carlo_accuracy(model, test_x, test_y, fpv_stack, **kwargs)
        with SweepExecutor(2) as executor:
            parallel = monte_carlo_accuracy(
                model, test_x, test_y, fpv_stack, executor=executor, **kwargs
            )
        exact = monte_carlo_accuracy(
            model, test_x, test_y, fpv_stack, seeds=5, activation_bits=8
        )
        assert parallel.records == serial.records
        # The workers really ran float32: the accuracies move off float64's.
        assert parallel.accuracies != exact.accuracies


class TestEngineValidation:
    def test_stack_and_seed_counts_must_match(self, fpv_stack):
        with pytest.raises(ValueError):
            EnsembleInferenceEngine([fpv_stack, fpv_stack], seeds=[1, 2, 3])

    def test_mixed_stacks_and_channels_rejected(self, fpv_stack):
        with pytest.raises(TypeError):
            EnsembleInferenceEngine([fpv_stack, QuantizationChannel(8)], seeds=2)

    def test_channel_iterable_builds_shared_stack(self, trained_compact_lenet):
        model, test_x, _ = trained_compact_lenet
        engine = EnsembleInferenceEngine(
            [QuantizationChannel(bits=8)], seeds=2, activation_bits=8
        )
        assert engine.n_members == 2
        assert engine.noise_stacks[0] is engine.noise_stacks[1]

    def test_rejects_bad_dtype_and_empty_seeds(self, fpv_stack):
        with pytest.raises(ValueError):
            EnsembleInferenceEngine(fpv_stack, seeds=[])
        with pytest.raises(ValueError):
            EnsembleInferenceEngine(fpv_stack, seeds=2, precision=np.int32)

    def test_empty_inputs_raise_before_perturbing(self, monkeypatch, trained_compact_lenet, fpv_stack):
        model, test_x, test_y = trained_compact_lenet
        empty_x, empty_y = test_x[:0], test_y[:0]
        perturbed = []
        monkeypatch.setattr(
            EnsembleInferenceEngine,
            "perturbed_weight_stacks",
            lambda self, model, members=None: perturbed.append(model) or {},
        )
        engine = EnsembleInferenceEngine(fpv_stack, seeds=2, activation_bits=8)
        calls = [
            lambda: engine.predict(model, empty_x),
            lambda: evaluate_ensemble(model, empty_x, empty_y, fpv_stack, seeds=2),
            lambda: monte_carlo_accuracy(model, empty_x, empty_y, fpv_stack, seeds=2),
            lambda: monte_carlo_accuracy(
                model, empty_x, empty_y, fpv_stack, seeds=2, ideal_accuracy=0.5
            ),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="inputs is empty"):
                call()
        assert perturbed == []

    def test_sequential_and_ideal_accuracy_reject_empty_inputs(self):
        from repro.nn.zoo import build_model
        from repro.sim import ideal_model_accuracy

        model = build_model(1, compact=True)
        empty_x, empty_y = np.zeros((0, 1, 16, 16)), np.zeros(0, int)
        calls = [
            lambda: model.evaluate(empty_x, empty_y),
            lambda: model.predict(empty_x),
            lambda: ideal_model_accuracy(model, empty_x, empty_y),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="empty"):
                call()

    def test_layer_ensemble_shape_validation(self, rng):
        dense = Dense(4, 3, rng=rng)
        with pytest.raises(ValueError):
            dense.forward_ensemble(rng.normal(size=(2, 4)), rng.normal(size=(5, 3, 3)))
        conv = Conv2D(2, 3, kernel_size=3, rng=rng)
        with pytest.raises(ValueError):
            conv.forward_ensemble(
                rng.normal(size=(1, 2, 8, 8)), rng.normal(size=(4, 3, 9))
            )


# ---------------------------------------------------------------------- #
# Sweep-layer additions
# ---------------------------------------------------------------------- #
class TestPlanChunks:
    def test_n_chunks_balanced_cover(self):
        chunks = plan_chunks(10, n_chunks=3)
        assert [list(chunk) for chunk in chunks] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_chunk_size_cover(self):
        chunks = plan_chunks(7, chunk_size=3)
        assert [list(chunk) for chunk in chunks] == [[0, 1, 2], [3, 4, 5], [6]]

    def test_degenerate_and_invalid(self):
        assert plan_chunks(0, n_chunks=4) == []
        assert [list(c) for c in plan_chunks(2, n_chunks=8)] == [[0], [1]]
        with pytest.raises(ValueError):
            plan_chunks(4, n_chunks=2, chunk_size=2)
        with pytest.raises(ValueError):
            plan_chunks(4)
        with pytest.raises(ValueError):
            plan_chunks(4, chunk_size=0)


def _square(x):
    return x * x


class TestSweepExecutor:
    def test_reused_across_sweeps_and_matches_serial(self):
        points = [{"x": value} for value in range(9)]
        serial = run_sweep(_square, points)
        with SweepExecutor(n_workers=2) as executor:
            first = run_sweep(_square, points, executor=executor)
            second = run_sweep(_square, points, executor=executor)
        assert first.values == serial.values
        assert second.values == serial.values

    def test_single_point_runs_inline(self):
        executor = SweepExecutor(n_workers=2)
        result = run_sweep(_square, [{"x": 3}], executor=executor)
        assert result.values == (9,)
        assert executor._pool is None  # never had to spin up workers
        executor.shutdown()

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepExecutor(n_workers=0)
        with pytest.raises(TypeError):
            SweepExecutor(n_workers=True)
