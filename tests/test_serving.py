"""Tests of the discrete-event serving runtime (:mod:`repro.serve`).

Covers the determinism, batching, and conservation invariants the
subsystem guarantees:

* same seed -> byte-identical event traces (hypothesis);
* the micro-batcher never forms a batch above ``max_batch_size`` and never
  holds a due head while capacity is idle (deadline bound);
* conservation: every arrival is completed, shed, queued, or in flight --
  exactly once -- in both drained and cut-off runs;
* the serving-study sweeps produce identical records serially and through
  a process pool;
* the batching frontier is monotone: larger max-batch raises achieved
  service throughput and p99 latency, and lowers energy per request.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.accelerator import CrossLightAccelerator, PhotonicAccelerator
from repro.experiments import serving_study
from repro.nn.layers import LayerWorkload
from repro.nn.zoo import build_model
from repro.serve import traffic as traffic_module
from repro.serve import (
    BatchPolicy,
    BurstyTraffic,
    EventQueue,
    MicroBatcher,
    PoissonTraffic,
    Request,
    RequestColumns,
    RequestRecord,
    ServingRuntime,
    SimulationClock,
    TraceEvent,
    TraceTraffic,
    requests_from_traffic,
    serve_trace,
)
from repro.sim.noise import (
    FPVDriftChannel,
    NoiseStack,
    QuantizationChannel,
    ResidualDriftChannel,
)
from repro.sim.simulator import simulate_models
from repro.sim.sweep import SweepExecutor
from test_serve_merge_golden import FAULTY


@pytest.fixture(scope="module")
def lenet():
    return build_model(1)


@pytest.fixture(scope="module")
def crosslight():
    return CrossLightAccelerator.from_variant("cross_opt_ted")


@pytest.fixture(scope="module")
def lenet_workloads(lenet):
    return lenet.workloads()


# --------------------------------------------------------------------------- #
# Event queue and clock
# --------------------------------------------------------------------------- #
class TestEventCore:
    def test_pop_orders_by_time_then_priority_then_seq(self):
        queue = EventQueue()
        queue.push(2.0, 0, "late")
        queue.push(1.0, 2, "arrival")
        queue.push(1.0, 0, "completion")
        queue.push(1.0, 2, "arrival-2")
        order = [queue.pop()[3] for _ in range(len(queue))]
        assert order == ["completion", "arrival", "arrival-2", "late"]

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, 0, "x")

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_records_are_slotted_and_frozen(self):
        request = Request(request_id=3, model="m", arrival_s=0.5, input_index=1)
        record = RequestRecord(
            request_id=3, model="m", arrival_s=0.5, dispatch_s=0.75,
            completion_s=1.0, batch_id=2, worker_id=1, batch_size=4,
        )
        for value in (request, record):
            assert not hasattr(value, "__dict__")
            with pytest.raises(AttributeError):
                value.request_id = 4

    def test_public_record_constructors_still_validate(self):
        with pytest.raises(ValueError, match="arrival_s"):
            Request(request_id=0, model="m", arrival_s=-1.0)
        with pytest.raises(ValueError, match="input_index"):
            Request(request_id=0, model="m", arrival_s=0.0, input_index=-1)
        with pytest.raises(ValueError, match="ordered"):
            RequestRecord(
                request_id=0, model="m", arrival_s=1.0, dispatch_s=0.5,
                completion_s=2.0, batch_id=0, worker_id=0, batch_size=1,
            )

    def test_clock_never_goes_backwards(self):
        clock = SimulationClock()
        clock.advance_to(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)
        assert clock.now_s == 5.0


# --------------------------------------------------------------------------- #
# Traffic generators
# --------------------------------------------------------------------------- #
def _scalar_poisson_arrivals(rng, rate_rps, start_s, end_s):
    """Reference draw: one exponential gap at a time, the stream order the
    chunked generator must reproduce exactly."""
    times = []
    t = start_s + rng.exponential(1.0 / rate_rps)
    while t < end_s:
        times.append(t)
        t += rng.exponential(1.0 / rate_rps)
    return np.asarray(times)


class TestTraffic:
    @pytest.mark.parametrize(
        "traffic",
        [
            PoissonTraffic(rate_rps=5_000.0, duration_s=0.2),
            BurstyTraffic(
                base_rate_rps=2_000.0,
                burst_rate_rps=20_000.0,
                duration_s=0.2,
                mean_base_dwell_s=0.02,
                mean_burst_dwell_s=0.005,
            ),
        ],
        ids=["poisson", "bursty"],
    )
    def test_seeded_sorted_and_in_window(self, traffic):
        times = traffic.generate(seed=7)
        assert np.array_equal(times, traffic.generate(seed=7))
        assert not np.array_equal(times, traffic.generate(seed=8))
        assert times.size > 50
        assert np.all(np.diff(times) >= 0)
        assert times[0] >= 0 and times[-1] < traffic.duration_s

    @pytest.mark.parametrize("start_s", [0.0, 0.37])
    @pytest.mark.parametrize("seed", range(10))
    def test_chunked_poisson_draws_match_one_gap_at_a_time(self, seed, start_s):
        chunked, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        times = traffic_module._poisson_arrivals(chunked, 20_000.0, start_s, start_s + 0.5)
        expected = _scalar_poisson_arrivals(scalar, 20_000.0, start_s, start_s + 0.5)
        assert times.tobytes() == expected.tobytes()
        assert chunked.bit_generator.state == scalar.bit_generator.state

    def test_bursty_stream_unchanged_by_chunked_draws(self, monkeypatch):
        traffic = BurstyTraffic(
            base_rate_rps=20_000.0, burst_rate_rps=80_000.0, duration_s=0.5,
            mean_base_dwell_s=0.05, mean_burst_dwell_s=0.01,
        )
        times = traffic.generate(seed=3)
        monkeypatch.setattr(traffic_module, "_poisson_arrivals", _scalar_poisson_arrivals)
        assert times.tobytes() == traffic.generate(seed=3).tobytes()

    def test_poisson_rate_is_roughly_honoured(self):
        traffic = PoissonTraffic(rate_rps=10_000.0, duration_s=0.5)
        times = traffic.generate(seed=0)
        assert times.size == pytest.approx(5_000, rel=0.1)

    def test_trace_replay_is_exact_and_seed_free(self):
        trace = TraceTraffic([0.0, 0.5, 0.5, 1.0])
        assert np.array_equal(trace.generate(0), trace.generate(99))
        assert trace.duration_s > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonTraffic(rate_rps=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            BurstyTraffic(5.0, 1.0, 1.0, 0.1, 0.1)  # burst < base
        with pytest.raises(ValueError):
            TraceTraffic([1.0, 0.5])
        with pytest.raises(ValueError):
            TraceTraffic([])


class TestRequestColumns:
    def test_items_are_request_views(self):
        traffic = PoissonTraffic(rate_rps=5_000.0, duration_s=0.01)
        columns = requests_from_traffic(traffic, "m", seed=1, start_id=10, n_inputs=4)
        times = traffic.generate(seed=1)
        expected = [
            Request(10 + i, "m", t, (10 + i) % 4) for i, t in enumerate(times.tolist())
        ]
        assert len(columns) == len(expected) > 10
        assert list(columns) == expected
        assert columns[3] == expected[3] and columns[-1] == expected[-1]
        assert list(columns[2:8:3]) == expected[2:8:3]
        assert RequestColumns.from_requests(expected) == columns

    def test_concatenation_and_append_merge_models_by_name(self):
        first = RequestColumns.from_requests([Request(0, "a", 0.1), Request(1, "b", 0.2)])
        second = [Request(2, "b", 0.3, 5), Request(3, "c", 0.0)]
        joined = first + second
        assert joined.models == ("a", "b", "c")
        assert list(joined) == list(first) + second
        assert list(second + first) == second + list(first)
        first.append(Request(4, "c", 0.4))
        assert [r.model for r in first] == ["a", "b", "c"]
        assert first[2] == Request(4, "c", 0.4)

    def test_columns_validate_like_requests(self):
        def columns(arrival_s, input_index):
            return RequestColumns([0, 1], arrival_s, [0, 0], input_index, ("m",))

        assert list(columns([0.0, 0.5], [-1, 3])) == [Request(0, "m", 0.0), Request(1, "m", 0.5, 3)]
        with pytest.raises(ValueError, match="arrival_s"):
            columns([0.0, -0.5], [-1, -1])
        with pytest.raises(ValueError, match="input_index"):
            columns([0.0, 0.5], [0, -2])


# --------------------------------------------------------------------------- #
# Micro-batcher
# --------------------------------------------------------------------------- #
def _request(i, t, model="m"):
    return Request(request_id=i, model=model, arrival_s=t)


class TestMicroBatcher:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_s=0.0)
        with pytest.raises(ValueError):
            BatchPolicy(max_queue_depth=0)

    def test_full_batch_dispatches_without_deadline(self):
        batcher = MicroBatcher("m", BatchPolicy(max_batch_size=2, max_wait_s=1.0), [0.0, 0.1])
        assert batcher.offer()
        assert not batcher.dispatchable(0.0)
        assert batcher.offer()
        assert batcher.has_full_batch() and batcher.dispatchable(0.1)
        batch, deadline_triggered = batcher.pop_batch(0.1)
        assert batch.tolist() == [0, 1]
        assert not deadline_triggered

    def test_deadline_releases_partial_batch(self):
        batcher = MicroBatcher("m", BatchPolicy(max_batch_size=8, max_wait_s=0.5), [0.0])
        batcher.offer()
        assert batcher.head_deadline_s == 0.5
        assert not batcher.dispatchable(0.49)
        assert batcher.dispatchable(0.5)
        batch, deadline_triggered = batcher.pop_batch(0.5)
        assert len(batch) == 1 and deadline_triggered

    def test_premature_pop_raises(self):
        batcher = MicroBatcher("m", BatchPolicy(max_batch_size=8, max_wait_s=0.5), [0.0])
        batcher.offer()
        with pytest.raises(RuntimeError):
            batcher.pop_batch(0.1)
        with pytest.raises(IndexError):
            MicroBatcher("m", BatchPolicy(), []).pop_batch(0.0)

    def test_backpressure_sheds_beyond_depth(self):
        batcher = MicroBatcher(
            "m", BatchPolicy(max_batch_size=4, max_wait_s=1.0, max_queue_depth=2),
            [0.0, 0.0, 0.0],
        )
        assert batcher.offer()
        assert batcher.offer()
        assert not batcher.offer()
        assert batcher.n_shed == 1 and batcher.depth == 2

    def test_wrong_model_rejected(self):
        # Rows 0 and 2 are this model's; row 1 belongs to another model.
        batcher = MicroBatcher("m", BatchPolicy(), [0.0, 0.1, 0.2], rows=np.array([0, 2]))
        batcher.offer(2)
        with pytest.raises(ValueError):
            batcher.requeue_front(1)
        with pytest.raises(IndexError):
            batcher.offer()

    def test_requeue_needs_an_offered_row(self):
        batcher = MicroBatcher("m", BatchPolicy(), [0.0, 0.1])
        batcher.offer()
        with pytest.raises(ValueError):
            batcher.requeue_front(1)
        batcher.requeue_front(0)
        assert batcher.head == 0 and batcher.depth == 2 and batcher.peak_depth == 2

    def test_span_stops_at_every_state_change(self):
        policy = BatchPolicy(max_batch_size=3, max_wait_s=1.0, max_queue_depth=5)
        batcher = MicroBatcher("m", policy, [0.0] * 10)
        steps = []
        while batcher.n_offered < 10:
            count = batcher.arrivals_until_change()
            if count is None:
                count = 10 - batcher.n_offered
            steps.append((count, batcher.offer(count)))
        # Arm the head, fill the batch, fill the queue, then shed the rest.
        assert steps == [(1, True), (2, True), (2, True), (5, False)]
        assert batcher.n_shed == 5 and batcher.depth == 5
        with pytest.raises(ValueError):
            MicroBatcher("m", policy, [0.0] * 6).offer(6)

    @given(
        arrivals=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=60,
        ),
        max_batch=st.integers(min_value=1, max_value=7),
        depth=st.one_of(st.none(), st.integers(min_value=1, max_value=10)),
    )
    @settings(max_examples=60, deadline=None)
    def test_batcher_invariants_under_random_arrivals(self, arrivals, max_batch, depth):
        """Batches never exceed max size, keep FIFO order, and conserve."""
        policy = BatchPolicy(max_batch_size=max_batch, max_wait_s=0.25, max_queue_depth=depth)
        arrivals = sorted(arrivals)
        batcher = MicroBatcher("m", policy, arrivals)
        popped: list[int] = []
        for now in arrivals:
            batcher.offer()
            while batcher.dispatchable(now):
                batch, _ = batcher.pop_batch(now)
                assert 1 <= len(batch) <= max_batch
                popped.extend(batch.tolist())
        # Drain whatever deadline-bound tail remains.
        while len(batcher):
            now = batcher.head_deadline_s
            batch, _ = batcher.pop_batch(now)
            assert len(batch) <= max_batch
            popped.extend(batch.tolist())
        assert popped == sorted(popped)  # FIFO
        assert len(popped) + batcher.n_shed == len(arrivals)
        if depth is not None:
            assert batcher.peak_depth <= depth


# --------------------------------------------------------------------------- #
# Batch latency model (arch integration)
# --------------------------------------------------------------------------- #
class TestBatchLatency:
    def test_scaled_workload(self):
        workload = LayerWorkload(kind="conv", dot_product_length=9, n_dot_products=4)
        scaled = workload.scaled(3)
        assert scaled.n_dot_products == 12 and scaled.dot_product_length == 9
        assert workload.scaled(1) is workload
        with pytest.raises(ValueError):
            workload.scaled(0)

    def test_batch_of_one_matches_single_inference(self, crosslight, lenet_workloads):
        assert crosslight.batch_latency_s(lenet_workloads, 1) == pytest.approx(
            crosslight.latency_for_workloads(lenet_workloads)
        )

    def test_batch_latency_monotone_and_amortizing(self, crosslight, lenet_workloads):
        sizes = (1, 2, 4, 8, 16, 32)
        latencies = [crosslight.batch_latency_s(lenet_workloads, b) for b in sizes]
        per_request = [t / b for t, b in zip(latencies, sizes)]
        assert all(b > a for a, b in zip(latencies, latencies[1:]))
        assert all(b < a for a, b in zip(per_request, per_request[1:]))

    def test_default_accelerator_has_no_amortization(self, lenet_workloads):
        class Fixed(PhotonicAccelerator):
            conv_vector_size = 16
            n_conv_units = 4
            fc_vector_size = 16
            n_fc_units = 4

            def cycle_time_s(self):
                return 1e-9

        fixed = Fixed()
        assert fixed.weight_update_time_s() == 0.0
        single = fixed.batch_latency_s(lenet_workloads, 1)
        # Without a weight-update share the only gain is unit-array packing.
        assert fixed.batch_latency_s(lenet_workloads, 4) <= 4 * single
        assert fixed.batch_latency_s(lenet_workloads, 4) >= 3.9 * single

    def test_invalid_batch_size(self, crosslight, lenet_workloads):
        with pytest.raises(ValueError):
            crosslight.batch_latency_s(lenet_workloads, 0)

    def test_simulate_models_accepts_single_model(self, crosslight, lenet):
        single = simulate_models(crosslight, lenet)
        wrapped = simulate_models(crosslight, [lenet])
        assert single.accelerator == wrapped.accelerator
        assert single.avg_fps == wrapped.avg_fps
        assert len(single.reports) == 1


# --------------------------------------------------------------------------- #
# End-to-end serving runs
# --------------------------------------------------------------------------- #
def _run(lenet, crosslight, *, rate=40_000.0, duration=0.01, max_batch=4,
         max_wait=200e-6, n_workers=1, seed=0, drain=True, depth=None):
    return serve_trace(
        lenet,
        crosslight,
        PoissonTraffic(rate_rps=rate, duration_s=duration),
        BatchPolicy(max_batch_size=max_batch, max_wait_s=max_wait, max_queue_depth=depth),
        n_workers=n_workers,
        seed=seed,
        drain=drain,
    )


class TestServeTrace:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        max_batch=st.sampled_from([1, 2, 4, 8]),
        rate=st.sampled_from([20_000.0, 60_000.0, 150_000.0]),
        n_workers=st.sampled_from([1, 2]),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_seed_gives_identical_event_traces(self, seed, max_batch, rate, n_workers):
        lenet = build_model(1)
        crosslight = CrossLightAccelerator.from_variant("cross_opt_ted")
        reports = [
            _run(lenet, crosslight, rate=rate, duration=0.003,
                 max_batch=max_batch, n_workers=n_workers, seed=seed)
            for _ in range(2)
        ]
        assert reports[0].event_trace == reports[1].event_trace
        assert reports[0] == reports[1]

    def test_different_seeds_differ(self, lenet, crosslight):
        a = _run(lenet, crosslight, seed=0)
        b = _run(lenet, crosslight, seed=1)
        assert a.event_trace != b.event_trace

    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        depth=st.one_of(st.none(), st.sampled_from([8, 32])),
        drain=st.booleans(),
        rate=st.sampled_from([50_000.0, 300_000.0, 700_000.0]),
    )
    @settings(max_examples=15, deadline=None)
    def test_conservation_across_load_regimes(self, seed, depth, drain, rate):
        lenet = build_model(1)
        crosslight = CrossLightAccelerator.from_variant("cross_opt_ted")
        report = _run(lenet, crosslight, rate=rate, duration=0.003,
                      max_batch=8, seed=seed, drain=drain, depth=depth)
        assert report.conserved
        assert report.n_arrivals == (
            report.n_completed + report.n_shed
            + report.n_queued_end + report.n_in_flight_end
        )
        if drain and depth is None:
            assert report.backlog_end == 0 and report.n_shed == 0

    def test_batches_respect_max_size_and_deadline(self, lenet, crosslight):
        max_wait = 150e-6
        report = _run(lenet, crosslight, rate=30_000.0, duration=0.02,
                      max_batch=4, max_wait=max_wait, n_workers=4)
        assert report.batches
        assert max(batch.size for batch in report.batches) <= 4
        # With an ample fleet a due head is always dispatched on time.
        waits = [record.queue_wait_s for record in report.requests]
        assert max(waits) <= max_wait * (1 + 1e-12)

    def test_full_batches_do_not_wait_for_deadline(self, lenet, crosslight):
        report = _run(lenet, crosslight, rate=500_000.0, duration=0.002,
                      max_batch=8, max_wait=1.0, n_workers=1)
        full = [batch for batch in report.batches if batch.size == 8]
        assert full and not any(batch.deadline_triggered for batch in full)

    def test_shedding_under_overload(self, lenet, crosslight):
        report = _run(lenet, crosslight, rate=800_000.0, duration=0.005,
                      max_batch=8, depth=32)
        assert report.n_shed > 0
        assert 0.0 < report.shed_rate < 1.0
        assert report.peak_queue_depth <= 32
        assert report.conserved

    def test_saturation_backlog_diverges_with_horizon(self, lenet, crosslight):
        stable_short = _run(lenet, crosslight, rate=150_000.0, duration=0.005,
                            max_batch=1, drain=False)
        stable_long = _run(lenet, crosslight, rate=150_000.0, duration=0.01,
                           max_batch=1, drain=False)
        overload_short = _run(lenet, crosslight, rate=400_000.0, duration=0.005,
                              max_batch=1, drain=False)
        overload_long = _run(lenet, crosslight, rate=400_000.0, duration=0.01,
                             max_batch=1, drain=False)
        # Below capacity (204k rps at B=1) the backlog stays a few requests.
        assert stable_short.backlog_end < 0.01 * stable_short.n_arrivals
        assert stable_long.backlog_end < 0.01 * stable_long.n_arrivals
        # Above it the backlog scales with the horizon (linear divergence).
        assert overload_short.backlog_end > 0.2 * overload_short.n_arrivals
        assert overload_long.backlog_end > 1.5 * overload_short.backlog_end

    def test_fleet_scales_throughput(self, lenet, crosslight):
        # 2.5M rps saturates both fleets (capacity is ~480k rps per worker),
        # so delivered throughput is capacity-limited and must scale.
        single = _run(lenet, crosslight, rate=2_500_000.0, duration=0.003,
                      max_batch=8, n_workers=1, depth=64)
        fleet = _run(lenet, crosslight, rate=2_500_000.0, duration=0.003,
                     max_batch=8, n_workers=4, depth=64)
        assert fleet.throughput_rps > 3.5 * single.throughput_rps
        assert fleet.shed_rate < single.shed_rate

    def test_report_metrics_are_consistent(self, lenet, crosslight):
        report = _run(lenet, crosslight, rate=60_000.0, duration=0.01, max_batch=4)
        assert report.n_completed == len(report.requests)
        assert report.n_completed == sum(batch.size for batch in report.batches)
        assert report.p50_latency_s <= report.p95_latency_s <= report.p99_latency_s
        assert 0.0 < report.utilisation <= 1.0
        assert report.total_energy_j == pytest.approx(
            report.power_w * sum(report.worker_busy_s)
        )
        assert report.mean_batch_size == pytest.approx(
            report.n_completed / len(report.batches)
        )
        assert "lenet5" in report.summary()

    def test_stale_deadline_does_not_stretch_the_horizon(self, lenet, crosslight):
        # Both requests fill the batch immediately; the head's armed 1 s
        # deadline then fires as a stale no-op and must not extend the
        # measurement window past the last completion (~6.6 us).
        report = serve_trace(
            lenet,
            crosslight,
            TraceTraffic([0.0, 1e-9]),
            BatchPolicy(max_batch_size=2, max_wait_s=1.0),
            seed=0,
        )
        assert report.n_completed == 2
        assert report.horizon_s < 1e-4
        assert report.throughput_rps > 100_000

    def test_cutoff_utilisation_stays_bounded(self, lenet, crosslight):
        # At 10x capacity with drain=False the final in-flight batch must
        # not leak busy time beyond the horizon.
        report = _run(lenet, crosslight, rate=5_000_000.0, duration=0.002,
                      max_batch=8, drain=False, depth=64)
        assert report.n_in_flight_end > 0
        assert report.utilisation <= 1.0
        assert report.total_energy_j == pytest.approx(
            report.power_w * sum(report.worker_busy_s)
        )

    def test_runtime_instance_runs_once(self, lenet, crosslight, lenet_workloads):
        runtime = ServingRuntime(
            {"lenet5": lenet_workloads}, crosslight, BatchPolicy()
        )
        traffic = PoissonTraffic(rate_rps=50_000.0, duration_s=0.001)
        requests = requests_from_traffic(traffic, "lenet5", seed=0)
        runtime.run(requests, traffic.duration_s)
        with pytest.raises(RuntimeError):
            runtime.run(requests, traffic.duration_s)


class TestArbitrationCount:
    """A deterministic guard on the loop's hot path, with no wall clock.

    Dispatch arbitration (``ServingRuntime._dispatch_ready``) runs only
    where the fleet state changed: a batcher becoming dispatchable, a
    worker going idle, or a fault.  Counting its calls on a fixed run
    catches a regression to re-arbitrating on every event -- about 0.9
    calls per event -- on any machine.  The event count is pinned too, so
    the guard cannot pass by processing fewer events.
    """

    def test_arbitration_runs_on_fewer_than_half_the_events(
        self, lenet, crosslight, monkeypatch
    ):
        calls = 0
        arbitrate = ServingRuntime._dispatch_ready

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return arbitrate(self, *args)

        monkeypatch.setattr(ServingRuntime, "_dispatch_ready", counted)
        capacity_rps = 4 * 8 / crosslight.batch_latency_s(lenet.workloads(), 8)
        rate = 0.8 * capacity_rps
        report = serve_trace(
            lenet,
            crosslight,
            PoissonTraffic(rate_rps=rate, duration_s=10_000 / rate),
            BatchPolicy(max_batch_size=8, max_wait_s=2.0 * 8 / rate),
            n_workers=4,
            seed=0,
        )
        assert report.n_arrivals == 10_058
        assert report.events_processed == 12_574
        assert calls < 0.5 * report.events_processed


class TestPerRequestObjects:
    """A deterministic guard that the loop's work is per batch, not per request.

    The run record is columnar: ``run()`` builds no :class:`Request`,
    :class:`RequestRecord` or :class:`TraceEvent`; the report builds them
    only when its per-item views are read.  On the run
    :class:`TestArbitrationCount` pins, the constructors are counted the
    same way that class counts ``_dispatch_ready``.
    """

    def test_run_builds_no_per_request_objects_until_a_view_is_read(
        self, lenet, crosslight, monkeypatch
    ):
        built = {"Request": 0, "RequestRecord": 0, "TraceEvent": 0}

        def counted(name, constructor):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return constructor(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Request, "__init__", counted("Request", Request.__init__))
        monkeypatch.setattr(
            RequestRecord, "__init__", counted("RequestRecord", RequestRecord.__init__)
        )
        monkeypatch.setattr(TraceEvent, "__new__", counted("TraceEvent", TraceEvent.__new__))
        capacity_rps = 4 * 8 / crosslight.batch_latency_s(lenet.workloads(), 8)
        rate = 0.8 * capacity_rps
        report = serve_trace(
            lenet,
            crosslight,
            PoissonTraffic(rate_rps=rate, duration_s=10_000 / rate),
            BatchPolicy(max_batch_size=8, max_wait_s=2.0 * 8 / rate),
            n_workers=4,
            seed=0,
        )
        assert report.n_arrivals == 10_058
        assert built == {"Request": 0, "RequestRecord": 0, "TraceEvent": 0}
        assert len(report.requests) == report.n_completed
        assert built["RequestRecord"] == report.n_completed
        assert len(report.event_trace) == report.n_arrivals + 2 * report.n_batches
        assert built["TraceEvent"] == len(report.event_trace)
        assert built["Request"] == 0


class TestMultiModel:
    def test_unknown_model_rejected_before_the_loop(self, crosslight, lenet_workloads):
        runtime = ServingRuntime(
            {"lenet5": lenet_workloads}, crosslight, BatchPolicy(), n_workers=1
        )
        with pytest.raises(KeyError, match="no workloads registered for model 'other'"):
            runtime.run([_request(0, 0.0, "lenet5"), _request(1, 0.5, "other")], 1.0)

    def test_per_model_queues_never_mix_batches(self, crosslight):
        models = {1: build_model(1), 2: build_model(2)}
        workloads = {m.name: m.workloads() for m in models.values()}
        runtime = ServingRuntime(
            workloads,
            crosslight,
            BatchPolicy(max_batch_size=4, max_wait_s=100e-6),
            n_workers=2,
        )
        requests = sorted(
            requests_from_traffic(
                PoissonTraffic(rate_rps=40_000.0, duration_s=0.005),
                models[1].name, seed=0,
            )
            + requests_from_traffic(
                PoissonTraffic(rate_rps=40_000.0, duration_s=0.005),
                models[2].name, seed=1, start_id=10_000,
            ),
            key=lambda request: request.arrival_s,
        )
        report = runtime.run(requests, 0.005)
        assert report.conserved
        assert set(report.models) == {models[1].name, models[2].name}
        served = {batch.model for batch in report.batches}
        assert served == set(report.models)
        for batch in report.batches:
            assert {request.model for request in batch.requests} == {batch.model}


GOLDEN_STACKS = {
    "q6_drift": (6, NoiseStack([QuantizationChannel(bits=6), ResidualDriftChannel(0.3)])),
    "q8_fpv": (8, NoiseStack([QuantizationChannel(bits=8), FPVDriftChannel()])),
}

#: sha256 of the sorted ``(request_id, class)`` pairs of ``report.outputs``.
FUNCTIONAL_GOLDEN = [
    ("q6_drift", 0, False, "223a220565dbd9a55358a675128210ffbda5a40ac2295a277375d81d1047d645"),
    ("q6_drift", 5, False, "dff6f29e4a75cf7bfd3372e5f1cc33bd1f9592f8aa5173447c8b9caa52a5c57e"),
    ("q8_fpv", 0, False, "e03fdac7093528bdf215646c5797f699fe8c707a0e4c28da924a14e93a7f00ff"),
    ("q8_fpv", 5, False, "9f761f7c98020f99dbf2c9641c75100c82218fb86e60d599401021c22052f181"),
    ("q6_drift", 0, True, "5dd2e9bb36d6da7c7f1939ba2f06b5afca355ab3fae154da8d4c863941a9b865"),
]


class TestFunctionalServing:
    def test_outputs_match_noiseless_model(self, crosslight):
        model = build_model(1, compact=True)
        rng = np.random.default_rng(0)
        inputs = rng.normal(size=(24, 1, 16, 16))
        expected = np.argmax(model.predict(inputs), axis=1)
        report = serve_trace(
            model,
            crosslight,
            PoissonTraffic(rate_rps=30_000.0, duration_s=0.002),
            BatchPolicy(max_batch_size=4, max_wait_s=100e-6),
            n_workers=2,
            seed=0,
            inputs=inputs,
        )
        assert report.outputs is not None
        assert set(report.outputs) == {r.request_id for r in report.requests}
        for record in report.requests:
            assert report.outputs[record.request_id] == expected[
                record.request_id % inputs.shape[0]
            ]

    def test_functional_serving_is_seed_reproducible(self, crosslight):
        model = build_model(1, compact=True)
        inputs = np.random.default_rng(1).normal(size=(16, 1, 16, 16))
        stack = NoiseStack([QuantizationChannel(bits=6), ResidualDriftChannel(0.3)])
        runs = [
            serve_trace(
                model,
                crosslight,
                PoissonTraffic(rate_rps=30_000.0, duration_s=0.002),
                BatchPolicy(max_batch_size=4, max_wait_s=100e-6),
                n_workers=2,
                seed=5,
                inputs=inputs,
                noise_stack=stack,
                activation_bits=6,
            )
            for _ in range(2)
        ]
        assert runs[0].outputs == runs[1].outputs
        assert runs[0].event_trace == runs[1].event_trace

    @pytest.mark.parametrize(
        "stack_name, seed, faulty, digest",
        FUNCTIONAL_GOLDEN,
        ids=[
            f"{name}-seed{seed}{'-faulty' * faulty}"
            for name, seed, faulty, _ in FUNCTIONAL_GOLDEN
        ],
    )
    def test_functional_outputs_match_golden(self, crosslight, stack_name, seed, faulty, digest):
        """Pins the predicted classes, not only run-to-run equality.

        A worker's noise stream must advance across its batches: re-seeding
        every batch still replays identically from run to run, but changes
        most predictions under the drift stacks.
        """
        bits, stack = GOLDEN_STACKS[stack_name]
        report = serve_trace(
            build_model(1, compact=True),
            crosslight,
            PoissonTraffic(rate_rps=30_000.0, duration_s=0.004),
            BatchPolicy(max_batch_size=4, max_wait_s=100e-6),
            n_workers=2,
            seed=seed,
            inputs=np.random.default_rng(1).normal(size=(16, 1, 16, 16)),
            noise_stack=stack,
            activation_bits=bits,
            faults=FAULTY if faulty else None,
        )
        pairs = sorted(report.outputs.items())
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest


# --------------------------------------------------------------------------- #
# Serving study
# --------------------------------------------------------------------------- #
class TestServingStudy:
    @pytest.fixture(scope="class")
    def crosslight_sweep(self):
        return serving_study.batch_size_sweep(
            accelerators=("Cross_opt_TED",),
            max_batches=(1, 2, 4, 8),
            n_requests=500,
        )

    def test_batch_sweep_monotone_frontier(self, crosslight_sweep):
        points = sorted(crosslight_sweep, key=lambda p: p.max_batch)
        p99s = [p.p99_latency_s for p in points]
        capacity = [p.service_throughput_rps for p in points]
        energy = [p.energy_per_request_j for p in points]
        assert all(b > a for a, b in zip(p99s, p99s[1:]))
        assert all(b > a for a, b in zip(capacity, capacity[1:]))
        assert all(b < a for a, b in zip(energy, energy[1:]))

    def test_sweep_parallel_parity(self, crosslight_sweep):
        with SweepExecutor(2) as executor:
            parallel = serving_study.batch_size_sweep(
                accelerators=("Cross_opt_TED",),
                max_batches=(1, 2, 4, 8),
                n_requests=500,
                executor=executor,
            )
        assert parallel == crosslight_sweep

    def test_crosslight_dominates_on_energy_at_equal_load(self):
        points, rate = serving_study.equal_load_comparison(n_requests=400)
        by_name = {point.accelerator: point for point in points}
        crosslight = by_name["Cross_opt_TED"]
        assert crosslight.energy_per_request_j < by_name["DEAP_CNN"].energy_per_request_j
        assert crosslight.energy_per_request_j < by_name["Holylight"].energy_per_request_j
        for point in points:
            assert point.rate_rps == rate and point.stable

    def test_saturation_finds_the_capacity_edge(self):
        results = serving_study.saturation_sweep(
            accelerators=("Cross_opt_TED", "DEAP_CNN"), n_requests=600
        )
        for result in results:
            rates = [point.rate_rps for point in result.points]
            stabilities = [point.stable for point in result.points]
            # Stability is monotone: stable below the edge, saturated above.
            assert stabilities == sorted(stabilities, reverse=True)
            assert 0.0 < result.max_sustainable_rps < max(rates)
            assert result.max_sustainable_rps <= result.capacity_rps
        by_name = {result.accelerator: result for result in results}
        assert (
            by_name["Cross_opt_TED"].max_sustainable_rps
            > 10 * by_name["DEAP_CNN"].max_sustainable_rps
        )

    def test_saturation_sweep_is_deterministic(self):
        twice = [
            serving_study.saturation_sweep(
                accelerators=("Cross_opt_TED",), n_requests=300
            )
            for _ in range(2)
        ]
        assert twice[0] == twice[1]

    def test_capacity_matches_batch_latency_model(self, crosslight, lenet_workloads):
        capacity = serving_study.fleet_capacity_rps("Cross_opt_TED", 8, fleet_size=2)
        expected = 2 * 8 / crosslight.batch_latency_s(lenet_workloads, 8)
        assert capacity == pytest.approx(expected)

    def test_unknown_accelerator_rejected(self):
        with pytest.raises(ValueError):
            serving_study.build_accelerator("TPU")
