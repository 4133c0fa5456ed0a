"""Tests of :mod:`repro.obs`: metrics, tracing, and event-loop profiling.

The load-bearing contract, asserted both ways across fault-heavy and
fault-free regimes (hypothesis-driven): **enabling observability never
changes a single simulated result** -- the :class:`ServingReport`, its
event trace, and its rendered summary are byte-identical with and without
an attached :class:`~repro.obs.Observability` bundle.

Also covered:

* the metrics substrate (counters/gauges/log-bucket histograms, kind
  conflicts, sorted deterministic exports, Prometheus text exposition);
* Chrome trace-event schema validity (required keys, monotonic ``ts``,
  matched ``b``/``e`` per ``(cat, id)``, non-negative ``X`` durations)
  for both hand-built and runtime traces;
* the wall-clock loop profiler and its instrumented event queue;
* the cache satellite: the registry's ``cache.*`` samples agree with
  ``iter_cache_infos``;
* the study layer: registry-backed envelope accounting, embedded metrics
  snapshots, and the CLI's ``--trace``/``--metrics``/``--profile`` flags.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.accelerator import CrossLightAccelerator
from repro.nn.zoo import build_model
from repro.obs import (
    Histogram,
    LoopProfiler,
    MetricsRegistry,
    Observability,
    Tracer,
    cache_collector,
    log_buckets,
)
from repro.serve import (
    BatchPolicy,
    EventQueue,
    FaultModel,
    PoissonTraffic,
    RetryPolicy,
    serve_trace,
)
from repro.sim.sweep import SweepExecutor, run_sweep
from repro.study.cli import main as cli_main
from repro.study.runner import StudyRunner
from repro.utils.cache import iter_cache_infos, memoize


@pytest.fixture(scope="module")
def lenet():
    return build_model(1)


@pytest.fixture(scope="module")
def crosslight():
    return CrossLightAccelerator.from_variant("cross_opt_ted")


# --------------------------------------------------------------------------- #
# Chrome trace-event schema validation
# --------------------------------------------------------------------------- #
def validate_chrome_trace(trace: dict) -> None:
    """Assert ``trace`` is a well-formed Chrome trace-event JSON object."""
    assert set(trace) >= {"traceEvents"}
    events = trace["traceEvents"]
    assert isinstance(events, list)

    open_async: dict[tuple, int] = {}
    last_ts = -math.inf
    seen_payload = False
    for event in events:
        assert {"name", "ph", "pid", "tid"} <= set(event), event
        ph = event["ph"]
        if ph == "M":
            # Metadata may only lead the payload (the export contract).
            assert not seen_payload, "metadata event after payload events"
            continue
        seen_payload = True
        assert "ts" in event, event
        ts = event["ts"]
        assert ts >= last_ts, f"ts not monotonic: {ts} after {last_ts}"
        last_ts = ts
        if ph == "X":
            assert event["dur"] >= 0.0
        elif ph == "b":
            key = (event["cat"], event["id"])
            open_async[key] = open_async.get(key, 0) + 1
        elif ph == "e":
            key = (event["cat"], event["id"])
            assert open_async.get(key, 0) > 0, f"e without b for {key}"
            open_async[key] -= 1
        elif ph == "i":
            assert event.get("s") in ("t", "p", "g")
        elif ph == "C":
            assert isinstance(event["args"], dict)
        else:
            raise AssertionError(f"unexpected phase {ph!r}")
    assert all(n == 0 for n in open_async.values()), open_async


# --------------------------------------------------------------------------- #
# Metrics substrate
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_log_buckets_fixed_and_machine_independent(self):
        buckets = log_buckets(1e-7, 10.0, per_decade=4)
        assert buckets[0] == 1e-7
        assert buckets == log_buckets(1e-7, 10.0, per_decade=4)
        assert all(b > a for a, b in zip(buckets, buckets[1:]))
        assert buckets[-1] >= 10.0

    def test_log_buckets_validation(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1e-3, 1.0, per_decade=0)

    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("x.count")
        counter.inc()
        counter.inc(3)
        assert registry.value("x.count") == 4
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("x.depth")
        gauge.set(5)
        gauge.inc(-2)
        assert registry.value("x.depth") == 3.0

    def test_histogram_observe_mean_quantile(self):
        hist = Histogram("h", (), buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(60.5)
        assert hist.mean == pytest.approx(60.5 / 4)
        # Quantiles resolve to bucket upper bounds.
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 100.0
        hist.observe(1e6)
        assert hist.quantile(1.0) == math.inf

    def test_histogram_observe_many_matches_one_at_a_time(self):
        values = [0.5, 1.0, 5.0, 1e-9, 50.0, 1e6, 0.1 + 0.2, 7.25]
        one, many = (Histogram("h", (), buckets=(1.0, 10.0, 100.0)) for _ in range(2))
        one.observe(3.0)
        many.observe(3.0)
        for value in values:
            one.observe(value)
        many.observe_many(np.asarray(values))
        many.observe_many(np.asarray([]))
        assert (many.counts, many.sum, many.count) == (one.counts, one.sum, one.count)

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("dual", {"a": "1"})
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("dual", {"a": "1"})
        # Same name with different labels is a separate instrument.
        registry.gauge("dual", {"a": "2"}).set(1.0)

    def test_labels_get_or_create(self):
        registry = MetricsRegistry()
        first = registry.counter("c", {"k": "v"})
        again = registry.counter("c", {"k": "v"})
        assert first is again
        assert registry.get("c", {"k": "other"}) is None

    def test_collect_sorted_and_prefix_filtered(self):
        registry = MetricsRegistry()
        registry.counter("b.second").inc()
        registry.counter("a.first").inc()
        names = [s.name for s in registry.collect()]
        assert names == sorted(names)
        assert [s.name for s in registry.collect(prefix="a.")] == ["a.first"]

    def test_to_json_stable(self):
        registry = MetricsRegistry()
        registry.counter("a", {"z": "1", "b": "2"}).inc(2)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        first = registry.to_json()
        payload = json.loads(first)
        assert registry.to_json() == first
        kinds = {m["name"]: m["kind"] for m in payload["metrics"]}
        assert kinds == {"a": "counter", "h": "histogram"}

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("serve.runtime.arrivals", {"model": "lenet"}).inc(7)
        hist = registry.histogram("lat", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = registry.to_prometheus()
        assert "# TYPE serve_runtime_arrivals_total counter" in text
        assert 'serve_runtime_arrivals_total{model="lenet"} 7' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1.0"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_count 2" in text

    def test_write_prom_vs_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        registry.write(prom)
        registry.write(js)
        assert "n_total 1" in prom.read_text()
        assert json.loads(js.read_text())["metrics"][0]["name"] == "n"


# --------------------------------------------------------------------------- #
# Cache satellite: the registry as the unified read surface
# --------------------------------------------------------------------------- #
class TestCacheBridge:
    def test_cache_collector_and_global_view_agree(self):
        calls = []

        @memoize(maxsize=4)
        def probe(x):
            calls.append(x)
            return x * 2

        probe(1), probe(1), probe(2)
        name = next(n for n, _ in iter_cache_infos() if "probe" in n)

        registry = MetricsRegistry(collectors=(cache_collector,))
        by_name = {
            (s.name, dict(s.labels)["fn"]): s.value
            for s in registry.collect(prefix="cache.")
        }
        assert by_name[("cache.hits", name)] == 1
        assert by_name[("cache.misses", name)] == 2
        assert by_name[("cache.size", name)] == 2

        info = dict(iter_cache_infos())[name]
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_hand_built_trace_validates(self):
        tracer = Tracer()
        pid = tracer.new_process("test")
        tracer.thread_name(pid, 0, "main")
        tracer.complete(0.5, 0.25, "span", pid, 1, args={"k": 1})
        tracer.instant(0.75, "blip", pid, 1)
        tracer.counter(0.1, "depth", pid, 0, {"queue": 3})
        tracer.async_spans(pid, "request", (0.0,), (2.5,), ("request",), (42,), (0,))
        validate_chrome_trace(tracer.to_dict())

    def test_events_sorted_regardless_of_emission_order(self):
        tracer = Tracer()
        pid = tracer.new_process("p")
        tracer.complete(5.0, 1.0, "late", pid, 0)
        tracer.complete(1.0, 1.0, "early", pid, 0)
        events = [e for e in tracer.to_dict()["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["early", "late"]

    def test_process_memoizes_new_process_does_not(self):
        tracer = Tracer()
        assert tracer.process("shared") == tracer.process("shared")
        assert tracer.new_process("fresh") != tracer.new_process("fresh")

    def test_bulk_emitters_match_single_events(self):
        single, bulk = Tracer(), Tracer()
        for tracer in (single, bulk):
            tracer.new_process("p")
        single.counter(0.1, "depth", 1, 0, {"queue": 3})
        single.counter(0.2, "depth", 1, 0, {"queue": 4})
        bulk.counters(1, 0, (0.1, 0.2), ("depth", "depth"), ({"queue": 3}, {"queue": 4}))
        bulk.async_spans(
            1, "request", (0.0, 0.3), (0.3, 0.5), ("queue", "service"), (7, 7), (0, 2)
        )
        events = bulk.to_dict()["traceEvents"]
        assert [e for e in events if e["ph"] == "C"] == single.to_dict()["traceEvents"][1:]
        spans = [
            (e["ph"], e["ts"], e["name"], e["cat"], e["id"], e["pid"], e["tid"])
            for e in events
            if e["ph"] in ("b", "e")
        ]
        assert spans == [
            ("b", 0.0, "queue", "request", 7, 1, 0),
            ("e", 0.3 * 1e6, "queue", "request", 7, 1, 0),
            ("b", 0.3 * 1e6, "service", "request", 7, 1, 2),
            ("e", 0.5 * 1e6, "service", "request", 7, 1, 2),
        ]
        assert len(bulk) == len(single) + 4 == 1 + 2 + 4
        assert [e["ph"] for e in events] == ["M", "b", "C", "C", "e", "b", "e"]

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        pid = tracer.new_process("p")
        tracer.complete(1.0, -0.5, "clamped", pid, 0)
        (event,) = (e for e in tracer.to_dict()["traceEvents"] if e["ph"] == "X")
        assert event["dur"] == 0.0

    def test_write_round_trips(self, tmp_path):
        tracer = Tracer()
        pid = tracer.new_process("p")
        tracer.instant(0.0, "x", pid, 0)
        path = tmp_path / "trace.json"
        tracer.write(path)
        validate_chrome_trace(json.loads(path.read_text()))


# --------------------------------------------------------------------------- #
# Loop profiler
# --------------------------------------------------------------------------- #
class TestLoopProfiler:
    def test_record_and_summary(self):
        profiler = LoopProfiler()
        profiler.start()
        profiler.record("ArrivalEvent", 1_000)
        profiler.record("ArrivalEvent", 2_000)
        profiler.record("CompletionEvent", 500)
        profiler.stop()
        summary = profiler.summary()
        assert summary["events_processed"] == 3
        assert summary["handlers"]["ArrivalEvent"]["count"] == 2
        assert summary["events_per_sec"] > 0
        assert "| handler |" in profiler.table()

    def test_span_record_counts_its_events(self):
        profiler = LoopProfiler()
        profiler.start()
        profiler.record("ArrivalEvent", 4_000, 12)
        profiler.record("DeadlineEvent", 500)
        profiler.stop()
        summary = profiler.summary()
        assert summary["events_processed"] == 13
        assert summary["handlers"]["ArrivalEvent"]["count"] == 1
        assert summary["handlers"]["ArrivalEvent"]["total_s"] == pytest.approx(4e-6)

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            LoopProfiler().stop()

    def test_instrumented_queue_behaves_identically(self):
        profiler = LoopProfiler()
        plain, wrapped = EventQueue(), profiler.instrument_queue()
        for queue in (plain, wrapped):
            queue.push(2.0, 1, "b")
            queue.push(1.0, 0, "a")
        assert plain.pop() == wrapped.pop()
        assert plain.pop() == wrapped.pop()
        ops = profiler.summary()["queue_ops"]
        assert ops["push"]["count"] == 2
        assert ops["pop"]["count"] == 2

    def test_samples_merged_into_enabled_registry(self):
        obs = Observability.enabled(profiler=True)
        obs.profiler.record("ArrivalEvent", 1_000)
        names = {s.name for s in obs.metrics.collect(prefix="profile.")}
        assert "profile.handler_s" in names
        assert "profile.events_processed" in names


# --------------------------------------------------------------------------- #
# Byte-identity: observability must not perturb a single simulated result
# --------------------------------------------------------------------------- #
FAULTY = FaultModel(
    crash_mtbf_s=1.5e-3, repair_mttr_s=0.3e-3,
    throttle_mtbf_s=1.0e-3, throttle_duration_s=0.5e-3, throttle_derate=2.0,
)


class TestByteIdentity:
    @staticmethod
    def _run(lenet, crosslight, seed, rate_rps, n_workers, faults, obs, backoff_s=0.0):
        traffic = PoissonTraffic(rate_rps=rate_rps, duration_s=0.004)
        policy = BatchPolicy(max_batch_size=8, max_wait_s=100e-6, max_queue_depth=64)
        return serve_trace(
            lenet, crosslight, traffic, policy, n_workers=n_workers, seed=seed,
            faults=faults,
            retry=RetryPolicy(backoff_s=backoff_s) if faults is not None else None,
            obs=obs,
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate_rps=st.sampled_from([40_000.0, 120_000.0]),
        n_workers=st.integers(min_value=1, max_value=3),
        faulty=st.booleans(),
        backoff_s=st.sampled_from([0.0, 30e-6]),
    )
    @settings(max_examples=12, deadline=None)
    def test_obs_on_equals_obs_off(
        self, lenet, crosslight, seed, rate_rps, n_workers, faulty, backoff_s
    ):
        faults = FAULTY if faulty else None
        args = (lenet, crosslight, seed, rate_rps, n_workers, faults)
        plain = self._run(*args, None, backoff_s)
        obs = Observability.enabled(profiler=True)
        observed = self._run(*args, obs, backoff_s)
        assert observed == plain
        assert observed.event_trace == plain.event_trace
        assert observed.summary() == plain.summary()
        validate_chrome_trace(obs.tracer.to_dict())

    def test_runtime_trace_has_expected_tracks(self, lenet, crosslight):
        obs = Observability.enabled()
        report = self._run(lenet, crosslight, 7, 120_000.0, 2, FAULTY, obs)
        assert report.n_arrivals > 0
        events = obs.tracer.to_dict()["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "b", "e", "C"} <= phases
        thread_names = {
            e["args"]["name"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "runtime" in thread_names
        assert "worker-0" in thread_names
        # Request lifetimes split into queue-wait and service phases.
        async_names = {e["name"] for e in events if e["ph"] == "b"}
        assert async_names == {"queue", "service"}

    def test_runtime_metrics_account_for_traffic(self, lenet, crosslight):
        obs = Observability.enabled(tracer=False)
        report = self._run(lenet, crosslight, 3, 120_000.0, 2, None, obs)
        registry = obs.metrics
        label = {"accelerator": crosslight.name}
        assert registry.value("serve.runtime.arrivals", label) == report.n_arrivals
        assert registry.value("serve.runtime.completed", label) == report.n_completed
        assert registry.value("serve.runtime.batches", label) == len(report.batches)
        assert (
            registry.value("serve.runtime.events_processed", label)
            == report.events_processed
        )
        latency = registry.get("serve.runtime.latency_s", label)
        assert latency.count == report.n_completed

    def test_events_processed_and_rate_in_report(self, lenet, crosslight):
        report = self._run(lenet, crosslight, 0, 40_000.0, 1, None, None)
        assert report.events_processed > report.n_arrivals
        assert report.wall_time_s > 0
        assert report.events_per_sec == pytest.approx(
            report.events_processed / report.wall_time_s
        )
        # Nondeterministic wall-clock fields never participate in equality.
        again = self._run(lenet, crosslight, 0, 40_000.0, 1, None, None)
        assert again == report


# --------------------------------------------------------------------------- #
# Sweep instrumentation
# --------------------------------------------------------------------------- #
def _square(x):
    return x * x


class TestSweepObs:
    def test_serial_sweep_records_points_and_spans(self):
        obs = Observability.enabled()
        result = run_sweep(_square, [{"x": i} for i in range(5)], obs=obs)
        assert result.values == (0, 1, 4, 9, 16)
        assert obs.metrics.value("sim.sweep.points") == 5
        assert obs.metrics.value("sim.sweep.sweeps") == 1
        assert obs.metrics.get("sim.sweep.point_s").count == 5
        names = [
            e["name"] for e in obs.tracer.to_dict()["traceEvents"]
            if e["ph"] == "X"
        ]
        assert "sweep x5" in names
        assert "point 0" in names
        validate_chrome_trace(obs.tracer.to_dict())

    def test_executor_sweep_records_chunks_and_utilisation(self):
        obs = Observability.enabled(tracer=False)
        with SweepExecutor(n_workers=2) as executor:
            result = run_sweep(
                _square, [{"x": i} for i in range(8)], executor=executor, obs=obs
            )
        assert result.values == (0, 1, 4, 9, 16, 25, 36, 49)
        assert obs.metrics.value("sim.sweep.chunks") > 0
        assert 0.0 <= obs.metrics.value("sim.sweep.pool_utilisation") <= 1.0

    def test_sweep_results_identical_with_obs(self):
        plain = run_sweep(_square, [{"x": i} for i in range(4)])
        observed = run_sweep(
            _square, [{"x": i} for i in range(4)], obs=Observability.enabled()
        )
        assert observed.values == plain.values
        assert [p.params for p in observed] == [p.params for p in plain]


# --------------------------------------------------------------------------- #
# Study layer: envelope accounting and the CLI flags
# --------------------------------------------------------------------------- #
SMALL_FAULTS = dict(
    n_requests=60, fleet_size=2, mtbf_fractions=(0.5,), mttr_fractions=(0.05,),
    derates=(2.0,), headroom_extra=0,
)


class TestStudyObs:
    def test_envelope_metrics_only_when_enabled(self):
        with StudyRunner(seed=1) as runner:
            plain = runner.run("serving_faults", **SMALL_FAULTS)
        assert "metrics" not in plain.envelope

        obs = Observability.enabled()
        with StudyRunner(seed=1, obs=obs) as runner:
            observed = runner.run("serving_faults", **SMALL_FAULTS)
        assert observed.result == plain.result
        assert observed.text == plain.text
        metric_names = {m["name"] for m in observed.envelope["metrics"]["metrics"]}
        assert any(name.startswith("serve.runtime.") for name in metric_names)
        assert any(name.startswith("sim.sweep.") for name in metric_names)
        assert "study.runner.runs" in metric_names

    def test_runner_registry_accounts_runs(self):
        with StudyRunner(seed=0) as runner:
            report = runner.run("serving_faults", **SMALL_FAULTS)
            label = {"study": "serving_faults"}
            assert runner.registry.value("study.runner.runs", label) == 1
            assert runner.registry.value(
                "study.runner.wall_time_s", label
            ) == pytest.approx(report.envelope["wall_time_s"])
            assert (
                runner.registry.value("study.runner.cache_hits", label)
                == report.envelope["cache_hits"]
            )

    def test_cli_obs_artefacts(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.prom"
        profile = tmp_path / "p.json"
        code = cli_main([
            "run", "serving_faults",
            "--n-requests", "60", "--fleet-size", "2",
            "--mtbf-fractions", "0.5", "--mttr-fractions", "0.05",
            "--derates", "2.0", "--headroom-extra", "0",
            "--trace", str(trace), "--metrics", str(metrics),
            "--profile", str(profile),
        ])
        assert code == 0
        validate_chrome_trace(json.loads(trace.read_text()))
        assert "serve_runtime_arrivals_total" in metrics.read_text()
        summary = json.loads(profile.read_text())
        assert summary["events_processed"] > 0
        assert "ArrivalEvent" in summary["handlers"]
        out = capsys.readouterr()
        assert "Serving fault study" in out.out

    def test_cli_metrics_json_when_not_prom(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        code = cli_main([
            "run", "serving_faults",
            "--n-requests", "60", "--fleet-size", "2",
            "--mtbf-fractions", "0.5", "--mttr-fractions", "0.05",
            "--derates", "2.0", "--headroom-extra", "0",
            "--metrics", str(metrics),
        ])
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert any(m["name"].startswith("serve.") for m in payload["metrics"])
