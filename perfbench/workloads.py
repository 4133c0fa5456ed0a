"""The benchmark's four workloads.

Each workload builds its inputs from the seed in :meth:`Workload.build` (the
set-up, timed apart from the measured region), runs one operation per
:meth:`Workload.op` call, and checks an operation's output in
:meth:`Workload.check`.  Every operation of one run sees the same inputs, so
every operation of a run must also produce the same digest.

Why these four:

* ``run_all`` runs every registered study once, as ``python -m repro run
  --all`` does.  Training (``nn.model.fit`` over ``nn.backend``) dominates it,
  and it is the only workload that reaches the physics and ``arch`` studies.
* ``serve_poisson`` is the fault-free serving loop at 100k requests: the
  discrete-event runtime, request materialisation and report finalisation,
  with no ``nn`` code at all.
* ``serve_faults`` drives the same serving layer down its retry, requeue and
  shed paths (bursty traffic, a bounded queue, crashes and throttles), so a
  change that speeds the happy path but slows recovery shows here only.
* ``noise_mc`` is inference without training: a Monte-Carlo accuracy study
  over a full noise-channel stack on a model trained during set-up, where
  ``sim.noise`` and the ensemble forward pass do the work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

#: Serving workloads: fleet shape, request count and load (share of capacity).
ACCELERATOR = "Cross_opt_TED"
MODEL_INDEX = 1
FLEET_SIZE = 4
MAX_BATCH = 8
N_REQUESTS = 100_000
POISSON_LOAD = 0.8
#: serve_faults: mean load, burst shape, queue bound and fault intensity.  The
#: fault timings are shares of the traffic window T, so the expected number of
#: crashes and throttle episodes stays fixed whatever the absolute rate.
FAULTS_LOAD = 0.7
BURST_FACTOR = 2.0
BASE_DWELL_FRACTION = 1 / 400
BURST_DWELL_FRACTION = 1 / 1200
MAX_QUEUE_DEPTH = 64
CRASH_MTBF_FRACTION = 1 / 250
REPAIR_MTTR_FRACTION = 1 / 4000
THROTTLE_MTBF_FRACTION = 1 / 50
THROTTLE_DURATION_FRACTION = 1 / 500
THROTTLE_DERATE = 2.0
MAX_ATTEMPTS = 3
#: noise_mc: trained model, evaluation shape and channel magnitudes.  The
#: magnitudes put mean accuracy well between chance (0.1) and the ideal.
MC_MEMBERS = 256
MC_INPUTS = 32
MC_BITS = 8
FPV_RESIDUAL_FRACTION = 0.01
THERMAL_COUPLING_SCALE = 0.01
INTERCHANNEL_REJECTION_DB = 25.0
TRAIN_SAMPLES = 400
TEST_SAMPLES = 200
TRAIN_EPOCHS = 6
#: fig5 models whose 16-bit accuracy must beat their 1-bit accuracy.
FIG5_CLASSIFIERS = (1, 2, 3)


@dataclass
class Outcome:
    """What one operation attempted, what failed, and what it produced."""

    attempted: int
    failed: int = 0
    #: Output digests by key (one key per study for ``run_all``).
    digests: dict[str, str] = field(default_factory=dict)
    #: Simulated quantities (``sim_*``) and simulated per-layer values.
    sim: dict[str, float] = field(default_factory=dict)
    #: Host-side per-layer values read from the output (serving loop time).
    host: dict[str, float] = field(default_factory=dict)
    #: Work items of the operation: requests or member x input inferences.
    items: int = 0
    problems: list[str] = field(default_factory=list)


def sha256_json(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def accuracy_values(records: Any, under_accuracy: bool = False):
    """Every number stored under a key that names an accuracy.

    A number counts when the nearest enclosing key names an accuracy, so the
    fields of a record listed under ``drift_accuracy`` are judged by their
    own keys.
    """
    if isinstance(records, dict):
        for key, value in records.items():
            yield from accuracy_values(value, "accuracy" in str(key).lower())
    elif isinstance(records, (list, tuple)):
        for value in records:
            yield from accuracy_values(value, under_accuracy)
    elif under_accuracy and isinstance(records, (int, float)) and not isinstance(records, bool):
        yield float(records)


def mismatched(digests: dict[str, str], reference: dict[str, str] | None) -> list[str]:
    """Keys whose digest differs from the committed reference."""
    if reference is None:
        return []
    return [key for key, digest in digests.items() if reference.get(key) != digest]


class Workload:
    name = ""
    #: Modules a user of this workload imports; their import is set-up time.
    imports: tuple[str, ...] = ()
    #: Name of the work-items-per-host-second metric, when the workload has one.
    throughput_metric: str | None = None

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def op(self, state: Any) -> Any:
        raise NotImplementedError

    def check(self, state: Any, output: Any, reference: dict[str, str] | None) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# run_all
# ---------------------------------------------------------------------- #
class RunAll(Workload):
    name = "run_all"
    imports = ("repro.experiments", "repro.study")

    def build(self, seed: int):
        from repro.study import StudyRunner

        return StudyRunner(seed=seed)

    def op(self, runner):
        from repro.study.registry import experiment_names

        reports = {}
        for name in experiment_names():
            try:
                reports[name] = runner.run(name)
            except Exception as exc:  # one broken study must not hide the others
                reports[name] = exc
        return reports

    def check(self, runner, reports, reference):
        outcome = Outcome(attempted=len(reports))
        failed = set()
        for name, report in reports.items():
            problems = self._problems(name, report)
            if not isinstance(report, Exception):
                outcome.digests[name] = hashlib.sha256(report.to_text().encode()).hexdigest()
                outcome.host[f"study.{name}.wall_s"] = report.envelope["wall_time_s"]
            if problems:
                failed.add(name)
                outcome.problems += problems
        for name in mismatched(outcome.digests, reference):
            failed.add(name)
            outcome.problems.append(f"{name}: digest differs from reference")
        outcome.failed = len(failed)
        return outcome

    @staticmethod
    def _problems(name, report) -> list[str]:
        if isinstance(report, Exception):
            return [f"{name}: raised {type(report).__name__}: {report}"]
        problems = []
        values = list(accuracy_values(report.records))
        if any(not 0.0 <= value <= 1.0 for value in values):
            problems.append(f"{name}: accuracy outside [0, 1]")
        if name == "fig5":
            for curve in report.records:
                if curve["model_index"] in FIG5_CLASSIFIERS and {1, 16} <= set(curve["bits"]):
                    bits, accuracy = list(curve["bits"]), curve["accuracy"]
                    if not accuracy[bits.index(16)] > accuracy[bits.index(1)]:
                        problems.append(
                            f"{name}: model {curve['model_index']} 16-bit accuracy "
                            "is not above its 1-bit accuracy"
                        )
        return problems


# ---------------------------------------------------------------------- #
# Serving workloads
# ---------------------------------------------------------------------- #
@dataclass
class ServeState:
    seed: int
    model_name: str
    workloads: dict
    accelerator: Any
    policy: Any
    traffic: Any
    faults: Any = None
    retry: Any = None


class ServePoisson(Workload):
    name = "serve_poisson"
    imports = ("repro.serve", "repro.experiments.serving_study")
    throughput_metric = "requests_per_s"

    def build(self, seed: int) -> ServeState:
        from repro.experiments.serving_study import build_accelerator, fleet_capacity_rps
        from repro.nn.zoo import build_model
        from repro.serve import BatchPolicy, PoissonTraffic
        from repro.sim.tracer import trace_model

        model = build_model(MODEL_INDEX)
        rate = POISSON_LOAD * fleet_capacity_rps(ACCELERATOR, MAX_BATCH, FLEET_SIZE, MODEL_INDEX)
        return ServeState(
            seed=seed,
            model_name=model.name,
            workloads={model.name: trace_model(model)},
            accelerator=build_accelerator(ACCELERATOR),
            policy=BatchPolicy(max_batch_size=MAX_BATCH, max_wait_s=2.0 * MAX_BATCH / rate),
            traffic=PoissonTraffic(rate_rps=rate, duration_s=N_REQUESTS / rate),
        )

    def op(self, state: ServeState):
        from repro.serve import FaultInjector, ServingRuntime, requests_from_traffic

        runtime = ServingRuntime(
            state.workloads,
            state.accelerator,
            state.policy,
            n_workers=FLEET_SIZE,
            faults=None if state.faults is None else FaultInjector(state.faults, seed=state.seed),
            retry=state.retry,
        )
        requests = requests_from_traffic(state.traffic, state.model_name, state.seed)
        return runtime.run(
            requests, state.traffic.duration_s, traffic_description=state.traffic.describe()
        )

    def check(self, state, report, reference):
        outcome = Outcome(attempted=1, items=report.n_arrivals)
        latencies = report.latencies_s
        queue_waits = np.asarray([record.queue_wait_s for record in report.requests])
        busy_s = sum(report.worker_busy_s)
        outcome.digests["report"] = sha256_json(
            {
                "counts": [
                    report.n_arrivals, report.n_completed, report.n_shed, report.n_failed,
                    report.n_retries, report.n_lost_batches, report.n_retried_completions,
                    report.n_queued_end, report.n_in_flight_end, len(report.batches),
                    report.events_processed, report.peak_queue_depth,
                ],
                "floats": [
                    repr(report.horizon_s), repr(report.total_energy_j),
                    repr(report.wasted_busy_s), repr(busy_s),
                ],
                "latencies": hashlib.sha256(latencies.tobytes()).hexdigest(),
            }
        )
        goodput = report.n_completed / report.n_arrivals
        outcome.sim = {
            "sim_p99_latency_us": report.p99_latency_s * 1e6,
            "sim_energy_per_request_uj": report.energy_per_request_j * 1e6,
            "sim_goodput_frac": goodput,
            "serve.runtime.events": report.events_processed,
            "serve.runtime.batches_per_event": len(report.batches) / report.events_processed,
            "serve.batcher.mean_batch_size": report.mean_batch_size,
            "serve.batcher.deadline_dispatch_frac": report.deadline_dispatch_fraction,
            "serve.batcher.peak_queue_depth": report.peak_queue_depth,
            "serve.workers.utilisation": report.utilisation,
            "serve.workers.queue_wait_p50_us": float(np.median(queue_waits)) * 1e6,
            "serve.faults.retries": report.n_retries,
            "serve.faults.lost_batches": report.n_lost_batches,
            "serve.faults.shed": report.n_shed,
            "serve.faults.failed": report.n_failed,
            "serve.faults.wasted_busy_frac": report.wasted_busy_s / busy_s,
        }
        outcome.host = {"serve.runtime.loop_s": report.wall_time_s}
        if not report.conserved:
            outcome.problems.append("request conservation violated")
        if not 0.0 < goodput <= 1.0 or not 0.0 < report.utilisation <= 1.0:
            outcome.problems.append("goodput or utilisation outside (0, 1]")
        if latencies.size == 0 or latencies.min() < 0.0:
            outcome.problems.append("no completions, or a negative latency")
        outcome.problems += [f"{key}: digest differs from reference"
                             for key in mismatched(outcome.digests, reference)]
        outcome.failed = int(bool(outcome.problems))
        return outcome


class ServeFaults(ServePoisson):
    name = "serve_faults"

    def build(self, seed: int) -> ServeState:
        from repro.experiments.serving_study import fleet_capacity_rps
        from repro.serve import BatchPolicy, BurstyTraffic, FaultModel, RetryPolicy

        state = super().build(seed)
        rate = FAULTS_LOAD * fleet_capacity_rps(ACCELERATOR, MAX_BATCH, FLEET_SIZE, MODEL_INDEX)
        duration_s = N_REQUESTS / rate
        # The base rate that makes the two-state mix average out at ``rate``.
        base_weight = BASE_DWELL_FRACTION / (BASE_DWELL_FRACTION + BURST_DWELL_FRACTION)
        base_rate = rate / (base_weight + (1.0 - base_weight) * BURST_FACTOR)
        state.traffic = BurstyTraffic(
            base_rate_rps=base_rate,
            burst_rate_rps=BURST_FACTOR * base_rate,
            duration_s=duration_s,
            mean_base_dwell_s=BASE_DWELL_FRACTION * duration_s,
            mean_burst_dwell_s=BURST_DWELL_FRACTION * duration_s,
        )
        state.policy = BatchPolicy(
            max_batch_size=MAX_BATCH,
            max_wait_s=2.0 * MAX_BATCH / rate,
            max_queue_depth=MAX_QUEUE_DEPTH,
        )
        state.faults = FaultModel(
            crash_mtbf_s=CRASH_MTBF_FRACTION * duration_s,
            repair_mttr_s=REPAIR_MTTR_FRACTION * duration_s,
            throttle_mtbf_s=THROTTLE_MTBF_FRACTION * duration_s,
            throttle_duration_s=THROTTLE_DURATION_FRACTION * duration_s,
            throttle_derate=THROTTLE_DERATE,
        )
        state.retry = RetryPolicy(max_attempts=MAX_ATTEMPTS)
        return state


# ---------------------------------------------------------------------- #
# noise_mc
# ---------------------------------------------------------------------- #
@dataclass
class NoiseState:
    model: Any
    inputs: np.ndarray
    labels: np.ndarray
    stack: Any
    seeds: tuple[int, ...]


class NoiseMC(Workload):
    name = "noise_mc"
    imports = ("repro.sim.photonic_inference", "repro.nn")
    throughput_metric = "inferences_per_s"

    def build(self, seed: int) -> NoiseState:
        from repro.nn.datasets import dataset_for_model
        from repro.nn.zoo import build_model
        from repro.sim.noise import (
            FPVDriftChannel,
            InterChannelCrosstalkChannel,
            NoiseStack,
            QuantizationChannel,
            ThermalCrosstalkChannel,
        )

        model = build_model(MODEL_INDEX, compact=True)
        train_x, train_y, test_x, test_y = dataset_for_model(
            MODEL_INDEX, n_train=TRAIN_SAMPLES, n_test=TEST_SAMPLES
        )
        model.fit(
            train_x, train_y, epochs=TRAIN_EPOCHS, batch_size=32, seed=MODEL_INDEX,
            track_accuracy=False,
        )
        stack = NoiseStack(
            [
                QuantizationChannel(bits=MC_BITS),
                FPVDriftChannel(residual_fraction=FPV_RESIDUAL_FRACTION),
                ThermalCrosstalkChannel(coupling_scale=THERMAL_COUPLING_SCALE),
                InterChannelCrosstalkChannel(calibration_rejection_db=INTERCHANNEL_REJECTION_DB),
            ]
        )
        # The run's seed picks which Monte-Carlo draws the members take.
        seeds = tuple(range(seed * MC_MEMBERS, (seed + 1) * MC_MEMBERS))
        return NoiseState(model, test_x[:MC_INPUTS], test_y[:MC_INPUTS], stack, seeds)

    def op(self, state: NoiseState):
        from repro.sim.photonic_inference import monte_carlo_accuracy

        return monte_carlo_accuracy(
            state.model, state.inputs, state.labels, state.stack,
            seeds=state.seeds, activation_bits=MC_BITS,
        )

    def check(self, state, result, reference):
        members = len(result.records)
        outcome = Outcome(attempted=members, items=members * len(state.inputs))
        outcome.digests["accuracies"] = sha256_json(
            {"ideal": repr(result.ideal_accuracy), "members": [repr(a) for a in result.accuracies]}
        )
        outcome.sim = {
            "sim_mean_accuracy": result.mean_accuracy,
            "sim_accuracy_loss": result.mean_accuracy_loss,
        }
        bad_members = sum(1 for a in result.accuracies if not 0.0 <= a <= 1.0)
        if bad_members:
            outcome.problems.append(f"{bad_members} member accuracies outside [0, 1]")
        whole_op = []
        if result.mean_accuracy > result.ideal_accuracy:
            whole_op.append("mean accuracy above the ideal accuracy")
        whole_op += [f"{key}: digest differs from reference"
                     for key in mismatched(outcome.digests, reference)]
        outcome.problems += whole_op
        outcome.failed = members if whole_op else bad_members
        return outcome


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (RunAll(), ServePoisson(), ServeFaults(), NoiseMC())
}
