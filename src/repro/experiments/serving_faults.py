"""Experiment E-FAULTS: serving degradation under injected fleet faults.

The serving study (:mod:`repro.experiments.serving_study`) evaluates the
CrossLight fleet on a perfect datacenter floor.  This study removes that
assumption: workers crash and get repaired (exponential MTBF/MTTR), drift
into transient thermal-throttle episodes that stretch their batch latency,
and are permanently drained -- all injected as seeded discrete events by
:mod:`repro.serve.faults` -- while bursty traffic keeps arriving.  Four
questions are answered:

* **crash sensitivity** -- sweeping crash MTBF and repair MTTR against a
  fault-free baseline: availability falls with shorter MTBF and longer
  MTTR, lost batches turn into retries (goodput < throughput), and p99
  latency inflates as the survivors absorb the re-queued work;
* **throttle severity** -- sweeping the thermal derate factor: the fleet
  stays fully available but its effective capacity shrinks, so tail
  latency and energy per request climb with the derate;
* **fleet-sizing headroom** -- at a fixed crash regime, how many spare
  workers restore the fault-free tail: the overprovisioning curve a
  capacity planner reads;
* **crash-mid-batch semantics** -- a deterministic drain scheduled halfway
  through an in-flight batch shows the batch being lost, every request
  retried and completed on the surviving worker, and -- with retries
  disabled -- the same requests terminally failing instead.

Every sweep fans out through :func:`repro.sim.sweep.run_sweep`; the whole
study is reproducible from one seed (traffic, faults, and fleet included).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.serving_study import (
    _instrumented,
    build_accelerator,
    fleet_capacity_rps,
)
from repro.nn.zoo import build_model
from repro.serve import (
    BatchPolicy,
    BurstyTraffic,
    FaultModel,
    RetryPolicy,
    TraceTraffic,
    serve_trace,
)
from repro.sim.results import format_table
from repro.sim.sweep import SweepExecutor, run_sweep
from repro.study import RunContext, StudyConfig, experiment

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.obs import Observability

#: Burst multiplier and dwell split of the study's bursty traffic: bursts
#: run at twice the base rate and occupy ~1/4 of the timeline.
BURST_FACTOR = 2.0
BASE_DWELL_FRACTION = 1 / 8
BURST_DWELL_FRACTION = 1 / 24


@dataclass(frozen=True)
class FaultPoint:
    """One fault scenario and the degradation metrics it produced."""

    label: str
    fleet_size: int
    crash_mtbf_s: float | None
    repair_mttr_s: float
    throttle_derate: float
    offered_rps: float
    availability: float
    throughput_rps: float
    goodput_rps: float
    p99_latency_s: float
    energy_per_request_j: float
    n_arrivals: int
    n_retries: int
    n_failed: int
    n_lost_batches: int
    shed_rate: float
    wasted_busy_s: float


def evaluate_fault_scenario(
    accelerator_name: str,
    label: str,
    rate_rps: float,
    n_requests: int,
    crash_mtbf_s: float | None = None,
    repair_mttr_s: float = 1e-3,
    throttle_mtbf_s: float | None = None,
    throttle_duration_s: float = 1e-3,
    throttle_derate: float = 2.0,
    fleet_size: int = 4,
    max_batch: int = 8,
    model_index: int = 1,
    seed: int = 0,
    max_attempts: int = 3,
    backoff_s: float = 0.0,
    max_queue_depth: int | None = None,
    obs: "Observability | None" = None,
) -> FaultPoint:
    """Serve one bursty scenario under a fault model; reduce to a point.

    Module-level and picklable so the sweeps fan out through
    :func:`repro.sim.sweep.run_sweep`.  ``rate_rps`` is the *mean* offered
    rate; the bursty process's base/burst rates are derived from it so the
    same mean load compares across scenarios.  ``obs`` threads serving-level
    instrumentation through (only bound when the sweep runs serially:
    registries mutated inside pool workers would be invisible copies).
    """
    accelerator = build_accelerator(accelerator_name)
    model = build_model(model_index)
    # Mean MMPP rate = weighted base/burst mix; solve base rate for the mean.
    base_weight = BASE_DWELL_FRACTION / (BASE_DWELL_FRACTION + BURST_DWELL_FRACTION)
    burst_weight = 1.0 - base_weight
    base_rate = rate_rps / (base_weight + burst_weight * BURST_FACTOR)
    duration_s = n_requests / rate_rps
    traffic = BurstyTraffic(
        base_rate_rps=base_rate,
        burst_rate_rps=BURST_FACTOR * base_rate,
        duration_s=duration_s,
        mean_base_dwell_s=BASE_DWELL_FRACTION * duration_s,
        mean_burst_dwell_s=BURST_DWELL_FRACTION * duration_s,
    )
    report = serve_trace(
        model,
        accelerator,
        traffic,
        BatchPolicy(
            max_batch_size=max_batch,
            max_wait_s=2.0 * max_batch / rate_rps,
            max_queue_depth=max_queue_depth,
        ),
        n_workers=fleet_size,
        seed=seed,
        faults=FaultModel(
            crash_mtbf_s=crash_mtbf_s,
            repair_mttr_s=repair_mttr_s,
            throttle_mtbf_s=throttle_mtbf_s,
            throttle_duration_s=throttle_duration_s,
            throttle_derate=throttle_derate,
        ),
        retry=RetryPolicy(max_attempts=max_attempts, backoff_s=backoff_s),
        obs=obs,
    )
    return FaultPoint(
        label=label,
        fleet_size=fleet_size,
        crash_mtbf_s=crash_mtbf_s,
        repair_mttr_s=repair_mttr_s,
        throttle_derate=throttle_derate,
        offered_rps=rate_rps,
        availability=report.availability,
        throughput_rps=report.throughput_rps,
        goodput_rps=report.goodput_rps,
        p99_latency_s=report.p99_latency_s,
        energy_per_request_j=report.energy_per_request_j,
        n_arrivals=report.n_arrivals,
        n_retries=report.n_retries,
        n_failed=report.n_failed,
        n_lost_batches=report.n_lost_batches,
        shed_rate=report.shed_rate,
        wasted_busy_s=report.wasted_busy_s,
    )


@dataclass(frozen=True)
class CrashDemo:
    """Deterministic crash-mid-batch demonstration (one drained worker)."""

    scenario: str
    n_requests: int
    n_completed: int
    n_retries: int
    n_failed: int
    n_lost_batches: int
    completion_workers: tuple[int, ...]
    trace_kinds: tuple[str, ...]


def crash_mid_batch_demo(
    accelerator_name: str = "Cross_opt_TED",
    model_index: int = 1,
    max_batch: int = 8,
    max_attempts: int = 3,
    obs: "Observability | None" = None,
) -> CrashDemo:
    """Drain a worker halfway through its only batch and watch the recovery.

    A full batch of ``max_batch`` simultaneous requests dispatches to
    worker 0 at t=0; a permanent drain scheduled at half the batch latency
    kills it mid-flight.  With retries enabled every request re-queues and
    completes on worker 1; with ``max_attempts=1`` the same requests all
    terminally fail.  Fully deterministic -- no random fault process is
    involved.
    """
    accelerator = build_accelerator(accelerator_name)
    model = build_model(model_index)
    latency_s = accelerator.batch_latency_s(model.workloads(), max_batch)
    report = serve_trace(
        model,
        accelerator,
        TraceTraffic([0.0] * max_batch),
        BatchPolicy(max_batch_size=max_batch, max_wait_s=latency_s),
        n_workers=2,
        seed=0,
        faults=FaultModel(drain_at_s=((0, 0.5 * latency_s),)),
        retry=RetryPolicy(max_attempts=max_attempts),
        obs=obs,
    )
    completion_workers = tuple(
        sorted({record.worker_id for record in report.requests})
    )
    scenario = (
        "retries complete on the survivor"
        if max_attempts > 1
        else "retries disabled: requests fail"
    )
    return CrashDemo(
        scenario=scenario,
        n_requests=report.n_arrivals,
        n_completed=report.n_completed,
        n_retries=report.n_retries,
        n_failed=report.n_failed,
        n_lost_batches=report.n_lost_batches,
        completion_workers=completion_workers,
        trace_kinds=tuple(event.kind for event in report.event_trace),
    )


@dataclass(frozen=True)
class ServingFaultsResult:
    """Everything the fault study produced."""

    baseline: FaultPoint
    crash_sweep: tuple[FaultPoint, ...]
    throttle_sweep: tuple[FaultPoint, ...]
    headroom: tuple[FaultPoint, ...]
    demos: tuple[CrashDemo, ...]
    capacity_rps: float

    def crash_point(self, mtbf_s: float, mttr_s: float) -> FaultPoint:
        """The crash-sweep point at one (MTBF, MTTR) pair."""
        for point in self.crash_sweep:
            if point.crash_mtbf_s == mtbf_s and point.repair_mttr_s == mttr_s:
                return point
        raise KeyError(f"no crash point for mtbf={mtbf_s}, mttr={mttr_s}")


def run(
    accelerator_name: str = "Cross_opt_TED",
    n_requests: int = 1200,
    fleet_size: int = 4,
    model_index: int = 1,
    max_batch: int = 8,
    load_fraction: float = 0.55,
    mtbf_fractions: tuple[float, ...] = (0.5, 0.25, 0.1),
    mttr_fractions: tuple[float, ...] = (0.02, 0.1),
    derates: tuple[float, ...] = (1.5, 2.0, 4.0),
    headroom_extra: int = 3,
    max_attempts: int = 3,
    seed: int = 0,
    executor: SweepExecutor | None = None,
    obs: "Observability | None" = None,
) -> ServingFaultsResult:
    """Run the full fault study (crash sweep, throttles, headroom, demos).

    MTBF and MTTR are specified as fractions of the traffic window, so the
    expected *number* of fault events -- not their absolute timing -- is
    what stays fixed as ``n_requests`` rescales the run.

    ``obs`` always instruments the sweep layer; serving-level metrics and
    worker trace tracks additionally light up when the sweep runs serially
    (pool workers only mutate pickled registry copies, so obs is withheld
    from fanned-out points rather than silently dropped).
    """
    capacity = fleet_capacity_rps(accelerator_name, max_batch, fleet_size, model_index)
    rate = load_fraction * capacity
    duration_s = n_requests / rate
    common = {
        "accelerator_name": accelerator_name,
        "rate_rps": rate,
        "n_requests": n_requests,
        "fleet_size": fleet_size,
        "max_batch": max_batch,
        "model_index": model_index,
        "seed": seed,
        "max_attempts": max_attempts,
    }

    points = [dict(common, label="baseline")]
    for mtbf_fraction in mtbf_fractions:
        for mttr_fraction in mttr_fractions:
            points.append(
                dict(
                    common,
                    label=f"crash mtbf={mtbf_fraction:g}T mttr={mttr_fraction:g}T",
                    crash_mtbf_s=mtbf_fraction * duration_s,
                    repair_mttr_s=mttr_fraction * duration_s,
                )
            )
    for derate in derates:
        points.append(
            dict(
                common,
                label=f"throttle derate={derate:g}x",
                throttle_mtbf_s=0.25 * duration_s,
                throttle_duration_s=0.1 * duration_s,
                throttle_derate=derate,
            )
        )
    # Headroom: a fixed crash regime, growing the fleet while the offered
    # load stays pinned to the *base* fleet's capacity fraction.
    headroom_mtbf = 0.25 * duration_s
    headroom_mttr = 0.1 * duration_s
    headroom_sizes = tuple(range(fleet_size, fleet_size + headroom_extra + 1))
    for size in headroom_sizes:
        points.append(
            dict(
                common,
                label=f"headroom fleet={size}",
                fleet_size=size,
                crash_mtbf_s=headroom_mtbf,
                repair_mttr_s=headroom_mttr,
            )
        )

    sweep = run_sweep(
        _instrumented(evaluate_fault_scenario, executor, obs),
        points, executor=executor, obs=obs,
    )
    values = list(sweep.values)
    baseline = values[0]
    n_crash = len(mtbf_fractions) * len(mttr_fractions)
    crash_points = tuple(values[1 : 1 + n_crash])
    throttle_points = tuple(values[1 + n_crash : 1 + n_crash + len(derates)])
    headroom_points = tuple(values[1 + n_crash + len(derates) :])

    demos = (
        crash_mid_batch_demo(
            accelerator_name, model_index, max_batch,
            max_attempts=max(2, max_attempts), obs=obs,
        ),
        crash_mid_batch_demo(
            accelerator_name, model_index, max_batch, max_attempts=1, obs=obs
        ),
    )
    return ServingFaultsResult(
        baseline=baseline,
        crash_sweep=crash_points,
        throttle_sweep=throttle_points,
        headroom=headroom_points,
        demos=demos,
        capacity_rps=capacity,
    )


def _point_row(point: FaultPoint) -> list:
    return [
        point.label,
        f"{point.availability:.1%}",
        f"{point.goodput_rps:,.0f}",
        f"{point.throughput_rps:,.0f}",
        point.p99_latency_s * 1e6,
        point.energy_per_request_j * 1e6,
        point.n_lost_batches,
        point.n_retries,
        point.n_failed,
        f"{point.shed_rate:.1%}",
    ]


def _render(result: ServingFaultsResult, seed: int = 0) -> str:
    """Render the fault study as text tables."""
    headers = [
        "Scenario", "Avail", "Goodput (rps)", "Throughput (rps)", "p99 (us)",
        "Energy/req (uJ)", "Lost", "Retries", "Failed", "Shed",
    ]
    crash = format_table(
        headers,
        [_point_row(result.baseline)] + [_point_row(p) for p in result.crash_sweep],
        float_format="{:.1f}",
    )
    throttle = format_table(
        headers,
        [_point_row(p) for p in result.throttle_sweep],
        float_format="{:.1f}",
    )
    headroom = format_table(
        ["Fleet", "Avail", "Goodput (rps)", "p99 (us)", "Utility p99 vs fault-free"],
        [
            [
                p.fleet_size,
                f"{p.availability:.1%}",
                f"{p.goodput_rps:,.0f}",
                p.p99_latency_s * 1e6,
                f"{p.p99_latency_s / result.baseline.p99_latency_s:.2f}x",
            ]
            for p in result.headroom
        ],
        float_format="{:.1f}",
    )
    demo_lines = [
        f"  {demo.scenario}: {demo.n_requests} requests, "
        f"{demo.n_lost_batches} batch lost mid-flight, {demo.n_retries} retries, "
        f"{demo.n_completed} completed on workers {list(demo.completion_workers)}, "
        f"{demo.n_failed} failed"
        for demo in result.demos
    ]
    return (
        "Serving fault study - crashes, throttles, and graceful degradation\n"
        f"(fleet capacity {result.capacity_rps:,.0f} rps, offered "
        f"{result.baseline.offered_rps:,.0f} rps bursty, seed={seed}; "
        "T = traffic window)\n\n"
        "Crash sensitivity (exponential MTBF/MTTR, retries at queue front):\n"
        f"{crash}\n\n"
        "Thermal-throttle severity (episodes on ~1/4 of the timeline):\n"
        f"{throttle}\n\n"
        "Fleet-sizing headroom (crash mtbf=0.25T mttr=0.1T, fixed load):\n"
        f"{headroom}\n\n"
        "Crash-mid-batch demo (deterministic drain at half batch latency):\n"
        + "\n".join(demo_lines)
        + "\n"
    )


@dataclass(frozen=True)
class ServingFaultsConfig(StudyConfig):
    """Run-config of the serving fault study."""

    n_requests: int = field(
        default=1200,
        metadata={"help": "target request count per serving run", "min": 1},
    )
    fleet_size: int = field(
        default=4, metadata={"help": "accelerator workers per fleet", "min": 1}
    )
    model_index: int = field(
        default=1,
        metadata={"help": "Table-I model served", "choices": (1, 2, 3, 4)},
    )
    max_batch: int = field(
        default=8, metadata={"help": "maximum micro-batch size", "min": 1}
    )
    load_fraction: float = field(
        default=0.55,
        metadata={"help": "mean offered load as a fraction of fleet capacity",
                  "min": 0.05, "max": 2.0},
    )
    mtbf_fractions: tuple[float, ...] = field(
        default=(0.5, 0.25, 0.1),
        metadata={"help": "crash MTBF values, as fractions of the traffic window",
                  "min": 1e-6, "nonempty": True},
    )
    mttr_fractions: tuple[float, ...] = field(
        default=(0.02, 0.1),
        metadata={"help": "repair MTTR values, as fractions of the traffic window",
                  "min": 1e-6, "nonempty": True},
    )
    derates: tuple[float, ...] = field(
        default=(1.5, 2.0, 4.0),
        metadata={"help": "thermal-throttle latency derate factors swept",
                  "min": 1.0, "nonempty": True},
    )
    headroom_extra: int = field(
        default=3,
        metadata={"help": "extra workers swept for the headroom curve", "min": 0},
    )
    max_attempts: int = field(
        default=3,
        metadata={"help": "total dispatch attempts per request before failing",
                  "min": 1},
    )


@experiment(
    "serving_faults",
    config=ServingFaultsConfig,
    title="Serving fault study - crashes, throttles, and graceful degradation",
    artefact="beyond the paper",
)
def _study(
    config: ServingFaultsConfig, ctx: RunContext
) -> tuple[ServingFaultsResult, str]:
    """Fault-injection study: crash/throttle sweeps, headroom, crash demo."""
    result = run(
        n_requests=config.n_requests,
        fleet_size=config.fleet_size,
        model_index=config.model_index,
        max_batch=config.max_batch,
        load_fraction=config.load_fraction,
        mtbf_fractions=config.mtbf_fractions,
        mttr_fractions=config.mttr_fractions,
        derates=config.derates,
        headroom_extra=config.headroom_extra,
        max_attempts=config.max_attempts,
        seed=ctx.seed,
        executor=ctx.executor,
        obs=ctx.obs,
    )
    return result, _render(result, seed=ctx.seed)
