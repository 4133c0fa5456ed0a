"""Experiment E-F7: reproduce Fig. 7 (power consumption comparison).

Fig. 7 compares the total power of the four CrossLight variants against the
two photonic baselines (DEAP-CNN, HolyLight) and six electronic platforms
(P100 GPU, two CPUs, DaDianNao, EdgeTPU, NullHop).  The photonic numbers come
from this reproduction's power models; the electronic numbers are the
published reference values the paper itself uses.

The qualitative claims to reproduce:

* power decreases monotonically from Cross_base to Cross_opt_TED as the
  device- and circuit-level optimizations are stacked;
* Cross_opt_TED consumes less power than both photonic baselines and the
  CPU/GPU platforms, but more than the edge/mobile electronic accelerators.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.accelerator import CrossLightAccelerator
from repro.arch.power import PowerBreakdown
from repro.baselines.deap_cnn import DeapCnnAccelerator
from repro.baselines.electronic import ELECTRONIC_PLATFORMS
from repro.baselines.holylight import HolyLightAccelerator
from repro.sim.results import format_table
from repro.study import RunContext, StudyConfig, experiment


@dataclass(frozen=True)
class PowerRow:
    """Power of one platform in the Fig. 7 comparison."""

    name: str
    kind: str
    power_w: float
    breakdown: PowerBreakdown | None = None


def run() -> list[PowerRow]:
    """Compute/collect the power of every platform in the comparison."""
    rows: list[PowerRow] = []
    for accelerator in (DeapCnnAccelerator(), HolyLightAccelerator()):
        breakdown = accelerator.power_breakdown()
        rows.append(
            PowerRow(
                name=accelerator.name,
                kind="photonic (prior work)",
                power_w=breakdown.total_w,
                breakdown=breakdown,
            )
        )
    for accelerator in CrossLightAccelerator.all_variants():
        breakdown = accelerator.power_breakdown()
        rows.append(
            PowerRow(
                name=accelerator.name,
                kind="photonic (CrossLight)",
                power_w=breakdown.total_w,
                breakdown=breakdown,
            )
        )
    for platform in ELECTRONIC_PLATFORMS:
        rows.append(
            PowerRow(name=platform.name, kind=f"electronic ({platform.kind})", power_w=platform.power_w)
        )
    return rows


def _render(rows: list[PowerRow]) -> str:
    """Render the Fig. 7 power comparison as a text table."""
    table = format_table(
        ["Platform", "Type", "Power (W)"],
        [[r.name, r.kind, r.power_w] for r in rows],
    )
    return "Fig. 7 reproduction - power consumption comparison\n" + table


@dataclass(frozen=True)
class Fig7Config(StudyConfig):
    """Run-config of the Fig. 7 reproduction (no tunable settings)."""


@experiment(
    "fig7",
    config=Fig7Config,
    title="Fig. 7 - power consumption comparison",
    artefact="Fig. 7",
)
def _study(config: Fig7Config, ctx: RunContext) -> tuple[list[PowerRow], str]:
    """Reproduce Fig. 7: total power of every platform in the comparison."""
    rows = run()
    return rows, _render(rows)
