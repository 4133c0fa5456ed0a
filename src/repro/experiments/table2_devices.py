"""Experiment E-T2: reproduce Table II (optoelectronic device parameters).

Table II lists the latency and power of the active devices the simulation
uses (EO tuning, TO tuning, VCSEL, TIA, photodetector).  This driver simply
reads them back from :mod:`repro.devices.constants`, confirming that every
downstream analysis consumes exactly the values the paper tabulates, and
rendering them in the paper's units.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.constants import (
    EO_TUNING,
    PHOTODETECTOR,
    TIA,
    TO_TUNING,
    VCSEL,
)
from repro.sim.results import format_table
from repro.study import RunContext, StudyConfig, experiment


@dataclass(frozen=True)
class DeviceRow:
    """One row of the reproduced Table II."""

    device: str
    latency: str
    power: str
    paper_latency: str
    paper_power: str


def run() -> list[DeviceRow]:
    """Collect the Table II device parameters from the constants module."""
    return [
        DeviceRow(
            device="EO Tuning",
            latency=f"{EO_TUNING.latency_s * 1e9:.0f} ns",
            power=f"{EO_TUNING.power_per_nm_w * 1e6:.0f} uW/nm",
            paper_latency="20 ns",
            paper_power="4 uW/nm",
        ),
        DeviceRow(
            device="TO Tuning",
            latency=f"{TO_TUNING.latency_s * 1e6:.0f} us",
            power=f"{TO_TUNING.power_per_nm_w * 1e3:.1f} mW/FSR",
            paper_latency="4 us",
            paper_power="27.5 mW/FSR",
        ),
        DeviceRow(
            device="VCSEL",
            latency=f"{VCSEL.latency_s * 1e9:.0f} ns",
            power=f"{VCSEL.power_w * 1e3:.2f} mW",
            paper_latency="10 ns",
            paper_power="0.66 mW",
        ),
        DeviceRow(
            device="TIA",
            latency=f"{TIA.latency_s * 1e9:.2f} ns",
            power=f"{TIA.power_w * 1e3:.1f} mW",
            paper_latency="0.15 ns",
            paper_power="7.2 mW",
        ),
        DeviceRow(
            device="Photodetector",
            latency=f"{PHOTODETECTOR.latency_s * 1e12:.1f} ps",
            power=f"{PHOTODETECTOR.power_w * 1e3:.1f} mW",
            paper_latency="5.8 ps",
            paper_power="2.8 mW",
        ),
    ]


def _render(rows: list[DeviceRow]) -> str:
    """Render the reproduced Table II as text."""
    table = format_table(
        ["Device", "Latency", "Power", "Paper latency", "Paper power"],
        [[r.device, r.latency, r.power, r.paper_latency, r.paper_power] for r in rows],
    )
    return "Table II reproduction - optoelectronic device parameters\n" + table


@dataclass(frozen=True)
class Table2Config(StudyConfig):
    """Run-config of the Table II reproduction (no tunable settings)."""


@experiment(
    "table2_devices",
    config=Table2Config,
    title="Table II - optoelectronic device parameters",
    artefact="Table II",
)
def _study(config: Table2Config, ctx: RunContext) -> tuple[list[DeviceRow], str]:
    """Reproduce Table II: the device latency/power values the paper tabulates."""
    rows = run()
    return rows, _render(rows)
