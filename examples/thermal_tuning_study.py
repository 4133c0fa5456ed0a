"""Device/circuit-level study: FPV drift, thermal crosstalk, and TED tuning.

This example exercises the device and circuit layers of the library the way
Sections IV.A and IV.B of the paper do:

1. rerun the MR waveguide-width design-space exploration and show the
   FPV-drift reduction of the optimized 400/800 nm design;
2. solve the finite-difference heat problem that stands in for Lumerical
   HEAT and extract the lateral decay length of heater crosstalk;
3. sweep the spacing of a 10-MR block and compare the per-MR tuning power
   with and without TED collective tuning (the Fig. 4 study), confirming the
   5 um optimum;
4. show what the hybrid tuning policy plans for a 15-MR CrossLight bank
   (static TO power for FPV compensation, dynamic EO power for weight
   imprinting) for each of the four variants.

Run with:  python examples/thermal_tuning_study.py
"""

from __future__ import annotations

from repro.devices import CONVENTIONAL_MR, OPTIMIZED_MR
from repro.sim import format_table
from repro.study import run_experiment
from repro.tuning import ConventionalTOTuningPolicy, HybridTuningPolicy
from repro.variations import HeatSolver1D, fit_decay_length_um


def main() -> None:
    # 1. Device design-space exploration.
    print(run_experiment("device_dse", max_rows=6).to_text())

    # 2. Heat-solver calibration of the thermal-crosstalk decay length.
    solver = HeatSolver1D()
    decay = fit_decay_length_um(solver)
    print(
        f"\nFinite-difference heat solver: analytic decay length "
        f"{solver.stack.analytic_decay_length_um:.1f} um, fitted {decay:.1f} um"
    )

    # 3. Fig. 4 sweep: tuning power vs MR spacing, with and without TED.
    print()
    print(run_experiment("fig4").to_text())

    # 4. Hybrid tuning plans for a 15-MR bank under each variant's policy.
    print("\nPer-bank tuning plans (15 MRs):")
    rows = []
    policies = {
        "Cross_base": ConventionalTOTuningPolicy(mr_design=CONVENTIONAL_MR),
        "Cross_base_TED": HybridTuningPolicy(mr_design=CONVENTIONAL_MR, use_ted=True),
        "Cross_opt": ConventionalTOTuningPolicy(mr_design=OPTIMIZED_MR),
        "Cross_opt_TED": HybridTuningPolicy(mr_design=OPTIMIZED_MR, use_ted=True),
    }
    for name, policy in policies.items():
        plan = policy.plan_bank(n_mrs=15)
        rows.append(
            [
                name,
                plan.static_to_power_w * 1e3,
                plan.dynamic_eo_power_w * 1e3,
                plan.total_power_w * 1e3,
                plan.update_latency_s * 1e9,
            ]
        )
    print(
        format_table(
            ["Variant", "Static TO (mW)", "Dynamic (mW)", "Total (mW)", "Update latency (ns)"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
