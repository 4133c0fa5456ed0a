"""Guard the tracked hot paths against performance regressions.

Compares a fresh pytest-benchmark JSON run against the committed baseline
(``benchmarks/BENCH_PR6.json``) and fails (exit code 1) if any tracked
benchmark regressed beyond the threshold.

Because CI machines and the machine that produced the baseline differ in
absolute speed, raw mean-time comparison would flag (or mask) everything at
once.  The comparison is therefore *machine-normalised*: the median
current/baseline time ratio across all tracked benchmarks estimates the
machine-speed factor, and a benchmark counts as regressed only if its own
ratio exceeds ``factor * threshold`` -- i.e. it slowed down by more than the
threshold relative to the rest of the suite.  A uniform slowdown of every
benchmark at once is indistinguishable from a slower machine and is
deliberately not flagged.

Usage::

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json=BENCH_PR6.json
    python benchmarks/compare.py BENCH_PR6.json                # check
    python benchmarks/compare.py BENCH_PR6.json --update       # refresh baseline

``--update`` stores the run slimmed: the raw per-round ``stats.data`` arrays
are dropped (only ``stats.mean`` is compared), so the baseline stays small.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_BASELINE = Path(__file__).resolve().parent / "BENCH_PR6.json"
DEFAULT_THRESHOLD = 1.20


def _study_report_means(payload: dict) -> dict[str, float]:
    """Map ``study:<experiment>`` -> wall seconds from StudyReport JSON.

    Accepts all three shapes ``repro run`` emits: a single report
    (``{"experiment": ..., "envelope": {"wall_time_s": ...}}``), a
    ``run --all --json`` manifest embedding full reports as a list, and the
    on-disk ``manifest.json`` whose ``reports`` maps experiment names to
    summary entries holding ``wall_time_s``.
    """
    means: dict[str, float] = {}

    def add(name: object, wall: object) -> None:
        if isinstance(name, str) and isinstance(wall, (int, float)) and wall > 0:
            means[f"study:{name}"] = float(wall)

    reports = payload.get("reports")
    if isinstance(reports, list):
        for report in reports:
            if isinstance(report, dict):
                add(report.get("experiment"), (report.get("envelope") or {}).get("wall_time_s"))
    elif isinstance(reports, dict):
        for name, entry in reports.items():
            if isinstance(entry, dict):
                add(name, entry.get("wall_time_s"))
    else:
        add(payload.get("experiment"), (payload.get("envelope") or {}).get("wall_time_s"))
    return means


def load_means(path: Path) -> dict[str, float]:
    """Map benchmark name -> mean seconds from a benchmark or study JSON.

    Understands both pytest-benchmark output (keyed by benchmark fullname)
    and the experiment registry's StudyReport/manifest envelopes (keyed by
    ``study:<experiment>``, measuring wall time), so study runs can carry
    perf floors exactly like the microbenchmarks do.
    """
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        return {}
    if "benchmarks" not in payload:
        return _study_report_means(payload)
    means: dict[str, float] = {}
    for entry in payload.get("benchmarks", []):
        stats = entry.get("stats") or {}
        mean = stats.get("mean")
        name = entry.get("fullname") or entry.get("name")
        if name and isinstance(mean, (int, float)) and mean > 0:
            means[name] = float(mean)
    return means


def slim(payload: dict) -> dict:
    """``payload`` without the raw per-round samples of each benchmark."""
    for entry in payload.get("benchmarks", []):
        (entry.get("stats") or {}).pop("data", None)
    return payload


def compare(
    current: dict[str, float], baseline: dict[str, float], threshold: float
) -> tuple[list[tuple[str, float, float, float]], float]:
    """Return ([(name, baseline_s, current_s, normalised_ratio)], factor).

    Only benchmarks present in both runs are tracked; the returned list
    holds the regressed ones (normalised ratio above ``threshold``).
    """
    tracked = sorted(set(current) & set(baseline))
    if not tracked:
        return [], 1.0
    ratios = {name: current[name] / baseline[name] for name in tracked}
    factor = statistics.median(ratios.values())
    regressions = [
        (name, baseline[name], current[name], ratios[name] / factor)
        for name in tracked
        if ratios[name] / factor > threshold
    ]
    return regressions, factor


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, help="fresh pytest-benchmark JSON file")
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"committed baseline JSON (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="machine-normalised slowdown that counts as a regression "
             f"(default: {DEFAULT_THRESHOLD:.2f} = +{(DEFAULT_THRESHOLD - 1) * 100:.0f}%%)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="write the current run, slimmed, over the baseline instead of comparing",
    )
    args = parser.parse_args(argv)

    if args.update:
        payload = slim(json.loads(args.current.read_text()))
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    if not args.baseline.exists():
        print(f"no baseline at {args.baseline}; run with --update to create one")
        return 0

    current = load_means(args.current)
    baseline = load_means(args.baseline)
    tracked = sorted(set(current) & set(baseline))
    regressions, factor = compare(current, baseline, args.threshold)

    print(
        f"tracked {len(tracked)} hot-path benchmarks "
        f"(machine factor {factor:.2f}x, threshold +{(args.threshold - 1) * 100:.0f}%)"
    )
    for name in tracked:
        ratio = current[name] / baseline[name] / factor
        flag = "REGRESSED" if ratio > args.threshold else "ok"
        print(
            f"  {flag:>9}  {ratio:5.2f}x  {baseline[name] * 1e3:9.3f} ms -> "
            f"{current[name] * 1e3:9.3f} ms  {name}"
        )
    if regressions:
        print(f"\n{len(regressions)} hot path(s) regressed beyond the threshold")
        return 1
    print("\nno hot-path regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
