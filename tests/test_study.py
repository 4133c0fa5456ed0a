"""Tests for the experiment registry, typed configs, and the repro CLI.

Covers the API-redesign contract:

* the registry names all 13 experiments and resolves legacy module names;
* ``repro run <name> [flags]`` prints ``run_experiment(name, ...).to_text()``
  byte for byte, at reduced scale where a full run would train models for
  minutes;
* ``StudyReport`` round-trips through dict/JSON losslessly;
* config dataclasses validate on construction (hypothesis-driven);
* ``import repro.experiments`` is lazy and stays within its time budget;
* ``benchmarks/compare.py`` reads the StudyReport JSON envelope.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import (
    device_dse,
    fig4_thermal,
    fig5_resolution_accuracy,
    fig6_design_space,
    fig7_power,
    resolution_analysis,
    serving_study,
    table1_models,
    table2_devices,
)
from repro.sim import sweep as sweep_module
from repro.study import (
    StudyConfig,
    StudyReport,
    StudyRunner,
    all_experiments,
    experiment_names,
    get_experiment,
    run_experiment,
)
from repro.study.cli import main as cli_main

ALL_NAMES = (
    "table1_models",
    "table2_devices",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table3_summary",
    "device_dse",
    "resolution_analysis",
    "ablation",
    "serving_study",
    "serving_faults",
)

#: Pre-redesign text of the Table II driver, pinned verbatim: the
#: device constants are static, so this must never change.
TABLE2_GOLDEN = """\
Table II reproduction - optoelectronic device parameters
Device         Latency        Power  Paper latency  Paper power
-------------  -------  -----------  -------------  -----------
EO Tuning        20 ns      4 uW/nm          20 ns      4 uW/nm
TO Tuning         4 us  27.5 mW/FSR           4 us  27.5 mW/FSR
VCSEL            10 ns      0.66 mW          10 ns      0.66 mW
TIA            0.15 ns       7.2 mW        0.15 ns       7.2 mW
Photodetector   5.8 ps       2.8 mW         5.8 ps       2.8 mW"""


@dataclass(frozen=True)
class DemoConfig(StudyConfig):
    """Exercises every supported config field kind."""

    flag: bool = False
    count: int = field(default=3, metadata={"min": 1, "max": 10})
    ratio: float = 0.5
    label: str = "x"
    sizes: tuple[int, ...] = field(
        default=(1, 2), metadata={"min": 1, "nonempty": True}
    )
    note: str | None = None


class TestRegistry:
    def test_names_all_thirteen(self):
        assert experiment_names() == ALL_NAMES

    def test_all_experiments_registered(self):
        experiments = all_experiments()
        assert [exp.name for exp in experiments] == list(ALL_NAMES)
        for exp in experiments:
            assert exp.artefact and exp.title and exp.description
            assert issubclass(exp.config_cls, StudyConfig)

    def test_module_name_aliases_resolve(self):
        assert get_experiment("fig4_thermal").name == "fig4"
        assert get_experiment("fig5_resolution_accuracy").name == "fig5"
        assert get_experiment("fig6_design_space").name == "fig6"
        assert get_experiment("fig7_power").name == "fig7"
        assert get_experiment("fig8_epb").name == "fig8"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("nope")


class TestEquivalenceCheap:
    """``repro run <name>`` == registry ``to_text()``, full scale, cheap experiments."""

    @pytest.mark.parametrize(
        "name, module",
        [
            ("table1_models", table1_models),
            ("table2_devices", table2_devices),
            ("fig4", fig4_thermal),
            ("fig7", fig7_power),
            ("device_dse", device_dse),
            ("resolution_analysis", resolution_analysis),
        ],
    )
    def test_main_matches_registry(self, name, module, capsys):
        # The driver module's basename names the same experiment.
        assert get_experiment(module.__name__.rsplit(".", 1)[1]) is get_experiment(name)
        assert cli_main(["run", name]) == 0
        assert capsys.readouterr().out == run_experiment(name).to_text() + "\n"

    def test_table2_pinned_against_pre_redesign_output(self):
        assert run_experiment("table2_devices").to_text() == TABLE2_GOLDEN


def _cli_text(capsys, name: str, *flags: str) -> str:
    """What ``repro run <name> <flags>`` prints, without the final newline."""
    assert cli_main(["run", name, *flags]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    return out[:-1]


class TestEquivalenceReduced:
    """CLI flags == registry keyword overrides at reduced scale, heavy drivers."""

    def test_fig5(self, capsys):
        argv = [
            "--model-indices", "1",
            "--bits-sweep", "1", "16",
            "--epochs", "2",
            "--n-train", "60",
            "--n-test", "40",
        ]
        report = run_experiment(
            "fig5",
            model_indices=(1,),
            bits_sweep=(1, 16),
            epochs=2,
            n_train=60,
            n_test=40,
        )
        assert _cli_text(capsys, "fig5", *argv) == report.to_text()
        assert "Fig. 5 reproduction" in report.to_text()

    def test_fig6(self, capsys):
        flat = (20, 150, 100, 60, 10, 100, 50, 30)
        argv = ["--geometries", *map(str, flat), "--max-rows", "2"]
        report = run_experiment("fig6", geometries=flat, max_rows=2)
        assert _cli_text(capsys, "fig6", *argv) == report.to_text()
        assert report.to_text().startswith("Fig. 6 reproduction")

    def test_serving_study(self, capsys):
        report = run_experiment("serving_study", n_requests=150)
        assert _cli_text(capsys, "serving_study", "--n-requests", "150") == report.to_text()
        assert "(fleet=1, ~150 requests/run, seed=0)" in report.to_text()

    def test_serving_study_precomputed_result_render(self):
        report = run_experiment("serving_study", n_requests=150)
        text = serving_study._render(report.result, fleet_size=1, n_requests=150, seed=0)
        assert text == report.to_text()

    def test_ablation_without_accuracy(self, capsys):
        report = run_experiment("ablation", include_drift_accuracy=False)
        assert _cli_text(capsys, "ablation", "--no-include-drift-accuracy") == report.to_text()
        assert "Ablation 4" not in report.to_text()


class TestStudyReport:
    @pytest.fixture(scope="class")
    def report(self):
        return run_experiment("table2_devices", seed=7)

    def test_dict_round_trip(self, report):
        clone = StudyReport.from_dict(report.to_dict())
        assert clone.to_dict() == report.to_dict()
        assert clone.to_text() == report.to_text()
        assert clone.result is None  # typed result is not serialised

    def test_json_round_trip(self, report):
        clone = StudyReport.from_json(report.to_json())
        assert clone == StudyReport.from_dict(report.to_dict())

    def test_envelope_contents(self, report):
        envelope = report.envelope
        assert envelope["seed"] == 7
        assert envelope["n_workers"] is None
        assert envelope["wall_time_s"] >= 0.0
        assert isinstance(envelope["cache"], dict)
        assert envelope["cache_hits"] >= 0 and envelope["cache_misses"] >= 0
        from repro import __version__

        assert envelope["version"] == __version__

    def test_records_are_jsonable(self, report):
        payload = json.dumps(report.records)
        rows = json.loads(payload)
        assert rows[0]["kind"] == "DeviceRow"
        assert rows[0]["device"] == "EO Tuning"

    def test_bad_schema_rejected(self, report):
        data = report.to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            StudyReport.from_dict(data)

    def test_missing_keys_rejected(self, report):
        data = report.to_dict()
        del data["records"]
        with pytest.raises(ValueError, match="missing"):
            StudyReport.from_dict(data)

    def test_cache_accounting_attributes_hits_to_the_run(self):
        # fig4 memoizes crosstalk matrices / TED eigendecompositions; a
        # second identical run must see cache hits in its own envelope.
        run_experiment("fig4")
        again = run_experiment("fig4")
        assert again.envelope["cache_hits"] > 0


class TestStudyRunner:
    def test_run_all_subset_in_order(self):
        with StudyRunner() as runner:
            reports = runner.run_all(["table2_devices", "table1_models"])
        assert [r.experiment for r in reports] == ["table2_devices", "table1_models"]

    def test_config_object_and_overrides_conflict(self):
        exp = get_experiment("fig4")
        config = exp.config_cls()
        with StudyRunner() as runner:
            with pytest.raises(TypeError, match="not both"):
                runner.run("fig4", config, n_rings=5)

    def test_wrong_config_type_rejected(self):
        config = get_experiment("fig4").config_cls()
        with StudyRunner() as runner:
            with pytest.raises(TypeError, match="expects"):
                runner.run("table2_devices", config)

    def test_serial_runner_creates_no_executor(self):
        with StudyRunner(n_workers=1) as runner:
            assert runner.executor is None

    def test_parallel_runner_reuses_one_executor(self):
        with StudyRunner(n_workers=2) as runner:
            first = runner.executor
            assert first is runner.executor
            report = runner.run("fig6", geometries=(20, 150, 100, 60, 10, 100, 50, 30))
            assert report.envelope["n_workers"] == 2
        assert runner._executor is None  # closed on exit

    def test_parallel_matches_serial(self):
        flat = (20, 150, 100, 60, 10, 100, 50, 30)
        serial = run_experiment("fig6", geometries=flat)
        parallel = run_experiment("fig6", n_workers=2, geometries=flat)
        assert serial.to_text() == parallel.to_text()
        assert serial.records == parallel.records

    def test_session_starts_one_pool(self, monkeypatch):
        # Every fanned-out sweep of a session -- both Monte-Carlo studies of
        # the ablation and the fig6 geometries -- runs on the runner's pool.
        runs = (
            ("ablation", {"include_fpv_monte_carlo": True}),
            ("fig6", {"geometries": (20, 150, 100, 60, 10, 100, 50, 30)}),
        )
        with StudyRunner() as runner:
            serial = [runner.run(name, **overrides).to_text() for name, overrides in runs]
        pools = []
        real_pool = sweep_module.ProcessPoolExecutor

        def counting_pool(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", counting_pool)
        with StudyRunner(n_workers=2) as runner:
            parallel = [runner.run(name, **overrides).to_text() for name, overrides in runs]
        assert len(pools) == 1
        assert parallel == serial

    def test_invalid_runner_args(self):
        with pytest.raises(TypeError):
            StudyRunner(seed="zero")
        with pytest.raises(ValueError):
            StudyRunner(n_workers=-1)


class TestConfigValidation:
    def test_defaults_construct(self):
        config = DemoConfig()
        assert config.count == 3 and config.sizes == (1, 2)

    def test_list_coerced_to_tuple(self):
        assert DemoConfig(sizes=[3, 4]).sizes == (3, 4)

    def test_from_dict_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            DemoConfig.from_dict({"cuont": 5})

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ValueError, match="count"):
            DemoConfig(count=True)

    def test_optional_accepts_none(self):
        assert DemoConfig(note=None).note is None
        assert DemoConfig(note="hi").note == "hi"

    def test_int_accepted_as_float(self):
        config = DemoConfig(ratio=1)
        assert config.ratio == 1.0 and isinstance(config.ratio, float)

    @given(count=st.integers(min_value=1, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_cli_round_trip_int(self, count):
        config = DemoConfig.from_cli_args(["--count", str(count)])
        assert config.count == count
        assert DemoConfig.from_dict(config.to_dict()) == config

    @given(sizes=st.lists(st.integers(min_value=1, max_value=99), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_cli_round_trip_tuple(self, sizes):
        argv = ["--sizes", *map(str, sizes)]
        config = DemoConfig.from_cli_args(argv)
        assert config.sizes == tuple(sizes)
        assert DemoConfig.from_dict(config.to_dict()) == config

    @given(count=st.integers().filter(lambda n: n < 1 or n > 10))
    @settings(max_examples=25, deadline=None)
    def test_out_of_range_int_rejected(self, count):
        with pytest.raises(ValueError, match="count"):
            DemoConfig(count=count)

    @given(
        value=st.one_of(st.text(), st.floats(), st.booleans(), st.binary())
    )
    @settings(max_examples=25, deadline=None)
    def test_non_int_count_rejected(self, value):
        with pytest.raises(ValueError):
            DemoConfig(count=value)

    @given(flag=st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_bool_optional_action_flags(self, flag):
        argv = ["--flag"] if flag else ["--no-flag"]
        assert DemoConfig.from_cli_args(argv).flag is flag

    def test_sizes_element_range_enforced(self):
        with pytest.raises(ValueError, match="sizes"):
            DemoConfig(sizes=(1, 0))

    def test_nonempty_tuple_enforced(self):
        with pytest.raises(ValueError, match="must not be empty"):
            DemoConfig(sizes=())
        with pytest.raises(ValueError, match="must not be empty"):
            fig5_resolution_accuracy.Fig5Config(model_indices=())

    def test_fig6_geometry_quadruple_check(self):
        with pytest.raises(ValueError, match="quadruples"):
            fig6_design_space.Fig6Config(geometries=(1, 2, 3))

    def test_unsupported_annotation_rejected(self):
        @dataclass(frozen=True)
        class Bad(StudyConfig):
            mapping: dict = dataclasses.field(default_factory=dict)

        with pytest.raises(TypeError, match="unsupported annotation"):
            Bad()


class TestCli:
    def test_list_names_all_experiments(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_NAMES:
            assert name in out

    def test_describe_shows_flags(self, capsys):
        assert cli_main(["describe", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "--epochs" in out and "--bits-sweep" in out and "Fig. 5" in out

    def test_describe_no_flags_experiment(self, capsys):
        assert cli_main(["describe", "table2_devices"]) == 0
        assert "no config flags" in capsys.readouterr().out

    def test_run_text(self, capsys):
        assert cli_main(["run", "table2_devices"]) == 0
        assert capsys.readouterr().out.strip() == TABLE2_GOLDEN

    def test_run_json_round_trips(self, capsys):
        assert cli_main(["run", "table2_devices", "--json"]) == 0
        report = StudyReport.from_json(capsys.readouterr().out)
        assert report.experiment == "table2_devices"
        assert report.to_text() == TABLE2_GOLDEN

    def test_run_with_config_flags(self, capsys):
        assert cli_main(["run", "fig4", "--n-rings", "4", "--json"]) == 0
        report = StudyReport.from_json(capsys.readouterr().out)
        assert report.config["n_rings"] == 4

    def test_run_out_file(self, tmp_path, capsys):
        out = tmp_path / "fig4.json"
        assert cli_main(["run", "fig4", "--json", "--out", str(out)]) == 0
        capsys.readouterr()
        assert StudyReport.from_json(out.read_text()).experiment == "fig4"

    def test_unknown_experiment_exit_code(self, capsys):
        assert cli_main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_name_and_all_conflict(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run", "fig4", "--all"])

    def test_run_requires_name_or_all(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["run"])

    def test_invalid_config_flag_value(self, capsys):
        assert cli_main(["run", "fig4", "--n-rings", "1"]) == 2
        assert "n_rings" in capsys.readouterr().err

    def test_python_m_repro_entry(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "table2_devices"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == TABLE2_GOLDEN


class TestLazyExperimentsImport:
    def test_import_is_lazy_and_within_budget(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        code = (
            "import sys, time\n"
            "import repro\n"
            "t0 = time.perf_counter()\n"
            "import repro.experiments\n"
            "elapsed = time.perf_counter() - t0\n"
            "heavy = [m for m in sys.modules if m.startswith('repro.experiments.')]\n"
            "assert not heavy, f'eagerly imported: {heavy}'\n"
            "mod = repro.experiments.fig4_thermal\n"
            "assert 'repro.experiments.fig4_thermal' in sys.modules\n"
            "assert sorted(set(dir(repro.experiments)) & {'ablation', 'fig8_epb'}) == ['ablation', 'fig8_epb']\n"
            "print(elapsed)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        # The lazy package __init__ imports nothing heavy: give it a full
        # second of budget to stay robust on slow CI machines (the eager
        # version cost several seconds of driver imports).
        assert float(proc.stdout.strip()) < 1.0

    def test_unknown_attribute_raises(self):
        import repro.experiments

        with pytest.raises(AttributeError):
            repro.experiments.not_a_driver


class TestCompareEnvelope:
    @pytest.fixture(scope="class")
    def compare(self):
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"
        spec = importlib.util.spec_from_file_location("bench_compare", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_reads_single_report_envelope(self, compare, tmp_path):
        report = run_experiment("table2_devices")
        path = tmp_path / "report.json"
        path.write_text(report.to_json())
        means = compare.load_means(path)
        assert list(means) == ["study:table2_devices"]
        assert means["study:table2_devices"] == pytest.approx(
            report.envelope["wall_time_s"]
        )

    def test_reads_manifest_with_embedded_reports(self, compare, tmp_path):
        reports = [run_experiment("table2_devices"), run_experiment("fig4")]
        payload = {
            "schema": 1,
            "kind": "manifest",
            "reports": [r.to_dict() for r in reports],
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        means = compare.load_means(path)
        assert set(means) == {"study:table2_devices", "study:fig4"}

    def test_reads_on_disk_manifest_summaries(self, compare, tmp_path):
        payload = {
            "schema": 1,
            "kind": "manifest",
            "reports": {"fig4": {"file": "fig4.json", "wall_time_s": 0.25}},
        }
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        assert compare.load_means(path) == {"study:fig4": 0.25}

    def test_study_floor_comparison_flags_regression(self, compare, tmp_path):
        base = {"study:fig4": 1.0, "study:x": 1.0, "study:y": 1.0}
        cur = {"study:fig4": 2.0, "study:x": 1.0, "study:y": 1.0}
        regressions, factor = compare.compare(cur, base, 1.2)
        assert factor == 1.0
        assert [name for name, *_ in regressions] == ["study:fig4"]

    def test_pytest_benchmark_payload_still_reads(self, compare, tmp_path):
        payload = {"benchmarks": [{"fullname": "t::b", "stats": {"mean": 0.5}}]}
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        assert compare.load_means(path) == {"t::b": 0.5}
