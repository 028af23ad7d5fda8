import csv
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from tests.helpers import forbid_draws
from verisim import scenario
from verisim.blocks import measure_verification_times
from verisim.cli import _load_scenarios, main as cli_main
from verisim.config import ScenarioConfig, standard_miners
from verisim.scenario import (
    RESULTS_HEADER,
    ci_halfwidth,
    closed_form_gain,
    run_sweep,
    validate_sweep,
)

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def small_config(toy_wl_path=None, **kw):
    defaults = dict(
        block_limit=8_000_000,
        miners=standard_miners(10, nonverifier_alpha=0.1),
        t_b=12.42,
        sim_duration=1800.0,
        runs=4,
        base_seed=11,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestSweep:
    def test_report_files(self, toy_wl, tmp_path):
        report = run_sweep([small_config()], toy_wl, tv_blocks=60)
        out = report.write(tmp_path / "out")
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == ",".join(RESULTS_HEADER)
        # one row per (config, run, miner)
        assert len(results) == 1 + 1 * 4 * 10
        assert (out / "summary.csv").exists()
        configs = json.loads((out / "configs.json").read_text())
        assert configs["0"]["block_limit"] == 8_000_000
        assert configs["0"]["base_seed"] == 11
        assert len(configs["0"]["miners"]) == 10

    def test_rerun_is_byte_identical(self, toy_wl, tmp_path):
        cfg = small_config()
        run_sweep([cfg], toy_wl, tv_blocks=60).write(tmp_path / "a")
        run_sweep([cfg], toy_wl, tv_blocks=60).write(tmp_path / "b")
        for name in ("results.csv", "summary.csv", "configs.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_cell_reproducible_from_fingerprint(self, toy_wl, tmp_path):
        report = run_sweep([small_config()], toy_wl, tv_blocks=60)
        out = report.write(tmp_path / "out")
        fingerprint = json.loads((out / "configs.json").read_text())["0"]
        rebuilt = ScenarioConfig.from_dict(fingerprint)
        again = run_sweep([rebuilt], toy_wl, tv_blocks=60)
        assert again.results[0][0] == report.results[0][0]

    def test_ci_shrinks_with_more_runs(self, toy_wl):
        cfg20 = small_config(runs=8, sim_duration=900.0)
        cfg40 = replace(cfg20, runs=32)
        r8 = run_sweep([cfg20], toy_wl, tv_blocks=40).cells[0]
        r32 = run_sweep([cfg40], toy_wl, tv_blocks=40).cells[0]
        # quadrupling the runs should roughly halve the halfwidth
        assert r32.sim_gain_ci95_pct < r8.sim_gain_ci95_pct * 0.8

    def test_validate_verdicts(self, toy_wl):
        report = run_sweep([small_config(runs=6)], toy_wl, tv_blocks=200)
        ((cell, relative, passed),) = validate_sweep(report, tolerance=5.0)
        assert cell is report.cells[0]
        assert relative == abs(cell.signed_deviation_pct) / abs(cell.closed_gain_pct)
        assert passed
        ((_, _, strict_passed),) = validate_sweep(report, tolerance=0.0)
        assert not strict_passed

    def test_validate_rejects_invalid_rate(self, toy_wl):
        honest = small_config(runs=1, sim_duration=600.0)
        miners = standard_miners(10, nonverifier_alpha=0.1, invalid_rate=0.04)
        punished = replace(honest, miners=miners, invalid_rate=0.04)
        report = run_sweep([honest, punished], toy_wl, tv_blocks=20)
        with pytest.raises(ValueError, match=r"^invalid_rate: config 1 has invalid_rate=0.04"):
            validate_sweep(report, tolerance=5.0)

    def test_all_verifiers_has_no_gain_cell(self, toy_wl):
        report = run_sweep([small_config(miners=standard_miners(10))], toy_wl, tv_blocks=40)
        assert report.cells[0].closed_gain_pct is None
        assert validate_sweep(report, 1.0) == []

    def test_closed_form_gain_matches_table(self, toy_wl):
        cfg = small_config()
        gain = closed_form_gain(cfg, t_v=3.18)
        cfg_tb12 = replace(cfg, t_b=12.0)
        assert closed_form_gain(cfg_tb12, t_v=3.18) == pytest.approx(23.2, abs=0.5)
        assert gain == pytest.approx(22.5, abs=0.5)

    def test_parallel_closed_form_takes_the_sequential_time(self, toy_wl):
        cfg = small_config(mode="parallel", c=0.4, p=16, runs=2)
        cell = run_sweep([cfg], toy_wl, tv_blocks=60, tv_seed=3).cells[0]
        seq = measure_verification_times(toy_wl, cfg.block_limit, 60, seed=3, conflict_rate=cfg.c)
        par = measure_verification_times(toy_wl, cfg.block_limit, 60, seed=3, p=16, conflict_rate=cfg.c)
        # the parallel formula discounts the sequential time once
        assert cell.closed_gain_pct == closed_form_gain(cfg, float(seq.mean()))
        # while the summary keeps reporting the parallel times
        assert cell.tv_stats["mean"] == float(par.mean()) < float(seq.mean())

    def test_summary_ci_columns_are_numbers(self, toy_wl, tmp_path):
        out = run_sweep([small_config(runs=3)], toy_wl, tv_blocks=40).write(tmp_path / "out")
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        for column in ("sim_gain_ci95_pct", "sim_expected_ci95_pct"):
            assert float(row[column]) > 0

    @pytest.mark.parametrize("tv_blocks", [0, -1, 10_000_001])
    def test_sweep_rejects_no_tv_blocks(self, toy_wl, monkeypatch, tv_blocks):
        def measure(*args, **kwargs):
            raise AssertionError("t_v was measured before tv_blocks was checked")

        monkeypatch.setattr("verisim.scenario.measure_verification_times", measure)
        with pytest.raises(ValueError, match=rf"^tv_blocks must be an integer in \[1, 10000000\], got {tv_blocks}$"):
            run_sweep([small_config()], toy_wl, tv_blocks=tv_blocks)

    def test_ci_halfwidth_basics(self):
        assert ci_halfwidth(np.asarray([1.0])) == 0.0
        wide = ci_halfwidth(np.asarray([0.0, 10.0, -10.0, 5.0]))
        narrow = ci_halfwidth(np.asarray([0.0, 0.1, -0.1, 0.05]))
        assert wide > narrow > 0

    def test_ci_halfwidth_is_the_student_t_interval(self):
        from scipy import stats

        rng = np.random.default_rng(4)
        for n in [*range(2, 41), 1000]:
            values = rng.normal(size=n)
            expected = float(stats.t.ppf(0.975, n - 1)) * float(values.std(ddof=1)) / np.sqrt(n)
            assert ci_halfwidth(values) == expected

    def test_sweep_loads_no_scipy(self):
        # scipy.stats takes a second to import and scipy.special a third of one:
        # neither importing verisim nor a sweep's summary loads any part of scipy
        code = textwrap.dedent("""
            import sys
            import verisim
            from tests.helpers import toy_workload
            config = verisim.ScenarioConfig(8_000_000, verisim.standard_miners(10, 0.1), sim_duration=120.0, runs=2)
            verisim.run_sweep([config], toy_workload(), tv_blocks=5)
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, str(pathlib.Path(SRC).parent)])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        # a non-verifier and runs=2 make the summary call ci_halfwidth
        assert run.stdout.splitlines() == ["[]"]


    def test_sweep_starts_no_thread(self):
        # every column is drawn on the calling thread: a fresh interpreter
        # runs a parallel sweep with its one thread
        code = textwrap.dedent("""
            import threading
            import verisim
            from tests.helpers import toy_workload
            before = threading.active_count()
            config = verisim.ScenarioConfig(8_000_000, verisim.standard_miners(10, 0.1), mode="parallel",
                                            c=0.4, p=4, sim_duration=120.0, runs=2)
            verisim.run_sweep([config], toy_workload(), tv_blocks=5)
            print(before, threading.active_count())
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, str(pathlib.Path(SRC).parent)])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.split() == ["1", "1"]


class TestConfigIO:
    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"block_limit": 8_000_000, "minres": []}))
        with pytest.raises(ValueError, match="unknown"):
            _load_scenarios(path)

    def test_unknown_miner_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown miner"):
            ScenarioConfig.from_dict(
                {"block_limit": 8_000_000, "miners": [{"id": "a", "alpha": 1.0, "hashrate": 3}]}
            )

    def test_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert _load_scenarios(path) == [cfg]

    def test_missing_required(self):
        with pytest.raises(ValueError, match="requires"):
            ScenarioConfig.from_dict({"t_b": 12.0})


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """gen-data -> fit once for all CLI tests (the fit is the slow step)."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "txs.csv"
    model = root / "model.json"
    assert cli_main(["gen-data", "--n", "4000", "--seed", "5", "--out", str(data)]) == 0
    assert (
        cli_main(
            [
                "fit",
                "--data", str(data),
                "--out", str(model),
                "--seed", "5",
                "--k-max", "4",
                "--d-grid", "20",
                "--s-grid", "16,32",
                "--folds", "4",
            ]
        )
        == 0
    )
    return root, data, model


class TestCli:
    def test_fit_output_exists(self, cli_artifacts):
        _, _, model = cli_artifacts
        payload = json.loads(model.read_text())
        assert set(payload) == {"block_limit", "seed", "gas_price_model", "used_gas_model", "cpu_time_model"}

    def test_fit_prints_metrics(self, cli_artifacts, capsys, tmp_path):
        root, data, _ = cli_artifacts
        out = tmp_path / "model2.json"
        cli_main(["fit", "--data", str(data), "--out", str(out), "--seed", "5",
                  "--k-max", "4", "--d-grid", "20", "--s-grid", "16", "--folds", "4"])
        text = capsys.readouterr().out
        assert "R2" in text and "MAE" in text and "RMSE" in text
        assert "K =" in text and "d =" in text
        test_r2 = float(text.split("test:")[1].split("R2")[1].split()[0])
        assert test_r2 >= 0.8

    def test_fit_deterministic_output(self, cli_artifacts, tmp_path):
        root, data, model = cli_artifacts
        again = tmp_path / "again.json"
        cli_main(["fit", "--data", str(data), "--out", str(again), "--seed", "5",
                  "--k-max", "4", "--d-grid", "20", "--s-grid", "16,32", "--folds", "4"])
        assert again.read_bytes() == model.read_bytes()

    def test_sample(self, cli_artifacts, tmp_path):
        _, _, model = cli_artifacts
        out = tmp_path / "sampled.csv"
        assert cli_main(["sample", "--model", str(model), "--n", "500", "--seed", "1", "--out", str(out)]) == 0
        from verisim.dataio import load_dataset

        assert len(load_dataset(out)) == 500

    def test_sample_has_no_conflict_rate(self, toy_wl, tmp_path, capsys):
        # the dataset CSV has no conflict column, so the flag could change nothing written
        model = tmp_path / "toy.json"
        toy_wl.save(model)
        argv = ["sample", "--model", str(model), "--conflict-rate", "0.4", "--out", str(tmp_path / "s.csv")]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "--conflict-rate" in capsys.readouterr().err

    def test_analytic(self, cli_artifacts, tmp_path, capsys):
        _, _, model = cli_artifacts
        out = tmp_path / "rewards.csv"
        code = cli_main([
            "analytic", "--model", str(model), "--limits", "8000000,16000000",
            "--tv-blocks", "50", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("block_limit,")
        assert len(lines) == 1 + 2 * 10
        assert "non-verifier" in capsys.readouterr().out

    def test_analytic_with_explicit_tv(self, tmp_path, capsys):
        code = cli_main(["analytic", "--limits", "128000000", "--t-v", "3.18", "--t-b", "12.0"])
        assert code == 0
        assert "+23.2" in capsys.readouterr().out

    def test_analytic_parallel_worked_example(self, capsys):
        code = cli_main([
            "analytic", "--limits", "128000000", "--t-v", "3.18", "--t-b", "12.0",
            "--conflict-rate", "0.4", "--processors", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fraction 0.112" in out and "+12.9" in out

    def test_analytic_requires_model_or_tv(self, capsys):
        assert cli_main(["analytic", "--limits", "8000000"]) == 2
        assert "need --model" in capsys.readouterr().err

    def test_simulate_and_validate(self, cli_artifacts, tmp_path, capsys):
        _, _, model = cli_artifacts
        cfg = {
            "block_limit": 8_000_000,
            "t_b": 12.42,
            "sim_duration": 900.0,
            "runs": 3,
            "base_seed": 3,
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "runs"
        sweep = ["--config", str(cfg_path), "--workload", str(model), "--tv-blocks", "50"]
        assert cli_main(["simulate", *sweep, "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        code = cli_main(["validate", *sweep, "--tolerance", "5.0"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_validate_parallel(self, cli_artifacts, tmp_path, capsys):
        _, _, model = cli_artifacts
        cfg = {
            "block_limit": 32_000_000,
            "mode": "parallel",
            "c": 0.4,
            "p": 4,
            "sim_duration": 900.0,
            "runs": 3,
            "base_seed": 3,
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        sweep = ["validate", "--config", str(cfg_path), "--workload", str(model), "--tv-blocks", "50"]
        # the default tolerance, 25 %, catches a parallel discount applied twice
        assert cli_main(sweep) == 0
        assert "PASS config 0 (limit 32000000)" in capsys.readouterr().out
        cfg["miners"][1]["processors"] = 8
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main([*sweep, "--tolerance", "5.0"]) == 2
        assert "error: miners must not have ['processors']" in capsys.readouterr().err

    def test_validate_rejects_invalid_rate_before_simulating(self, cli_artifacts, tmp_path, capsys, monkeypatch):
        def simulate(*args):
            raise AssertionError("the cell was simulated before it was rejected")

        monkeypatch.setattr(scenario, "run_simulation", simulate)
        _, _, model = cli_artifacts
        miners = standard_miners(10, nonverifier_alpha=0.1, invalid_rate=0.04)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(miners=miners, invalid_rate=0.04).to_dict()))
        assert cli_main(["validate", "--config", str(cfg_path), "--workload", str(model), "--tv-blocks", "50"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid_rate:")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.1"])
    def test_validate_rejects_tolerance_before_simulating(self, tmp_path, capsys, monkeypatch, tolerance):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the tolerance was rejected")

        monkeypatch.setattr(scenario, "run_sweep", sweep)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(runs=1).to_dict()))
        argv = ["validate", "--config", str(cfg_path), "--workload", str(tmp_path / "m.json"), f"--tolerance={tolerance}"]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: tolerance")

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_unbounded_runs_rejected_before_simulating(self, tmp_path, capsys, monkeypatch, command):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the run count was rejected")

        monkeypatch.setattr(scenario, "run_sweep", sweep)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(small_config(runs=1).to_dict(), runs=10**12)))
        argv = [command, "--config", str(cfg_path), "--workload", str(tmp_path / "m.json"), "--out", str(tmp_path / "o")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: runs")

    def test_validate_failure_exit_code(self, cli_artifacts, tmp_path):
        _, _, model = cli_artifacts
        cfg = {
            "block_limit": 8_000_000,
            "sim_duration": 600.0,
            "runs": 2,
            "base_seed": 3,
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = ["validate", "--config", str(cfg_path), "--workload", str(model), "--tv-blocks", "50", "--tolerance", "0.0"]
        assert cli_main(argv) == 1

    def test_fit_too_few_rows_for_folds(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the forest was fitted on a dataset too small for its split")

        monkeypatch.setattr("verisim.workload.fit_cpu_time_model", no_fit)
        data = tmp_path / "tiny.csv"
        # a fifth of the rows (at least one) is held out; it needs 2 rows, the rest --folds rows
        for n, folds in [(5, 10), (1, 2), (9, 2), (11, 10)]:
            rows = ["used_gas,gas_price,cpu_time_s"] + [f"{21000 + i},2e-08,0.001" for i in range(n)]
            data.write_text("\n".join(rows) + "\n")
            code = cli_main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json"),
                             "--d-grid", "5", "--s-grid", "2", "--folds", str(folds)])
            assert code == 2
            assert capsys.readouterr().err.startswith(f"error: --data has {n} rows, too few")

    def test_fit_non_finite_cpu_time(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        rows = ["used_gas,gas_price,cpu_time_s"] + [
            f"{21000 + i},2e-08,{'nan' if i == 7 else '0.001'}" for i in range(300)
        ]
        data.write_text("\n".join(rows) + "\n")
        code = cli_main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json"),
                         "--d-grid", "5", "--s-grid", "2", "--folds", "5"])
        assert code == 2
        assert "line 9: cpu_time_s" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--nonverifier-alpha", "1", "--t-v", "0.2"], "nonverifier_alpha"),
            (["--nonverifier-alpha", "nan", "--t-v", "0.2"], "nonverifier_alpha"),
            (["--t-v", "nan"], "t_v"),
            (["--t-v", "inf"], "t_v"),
            (["--t-v", "0.2", "--t-b", "nan"], "t_b"),
            (["--tv-blocks", "0"], "--tv-blocks"),
            (["--limits", "100", "--t-v", "0.2"], "block_limit"),
            (["--limits", "8000000,-5", "--t-v", "0.2,0.3"], "block_limit"),
            (["--t-v", "0.2", "--conflict-rate", "1.5"], "c (the conflict rate)"),
            (["--t-v", "0.2", "--processors", "0"], "p (the processor count)"),
            (["--limits", "8000000,abc", "--t-v", "0.2,0.3"], "--limits"),
            (["--t-v", "abc"], "--t-v"),
            (["--t-v", "0.2,0.3"], "--t-v needs one value per block limit"),
            (["--t-v", "0.2", "--conflict-rate", "0.4"], "--conflict-rate is not read unless --processors is above 1"),
            (["--limits", ",,"], "--limits must list at least one block limit"),
            (["--limits", ""], "--limits must list at least one block limit"),
            (["--conflict-rate", "0.4"], "--conflict-rate is not read unless --processors is above 1"),
        ],
    )
    def test_analytic_rejects(self, toy_wl, tmp_path, capsys, argv, error):
        model = tmp_path / "toy.json"
        toy_wl.save(model)
        # --model is read only to measure t_v, so it is not given with --t-v
        source = [] if "--t-v" in argv else ["--model", str(model)]
        assert cli_main(["analytic", *source, "--limits", "8000000", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--nonverifier-alpha", "1.5"], "nonverifier_alpha"),
            (["--nonverifier-alpha", "0"], "nonverifier_alpha"),
            (["--nonverifier-alpha", "nan"], "nonverifier_alpha"),
            (["--nonverifier-alpha", "1"], "nonverifier_alpha"),
            (["--processors", "4", "--conflict-rate", "1.5"], "c (the conflict rate)"),
            (["--processors", "0"], "p (the processor count)"),
            (["--t-b", "-1"], "t_b (the block interval)"),
        ],
    )
    def test_analytic_rejects_lineup_before_measuring_tv(self, toy_wl, tmp_path, capsys, monkeypatch, argv, error):
        def measure(*args, **kwargs):
            raise AssertionError("t_v was measured before the lineup and closed-form flags were checked")

        monkeypatch.setattr("verisim.blocks.measure_verification_times", measure)
        model = tmp_path / "toy.json"
        toy_wl.save(model)
        assert cli_main(["analytic", "--model", str(model), "--limits", "8000000", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")

    @pytest.mark.parametrize("mode", ["sequential", "parallel"])
    def test_simulate_rejects_no_tv_blocks(self, toy_wl, tmp_path, capsys, mode):
        model = tmp_path / "toy.json"
        toy_wl.save(model)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(mode=mode, c=0.4, p=4, runs=1).to_dict()))
        for tv_blocks in ("0", "10000001"):
            argv = ["simulate", "--config", str(cfg_path), "--workload", str(model), "--tv-blocks", tv_blocks,
                    "--out", str(tmp_path / "o")]
            assert cli_main(argv) == 2
            assert capsys.readouterr().err == f"error: --tv-blocks must be an integer in [1, 10000000], got {tv_blocks}\n"

    @pytest.mark.parametrize("tv_blocks", ["0", "-3", "10000001"])
    @pytest.mark.parametrize("command", ["analytic", "simulate", "validate"])
    def test_tv_blocks_below_one_names_the_flag(self, tmp_path, capsys, command, tv_blocks):
        # none of these files exists, so reading any of them would fail with another error
        argv = {
            "analytic": ["analytic", "--model", str(tmp_path / "m.json"), "--limits", "8000000"],
            "simulate": ["simulate", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")],
            "validate": ["validate", "--config", str(tmp_path / "c.json")],
        }[command]
        if command != "analytic":
            argv += ["--workload", str(tmp_path / "m.json")]
        assert cli_main([*argv, "--tv-blocks", tv_blocks]) == 2
        assert capsys.readouterr().err == f"error: --tv-blocks must be an integer in [1, 10000000], got {tv_blocks}\n"

    @pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--tv-blocks", "40"), ("--model", "/nonexistent.json")])
    def test_analytic_t_v_rejects_measuring_flags(self, capsys, flag, value):
        assert cli_main(["analytic", "--t-v", "0.1", "--limits", "8000000", flag, value]) == 2
        assert capsys.readouterr().err == f"error: {flag} is not read when --t-v is given\n"

    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_model_file_without_a_mixture_exits_2(self, toy_wl, tmp_path, capsys, command):
        model = tmp_path / "toy.json"
        toy_wl.save(model)
        payload = json.loads(model.read_text())
        del payload["used_gas_model"]
        model.write_text(json.dumps(payload))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(runs=1).to_dict()))
        argv = {
            "analytic": ["analytic", "--model", str(model), "--limits", "8000000", "--tv-blocks", "5"],
            "simulate": ["simulate", "--config", str(cfg_path), "--workload", str(model), "--out", str(tmp_path / "o")],
        }[command]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: workload must have ['used_gas_model']")

    @pytest.mark.parametrize("scenarios", [5, "a", {"block_limit": 8_000_000}, [], [5]])
    def test_scenarios_not_a_list_of_objects(self, tmp_path, capsys, scenarios):
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"scenarios": scenarios}))
        argv = ["simulate", "--config", str(cfg_path), "--workload", str(tmp_path / "m.json"), "--out", str(tmp_path / "o")]
        assert cli_main(argv) == 2
        assert "error: scenarios:" in capsys.readouterr().err

    @pytest.mark.parametrize("k_range", [["--k-max", "0"]])
    def test_fit_rejects_k_range_before_fitting(self, tmp_path, capsys, monkeypatch, k_range):
        error = "--k-max must be an integer in [1, 20000], got 0"
        self._assert_fit_rejects_before_fitting(tmp_path, capsys, monkeypatch, k_range, error)

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--d-grid", "5,x"], "--d-grid"),
            (["--s-grid", "abc"], "--s-grid"),
            (["--folds", "1"], "--folds must be an integer in [2, 20000], got 1"),
            (["--d-grid", "0,10"], "--d-grid must be a non-empty list of positive integers, got '0,10'"),
            (["--s-grid", "-3"], "--s-grid must be a non-empty list of positive integers, got '-3'"),
            (["--d-grid", ","], "--d-grid must be a non-empty list of positive integers, got ','"),
            (["--k-max", "20001"], "--k-max must be an integer in [1, 20000], got 20001"),
            (["--folds", "20001"], "--folds must be an integer in [2, 20000], got 20001"),
            (["--k-max", "20", "--folds", "2"], "--k-max must be at most the --data row count (10), got 20"),
        ],
        ids=[
            "d-grid-not-integer",
            "s-grid-not-integer",
            "folds-below-2",
            "d-grid-zero",
            "s-grid-negative",
            "d-grid-empty",
            "k-max-above-gmm-subsample",
            "folds-above-cv-subsample",
            "k-max-above-rows",
        ],
    )
    def test_fit_rejects_search_flags_before_fitting(self, tmp_path, capsys, monkeypatch, argv, error):
        self._assert_fit_rejects_before_fitting(tmp_path, capsys, monkeypatch, argv, error)

    @staticmethod
    def _assert_fit_rejects_before_fitting(tmp_path, capsys, monkeypatch, argv, error):
        # 10 rows: enough for the held-out fifth and 2 folds, too few for a K search up to 20
        data = tmp_path / "txs.csv"
        rows = ["used_gas,gas_price,cpu_time_s"] + [f"{21000 + i},2e-08,0.001" for i in range(10)]
        data.write_text("\n".join(rows) + "\n")

        def no_fit(*args, **kwargs):
            raise AssertionError("the forest was fitted before the fit flags were checked")

        monkeypatch.setattr("verisim.workload.fit_cpu_time_model", no_fit)
        assert cli_main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json"), *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")

    @pytest.mark.parametrize("command", ["gen-data", "fit", "sample", "analytic"])
    def test_negative_seed_names_the_flag(self, tmp_path, capsys, command):
        argv = {
            "gen-data": ["gen-data", "--out", str(tmp_path / "txs.csv")],
            "fit": ["fit", "--data", str(tmp_path / "txs.csv"), "--out", str(tmp_path / "m.json")],
            "sample": ["sample", "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "s.csv")],
            "analytic": ["analytic", "--t-v", "0.1", "--limits", "8000000"],
        }[command]
        assert cli_main([*argv, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"

    @pytest.mark.parametrize("command, n, minimum", [("gen-data", "50", 100), ("sample", "0", 1)])
    def test_n_below_its_minimum_names_the_flag(self, tmp_path, capsys, command, n, minimum):
        # the model file does not exist, so loading it would fail with another error
        argv = {
            "gen-data": ["gen-data", "--out", str(tmp_path / "txs.csv")],
            "sample": ["sample", "--model", str(tmp_path / "m.json"), "--out", str(tmp_path / "s.csv")],
        }[command]
        assert cli_main([*argv, "--n", n]) == 2
        assert capsys.readouterr().err == f"error: --n must be an integer >= {minimum}, got {n}\n"
        assert not (tmp_path / "txs.csv").exists()

    def test_fit_rejects_a_criterion(self, tmp_path, capsys):
        # retired flags are unrecognised, and never read as the prefix of another flag
        fit = ["fit", "--data", str(tmp_path / "txs.csv"), "--out", str(tmp_path / "m.json")]
        analytic = ["analytic", "--model", str(tmp_path / "m.json")]
        sweep = ["--config", str(tmp_path / "cfg.json"), "--workload", str(tmp_path / "m.json"),
                 "--out", str(tmp_path / "o")]
        retired = [
            ([*fit, "--criterion", "bic"], "--criterion"),
            ([*analytic, "--mode", "parallel"], "--mode"),
            *(([*fit, flag, value], flag)
              for flag, value in (("--k-min", "1"), ("--gmm-subsample", "300"), ("--cv-subsample", "400"))),
            (["gen-data", "--out", str(tmp_path / "txs.csv"), "--block-limit", "16000000"], "--block-limit"),
            ([*fit, "--block-limit", "16000000"], "--block-limit"),
            *(([command, *sweep, flag, "3"], flag)
              for command in ("simulate", "validate") for flag in ("--seed", "--runs")),
            ([*analytic, "--miners", "2"], "--miners"),
        ]
        for argv, flag in retired:
            with pytest.raises(SystemExit) as exc:
                cli_main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_fit_runs_one_search_per_mixture(self, tmp_path, monkeypatch):
        from verisim import workload

        monkeypatch.setattr(workload, "GMM_SUBSAMPLE", 300)
        data = tmp_path / "txs.csv"
        assert cli_main(["gen-data", "--n", "600", "--seed", "5", "--out", str(data)]) == 0
        rows = []
        real_fit_gmm = workload.fit_gmm

        def counted(values, *args, **kwargs):
            rows.append(len(values))
            return real_fit_gmm(values, *args, **kwargs)

        monkeypatch.setattr(workload, "fit_gmm", counted)
        argv = ["fit", "--data", str(data), "--out", str(tmp_path / "m.json"), "--k-max", "3",
                "--d-grid", "5", "--s-grid", "4", "--folds", "2"]
        assert cli_main(argv) == 0
        # per mixture: the K search on the subsample, then the refit on all rows
        assert rows == [300, 600, 300, 600]

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_no_workload_anywhere(self, tmp_path, capsys, command):
        # a scenario names no model: a sweep runs on --workload alone
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(runs=1).to_dict()))
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "the following arguments are required: --workload" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_without_a_workload(self, monkeypatch):
        # a sweep takes the fitted model itself, checked before the first t_v draw
        forbid_draws(monkeypatch)
        for workload in (None, "model.json"):
            with pytest.raises(ValueError, match=f"^workload must be a FittedWorkload, got {type(workload).__name__}$"):
                run_sweep([small_config(runs=1)], workload)

    @pytest.mark.parametrize("value", ["path", None, 5])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["single", "scenarios"])
    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_scenario_workload_key_rejected_before_simulating(
        self, toy_wl, tmp_path, capsys, monkeypatch, command, wrapped, value
    ):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the scenario's workload key was rejected")

        monkeypatch.setattr(scenario, "run_sweep", sweep)
        model = tmp_path / "toy.json"
        toy_wl.save(model)
        cell = dict(small_config(runs=1).to_dict(), workload=str(model) if value == "path" else value)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"scenarios": [cell]} if wrapped else cell))
        argv = [command, "--config", str(cfg_path), "--workload", str(model), "--out", str(tmp_path / "o")]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: configuration must not have ['workload']")
        assert not (tmp_path / "o").exists()

    def test_sweep_loads_its_model_once(self, toy_wl, tmp_path, monkeypatch):
        from verisim.workload import FittedWorkload

        model = tmp_path / "toy.json"
        toy_wl.save(model)
        loads = []
        load = FittedWorkload.load.__func__

        def counted(cls, path):
            loads.append(path)
            return load(cls, path)

        monkeypatch.setattr(FittedWorkload, "load", classmethod(counted))
        cells = [dict(small_config(runs=1, sim_duration=300.0).to_dict(), block_limit=limit)
                 for limit in (8_000_000, 16_000_000, 32_000_000)]
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"scenarios": cells}))
        out = tmp_path / "o"
        argv = ["simulate", "--config", str(cfg_path), "--workload", str(model), "--tv-blocks", "5", "--out", str(out)]
        assert cli_main(argv) == 0
        assert loads == [str(model)]
        assert len(json.loads((out / "configs.json").read_text())) == 3

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_out_under_a_file_rejected_before_simulating(self, toy_wl, tmp_path, capsys, monkeypatch, command):
        def simulate(*args):
            raise AssertionError("a cell was simulated before --out was made")

        monkeypatch.setattr(scenario, "run_simulation", simulate)
        model = tmp_path / "toy.json"
        toy_wl.save(model)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(runs=1).to_dict()))
        argv = [command, "--config", str(cfg_path), "--workload", str(model), "--out", str(model / "o")]
        assert cli_main(argv) == 2
        assert "Not a directory" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert cli_main(["fit", "--data", "/nonexistent.csv", "--out", "/tmp/x.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_scenarios_wrapper(self, cli_artifacts, tmp_path):
        _, _, model = cli_artifacts
        base = {
            "block_limit": 8_000_000,
            "sim_duration": 600.0,
            "runs": 2,
            "base_seed": 3,
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        two = dict(base, block_limit=16_000_000)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"scenarios": [base, two]}))
        out = tmp_path / "sweep_out"
        argv = ["simulate", "--config", str(cfg_path), "--workload", str(model), "--tv-blocks", "40", "--out", str(out)]
        assert cli_main(argv) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 10

    def test_runs_and_seed_overrides(self, cli_artifacts, tmp_path):
        _, _, model = cli_artifacts
        # the run count and seeds come from the scenario file alone
        cfg = {
            "block_limit": 8_000_000,
            "sim_duration": 600.0,
            "runs": 3,
            "base_seed": 99,
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        argv = ["simulate", "--config", str(cfg_path), "--workload", str(model), "--tv-blocks", "40", "--out", str(out)]
        assert cli_main(argv) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 10
        assert rows[1].split(",")[1] == "99"
