import csv
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

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

    def test_validate_rejects_other_processor_counts(self, toy_wl):
        miners = standard_miners(10, nonverifier_alpha=0.1)
        odd = tuple(replace(m, processors=4) if m.id == "v0" else m for m in miners)
        parallel = small_config(miners=odd, mode="parallel", c=0.4, p=16, runs=1, sim_duration=600.0)
        with pytest.raises(ValueError, match=r"^processors: config 0 gives verifiers \['v0'\]"):
            validate_sweep(run_sweep([parallel], toy_wl, tv_blocks=20), tolerance=5.0)
        # a sequential cell never reads the processor counts
        sequential = replace(parallel, mode="sequential")
        assert len(validate_sweep(run_sweep([sequential], toy_wl, tv_blocks=20), tolerance=5.0)) == 1

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

    def test_ci_halfwidth_basics(self):
        assert ci_halfwidth(np.asarray([1.0])) == 0.0
        wide = ci_halfwidth(np.asarray([0.0, 10.0, -10.0, 5.0]))
        narrow = ci_halfwidth(np.asarray([0.0, 0.1, -0.1, 0.05]))
        assert wide > narrow > 0

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats dominates the import time; only ci_halfwidth loads it
        code = "import sys, verisim; sys.exit('scipy.stats' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC}).returncode == 0


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
            "--mode", "parallel", "--conflict-rate", "0.4", "--processors", "4",
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
            "workload": str(model),
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "runs"
        assert cli_main(["simulate", "--config", str(cfg_path), "--tv-blocks", "50", "--out", str(out)]) == 0
        assert (out / "results.csv").exists()
        code = cli_main(["validate", "--config", str(cfg_path), "--tv-blocks", "50", "--tolerance", "5.0"])
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
            "workload": str(model),
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # the default tolerance, 25 %, catches a parallel discount applied twice
        assert cli_main(["validate", "--config", str(cfg_path), "--tv-blocks", "50"]) == 0
        assert "PASS config 0 (limit 32000000)" in capsys.readouterr().out
        cfg["miners"][1]["processors"] = 8
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["validate", "--config", str(cfg_path), "--tv-blocks", "50", "--tolerance", "5.0"]) == 2
        assert "error: processors" in capsys.readouterr().err

    def test_validate_rejects_invalid_rate_before_simulating(self, cli_artifacts, tmp_path, capsys, monkeypatch):
        def simulate(*args):
            raise AssertionError("the cell was simulated before it was rejected")

        monkeypatch.setattr(scenario, "run_simulation", simulate)
        _, _, model = cli_artifacts
        miners = standard_miners(10, nonverifier_alpha=0.1, invalid_rate=0.04)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(miners=miners, invalid_rate=0.04, workload=str(model)).to_dict()))
        assert cli_main(["validate", "--config", str(cfg_path), "--tv-blocks", "50"]) == 2
        assert capsys.readouterr().err.startswith("error: invalid_rate:")

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.1"])
    def test_validate_rejects_tolerance_before_simulating(self, tmp_path, capsys, monkeypatch, tolerance):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the tolerance was rejected")

        monkeypatch.setattr(scenario, "run_sweep", sweep)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(runs=1).to_dict()))
        assert cli_main(["validate", "--config", str(cfg_path), f"--tolerance={tolerance}"]) == 2
        assert capsys.readouterr().err.startswith("error: tolerance")

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_unbounded_runs_rejected_before_simulating(self, tmp_path, capsys, monkeypatch, command):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the run count was rejected")

        monkeypatch.setattr(scenario, "run_sweep", sweep)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(runs=1).to_dict()))
        assert cli_main([command, "--config", str(cfg_path), "--runs", str(10**12), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: runs")

    def test_validate_failure_exit_code(self, cli_artifacts, tmp_path):
        _, _, model = cli_artifacts
        cfg = {
            "block_limit": 8_000_000,
            "sim_duration": 600.0,
            "runs": 2,
            "base_seed": 3,
            "workload": str(model),
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["validate", "--config", str(cfg_path), "--tv-blocks", "50", "--tolerance", "0.0"]) == 1

    def test_fit_too_few_rows_for_folds(self, tmp_path, capsys):
        data = tmp_path / "tiny.csv"
        rows = ["used_gas,gas_limit,gas_price,cpu_time_s"] + [
            f"{21000 + i},{50000 + i},2e-08,0.001" for i in range(5)
        ]
        data.write_text("\n".join(rows) + "\n")
        code = cli_main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json"),
                         "--d-grid", "5", "--s-grid", "2", "--folds", "10"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_fit_non_finite_cpu_time(self, tmp_path, capsys):
        data = tmp_path / "nan.csv"
        rows = ["used_gas,gas_limit,gas_price,cpu_time_s"] + [
            f"{21000 + i},{50000 + i},2e-08,{'nan' if i == 7 else '0.001'}" for i in range(300)
        ]
        data.write_text("\n".join(rows) + "\n")
        code = cli_main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json"),
                         "--d-grid", "5", "--s-grid", "2", "--folds", "5"])
        assert code == 2
        assert "line 9: cpu_time_s" in capsys.readouterr().err

    def test_fit_reads_its_own_block_limit(self, tmp_path):
        data = tmp_path / "16m.csv"
        code = cli_main(["gen-data", "--n", "2000", "--seed", "5", "--block-limit", "16000000", "--out", str(data)])
        assert code == 0
        code = cli_main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json"), "--block-limit", "16000000",
                         "--k-max", "2", "--d-grid", "5", "--s-grid", "2", "--folds", "2"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--miners", "1", "--nonverifier-alpha", "0.1", "--t-v", "0.2"], "miners"),
            (["--nonverifier-alpha", "nan", "--t-v", "0.2"], "nonverifier_alpha"),
            (["--t-v", "nan"], "t_v"),
            (["--t-v", "inf"], "t_v"),
            (["--t-v", "0.2", "--t-b", "nan"], "t_b"),
            (["--tv-blocks", "0"], "n_blocks"),
            (["--limits", "100", "--t-v", "0.2"], "block_limit"),
            (["--limits", "8000000,-5", "--t-v", "0.2,0.3"], "block_limit"),
            (["--t-v", "0.2", "--conflict-rate", "1.5"], "c (the conflict rate)"),
            (["--t-v", "0.2", "--processors", "0"], "p (the processor count)"),
        ],
    )
    def test_analytic_rejects(self, toy_wl, tmp_path, capsys, argv, error):
        model = tmp_path / "toy.json"
        toy_wl.save(model)
        assert cli_main(["analytic", "--model", str(model), "--limits", "8000000", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--nonverifier-alpha", "1.5"], "nonverifier_alpha"),
            (["--nonverifier-alpha", "0"], "nonverifier_alpha"),
            (["--nonverifier-alpha", "nan"], "nonverifier_alpha"),
            (["--miners", "1"], "miners"),
        ],
    )
    def test_analytic_rejects_lineup_before_measuring_tv(self, toy_wl, tmp_path, capsys, monkeypatch, argv, error):
        def measure(*args, **kwargs):
            raise AssertionError("t_v was measured before the lineup was rejected")

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
        cfg_path.write_text(json.dumps(small_config(mode=mode, c=0.4, p=4, runs=1, workload=str(model)).to_dict()))
        assert cli_main(["simulate", "--config", str(cfg_path), "--tv-blocks", "0", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: n_blocks")

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
        assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert "error: scenarios:" in capsys.readouterr().err

    @pytest.mark.parametrize("block_limit", [100, 2**30 + 1])
    def test_gen_data_rejects_block_limit(self, tmp_path, capsys, block_limit):
        out = tmp_path / "txs.csv"
        assert cli_main(["gen-data", "--n", "300", "--block-limit", str(block_limit), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: block_limit")
        assert not out.exists()

    @pytest.mark.parametrize("block_limit", [100, 2**30 + 1])
    def test_fit_rejects_block_limit_before_fitting(self, tmp_path, capsys, monkeypatch, block_limit):
        data = tmp_path / "txs.csv"
        assert cli_main(["gen-data", "--n", "300", "--out", str(data)]) == 0

        def no_fit(*args, **kwargs):
            raise AssertionError("fit_workload ran before the block limit was checked")

        monkeypatch.setattr("verisim.workload.fit_workload", no_fit)
        capsys.readouterr()
        argv = ["fit", "--data", str(data), "--out", str(tmp_path / "m.json"), "--block-limit", str(block_limit)]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err.startswith("error: block_limit")

    @pytest.mark.parametrize("k_range", [["--k-min", "3", "--k-max", "2"], ["--k-min", "0"]])
    def test_fit_rejects_k_range_before_fitting(self, tmp_path, capsys, monkeypatch, k_range):
        data = tmp_path / "txs.csv"
        assert cli_main(["gen-data", "--n", "300", "--out", str(data)]) == 0

        def no_fit(*args, **kwargs):
            raise AssertionError("the forest was fitted before the K range was checked")

        monkeypatch.setattr("verisim.workload.fit_rfr", no_fit)
        capsys.readouterr()
        assert cli_main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json"), *k_range]) == 2
        assert capsys.readouterr().err.startswith("error: need 1 <= --k-min <= --k-max")

    def test_fit_runs_one_search_per_mixture(self, tmp_path, monkeypatch):
        from verisim import workload

        data = tmp_path / "txs.csv"
        assert cli_main(["gen-data", "--n", "600", "--seed", "5", "--out", str(data)]) == 0
        rows = []
        real_fit_gmm = workload.fit_gmm

        def counted(values, *args, **kwargs):
            rows.append(len(values))
            return real_fit_gmm(values, *args, **kwargs)

        monkeypatch.setattr(workload, "fit_gmm", counted)
        argv = ["fit", "--data", str(data), "--out", str(tmp_path / "m.json"), "--k-max", "3",
                "--gmm-subsample", "300", "--d-grid", "5", "--s-grid", "4", "--folds", "2"]
        assert cli_main(argv) == 0
        # per mixture: the K search on the subsample, then the refit on all rows
        assert rows == [300, 600, 300, 600]

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_no_workload_anywhere(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(runs=1).to_dict()))
        assert cli_main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: workload:")

    def test_sweep_without_a_workload(self):
        with pytest.raises(ValueError, match="^workload"):
            run_sweep([small_config(runs=1)])

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
            "workload": str(model),
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        two = dict(base, block_limit=16_000_000)
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps({"scenarios": [base, two]}))
        out = tmp_path / "sweep_out"
        assert cli_main(["simulate", "--config", str(cfg_path), "--tv-blocks", "40", "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 2 * 10

    def test_runs_and_seed_overrides(self, cli_artifacts, tmp_path):
        _, _, model = cli_artifacts
        cfg = {
            "block_limit": 8_000_000,
            "sim_duration": 600.0,
            "runs": 2,
            "base_seed": 3,
            "workload": str(model),
            "miners": [{"id": "skip", "alpha": 0.1, "verifies": False}]
            + [{"id": f"v{i}", "alpha": 0.1} for i in range(9)],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert cli_main(["simulate", "--config", str(cfg_path), "--tv-blocks", "40",
                         "--runs", "3", "--seed", "99", "--out", str(out)]) == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 10
        assert rows[1].split(",")[1] == "99"
