import json
import subprocess
import sys
from pathlib import Path

import pytest

import circe.cli as cli_mod
import circe.harness as harness_mod
from circe.cli import main
from circe.exceptions import NumericalError
from circe.harness import RunRecord, read_records_csv, write_records_csv


def run_cli(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "circe", *argv],
                          capture_output=True, text=True, cwd=cwd)


def test_gen_writes_csv(tmp_path):
    proc = run_cli("gen", "--case", "uni1", "--n", "50", "--seed", "3",
                   "--out", str(tmp_path))
    assert proc.returncode == 0
    path = tmp_path / "uni1_n50_seed3.csv"
    assert path.exists()
    lines = path.read_text().splitlines()
    assert lines[0] == "a0,b,y0,z0"
    assert len(lines) == 51


def test_gen_unknown_case_exits_2(tmp_path):
    proc = run_cli("gen", "--case", "mystery", "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "configuration error" in proc.stderr


def test_missing_subcommand_exits_2():
    proc = run_cli()
    assert proc.returncode == 2
    # circe.cli runs as a module too
    proc = subprocess.run([sys.executable, "-m", "circe.cli"], capture_output=True, text=True)
    assert proc.returncode == 2 and "usage: circe" in proc.stderr


@pytest.mark.parametrize("argv, config, message", [
    (["sweep"], None, "sweep needs --config"),
    (["sweep", "--config", "missing.json"], None, "cannot read config"),
    (["sweep", "--config", "cfg.json"], [1], "config must be a JSON object"),
    (["gen", "--config", "cfg.json"], {"n": 50}, "gen needs --case"),
    (["fit-cme"], None, "fit-cme needs --case"),
    (["train", "--config", "cfg.json"], {"n": 600}, "train config needs a 'case' entry"),
])
def test_missing_or_unreadable_config_exits_2(tmp_path, monkeypatch, capsys, argv,
                                              config, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"] * (config is not None)


def test_fit_cme_prints_report_and_saves(tmp_path):
    cfg = {"lambda_grid": [0.01, 0.1], "sigma2_y_grid": [1.0]}
    cfg_path = tmp_path / "cme.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli("fit-cme", "--case", "uni1", "--n", "400", "--m-holdout",
                   "60", "--seed", "1", "--out", str(tmp_path),
                   "--config", str(cfg_path))
    assert proc.returncode == 0, proc.stderr
    assert "selected lambda=" in proc.stdout
    assert "sigma2_y nonpositive_eigenvalues rank" in proc.stdout
    # one row per grid bandwidth: sigma2_y, non-positive count, kept rank
    s2, floored, rank = proc.stdout.split("nonpositive_eigenvalues rank\n")[1].split("\n")[0].split()
    assert s2 == "1" and 0 <= int(floored) and 1 <= int(rank) <= 60
    # the K_ZZ factor's width, 0 where the Gram was formed
    s2_z, z_width = proc.stdout.split("sigma2_z z_factor_width\n")[1].split("\n")[0].split()
    assert s2_z == "1" and 0 < int(z_width) < 30
    assert proc.stdout.count("\n") >= 4
    assert (tmp_path / "cme_uni1_seed1.npz").exists()


def test_train_single_run(tmp_path):
    cfg = {
        "case": "uni1", "method": "circe", "gamma": 5.0,
        "n": 600, "d": 2, "m_holdout": 100, "epochs": 2, "batch_size": 64,
        "lr": 1e-3, "weight_decay": 0.0, "hidden_widths": [8],
        "lambda_grid": [0.1], "sigma2_y_grid": [1.0], "n_interventions": 5,
    }
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli("train", "--config", str(cfg_path), "--seed", "2",
                   "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "mse_in=" in proc.stdout
    run_csv = tmp_path / "run_uni1_circe_seed2.csv"
    assert run_csv.exists()
    records = read_records_csv(run_csv)
    assert len(records) == 1
    assert records[0].method == "circe"
    assert records[0].seed == 2
    assert (tmp_path / "model_uni1_circe_seed2.npz").exists()


def test_train_requires_config(tmp_path):
    proc = run_cli("train", "--out", str(tmp_path))
    assert proc.returncode == 2


def test_sweep_and_report_roundtrip(tmp_path):
    cfg = {
        "cases": ["uni1"], "methods": ["none", "circe"], "seeds": [0, 1],
        "gammas": {"circe": [1.0]},
        "n": 600, "d": 2, "m_holdout": 100, "epochs": 2, "batch_size": 64,
        "lr": 1e-3, "weight_decay": 0.0, "hidden_widths": [8],
        "lambda_grid": [0.1], "sigma2_y_grid": [1.0], "n_interventions": 5,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli("sweep", "--config", str(cfg_path), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    results = tmp_path / "results.csv"
    assert results.exists()
    assert len(read_records_csv(results)) == 4

    proc2 = run_cli("report", str(results), "--out", str(tmp_path))
    assert proc2.returncode == 0, proc2.stderr
    assert "pareto uni1/circe" in proc2.stdout
    assert (tmp_path / "summary.csv").exists()


def test_sweep_partial_failure_exits_4(tmp_path):
    # a step size that overflows the weights: every step after the first is skipped
    cfg = {
        "cases": ["uni1"], "methods": ["none"], "seeds": [0],
        "n": 600, "d": 2, "m_holdout": 100, "epochs": 1, "batch_size": 64,
        "lr": 1e100, "weight_decay": 0.0, "hidden_widths": [8],
        "lambda_grid": [0.1], "sigma2_y_grid": [1.0],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli("sweep", "--config", str(cfg_path), "--out", str(tmp_path))
    assert proc.returncode == 4
    records = read_records_csv(tmp_path / "results.csv")
    assert len(records) == 1 and records[0].unstable


def test_sweep_value_no_run_accepts_exits_2(tmp_path):
    # rejected when the config is built, not written as a sweep of NaN rows
    cfg = {
        "cases": ["uni1"], "methods": ["none"], "seeds": [0],
        "n": 600, "d": 2, "m_holdout": 100, "epochs": 1, "batch_size": 64,
        "hidden_widths": [8], "lambda_grid": [0.1], "sigma2_y_grid": [1.0],
        "variant": "bogus",
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = run_cli("sweep", "--config", str(cfg_path), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "unknown variant 'bogus'" in proc.stderr
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("argv, config", [
    (["gen", "--case", "uni1", "--n", "50", "--seed", "-1"], None),
    (["fit-cme", "--case", "uni1", "--seed", "-1"], None),
    (["train", "--config", "cfg.json", "--seed", "-1"], {"case": "uni1", "method": "none"}),
    (["sweep", "--config", "cfg.json"], {"cases": ["uni1"], "methods": ["none"],
                                         "seeds": [-1]}),
], ids=["gen", "fit-cme", "train", "sweep"])
def test_negative_seed_exits_2(tmp_path, monkeypatch, capsys, argv, config):
    # each used to exit 1 with numpy's "expected non-negative integer" traceback
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(argv) == 2
    assert "seed must be nonnegative, got -1" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["cfg.json"] * (config is not None)


def test_sweep_bad_config_key_exits_2(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"cases": ["uni1"], "methods": ["none"],
                                    "zaphod": 1}))
    proc = run_cli("sweep", "--config", str(cfg_path), "--out", str(tmp_path))
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [["sweep", "--seed", "1"],
                                  ["report", "--config", "x.json", "results.csv"],
                                  ["report", "--seed", "1", "results.csv"]])
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    # sweep never read --seed, nor report --config or --seed; all were accepted
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_report_missing_file_exits_2(tmp_path):
    proc = run_cli("report", str(tmp_path / "nope.csv"))
    assert proc.returncode == 2


def _results_csv_with_line_2(tmp_path, edit):
    """A two-row results CSV whose first data row went through edit."""
    path = tmp_path / "results.csv"
    rows = [RunRecord("uni1", "none", "centered", 0.0, seed, 0.1, 1.0, 1.0, 0.5, 0.01,
                      0.0, False, 1.0) for seed in (0, 1)]
    write_records_csv(rows, path)
    lines = path.read_text().splitlines()
    lines[1] = edit(lines[1])
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("edit, column", [
    (lambda line: line.replace(",0.0,0,", ",abc,0,", 1), "gamma"),
    (lambda line: ",".join(line.split(",")[:9]), "mse_in"),
    (lambda line: line.replace(",False,", ",yes,"), "unstable"),
], ids=["non_numeric_gamma", "truncated_row", "unstable_not_a_bool"])
def test_report_malformed_row_names_line_and_column(tmp_path, capsys, edit, column):
    # a non-numeric gamma used to exit 1 with a ValueError traceback, a
    # truncated row with a TypeError one, and "yes" read as not unstable
    path = _results_csv_with_line_2(tmp_path, edit)
    assert main(["report", str(path)]) == 2
    assert f"line 2, column {column}" in capsys.readouterr().err


def test_report_row_with_extra_cells_exits_2(tmp_path, capsys):
    # the extra cells used to be dropped without a word
    path = _results_csv_with_line_2(tmp_path, lambda line: line + ",9")
    assert main(["report", str(path)]) == 2
    assert "line 2 has more cells than columns" in capsys.readouterr().err


def test_numerical_error_maps_to_exit_3(monkeypatch, tmp_path, capsys):
    def boom(*a, **k):
        raise NumericalError("synthetic failure")

    monkeypatch.setattr(cli_mod, "run_single_with_model", boom)
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"case": "uni1", "n": 600,
                                    "m_holdout": 100, "epochs": 1,
                                    "batch_size": 64,
                                    "lambda_grid": [0.1],
                                    "sigma2_y_grid": [1.0]}))
    rc = main(["train", "--config", str(cfg_path)])
    assert rc == 3
    assert "numerical error" in capsys.readouterr().err


def test_console_entry_point_configured():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'circe = "circe.cli:main"' in text


def test_fit_cme_rejects_unknown_config_key(tmp_path, capsys):
    # a misspelt key used to be ignored, and the default grid ran
    cfg_path = tmp_path / "cme.json"
    cfg_path.write_text(json.dumps({"lamda_grid": [5.0]}))
    rc = main(["fit-cme", "--case", "uni1", "--n", "400", "--m-holdout", "60",
               "--out", str(tmp_path), "--config", str(cfg_path)])
    assert rc == 2
    assert "lamda_grid" in capsys.readouterr().err
    assert not (tmp_path / "cme_uni1_seed0.npz").exists()


@pytest.mark.parametrize("entry", [{"lambda_grid": [-0.1]}, {"sigma2_y_grid": []},
                                   {"m_holdout": 700, "n": 600}, {"n": "400"}])
def test_fit_cme_checks_values_before_fitting(tmp_path, capsys, entry):
    cfg_path = tmp_path / "cme.json"
    cfg_path.write_text(json.dumps({"n": 400, "m_holdout": 60, **entry}))
    rc = main(["fit-cme", "--case", "uni1", "--out", str(tmp_path),
               "--config", str(cfg_path)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


def test_wrong_value_type_names_key_and_exits_2(tmp_path):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"cases": ["uni1"], "methods": ["none"],
                                    "epochs": "3"}))
    proc = run_cli("sweep", "--config", str(cfg_path), "--out", str(tmp_path))
    assert proc.returncode == 2
    assert "epochs" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "results.csv").exists()
    cfg_path.write_text(json.dumps({"case": "uni1", "gamma": "5", "n": 600,
                                    "m_holdout": 100}))
    proc = run_cli("train", "--config", str(cfg_path))
    assert proc.returncode == 2
    assert "gamma" in proc.stderr and "Traceback" not in proc.stderr


# the last used to train four times and write four identical rows, which
# report counted as n_seeds 4
@pytest.mark.parametrize("entry", [{"lambda_grid": [-0.1]}, {"lambda_grid": []},
                                   {"m_holdout": 700, "n": 600}, {"n": 0},
                                   {"methods": ["none", "none"], "seeds": [0, 0]}])
def test_sweep_level_value_no_run_accepts_exits_2(tmp_path, capsys, entry):
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"cases": ["uni1"], "methods": ["none"], **entry}))
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("entry", [{"nn": 50}, {"n": "abc"}, {"d": 2.0}])
def test_gen_checks_config_before_writing(tmp_path, capsys, entry):
    # {"nn": 50} used to be ignored (10,000 rows written); {"n": "abc"}
    # exited 1 with a traceback
    cfg_path = tmp_path / "gen.json"
    cfg_path.write_text(json.dumps(entry))
    rc = main(["gen", "--case", "uni1", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    assert str(next(iter(entry))) in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_train_rejects_non_string_method(tmp_path, capsys):
    # a list used to end in "TypeError: unhashable type"
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"case": "uni1", "method": ["circe"], "n": 600,
                                    "m_holdout": 100}))
    rc = main(["train", "--config", str(cfg_path)])
    assert rc == 2
    assert "method" in capsys.readouterr().err


def test_train_rejects_a_batch_no_run_fits_before_preparing(tmp_path, capsys, monkeypatch):
    # used to generate the data and fit the embedding, then exit 2 from train
    prepared = []
    monkeypatch.setattr(harness_mod, "_prepare_case", lambda *a: prepared.append(a))
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"case": "uni1", "n": 600, "m_holdout": 100,
                                    "batch_size": 512}))
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    assert "fit pool of 380" in capsys.readouterr().err
    assert not prepared and not list(tmp_path.glob("run_*.csv"))


def test_train_rejects_several_seeds(tmp_path, capsys):
    # used to exit 0 after one run at the first seed
    cfg_path = tmp_path / "train.json"
    cfg_path.write_text(json.dumps({"case": "uni1", "n": 600, "m_holdout": 100,
                                    "seeds": [3, 4]}))
    rc = main(["train", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    assert "[3, 4]" in capsys.readouterr().err
    assert not list(tmp_path.glob("run_*.csv"))
