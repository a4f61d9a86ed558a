import csv
import gc
import importlib.util
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

import circe.harness as harness_mod
import circe.trainer as trainer_mod
from circe.cli import _load_config
from circe.estimator import cross_factors
from circe.exceptions import ConfigError, NumericalError
from circe.harness import (
    CSV_COLUMNS,
    RunRecord,
    SweepConfig,
    blas_threads,
    eval_vcf,
    pareto_front,
    read_records_csv,
    run_single_with_model,
    run_sweep,
    summarize_records,
    write_records_csv,
)
from circe.scm import gen_scm
from circe.trainer import TrainConfig


def test_blas_threads_sets_and_reads_the_bundled_openblas(tmp_path, monkeypatch):
    # the pool's worker initializer, which pool workers run untraced
    before = blas_threads()
    assert before >= 1
    try:
        assert blas_threads(1) == 1
        assert blas_threads() == 1
    finally:
        assert blas_threads(before) == before
    # where numpy bundles no OpenBLAS it sets and reports nothing
    monkeypatch.setattr(harness_mod, "NUMPY_LIBS", tmp_path)
    assert blas_threads(1) is None


def test_vcf_constant_predictor_is_zero():
    batch = gen_scm("uni1", 200, 1, seed=0)
    result = eval_vcf(lambda a, y, z: np.zeros((a.shape[0], 1)), batch,
                      n_interventions=10, seed=1)
    assert result.value == 0.0
    assert result.n_points == 200
    assert result.n_interventions == 10


def test_vcf_matches_variance_oracle():
    batch = gen_scm("uni1", 2000, 1, seed=3)
    result = eval_vcf(lambda a, y, z: z[:, 0:1], batch,
                      n_interventions=100, seed=7)
    target = float(np.var(batch.z))
    assert abs(result.value - target) <= 0.1 * target


def test_vcf_shift_invariance_and_consistency():
    batch = gen_scm("uni2", 500, 1, seed=5)

    def base(a, y, z):
        return np.sin(z[:, 0:1]) + 0.3 * z[:, 0:1] ** 2

    def shifted(a, y, z):
        return base(a, y, z) + 17.0

    r1 = eval_vcf(base, batch, n_interventions=20, seed=9)
    r2 = eval_vcf(shifted, batch, n_interventions=20, seed=9)
    assert r2.value == pytest.approx(r1.value, rel=1e-12)
    r4 = eval_vcf(base, batch, n_interventions=40, seed=9)
    assert abs(r4.value - r1.value) <= 0.15 * r1.value


def test_vcf_validation():
    batch = gen_scm("uni1", 50, 1, seed=0)
    # a float count raised TypeError from np.empty and a negative seed
    # numpy's ValueError
    for n_interventions, seed, message in ((1, 0, "n_interventions must be >= 2"),
                                           (2.5, 0, "n_interventions=2.5 has the wrong type"),
                                           (True, 0, "n_interventions=True has the wrong type"),
                                           (4, 1.0, "seed=1.0 has the wrong type"),
                                           (4, -1, "seed must be nonnegative, got -1")):
        with pytest.raises(ConfigError, match=message):
            eval_vcf(lambda a, y, z: z, batch, n_interventions=n_interventions, seed=seed)


def test_pareto_front_cases():
    assert pareto_front([(1, 2), (2, 1), (3, 3)]) == [0, 1]
    assert pareto_front([(1, 1), (1, 1), (1, 1)]) == [0, 1, 2]
    assert pareto_front([(1, 3), (2, 2), (3, 1)]) == [0, 1, 2]
    # dominated duplicate of a better point drops out
    assert pareto_front([(2, 2), (1, 2)]) == [1]
    with pytest.raises(ConfigError):
        pareto_front([])


def test_pareto_front_permutation_and_idempotence():
    rng = np.random.default_rng(4)
    pts = [(float(a), float(b)) for a, b in rng.random((20, 2))]
    keep = pareto_front(pts)
    front = [pts[i] for i in keep]
    perm = rng.permutation(20)
    keep_p = pareto_front([pts[i] for i in perm])
    front_p = [pts[perm[i]] for i in keep_p]
    assert sorted(front) == sorted(front_p)
    again = pareto_front(front)
    assert [front[i] for i in again] == front


def make_record(**kw):
    base = dict(case_id="uni1", method="circe", variant="centered", gamma=1.0,
                seed=0, lam=0.1, sigma2_y=1.0, sigma2_z=1.0, mse_in=0.5,
                vcf=0.01, statistic_final=1e-4,
                unstable=False, wall_seconds=2.5)
    base.update(kw)
    return RunRecord(**base)


def test_csv_roundtrip(tmp_path):
    records = [make_record(seed=s, mse_in=0.5 + s) for s in range(3)]
    records.append(make_record(method="none", gamma=0.0, unstable=True))
    path = tmp_path / "results.csv"
    write_records_csv(records, path)
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header == list(CSV_COLUMNS)
    loaded = read_records_csv(path)
    assert len(loaded) == 4
    for a, b in zip(records, loaded):
        assert a == b


def test_schema_1_csv_reads_as_schema_2(tmp_path):
    # schema 1 carried an always-NaN mse_ood column; reading ignores it, so
    # a file from before the schema change diffs clean against one from after
    records = [make_record(seed=s, mse_in=0.5 + s) for s in range(3)]
    records.append(make_record(method="none", gamma=0.0, unstable=True,
                               mse_in=float("nan"), vcf=float("nan")))
    old = tmp_path / "schema1.csv"
    with open(old, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS[:10] + ("mse_ood",) + CSV_COLUMNS[10:])
        for r in records:
            row = r.as_row()
            writer.writerow(["1"] + row[1:10] + ["nan"] + row[10:])
    new = tmp_path / "schema2.csv"
    write_records_csv(records, new)
    assert [r.as_row() for r in read_records_csv(old)] == [r.as_row() for r in records]
    assert _load_diff_tool().diff_results(old, new) == []


def test_read_csv_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("case_id,method\nuni1,circe\n")
    with pytest.raises(ConfigError):
        read_records_csv(path)
    with pytest.raises(ConfigError, match="cannot read results CSV"):
        read_records_csv(tmp_path / "missing.csv")


def test_sweep_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(cases=(), methods=("none",))
    with pytest.raises(ConfigError):
        SweepConfig(cases=("uni1",), methods=("magic",))
    with pytest.raises(ConfigError, match="at least one method"):
        SweepConfig(cases=("uni1",), methods=())
    with pytest.raises(ConfigError, match="at least one seed"):
        SweepConfig(cases=("uni1",), methods=("none",), seeds=())
    with pytest.raises(ConfigError, match="gamma grid for unknown method"):
        SweepConfig(cases=("uni1",), methods=("none",), gammas={"magic": [1.0]})
    with pytest.raises(ConfigError, match="workers must be positive"):
        run_sweep(SweepConfig(cases=("uni1",), methods=("none",)), workers=0)
    # each used to build, then write unstable NaN rows: a run's own gamma, the
    # baselines' smallest batch, a batch larger than the fit pool of 380, and
    # a non-finite gamma or optimizer setting
    bad = [dict(methods=["circe"], gammas={"circe": [-1.0]}),
           dict(methods=["gcm"], batch_size=4), dict(methods=["hscic"], batch_size=4),
           dict(methods=["none"], n=600, m_holdout=100, batch_size=512),
           dict(methods=["circe"], gammas={"circe": [float("nan")]}),
           dict(methods=["circe"], gammas={"circe": [float("inf")]}),
           dict(methods=["none"], lr=float("nan")),
           dict(methods=["none"], weight_decay=float("nan"))]
    for entry in bad:
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"cases": ["uni1"], **entry})
    SweepConfig(cases=("uni1",), methods=("none",), n=600, m_holdout=100, batch_size=380)
    with pytest.raises(ConfigError):
        SweepConfig(cases=("yale",), methods=("none",))
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"cases": ["uni1"]})
    with pytest.raises(ConfigError):
        SweepConfig.from_dict({"cases": ["uni1"], "methods": ["none"],
                               "bogus_key": 1})
    # each of these used to give a sweep of NaN rows marked unstable, or
    # (lam) to be accepted and ignored, or (use_rff) to pick a deleted path
    bad = [{"variant": "bogus"}, {"batch_size": 1}, {"epochs": 0},
           {"optimizer": "sgd"}, {"weight_decay": -0.1},
           {"hidden_widths": [8, 0]}, {"sigma2_x": 0.0},
           {"sigma2_z": float("nan")}, {"n_interventions": 1},
           {"lam": 0.1}, {"use_rff": True}, {"rff_dim": 64}]
    for entry in bad:
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"cases": ["uni1"], "methods": ["none"], **entry})
    # the template is built from flat keys only, neither in JSON nor in
    # Python, where a passed template used to lose lr and weight_decay
    with pytest.raises(ConfigError, match="unknown sweep config keys"):
        SweepConfig.from_dict({"cases": ["uni1"], "methods": ["none"],
                               "train": {"epochs": 1}})
    with pytest.raises(ConfigError, match="unknown sweep config keys"):
        SweepConfig(cases=["uni1"], methods=["none"],
                    train=TrainConfig(lr=5e-4, weight_decay=0.0))
    # the fields each run sets itself are not keys
    for key in ("method", "gamma", "seed", "sigma2_y"):
        with pytest.raises(ConfigError, match="unknown sweep config keys"):
            SweepConfig(cases=("uni1",), methods=("none",), **{key: 1.0})
    # d below 2 used to build, then fail every multi1 run as a NaN row
    for case in ("multi1", "multi2"):
        with pytest.raises(ConfigError, match=f"d must be at least 2 for {case}"):
            SweepConfig.from_dict({"cases": ["uni1", case], "methods": ["none"], "d": 1})
    assert SweepConfig(cases=("uni1", "uni2"), methods=("none",), d=1).d == 1
    cfg = SweepConfig(cases=("uni1",), methods=("none", "circe"),
                      gammas={"circe": [1.0, 10.0]})
    assert cfg.gammas["circe"] == (1.0, 10.0)
    assert len(cfg.gammas["hscic"]) == 10
    # flat TrainConfig keywords fill the template; lr and weight_decay stay
    # per-case overrides
    cfg = SweepConfig(cases=("uni1",), methods=("none",), epochs=3,
                      hidden_widths=[8], weight_decay=0.0)
    assert cfg.train == TrainConfig(epochs=3, hidden_widths=(8,), weight_decay=0.0)
    assert cfg.lr is None and cfg.weight_decay == 0.0


@pytest.mark.parametrize("entry, key", [
    ({"cases": ["uni1", "uni2", "uni1"]}, "cases"),
    ({"methods": ["circe", "none", "circe"]}, "methods"),
    ({"seeds": [0, 1, 0]}, "seeds"),
    ({"gammas": {"circe": [1.0, 10, 1]}}, "gammas of circe"),
    ({"gammas": {"gcm": [0.1, 0.1]}}, "gammas of gcm"),
], ids=["cases", "methods", "seeds", "circe_gammas", "gcm_gammas"])
def test_repeated_sweep_axis_values_rejected(entry, key):
    # a repeated value used to train the same runs again and write their rows twice
    config = {"cases": ["uni1"], "methods": ["none", "circe"], **entry}
    with pytest.raises(ConfigError, match=f"{key} must not repeat a value"):
        SweepConfig.from_dict(config)


def test_sweep_level_values_rejected_when_built():
    # each used to build, then fail per run as a case of NaN rows marked unstable
    bad = [{"lambda_grid": (-0.1,)}, {"lambda_grid": ()}, {"sigma2_y_grid": ()},
           {"sigma2_y_grid": (float("inf"),)}, {"m_holdout": 700, "n": 600},
           {"n": 0}, {"m_holdout": 1}]
    for entry in bad:
        with pytest.raises(ConfigError):
            SweepConfig(cases=("uni1",), methods=("none",), **entry)
    # a negative seed used to build, then end the sweep in numpy's default_rng
    with pytest.raises(ConfigError, match="seed must be nonnegative, got -2"):
        SweepConfig(cases=("uni1",), methods=("none",), seeds=(0, -2))
    with pytest.raises(ConfigError, match="sigma2_y_grid values"):
        SweepConfig(cases=("uni1",), methods=("none",), sigma2_y_grid=(0.0,))
    # the 80% train split of n = 600 has 480 rows; a holdout of 478 leaves a
    # fit pool of 2, room for the smallest batch, and one of 479 leaves none
    SweepConfig(cases=("uni1",), methods=("none",), n=600, m_holdout=478, batch_size=2)
    for m_holdout in (479, 480):
        with pytest.raises(ConfigError):
            SweepConfig(cases=("uni1",), methods=("none",), n=600, m_holdout=m_holdout,
                        batch_size=2)


def test_wrong_value_types_rejected_with_their_key():
    bad = [("epochs", "3"), ("gamma", "1"), ("lr", None), ("batch_size", 64.0),
           ("epochs", True), ("hidden_widths", 8), ("hidden_widths", ["8"]),
           ("variant", 3)]
    for key, value in bad:
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: value})
    bad = [("n", "600"), ("m_holdout", 100.0), ("seeds", 3), ("seeds", ["0"]),
           ("lambda_grid", ["0.1"]), ("gammas", [1.0]), ("gammas", {"circe": "1"}),
           ("epochs", "3")]
    for key, value in bad:
        with pytest.raises(ConfigError, match=key):
            SweepConfig(cases=("uni1",), methods=("none",), **{key: value})
    # numpy scalars are numbers
    cfg = SweepConfig(cases=("uni1",), methods=("none",), seeds=(np.int64(3),),
                      n=np.int64(600), m_holdout=100, lambda_grid=(np.float64(0.5),),
                      epochs=np.int64(2))
    assert cfg.seeds == (3,) and cfg.lambda_grid == (0.5,) and cfg.train.epochs == 2


def test_fixed_sweep_config_builds():
    # the byte-identity gate's committed config must pass validation
    path = Path(__file__).resolve().parent.parent / "tools" / "fixed_sweep.json"
    config = SweepConfig.from_dict(_load_config(path))
    assert config.cases == ("uni1", "multi1", "multi2")
    assert config.train.epochs == 1


def tiny_sweep_config(**kw):
    base = dict(
        cases=("uni1",), methods=("none", "circe"), seeds=(0, 1),
        gammas={"circe": [1.0, 10.0]}, n=600, d=2, m_holdout=100,
        epochs=2, batch_size=64, lr=1e-3, weight_decay=0.0,
        hidden_widths=(8,), n_interventions=5,
        lambda_grid=(0.1,), sigma2_y_grid=(1.0,),
    )
    base.update(kw)
    return SweepConfig(**base)


def _count_calls(monkeypatch, name):
    """Wrap harness.<name> so that each call appends its positional args."""
    calls, inner = [], getattr(harness_mod, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(harness_mod, name, counted)
    return calls


def test_sweep_counts_order_and_determinism(tmp_path, monkeypatch):
    datasets = _count_calls(monkeypatch, "make_dataset")
    fits = _count_calls(monkeypatch, "select_hyperparams")
    config = tiny_sweep_config()
    records, any_unstable = run_sweep(config, out_csv=tmp_path / "a.csv")
    # each (case, seed) cell is prepared once for all its methods and gammas
    assert [(args[0], args[3]) for args in datasets] == [("uni1", 0), ("uni1", 1)]
    assert len(fits) == 2
    # (none: 1 gamma + circe: 2 gammas) x 2 seeds
    assert len(records) == 6
    assert not any_unstable
    keys = [(r.method, r.gamma, r.seed) for r in records]
    assert keys == [("none", 0.0, 0), ("none", 0.0, 1),
                    ("circe", 1.0, 0), ("circe", 1.0, 1),
                    ("circe", 10.0, 0), ("circe", 10.0, 1)]
    # and again by the next sweep: no cell outlives its job
    records2, _ = run_sweep(config, out_csv=tmp_path / "b.csv")
    assert len(datasets) == len(fits) == 4
    for a, b in zip(records, records2):
        row_a = a.as_row()[:-1]
        row_b = b.as_row()[:-1]
        assert row_a == row_b
    # csv files identical apart from the wall_seconds column
    strip = lambda p: ["," .join(line.split(",")[:-1])
                       for line in open(p).read().splitlines()]
    assert strip(tmp_path / "a.csv") == strip(tmp_path / "b.csv")


def test_sweep_singleton_matches_direct_run():
    config = tiny_sweep_config(methods=("none",), seeds=(0,))
    records, _ = run_sweep(config)
    direct, _ = run_single_with_model(config, "uni1", "none", 0.0, 0)
    assert len(records) == 1
    assert records[0].as_row()[:-1] == direct.as_row()[:-1]


def test_sweep_records_failures_as_unstable_rows(monkeypatch):
    def failing(*args, **kwargs):
        raise NumericalError("synthetic training failure")

    monkeypatch.setattr(harness_mod, "train", failing)
    config = tiny_sweep_config(methods=("none",), seeds=(0,))
    records, any_unstable = run_sweep(config)
    assert len(records) == 1
    assert records[0].unstable
    assert any_unstable
    assert np.isnan(records[0].mse_in)


def test_failed_preparation_makes_every_row_of_its_cell_unstable(monkeypatch):
    attempts = []

    def failing(*args, **kwargs):
        attempts.append(args)
        raise NumericalError("synthetic LOO failure")

    monkeypatch.setattr(harness_mod, "select_hyperparams", failing)
    records, any_unstable = run_sweep(tiny_sweep_config(seeds=(0,)))
    # tried once for the cell, not once per row
    assert len(attempts) == 1
    assert len(records) == 3 and any_unstable
    for record in records:
        assert record.unstable
        assert all(math.isnan(v) for v in (record.lam, record.sigma2_y, record.mse_in,
                                          record.vcf, record.statistic_final))
    with pytest.raises(NumericalError, match="synthetic LOO failure"):
        run_single_with_model(tiny_sweep_config(), "uni1", "circe", 1.0, 0)


def _capture_cell_models(monkeypatch):
    """Wrap harness.select_hyperparams, harness.train and the trainer's
    cross_factors: the fit of each cell, kept as a caller that keeps it
    would, the number of cross-factor builds, and for each circe run a weak
    reference to the embedding it trained with and whether that embedding
    held the run's cross factors when training returned."""
    fitted, builds, trained, held = [], [], [], []
    inner_select, inner_train = harness_mod.select_hyperparams, harness_mod.train

    def select(*args, **kwargs):
        model, report = inner_select(*args, **kwargs)
        fitted.append(model)
        return model, report

    def train(config, data, cme_model=None):
        result = inner_train(config, data, cme_model=cme_model)
        if cme_model is not None:
            trained.append(weakref.ref(cme_model))
            held.append(bool(cme_model._slot))
        return result

    def counting(*args):
        builds.append(None)  # a count: no reference to the embedding
        return cross_factors(*args)

    monkeypatch.setattr(harness_mod, "select_hyperparams", select)
    monkeypatch.setattr(harness_mod, "train", train)
    monkeypatch.setattr(trainer_mod, "cross_factors", counting)
    return fitted, builds, trained, held


def test_cell_releases_its_cross_factors(monkeypatch):
    # the cell's job is the only owner of the embedding it trains with, a
    # copy of the fit, so reference counting frees that copy and the cross
    # factors kept on it when the job ends, also by an exception, without
    # the cycle collector; whoever keeps the fit keeps no factors
    fitted, builds, trained, held = _capture_cell_models(monkeypatch)

    def failing_eval(*args, **kwargs):
        raise NumericalError("synthetic eval failure")

    gc.disable()
    try:
        run_sweep(tiny_sweep_config(seeds=(0,)))
        # both gammas of the cell share one build
        assert held == [True, True] and len(builds) == 1
        assert len(trained) == 2 and all(ref() is None for ref in trained)
        assert len(fitted) == 1 and not fitted[0]._slot
        monkeypatch.setattr(harness_mod, "eval_vcf", failing_eval)
        with pytest.raises(NumericalError, match="synthetic eval failure"):
            run_single_with_model(tiny_sweep_config(), "uni1", "circe", 1.0, 0)
        assert held == [True, True, True] and len(builds) == 2
        assert len(trained) == 3 and trained[2]() is None
        assert len(fitted) == 2 and not fitted[1]._slot
    finally:
        gc.enable()


def test_sweep_lets_unexpected_errors_through(monkeypatch):
    # only package errors and floating-point errors become unstable rows
    def broken(*args, **kwargs):
        raise RuntimeError("bug in the training loop")

    monkeypatch.setattr(harness_mod, "train", broken)
    config = tiny_sweep_config(methods=("none",), seeds=(0,))
    with pytest.raises(RuntimeError, match="bug in the training loop"):
        run_single_with_model(config, "uni1", "none", 0.0, 0)


def _load_diff_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "diff_results.py"
    spec = importlib.util.spec_from_file_location("diff_results", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_diff_results_tool_reports_changed_cells(tmp_path, capsys):
    tool = _load_diff_tool()
    records = [make_record(seed=s, mse_in=0.5 + s) for s in range(3)]
    write_records_csv(records, tmp_path / "a.csv")
    # wall_seconds alone never counts as a difference
    write_records_csv([make_record(seed=s, mse_in=0.5 + s, wall_seconds=9.0)
                       for s in range(3)], tmp_path / "b.csv")
    records[1] = make_record(seed=1, mse_in=0.25)
    write_records_csv(records, tmp_path / "c.csv")

    assert tool.main([str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
    assert tool.main([str(tmp_path / "a.csv"), str(tmp_path / "c.csv")]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    # |0.25 - 1.5| / 1.5
    assert lines[-1] == "uni1 circe 1.0 1 mse_in: 1.5 -> 0.25 (rel 0.83)"
    assert lines[:-1] == ["no differences except wall_seconds"]

    # a one-ulp move reads as such; NaN, flags and missing rows carry no size
    records[0] = make_record(seed=0, mse_in=0.5,
                             statistic_final=math.nextafter(1e-4, 1.0))
    records[1] = make_record(seed=1, mse_in=1.5, vcf=float("nan"), unstable=True)
    write_records_csv(records[:2], tmp_path / "d.csv")
    assert tool.main([str(tmp_path / "a.csv"), str(tmp_path / "d.csv")]) == 1
    assert capsys.readouterr().out.strip().splitlines() == [
        "uni1 circe 1.0 0 statistic_final: 0.0001 -> 0.00010000000000000002 (rel 1.4e-16)",
        "uni1 circe 1.0 1 vcf: 0.01 -> nan",
        "uni1 circe 1.0 1 unstable: False -> True",
        f"uni1 circe 1.0 2: row only in {tmp_path / 'a.csv'}",
    ]
    assert tool.main([str(tmp_path / "a.csv")]) == 2


def test_summarize_records_medians_and_front():
    records = []
    for gamma, mse, vcf in [(1.0, 0.2, 0.5), (10.0, 0.3, 0.1), (100.0, 0.5, 0.3)]:
        for seed in range(3):
            records.append(make_record(gamma=gamma, seed=seed,
                                       mse_in=mse + 0.01 * seed, vcf=vcf))
    summary = summarize_records(records)
    rows = summary["rows"]
    assert len(rows) == 3
    assert rows[0]["median_mse_in"] == pytest.approx(0.21)
    front = summary["pareto"][("uni1", "circe")]
    assert [r["gamma"] for r in front] == [1.0, 10.0]
    with pytest.raises(ConfigError):
        summarize_records([])


def test_summarize_records_keeps_an_all_nan_group_out_of_the_front():
    nan = float("nan")
    records = [make_record(gamma=1.0, seed=s) for s in range(2)]
    for gamma, mse, vcf in [(1.0, nan, 0.1), (10.0, 0.3, nan)]:
        records += [make_record(method="hscic", gamma=gamma, seed=s, mse_in=mse,
                                vcf=vcf, unstable=True) for s in range(2)]
    summary = summarize_records(records)
    hscic = [r for r in summary["rows"] if r["method"] == "hscic"]
    assert [r["gamma"] for r in hscic] == [1.0, 10.0]
    assert all(r["n_unstable"] == 2 for r in hscic)
    assert list(summary["pareto"]) == [("uni1", "circe")]
