"""Command-line front end.

Subcommands: gen, fit-cme, train, sweep, report. Exit codes: 0 success,
2 configuration problems (including argparse usage errors), 3 numerical
failures, 4 sweep finished with unstable rows.
"""

from __future__ import annotations

import argparse
import json
import numbers
import sys
from pathlib import Path

from .cme import save_cme
from .exceptions import ConfigError, NumericalError
from .harness import (
    SweepConfig,
    _prepare_case,
    read_records_csv,
    run_single_with_model,
    run_sweep,
    summarize_records,
    write_records_csv,
    write_summary_csv,
)
from .nn import save_model
from .scm import export_csv, gen_scm
from .trainer import check_type

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4
GEN_KEYS = ("case", "n", "d")
FIT_CME_KEYS = GEN_KEYS + ("m_holdout", "lambda_grid", "sigma2_y_grid", "sigma2_z")


def _load_config(path, keys=None) -> dict:
    """The JSON object at path ({} for None); ConfigError on a key outside keys."""
    if path is None:
        return {}
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if keys is not None and not set(raw) <= set(keys):
        raise ConfigError(f"unknown config keys: {sorted(set(raw) - set(keys))}")
    return raw


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_gen(args) -> int:
    cfg = _load_config(args.config, GEN_KEYS)
    case = args.case or cfg.get("case")
    if case is None:
        raise ConfigError("gen needs --case or a 'case' config entry")
    n = args.n if args.n is not None else cfg.get("n", 10_000)
    d = args.d if args.d is not None else cfg.get("d", 2)
    check_type("n", n, numbers.Integral)
    check_type("d", d, numbers.Integral)
    batch = gen_scm(case, n, d, args.seed)
    out = _out_dir(args)
    path = out / f"{case}_n{n}_seed{args.seed}.csv"
    export_csv(batch, path)
    print(f"wrote {batch.n} rows to {path}")
    return EXIT_OK


def _cmd_fit_cme(args) -> int:
    cfg = _load_config(args.config, FIT_CME_KEYS)
    case = args.case or cfg.get("case")
    if case is None:
        raise ConfigError("fit-cme needs --case or a 'case' config entry")
    cfg.pop("case", None)
    for key in ("n", "d", "m_holdout"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    # the sweep config's own checks: types, the grids and the holdout size;
    # fit-cme trains nothing, so the smallest batch leaves any fit pool room
    config = SweepConfig(cases=[case], methods=["none"], batch_size=2, **cfg)
    _, model, report, _ = _prepare_case(config, case, args.seed)
    print("lambda sigma2_y loo_error")
    for lam, s2, err in report.as_rows():
        print(f"{lam:g} {s2:g} {err:.6g}")
    # the width of each pivoted Cholesky factor of K_YY and its kept rank
    print("sigma2_y factor_width rank")
    for s2, width, rank in report.bandwidth_rows():
        print(f"{s2:g} {width} {rank}")
    # the width of the pivoted Cholesky factor of K_ZZ, 1 to m_holdout
    print("sigma2_z z_factor_width")
    print(f"{model.z_params.sigma2:g} {report.z_factor_width}")
    print(f"selected lambda={model.lam:g} sigma2_y={model.y_params.sigma2:g} "
          f"loo={report.best_error:.6g}")
    out = _out_dir(args)
    path = out / f"cme_{case}_seed{args.seed}.npz"
    save_cme(model, path)
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if not cfg:
        raise ConfigError("train needs --config with the run description")
    case = cfg.pop("case", None)
    if case is None:
        raise ConfigError("train config needs a 'case' entry")
    method = cfg.pop("method", "none")
    # checked here: the method keys the gamma grid below
    check_type("method", method, str)
    gamma = cfg.pop("gamma", 0.0)
    seeds = [args.seed] if args.seed is not None else cfg.pop("seeds", [0])
    sweep_config = SweepConfig.from_dict({
        **cfg,
        "cases": [case],
        "methods": [method],
        "gammas": {method: [gamma]},
        "seeds": seeds,
    })
    if len(sweep_config.seeds) > 1:
        raise ConfigError(f"train runs one seed, got seeds {list(sweep_config.seeds)}; "
                          "use sweep for several")
    seed = sweep_config.seeds[0]
    gamma = sweep_config.gammas[method][0]
    record, model = run_single_with_model(sweep_config, case, method, gamma, seed)
    print(f"case={record.case_id} method={record.method} gamma={record.gamma:g} "
          f"seed={record.seed}")
    print(f"mse_in={record.mse_in:.6g} vcf={record.vcf:.6g} "
          f"statistic={record.statistic_final:.6g} unstable={record.unstable}")
    if args.out is not None:
        out = _out_dir(args)
        run_csv = out / f"run_{case}_{method}_seed{seed}.csv"
        write_records_csv([record], run_csv)
        ckpt = out / f"model_{case}_{method}_seed{seed}.npz"
        save_model(model, ckpt)
        print(f"wrote {run_csv} and {ckpt}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.config is None:
        raise ConfigError("sweep needs --config")
    config = SweepConfig.from_dict(_load_config(args.config))
    out = _out_dir(args)
    path = out / "results.csv"
    records, any_unstable = run_sweep(config, out_csv=path, workers=args.workers)
    n_unstable = sum(r.unstable for r in records)
    print(f"wrote {len(records)} rows to {path} ({n_unstable} unstable)")
    return EXIT_PARTIAL if any_unstable else EXIT_OK


def _cmd_report(args) -> int:
    records = read_records_csv(args.results)
    summary = summarize_records(records)
    # the printed table has its own header, with case for summary.csv's case_id
    print("case method gamma median_mse_in median_vcf median_statistic "
          "n_seeds n_unstable")
    for row in summary["rows"]:
        print(f"{row['case_id']} {row['method']} {row['gamma']:g} "
              f"{row['median_mse_in']:.6g} {row['median_vcf']:.6g} "
              f"{row['median_statistic']:.6g} {row['n_seeds']} "
              f"{row['n_unstable']}")
    for (case, method), front in summary["pareto"].items():
        gammas = ", ".join(f"{r['gamma']:g}" for r in front)
        print(f"pareto {case}/{method}: gamma in [{gammas}]")
    if args.out is not None:
        path = _out_dir(args) / "summary.csv"
        write_summary_csv(summary["rows"], path)
        print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circe",
        description="Conditional-independence regularized regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # gen and fit-cme read the same data flags; fit-cme adds --m-holdout
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--config", default=None, help="JSON config path")
    data.add_argument("--seed", type=int, default=0)
    data.add_argument("--out", default=".", help="output directory")
    data.add_argument("--case", default=None)
    data.add_argument("--n", type=int, default=None)
    data.add_argument("--d", type=int, default=None)

    sub.add_parser("gen", parents=[data], help="generate a dataset CSV")

    p_fit = sub.add_parser("fit-cme", parents=[data], help="fit the embedding regression")
    p_fit.add_argument("--m-holdout", type=int, default=None)

    p_train = sub.add_parser("train", help="run a single training job")
    p_train.add_argument("--config", default=None, help="JSON config path")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None, help="output directory")

    p_sweep = sub.add_parser("sweep", help="run a grid of training jobs")
    p_sweep.add_argument("--config", default=None, help="JSON config path")
    p_sweep.add_argument("--out", default=".", help="output directory")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_report = sub.add_parser("report", help="summarize a results CSV")
    p_report.add_argument("--out", default=None, help="output directory")
    p_report.add_argument("results", help="path to results.csv")
    return parser


COMMANDS = {
    "gen": _cmd_gen,
    "fit-cme": _cmd_fit_cme,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
