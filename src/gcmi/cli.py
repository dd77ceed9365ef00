"""Command-line surface.

Subcommands: ``simulate`` (synthetic CSV), ``ampute`` (CSV -> values +
mask CSVs), ``impute`` (CSV -> M completed CSVs + manifest), ``benchmark``
(Monte Carlo grid -> table CSV/JSON).  Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .benchmark import run_benchmark
from .chained import gcmi_impute, save_result
from .config import (
    AmputeJob,
    ImputeJob,
    RunConfig,
    SimulateJob,
    load_config,
    parse_config,
)
from .data import (
    DataMatrix,
    matrix_from_array,
    read_csv,
    write_csv,
    write_mask_csv,
)
from .errors import ConfigError, DataError, GcmiError, NumericError
from .simulate import AmputationSpec, SyntheticSpec, ampute, gen_synthetic


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _global_flags(parser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; the
    # subcommand copies use SUPPRESS so they never clobber earlier values
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=int, default=default, help="root seed (default 0)")
    parser.add_argument("--config", type=str, default=default, help="JSON configuration file")
    parser.add_argument("--threads", type=int, default=default, help="worker processes (default 1)")
    parser.add_argument("--output-dir", type=str, default=default, help="output directory (default .)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gcmi", description=__doc__)
    _global_flags(parser, suppress=False)
    common = _Parser(add_help=False)
    _global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic complete dataset", parents=[common])
    sim.add_argument("--n", type=int, default=None)
    sim.add_argument("--p", type=int, default=None)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--sigma2", type=float, default=None)
    sim.add_argument("--noise-sd", type=float, default=None)
    sim.add_argument("--out", type=str, default=None, help="output CSV name")

    amp = sub.add_parser("ampute", help="delete cells from a complete CSV", parents=[common])
    amp.add_argument("input", nargs="?", default=None, help="complete CSV file")
    amp.add_argument("--mechanism", choices=["mcar", "mar", "mnar"], default=None)
    amp.add_argument("--rate", type=float, default=None, help="MCAR deletion probability")
    amp.add_argument("--b0", type=float, default=None, help="MNAR intercept")
    amp.add_argument("--b1", type=float, default=None, help="MNAR slope")
    amp.add_argument("--layout", choices=["elementwise", "blockwise"], default=None)
    amp.add_argument("--out-prefix", type=str, default=None)

    imp = sub.add_parser("impute", help="multiply impute a CSV with missing cells", parents=[common])
    imp.add_argument("input", nargs="?", default=None, help="CSV with missing cells")
    imp.add_argument("--m", type=int, default=None, help="number of imputations")
    imp.add_argument("--out-prefix", type=str, default=None)

    bench = sub.add_parser("benchmark", help="run the Monte Carlo benchmark grid", parents=[common])
    bench.add_argument("--mc-repeats", type=int, default=None)
    bench.add_argument("--dump-raw", action="store_true", default=None)
    bench.add_argument("--out-prefix", type=str, default=None)
    return parser


def _resolve_config(args) -> RunConfig:
    # flags override top-level keys before parsing, so the seeds and worker
    # counts derived from them follow the flags
    flags = {"seed": args.seed, "threads": args.threads, "output_dir": args.output_dir}
    overrides = {key: value for key, value in flags.items() if value is not None}
    if args.config:
        return load_config(args.config, overrides)
    return parse_config(overrides)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_input(arg_input: str | None, job_input: str | None, cfg: RunConfig) -> Path | None:
    """Command-line inputs are taken as given; relative paths from the
    config file resolve against the output directory, so one config can
    chain simulate -> ampute -> impute outputs."""
    if arg_input:
        return Path(arg_input)
    if job_input:
        path = Path(job_input)
        if not path.is_absolute():
            return Path(cfg.output_dir) / path
        return path
    return None


def _cmd_simulate(args, cfg: RunConfig) -> int:
    job = cfg.simulate or SimulateJob(SyntheticSpec(seed=cfg.seed))
    spec = job.spec
    updates = {}
    for name in ("n", "p", "rho", "sigma2"):
        if getattr(args, name) is not None:
            updates[name] = getattr(args, name)
    if args.noise_sd is not None:
        updates["noise_sd"] = args.noise_sd
    if updates:
        spec = replace(spec, **updates)
    X, Y = gen_synthetic(spec)
    names = [f"X{j + 1}" for j in range(spec.p)] + ["Y"]
    dm = matrix_from_array(np.column_stack([X, Y]), names=names)
    out_path = _out_dir(cfg) / (args.out or job.out)
    write_csv(dm, out_path)
    print(f"wrote {out_path} ({spec.n} rows, {spec.p} covariates + outcome)")
    return 0


def _cmd_ampute(args, cfg: RunConfig) -> int:
    job = cfg.ampute or AmputeJob(AmputationSpec(seed=cfg.seed))
    input_path = _resolve_input(args.input, job.input, cfg)
    if not input_path:
        raise UsageError("ampute needs an input CSV (argument or config ampute.input)")
    spec = job.spec
    updates = {}
    for name in ("mechanism", "rate", "b0", "b1", "layout"):
        if getattr(args, name) is not None:
            updates[name] = getattr(args, name)
    if updates:
        spec = replace(spec, **updates)
    spec.validate()
    dm = read_csv(input_path)
    if dm.mask.any():
        raise DataError(f"{input_path}: amputation input must be complete")
    mask = ampute(dm.values, spec)
    for col, emptied in zip(dm.schema, mask.all(axis=0).tolist()):
        if emptied:
            raise DataError(
                f"{input_path}: {spec.label} deletes every cell of column {col.name!r}; "
                "no files written"
            )
    amputed = DataMatrix(list(dm.schema), np.where(mask, np.nan, dm.values), mask)
    prefix = args.out_prefix or job.out_prefix
    out = _out_dir(cfg)
    values_path = out / f"{prefix}_values.csv"
    mask_path = out / f"{prefix}_mask.csv"
    write_csv(amputed, values_path)
    write_mask_csv(mask, [c.name for c in dm.schema], mask_path)
    print(
        f"wrote {values_path} and {mask_path} "
        f"({mask.mean():.3f} of cells deleted under {spec.label})"
    )
    return 0


def _cmd_impute(args, cfg: RunConfig) -> int:
    job = cfg.impute or ImputeJob()
    input_path = _resolve_input(args.input, job.input, cfg)
    if not input_path:
        raise UsageError("impute needs an input CSV (argument or config impute.input)")
    gcfg = cfg.gcmi if args.m is None else replace(cfg.gcmi, m_imputations=args.m)
    dm = read_csv(input_path)
    result = gcmi_impute(dm, gcfg)
    prefix = args.out_prefix or job.out_prefix
    paths = save_result(result, _out_dir(cfg), stem=prefix)
    print(f"wrote {len(paths) - 1} completed datasets + manifest under {_out_dir(cfg)}")
    return 0


def _cmd_benchmark(args, cfg: RunConfig) -> int:
    if cfg.benchmark is None:
        raise UsageError("benchmark needs a 'benchmark' section in the config file")
    job = cfg.benchmark
    spec = job.spec
    if args.mc_repeats is not None:
        spec = replace(spec, mc_repeats=args.mc_repeats)
    table = run_benchmark(spec)
    prefix = args.out_prefix or job.out_prefix
    out = _out_dir(cfg)
    table.to_csv(out / f"{prefix}.csv")
    table.to_json(out / f"{prefix}.json")
    if args.dump_raw or job.dump_raw:
        table.dump_raw_csv(out / f"{prefix}_raw.csv")
    for row in table.rows:
        print(
            f"{row.method:>10s}  {row.mechanism:>12s}  "
            f"rmse {row.mean_rmse:.4f} +/- {row.se_rmse:.4f} (n={row.n_repeats})"
        )
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ampute": _cmd_ampute,
    "impute": _cmd_impute,
    "benchmark": _cmd_benchmark,
}


def cli_main(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, and map failures onto exit codes."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except GcmiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
