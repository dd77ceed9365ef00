"""Command-line surface.

Subcommands: ``simulate`` (synthetic CSV), ``ampute`` (CSV -> values +
mask CSVs), ``impute`` (CSV -> M completed CSVs + manifest), ``benchmark``
(Monte Carlo grid -> table CSV/JSON).  Each flag overrides the config key
of the same name, a subcommand's flags the keys of its section.  Exit
codes: 0 success, 1 usage or configuration error, 2 data error or lack of
resources (out of memory, or a worker process that died, say killed by
the operating system's out-of-memory killer), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import BrokenExecutor
from pathlib import Path

import numpy as np

from .benchmark import run_benchmark
from .chained import gcmi_impute, is_run_file, save_result
from .config import RunConfig, load_config, parse_config
from .data import (
    DataMatrix,
    matrix_from_array,
    read_csv,
    write_csv,
    write_mask_csv,
)
from .errors import ConfigError, DataError, GcmiError, NumericError
from .simulate import ampute, gen_synthetic


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _global_flags(parser) -> None:
    parser.add_argument("--seed", type=int, help="root seed (default 0)")
    parser.add_argument("--config", type=str, help="JSON configuration file")
    parser.add_argument("--threads", type=int, help="worker processes (default 1)")
    parser.add_argument("--output-dir", type=str, help="output directory (default .)")


def _build_parser() -> _Parser:
    # the global flags are accepted before and after the subcommand; with
    # SUPPRESS a flag that is not given stays out of the namespace, so a
    # later copy never clobbers an earlier value, and only the flags given
    # override the config
    kw = {"argument_default": argparse.SUPPRESS}
    parser = _Parser(prog="gcmi", description=__doc__, **kw)
    _global_flags(parser)
    common = _Parser(add_help=False, **kw)
    _global_flags(common)
    sub = parser.add_subparsers(dest="command", required=True)
    kw["parents"] = [common]

    sim = sub.add_parser("simulate", help="generate a synthetic complete dataset", **kw)
    sim.add_argument("--n", type=int)
    sim.add_argument("--p", type=int)
    sim.add_argument("--rho", type=float)
    sim.add_argument("--sigma2", type=float)
    sim.add_argument("--noise-sd", type=float)
    sim.add_argument("--out", type=str, help="output CSV name")

    amp = sub.add_parser("ampute", help="delete cells from a complete CSV", **kw)
    amp.add_argument("input", nargs="?", default=None, help="complete CSV file")
    amp.add_argument("--mechanism", choices=["mcar", "mar", "mnar"])
    amp.add_argument("--rate", type=float, help="MCAR deletion probability")
    amp.add_argument("--b0", type=float, help="MNAR intercept")
    amp.add_argument("--b1", type=float, help="MNAR slope")
    amp.add_argument("--layout", choices=["elementwise", "blockwise"])
    amp.add_argument("--out-prefix", type=str)

    imp = sub.add_parser("impute", help="multiply impute a CSV with missing cells", **kw)
    imp.add_argument("input", nargs="?", default=None, help="CSV with missing cells")
    imp.add_argument("--m", type=int, help="number of imputations (gcmi.m_imputations)")
    imp.add_argument("--out-prefix", type=str)

    bench = sub.add_parser("benchmark", help="run the Monte Carlo benchmark grid", **kw)
    bench.add_argument("--mc-repeats", type=int)
    bench.add_argument("--dump-raw", action="store_true")
    bench.add_argument("--out-prefix", type=str)
    return parser


def _resolve_config(args) -> RunConfig:
    # every flag given is a config key, merged over the file before the one
    # parse: global flags at the top level, subcommand flags into the running
    # command's section (--m into gcmi). The positional input stays out, as
    # command-line paths do not resolve against the output directory.
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "config", "input")}
    overrides = {k: flags.pop(k) for k in ("seed", "threads", "output_dir") if k in flags}
    if "m" in flags:
        overrides["gcmi"] = {"m_imputations": flags.pop("m")}
    # simulate, ampute and impute run on defaults; a benchmark runs only on
    # the section the file or its flags give it
    if flags or args.command != "benchmark":
        overrides[args.command] = flags
    if "config" in args:
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
    job = cfg.simulate
    X, Y = gen_synthetic(job.spec)
    names = [f"X{j + 1}" for j in range(job.spec.p)] + ["Y"]
    dm = matrix_from_array(np.column_stack([X, Y]), names=names)
    out_path = _out_dir(cfg) / job.out
    write_csv(dm, out_path)
    print(f"wrote {out_path} ({job.spec.n} rows, {job.spec.p} covariates + outcome)")
    return 0


def _cmd_ampute(args, cfg: RunConfig) -> int:
    job = cfg.ampute
    input_path = _resolve_input(args.input, job.input, cfg)
    if not input_path:
        raise UsageError("ampute needs an input CSV (argument or config ampute.input)")
    spec = job.spec
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
    amputed = DataMatrix(list(dm.schema), np.where(mask, np.nan, dm.values))
    out = _out_dir(cfg)
    values_path = out / f"{job.out_prefix}_values.csv"
    mask_path = out / f"{job.out_prefix}_mask.csv"
    write_csv(amputed, values_path)
    write_mask_csv(mask, [c.name for c in dm.schema], mask_path)
    print(
        f"wrote {values_path} and {mask_path} "
        f"({mask.mean():.3f} of cells deleted under {spec.label})"
    )
    return 0


def _cmd_impute(args, cfg: RunConfig) -> int:
    job = cfg.impute
    input_path = _resolve_input(args.input, job.input, cfg)
    if not input_path:
        raise UsageError("impute needs an input CSV (argument or config impute.input)")
    path = input_path.resolve()
    if path.parent == Path(cfg.output_dir).resolve() and is_run_file(path.name, job.out_prefix):
        raise UsageError(f"impute input {input_path} is a file this run writes or removes")
    dm = read_csv(input_path)
    out = _out_dir(cfg)
    # each table is written as its chain finishes; the manifest comes last
    result = gcmi_impute(dm, cfg.gcmi, out_dir=out, stem=job.out_prefix)
    paths = save_result(result, out, stem=job.out_prefix)
    print(f"wrote {len(paths) - 1} completed datasets + manifest under {out}")
    return 0


def _cmd_benchmark(args, cfg: RunConfig) -> int:
    if cfg.benchmark is None:
        raise UsageError("benchmark needs a 'benchmark' section in the config file")
    job = cfg.benchmark
    table = run_benchmark(job.spec)
    out = _out_dir(cfg)
    table.to_csv(out / f"{job.out_prefix}.csv")
    table.to_json(out / f"{job.out_prefix}.json")
    if job.dump_raw:
        table.dump_raw_csv(out / f"{job.out_prefix}_raw.csv")
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
        # the library's own finiteness checks report numeric trouble (exit 3);
        # numpy's floating-point warnings would print its source lines
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc} (gcmi --help shows usage)", file=sys.stderr)
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
    except (MemoryError, BrokenExecutor) as exc:
        # a pool worker that dies, say to the out-of-memory killer, breaks the pool
        what = "out of memory" if isinstance(exc, MemoryError) else "a worker process died"
        print(f"resource error: {what}{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2
    except GcmiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
