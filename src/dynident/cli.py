"""Command-line surface: reproducible experiment runs with manifests.

Subcommands
-----------
systems   list the compiled-in catalog as a TSV table
simulate  integrate sampled parameter draws and persist trajectories (.npz archive)
bench     run the RMSE estimation benchmark and emit CSV + markdown
synth-mv  generate a paired-view dataset (.npz archive)
train-mv  train a multiview identifier from a dataset + config (.npz archive)
eval      probe a trained identifier (accuracy matrix, R², ATE slices)
report    re-render a benchmark CSV as a markdown table

Every file-writing command drops a ``<output>.manifest.json`` next to its
outputs recording the effective configuration, catalog version, per-stage
seeds, wall time and sha256 digests of everything written.  Reruns with the
same flags reproduce outputs byte-for-byte.

Each subcommand's flags are generated from its schema in ``_SCHEMAS``, so a
value is checked once whether it comes from a flag or a ``--config`` file.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime failure.
Failures print a single ``dynident: <kind>: <message>`` line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .atomic import atomic_open
from .causal import aipw_ate, ate_trend, latent_r2, partition_accuracy_matrix
from .errors import (
    ConfigError,
    DynidentError,
    FileFormatError,
    InvalidArgumentError,
    NumericDomainError,
)
from .estimators import EstimateReport, benchmark_rmse
from .multiview import (
    IdentifierConfig,
    generate_multiview_dataset,
    load_dataset,
    load_identifier,
    save_dataset,
    save_identifier,
    train_identifier,
    encode,
)
from .solver import TimeGrid, Trajectory, integrate_batch, save_trajectories
from .seeding import substream
from .systems import CATALOG, CATALOG_VERSION, get_system, sample_parameters

SCHEMA_VERSION = 1
_FLOAT_MAX = float(np.finfo(float).max)


# ---------------------------------------------------------------------------
# Configuration records.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Opt:
    """One config key: type, default, an optional value check, and its flag.

    The flag is ``--`` plus the key with ``_`` turned into ``-`` unless
    ``flag`` names another spelling.
    """

    type: type
    default: object = None
    required: bool = False
    check: Optional[Callable] = None  # value -> error message or None
    parse: Optional[Callable] = None  # raw value -> stored value
    flag: Optional[str] = None
    help: Optional[str] = None


@dataclass
class RunConfig:
    command: str
    values: dict

    def __getitem__(self, key):
        return self.values[key]


def _ge(bound):
    return lambda v: None if v >= bound else f"must be >= {bound}"


def _gt(bound):
    return lambda v: None if v > bound else f"must be > {bound}"


def _jitter(v):
    return None if 0.0 <= v < 1.0 else "must be in [0, 1)"


def _choice(*allowed):
    return lambda v: None if v in allowed else f"must be one of {', '.join(allowed)}"


def _str_tuple(raw):
    if not isinstance(raw, str):
        raise TypeError(f"expected a comma-separated string, got {raw!r}")
    return tuple(raw.split(","))


def _int_tuple(raw):
    if isinstance(raw, (list, tuple)):
        if not raw:
            raise ValueError("expected at least one integer, got an empty list")
        for v in raw:
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"expected integers in the list, got {v!r}")
        return tuple(raw)
    if not isinstance(raw, str):
        raise TypeError(f"expected a comma-separated string or a list, got {raw!r}")
    return tuple(int(tok) for tok in raw.split(","))


def _prototype_rows(raw):
    if isinstance(raw, (list, tuple)):
        for row in raw:
            if not isinstance(row, list) or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in row
            ):
                raise TypeError(f"expected rows of numbers, got {row!r}")
        rows = [[float(v) for v in row] for row in raw]
    elif isinstance(raw, str):
        rows = [[float(v) for v in tok.split(",")] for tok in raw.split(";") if tok.strip()]
    else:
        raise TypeError(f"expected ';'-separated rows or a list of rows, got {raw!r}")
    if not rows or not all(rows):
        raise ValueError(f"expected at least one non-empty row, got {raw!r}")
    if not np.all(np.isfinite([v for row in rows for v in row])):
        raise ValueError(f"expected finite numbers, got {raw!r}")
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"rows differ in length: {[len(row) for row in rows]}")
    return rows


def _coerce(key: str, opt: Opt, value):
    if opt.parse is not None:
        try:
            return opt.parse(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if opt.type is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{key}: expected a boolean, got {value!r}")
        return value
    if opt.type is int:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return int(value)
    if opt.type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.floating)):
            raise ConfigError(f"{key}: expected a number, got {value!r}")
        if not abs(value) <= _FLOAT_MAX:  # also refuses nan, and ints past float range
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
        return float(value)
    if opt.type is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    return value


def parse_config(
    command: str,
    schema: dict,
    file_path: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> RunConfig:
    """Resolve defaults <- config file <- flags, with strict validation.

    Unknown keys, type mismatches and failed value checks raise
    :class:`ConfigError` naming the offending key.  ``overrides`` entries
    that are ``None`` mean "flag not given" and are skipped, so file values
    survive unless explicitly overridden.
    """
    values = {k: o.default for k, o in schema.items()}
    if file_path is not None:
        try:
            with open(file_path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{file_path}: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"{file_path}: config must be a JSON object")
        for key, value in doc.items():
            if key not in schema:
                raise ConfigError(f"{key}: unknown config key")
            values[key] = _coerce(key, schema[key], value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in schema:
            raise ConfigError(f"{key}: unknown config key")
        values[key] = _coerce(key, schema[key], value)
    for key, opt in schema.items():
        if values[key] is None:
            if opt.required:
                raise ConfigError(f"{key}: required value missing")
            continue
        if opt.check is not None:
            message = opt.check(values[key])
            if message:
                raise ConfigError(f"{key}: {message}")
    return RunConfig(command=command, values=values)


# ---------------------------------------------------------------------------
# Manifests and report emission.
# ---------------------------------------------------------------------------


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(cfg: RunConfig, outputs, seeds: dict, wall_time_s: float) -> str:
    """Write ``<outputs[0]>.manifest.json``: the effective config, the seeds,
    the wall time and the sha256 of every output."""
    config = {"schema_version": SCHEMA_VERSION}
    for key, value in cfg.values.items():
        config[key] = list(value) if isinstance(value, tuple) else value
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "catalog_version": CATALOG_VERSION,
        "config": config,
        "seeds": seeds,
        "wall_time_s": wall_time_s,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    path = f"{outputs[0]}.manifest.json"
    with atomic_open(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


def _sci1(x: float) -> str:
    """One-significant-digit scientific notation: 0.0234 -> '2e-2'."""
    if not np.isfinite(x):
        return str(x)
    mantissa, exponent = f"{x:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


_REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(EstimateReport))


def emit_report(reports, csv_path=None, md_path=None) -> dict:
    """Write benchmark reports as CSV and/or a markdown table.

    The CSV keeps full shortest-round-trip precision in a stable column
    order; the markdown renders the same numbers in the ``mean ± std``
    one-significant-digit style.
    """
    if not reports:
        raise InvalidArgumentError("emit_report: need at least one report row")
    written = {}
    if csv_path is not None:
        with atomic_open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_REPORT_COLUMNS)
            for r in reports:
                writer.writerow([getattr(r, col) for col in _REPORT_COLUMNS])
        written["csv"] = csv_path
    if md_path is not None:
        lines = [
            "| system | draws | rmse (mean ± std) | failures | method |",
            "| --- | ---: | ---: | ---: | --- |",
        ]
        for r in reports:
            rmse = f"{_sci1(r.rmse_mean)} ± {_sci1(r.rmse_std)}"
            lines.append(
                f"| {r.system_id} | {r.n_draws} | {rmse} | {r.n_failures} | {r.method} |"
            )
        with atomic_open(md_path) as fh:
            fh.write("\n".join(lines) + "\n")
        written["md"] = md_path
    return written


# ---------------------------------------------------------------------------
# Subcommand schemas.
# ---------------------------------------------------------------------------


def _model_opt(f: dataclasses.Field) -> Opt:
    """The train-mv key of one :class:`IdentifierConfig` field.  Its value
    is checked by building the ``IdentifierConfig`` (see :func:`parse_argv`)."""
    if f.name == "block_sizes":
        return Opt(str, default=f.default, parse=_int_tuple, flag="--blocks",
                   help="latent block sizes, e.g. 6,2")
    return Opt(type(f.default), default=f.default)


_SCHEMAS = {
    "systems": {},
    "simulate": {
        "system": Opt(str, required=True),
        "draws": Opt(int, default=1, check=_ge(1)),
        "seed": Opt(int, default=0),
        "grid_points": Opt(int, default=100, check=_ge(2)),
        "t_max": Opt(float, check=_gt(0.0)),
        "x0_jitter": Opt(float, default=0.0, check=_jitter),
        "derivs": Opt(bool, default=True,
                      help="store exact derivatives alongside states (default on)"),
        "out": Opt(str, required=True),
    },
    "bench": {
        "systems": Opt(str, required=True, parse=_str_tuple,
                       help="comma-separated catalog ids"),
        "draws": Opt(int, default=100, check=_ge(1)),
        "method": Opt(str, default="deriv", check=_choice("traj", "deriv", "closed")),
        "noise": Opt(float, default=0.0, check=_ge(0.0)),
        "seed": Opt(int, default=7),
        "grid_points": Opt(int, default=100, check=_ge(2)),
        "out": Opt(str, required=True, help="CSV path; markdown written alongside"),
    },
    "synth-mv": {
        "system": Opt(str, required=True),
        "shared": Opt(str, required=True, parse=_int_tuple,
                      help="shared parameter indices, e.g. 0,1"),
        "pairs": Opt(int, default=2000, check=_ge(1)),
        "seed": Opt(int, default=7),
        "views": Opt(int, default=2, check=_ge(2)),
        "grid_points": Opt(int, default=50, check=_ge(2)),
        "t_max": Opt(float, check=_gt(0.0)),
        "x0_jitter": Opt(float, default=0.1, check=_jitter),
        "prototypes": Opt(str, parse=_prototype_rows,
                          help="discrete shared values, rows ';'-separated: '0.7,1.6;1.7,0.7'"),
        "out": Opt(str, required=True),
    },
    "train-mv": {
        "data": Opt(str, required=True),
        "out": Opt(str, required=True),
        "seed": Opt(int, default=0),
        **{f.name: _model_opt(f) for f in dataclasses.fields(IdentifierConfig)},
    },
    "eval": {
        "model": Opt(str, required=True),
        "data": Opt(str, required=True),
        "report": Opt(str, required=True, help="CSV path; markdown written alongside"),
        "seed": Opt(int, default=0),
    },
    "report": {
        "input": Opt(str, required=True, flag="--in", help="benchmark CSV"),
        "out": Opt(str, required=True, help="markdown path"),
    },
}


# ---------------------------------------------------------------------------
# Subcommand implementations.  A handler's docstring is its help line.  Each
# handler that writes files returns their paths, the one the manifest is
# named after first, and the seeds it used.
# ---------------------------------------------------------------------------


def _cmd_systems(cfg: RunConfig) -> None:
    """list the ODE catalog as TSV"""
    print("id\tname\td\tN\tlinear")
    for system in CATALOG.values():
        linear = "true" if system.linear else "false"
        print(
            f"{system.id}\t{system.name}\t{system.state_dim}"
            f"\t{system.param_dim}\t{linear}"
        )


def _cmd_simulate(cfg: RunConfig):
    """integrate sampled draws and persist trajectories"""
    system = get_system(cfg["system"])
    seed = cfg["seed"]
    t_max = cfg["t_max"] if cfg["t_max"] is not None else system.t_max
    grid = TimeGrid.uniform(0.0, t_max, cfg["grid_points"])
    draws = sample_parameters(system, cfg["draws"], seed)
    thetas = np.stack([d.theta for d in draws])
    x0s = np.tile(system.x0, (len(draws), 1))
    if cfg["x0_jitter"] > 0:
        rng = substream(seed, "simulate-x0")
        x0s = x0s * (1.0 + rng.uniform(-cfg["x0_jitter"], cfg["x0_jitter"], x0s.shape))
    states, derivs, ok, _ = integrate_batch(system, thetas, x0s, grid)
    if not np.all(ok):
        bad = int(np.count_nonzero(~ok))
        raise NumericDomainError(
            f"simulate: {bad}/{len(draws)} draws diverged on [0, {t_max}]"
        )
    keep_derivs = cfg["derivs"]
    trajectories = [
        Trajectory(
            system_id=system.id,
            grid=grid,
            states=states[i],
            derivs=derivs[i] if keep_derivs else None,
            theta_truth=thetas[i],
        )
        for i in range(len(draws))
    ]
    save_trajectories(cfg["out"], trajectories)
    return [cfg["out"]], {"sample": seed}


def _cmd_bench(cfg: RunConfig):
    """run the estimation RMSE benchmark"""
    reports = benchmark_rmse(
        cfg["systems"],
        cfg["draws"],
        cfg["method"],
        cfg["seed"],
        noise=cfg["noise"],
        grid_points=cfg["grid_points"],
    )
    md_path = f"{os.path.splitext(cfg['out'])[0]}.md"
    emit_report(reports, csv_path=cfg["out"], md_path=md_path)
    return [cfg["out"], md_path], {"bench": cfg["seed"]}


def _cmd_synth_mv(cfg: RunConfig):
    """generate a paired-view dataset (.npz archive)"""
    prototypes = cfg["prototypes"]
    dataset = generate_multiview_dataset(
        cfg["system"],
        cfg["pairs"],
        cfg["seed"],
        cfg["shared"],
        n_views=cfg["views"],
        grid_points=cfg["grid_points"],
        t_max=cfg["t_max"],
        x0_jitter=cfg["x0_jitter"],
        shared_prototypes=None if prototypes is None else np.asarray(prototypes),
    )
    save_dataset(cfg["out"], dataset)
    return [cfg["out"]], {"generate": cfg["seed"]}


def _identifier_config(cfg: RunConfig) -> IdentifierConfig:
    return IdentifierConfig(
        **{f.name: cfg[f.name] for f in dataclasses.fields(IdentifierConfig)}
    )


def _cmd_train_mv(cfg: RunConfig):
    """train a multiview identifier (.npz archive)"""
    dataset = load_dataset(cfg["data"])
    model, _history = train_identifier(dataset, _identifier_config(cfg), seed=cfg["seed"])
    save_identifier(cfg["out"], model)
    return [cfg["out"]], {"train": cfg["seed"]}


def _eval_tables(model, dataset, seed: int):
    """Accuracy matrix, per-block R² against θ_S, and two-slice ATE rows."""
    n = dataset.n_pairs
    if n < 100:
        raise InvalidArgumentError(
            "eval: need at least 100 pairs (two ATE slices of >= 50 rows)"
        )
    system = get_system(dataset.system_id)
    layout = model.layout
    latents = encode(model, dataset.states[0], 0)
    theta0 = dataset.thetas[0]
    shared = list(dataset.shared_param_indices)

    midpoints = 0.5 * (system.param_lo + system.param_hi)
    factor_labels = (theta0 > midpoints).astype(int)
    factor_names = [f"theta{j}" for j in range(theta0.shape[1])]
    if dataset.labels is not None:
        factor_labels = np.concatenate([factor_labels, dataset.labels[:, None]], axis=1)
        factor_names.append("class")
    accuracy = partition_accuracy_matrix(latents, layout, factor_labels, seed=seed)

    r2_rows = []
    for b in range(len(layout.block_sizes)):
        block = latents[:, layout.block_indices(b)]
        r2_rows.append((f"block{b}", latent_r2(block, theta0[:, shared], seed=seed)))

    s0 = shared[0]
    treatment = (theta0[:, s0] > midpoints[s0]).astype(int)
    outcome = dataset.states[1][:, :, 0].mean(axis=1)
    slices = [np.arange(0, n // 2), np.arange(n // 2, n)]
    ates = [aipw_ate(latents[sl], treatment[sl], outcome[sl]) for sl in slices]
    ratios = ate_trend(ates)
    ate_rows = [
        (f"slice{k}", ates[k].ate_hat, ates[k].se_hat, ates[k].n, ratios[k])
        for k in range(len(ates))
    ]
    return accuracy, factor_names, r2_rows, ate_rows


def _cmd_eval(cfg: RunConfig):
    """probe a trained identifier against a dataset"""
    model = load_identifier(cfg["model"])
    dataset = load_dataset(cfg["data"])
    if model.system_id != dataset.system_id:
        raise InvalidArgumentError(
            f"eval: model was trained on {model.system_id!r} "
            f"but the dataset is {dataset.system_id!r}"
        )
    grids = [(g.t0, g.t_max, g.n_points) for g in (model.grid, dataset.grid)]
    if grids[0] != grids[1]:
        raise InvalidArgumentError(
            f"eval: model was trained on the grid (t0, t_max, n_points) = {grids[0]} "
            f"but the dataset's grid is {grids[1]}"
        )
    accuracy, factor_names, r2_rows, ate_rows = _eval_tables(
        model, dataset, cfg["seed"]
    )

    report_path = cfg["report"]
    with atomic_open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["section", "row", "col", "value"])
        for b in range(accuracy.shape[0]):
            for f_idx, name in enumerate(factor_names):
                writer.writerow(
                    ["accuracy", f"block{b}", name, float(accuracy[b, f_idx])]
                )
        for name, value in r2_rows:
            writer.writerow(["r2", name, "theta_S", float(value)])
        for name, ate_hat, se_hat, n_rows, ratio in ate_rows:
            writer.writerow(["ate", name, "ate_hat", float(ate_hat)])
            writer.writerow(["ate", name, "se_hat", float(se_hat)])
            writer.writerow(["ate", name, "n", int(n_rows)])
            writer.writerow(["ate", name, "change_ratio", float(ratio)])

    md_path = f"{os.path.splitext(report_path)[0]}.md"
    lines = [
        "# Identifier evaluation",
        "",
        f"- model: `{cfg['model']}`",
        f"- data: `{cfg['data']}` ({dataset.n_pairs} pairs of `{dataset.system_id}`)",
        f"- shared parameter indices: {list(dataset.shared_param_indices)}",
        "",
        "## Partition accuracy (held out)",
        "",
        "| block | " + " | ".join(factor_names) + " |",
        "| --- |" + " ---: |" * len(factor_names),
    ]
    for b in range(accuracy.shape[0]):
        cells = " | ".join(f"{accuracy[b, f]:.3f}" for f in range(accuracy.shape[1]))
        lines.append(f"| block{b} | {cells} |")
    lines += [
        "",
        "## Block → shared-parameter R² (held out)",
        "",
        "| block | R² |",
        "| --- | ---: |",
    ]
    for name, value in r2_rows:
        lines.append(f"| {name} | {value:.3f} |")
    lines += [
        "",
        "## ATE by dataset slice",
        "",
        "| slice | n | ATE | s.e. | change ratio |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for name, ate_hat, se_hat, n_rows, ratio in ate_rows:
        lines.append(
            f"| {name} | {n_rows} | {ate_hat:.4f} | {se_hat:.4f} | {ratio:.4f} |"
        )
    with atomic_open(md_path) as fh:
        fh.write("\n".join(lines) + "\n")
    return [report_path, md_path], {"probe": cfg["seed"]}


def _cmd_report(cfg: RunConfig):
    """re-render a benchmark CSV as markdown"""
    with open(cfg["input"], newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            columns = tuple(reader.fieldnames or ())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"input: not a UTF-8 text file ({exc})") from exc
        if columns != _REPORT_COLUMNS:
            raise ConfigError(
                f"input: expected columns {','.join(_REPORT_COLUMNS)}; "
                f"got {','.join(columns)}"
            )
        try:
            reports = [
                EstimateReport(
                    system_id=row["system_id"],
                    method=row["method"],
                    n_draws=int(row["n_draws"]),
                    noise=float(row["noise"]),
                    rmse_mean=float(row["rmse_mean"]),
                    rmse_std=float(row["rmse_std"]),
                    n_failures=int(row["n_failures"]),
                )
                for row in reader
            ]
        except (TypeError, ValueError) as exc:  # TypeError: a row with too few cells
            raise ConfigError(f"input: line {reader.line_num}: {exc}") from exc
    emit_report(reports, md_path=cfg["out"])
    return [cfg["out"]], {}


_HANDLERS = {
    "systems": _cmd_systems,
    "simulate": _cmd_simulate,
    "bench": _cmd_bench,
    "synth-mv": _cmd_synth_mv,
    "train-mv": _cmd_train_mv,
    "eval": _cmd_eval,
    "report": _cmd_report,
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point.
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse calls this on any parse problem
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dynident", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)
    for command, schema in _SCHEMAS.items():
        # Subparsers inherit _Parser, so their errors raise _UsageError too.
        p = sub.add_parser(command, help=_HANDLERS[command].__doc__)
        p.add_argument("--config", metavar="FILE",
                       help="JSON config file; flags override its values")
        if command == "systems":
            p.add_argument("action", choices=["list"])
        # Every flag defaults to None, "not given", so config-file values
        # survive; the schema supplies the defaults and checks every value.
        for key, opt in schema.items():
            flag = opt.flag or "--" + key.replace("_", "-")
            if opt.type is bool:
                p.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                               help=opt.help)
            else:
                p.add_argument(flag, dest=key, type=opt.type, help=opt.help)
    return parser


def _error_line(kind: str, exc) -> None:
    message = " ".join(str(exc).split())
    print(f"dynident: {kind}: {message}", file=sys.stderr)


def parse_argv(argv=None) -> RunConfig:
    """Resolve a command line to its checked config.

    Flags override the ``--config`` file, which overrides the defaults.
    train-mv's model keys are checked by building an
    :class:`IdentifierConfig`, before any input file is opened.
    """
    namespace = _build_parser().parse_args(argv)
    schema = _SCHEMAS[namespace.command]
    overrides = {k: v for k, v in vars(namespace).items() if k in schema}
    cfg = parse_config(namespace.command, schema, file_path=namespace.config,
                       overrides=overrides)
    if cfg.command == "train-mv":
        _identifier_config(cfg)
    return cfg


def main(argv=None) -> int:
    try:
        cfg = parse_argv(argv)
        t_start = time.perf_counter()
        written = _HANDLERS[cfg.command](cfg)
        if written is not None:
            outputs, seeds = written
            write_manifest(cfg, outputs, seeds, time.perf_counter() - t_start)
        return 0
    except _UsageError as exc:
        print(_build_parser().format_usage(), end="", file=sys.stderr)
        _error_line("usage", exc)
        return 1
    except (ConfigError, InvalidArgumentError) as exc:
        _error_line("config", exc)
        return 1
    except (FileFormatError, OSError) as exc:
        _error_line("io", exc)
        return 2
    except DynidentError as exc:
        _error_line("runtime", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
