"""Command-line surface: reproducible experiment runs with manifests.

Subcommands
-----------
systems   list the compiled-in catalog as a TSV table
simulate  integrate sampled parameter draws and persist trajectories
bench     run the RMSE estimation benchmark and emit CSV + markdown
synth-mv  generate a paired-view dataset (.npz archive)
train-mv  train a multiview identifier from a dataset + config (.npz archive)
eval      probe a trained identifier (accuracy matrix, R², ATE slices)
report    re-render a benchmark CSV as a markdown table

Every file-writing command drops a ``<output>.manifest.json`` next to its
outputs recording the effective configuration, catalog version, per-stage
seeds, wall time and sha256 digests of everything written.  Reruns with the
same flags reproduce outputs byte-for-byte (``--threads 1`` guaranteed;
current worker pools reduce in task order, so any thread count agrees).

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
from dataclasses import dataclass, field
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

_IDENTIFIER_FIELDS = (
    "block_sizes",
    "shared_block",
    "hidden_dim",
    "depth",
    "activation",
    "keep_fraction",
    "n_init",
    "reg_align",
    "decoder",
    "lr",
    "batch_size",
    "epochs",
)


# ---------------------------------------------------------------------------
# Configuration records.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Opt:
    """One config key: type, default, and an optional value check."""

    type: type
    default: object = None
    required: bool = False
    check: Optional[Callable] = None  # value -> error message or None
    parse: Optional[Callable] = None  # raw value -> stored value


@dataclass
class RunConfig:
    command: str
    values: dict
    schema_version: int = SCHEMA_VERSION

    def __getitem__(self, key):
        return self.values[key]


def _ge(bound):
    return lambda v: None if v >= bound else f"must be >= {bound}"


def _gt(bound):
    return lambda v: None if v > bound else f"must be > {bound}"


def _choice(*allowed):
    return lambda v: None if v in allowed else f"must be one of {', '.join(allowed)}"


def _int_tuple(raw):
    if isinstance(raw, (list, tuple)):
        return tuple(int(v) for v in raw)
    return tuple(int(tok) for tok in str(raw).split(","))


def _prototype_rows(raw):
    if isinstance(raw, (list, tuple)):
        return [list(map(float, row)) for row in raw]
    rows = [tok for tok in str(raw).split(";") if tok.strip()]
    return [[float(v) for v in row.split(",")] for row in rows]


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


@dataclass
class RunManifest:
    command: str
    config: dict
    seeds: dict
    threads: int
    wall_time_s: float
    outputs: dict = field(default_factory=dict)  # basename -> sha256
    catalog_version: str = CATALOG_VERSION
    schema_version: int = SCHEMA_VERSION


def write_manifest(primary_output, manifest: RunManifest) -> str:
    path = f"{primary_output}.manifest.json"
    doc = {
        "schema_version": manifest.schema_version,
        "command": manifest.command,
        "catalog_version": manifest.catalog_version,
        "config": manifest.config,
        "seeds": manifest.seeds,
        "threads": manifest.threads,
        "wall_time_s": manifest.wall_time_s,
        "outputs": manifest.outputs,
    }
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


_REPORT_COLUMNS = tuple(
    f.name for f in dataclasses.fields(EstimateReport) if f.name != "wall_time_s"
)


def emit_report(reports, csv_path=None, md_path=None) -> dict:
    """Write benchmark reports as CSV and/or a markdown table.

    The CSV keeps full shortest-round-trip precision in a stable column
    order; the markdown renders the same numbers in the ``mean ± std``
    one-significant-digit style.  Wall time is deliberately not emitted so
    reruns produce identical files.
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

_SCHEMAS = {
    "systems": {},
    "simulate": {
        "system": Opt(str, required=True),
        "draws": Opt(int, default=1, check=_ge(1)),
        "seed": Opt(int, default=0),
        "grid_points": Opt(int, default=100, check=_ge(2)),
        "t_max": Opt(float, check=_gt(0.0)),
        "x0_jitter": Opt(float, default=0.0, check=_ge(0.0)),
        "derivs": Opt(bool, default=True),
        "out": Opt(str, required=True),
    },
    "bench": {
        "systems": Opt(str, required=True, parse=lambda raw: tuple(str(raw).split(","))),
        "draws": Opt(int, default=100, check=_ge(1)),
        "method": Opt(str, default="deriv", check=_choice("traj", "deriv", "closed")),
        "noise": Opt(float, default=0.0, check=_ge(0.0)),
        "seed": Opt(int, default=7),
        "grid_points": Opt(int, default=100, check=_ge(2)),
        "out": Opt(str, required=True),
    },
    "synth-mv": {
        "system": Opt(str, required=True),
        "shared": Opt(str, required=True, parse=_int_tuple),
        "pairs": Opt(int, default=2000, check=_ge(1)),
        "seed": Opt(int, default=7),
        "views": Opt(int, default=2, check=_ge(2)),
        "grid_points": Opt(int, default=50, check=_ge(2)),
        "t_max": Opt(float, check=_gt(0.0)),
        "x0_jitter": Opt(float, default=0.1, check=_ge(0.0)),
        "prototypes": Opt(str, parse=_prototype_rows),
        "out": Opt(str, required=True),
    },
    "train-mv": {
        "data": Opt(str, required=True),
        "out": Opt(str, required=True),
        "seed": Opt(int, default=0),
        "block_sizes": Opt(str, default=(4, 4), parse=_int_tuple),
        "shared_block": Opt(int, default=0),
        "hidden_dim": Opt(int, default=64, check=_ge(1)),
        "depth": Opt(int, default=3, check=_ge(1)),
        "activation": Opt(str, default="tanh", check=_choice("tanh", "relu")),
        "keep_fraction": Opt(float, default=0.5, check=_gt(0.0)),
        "n_init": Opt(int, default=10, check=_ge(1)),
        "reg_align": Opt(float, default=10.0, check=_ge(0.0)),
        "decoder": Opt(str, default="direct", check=_choice("direct", "field")),
        "lr": Opt(float, default=1e-3, check=_gt(0.0)),
        "batch_size": Opt(int, default=64, check=_ge(1)),
        "epochs": Opt(int, default=200, check=_ge(0)),
    },
    "eval": {
        "model": Opt(str, required=True),
        "data": Opt(str, required=True),
        "report": Opt(str, required=True),
        "seed": Opt(int, default=0),
    },
    "report": {
        "input": Opt(str, required=True),
        "out": Opt(str, required=True),
    },
}


# ---------------------------------------------------------------------------
# Subcommand implementations.
# ---------------------------------------------------------------------------


def _cmd_systems(cfg: RunConfig, threads: int) -> None:
    print("id\tname\td\tN\tlinear")
    for system in CATALOG.values():
        linear = "true" if system.basis is not None else "false"
        print(
            f"{system.id}\t{system.name}\t{system.state_dim}"
            f"\t{system.param_dim}\t{linear}"
        )


def _cmd_simulate(cfg: RunConfig, threads: int) -> None:
    t_start = time.perf_counter()
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
    manifest = RunManifest(
        command="simulate",
        config=_manifest_config(cfg),
        seeds={"sample": seed},
        threads=threads,
        wall_time_s=time.perf_counter() - t_start,
        outputs={os.path.basename(cfg["out"]): _sha256(cfg["out"])},
    )
    write_manifest(cfg["out"], manifest)


def _cmd_bench(cfg: RunConfig, threads: int) -> None:
    t_start = time.perf_counter()
    reports = benchmark_rmse(
        cfg["systems"],
        cfg["draws"],
        cfg["method"],
        cfg["seed"],
        noise=cfg["noise"],
        grid_points=cfg["grid_points"],
        threads=threads,
    )
    md_path = f"{os.path.splitext(cfg['out'])[0]}.md"
    emit_report(reports, csv_path=cfg["out"], md_path=md_path)
    manifest = RunManifest(
        command="bench",
        config=_manifest_config(cfg),
        seeds={"bench": cfg["seed"]},
        threads=threads,
        wall_time_s=time.perf_counter() - t_start,
        outputs={
            os.path.basename(cfg["out"]): _sha256(cfg["out"]),
            os.path.basename(md_path): _sha256(md_path),
        },
    )
    write_manifest(cfg["out"], manifest)


def _cmd_synth_mv(cfg: RunConfig, threads: int) -> None:
    t_start = time.perf_counter()
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
    manifest = RunManifest(
        command="synth-mv",
        config=_manifest_config(cfg),
        seeds={"generate": cfg["seed"]},
        threads=threads,
        wall_time_s=time.perf_counter() - t_start,
        outputs={os.path.basename(cfg["out"]): _sha256(cfg["out"])},
    )
    write_manifest(cfg["out"], manifest)


def _cmd_train_mv(cfg: RunConfig, threads: int) -> None:
    t_start = time.perf_counter()
    dataset = load_dataset(cfg["data"])
    identifier_cfg = IdentifierConfig(
        **{name: cfg[name] for name in _IDENTIFIER_FIELDS}
    )
    model, _history = train_identifier(dataset, identifier_cfg, seed=cfg["seed"])
    save_identifier(cfg["out"], model)
    manifest = RunManifest(
        command="train-mv",
        config=_manifest_config(cfg),
        seeds={"train": cfg["seed"]},
        threads=threads,
        wall_time_s=time.perf_counter() - t_start,
        outputs={os.path.basename(cfg["out"]): _sha256(cfg["out"])},
    )
    write_manifest(cfg["out"], manifest)


def _eval_tables(model, dataset, seed: int):
    """Accuracy matrix, per-block R² against θ_S, and two-slice ATE rows."""
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

    n = dataset.n_pairs
    if n < 100:
        raise InvalidArgumentError(
            "eval: need at least 100 pairs (two ATE slices of >= 50 rows)"
        )
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


def _cmd_eval(cfg: RunConfig, threads: int) -> None:
    t_start = time.perf_counter()
    model = load_identifier(cfg["model"])
    dataset = load_dataset(cfg["data"])
    if model.system_id != dataset.system_id:
        raise InvalidArgumentError(
            f"eval: model was trained on {model.system_id!r} "
            f"but the dataset is {dataset.system_id!r}"
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

    manifest = RunManifest(
        command="eval",
        config=_manifest_config(cfg),
        seeds={"probe": cfg["seed"]},
        threads=threads,
        wall_time_s=time.perf_counter() - t_start,
        outputs={
            os.path.basename(report_path): _sha256(report_path),
            os.path.basename(md_path): _sha256(md_path),
        },
    )
    write_manifest(report_path, manifest)


def _cmd_report(cfg: RunConfig, threads: int) -> None:
    t_start = time.perf_counter()
    with open(cfg["input"], newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != _REPORT_COLUMNS:
            raise ConfigError(
                f"input: expected columns {','.join(_REPORT_COLUMNS)}; "
                f"got {','.join(reader.fieldnames or ())}"
            )
        reports = [
            EstimateReport(
                system_id=row["system_id"],
                method=row["method"],
                n_draws=int(row["n_draws"]),
                noise=float(row["noise"]),
                rmse_mean=float(row["rmse_mean"]),
                rmse_std=float(row["rmse_std"]),
                n_failures=int(row["n_failures"]),
                wall_time_s=0.0,
            )
            for row in reader
        ]
    emit_report(reports, md_path=cfg["out"])
    manifest = RunManifest(
        command="report",
        config=_manifest_config(cfg),
        seeds={},
        threads=threads,
        wall_time_s=time.perf_counter() - t_start,
        outputs={os.path.basename(cfg["out"]): _sha256(cfg["out"])},
    )
    write_manifest(cfg["out"], manifest)


def _manifest_config(cfg: RunConfig) -> dict:
    snapshot = {"schema_version": cfg.schema_version}
    for key, value in cfg.values.items():
        if isinstance(value, tuple):
            value = list(value)
        snapshot[key] = value
    return snapshot


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
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add(name, help_text):
        # Subparsers inherit _Parser, so their errors raise _UsageError too.
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--threads", type=int, default=None,
                       help="worker pool bound (default: DYNIDENT_THREADS or 1)")
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON config file; flags override its values")
        return p

    p = add("systems", "list the ODE catalog as TSV")
    p.add_argument("action", choices=["list"])

    p = add("simulate", "integrate sampled draws and persist trajectories")
    p.add_argument("--system", default=None)
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--x0-jitter", dest="x0_jitter", type=float, default=None)
    p.add_argument("--derivs", action=argparse.BooleanOptionalAction, default=None,
                   help="store exact derivatives alongside states (default on)")
    p.add_argument("--out", default=None)

    p = add("bench", "run the estimation RMSE benchmark")
    p.add_argument("--systems", default=None, help="comma-separated catalog ids")
    p.add_argument("--draws", type=int, default=None)
    p.add_argument("--method", default=None, choices=["traj", "deriv", "closed"])
    p.add_argument("--noise", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p.add_argument("--out", default=None, help="CSV path; markdown written alongside")

    p = add("synth-mv", "generate a paired-view dataset (.npz archive)")
    p.add_argument("--system", default=None)
    p.add_argument("--shared", default=None, help="shared parameter indices, e.g. 0,1")
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--views", type=int, default=None)
    p.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--x0-jitter", dest="x0_jitter", type=float, default=None)
    p.add_argument("--prototypes", default=None,
                   help="discrete shared values, rows ';'-separated: '0.7,1.6;1.7,0.7'")
    p.add_argument("--out", default=None)

    p = add("train-mv", "train a multiview identifier (.npz archive)")
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--blocks", dest="block_sizes", default=None,
                   help="latent block sizes, e.g. 6,2")
    p.add_argument("--shared-block", dest="shared_block", type=int, default=None)
    p.add_argument("--hidden-dim", dest="hidden_dim", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--activation", default=None, choices=["tanh", "relu"])
    p.add_argument("--keep-fraction", dest="keep_fraction", type=float, default=None)
    p.add_argument("--n-init", dest="n_init", type=int, default=None)
    p.add_argument("--reg-align", dest="reg_align", type=float, default=None)
    p.add_argument("--decoder", default=None, choices=["direct", "field"])
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)

    p = add("eval", "probe a trained identifier against a dataset")
    p.add_argument("--model", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--report", default=None, help="CSV path; markdown written alongside")
    p.add_argument("--seed", type=int, default=None)

    p = add("report", "re-render a benchmark CSV as markdown")
    p.add_argument("--in", dest="input", default=None, help="benchmark CSV")
    p.add_argument("--out", default=None, help="markdown path")

    return parser


def _resolve_threads(flag_value) -> int:
    if flag_value is not None:
        threads = flag_value
    else:
        raw = os.environ.get("DYNIDENT_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(f"threads: DYNIDENT_THREADS is not an integer: {raw!r}")
    if threads < 1:
        raise ConfigError("threads: must be >= 1")
    return threads


def _error_line(kind: str, exc) -> None:
    message = " ".join(str(exc).split())
    print(f"dynident: {kind}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        namespace = parser.parse_args(argv)
        command = namespace.command
        threads = _resolve_threads(namespace.threads)
        schema = _SCHEMAS[command]
        overrides = {k: v for k, v in vars(namespace).items() if k in schema}
        cfg = parse_config(command, schema, file_path=namespace.config,
                           overrides=overrides)
        _HANDLERS[command](cfg, threads)
        return 0
    except _UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        _error_line("usage", exc)
        return 1
    except (ConfigError, InvalidArgumentError) as exc:
        _error_line("config", exc)
        return 1
    except FileFormatError as exc:
        _error_line("io", exc)
        return 2
    except DynidentError as exc:
        _error_line("runtime", exc)
        return 2
    except OSError as exc:
        _error_line("io", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
