import argparse
import contextlib
import csv
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynident.cli import (
    Opt,
    _REPORT_COLUMNS,
    _SCHEMAS,
    _build_parser,
    _int_tuple,
    _prototype_rows,
    _sci1,
    emit_report,
    main,
    parse_argv,
    parse_config,
)
from dynident.archive import _read_archive, _write_archive
from dynident.atomic import atomic_open
from dynident.errors import ConfigError
from dynident.estimators import EstimateReport
from dynident.multiview import load_identifier
from dynident.solver import load_trajectories


def _sha256(path):
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(**kw):
    base = dict(
        system_id="ode2",
        method="deriv",
        n_draws=100,
        noise=0.0,
        rmse_mean=0.0234,
        rmse_std=0.0161,
        n_failures=0,
    )
    base.update(kw)
    return EstimateReport(**base)


# ---------------------------------------------------------------------------
# Config resolution.
# ---------------------------------------------------------------------------


def test_parse_config_defaults_file_flags_precedence(tmp_path):
    schema = {
        "lr": Opt(float, default=1e-2),
        "epochs": Opt(int, default=10),
        "name": Opt(str, required=True),
    }
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lr": 1e-3, "name": "from-file"}))

    cfg = parse_config("train-mv", schema, file_path=str(cfg_file))
    assert cfg["lr"] == 1e-3 and cfg["epochs"] == 10

    cfg = parse_config(
        "train-mv", schema, file_path=str(cfg_file), overrides={"lr": 1e-4}
    )
    assert cfg["lr"] == 1e-4  # flag beats file
    assert cfg["name"] == "from-file"  # file beats default

    # None-valued overrides mean "flag not given".
    cfg = parse_config(
        "train-mv", schema, file_path=str(cfg_file), overrides={"lr": None}
    )
    assert cfg["lr"] == 1e-3


def test_parse_config_rejects_unknown_and_bad_values(tmp_path):
    schema = {"draws": Opt(int, default=100, check=lambda v: None if v >= 1 else "must be >= 1")}
    with pytest.raises(ConfigError, match="draws"):
        parse_config("bench", schema, overrides={"draws": -1})
    with pytest.raises(ConfigError, match="unknown"):
        parse_config("bench", schema, overrides={"bogus": 3})
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps({"bogus_key": 1}))
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config("bench", schema, file_path=str(bad_file))
    not_json = tmp_path / "broken.json"
    not_json.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("bench", schema, file_path=str(not_json))


def test_parse_config_type_checks():
    schema = {
        "n": Opt(int),
        "x": Opt(float),
        "s": Opt(str),
        "b": Opt(bool),
    }
    with pytest.raises(ConfigError, match="n:"):
        parse_config("c", schema, overrides={"n": "five"})
    with pytest.raises(ConfigError, match="n:"):
        parse_config("c", schema, overrides={"n": True})  # bools are not counts
    with pytest.raises(ConfigError, match="x:"):
        parse_config("c", schema, overrides={"x": "fast"})
    with pytest.raises(ConfigError, match="b:"):
        parse_config("c", schema, overrides={"b": 1})
    cfg = parse_config("c", schema, overrides={"x": 3})
    assert cfg["x"] == 3.0 and isinstance(cfg["x"], float)


def test_missing_required_key_is_named():
    schema = {"out": Opt(str, required=True)}
    with pytest.raises(ConfigError, match="out"):
        parse_config("bench", schema)


# ---------------------------------------------------------------------------
# Report formatting.
# ---------------------------------------------------------------------------


def test_sci1_matches_table_convention():
    assert _sci1(0.0234) == "2e-2"
    assert _sci1(0.0161) == "2e-2"
    assert _sci1(9e-3) == "9e-3"
    assert _sci1(0.04) == "4e-2"
    assert _sci1(0.0) == "0e0"
    assert _sci1(2.0) == "2e0"
    assert _sci1(float("nan")) == "nan"


def test_emit_report_csv_and_md_share_values(tmp_path):
    csv_path = tmp_path / "r.csv"
    md_path = tmp_path / "r.md"
    emit_report([_report()], csv_path=str(csv_path), md_path=str(md_path))

    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert tuple(rows[0].keys()) == _REPORT_COLUMNS
    assert float(rows[0]["rmse_mean"]) == 0.0234

    md = md_path.read_text()
    assert "2e-2 ± 2e-2" in md
    # Same numbers, two renderings: the markdown cell is the CSV value
    # reformatted, not an independently computed quantity.
    assert _sci1(float(rows[0]["rmse_mean"])) in md
    assert _sci1(float(rows[0]["rmse_std"])) in md


def test_emit_report_rejects_empty_list(tmp_path):
    from dynident.errors import InvalidArgumentError

    with pytest.raises(InvalidArgumentError):
        emit_report([], csv_path=str(tmp_path / "x.csv"))


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


_SYSTEMS_TSV = """\
id\tname\td\tN\tlinear
ode2\tpopulation growth, unbounded\t1\t1\ttrue
ode3\tpopulation growth with carrying capacity\t1\t2\tfalse
ode5\tfalling object with air resistance\t1\t2\ttrue
ode6\tautocatalysis with one fixed abundant chemical\t1\t2\ttrue
ode24\tharmonic oscillator without damping\t2\t1\tfalse
ode25\tharmonic oscillator with damping\t2\t2\tfalse
ode27\tLotka-Volterra predator-prey\t2\t4\ttrue
ode28\tpendulum without friction\t2\t1\tfalse
ode31\tSIR infection dynamics\t2\t2\ttrue
ode50\tSchnakenberg chemical oscillator\t2\t2\tfalse
ode56\tLorenz attractor\t3\t3\tfalse
ode63\tSEIR infection dynamics\t4\t3\ttrue
cartpole\tcart-pole under constant force\t4\t3\tfalse
"""


def test_systems_list_prints_catalog_tsv(capsys):
    """The whole table is pinned: ids, names, d, N and the linear flag."""
    assert main(["systems", "list"]) == 0
    assert capsys.readouterr().out == _SYSTEMS_TSV


def test_simulate_writes_trajectories_and_manifest(tmp_path):
    out = tmp_path / "sir.npz"
    rc = main(
        ["simulate", "--system", "ode31", "--draws", "3", "--seed", "2",
         "--grid-points", "40", "--out", str(out)]
    )
    assert rc == 0
    trajs = load_trajectories(out)
    assert len(trajs) == 3
    assert trajs[0].states.shape == (40, 2)
    assert trajs[0].derivs is not None
    assert trajs[0].theta_truth is not None

    manifest = json.loads((tmp_path / "sir.npz.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seeds"] == {"sample": 2}
    assert manifest["outputs"]["sir.npz"] == _sha256(out)

    bare = tmp_path / "bare.npz"
    rc = main(
        ["simulate", "--system", "ode31", "--draws", "1", "--no-derivs",
         "--out", str(bare)]
    )
    assert rc == 0
    assert load_trajectories(bare)[0].derivs is None


def test_bench_rerun_is_byte_identical(tmp_path):
    args = ["bench", "--systems", "ode2,ode31", "--draws", "4", "--seed", "1"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.md").read_bytes() == (tmp_path / "b.md").read_bytes()

    with open(a, newline="") as fh:
        header = next(csv.reader(fh))
    assert tuple(header) == _REPORT_COLUMNS

    man_a = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    man_b = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert man_a["outputs"]["a.csv"] == man_b["outputs"]["b.csv"]
    assert "threads" not in man_a
    assert man_a["outputs"]["a.csv"] == _sha256(a)


def test_report_rerenders_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--systems", "ode2", "--draws", "3", "--seed", "4",
                 "--out", str(out)]) == 0
    md2 = tmp_path / "again.md"
    assert main(["report", "--in", str(out), "--out", str(md2)]) == 0
    assert md2.read_bytes() == (tmp_path / "bench.md").read_bytes()


def test_report_rejects_foreign_csv(tmp_path, capsys):
    bad = tmp_path / "foreign.csv"
    bad.write_text("a,b\n1,2\n")
    rc = main(["report", "--in", str(bad), "--out", str(tmp_path / "x.md")])
    assert rc == 1
    assert "expected columns" in capsys.readouterr().err


def test_full_pipeline_smoke(tmp_path):
    data = tmp_path / "data.npz"
    model = tmp_path / "model.npz"
    report = tmp_path / "eval.csv"
    assert main(
        ["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "120",
         "--seed", "7", "--grid-points", "20", "--t-max", "6", "--out", str(data)]
    ) == 0
    assert main(
        ["train-mv", "--data", str(data), "--out", str(model), "--seed", "3",
         "--epochs", "5", "--blocks", "3,3", "--hidden-dim", "16",
         "--depth", "2", "--n-init", "2", "--batch-size", "32"]
    ) == 0
    assert main(
        ["eval", "--model", str(model), "--data", str(data),
         "--report", str(report), "--seed", "5"]
    ) == 0

    for artifact in (data, model, report, tmp_path / "eval.md"):
        assert artifact.exists()

    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    sections = {r["section"] for r in rows}
    assert sections == {"accuracy", "r2", "ate"}
    acc = [float(r["value"]) for r in rows if r["section"] == "accuracy"]
    assert all(0.0 <= v <= 1.0 for v in acc)
    ate_rows = {(r["row"], r["col"]): r["value"] for r in rows if r["section"] == "ate"}
    assert float(ate_rows[("slice0", "change_ratio")]) == 0.0
    assert int(ate_rows[("slice0", "n")]) == 60

    manifest = json.loads((tmp_path / "eval.csv.manifest.json").read_text())
    assert set(manifest["outputs"]) == {"eval.csv", "eval.md"}
    assert manifest["outputs"]["eval.csv"] == _sha256(report)

    # The training manifest records the effective hyperparameters.
    train_manifest = json.loads((tmp_path / "model.npz.manifest.json").read_text())
    assert train_manifest["config"]["block_sizes"] == [3, 3]
    assert train_manifest["config"]["epochs"] == 5
    assert train_manifest["seeds"] == {"train": 3}


def test_train_flag_overrides_config_file(tmp_path):
    data = tmp_path / "data.npz"
    assert main(
        ["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "24",
         "--seed", "9", "--grid-points", "16", "--t-max", "5", "--out", str(data)]
    ) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"lr": 1e-3, "epochs": 2, "block_sizes": [3, 3], "hidden_dim": 8,
         "depth": 2, "n_init": 2, "batch_size": 16}
    ))
    model = tmp_path / "model.npz"
    assert main(
        ["train-mv", "--data", str(data), "--out", str(model),
         "--config", str(cfg), "--lr", "1e-4"]
    ) == 0
    manifest = json.loads((tmp_path / "model.npz.manifest.json").read_text())
    assert manifest["config"]["lr"] == 1e-4  # flag beats file
    assert manifest["config"]["epochs"] == 2  # file beats default


def test_eval_rejects_mismatched_model_and_data(tmp_path, capsys):
    data = tmp_path / "lv.npz"
    other = tmp_path / "sir.npz"
    model = tmp_path / "model.npz"
    assert main(
        ["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "120",
         "--seed", "1", "--grid-points", "16", "--t-max", "5", "--out", str(data)]
    ) == 0
    assert main(
        ["synth-mv", "--system", "ode31", "--shared", "0", "--pairs", "120",
         "--seed", "1", "--grid-points", "16", "--t-max", "5", "--out", str(other)]
    ) == 0
    assert main(
        ["train-mv", "--data", str(data), "--out", str(model), "--epochs", "1",
         "--blocks", "2,2", "--hidden-dim", "8", "--depth", "2", "--n-init", "2"]
    ) == 0
    rc = main(["eval", "--model", str(model), "--data", str(other),
               "--report", str(tmp_path / "e.csv")])
    assert rc == 1
    assert "ode31" in capsys.readouterr().err


@pytest.mark.parametrize("grid_flags, data_grid", [
    (["--grid-points", "12", "--t-max", "3"], "(0.0, 3.0, 12)"),
    (["--grid-points", "16", "--t-max", "5"], "(0.0, 5.0, 16)"),
])
def test_eval_rejects_data_on_another_grid(tmp_path_factory, capsys, grid_flags, data_grid):
    """The model's preprocessing is frozen on its training grid; a dataset
    of the same system on another horizon or with another number of points
    is refused, naming both grids, before anything is encoded."""
    files = _pipeline_files(tmp_path_factory)  # trained on (0.0, 5.0, 12)
    root = tmp_path_factory.mktemp("grid")
    other = root / "other.npz"
    assert main(["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "8",
                 "--seed", "7", *grid_flags, "--out", str(other)]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", str(files["model"]), "--data", str(other),
               "--report", str(root / "e.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("dynident: config: eval: ")
    assert "(0.0, 5.0, 12)" in err and data_grid in err
    assert not (root / "e.csv").exists()


def test_eval_refuses_fewer_than_100_pairs_before_any_probe(tmp_path, capsys, monkeypatch):
    from dynident import cli

    data = tmp_path / "small.npz"
    model = tmp_path / "model.npz"
    assert main(
        ["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "99",
         "--seed", "1", "--grid-points", "16", "--t-max", "5", "--out", str(data)]
    ) == 0
    assert main(
        ["train-mv", "--data", str(data), "--out", str(model), "--epochs", "1",
         "--blocks", "2,2", "--hidden-dim", "8", "--depth", "2", "--n-init", "2"]
    ) == 0
    capsys.readouterr()

    def probe_reached(*args, **kwargs):
        raise AssertionError("a probe ran before the pair count was checked")

    monkeypatch.setattr(cli, "partition_accuracy_matrix", probe_reached)
    monkeypatch.setattr(cli, "latent_r2", probe_reached)
    report = tmp_path / "e.csv"
    rc = main(["eval", "--model", str(model), "--data", str(data), "--report", str(report)])
    assert rc == 1
    assert capsys.readouterr().err == (
        "dynident: config: eval: need at least 100 pairs (two ATE slices of >= 50 rows)\n"
    )
    assert not report.exists()


# ---------------------------------------------------------------------------
# Exit codes and errors.
# ---------------------------------------------------------------------------


def test_unknown_subcommand_exits_1_with_usage(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert err.strip().splitlines()[-1].startswith("dynident: usage:")


def test_validation_error_names_the_key(tmp_path, capsys):
    rc = main(["bench", "--systems", "ode2", "--draws", "-1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("dynident: config: draws:")
    assert "\n" not in err.strip()


def test_a_value_is_checked_once_whether_flag_or_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "foo"}))
    base = ["bench", "--systems", "ode2", "--out", str(tmp_path / "x.csv")]
    for argv in (base + ["--method", "foo"], base + ["--config", str(cfg)]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "dynident: config: method: must be one of traj, deriv, closed\n"
        )


def test_train_mv_checks_its_model_keys_before_opening_the_data(tmp_path, capsys):
    rc = main(["train-mv", "--depth", "0", "--data", str(tmp_path / "absent.npz"),
               "--out", str(tmp_path / "m.npz")])
    assert rc == 1
    assert capsys.readouterr().err == "dynident: config: depth: must be >= 1\n"


_FIXED_SETTINGS = [("--activation", "activation", "relu"), ("--shared-block", "shared_block", 0),
                   ("--keep-fraction", "keep_fraction", 0.5)]


@pytest.mark.parametrize("flag, key, value", _FIXED_SETTINGS)
def test_fixed_identifier_settings_are_not_flags(tmp_path, capsys, flag, key, value):
    """tanh, block 0 as the shared block and half the DCT coefficients are
    fixed: their former flags are usage errors."""
    rc = main(["train-mv", flag, str(value), "--data", str(tmp_path / "absent.npz"),
               "--out", str(tmp_path / "m.npz")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage: dynident [-h] command ...",
        f"dynident: usage: unrecognized arguments: {flag} {value}",
    ]


@pytest.mark.parametrize("flag, key, value", _FIXED_SETTINGS)
def test_fixed_identifier_settings_are_not_config_keys(tmp_path, capsys, flag, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    rc = main(["train-mv", "--config", str(cfg), "--data", str(tmp_path / "absent.npz"),
               "--out", str(tmp_path / "m.npz")])
    assert rc == 1
    assert capsys.readouterr().err == f"dynident: config: {key}: unknown config key\n"


def _wrong_json_values(opt):
    """JSON values of a type ``opt`` refuses."""
    anything = {
        "null": st.none(), "bool": st.booleans(), "int": st.integers(),
        "float": st.floats(allow_nan=False, allow_infinity=False),
        "str": st.text(max_size=8), "list": st.lists(st.integers(), max_size=3),
        "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    }
    if opt.parse is not None:  # strings, and for some keys lists, are parsed
        accepted = {"str", "list"}
    else:
        accepted = {bool: {"bool"}, int: {"int"}, float: {"int", "float"},
                    str: {"str"}}[opt.type]
    wrong = st.one_of(*(v for name, v in anything.items() if name not in accepted))
    # A list of the right kind with one element of the wrong type in it.
    ints = st.lists(st.integers(), max_size=2)
    if opt.parse is _int_tuple:
        not_int = st.one_of(st.booleans(), st.floats(), st.text(max_size=3))
        return st.one_of(wrong, st.just([]),
                         st.tuples(ints, not_int, ints).map(lambda t: t[0] + [t[1]] + t[2]))
    if opt.parse is _prototype_rows:
        row = st.lists(st.floats(-5.0, 5.0), max_size=2)
        not_number = st.one_of(st.booleans(), st.text(max_size=3))
        return st.one_of(wrong, st.sampled_from([[], [[]], ";"]),
                         st.tuples(row, not_number).map(lambda t: [t[0] + [t[1]]]))
    return wrong


_SCHEMA_KEYS = [(command, key) for command, schema in _SCHEMAS.items() for key in schema]


def _assert_config_value_exits_1_naming_the_key(cfg, command, key, value):
    cfg.write_text(json.dumps({key: value}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--config", str(cfg)])
    assert rc == 1
    assert err.getvalue().count("\n") == 1
    assert err.getvalue().startswith(f"dynident: config: {key}:")


@settings(max_examples=150, deadline=None)
@given(command_key=st.sampled_from(_SCHEMA_KEYS), data=st.data())
def test_wrong_typed_config_value_exits_1_naming_the_key(tmp_path_factory, command_key, data):
    command, key = command_key
    value = data.draw(_wrong_json_values(_SCHEMAS[command][key]))
    cfg = tmp_path_factory.mktemp("cfg") / "cfg.json"
    _assert_config_value_exits_1_naming_the_key(cfg, command, key, value)


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("synth-mv", "shared", []),
        ("synth-mv", "prototypes", []),
        ("synth-mv", "prototypes", [[]]),
        ("synth-mv", "prototypes", ";"),
        ("train-mv", "block_sizes", []),
    ],
)
def test_empty_list_config_value_exits_1_naming_the_key(tmp_path, command, key, value):
    _assert_config_value_exits_1_naming_the_key(tmp_path / "cfg.json", command, key, value)


# (option strings, dest, value type) of every subcommand's options, as argparse
# declares them; a flag without a type yields strings.
_CLI_SURFACE = {
    "systems": [
        (("--config",), "config", str),
        ((), "action", str),
    ],
    "simulate": [
        (("--config",), "config", str),
        (("--system",), "system", str),
        (("--draws",), "draws", int),
        (("--seed",), "seed", int),
        (("--grid-points",), "grid_points", int),
        (("--t-max",), "t_max", float),
        (("--x0-jitter",), "x0_jitter", float),
        (("--derivs", "--no-derivs"), "derivs", bool),
        (("--out",), "out", str),
    ],
    "bench": [
        (("--config",), "config", str),
        (("--systems",), "systems", str),
        (("--draws",), "draws", int),
        (("--method",), "method", str),
        (("--noise",), "noise", float),
        (("--seed",), "seed", int),
        (("--grid-points",), "grid_points", int),
        (("--out",), "out", str),
    ],
    "synth-mv": [
        (("--config",), "config", str),
        (("--system",), "system", str),
        (("--shared",), "shared", str),
        (("--pairs",), "pairs", int),
        (("--seed",), "seed", int),
        (("--views",), "views", int),
        (("--grid-points",), "grid_points", int),
        (("--t-max",), "t_max", float),
        (("--x0-jitter",), "x0_jitter", float),
        (("--prototypes",), "prototypes", str),
        (("--out",), "out", str),
    ],
    "train-mv": [
        (("--config",), "config", str),
        (("--data",), "data", str),
        (("--out",), "out", str),
        (("--seed",), "seed", int),
        (("--blocks",), "block_sizes", str),
        (("--hidden-dim",), "hidden_dim", int),
        (("--depth",), "depth", int),
        (("--n-init",), "n_init", int),
        (("--reg-align",), "reg_align", float),
        (("--decoder",), "decoder", str),
        (("--lr",), "lr", float),
        (("--batch-size",), "batch_size", int),
        (("--epochs",), "epochs", int),
    ],
    "eval": [
        (("--config",), "config", str),
        (("--model",), "model", str),
        (("--data",), "data", str),
        (("--report",), "report", str),
        (("--seed",), "seed", int),
    ],
    "report": [
        (("--config",), "config", str),
        (("--in",), "input", str),
        (("--out",), "out", str),
    ],
}


def test_cli_surface_is_pinned():
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        command: [
            (tuple(a.option_strings), a.dest,
             bool if isinstance(a, argparse.BooleanOptionalAction) else a.type or str)
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        ]
        for command, p in sub.choices.items()
    }
    assert surface == _CLI_SURFACE


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning_rate": 1e-3}))
    rc = main(["train-mv", "--data", "absent.npz", "--out", "m.npz",
               "--config", str(cfg)])
    assert rc == 1
    assert "learning_rate" in capsys.readouterr().err


def test_empty_config_applies_defaults(tmp_path, capsys):
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    assert main(["systems", "list", "--config", str(cfg)]) == 0
    assert "ode27" in capsys.readouterr().out


def test_unknown_system_id_exits_1(tmp_path, capsys):
    rc = main(["synth-mv", "--system", "nope", "--shared", "0", "--pairs", "4",
               "--out", str(tmp_path / "z.jsonl")])
    assert rc == 1
    assert "nope" in capsys.readouterr().err


def test_ragged_prototypes_exit_1(tmp_path, capsys):
    for prototypes in ("0.7,1.6;1.7", ";", " "):  # ragged, then no rows at all
        rc = main(["synth-mv", "--system", "ode27", "--shared", "0,1",
                   "--prototypes", prototypes, "--out", str(tmp_path / "p.npz")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.count("\n") == 1 and err.startswith("dynident: config: prototypes: ")


def test_report_rejects_a_non_numeric_cell(tmp_path, capsys):
    bad = tmp_path / "bench.csv"
    bad.write_text(",".join(_REPORT_COLUMNS) + "\node2,deriv,abc,0.0,0.1,0.1,0\n")
    rc = main(["report", "--in", str(bad), "--out", str(tmp_path / "x.md")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("dynident: config: input: ")
    assert "'abc'" in err


def test_report_rejects_a_file_that_is_not_utf8_text(tmp_path, capsys):
    draws = tmp_path / "draws.npz"
    assert main(["simulate", "--system", "ode2", "--draws", "2", "--out", str(draws)]) == 0
    capsys.readouterr()
    rc = main(["report", "--in", str(draws), "--out", str(tmp_path / "x.md")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and err.startswith("dynident: config: input: ")
    assert not (tmp_path / "x.md").exists()


@pytest.mark.parametrize("jitter", ["1.0", "1.5", "-0.1"])
@pytest.mark.parametrize("command", [
    ["simulate", "--system", "ode2", "--draws", "3", "--seed", "1"],
    ["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "4"],
])
def test_x0_jitter_outside_the_unit_interval_exits_1(tmp_path, capsys, command, jitter):
    out = tmp_path / "out.npz"
    rc = main(command + ["--x0-jitter", jitter, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "dynident: config: x0_jitter: must be in [0, 1)\n"
    assert not out.exists()


@pytest.mark.parametrize("prototypes", ["nan,1.0", "inf,1.0;1.0,1.0", [[1.0, float("nan")]]])
def test_non_finite_prototypes_exit_1(tmp_path, capsys, prototypes):
    """A non-finite prototype is refused as a config error, not left to
    fail every trajectory until the redraws run out."""
    out = tmp_path / "p.npz"
    argv = ["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "4", "--out", str(out)]
    if isinstance(prototypes, str):
        argv += ["--prototypes", prototypes]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({"prototypes": prototypes}))
        argv += ["--config", str(tmp_path / "cfg.json")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1
    assert err.startswith("dynident: config: prototypes: expected finite numbers, got ")
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    (["bench", "--systems", "ode2", "--draws", "3"], "--noise", "inf"),
    (["bench", "--systems", "ode2", "--draws", "3"], "--noise", "nan"),
    (["simulate", "--system", "ode2"], "--t-max", "inf"),
    (["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "4"], "--t-max", "inf"),
    (["train-mv", "--epochs", "1"], "--lr", "inf"),
    (["train-mv", "--epochs", "1"], "--reg-align", "inf"),
])
def test_non_finite_number_exits_1_naming_the_key(tmp_path_factory, capsys, command, flag, value):
    """A range check such as ``>= 0`` lets inf through, so a numeric flag or
    config value that is not finite is refused by name before anything runs
    or is written."""
    root = tmp_path_factory.mktemp("finite")
    out = root / "out.npz"
    if command[0] == "train-mv":
        command = command + ["--data", str(_pipeline_files(tmp_path_factory)["data"])]
    key = flag[2:].replace("-", "_")
    (root / "cfg.json").write_text(json.dumps({key: float(value)}))
    for argv in (command + [flag, value], command + ["--config", str(root / "cfg.json")]):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"dynident: config: {key}: expected a finite number, got {float(value)!r}\n"
        )
        assert not out.exists()


def test_missing_data_file_exits_2(tmp_path, capsys):
    rc = main(["train-mv", "--data", str(tmp_path / "absent.npz"),
               "--out", str(tmp_path / "m.npz")])
    assert rc == 2
    assert "dynident: io:" in capsys.readouterr().err


def test_truncated_data_file_exits_2_with_one_line(tmp_path, capsys):
    data = tmp_path / "pairs.npz"
    assert main(["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "120",
                 "--seed", "7", "--grid-points", "20", "--out", str(data)]) == 0
    data.write_bytes(data.read_bytes()[:20_000])
    capsys.readouterr()
    rc = main(["train-mv", "--data", str(data), "--out", str(tmp_path / "m.npz")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith("dynident: io: ") and str(data) in err


def test_dataset_given_as_model_exits_2(tmp_path, capsys):
    data = tmp_path / "pairs.npz"
    assert main(["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "4",
                 "--seed", "7", "--grid-points", "20", "--out", str(data)]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", str(data), "--data", str(data),
               "--report", str(tmp_path / "e.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("dynident: io: ")


def test_json_array_given_as_model_exits_2(tmp_path, capsys):
    model = tmp_path / "arr.json"
    model.write_text("[1, 2]\n")
    rc = main(["eval", "--model", str(model), "--data", str(tmp_path / "absent.jsonl"),
               "--report", str(tmp_path / "e.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith("dynident: io: ") and str(model) in err


def test_model_with_inconsistent_arrays_exits_2(tmp_path, capsys):
    data = tmp_path / "pairs.npz"
    model = tmp_path / "model.npz"
    assert main(["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "24",
                 "--seed", "7", "--grid-points", "16", "--t-max", "5", "--out", str(data)]) == 0
    assert main(["train-mv", "--data", str(data), "--out", str(model), "--epochs", "1",
                 "--blocks", "2,2", "--hidden-dim", "8", "--depth", "2", "--n-init", "2"]) == 0
    meta, arrays = _read_archive(model, "multiview-model")
    arrays["prep.enc_mean"] = arrays["prep.enc_mean"][:, :-1]
    _write_archive(model, "multiview-model", meta, arrays)
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--data", str(data),
               "--report", str(tmp_path / "e.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith("dynident: io: ") and str(model) in err


def test_simulate_output_given_as_dataset_exits_2(tmp_path, capsys):
    trajs = tmp_path / "trajs.npz"
    assert main(["simulate", "--system", "ode27", "--draws", "2", "--seed", "1",
                 "--out", str(trajs)]) == 0
    capsys.readouterr()
    rc = main(["train-mv", "--data", str(trajs), "--out", str(tmp_path / "m.npz")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith("dynident: io: ") and str(trajs) in err


_PIPELINE_FILES = {}


def _pipeline_files(tmp_path_factory):
    """A small dataset and a model trained on it, written once by the CLI."""
    if not _PIPELINE_FILES:
        root = tmp_path_factory.mktemp("pipeline")
        data, model = root / "pairs.npz", root / "model.npz"
        assert main(["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "8",
                     "--seed", "7", "--grid-points", "12", "--t-max", "5",
                     "--out", str(data)]) == 0
        assert main(["train-mv", "--data", str(data), "--out", str(model), "--epochs", "1",
                     "--blocks", "2,2", "--hidden-dim", "4", "--depth", "2",
                     "--n-init", "2"]) == 0
        _PIPELINE_FILES.update(data=data, model=model)
    return _PIPELINE_FILES


@settings(max_examples=40, deadline=None)
@given(role=st.sampled_from(["data", "model"]), where=st.floats(0.0, 1.0, exclude_max=True))
def test_cut_dataset_or_model_exits_2_with_one_line(tmp_path_factory, role, where):
    files = _pipeline_files(tmp_path_factory)
    whole = files[role].read_bytes()
    cut = tmp_path_factory.mktemp("cut") / f"cut-{role}.npz"
    cut.write_bytes(whole[: int(where * len(whole))])
    if role == "data":
        argv = ["train-mv", "--data", str(cut), "--out", str(cut.with_name("m.npz"))]
    else:
        argv = ["eval", "--model", str(cut), "--data", str(files["data"]),
                "--report", str(cut.with_name("e.csv"))]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 2
    assert err.getvalue().count("\n") == 1
    assert err.getvalue().startswith("dynident: io: ") and str(cut) in err.getvalue()


def test_unknown_system_id_in_dataset_or_model_exits_2(tmp_path_factory, capsys):
    files = _pipeline_files(tmp_path_factory)
    root = tmp_path_factory.mktemp("nope")
    renamed = {}
    for role, kind in (("data", "multiview-dataset"), ("model", "multiview-model")):
        meta, arrays = _read_archive(files[role], kind)
        meta["system_id"] = "nope"
        renamed[role] = root / f"{role}.npz"
        _write_archive(renamed[role], kind, meta, arrays)
    for argv, path in (
        (["train-mv", "--data", str(renamed["data"]), "--out", str(root / "m.npz")],
         renamed["data"]),
        (["eval", "--model", str(renamed["model"]), "--data", str(files["data"]),
          "--report", str(root / "e.csv")], renamed["model"]),
    ):
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"dynident: io: {path}: ") and "'nope'" in err
    assert not (root / "m.npz").exists()


@pytest.mark.parametrize(
    "key, value", [("depth", 2.0), ("hidden_dim", 8.0), ("n_init", 1.0),
                   ("block_sizes", [2.0, 2.0]), ("lr", float("inf")), ("reg_align", float("inf"))],
)
def test_model_config_of_the_wrong_type_exits_2_naming_the_key(
    tmp_path_factory, capsys, key, value
):
    """A float where the model's config holds an int, or a non-finite float,
    is refused on load, not truncated and not left to fail inside the
    arithmetic."""
    files = _pipeline_files(tmp_path_factory)
    meta, arrays = _read_archive(files["model"], "multiview-model")
    meta["config"][key] = value
    model = tmp_path_factory.mktemp("typed") / "model.npz"
    _write_archive(model, "multiview-model", meta, arrays)
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--data", str(files["data"]),
               "--report", str(model.with_name("e.csv"))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith(f"dynident: io: {model}: malformed model file ({key}: must be ")


@pytest.mark.parametrize(
    "role, key, value",
    [("data", "n_points", 50.7), ("data", "n_points", True), ("data", "n_points", 12.0),
     ("data", "shared_param_indices", [0.9, 1.7]), ("data", "shared_param_indices", [True, 1]),
     ("model", "n_points", 50.7), ("model", "n_points", True)],
)
def test_non_integer_grid_or_index_in_a_file_exits_2_naming_the_key(
    tmp_path_factory, capsys, role, key, value
):
    """A point count or parameter index that is a bool or a float is refused
    on load, not truncated to an int."""
    files = _pipeline_files(tmp_path_factory)
    kind = {"data": "multiview-dataset", "model": "multiview-model"}[role]
    meta, arrays = _read_archive(files[role], kind)
    if key == "n_points":
        meta["grid"]["n_points"] = value
    else:
        meta[key] = value
    edited = tmp_path_factory.mktemp("ints") / f"{role}.npz"
    _write_archive(edited, kind, meta, arrays)
    if role == "data":
        argv = ["train-mv", "--data", str(edited), "--out", str(edited.with_name("m.npz"))]
    else:
        argv = ["eval", "--model", str(edited), "--data", str(files["data"]),
                "--report", str(edited.with_name("e.csv"))]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"dynident: io: {edited}: malformed ")
    assert f"{key}: expected an integer, got " in err
    assert not edited.with_name("m.npz").exists()


@pytest.mark.parametrize(
    "value, reason",
    [([0.9, 7, "x"], "shared_param_indices: expected an integer, got 0.9"),
     ("x", "shared_param_indices: expected an integer, got 'x'"),
     ([], "shared_param_indices: bad shared index set"),
     ([1, 1], "shared_param_indices: bad shared index set"),
     ([0, 7], "shared_param_indices: shared index out of range for ode27 with 4 parameters"),
     ([0, 1, 2, 3], "shared_param_indices: S covers every parameter")],
)
def test_bad_shared_indices_in_a_model_exit_2(tmp_path_factory, capsys, value, reason):
    """A model's S meets the rules that ``synth-mv`` applies to a dataset's."""
    files = _pipeline_files(tmp_path_factory)
    meta, arrays = _read_archive(files["model"], "multiview-model")
    meta["shared_param_indices"] = value
    model = tmp_path_factory.mktemp("shared") / "model.npz"
    _write_archive(model, "multiview-model", meta, arrays)
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--data", str(files["data"]),
               "--report", str(model.with_name("e.csv"))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith(f"dynident: io: {model}: malformed model file ({reason}")
    assert not model.with_name("e.csv").exists()


@pytest.mark.parametrize(
    "value, reason",
    [([], "shared_param_indices: bad shared index set"),
     ([0, 0], "shared_param_indices: bad shared index set"),
     ([0, 1, 2, 3], "shared_param_indices: S covers every parameter")],
)
def test_bad_shared_indices_in_a_dataset_exit_2(tmp_path_factory, capsys, value, reason):
    """A dataset's S meets the rule a model's S meets, so train-mv refuses a
    dataset whose model eval would refuse."""
    files = _pipeline_files(tmp_path_factory)
    meta, arrays = _read_archive(files["data"], "multiview-dataset")
    meta["shared_param_indices"] = value
    data = tmp_path_factory.mktemp("shared") / "pairs.npz"
    _write_archive(data, "multiview-dataset", meta, arrays)
    capsys.readouterr()
    rc = main(["train-mv", "--data", str(data), "--out", str(data.with_name("m.npz"))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1
    assert err.startswith(f"dynident: io: {data}: malformed multiview dataset file ({reason}")
    assert not data.with_name("m.npz").exists()


def test_schema_2_per_layer_model_exits_2_asking_to_retrain(tmp_path_factory, capsys):
    """A model file of schema 2 stored every view's layers as their own
    members, and one of schema 3 held the shared block, the activation and
    the DCT keep fraction in its config; each is refused with one line, not
    read through a second loader."""
    files = _pipeline_files(tmp_path_factory)
    meta, arrays = _read_archive(files["model"], "multiview-model")
    m = load_identifier(files["model"])
    per_layer = {name: a for name, a in arrays.items() if name.startswith("prep.")}
    for role, net in (("encoders", m.encoders), ("decoders", m.decoders)):
        for v in range(m.n_views):
            for k, (w, b) in enumerate(zip(net.weights, net.biases)):
                per_layer[f"{role}.{v}.weights.{k}"] = w[v]
                per_layer[f"{role}.{v}.biases.{k}"] = b[v]
    old_config = {**meta["config"], "shared_block": 0, "activation": "tanh", "keep_fraction": 0.5}
    root = tmp_path_factory.mktemp("old-schemas")
    for version, members in ((2, per_layer), (3, arrays)):
        model = root / f"schema{version}.npz"
        _write_archive(model, "multiview-model",
                       {**meta, "schema_version": version, "config": old_config}, members)
        capsys.readouterr()
        rc = main(["eval", "--model", str(model), "--data", str(files["data"]),
                   "--report", str(root / "e.csv")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"dynident: io: {model}: schema_version {version}, expected 4; schema {version} "
            "model files are no longer read; retrain with train-mv\n"
        )
    assert not (root / "e.csv").exists()


def test_synth_mv_with_the_same_seed_writes_identical_bytes(tmp_path):
    argv = ["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "30", "--seed", "4",
            "--grid-points", "12", "--t-max", "5", "--prototypes", "0.7,1.1;1.2,0.8", "--out"]
    assert main(argv + [str(tmp_path / "a.npz")]) == 0
    assert main(argv + [str(tmp_path / "b.npz")]) == 0
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def test_schema_1_json_lines_dataset_exits_2_asking_to_regenerate(tmp_path, capsys):
    data = tmp_path / "pairs.jsonl"
    header = {"kind": "multiview-dataset", "schema_version": 1, "system_id": "ode27",
              "shared_param_indices": [0, 1], "grid": {"t0": 0.0, "t_max": 5.0, "n_points": 2},
              "n_views": 2, "n_pairs": 1, "labeled": False}
    pair = {"states": [[[1.0, 1.0], [1.1, 0.9]]] * 2, "thetas": [[1.0, 1.0, 1.0]] * 2,
            "x0s": [[1.0, 1.0]] * 2}
    data.write_text(json.dumps(header) + "\n" + json.dumps(pair) + "\n")
    rc = main(["train-mv", "--data", str(data), "--out", str(tmp_path / "m.npz")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (
        f"dynident: io: {data}: not a dynident archive (schema 1 JSON files are no longer "
        "read; regenerate with synth-mv/train-mv)\n"
    )


def test_failed_archive_write_keeps_the_previous_file(tmp_path, monkeypatch, capsys):
    data = tmp_path / "pairs.npz"
    argv = ["synth-mv", "--system", "ode27", "--shared", "0,1", "--pairs", "6",
            "--grid-points", "12", "--t-max", "5", "--out", str(data)]
    assert main(argv + ["--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    write_array = np.lib.format.write_array
    written = []

    def fail_after_the_first_member(*args, **kwargs):
        if written:
            raise OSError("no space left on device")
        written.append(args)
        write_array(*args, **kwargs)

    monkeypatch.setattr(np.lib.format, "write_array", fail_after_the_first_member)
    capsys.readouterr()
    assert main(argv + ["--seed", "2"]) == 2
    assert capsys.readouterr().err.startswith("dynident: io: no space left on device")
    assert len(written) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_atomic_open_keeps_the_previous_file_when_a_write_fails(tmp_path):
    target = tmp_path / "eval.csv"
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("section,row,col,value\n")
            raise RuntimeError("failed part-way")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["eval.csv"]
    with atomic_open(target) as fh:
        fh.write("new\n")
    assert target.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["eval.csv"]


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    """``--threads`` reached no code and is gone: giving it exits 1."""
    out = tmp_path / "x.csv"
    rc = main(["bench", "--systems", "ode2", "--draws", "2", "--threads", "2",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.strip().splitlines()[-1] == (
        "dynident: usage: unrecognized arguments: --threads 2"
    )
    assert not out.exists()


def test_readme_commands_parse():
    """Every ``dynident ...`` command in the README parses and resolves its config.

    Nothing is run, so flag drift between the README and the parser fails
    in milliseconds.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [ln.strip() for ln in readme.splitlines() if ln.strip().startswith("dynident ")]
    lines += re.findall(r"`(dynident [^`]+)`", readme)
    assert len(lines) >= 5
    for line in lines:
        parse_argv(shlex.split(line)[1:])


def _readme_block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the line ``heading`` of the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = re.search(re.escape(heading) + r"\n\n```" + lang + r"\n(.*?)```", readme, re.S)
    assert found, f"README has no {lang} block after {heading!r}"
    return found.group(1)


def test_readme_pipeline_runs_as_written_at_small_scale(tmp_path, monkeypatch):
    """The README's typical pipeline, run as written except for smaller
    --pairs, --epochs and --draws, exits 0 and writes every output with its
    manifest."""
    monkeypatch.chdir(tmp_path)
    small = {"--pairs": "200", "--epochs": "2", "--draws": "3"}
    lines = _readme_block("A typical pipeline:", "bash").strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        argv = shlex.split(line)
        assert argv[0] == "dynident"
        argv = [small.get(prev, tok) for prev, tok in zip([None] + argv, argv)]
        assert main(argv[1:]) == 0, line
        outputs = [tok for prev, tok in zip(argv, argv[1:]) if prev in ("--out", "--report")]
        assert outputs, line
        for out in outputs:
            assert (tmp_path / out).is_file(), out
            assert (tmp_path / f"{out}.manifest.json").is_file(), out


def test_readme_quick_start_runs_and_prints_what_it_claims():
    """The Quick start snippet runs, and the error it prints is within a
    factor of ten of the value its comment gives."""
    code = _readme_block("## Quick start", "python")
    claim = float(re.search(r"# ~(\S+)", code).group(1))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    error = float(out.getvalue())
    assert claim / 10 <= error <= claim * 10, (error, claim)
