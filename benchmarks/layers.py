"""Where the traced run records spans, and the per-layer metrics it reports.

Each wrapper goes on the name its caller looks up: the estimators call
``dynident.estimators.integrate_batch``, the multiview trainer calls
``dynident.autodiff.backward`` through its ``ad`` alias, the CLI handlers
call the names ``dynident.cli`` imported, and the RK4 loop calls each
catalog system's ``field``.
"""

from __future__ import annotations

import os

from dynident import autodiff, causal, cli, estimators, multiview, solver, systems


def _field_rows(counts, args, kwargs, result):
    counts["systems.field.rows"] += result.size // result.shape[-1]


def _batch_rows(counts, args, kwargs, result):
    counts["solver.integrate_batch.rows"] += result[0].shape[0]


def _fit_stats(prefix):
    def on_result(counts, args, kwargs, result):
        counts[f"{prefix}.iterations"] += result.iterations
        counts[f"{prefix}.converged"] += bool(result.converged)
    return on_result


def _file_bytes(metric):
    def on_result(counts, args, kwargs, result):
        counts[metric] = os.path.getsize(args[0])
    return on_result


def _cli_span(argv, *rest, **kwargs):
    return f"cli.{argv[0]}"


def install(tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    for system in systems.CATALOG.values():
        tracer.patch(system, "field", "systems.field", _field_rows, aggregate=True)
    for module in (solver, estimators, multiview, cli):
        tracer.patch(module, "integrate_batch", "solver.integrate_batch", _batch_rows)
    tracer.patch(multiview, "dct_truncate", "solver.dct_truncate")

    tracer.patch(estimators, "benchmark_rmse", "estimators.benchmark_rmse")
    tracer.patch(estimators, "fit_trajectory_matching", "estimators.fit_trajectory_matching",
                 _fit_stats("estimators.fit_trajectory_matching"))
    tracer.patch(estimators, "minimize", "estimators.nelder_mead")
    tracer.patch(estimators, "fit_derivative_matching", "estimators.fit_derivative_matching",
                 _fit_stats("estimators.fit_derivative_matching"))
    tracer.patch(estimators, "fit_closed_form", "estimators.fit_closed_form")

    for name in ("mlp_forward", "backward", "adam_step"):
        tracer.patch(autodiff, name, f"autodiff.{name}")

    tracer.patch(cli, "generate_multiview_dataset", "multiview.generate_multiview_dataset")
    tracer.patch(cli, "save_dataset", "multiview.save_dataset",
                 _file_bytes("multiview.save_dataset.bytes"))
    tracer.patch(cli, "load_dataset", "multiview.load_dataset")
    tracer.patch(cli, "save_identifier", "multiview.save_identifier",
                 _file_bytes("multiview.save_identifier.bytes"))
    tracer.patch(cli, "load_identifier", "multiview.load_identifier")
    tracer.patch(cli, "train_identifier", "multiview.train_identifier")
    for module in (cli, multiview):
        tracer.patch(module, "encode", "multiview.encode")

    tracer.patch(cli, "latent_r2", "causal.latent_r2")
    tracer.patch(cli, "aipw_ate", "causal.aipw_ate")
    tracer.patch(cli, "partition_accuracy_matrix", "causal.partition_accuracy_matrix")
    tracer.patch(causal, "logistic_fit", "causal.logistic_fit")

    tracer.patch(cli, "write_manifest", "cli.write_manifest")
    tracer.patch(cli, "main", _cli_span)


def _calls(span):
    return (f"{span}.calls", "count", "lower", lambda t: t.calls[span])


def _self(span):
    return (f"{span}.self_s", "s", "lower", lambda t: t.self_s[span])


def _count(metric, unit="count", better="lower"):
    return (metric, unit, better, lambda t: t.counts[metric])


def _ratio(metric, num, den, unit, better):
    return (metric, unit, better, lambda t: t.counts[num] / t.calls[den] if t.calls[den] else 0.0)


_FTM = "estimators.fit_trajectory_matching"
_FDM = "estimators.fit_derivative_matching"

#: (name, unit, better, value from a tracer) for every per-layer metric except
#: ``trace.overhead_s``, which compares traced and untraced rounds.
LAYER_METRICS = [
    _calls("systems.field"),
    _count("systems.field.rows"),
    _self("systems.field"),
    _calls("solver.integrate_batch"),
    _count("solver.integrate_batch.rows"),
    _ratio("solver.integrate_batch.rows_per_call", "solver.integrate_batch.rows",
           "solver.integrate_batch", "rows/call", "higher"),
    _self("solver.integrate_batch"),
    _calls("solver.dct_truncate"),
    _self("solver.dct_truncate"),
    _calls(_FTM),
    _self(_FTM),
    _count(f"{_FTM}.iterations"),
    _ratio(f"{_FTM}.converged_ratio", f"{_FTM}.converged", _FTM, "ratio", "higher"),
    _calls("estimators.nelder_mead"),
    _self("estimators.nelder_mead"),
    _calls(_FDM),
    _self(_FDM),
    _count(f"{_FDM}.iterations"),
    _calls("estimators.fit_closed_form"),
    _self("estimators.fit_closed_form"),
    _self("estimators.benchmark_rmse"),
    _calls("autodiff.mlp_forward"),
    _self("autodiff.mlp_forward"),
    _calls("autodiff.backward"),
    _self("autodiff.backward"),
    _calls("autodiff.adam_step"),
    _self("autodiff.adam_step"),
    _self("multiview.generate_multiview_dataset"),
    _self("multiview.save_dataset"),
    _count("multiview.save_dataset.bytes", "bytes"),
    _calls("multiview.load_dataset"),
    _self("multiview.load_dataset"),
    _self("multiview.save_identifier"),
    _count("multiview.save_identifier.bytes", "bytes"),
    _self("multiview.load_identifier"),
    _calls("multiview.encode"),
    _self("multiview.encode"),
    _self("multiview.train_identifier"),
    _calls("causal.latent_r2"),
    _self("causal.latent_r2"),
    _calls("causal.logistic_fit"),
    _self("causal.logistic_fit"),
    _calls("causal.aipw_ate"),
    _self("causal.aipw_ate"),
    _self("causal.partition_accuracy_matrix"),
    _self("cli.synth-mv"),
    _self("cli.train-mv"),
    _self("cli.eval"),
    _self("cli.write_manifest"),
]

#: Metrics that hold a size, not a sum over rounds.
_NOT_PER_ROUND = {"multiview.save_dataset.bytes", "multiview.save_identifier.bytes",
                  "solver.integrate_batch.rows_per_call", f"{_FTM}.converged_ratio"}


def layer_metrics(tracer, n_rounds: int) -> dict:
    """Per-layer metrics of one traced round (totals divided by the rounds)."""
    out = {}
    for name, unit, _better, value in LAYER_METRICS:
        v = float(value(tracer))
        if name not in _NOT_PER_ROUND:
            v /= n_rounds
        out[name] = {"value": v, "unit": unit}
    return out
