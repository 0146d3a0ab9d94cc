"""Batch command-line front end.

Subcommands: features, synth, train, predict, evaluate, simulate,
learning-curve, describe.  Every command reads one config file, writes CSV
reports plus a plain-text manifest under the output directory, and returns a
nonzero exit code on any error.  Every CSV goes through `domain.write_csv`:
data tables (features.csv, scores.csv) keep exact floats, reports round
them to six significant digits.  train, evaluate, simulate and learning-curve
run their cells through `pipeline.run_tasks`: a run that fails is listed in a
status CSV, the runs that succeeded are written, and the exit code is 3.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from itertools import zip_longest

import numpy as np

from . import __version__
from .domain import (DataError, ParseError, csv_bool, parse_athletes,
                     parse_injuries, parse_sessions, write_csv)
from .metrics import (operating_metrics, optimal_operating_point, rank_biserial,
                      roc_curve, subgroup_auc)
from .models import ModelSpec, candidate_grid
from .pipeline import (Cell, PipelineSettings, Protocol, Task,
                       features_from_records, learning_curve, load_bundle,
                       modeling_data_from_records, pinned_blas_threads,
                       run_simulations, run_tasks, save_bundle, stream_rng)
from .runconfig import ConfigError, RunConfig, example_config, load_config
from .synthdata import (CohortConfig, generate_cohort, null_config,
                        signal_config, write_cohort_csvs)

def _fmt(value: float) -> str:
    """A report figure, to six significant digits."""
    return format(value, ".6g")


def _write_csv(manifest, name, header, rows) -> None:
    """Write one CSV report under the output directory and record it."""
    path = os.path.join(manifest.out_dir, name)
    write_csv(path, header, rows)
    manifest.add_output(path)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Manifest:
    """Plain-text record of what a command produced and from which inputs."""

    def __init__(self, out_dir, command, cfg: RunConfig, config_path=None):
        self.out_dir = out_dir
        self.lines = [
            f"command={command}",
            f"package_version={__version__}",
            f"numpy_version={np.__version__}",
            f"python_version={sys.version_info.major}.{sys.version_info.minor}.{sys.version_info.micro}",
            f"seed={cfg.seed}",
        ]
        if config_path and os.path.exists(config_path):
            self.lines.append(f"config_sha256={_sha256(config_path)}")
        resolved = json.dumps(dataclasses.asdict(cfg), sort_keys=True, default=str)
        self.lines.append(
            f"resolved_config_sha256={hashlib.sha256(resolved.encode()).hexdigest()}")

    def add_output(self, path) -> None:
        rel = os.path.relpath(path, self.out_dir)
        self.lines.append(f"output={rel} sha256={_sha256(path)}")
        self.write()  # keep the manifest valid if a later step is interrupted

    def finish(self, status="ok") -> None:
        self.lines.append(f"status={status}")
        self.write()

    def write(self) -> None:
        with open(os.path.join(self.out_dir, "manifest.txt"), "w") as fh:
            fh.write("\n".join(self.lines) + "\n")


def _settings(cfg: RunConfig) -> PipelineSettings:
    return PipelineSettings(
        pca_threshold=cfg.pca_threshold,
        pmm_donors=cfg.pmm_donors,
        smote_k=cfg.smote_k,
        smote_oversample_pct=cfg.smote_oversample_pct,
    )


def model_spec_for(cfg: RunConfig, family: str) -> ModelSpec:
    if family == "logistic_elastic_net":
        grid = candidate_grid(lam=cfg.elastic_net_lambdas, alpha=cfg.elastic_net_alphas)
    elif family == "svm_rbf":
        grid = candidate_grid(C=cfg.svm_cost, gamma=cfg.svm_gamma)
    elif family == "random_forest":
        grid = candidate_grid(n_trees=cfg.rf_trees, max_features=cfg.rf_max_features,
                              min_leaf=cfg.rf_min_leaf)
    else:
        grid = None  # univariate scans all columns; GEE has nothing to tune
    return ModelSpec(family=family, grid=grid, folds=cfg.cv_folds,
                     group_folds=cfg.group_cv)


def _records(cfg: RunConfig):
    """The parsed sessions, injuries and athletes."""
    cfg.require_inputs()
    return (parse_sessions(cfg.sessions), parse_injuries(cfg.injuries),
            parse_athletes(cfg.athletes))


def _feature_options(cfg: RunConfig) -> dict:
    return dict(seed=cfg.seed, lag_days=cfg.lag_days, monotony_cap=cfg.monotony_cap,
                pmm_donors=cfg.pmm_donors)


def _load_modeling_inputs(cfg: RunConfig):
    """Parse inputs, impute raw session fields, build panel + features."""
    return features_from_records(*_records(cfg), **_feature_options(cfg))


def _modeling_data(cfg: RunConfig):
    """The panel, its season split and the split's ModelingData."""
    panel, _, split, data = modeling_data_from_records(
        *_records(cfg), cfg.train_seasons, cfg.test_seasons, **_feature_options(cfg))
    return panel, split, data


def _cells(cfg: RunConfig):
    return [
        Cell(spec=model_spec_for(cfg, family), outcome=outcome,
             protocol=Protocol.parse(protocol))
        for family in cfg.families
        for outcome in cfg.outcomes
        for protocol in cfg.protocols
    ]


def _run_cells(cfg: RunConfig, data, keep, **options):
    """Run every configured cell once, as simulation 0, through `run_tasks`;
    returns the kept values of the runs that succeeded and the status rows
    of those that failed."""
    tasks = [Task(cell, 0) for cell in _cells(cfg)]
    results = run_tasks(data, tasks, cfg.seed, keep, _settings(cfg), **options)
    failed = [[*task.cell.key, task.sim, result]
              for task, result in zip(tasks, results) if isinstance(result, str)]
    return [result for result in results if not isinstance(result, str)], failed


def _finish_runs(manifest: Manifest, name, index_columns, failed) -> int:
    """Record the BLAS threads of a command's runs and list its ``failed``
    runs, if any, in the status CSV ``name``; returns 3 if some run failed."""
    manifest.lines.append(f"blas_threads={pinned_blas_threads() or 'unpinned'}")
    if not failed:
        return 0
    _write_csv(manifest, name, ["family", "outcome", "protocol", *index_columns,
                                "error"], failed)
    return 3


# ---------------------------------------------------------------------------
# Commands


def cmd_features(cfg: RunConfig, manifest: Manifest) -> int:
    panel, features = _load_modeling_inputs(cfg)
    header = (["athlete_id", "date", "season", "new_player"] + features.columns
              + list(panel.labels.keys()))
    values = np.where(np.isnan(features.values), None, features.values).tolist()
    labels = np.column_stack(list(panel.labels.values())).tolist()
    rows = [
        [athlete_id, date.isoformat(), season, csv_bool(new_player),
         *feature_row, *label_row]
        for athlete_id, date, season, new_player, feature_row, label_row
        in zip(panel.athlete_ids, panel.dates, panel.seasons.tolist(),
               panel.new_player.tolist(), values, labels)
    ]
    _write_csv(manifest, "features.csv", header, rows)
    return 0


def cmd_synth(cfg: RunConfig, manifest: Manifest) -> int:
    common = dict(n_athletes=cfg.synth_n_athletes,
                  seasons=tuple(cfg.synth_seasons),
                  season_weeks=cfg.synth_season_weeks,
                  missing_rate=cfg.synth_missing_rate)
    if cfg.synth_preset == "signal":
        cohort_cfg = signal_config(seed=cfg.seed, **common)
    elif cfg.synth_preset == "null":
        cohort_cfg = null_config(seed=cfg.seed, **common)
    else:
        cohort_cfg = CohortConfig(seed=cfg.seed, **common, **cfg.cohort_overrides())
    cohort = generate_cohort(cohort_cfg)
    paths = write_cohort_csvs(cohort, cfg.out)
    for path in paths.values():
        manifest.add_output(path)
    return 0


def cmd_train(cfg: RunConfig, manifest: Manifest) -> int:
    data = _modeling_data(cfg)[2]

    def save(task, run):
        cell = task.cell
        name = f"model__{cell.spec.family}__{cell.outcome}__{cell.protocol.name}.json"
        path = os.path.join(cfg.out, name)
        save_bundle(path, run.bundle, run.model,
                    extra={"outcome": cell.outcome,
                           "protocol": cell.protocol.name, "seed": cfg.seed})
        return path, [
            *cell.key, json.dumps(run.model.hyperparams, sort_keys=True),
            _fmt(run.model.metadata.get("cv_mean_auc", float("nan"))),
            _fmt(run.test_auc), run.n_model_rows,
        ]

    done, failed = _run_cells(cfg, data, save)
    for path, _ in done:
        manifest.add_output(path)
    _write_csv(manifest, "training_summary.csv",
               ["family", "outcome", "protocol", "hyperparams", "cv_mean_auc",
                "test_auc", "n_model_rows"], [row for _, row in done])
    return _finish_runs(manifest, "training_status.csv", ["sim"], failed)


def cmd_predict(cfg: RunConfig, manifest: Manifest, model_path: str) -> int:
    if not os.path.exists(model_path):
        raise ConfigError(f"model file not found: {model_path}")
    bundle, model, extra = load_bundle(model_path)
    panel, features = _load_modeling_inputs(cfg)
    for j, (stored, computed) in enumerate(zip_longest(bundle.feature_names,
                                                       features.columns)):
        if stored != computed:
            raise ValueError(f"{model_path}: bundle feature {j} is {stored!r}, "
                             f"but the computed feature {j} is {computed!r}")
    rng = stream_rng(cfg.seed, 0, "impute")
    transformed = bundle.transform(features.values, rng)
    scores = model.score(transformed)
    rows = [
        [athlete_id, date.isoformat(), season, score]
        for athlete_id, date, season, score
        in zip(panel.athlete_ids, panel.dates, panel.seasons.tolist(),
               scores.tolist())
    ]
    _write_csv(manifest, "scores.csv", ["athlete_id", "date", "season", "score"], rows)
    return 0


def _train_threshold_point(train_curve, test_curve, cost_ratio, prevalence):
    """The cost-optimal threshold of the training ROC, measured at the test
    ROC point of the lowest test score at or above it."""
    threshold = optimal_operating_point(train_curve, cost_ratio, prevalence).threshold
    i = int(np.count_nonzero(test_curve.thresholds[1:] >= threshold))
    return operating_metrics(float(test_curve.tpr[i]), float(test_curve.fpr[i]),
                             prevalence, cost_ratio=cost_ratio, threshold=threshold)


def cmd_evaluate(cfg: RunConfig, manifest: Manifest) -> int:
    data = _modeling_data(cfg)[2]
    train_side = cfg.operating_point_source == "train"

    def evaluate(task, run):
        cell = task.cell
        roc_rows, op_rows, group_rows = [], [], []
        y_test = data.y_test[cell.outcome]
        tag = list(cell.key)
        curve = roc_curve(run.test_scores, y_test)
        for threshold, fpr, tpr in zip(curve.thresholds, curve.fpr, curve.tpr):
            roc_rows.append(tag + [_fmt(float(threshold)), _fmt(float(fpr)),
                                   _fmt(float(tpr))])
        prevalence = float(np.mean(y_test))
        if train_side:
            train_curve = roc_curve(run.train_scores, data.y_train[cell.outcome])
        for ratio in cfg.cost_ratios:
            if train_side:
                point = _train_threshold_point(train_curve, curve, ratio, prevalence)
            else:
                point = optimal_operating_point(curve, ratio, prevalence)
            op_rows.append(tag + [
                _fmt(ratio), _fmt(point.threshold), _fmt(point.tpr), _fmt(point.fpr),
                _fmt(point.lr_pos), _fmt(point.lr_neg),
                _fmt(point.p_injury_given_pos), _fmt(point.p_injury_given_neg),
                _fmt(point.expected_cost),
            ])
        groups = subgroup_auc(run.test_scores, y_test, data.new_player_test)
        for value, label in ((True, "new"), (False, "returning")):
            res = groups[value]
            group_rows.append(tag + [label, res.n, res.n_pos, res.n_neg,
                                     _fmt(res.auc) if res.auc is not None else "",
                                     res.note])
        return roc_rows, op_rows, group_rows

    done, failed = _run_cells(cfg, data, evaluate, compute_train_auc=train_side)
    outputs = [
        ("roc_points.csv", ["family", "outcome", "protocol", "threshold", "fpr", "tpr"]),
        ("operating_points.csv",
         ["family", "outcome", "protocol", "cost_ratio", "threshold", "tpr", "fpr",
          "lr_pos", "lr_neg", "p_injury_given_pos", "p_injury_given_neg",
          "expected_cost"]),
        ("subgroups.csv", ["family", "outcome", "protocol", "group", "n", "n_pos",
                           "n_neg", "auc", "note"]),
    ]
    for k, (name, header) in enumerate(outputs):
        _write_csv(manifest, name, header,
                   [row for tables in done for row in tables[k]])
    return _finish_runs(manifest, "evaluation_status.csv", ["sim"], failed)


def cmd_simulate(cfg: RunConfig, manifest: Manifest) -> int:
    data = _modeling_data(cfg)[2]
    summary = run_simulations(data, _cells(cfg), cfg.n_sims, cfg.seed,
                              settings=_settings(cfg), threads=cfg.threads)
    summary_rows, auc_rows, status_rows = [], [], []
    for cell in summary.cells:
        summary_rows.append([
            cell.family, cell.outcome, cell.protocol, summary.n_sims,
            cell.n_completed, _fmt(cell.mean_auc), _fmt(cell.sd_auc),
            csv_bool(cell.single_run),
            "complete" if cell.complete else "incomplete",
        ])
        for sim, value in enumerate(cell.aucs):
            if value is not None:
                auc_rows.append([cell.family, cell.outcome, cell.protocol,
                                 sim, _fmt(value)])
        for sim, message in sorted(cell.errors.items()):
            status_rows.append([cell.family, cell.outcome, cell.protocol,
                                sim, message])
    _write_csv(manifest, "simulation_summary.csv",
               ["family", "outcome", "protocol", "n_sims", "n_completed", "mean_auc",
                "sd_auc", "single_run", "status"], summary_rows)
    _write_csv(manifest, "simulation_aucs.csv",
               ["family", "outcome", "protocol", "sim", "auc"], auc_rows)
    return _finish_runs(manifest, "simulation_status.csv", ["sim"], status_rows)


def cmd_learning_curve(cfg: RunConfig, manifest: Manifest) -> int:
    data = _modeling_data(cfg)[2]
    points = learning_curve(
        data, cfg.lc_outcome, model_spec_for(cfg, cfg.lc_family),
        Protocol.parse(cfg.lc_protocol), cfg.lc_sizes, cfg.lc_repeats,
        cfg.seed, settings=_settings(cfg),
    )
    tag = [cfg.lc_family, cfg.lc_outcome, cfg.lc_protocol]
    rows = [
        tag + [point.size, len(point.train_aucs), _fmt(point.train_mean),
               _fmt(point.train_sd), _fmt(point.test_mean), _fmt(point.test_sd)]
        for point in points
    ]
    _write_csv(manifest, "learning_curve.csv",
               ["family", "outcome", "protocol", "size", "repeats", "train_auc_mean",
                "train_auc_sd", "test_auc_mean", "test_auc_sd"], rows)
    failed = [tag + [point.size, repeat, message]
              for point in points for repeat, message in sorted(point.errors.items())]
    return _finish_runs(manifest, "learning_curve_status.csv",
                        ["size", "repeat"], failed)


def cmd_describe(cfg: RunConfig, manifest: Manifest) -> int:
    panel, split, data = _modeling_data(cfg)
    rows = []
    for j, name in enumerate(data.feature_names):
        train_col = data.X_train[:, j]
        test_col = data.X_test[:, j]
        train_obs = train_col[~np.isnan(train_col)]
        test_obs = test_col[~np.isnan(test_col)]
        effect = ""
        if train_obs.size and test_obs.size:
            effect = _fmt(rank_biserial(train_obs, test_obs))
        rows.append([
            name,
            _fmt(float(np.median(train_obs))) if train_obs.size else "",
            _fmt(float(np.median(test_obs))) if test_obs.size else "",
            effect, train_obs.size, test_obs.size,
        ])
    _write_csv(manifest, "describe.csv",
               ["feature", "train_median", "test_median", "rank_biserial",
                "n_train_observed", "n_test_observed"], rows)

    rate_rows = []
    for key, column in panel.labels.items():
        for side, idx in (("train", split.train_idx), ("test", split.test_idx)):
            count = int(column[idx].sum())
            rate_rows.append([key, side, count, idx.size,
                              _fmt(count / idx.size) if idx.size else ""])
    _write_csv(manifest, "injury_rates.csv",
               ["outcome", "split", "count", "n_rows", "rate"], rate_rows)
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="injurylab",
        description="Training-load analytics and injury-prediction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "features": "engineer the daily feature matrix and write it as CSV",
        "synth": "generate a synthetic cohort (sessions/injuries/athletes CSVs)",
        "train": "fit every configured model cell and serialize the bundles",
        "predict": "score every panel row with a serialized model bundle",
        "evaluate": "ROC points, cost-optimal operating points, subgroup AUCs",
        "simulate": "repeat the whole pipeline n_sims times per cell",
        "learning-curve": "train/test AUC versus training-set size",
        "describe": "per-feature train/test medians and rank-biserial effects",
        "init-config": "print a template config file to stdout",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        if name == "init-config":
            continue
        cmd.add_argument("--config", required=True, help="path to the INI run config")
        cmd.add_argument("--seed", type=int, help="override [run] seed")
        cmd.add_argument("--out", help="override [run] out directory")
        if name == "simulate":
            cmd.add_argument("--sims", type=int, help="override [simulate] n_sims")
            cmd.add_argument("--threads", type=int,
                             help="override [run] threads, the pool threads that "
                                  "run the simulations, each with one BLAS thread")
        if name == "predict":
            cmd.add_argument("--model", required=True, help="serialized model bundle")
    return parser


_DISPATCH = {
    "features": cmd_features,
    "synth": cmd_synth,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "simulate": cmd_simulate,
    "learning-curve": cmd_learning_curve,
    "describe": cmd_describe,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "init-config":
        sys.stdout.write(example_config())
        return 0
    try:
        flags = {"seed": args.seed, "out": args.out,
                 "n_sims": getattr(args, "sims", None),
                 "threads": getattr(args, "threads", None)}
        cfg = dataclasses.replace(load_config(args.config), **{
            name: value for name, value in flags.items() if value is not None})
        cfg.validate()
        os.makedirs(cfg.out, exist_ok=True)
        manifest = Manifest(cfg.out, args.command, cfg, config_path=args.config)
        if args.command == "predict":
            code = cmd_predict(cfg, manifest, args.model)
        else:
            code = _DISPATCH[args.command](cfg, manifest)
        manifest.finish("ok" if code == 0 else "partial")
        return code
    except (ConfigError, ParseError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
