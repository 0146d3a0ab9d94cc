"""Batch command-line front end.

Subcommands: features, synth, train, predict, evaluate, simulate,
learning-curve, describe.  Every command reads one config file, writes CSV
reports plus a plain-text manifest under the output directory, and returns a
nonzero exit code on any error (3 when some simulation cells are incomplete).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .domain import (DataError, ParseError, parse_athletes, parse_injuries,
                     parse_sessions, split_by_season)
from .metrics import (operating_metrics, optimal_operating_point, rank_biserial,
                      roc_curve, subgroup_auc)
from .models import ModelSpec, candidate_grid
from .models.base import ConvergenceError
from .pipeline import (Cell, PipelineSettings, Protocol, assemble_modeling_data,
                       features_from_records, fit_imputer, learning_curve,
                       load_bundle, run_pipeline_once, run_simulations,
                       save_bundle, stream_rng)
from .runconfig import ConfigError, RunConfig, example_config, load_config
from .synthdata import (CohortConfig, generate_cohort, null_config,
                        signal_config, write_cohort_csvs)

_FLOAT_FMT = ".6g"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:
            return "nan"
        return format(value, _FLOAT_FMT)
    return str(value)


def _fmt_exact(value) -> str:
    if value is None or (isinstance(value, float) and value != value):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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


def _load_modeling_inputs(cfg: RunConfig):
    """Parse inputs, impute raw session fields, build panel + features."""
    cfg.require_inputs()
    sessions = parse_sessions(cfg.sessions)
    injuries = parse_injuries(cfg.injuries)
    athletes = parse_athletes(cfg.athletes)
    return features_from_records(sessions, injuries, athletes, seed=cfg.seed,
                                 lag_days=cfg.lag_days, monotony_cap=cfg.monotony_cap,
                                 pmm_donors=cfg.pmm_donors)


def _split_data(cfg: RunConfig, panel, features):
    split = split_by_season(panel, cfg.train_seasons, cfg.test_seasons)
    return split, assemble_modeling_data(split, features)


def _cells(cfg: RunConfig):
    return [
        Cell(spec=model_spec_for(cfg, family), outcome=outcome,
             protocol=Protocol.parse(protocol))
        for family in cfg.families
        for outcome in cfg.outcomes
        for protocol in cfg.protocols
    ]


# ---------------------------------------------------------------------------
# Commands


def cmd_features(cfg: RunConfig, manifest: Manifest) -> int:
    panel, features = _load_modeling_inputs(cfg)
    path = os.path.join(cfg.out, "features.csv")
    header = (["athlete_id", "date", "season", "new_player"] + features.columns
              + list(panel.labels.keys()))
    rows = []
    for i in range(len(panel)):
        row = [panel.athlete_ids[i], panel.dates[i].isoformat(),
               int(panel.seasons[i]), _fmt_exact(bool(panel.new_player[i]))]
        row += [_fmt_exact(v) for v in features.values[i]]
        row += [int(panel.labels[key][i]) for key in panel.labels]
        rows.append(row)
    _write_csv(path, header, rows)
    manifest.add_output(path)
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
        overrides = {key: float(value) for key, value in cfg.synth_overrides.items()}
        cohort_cfg = CohortConfig(seed=cfg.seed, **common, **overrides)
    cohort = generate_cohort(cohort_cfg)
    paths = write_cohort_csvs(cohort, cfg.out)
    for path in paths.values():
        manifest.add_output(path)
    return 0


def cmd_train(cfg: RunConfig, manifest: Manifest) -> int:
    panel, features = _load_modeling_inputs(cfg)
    _, data = _split_data(cfg, panel, features)
    settings = _settings(cfg)
    imputer = fit_imputer(data.X_train, settings, data.feature_names)
    summary_rows = []
    for cell in _cells(cfg):
        run = run_pipeline_once(
            data.X_train, data.y_train[cell.outcome],
            data.X_test, data.y_test[cell.outcome],
            cell.spec, cell.protocol, settings, cfg.seed, sim_index=0,
            groups_train=data.groups_train, feature_names=data.feature_names,
            imputer=imputer,
        )
        name = f"model__{cell.spec.family}__{cell.outcome}__{cell.protocol.name}.json"
        path = os.path.join(cfg.out, name)
        save_bundle(path, run.bundle, run.model,
                    extra={"outcome": cell.outcome,
                           "protocol": cell.protocol.name, "seed": cfg.seed})
        manifest.add_output(path)
        summary_rows.append([
            cell.spec.family, cell.outcome, cell.protocol.name,
            json.dumps(run.model.hyperparams, sort_keys=True),
            _fmt(run.model.metadata.get("cv_mean_auc", float("nan"))),
            _fmt(run.test_auc), run.n_model_rows,
        ])
    path = os.path.join(cfg.out, "training_summary.csv")
    _write_csv(path, ["family", "outcome", "protocol", "hyperparams",
                      "cv_mean_auc", "test_auc", "n_model_rows"], summary_rows)
    manifest.add_output(path)
    return 0


def cmd_predict(cfg: RunConfig, manifest: Manifest, model_path: str) -> int:
    if not os.path.exists(model_path):
        raise ConfigError(f"model file not found: {model_path}")
    bundle, model, extra = load_bundle(model_path)
    panel, features = _load_modeling_inputs(cfg)
    rng = stream_rng(cfg.seed, 0, "impute")
    transformed = bundle.transform(features.values, rng)
    scores = model.score(transformed)
    path = os.path.join(cfg.out, "scores.csv")
    rows = [
        [panel.athlete_ids[i], panel.dates[i].isoformat(), int(panel.seasons[i]),
         _fmt_exact(float(scores[i]))]
        for i in range(len(panel))
    ]
    _write_csv(path, ["athlete_id", "date", "season", "score"], rows)
    manifest.add_output(path)
    return 0


def _train_threshold_point(train_scores, y_train, test_scores, y_test,
                           cost_ratio, prevalence):
    """Pick the threshold on training data, then measure it on the test set."""
    train_curve = roc_curve(train_scores, y_train)
    chosen = optimal_operating_point(train_curve, cost_ratio, prevalence)
    threshold = chosen.threshold
    predicted = test_scores >= threshold
    y_test = np.asarray(y_test)
    n_pos = int(np.count_nonzero(y_test == 1))
    n_neg = y_test.size - n_pos
    tpr = float(np.count_nonzero(predicted & (y_test == 1)) / n_pos)
    fpr = float(np.count_nonzero(predicted & (y_test == 0)) / n_neg)
    return operating_metrics(tpr, fpr, prevalence, cost_ratio=cost_ratio,
                             threshold=threshold)


def cmd_evaluate(cfg: RunConfig, manifest: Manifest) -> int:
    panel, features = _load_modeling_inputs(cfg)
    _, data = _split_data(cfg, panel, features)
    settings = _settings(cfg)
    imputer = fit_imputer(data.X_train, settings, data.feature_names)
    roc_rows, op_rows, group_rows = [], [], []
    for cell in _cells(cfg):
        y_test = data.y_test[cell.outcome]
        run = run_pipeline_once(
            data.X_train, data.y_train[cell.outcome], data.X_test, y_test,
            cell.spec, cell.protocol, settings, cfg.seed, sim_index=0,
            groups_train=data.groups_train, feature_names=data.feature_names,
            compute_train_auc=True, imputer=imputer,
        )
        tag = [cell.spec.family, cell.outcome, cell.protocol.name]
        curve = roc_curve(run.test_scores, y_test)
        for threshold, fpr, tpr in zip(curve.thresholds, curve.fpr, curve.tpr):
            roc_rows.append(tag + [_fmt(float(threshold)), _fmt(float(fpr)),
                                   _fmt(float(tpr))])
        prevalence = float(np.mean(y_test))
        for ratio in cfg.cost_ratios:
            if cfg.operating_point_source == "train":
                point = _train_threshold_point(run.train_scores,
                                               data.y_train[cell.outcome],
                                               run.test_scores, y_test,
                                               ratio, prevalence)
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
    outputs = [
        ("roc_points.csv", ["family", "outcome", "protocol", "threshold", "fpr", "tpr"],
         roc_rows),
        ("operating_points.csv",
         ["family", "outcome", "protocol", "cost_ratio", "threshold", "tpr", "fpr",
          "lr_pos", "lr_neg", "p_injury_given_pos", "p_injury_given_neg",
          "expected_cost"], op_rows),
        ("subgroups.csv", ["family", "outcome", "protocol", "group", "n", "n_pos",
                           "n_neg", "auc", "note"], group_rows),
    ]
    for name, header, rows in outputs:
        path = os.path.join(cfg.out, name)
        _write_csv(path, header, rows)
        manifest.add_output(path)
    return 0


def cmd_simulate(cfg: RunConfig, manifest: Manifest) -> int:
    panel, features = _load_modeling_inputs(cfg)
    _, data = _split_data(cfg, panel, features)
    summary = run_simulations(data, _cells(cfg), cfg.n_sims, cfg.seed,
                              settings=_settings(cfg), threads=cfg.threads)
    manifest.lines.append(f"blas_threads={summary.blas_threads or 'unpinned'}")
    summary_rows, auc_rows, status_rows = [], [], []
    for cell in summary.cells:
        summary_rows.append([
            cell.family, cell.outcome, cell.protocol, summary.n_sims,
            cell.n_completed, _fmt(cell.mean_auc), _fmt(cell.sd_auc),
            "true" if cell.single_run else "false",
            "complete" if cell.complete else "incomplete",
        ])
        for sim, value in enumerate(cell.aucs):
            if value is not None:
                auc_rows.append([cell.family, cell.outcome, cell.protocol,
                                 sim, _fmt(value)])
        for sim, message in sorted(cell.errors.items()):
            status_rows.append([cell.family, cell.outcome, cell.protocol,
                                sim, message])
    path = os.path.join(cfg.out, "simulation_summary.csv")
    _write_csv(path, ["family", "outcome", "protocol", "n_sims", "n_completed",
                      "mean_auc", "sd_auc", "single_run", "status"], summary_rows)
    manifest.add_output(path)
    path = os.path.join(cfg.out, "simulation_aucs.csv")
    _write_csv(path, ["family", "outcome", "protocol", "sim", "auc"], auc_rows)
    manifest.add_output(path)
    if status_rows:
        path = os.path.join(cfg.out, "simulation_status.csv")
        _write_csv(path, ["family", "outcome", "protocol", "sim", "error"], status_rows)
        manifest.add_output(path)
        return 3
    return 0


def cmd_learning_curve(cfg: RunConfig, manifest: Manifest) -> int:
    panel, features = _load_modeling_inputs(cfg)
    _, data = _split_data(cfg, panel, features)
    points = learning_curve(
        data, cfg.lc_outcome, model_spec_for(cfg, cfg.lc_family),
        Protocol.parse(cfg.lc_protocol), cfg.lc_sizes, cfg.lc_repeats,
        cfg.seed, settings=_settings(cfg),
    )
    rows = [
        [cfg.lc_family, cfg.lc_outcome, cfg.lc_protocol, point.size,
         len(point.train_aucs), _fmt(point.train_mean), _fmt(point.train_sd),
         _fmt(point.test_mean), _fmt(point.test_sd)]
        for point in points
    ]
    path = os.path.join(cfg.out, "learning_curve.csv")
    _write_csv(path, ["family", "outcome", "protocol", "size", "repeats",
                      "train_auc_mean", "train_auc_sd", "test_auc_mean",
                      "test_auc_sd"], rows)
    manifest.add_output(path)
    return 0


def cmd_describe(cfg: RunConfig, manifest: Manifest) -> int:
    panel, features = _load_modeling_inputs(cfg)
    split, data = _split_data(cfg, panel, features)
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
    path = os.path.join(cfg.out, "describe.csv")
    _write_csv(path, ["feature", "train_median", "test_median", "rank_biserial",
                      "n_train_observed", "n_test_observed"], rows)
    manifest.add_output(path)

    rate_rows = []
    for key in panel.labels:
        for side, sub in (("train", split.train), ("test", split.test)):
            labels = sub.labels[key]
            count = int(labels.sum())
            rate_rows.append([key, side, count, len(sub),
                              _fmt(count / len(sub)) if len(sub) else ""])
    path = os.path.join(cfg.out, "injury_rates.csv")
    _write_csv(path, ["outcome", "split", "count", "n_rows", "rate"], rate_rows)
    manifest.add_output(path)
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
        cmd.add_argument("--sims", type=int, help="override [simulate] n_sims")
        cmd.add_argument("--out", help="override [run] out directory")
        cmd.add_argument("--threads", type=int,
                         help="override [run] threads; simulate's pool threads "
                              "each run with one BLAS thread")
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
        flags = {"seed": args.seed, "n_sims": args.sims, "out": args.out,
                 "threads": args.threads}
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
    except (ConvergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
