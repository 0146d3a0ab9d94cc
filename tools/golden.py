"""Hash every output of every injurylab command on one small seeded cohort.

Run from the root of a checkout:

    python3 tools/golden.py            # compare with tools/golden.json
    python3 tools/golden.py --record   # rewrite tools/golden.json

The run synthesizes the 8-athlete cohort of tests/test_cli.py's BASE_CONFIG,
then runs features, describe, train, predict (one model per family but
gee_ar1), evaluate, simulate (--threads 1 and --threads 3), learning-curve
and init-config with five families, protocols none/pca/smote and short grids.
The cohort is separable on its 60 raw columns, so the gee_ar1 none and smote
cells end in ConvergenceError and train, evaluate and simulate exit 3.
It records the sha256 of every CSV and model JSON, and each command's exit
code; manifest.txt is left out, since it records versions and paths.

A compare prints each file whose bytes differ, is missing or is new, and
exits 1 if there is any.  It is a diff tool for changes meant to keep every
output bit: a change that means to alter outputs names the files it changed
and re-records.  A run takes about 15 s on a 2-core machine (cv_folds = 2
keeps it there), and the test suite does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RECORD = os.path.join(HERE, "golden.json")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from injurylab.cli import main  # noqa: E402

CONFIG = """\
[inputs]
sessions = data/sessions.csv
injuries = data/injuries.csv
athletes = data/athletes.csv

[split]
train_seasons = 2014
test_seasons = 2015

[outcomes]
outcomes = nc, nc_lag
lag_days = 4

[preprocess]
protocols = none, pca, smote

[models]
families = logistic_elastic_net, univariate_logistic, random_forest, svm_rbf, gee_ar1
elastic_net_lambdas = 1e-2, 1e-1, 1e-2
elastic_net_alphas = 1, 0.5
svm_cost = 0.1, 1
svm_gamma = 0.1
rf_trees = 5, 10
rf_max_features = sqrt, third
cv_folds = 2

[evaluate]
cost_ratios = 50, 100, 1000

[simulate]
n_sims = 2

[learning_curve]
sizes = 80, 160
repeats = 2
family = logistic_elastic_net
protocol = none
outcome = nc_lag

[synth]
preset = signal
n_athletes = 8
seasons = 2014, 2015
season_weeks = 12
missing_rate = 0.02

[run]
seed = 99
out = out
threads = 1
"""

#: the models that predict scores with, one per family
PREDICT_MODELS = (
    "model__logistic_elastic_net__nc__none.json",
    "model__univariate_logistic__nc_lag__pca.json",
    "model__random_forest__nc__smote.json",
    "model__svm_rbf__nc_lag__pca.json",
)


def _steps(work: str):
    """(output directory, argv) for every command, in run order."""
    config = os.path.join(work, "run.ini")

    def step(out, command, *extra):
        return out, [command, "--config", config, "--out", os.path.join(work, out), *extra]

    yield step("data", "synth")
    for command in ("features", "describe", "train", "evaluate", "learning-curve"):
        yield step(command, command)
    for model in PREDICT_MODELS:
        yield step(f"predict/{model[:-5]}", "predict",
                   "--model", os.path.join(work, "train", model))
    for threads in (1, 3):
        yield step(f"simulate_threads{threads}", "simulate", "--threads", str(threads))


def run_all(work: str) -> dict:
    """Run every command under `work`; return the record of its outputs."""
    with open(os.path.join(work, "run.ini"), "w") as fh:
        fh.write(CONFIG)
    exit_codes = {}
    for out, argv in _steps(work):
        exit_codes[out] = main(argv)
    template = io.StringIO()
    with contextlib.redirect_stdout(template):
        exit_codes["init-config"] = main(["init-config"])
    files = {"init-config/stdout.ini": hashlib.sha256(template.getvalue().encode()).hexdigest()}
    for folder, _, names in os.walk(work):
        for name in names:
            if name.endswith((".csv", ".json")):
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, work)] = hashlib.sha256(fh.read()).hexdigest()
    return {"exit_codes": exit_codes, "files": dict(sorted(files.items()))}


def differences(recorded: dict, current: dict) -> list[str]:
    """One line per exit code or file that differs between two records."""
    lines = []
    for section, label in (("exit_codes", "exit code of"), ("files", "bytes of")):
        old, new = recorded[section], current[section]
        for name in sorted(old.keys() | new.keys()):
            if name not in new:
                lines.append(f"missing: {name}")
            elif name not in old:
                lines.append(f"new: {name}")
            elif old[name] != new[name]:
                lines.append(f"differs: {label} {name}")
    return lines


def main_golden(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help=f"write the record to {os.path.relpath(RECORD)}")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        current = run_all(work)
    if args.record:
        with open(RECORD, "w") as fh:
            json.dump(current, fh, indent=1)
            fh.write("\n")
        print(f"recorded {len(current['files'])} files in {os.path.relpath(RECORD)}")
        return 0
    with open(RECORD) as fh:
        lines = differences(json.load(fh), current)
    for line in lines:
        print(line)
    if lines:
        return 1
    print(f"clean: {len(current['files'])} files and "
          f"{len(current['exit_codes'])} exit codes match")
    return 0


if __name__ == "__main__":
    sys.exit(main_golden())
