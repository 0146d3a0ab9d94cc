"""The benchmark's three workloads, their inputs and their correctness checks.

* ``ingest_features``: ``injurylab features`` through ``cli.main``; one op
  is one command.  Checked by the sha256 of the written features.csv.
* ``simulate_linear``: ``pipeline.run_simulations`` with ``threads=2`` on
  elastic-net (none, pca, smote) and univariate-logistic cells; one op is
  one (cell, sim) pipeline run.  Checked by each op's test AUC.
* ``simulate_nonlinear``: ``run_simulations`` with ``threads=1`` on the SVM,
  forest and two GEE cells, single candidates so there is no CV.

A run is closed-loop: rounds run back to back for about ``seconds``, and
metrics cover whole rounds only.  Every round runs the cells on every cohort
of the seed, so all rounds of a run repeat the same work.  The inputs come
from ``seed % N_VARIANTS``: each variant has the outcome of every (cohort,
cell) op recorded in reference.json at the commit that defined the
benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

N_VARIANTS = 10
#: at least the largest cohort count: each repetition sets up one cohort
SETUP_REPEATS = 3
#: a run holds at least this many rounds, so its medians cover several, and
#: a traced run has rounds with tracing off and on
MIN_ROUNDS = 3
#: an op's test AUC may differ from its recorded value by at most this much;
#: solvers that reach the same optimum by another path stay well inside it,
#: a broken model does not
AUC_TOLERANCE = 0.01
#: a cell recorded as failing may start to succeed, if it beats chance
RECOVERED_MIN_AUC = 0.5
TRAIN_SEASONS = (2014, 2015)
TEST_SEASONS = (2016,)


@dataclass(frozen=True)
class CohortSize:
    n_athletes: int
    weeks: int
    missing: float


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    threads: int
    cohorts: int           # cohorts per seed, all run in every round
    sizes: dict            # size name -> CohortSize
    speed_scaled: bool     # times in reference seconds (see speed.py)


# A round must be short enough for a run to hold MIN_ROUNDS of them.  The
# nonlinear workload takes two cohorts, because SVM fit time differs up to
# 1.5x between cohorts; the linear round on its one cohort already takes
# about 10 s on two threads.
SPECS = {
    "ingest_features": WorkloadSpec(
        "ingest_features", threads=1, cohorts=1,
        sizes={"full": CohortSize(30, 26, 0.05), "toy": CohortSize(6, 8, 0.05)},
        speed_scaled=True),
    "simulate_linear": WorkloadSpec(
        "simulate_linear", threads=2, cohorts=1,
        sizes={"full": CohortSize(30, 26, 0.02), "toy": CohortSize(12, 12, 0.02)},
        speed_scaled=False),
    "simulate_nonlinear": WorkloadSpec(
        "simulate_nonlinear", threads=1, cohorts=2,
        sizes={"full": CohortSize(12, 26, 0.02), "toy": CohortSize(12, 12, 0.02)},
        speed_scaled=False),
}


def cohort_seed(variant: int, cohort: int) -> int:
    return 7000 + N_VARIANTS * cohort + variant


def master_seed(variant: int, cohort: int) -> int:
    return 100 * cohort_seed(variant, cohort)


# ---------------------------------------------------------------------------
# Inputs


def prepare_inputs(work_dir, workload: str, size: str, variant: int,
                   regenerate: bool) -> list[tuple[str, dict]]:
    """Generate (or reuse) each cohort's CSVs; returns [(directory, meta)]."""
    spec = SPECS[workload]
    shape = spec.sizes[size]
    inputs = []
    for cohort in range(spec.cohorts):
        seed = cohort_seed(variant, cohort)
        directory = os.path.join(
            work_dir, "inputs", workload,
            f"s{seed}-a{shape.n_athletes}-w{shape.weeks}-m{shape.missing}")
        meta_path = os.path.join(directory, "meta.json")
        if regenerate or not os.path.exists(meta_path):
            subprocess.run(
                [sys.executable, os.path.join(HERE, "gen_inputs.py"), directory,
                 str(seed), str(shape.n_athletes), str(shape.weeks), str(shape.missing)],
                check=True, timeout=170, stdout=subprocess.DEVNULL)
        with open(meta_path) as fh:
            inputs.append((directory, json.load(fh)))
    return inputs


def write_features_config(directory: str, seed: int) -> str:
    path = os.path.join(directory, "features.ini")
    with open(path, "w") as fh:
        fh.write("[inputs]\nsessions = sessions.csv\ninjuries = injuries.csv\n"
                 "athletes = athletes.csv\n\n[run]\n"
                 f"seed = {seed}\nthreads = 1\n")
    return path


# ---------------------------------------------------------------------------
# Reference outcomes


def load_reference() -> dict:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def save_reference(reference: dict) -> None:
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_outcome(expected, got) -> str | None:
    """None when ``got`` (an AUC float or an error string) matches the record."""
    if expected is None:
        return "no recorded outcome"
    if isinstance(expected, str):
        if isinstance(got, str):
            if got.split(":")[0] == expected.split(":")[0]:
                return None
            return f"recorded {expected!r}, got {got!r}"
        if got > RECOVERED_MIN_AUC:
            return None
        return f"recorded a failure, now AUC {got:.6f} <= {RECOVERED_MIN_AUC}"
    if isinstance(got, str):
        return f"recorded AUC {expected:.6f}, got {got!r}"
    if abs(got - expected) > AUC_TOLERANCE:
        return f"recorded AUC {expected:.6f}, got {got:.6f}"
    return None


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Ops


@dataclass
class OpResult:
    cell: str
    cohort: str              # as "c0"
    seconds: float
    outcome: object          # AUC float, error string, or sha256
    error: str | None = None  # a correctness mismatch


class OpClock:
    """Times each ``run_pipeline_once`` call, wherever the pool runs it."""

    def __init__(self):
        self.records: list[tuple] = []
        self._lock = threading.Lock()

    def install(self):
        from injurylab import pipeline

        from tracer import rebind

        original = pipeline.run_pipeline_once

        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                spec, protocol = args[4], args[5]
                with self._lock:
                    self.records.append((f"{spec.family}/{protocol.name}",
                                         started, ended))

        rebind(original, timed)

    def take(self) -> list[tuple]:
        with self._lock:
            records, self.records = self.records, []
        return records


def linear_cells():
    from injurylab.models import ModelSpec
    from injurylab.pipeline import Cell, Protocol

    enet = ModelSpec("logistic_elastic_net",
                     grid=[{"lam": lam, "alpha": 0.5} for lam in (1e-3, 1e-2, 1e-1)],
                     folds=10)
    cells = [Cell(enet, "nc", Protocol.parse(p)) for p in ("none", "pca", "smote")]
    cells.append(Cell(ModelSpec("univariate_logistic"), "nc", Protocol()))
    return cells


def nonlinear_cells():
    from injurylab.models import ModelSpec
    from injurylab.pipeline import Cell, Protocol

    return [
        Cell(ModelSpec("svm_rbf", grid=[{"C": 1.0, "gamma": 0.01}]), "nc", Protocol()),
        Cell(ModelSpec("random_forest", grid=[{"n_trees": 50, "max_features": "sqrt",
                                               "min_leaf": 1}]), "nc", Protocol()),
        Cell(ModelSpec("gee_ar1"), "nc", Protocol()),
        Cell(ModelSpec("gee_ar1"), "nc", Protocol.parse("pca")),
    ]


def cell_key(cell) -> str:
    return f"{cell.spec.family}/{cell.protocol.name}"


class ModelWorkload:
    """``run_simulations`` rounds over a fixed cell list."""

    def __init__(self, spec: WorkloadSpec, inputs, variant: int, reference: dict):
        self.spec = spec
        self.input_dirs = [directory for directory, _ in inputs]
        self.variant = variant
        self.reference = reference.get(f"v{variant}", {})
        self.cells = (linear_cells() if spec.name == "simulate_linear"
                      else nonlinear_cells())
        # cheapest cell that still runs imputation, scaling and a model fit
        self.warmup_cell = self.cells[1] if spec.name == "simulate_linear" else self.cells[3]
        self.clock = OpClock()
        self.clock.install()
        self.data = [None] * spec.cohorts

    def build_data(self, cohort: int):
        from injurylab.domain import parse_athletes, parse_injuries, parse_sessions
        from injurylab.pipeline import modeling_data_from_records

        directory = self.input_dirs[cohort]
        sessions = parse_sessions(os.path.join(directory, "sessions.csv"))
        injuries = parse_injuries(os.path.join(directory, "injuries.csv"))
        athletes = parse_athletes(os.path.join(directory, "athletes.csv"))
        return modeling_data_from_records(
            sessions, injuries, athletes, TRAIN_SEASONS, TEST_SEASONS,
            seed=cohort_seed(self.variant, cohort))[3]

    def setup_once(self, repeat: int) -> tuple[float, list[OpResult]]:
        """Parse and build one cohort's data, then one untimed warm-up op."""
        cohort = repeat % self.spec.cohorts
        self.data[cohort] = self.build_data(cohort)
        return self.simulate(cohort, [self.warmup_cell])

    def run_round(self) -> tuple[float, list[OpResult]]:
        """Run one round; returns (wall seconds of the program calls, ops)."""
        wall, results = 0.0, []
        for cohort in range(self.spec.cohorts):
            seconds, ops = self.simulate(cohort, self.cells)
            wall += seconds
            results += ops
        return wall, results

    def simulate(self, cohort: int, cells) -> tuple[float, list[OpResult]]:
        """One ``run_simulations`` call, one sim per cell."""
        from injurylab.pipeline import run_simulations

        self.clock.take()
        started = time.perf_counter()
        summary = run_simulations(self.data[cohort], cells, 1,
                                  master_seed(self.variant, cohort),
                                  threads=self.spec.threads)
        wall = time.perf_counter() - started
        seconds = {key: end - start for key, start, end in self.clock.take()}
        results = []
        for cell, cell_summary in zip(cells, summary.cells):
            key = cell_key(cell)
            outcome = (cell_summary.aucs[0] if cell_summary.aucs[0] is not None
                       else cell_summary.errors[0])
            results.append(OpResult(key, f"c{cohort}", seconds[key], outcome))
        return wall, results

    def check(self, op: OpResult) -> None:
        op.error = check_outcome(self.reference.get(op.cohort, {}).get(op.cell),
                                 op.outcome)

    def record(self, reference: dict, op: OpResult) -> None:
        reference.setdefault(f"v{self.variant}", {}).setdefault(
            op.cohort, {})[op.cell] = op.outcome


class IngestWorkload:
    """Repeated ``injurylab features`` commands on one cohort."""

    def __init__(self, spec: WorkloadSpec, inputs, variant: int, reference: dict,
                 out_dir: str):
        self.spec = spec
        self.variant = variant
        self.reference = reference.get(f"v{variant}", {})
        self.config = write_features_config(inputs[0][0], cohort_seed(variant, 0))
        self.out_dir = out_dir

    def setup_once(self, repeat: int) -> tuple[float, list[OpResult]]:
        """One untimed warm-up command."""
        return self.run_round()

    def run_round(self) -> tuple[float, list[OpResult]]:
        from injurylab import cli

        started = time.perf_counter()
        code = cli.main(["features", "--config", self.config, "--out", self.out_dir])
        wall = time.perf_counter() - started
        if code != 0:
            outcome = f"exit code {code}"
        else:
            outcome = sha256_file(os.path.join(self.out_dir, "features.csv"))
        return wall, [OpResult("features", "c0", wall, outcome)]

    def check(self, op: OpResult) -> None:
        expected = self.reference.get("features_sha256")
        if expected is None:
            op.error = "no recorded outcome"
        elif op.outcome != expected:
            op.error = f"features.csv sha256 {op.outcome} != recorded {expected}"

    def record(self, reference: dict, op: OpResult) -> None:
        reference.setdefault(f"v{self.variant}", {})["features_sha256"] = op.outcome


def median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")
