"""Run configuration: one INI-style file drives every CLI command.

Every ``RunConfig`` field but ``synth_overrides`` is one option of one INI
section, listed in ``_SECTIONS``; list values are comma-separated.  The
command-line flags ``--seed`` and ``--out`` override ``[run] seed`` and
``[run] out`` on every command; ``simulate``, the one command that reads
``[simulate] n_sims`` and ``[run] threads``, also takes ``--sims`` and
``--threads`` to override them.  See ``example_config`` for a complete
template.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field
from typing import get_args, get_origin, get_type_hints

from .domain import DEFAULT_LAG_DAYS, OUTCOME_KEYS
from .load_metrics import MONOTONY_CAP
from .models import (ALPHA_GRID, C_GRID, CV_FOLDS, FAMILIES, GAMMA_GRID, LAMBDA_GRID,
                     RF_MAX_FEATURES, RF_MIN_LEAF, RF_TREES)
from .pipeline import PROTOCOL_NAMES
from .preprocess import PCA_THRESHOLD, PMM_DONORS, SMOTE_NEIGHBORS
from .synthdata import CohortConfig


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass
class RunConfig:
    # [inputs]
    sessions: str = "sessions.csv"
    injuries: str = "injuries.csv"
    athletes: str = "athletes.csv"
    # [split]
    train_seasons: tuple[int, ...] = (2014, 2015)
    test_seasons: tuple[int, ...] = (2016,)
    # [outcomes]
    outcomes: tuple[str, ...] = OUTCOME_KEYS
    lag_days: int = DEFAULT_LAG_DAYS
    # [preprocess]
    protocols: tuple[str, ...] = ("none",)
    pca_threshold: float = PCA_THRESHOLD
    pmm_donors: int = PMM_DONORS
    smote_k: int = SMOTE_NEIGHBORS
    smote_oversample_pct: float | None = None
    monotony_cap: float = MONOTONY_CAP
    # [models]
    families: tuple[str, ...] = FAMILIES
    elastic_net_lambdas: tuple[float, ...] = LAMBDA_GRID
    elastic_net_alphas: tuple[float, ...] = ALPHA_GRID
    svm_cost: tuple[float, ...] = C_GRID
    svm_gamma: tuple[float, ...] = GAMMA_GRID
    rf_trees: tuple[int, ...] = (RF_TREES,)
    rf_max_features: tuple[str, ...] = RF_MAX_FEATURES
    rf_min_leaf: tuple[int, ...] = (RF_MIN_LEAF,)
    cv_folds: int = CV_FOLDS
    group_cv: bool = False
    # [evaluate]
    cost_ratios: tuple[float, ...] = (50.0, 100.0, 1000.0)
    operating_point_source: str = "test"
    # [simulate]
    n_sims: int = 50
    # [learning_curve]
    lc_sizes: tuple[int, ...] = (460, 1000, 2000, 4000)
    lc_repeats: int = 5
    lc_family: str = "logistic_elastic_net"
    lc_protocol: str = "none"
    lc_outcome: str = "hs_lag"
    # [synth]
    synth_preset: str = "signal"          # signal | null | custom
    synth_n_athletes: int = 30
    synth_seasons: tuple[int, ...] = (2014, 2015, 2016)
    synth_season_weeks: int = 26
    synth_missing_rate: float = 0.02
    synth_overrides: dict = field(default_factory=dict)
    # [run]
    seed: int = 20140301
    out: str = "out"
    threads: int = 1

    def validate(self) -> None:
        if set(self.train_seasons) & set(self.test_seasons):
            raise ConfigError("train and test season sets overlap")
        if not self.train_seasons or not self.test_seasons:
            raise ConfigError("train and test season sets must be nonempty")
        for name, low in (("n_sims", 1), ("threads", 1), ("lag_days", 0),
                          ("pmm_donors", 1), ("smote_k", 1), ("cv_folds", 2)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}")
        if self.smote_oversample_pct is not None and self.smote_oversample_pct < 0:
            raise ConfigError("smote_oversample_pct must be >= 0")
        for name, rule, ok in (("cost_ratios", "> 0", lambda v: v > 0),
                               ("svm_cost", "> 0", lambda v: v > 0),
                               ("svm_gamma", "> 0", lambda v: v > 0),
                               ("elastic_net_lambdas", ">= 0", lambda v: v >= 0),
                               ("elastic_net_alphas", "in [0, 1]", lambda v: 0 <= v <= 1),
                               ("rf_trees", ">= 1", lambda v: v >= 1),
                               ("rf_max_features", "sqrt, third or an integer >= 1",
                                lambda v: v in ("sqrt", "third")
                                or (str(v).isdecimal() and int(v) >= 1)),
                               ("rf_min_leaf", ">= 1", lambda v: v >= 1)):
            values = getattr(self, name)
            if not values or not all(ok(value) for value in values):
                raise ConfigError(f"{name} must be nonempty and all {rule}")
        if not self.lc_sizes or min(self.lc_sizes) < 10:
            raise ConfigError("[learning_curve] sizes must be nonempty and each >= 10")
        if self.lc_repeats < 1:
            raise ConfigError("[learning_curve] repeats must be >= 1")
        for name, noun, allowed in (("outcomes", "outcome", OUTCOME_KEYS),
                                    ("protocols", "protocol", PROTOCOL_NAMES),
                                    ("families", "model family", FAMILIES)):
            if not getattr(self, name):
                raise ConfigError(f"{name} must be nonempty")
            for value in getattr(self, name):
                if value not in allowed:
                    raise ConfigError(f"unknown {noun} {value!r} (expected {allowed})")
        for noun, value, allowed in (("family", self.lc_family, FAMILIES),
                                     ("protocol", self.lc_protocol, PROTOCOL_NAMES),
                                     ("outcome", self.lc_outcome, OUTCOME_KEYS)):
            if value not in allowed:
                raise ConfigError(f"unknown learning-curve {noun} {value!r}")
        if self.operating_point_source not in ("test", "train"):
            raise ConfigError("operating_point_source must be 'test' or 'train'")
        if not 0.0 < self.pca_threshold <= 1.0:
            raise ConfigError("pca_threshold must be in (0, 1]")
        if self.synth_preset not in ("signal", "null", "custom"):
            raise ConfigError("synth_preset must be signal, null or custom")
        self.cohort_overrides()

    def cohort_overrides(self) -> dict:
        """``synth_overrides`` cast to the types of the `CohortConfig` fields
        they set; only ``preset = custom`` takes any."""
        overrides = {}
        for key, raw in self.synth_overrides.items():
            if self.synth_preset != "custom" or key not in _COHORT_CASTS:
                raise ConfigError(f"[synth] {key} is not an option of preset = "
                                  f"{self.synth_preset}")
            try:
                overrides[key] = _COHORT_CASTS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [synth] {key}: {raw!r} ({exc})") from None
        return overrides

    def require_inputs(self) -> None:
        for path in (self.sessions, self.injuries, self.athletes):
            if not os.path.exists(path):
                raise ConfigError(f"input file not found: {path}")


#: Every INI section, in template order, with its fields in option order.  A
#: field's option is its name less the section's prefix in ``_PREFIXES``.
_SECTIONS = {
    "inputs": ("sessions", "injuries", "athletes"),
    "split": ("train_seasons", "test_seasons"),
    "outcomes": ("outcomes", "lag_days"),
    "preprocess": ("protocols", "pca_threshold", "pmm_donors", "smote_k",
                   "smote_oversample_pct", "monotony_cap"),
    "models": ("families", "elastic_net_lambdas", "elastic_net_alphas", "svm_cost",
               "svm_gamma", "rf_trees", "rf_max_features", "rf_min_leaf", "cv_folds",
               "group_cv"),
    "evaluate": ("cost_ratios", "operating_point_source"),
    "simulate": ("n_sims",),
    "learning_curve": ("lc_sizes", "lc_repeats", "lc_family", "lc_protocol", "lc_outcome"),
    "synth": ("synth_preset", "synth_n_athletes", "synth_seasons", "synth_season_weeks",
              "synth_missing_rate"),
    "run": ("seed", "out", "threads"),
}
_PREFIXES = {"learning_curve": "lc_", "synth": "synth_"}
#: relative paths in a config file are relative to the file's directory
_PATHS = ("sessions", "injuries", "athletes", "out")


def _option(section: str, name: str) -> str:
    return name.removeprefix(_PREFIXES.get(section, ""))


def _split_list(raw: str) -> list[str]:
    return [token.strip() for token in raw.split(",") if token.strip()]


def _bool(raw):
    token = raw.strip().lower()
    if token in ("true", "yes", "1", "on"):
        return True
    if token in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _opt_float(raw):
    token = raw.strip().lower()
    return None if token in ("", "none", "auto") else float(token)


def _caster(hint):
    """The parser of one INI value into a field annotated ``hint``."""
    if hint is bool:
        return _bool
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return lambda raw: tuple(item(token) for token in _split_list(raw))
    if type(None) in get_args(hint):
        return _opt_float
    return hint


_CASTS = {name: _caster(hint) for name, hint in get_type_hints(RunConfig).items()}
#: casts of the CohortConfig fields that a ``[synth]`` override may set: all
#: but the seed and those the synth_ fields set
_COHORT_CASTS = {name: _caster(hint) for name, hint in get_type_hints(CohortConfig).items()
                 if f"synth_{name}" not in _SECTIONS["synth"] and name != "seed"}


def _format(value) -> str:
    """An INI value that ``_CASTS`` reads back as ``value``."""
    if isinstance(value, tuple):
        return ", ".join(_format(item) for item in value)
    if isinstance(value, bool):
        return str(value).lower()
    return "none" if value is None else str(value)


def load_config(path: str) -> RunConfig:
    """Read an INI config; unspecified options keep their defaults."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None

    values = {}
    for section, names in _SECTIONS.items():
        for name in names:
            option = _option(section, name)
            if not parser.has_option(section, option):
                continue
            raw = parser.get(section, option)
            try:
                values[name] = _CASTS[name](raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"bad value for [{section}] {option}: {raw!r} ({exc})") from None
    # free-form hazard overrides for synth_preset = custom
    if parser.has_section("synth"):
        known = {_option("synth", name) for name in _SECTIONS["synth"]}
        values["synth_overrides"] = {option: parser.get("synth", option)
                                     for option in parser.options("synth")
                                     if option not in known}
    base = os.path.dirname(os.path.abspath(path))
    for name in _PATHS:
        p = values.get(name, getattr(RunConfig, name))
        values[name] = p if os.path.isabs(p) else os.path.normpath(os.path.join(base, p))
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def example_config() -> str:
    """Template config covering every section, with the default values."""
    cfg = RunConfig()
    blocks = []
    for section, names in _SECTIONS.items():
        lines = [f"[{section}]"]
        lines += [f"{_option(section, name)} = {_format(getattr(cfg, name))}" for name in names]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
