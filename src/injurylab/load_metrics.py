"""Daily training-load features.

For each workload variable: rolling averages and exponentially weighted
moving averages over 3/6/21 days, acute:chronic workload ratios (3 and 6 day
acute vs 21 day chronic, plain and exponentially weighted) and 7-day
monotony/strain.  Every feature on day i is computed from loads strictly
before day i, so perturbing a day's load never changes that day's features.

Series are dense per (athlete, season) calendar-day arrays; non-session days
contribute zero load.  Accumulators reset at season boundaries.  The panel's
season starts are the one calendar: `build_feature_matrix` lays the session
loads on them itself and is the package's one caller of `build_load_series`.
The matrix is built from one table per athlete-season, in which each EWMA
span is computed once and shared by its EWMA and EW-ACWR columns.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import DailyPanel

VARIABLES = ("distance", "msr", "hsr", "srpe", "player_load")
#: monotony/strain are undefined for high speed running (weekly loads often zero)
MONOTONY_VARIABLES = ("distance", "msr", "srpe", "player_load")

RA_WINDOWS = (3, 6, 21)
EWMA_SPANS = (3, 6, 21)
ACUTE_WINDOWS = (3, 6)
CHRONIC_WINDOW = 21
MONOTONY_WINDOW = 7
#: monotony value when the week has load but (near-)zero daily variation
MONOTONY_CAP = 10.0
_SD_EPS = 1e-12
#: the last feature columns, read from the panel rather than the load series
_PANEL_COLUMNS = ("age_years", "is_match")


def ewma_lambda(span: int) -> float:
    """Decay weight for a given span: 2 / (span + 1)."""
    return 2.0 / (span + 1.0)


# ---------------------------------------------------------------------------
# Per-day scalar features (w is the daily load array for one athlete-season)


def rolling_average(w, i: int, window: int) -> float:
    """Mean load over the `window` days strictly before day i; nan if i < window."""
    w = np.asarray(w, dtype=float)
    if i < window:
        return float("nan")
    return float(np.mean(w[i - window:i]))


def ewma(w, i: int, span: int) -> float:
    """Exponentially weighted moving average at day i, seeded at 0.

    Recurrence value_{j+1} = lam * w_j + (1 - lam) * value_j, evaluated from
    the season start; the result depends only on loads before day i.
    """
    w = np.asarray(w, dtype=float)
    lam = ewma_lambda(span)
    value = 0.0
    for j in range(i):
        value = lam * w[j] + (1.0 - lam) * value
    return value


def monotony7(w, i: int, cap: float = MONOTONY_CAP, variable: str | None = None) -> float:
    """Mean / sample standard deviation of the previous 7 daily loads.

    All-zero week -> 0; zero-variance week with load -> `cap`.
    """
    if variable == "hsr":
        raise ValueError("monotony is not defined for hsr")
    w = np.asarray(w, dtype=float)
    if i < MONOTONY_WINDOW:
        return float("nan")
    week = w[i - MONOTONY_WINDOW:i]
    total = float(np.sum(week))
    if np.isnan(total):
        return float("nan")
    if total == 0.0:
        return 0.0
    sd = float(np.std(week, ddof=1))
    if sd < _SD_EPS:
        return cap
    return float(np.mean(week)) / sd


def strain7(w, i: int, cap: float = MONOTONY_CAP, variable: str | None = None) -> float:
    """Sum of the previous 7 daily loads times the monotony over the same week."""
    if variable == "hsr":
        raise ValueError("strain is not defined for hsr")
    w = np.asarray(w, dtype=float)
    if i < MONOTONY_WINDOW:
        return float("nan")
    total = float(np.sum(w[i - MONOTONY_WINDOW:i]))
    if np.isnan(total):
        return float("nan")
    if total == 0.0:
        return 0.0
    return total * monotony7(w, i, cap=cap)


def acwr(w, i: int, acute: int = 3, chronic: int = CHRONIC_WINDOW) -> float:
    """Acute:chronic workload ratio; 0 when there is no chronic workload."""
    w = np.asarray(w, dtype=float)
    if i < chronic:
        return float("nan")
    chronic_mean = float(np.mean(w[i - chronic:i]))
    if np.isnan(chronic_mean):
        return float("nan")
    if chronic_mean == 0.0:
        return 0.0
    return float(np.mean(w[i - acute:i])) / chronic_mean


def ew_acwr(w, i: int, span_acute: int = 3, span_chronic: int = CHRONIC_WINDOW) -> float:
    """ACWR with the rolling averages replaced by EWMAs; 0 when the chronic EWMA is 0."""
    chronic_value = ewma(w, i, span_chronic)
    if np.isnan(chronic_value):
        return float("nan")
    if chronic_value == 0.0:
        return 0.0
    return ewma(w, i, span_acute) / chronic_value


# ---------------------------------------------------------------------------
# Whole-series versions (value for every day of the season at once)


def rolling_average_series(w, window: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    n = w.size
    out = np.full(n, np.nan)
    if n > window:
        means = sliding_window_view(w, window).mean(axis=1)
        out[window:] = means[: n - window]
    return out


def ewma_series(w, span: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    lam = ewma_lambda(span)
    out = np.empty(w.size)
    value = 0.0
    for i in range(w.size):
        out[i] = value
        value = lam * w[i] + (1.0 - lam) * value
    return out


def monotony7_series(w, cap: float = MONOTONY_CAP) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    n = w.size
    out = np.full(n, np.nan)
    if n <= MONOTONY_WINDOW:
        return out
    weeks = sliding_window_view(w, MONOTONY_WINDOW)[: n - MONOTONY_WINDOW]
    totals = weeks.sum(axis=1)
    sds = weeks.std(axis=1, ddof=1)
    means = totals / MONOTONY_WINDOW
    with np.errstate(invalid="ignore", divide="ignore"):
        values = means / sds
    values = np.where(sds < _SD_EPS, cap, values)
    values = np.where(totals == 0.0, 0.0, values)
    out[MONOTONY_WINDOW:] = values
    return out


def strain7_series(w, cap: float = MONOTONY_CAP) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    n = w.size
    out = np.full(n, np.nan)
    if n <= MONOTONY_WINDOW:
        return out
    totals = sliding_window_view(w, MONOTONY_WINDOW)[: n - MONOTONY_WINDOW].sum(axis=1)
    out[MONOTONY_WINDOW:] = totals * monotony7_series(w, cap=cap)[MONOTONY_WINDOW:]
    return out


def _ratio(acute, chronic) -> np.ndarray:
    """acute / chronic, with 0 where there is no chronic workload."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(chronic == 0.0, 0.0, acute / chronic)


def acwr_series(w, acute: int, chronic: int = CHRONIC_WINDOW) -> np.ndarray:
    return _ratio(rolling_average_series(w, acute), rolling_average_series(w, chronic))


def ew_acwr_series(w, span_acute: int, span_chronic: int = CHRONIC_WINDOW) -> np.ndarray:
    return _ratio(ewma_series(w, span_acute), ewma_series(w, span_chronic))


# ---------------------------------------------------------------------------
# Load series construction


#: the SessionRecord attribute that holds each variable's session load
_SESSION_ATTRIBUTES = {"distance": "distance_m", "msr": "msr_m", "hsr": "hsr_m",
                       "srpe": "srpe", "player_load": "player_load"}


def build_load_series(sessions, season_starts: dict[int, dt.date]) -> dict:
    """Daily load arrays, ``{(athlete_id, season): {variable: array}}``.

    Day 0 of each array is the season start in ``season_starts``; an array
    runs to the season's last session day, and non-session days hold 0.
    Requires complete load values (impute missing session fields first, see
    preprocess.impute_session_values); a missing value propagates NaN into
    every window that touches its day.
    """
    season_ends: dict[int, dt.date] = {}
    for s in sessions:
        if s.season not in season_ends or s.date > season_ends[s.season]:
            season_ends[s.season] = s.date
    season_lengths = {
        season: (season_ends[season] - season_starts[season]).days + 1
        for season in season_ends
    }
    arrays: dict[tuple[str, int], dict[str, np.ndarray]] = {}
    for s in sessions:
        key = (s.athlete_id, s.season)
        if key not in arrays:
            n = season_lengths[s.season]
            arrays[key] = {v: np.zeros(n) for v in VARIABLES}
        offset = (s.date - season_starts[s.season]).days
        if offset < 0:
            raise ValueError(f"session on {s.date} precedes season start")
        for variable, attribute in _SESSION_ATTRIBUTES.items():
            value = getattr(s, attribute)
            arrays[key][variable][offset] += np.nan if value is None else value
    return arrays


# ---------------------------------------------------------------------------
# Feature matrix


@dataclass
class FeatureMatrix:
    """Named feature columns row-aligned with a DailyPanel.

    NaN entries mark features that could not be computed (insufficient
    history at the start of a season) and are left for imputation.
    """

    columns: list[str]
    values: np.ndarray

    def __len__(self) -> int:
        return self.values.shape[0]

    def column_index(self, name: str) -> int:
        return self.columns.index(name)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]


def feature_columns() -> list[str]:
    """Stable column layout: 10 per variable + monotony/strain + age/session."""
    cols = []
    for variable in VARIABLES:
        for window in RA_WINDOWS:
            cols.append(f"{variable}_ra{window}")
        for span in EWMA_SPANS:
            cols.append(f"{variable}_ewma{span}")
        for acute in ACUTE_WINDOWS:
            cols.append(f"{variable}_acwr{acute}_{CHRONIC_WINDOW}")
        for span in ACUTE_WINDOWS:
            cols.append(f"{variable}_ewacwr{span}_{CHRONIC_WINDOW}")
    for variable in MONOTONY_VARIABLES:
        cols.append(f"{variable}_monotony7")
        cols.append(f"{variable}_strain7")
    return cols + list(_PANEL_COLUMNS)


def _load_table(loads: dict[str, np.ndarray], cap: float) -> np.ndarray:
    """One athlete-season's load features, one row per season day, with the
    columns of feature_columns() before age_years and is_match."""
    series: dict[str, np.ndarray] = {}
    for variable, w in loads.items():
        ra = {window: rolling_average_series(w, window) for window in RA_WINDOWS}
        ew = {span: ewma_series(w, span) for span in EWMA_SPANS}
        for window in RA_WINDOWS:
            series[f"{variable}_ra{window}"] = ra[window]
        for span in EWMA_SPANS:
            series[f"{variable}_ewma{span}"] = ew[span]
        for acute in ACUTE_WINDOWS:
            suffix = f"{acute}_{CHRONIC_WINDOW}"
            series[f"{variable}_acwr{suffix}"] = _ratio(ra[acute], ra[CHRONIC_WINDOW])
            series[f"{variable}_ewacwr{suffix}"] = _ratio(ew[acute], ew[CHRONIC_WINDOW])
        if variable in MONOTONY_VARIABLES:
            series[f"{variable}_monotony7"] = monotony7_series(w, cap=cap)
            series[f"{variable}_strain7"] = strain7_series(w, cap=cap)
    return np.column_stack([series[name] for name in feature_columns()[:-len(_PANEL_COLUMNS)]])


def build_feature_matrix(panel: DailyPanel, sessions,
                         monotony_cap: float = MONOTONY_CAP) -> FeatureMatrix:
    """Compute the full feature matrix for every panel row.

    ``sessions`` are the complete session records the panel was built from;
    their load series are laid on the panel's own calendar,
    ``build_load_series(sessions, panel.season_starts)``.  Panel rows are
    grouped by athlete-season.  Each athlete-season's table is built once,
    with each EWMA span computed once, and the group's rows are read from it
    at their season days; the table is dropped before the next group's is
    built.
    """
    series = build_load_series(sessions, panel.season_starts)
    columns = feature_columns()
    n_load = len(columns) - len(_PANEL_COLUMNS)
    values = np.empty((len(panel), len(columns)))
    rows_of: dict[tuple[str, int], list[int]] = {}
    for i, key in enumerate(zip(panel.athlete_ids, panel.seasons.tolist())):
        rows_of.setdefault(key, []).append(i)
    for key, rows in rows_of.items():
        table = _load_table(series[key], monotony_cap)
        values[rows, :n_load] = table[panel.season_day[rows]]
    values[:, n_load:] = np.column_stack([panel.age_years, panel.is_match.astype(float)])
    return FeatureMatrix(columns, values)
