"""Daily training-load features.

For each workload variable: rolling averages and exponentially weighted
moving averages over 3/6/21 days, acute:chronic workload ratios (3 and 6 day
acute vs 21 day chronic, plain and exponentially weighted) and 7-day
monotony/strain.  Every feature on day i is computed from loads strictly
before day i, so perturbing a day's load never changes that day's features.

Each feature has one definition, a whole-season series function evaluated
for every day of an athlete-season at once; an ACWR is the ratio of two
rolling-average or two EWMA series.  Series are dense per (athlete, season)
calendar-day arrays; non-session days contribute zero load.  Accumulators
reset at season boundaries.  The panel's season starts are the one calendar:
`build_feature_matrix` lays the session loads on them itself and is the
package's one caller of `build_load_series`.  The matrix is built from one
table per athlete-season, in which each window and span is computed once and
shared by its own column and the ACWR columns.
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
# Feature series (w is the daily load array for one athlete-season)


def rolling_average_series(w, window: int) -> np.ndarray:
    """Mean load over the `window` days before each day; NaN on the first `window`."""
    w = np.asarray(w, dtype=float)
    n = w.size
    out = np.full(n, np.nan)
    if n > window:
        means = sliding_window_view(w, window).mean(axis=1)
        out[window:] = means[: n - window]
    return out


def ewma_series(w, span: int) -> np.ndarray:
    """EWMA seeded at 0: value_{i+1} = lam * w_i + (1 - lam) * value_i."""
    w = np.asarray(w, dtype=float)
    lam = ewma_lambda(span)
    out = np.empty(w.size)
    value = 0.0
    for i in range(w.size):
        out[i] = value
        value = lam * w[i] + (1.0 - lam) * value
    return out


def monotony_strain_series(w, cap: float = MONOTONY_CAP) -> tuple[np.ndarray, np.ndarray]:
    """Monotony and strain over the 7 days before each day; NaN on the first 7.

    Monotony is the week's mean / sample standard deviation: 0 for an
    all-zero week, `cap` for a week with load but (near-)zero variation.
    Strain is the week's total times its monotony.
    """
    w = np.asarray(w, dtype=float)
    n = w.size
    monotony = np.full(n, np.nan)
    strain = np.full(n, np.nan)
    if n <= MONOTONY_WINDOW:
        return monotony, strain
    weeks = sliding_window_view(w, MONOTONY_WINDOW)[: n - MONOTONY_WINDOW]
    totals = weeks.sum(axis=1)
    sds = weeks.std(axis=1, ddof=1)
    means = totals / MONOTONY_WINDOW
    with np.errstate(invalid="ignore", divide="ignore"):
        values = means / sds
    values = np.where(sds < _SD_EPS, cap, values)
    values = np.where(totals == 0.0, 0.0, values)
    monotony[MONOTONY_WINDOW:] = values
    strain[MONOTONY_WINDOW:] = totals * values
    return monotony, strain


def _ratio(acute, chronic) -> np.ndarray:
    """acute / chronic, with 0 where there is no chronic workload."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(chronic == 0.0, 0.0, acute / chronic)


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
            series[f"{variable}_monotony7"], series[f"{variable}_strain7"] = (
                monotony_strain_series(w, cap=cap))
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
