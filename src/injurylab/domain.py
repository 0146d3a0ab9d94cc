"""Athlete monitoring data model.

Ingests session, injury and roster CSVs, builds the daily observation panel
(one row per athlete per training/match day), attaches binary outcome labels
and performs season-based train/test splits.

File conventions: ISO-8601 dates, empty field = missing, booleans true/false,
floats written exactly.  They hold for writing too: every CSV the package
emits goes through `write_csv`, with booleans spelled by `csv_bool`.
"""

from __future__ import annotations

import csv
import datetime as dt
import warnings
from dataclasses import dataclass, field

import numpy as np

SESSION_TYPES = ("training", "match")
CONTACT_TYPES = ("contact", "non_contact")
SEVERITIES = ("transient", "time_loss")

SESSIONS_HEADER = [
    "athlete_id", "date", "season", "session_type", "duration_min", "rpe",
    "distance_m", "msr_m", "hsr_m", "player_load", "rehab_flag",
]
INJURIES_HEADER = ["athlete_id", "date", "contact", "severity", "hamstring"]
ATHLETES_HEADER = ["athlete_id", "date_of_birth", "first_season"]

#: base outcome codes and the derived panel label columns
OUTCOMES = ("nc", "nctl", "hs")
OUTCOME_KEYS = ("nc", "nctl", "hs", "nc_lag", "nctl_lag", "hs_lag")

DAYS_PER_YEAR = 365.25
#: calendar days removed from the start of every season (window burn-in)
SEASON_BURN_IN_DAYS = 14
#: default lag window length; lag label = injury within [day, day + 4]
DEFAULT_LAG_DAYS = 4


class ParseError(ValueError):
    """Raised for malformed input rows; message names the offending line."""


class DataError(ValueError):
    """Raised when parsed inputs violate a documented precondition."""


@dataclass(frozen=True)
class SessionRecord:
    athlete_id: str
    date: dt.date
    season: int
    session_type: str
    duration_min: float
    rpe: int | None
    distance_m: float | None
    msr_m: float | None
    hsr_m: float | None
    player_load: float | None
    rehab_flag: bool

    @property
    def srpe(self) -> float | None:
        """Session rating of perceived exertion x duration, if RPE was recorded."""
        if self.rpe is None:
            return None
        return float(self.rpe) * self.duration_min


@dataclass(frozen=True)
class InjuryRecord:
    athlete_id: str
    date: dt.date
    contact: str
    severity: str
    hamstring: bool

    @property
    def non_contact(self) -> bool:
        return self.contact == "non_contact"


@dataclass(frozen=True)
class AthleteProfile:
    athlete_id: str
    date_of_birth: dt.date
    first_season: int


@dataclass
class DailyPanel:
    """One row per athlete per non-rehab training/match day, burn-in removed.

    Arrays are row-aligned and ordered canonically by (athlete_id, date).
    ``labels`` holds one binary column per entry of OUTCOME_KEYS.
    """

    athlete_ids: list[str]
    dates: list[dt.date]
    seasons: np.ndarray
    season_day: np.ndarray          # 0-based offset from the season start
    is_match: np.ndarray
    age_years: np.ndarray
    new_player: np.ndarray
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    season_starts: dict[int, dt.date] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class SplitDataset:
    """A season split of a DailyPanel as two sorted arrays of panel row
    indices; the panel stays the one record of the rows themselves."""

    train_idx: np.ndarray
    test_idx: np.ndarray


# ---------------------------------------------------------------------------
# CSV reading and writing


def csv_bool(value) -> str:
    """The file spelling of a boolean, the inverse of `_parse_bool`."""
    return "true" if value else "false"


def write_csv(path, header, rows) -> None:
    """Write a header and rows of str, int, float or None cells.

    `csv` writes None as the empty field and a float with `str()`, which
    equals `repr()`, so every float reads back to the same bits.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _open_rows(path, expected_header, kind):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParseError(f"{kind} file {path} is empty")
    header = rows[0]
    if header != expected_header:
        raise ParseError(
            f"{kind} file {path} has header {header}, expected {expected_header}"
        )
    return rows[1:]


def _parse_date(text, line, what="date"):
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise ParseError(f"malformed {what} {text!r} at line {line}") from None


def _parse_bool(text, line, what):
    low = text.strip().lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ParseError(f"malformed {what} {text!r} at line {line} (expected true/false)")


def _parse_int(text, line, what):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"malformed {what} {text!r} at line {line}") from None


def _parse_load(text, line, what):
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"malformed {what} {text!r} at line {line}") from None
    if value < 0:
        raise ParseError(f"negative {what} at line {line}")
    return value


def parse_sessions(path) -> list[SessionRecord]:
    """Parse sessions.csv into records, preserving file order."""
    records = []
    for line, row in enumerate(_open_rows(path, SESSIONS_HEADER, "sessions"), start=2):
        if len(row) != len(SESSIONS_HEADER):
            raise ParseError(f"wrong field count at line {line}")
        (athlete_id, date_s, season_s, session_type, duration_s, rpe_s,
         distance_s, msr_s, hsr_s, pl_s, rehab_s) = row
        date = _parse_date(date_s, line)
        season = _parse_int(season_s, line, "season")
        if session_type not in SESSION_TYPES:
            raise ParseError(f"unknown session_type {session_type!r} at line {line}")
        if duration_s == "":
            raise ParseError(f"missing duration_min at line {line}")
        duration = _parse_load(duration_s, line, "duration_min")
        if rpe_s == "":
            rpe = None
        else:
            rpe = _parse_int(rpe_s, line, "rpe")
            if not 0 <= rpe <= 10:
                raise ParseError(f"rpe {rpe} out of range 0-10 at line {line}")
        distance = _parse_load(distance_s, line, "distance_m")
        msr = _parse_load(msr_s, line, "msr_m")
        hsr = _parse_load(hsr_s, line, "hsr_m")
        player_load = _parse_load(pl_s, line, "player_load")
        rehab = _parse_bool(rehab_s, line, "rehab_flag")
        if date.year != season:
            raise ParseError(f"date {date} outside season year {season} at line {line}")
        if distance is not None and msr is not None and msr > distance:
            raise ParseError(f"msr_m exceeds distance_m at line {line}")
        if distance is not None and hsr is not None and hsr > distance:
            raise ParseError(f"hsr_m exceeds distance_m at line {line}")
        records.append(SessionRecord(athlete_id, date, season, session_type,
                                     duration, rpe, distance, msr, hsr,
                                     player_load, rehab))
    return records


def parse_injuries(path) -> list[InjuryRecord]:
    """Parse injuries.csv; exact duplicate rows are rejected."""
    records = []
    seen = set()
    for line, row in enumerate(_open_rows(path, INJURIES_HEADER, "injuries"), start=2):
        if len(row) != len(INJURIES_HEADER):
            raise ParseError(f"wrong field count at line {line}")
        athlete_id, date_s, contact, severity, hamstring_s = row
        date = _parse_date(date_s, line)
        if contact not in CONTACT_TYPES:
            raise ParseError(f"unknown contact type {contact!r} at line {line}")
        if severity not in SEVERITIES:
            raise ParseError(f"unknown severity {severity!r} at line {line}")
        hamstring = _parse_bool(hamstring_s, line, "hamstring")
        key = (athlete_id, date, contact, severity, hamstring)
        if key in seen:
            raise ParseError(f"duplicate injury record at line {line}")
        seen.add(key)
        records.append(InjuryRecord(athlete_id, date, contact, severity, hamstring))
    return records


def parse_athletes(path) -> list[AthleteProfile]:
    records = []
    seen = set()
    for line, row in enumerate(_open_rows(path, ATHLETES_HEADER, "athletes"), start=2):
        if len(row) != len(ATHLETES_HEADER):
            raise ParseError(f"wrong field count at line {line}")
        athlete_id, dob_s, first_season_s = row
        if athlete_id in seen:
            raise ParseError(f"duplicate athlete_id {athlete_id!r} at line {line}")
        seen.add(athlete_id)
        dob = _parse_date(dob_s, line, "date_of_birth")
        first_season = _parse_int(first_season_s, line, "first_season")
        records.append(AthleteProfile(athlete_id, dob, first_season))
    return records


# ---------------------------------------------------------------------------
# Panel construction


def infer_season_starts(sessions) -> dict[int, dt.date]:
    """Season start = earliest session date across the cohort for that season."""
    starts: dict[int, dt.date] = {}
    for s in sessions:
        if s.season not in starts or s.date < starts[s.season]:
            starts[s.season] = s.date
    return starts


def aggregate_session_days(sessions):
    """Collapse sessions to one record per (athlete, date).

    Multiple same-day sessions are treated as one daily observation: a day is
    a match day if any session was a match, and a rehab day if any session
    carried the rehab flag.
    """
    days: dict[tuple[str, dt.date], dict] = {}
    for s in sessions:
        key = (s.athlete_id, s.date)
        entry = days.setdefault(key, {"season": s.season, "match": False, "rehab": False})
        if entry["season"] != s.season:
            raise DataError(f"conflicting seasons for athlete {s.athlete_id} on {s.date}")
        entry["match"] = entry["match"] or s.session_type == "match"
        entry["rehab"] = entry["rehab"] or s.rehab_flag
    return days


def build_daily_panel(sessions, injuries, athletes,
                      lag_days: int = DEFAULT_LAG_DAYS) -> DailyPanel:
    """Build the modelling panel from parsed inputs.

    Rows are created only for session days; rehab-flagged days and the first
    SEASON_BURN_IN_DAYS days after each `infer_season_starts` start are
    excluded.  All six outcome label columns come from `label_outcomes`.
    """
    roster = {a.athlete_id: a for a in athletes}
    for s in sessions:
        if s.athlete_id not in roster:
            raise DataError(f"session athlete {s.athlete_id!r} missing from roster")
    for inj in injuries:
        if inj.athlete_id not in roster:
            raise DataError(f"injury athlete {inj.athlete_id!r} missing from roster")

    season_starts = infer_season_starts(sessions)
    day_map = aggregate_session_days(sessions)
    athlete_seasons = set()
    rows = []
    for (athlete_id, date), entry in day_map.items():
        season = entry["season"]
        athlete_seasons.add((athlete_id, season))
        profile = roster[athlete_id]
        if season < profile.first_season:
            raise DataError(
                f"athlete {athlete_id!r} appears in season {season} before "
                f"first_season {profile.first_season}"
            )
        if entry["rehab"]:
            continue
        offset = (date - season_starts[season]).days
        if offset < SEASON_BURN_IN_DAYS:
            continue
        rows.append((athlete_id, date, season, offset, entry["match"], profile))

    for inj in injuries:
        if (inj.athlete_id, inj.date.year) not in athlete_seasons:
            warnings.warn(
                f"injury for athlete {inj.athlete_id!r} on {inj.date} has no "
                "sessions that season; retained for labelling",
                stacklevel=2,
            )

    rows.sort(key=lambda r: (r[0], r[1]))
    panel = DailyPanel(
        athlete_ids=[r[0] for r in rows],
        dates=[r[1] for r in rows],
        seasons=np.array([r[2] for r in rows], dtype=int),
        season_day=np.array([r[3] for r in rows], dtype=int),
        is_match=np.array([r[4] for r in rows], dtype=bool),
        age_years=np.array(
            [(r[1] - r[5].date_of_birth).days / DAYS_PER_YEAR for r in rows]
        ),
        new_player=np.array([r[5].first_season == r[2] for r in rows], dtype=bool),
        season_starts=season_starts,
    )
    for outcome in OUTCOMES:
        panel.labels[outcome] = label_outcomes(panel, injuries, outcome, 0)
    for outcome in OUTCOMES:
        panel.labels[f"{outcome}_lag"] = label_outcomes(panel, injuries, outcome, lag_days)
    return panel


#: the non-contact injuries each base outcome counts; contact injuries count for none
_COUNTS = {"nc": lambda injury: True,
           "nctl": lambda injury: injury.severity == "time_loss",
           "hs": lambda injury: injury.hamstring}
#: (athlete, day) key = athlete rank * _KEY_STRIDE + date ordinal; ordinals
#: stay below 2**22, so a key plus a lag clipped to 2**23 keeps its athlete
_KEY_STRIDE = 1 << 24


def label_outcomes(panel: DailyPanel, injuries, outcome: str,
                   lag_days: int = 0) -> np.ndarray:
    """Binary labels: 1 iff a qualifying injury falls in [day, day + lag_days];
    injuries of athletes without panel rows label nothing."""
    if lag_days < 0:
        raise ValueError("lag_days must be >= 0")
    if outcome not in OUTCOMES:
        raise ValueError(f"unknown outcome {outcome!r}")
    rank = {athlete_id: r for r, athlete_id in enumerate(dict.fromkeys(panel.athlete_ids))}
    keys = np.array([rank[a] * _KEY_STRIDE + d.toordinal()
                     for a, d in zip(panel.athlete_ids, panel.dates)], dtype=np.int64)
    injury_keys = np.sort(np.array(
        [rank[inj.athlete_id] * _KEY_STRIDE + inj.date.toordinal() for inj in injuries
         if inj.athlete_id in rank and inj.non_contact and _COUNTS[outcome](inj)],
        dtype=np.int64))
    upper = np.searchsorted(injury_keys, keys + min(lag_days, 1 << 23), side="right")
    return (upper > np.searchsorted(injury_keys, keys)).astype(np.int8)


def split_by_season(panel: DailyPanel, train_seasons, test_seasons) -> SplitDataset:
    """Split panel rows by season into train and test row indices; rows
    whose season is in neither set are in neither array."""
    train_seasons = set(train_seasons)
    test_seasons = set(test_seasons)
    if not train_seasons or not test_seasons:
        raise DataError("train and test season sets must be nonempty")
    if train_seasons & test_seasons:
        raise DataError(f"season sets overlap: {sorted(train_seasons & test_seasons)}")
    if max(train_seasons) >= min(test_seasons):
        raise DataError("test seasons must be strictly later than train seasons")
    return SplitDataset(
        train_idx=np.flatnonzero(np.isin(panel.seasons, sorted(train_seasons))),
        test_idx=np.flatnonzero(np.isin(panel.seasons, sorted(test_seasons))),
    )
