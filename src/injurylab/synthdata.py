"""Synthetic multi-season cohorts with a planted load-injury mechanism.

Each athlete follows a weekly schedule (4 training days + 1 match).  Daily
loads are log-normal with occasional acute overload weeks; the per-day injury
hazard is a logistic function of the day's acute:chronic workload ratio
excess above 1, the standardized chronic load and the athlete's age.  The
ACWR and chronic load are the same window means over the same days as the
hazard variable's ACWR and 21-day rolling-average feature columns, so the
planted mechanism is exactly recoverable from the emitted CSV files;
tests/test_synthdata.py::TestSelfConsistency checks this to the bit.
"""

from __future__ import annotations

import datetime as dt
import math
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .domain import (ATHLETES_HEADER, INJURIES_HEADER, SESSIONS_HEADER,
                     AthleteProfile, InjuryRecord, SessionRecord, csv_bool,
                     write_csv)
from .load_metrics import CHRONIC_WINDOW

TRAINING_OFFSETS = (0, 1, 3, 4)   # weekly pattern, day 5 is the match
MATCH_OFFSET = 5


@dataclass(frozen=True)
class CohortConfig:
    n_athletes: int = 30
    seasons: tuple[int, ...] = (2014, 2015, 2016)
    season_start_month: int = 3
    season_start_day: int = 1
    season_weeks: int = 26
    off_week_prob: float = 0.05          # never applied to week 0
    newcomer_fraction: float = 0.2       # athletes first appearing after season 1

    # daily load model (distance in meters; other variables derived)
    distance_median: float = 7500.0
    distance_sigma: float = 0.22
    msr_fraction: float = 0.09
    hsr_fraction: float = 0.035
    fraction_sigma: float = 0.25
    duration_mean: float = 75.0
    duration_sd: float = 12.0
    player_load_per_m: float = 0.05
    match_multiplier: float = 1.35
    spike_week_prob: float = 0.12
    spike_multiplier: float = 1.9

    # planted hazard: sigma(b0 + b1*max(acwr-1,0) + b2*z(chronic) + b3*z(age))
    hazard_variable: str = "distance"
    acute_window: int = 3
    beta0: float = -4.4
    beta1: float = 2.6
    beta2: float = 0.5
    beta3: float = 0.25
    chronic_center: float = 5000.0
    chronic_scale: float = 1500.0
    age_center: float = 26.0
    age_scale: float = 4.0

    # injury taxonomy and follow-up
    time_loss_fraction: float = 0.5
    hamstring_fraction: float = 0.12
    contact_rate: float = 0.002
    rehab_sessions: int = 6
    rehab_load_factor: float = 0.5

    missing_rate: float = 0.0
    seed: int = 1

    def __post_init__(self):
        if self.n_athletes < 2:
            raise ValueError("n_athletes must be >= 2")
        if not self.seasons:
            raise ValueError("seasons must be nonempty")
        for name in ("off_week_prob", "spike_week_prob", "time_loss_fraction",
                     "hamstring_fraction", "contact_rate", "missing_rate",
                     "newcomer_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")


def signal_config(seed: int = 1, **overrides) -> CohortConfig:
    """Cohort with a strong planted load-injury signal (~2-3% injury rate).

    The hazard spreads over the workload-ratio hinge, the chronic load and
    age, which a linear model captures well while small-sample tree models
    overfit - the regimes the evaluation suite needs to reproduce.
    """
    return CohortConfig(seed=seed, beta0=-6.55, beta1=3.0, beta2=1.0, beta3=0.5,
                        spike_week_prob=0.20, spike_multiplier=2.4,
                        distance_sigma=0.32, **overrides)


def null_config(seed: int = 1, **overrides) -> CohortConfig:
    """Matched cohort whose injuries carry no load signal (~1% injury rate)."""
    return replace(signal_config(seed=seed, **overrides),
                   beta0=-4.6, beta1=0.0, beta2=0.0, beta3=0.0)


@dataclass
class TruthRow:
    """Generator-internal hazard inputs for one session day."""

    athlete_id: str
    date: dt.date
    season: int
    day_index: int
    acwr_value: float
    chronic_load: float
    age_z: float
    hazard: float
    injured: bool


@dataclass
class GeneratedCohort:
    sessions: list[SessionRecord]
    injuries: list[InjuryRecord]
    athletes: list[AthleteProfile]
    truth: list[TruthRow]
    config: CohortConfig


def _season_start(config: CohortConfig, season: int) -> dt.date:
    return dt.date(season, config.season_start_month, config.season_start_day)


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z))


def _draw_rpe(rng, distance_ratio: float, is_match: bool) -> int:
    center = 4.5 * distance_ratio + (1.5 if is_match else 0.0)
    return int(np.clip(round(center + rng.normal(0.0, 0.9)), 0, 10))


def generate_cohort(config: CohortConfig) -> GeneratedCohort:
    """Generate (sessions, injuries, athletes) plus the hazard ground truth.

    Per-athlete RNG substreams make output independent of generation order;
    the same config and seed reproduce identical records.
    """
    root = np.random.SeedSequence(config.seed)
    streams = [np.random.default_rng(s) for s in root.spawn(config.n_athletes)]
    first_season = min(config.seasons)
    later_seasons = [s for s in sorted(config.seasons) if s != first_season]

    sessions: list[SessionRecord] = []
    injuries: list[InjuryRecord] = []
    athletes: list[AthleteProfile] = []
    truth: list[TruthRow] = []

    for a in range(config.n_athletes):
        rng = streams[a]
        athlete_id = f"A{a + 1:03d}"
        if later_seasons and rng.random() < config.newcomer_fraction:
            start_season = later_seasons[int(rng.integers(len(later_seasons)))]
        else:
            start_season = first_season
        age_at_start = rng.uniform(18.0, 33.0)
        dob = _season_start(config, start_season) - dt.timedelta(
            days=round(age_at_start * 365.25))
        athletes.append(AthleteProfile(athlete_id, dob, start_season))

        for season in sorted(config.seasons):
            if season < start_season:
                continue
            _generate_athlete_season(config, rng, athlete_id, dob, season,
                                     sessions, injuries, truth)

    total_days = len(truth)
    if total_days:
        rate = sum(1 for t in truth if t.injured) / total_days
        if rate > 0.5:
            warnings.warn(f"hazard parameters give injury rate {rate:.2f} > 0.5 "
                          "(unrealistic regime)", stacklevel=2)
    return GeneratedCohort(sessions, injuries, athletes, truth, config)


def _generate_athlete_season(config, rng, athlete_id, dob, season,
                             sessions, injuries, truth):
    start = _season_start(config, season)
    n_days = 7 * config.season_weeks
    series = np.zeros(n_days)          # hazard-variable daily loads
    rehab_left = 0

    week_off = np.zeros(config.season_weeks, dtype=bool)
    week_spike = np.zeros(config.season_weeks, dtype=bool)
    for week in range(config.season_weeks):
        # the first week always trains so the cohort season start is anchored
        week_off[week] = week > 0 and rng.random() < config.off_week_prob
        week_spike[week] = rng.random() < config.spike_week_prob

    for week in range(config.season_weeks):
        if week_off[week]:
            continue
        for offset in TRAINING_OFFSETS + (MATCH_OFFSET,):
            day = 7 * week + offset
            date = start + dt.timedelta(days=day)
            is_match = offset == MATCH_OFFSET
            in_rehab = rehab_left > 0

            distance = config.distance_median * rng.lognormal(0.0, config.distance_sigma)
            if is_match:
                distance *= config.match_multiplier
            if week_spike[week]:
                distance *= config.spike_multiplier
            if in_rehab:
                distance *= config.rehab_load_factor
            msr = distance * min(config.msr_fraction
                                 * rng.lognormal(0.0, config.fraction_sigma), 0.6)
            hsr = distance * min(config.hsr_fraction
                                 * rng.lognormal(0.0, config.fraction_sigma), 0.3)
            duration = float(np.clip(rng.normal(config.duration_mean, config.duration_sd),
                                     40.0, 140.0))
            rpe = _draw_rpe(rng, distance / config.distance_median, is_match)
            player_load = distance * config.player_load_per_m * rng.lognormal(0.0, 0.1)

            # hazard uses history strictly before today, so fill the series
            # after evaluating the day's risk
            age_years = (date - dob).days / 365.25
            age_z = (age_years - config.age_center) / config.age_scale
            acwr_value = chronic = math.nan
            if day >= CHRONIC_WINDOW:
                chronic = float(np.mean(series[day - CHRONIC_WINDOW:day]))
                acwr_value = (0.0 if chronic == 0.0 else
                              float(np.mean(series[day - config.acute_window:day])) / chronic)
            excess = max(acwr_value - 1.0, 0.0) if not math.isnan(acwr_value) else 0.0
            chronic_z = ((chronic - config.chronic_center) / config.chronic_scale
                         if not math.isnan(chronic) else 0.0)
            hazard = _sigmoid(config.beta0 + config.beta1 * excess
                              + config.beta2 * chronic_z + config.beta3 * age_z)

            injured = False
            if not in_rehab and rng.random() < hazard:
                injured = True
                severity = ("time_loss" if rng.random() < config.time_loss_fraction
                            else "transient")
                hamstring = rng.random() < config.hamstring_fraction
                injuries.append(InjuryRecord(athlete_id, date, "non_contact",
                                             severity, hamstring))
                if severity == "time_loss":
                    rehab_left = config.rehab_sessions  # flags the next sessions
            if rng.random() < config.contact_rate:
                injuries.append(InjuryRecord(athlete_id, date, "contact",
                                             "time_loss" if rng.random() < 0.5
                                             else "transient", False))

            series[day] = distance
            sessions.append(_knockout(config, rng, SessionRecord(
                athlete_id=athlete_id,
                date=date,
                season=season,
                session_type="match" if is_match else "training",
                duration_min=round(duration, 1),
                rpe=rpe,
                distance_m=distance,
                msr_m=msr,
                hsr_m=hsr,
                player_load=player_load,
                rehab_flag=in_rehab,
            )))
            truth.append(TruthRow(athlete_id, date, season, day, acwr_value,
                                  chronic, age_z, hazard, injured))
            if in_rehab:
                rehab_left -= 1


def _knockout(config, rng, session: SessionRecord) -> SessionRecord:
    """Independently blank optional fields at the configured missingness rate."""
    if config.missing_rate <= 0.0:
        return session
    fields = {}
    for name in ("rpe", "distance_m", "msr_m", "hsr_m", "player_load"):
        if rng.random() < config.missing_rate:
            fields[name] = None
    return replace(session, **fields) if fields else session


# ---------------------------------------------------------------------------
# CSV emission: exactly the schemas the ingest side consumes, written through
# `domain.write_csv` in the conventions its parsers read


def write_cohort_csvs(cohort: GeneratedCohort, out_dir) -> dict:
    """Write sessions/injuries/athletes CSVs; returns the file paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, f"{name}.csv")
             for name in ("sessions", "injuries", "athletes")}
    write_csv(paths["sessions"], SESSIONS_HEADER, [
        [s.athlete_id, s.date.isoformat(), s.season, s.session_type,
         s.duration_min, s.rpe, s.distance_m, s.msr_m, s.hsr_m, s.player_load,
         csv_bool(s.rehab_flag)]
        for s in cohort.sessions
    ])
    write_csv(paths["injuries"], INJURIES_HEADER, [
        [inj.athlete_id, inj.date.isoformat(), inj.contact, inj.severity,
         csv_bool(inj.hamstring)]
        for inj in cohort.injuries
    ])
    write_csv(paths["athletes"], ATHLETES_HEADER, [
        [athlete.athlete_id, athlete.date_of_birth.isoformat(),
         athlete.first_season]
        for athlete in cohort.athletes
    ])
    return paths
