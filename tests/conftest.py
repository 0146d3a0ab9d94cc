import datetime as dt

import numpy as np
import pytest

from injurylab import load_metrics as lm
from injurylab.domain import (AthleteProfile, InjuryRecord, SessionRecord,
                              build_daily_panel)


def make_session(athlete_id="A01", date=dt.date(2014, 3, 20), season=2014,
                 session_type="training", duration_min=60.0, rpe=6,
                 distance_m=8000.0, msr_m=600.0, hsr_m=120.0,
                 player_load=400.0, rehab_flag=False):
    return SessionRecord(athlete_id, date, season, session_type, duration_min,
                         rpe, distance_m, msr_m, hsr_m, player_load, rehab_flag)


def make_injury(athlete_id="A01", date=dt.date(2014, 5, 2),
                contact="non_contact", severity="time_loss", hamstring=False):
    return InjuryRecord(athlete_id, date, contact, severity, hamstring)


def make_athlete(athlete_id="A01", date_of_birth=dt.date(1990, 1, 1),
                 first_season=2014):
    return AthleteProfile(athlete_id, date_of_birth, first_season)


def season_sessions(athlete_id, start, day_offsets, season=None, **kwargs):
    """Sessions at the given day offsets from a season start date."""
    season = season if season is not None else start.year
    return [
        make_session(athlete_id=athlete_id, date=start + dt.timedelta(days=off),
                     season=season, **kwargs)
        for off in day_offsets
    ]


def load_features(w):
    """The twelve load features of one daily load array, ``{suffix: series}``
    (``"ra3"`` ... ``"strain7"``), read from the athlete-season table that
    `build_feature_matrix` builds."""
    w = np.asarray(w, dtype=float)
    table = lm._load_table({variable: w for variable in lm.VARIABLES}, lm.MONOTONY_CAP)
    prefix = "distance_"
    return {name[len(prefix):]: table[:, k]
            for k, name in enumerate(lm.feature_columns()[:table.shape[1]])
            if name.startswith(prefix)}


@pytest.fixture
def rng():
    return np.random.default_rng(20140301)


@pytest.fixture
def small_panel():
    """Two athletes, one season, enough history for every window."""
    start = dt.date(2014, 3, 3)
    sessions = (season_sessions("A01", start, range(0, 60, 2))
                + season_sessions("A02", start, range(0, 60, 3), session_type="match"))
    athletes = [make_athlete("A01", dt.date(1991, 6, 1), 2014),
                make_athlete("A02", dt.date(1988, 2, 1), 2013)]
    injuries = [make_injury("A01", start + dt.timedelta(days=40))]
    return build_daily_panel(sessions, injuries, athletes), sessions, injuries, athletes
