import datetime as dt

import numpy as np
import pytest

from injurylab.domain import (DataError, ParseError, build_daily_panel,
                              infer_season_starts, label_outcomes, parse_athletes,
                              parse_injuries, parse_sessions, split_by_season)
from injurylab.synthdata import generate_cohort, null_config, signal_config

from conftest import make_athlete, make_injury, make_session, season_sessions

SESSIONS_HEADER = ("athlete_id,date,season,session_type,duration_min,rpe,"
                   "distance_m,msr_m,hsr_m,player_load,rehab_flag")


def write_sessions(tmp_path, rows, header=SESSIONS_HEADER):
    path = tmp_path / "sessions.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def write_injuries(tmp_path, rows):
    path = tmp_path / "injuries.csv"
    path.write_text("\n".join(["athlete_id,date,contact,severity,hamstring"] + rows) + "\n")
    return path


def write_athletes(tmp_path, rows):
    path = tmp_path / "athletes.csv"
    path.write_text("\n".join(["athlete_id,date_of_birth,first_season"] + rows) + "\n")
    return path


class TestParseSessions:
    def test_full_row(self, tmp_path):
        path = write_sessions(tmp_path, ["A01,2014-03-20,2014,training,62,7,8200,600,120,540,false"])
        (record,) = parse_sessions(path)
        assert record.athlete_id == "A01"
        assert record.date == dt.date(2014, 3, 20)
        assert record.duration_min == 62
        assert record.rpe == 7
        assert record.srpe == 7 * 62
        assert record.rehab_flag is False

    def test_empty_rpe_is_missing(self, tmp_path):
        path = write_sessions(tmp_path, ["A01,2014-03-20,2014,training,62,,8200,600,120,540,false"])
        (record,) = parse_sessions(path)
        assert record.rpe is None
        assert record.srpe is None

    def test_unknown_session_type(self, tmp_path):
        path = write_sessions(tmp_path, ["A01,2014-03-20,2014,race,62,7,8200,600,120,540,false"])
        with pytest.raises(ParseError, match=r"unknown session_type 'race' at line 2"):
            parse_sessions(path)

    def test_malformed_date(self, tmp_path):
        path = write_sessions(tmp_path, ["A01,2014-13-20,2014,training,62,7,8200,600,120,540,false"])
        with pytest.raises(ParseError, match="malformed date"):
            parse_sessions(path)

    def test_negative_load(self, tmp_path):
        path = write_sessions(tmp_path, ["A01,2014-03-20,2014,training,62,7,-8200,600,120,540,false"])
        with pytest.raises(ParseError, match="negative distance_m at line 2"):
            parse_sessions(path)

    def test_rpe_out_of_range(self, tmp_path):
        path = write_sessions(tmp_path, ["A01,2014-03-20,2014,training,62,11,8200,600,120,540,false"])
        with pytest.raises(ParseError, match="rpe 11 out of range"):
            parse_sessions(path)

    def test_msr_exceeds_distance(self, tmp_path):
        path = write_sessions(tmp_path, ["A01,2014-03-20,2014,training,62,7,500,600,120,540,false"])
        with pytest.raises(ParseError, match="msr_m exceeds distance_m"):
            parse_sessions(path)

    def test_date_outside_season_year(self, tmp_path):
        path = write_sessions(tmp_path, ["A01,2015-03-20,2014,training,62,7,8200,600,120,540,false"])
        with pytest.raises(ParseError, match="outside season year"):
            parse_sessions(path)

    def test_header_mismatch(self, tmp_path):
        path = write_sessions(tmp_path, [], header="athlete,date")
        with pytest.raises(ParseError, match="header"):
            parse_sessions(path)

    def test_rows_preserve_file_order(self, tmp_path):
        path = write_sessions(tmp_path, [
            "A02,2014-03-21,2014,match,70,8,9000,700,200,600,false",
            "A01,2014-03-20,2014,training,62,7,8200,600,120,540,true",
        ])
        records = parse_sessions(path)
        assert [r.athlete_id for r in records] == ["A02", "A01"]
        assert records[1].rehab_flag is True


class TestParseInjuries:
    def test_rows(self, tmp_path):
        path = write_injuries(tmp_path, [
            "A01,2014-05-02,non_contact,time_loss,true",
            "A01,2014-05-02,contact,transient,false",
        ])
        records = parse_injuries(path)
        assert records[0].hamstring and records[0].non_contact
        assert records[0].severity == "time_loss"
        assert not records[1].non_contact

    def test_duplicate_rejected(self, tmp_path):
        row = "A01,2014-05-02,non_contact,time_loss,true"
        path = write_injuries(tmp_path, [row, row])
        with pytest.raises(ParseError, match="duplicate injury record"):
            parse_injuries(path)

    def test_unknown_contact(self, tmp_path):
        path = write_injuries(tmp_path, ["A01,2014-05-02,tackle,time_loss,true"])
        with pytest.raises(ParseError, match="unknown contact type"):
            parse_injuries(path)


class TestParseAthletes:
    def test_roundtrip(self, tmp_path):
        path = write_athletes(tmp_path, ["A01,1990-01-01,2014"])
        (athlete,) = parse_athletes(path)
        assert athlete.date_of_birth == dt.date(1990, 1, 1)
        assert athlete.first_season == 2014

    def test_duplicate_id(self, tmp_path):
        path = write_athletes(tmp_path, ["A01,1990-01-01,2014", "A01,1991-01-01,2014"])
        with pytest.raises(ParseError, match="duplicate athlete_id"):
            parse_athletes(path)


class TestBuildDailyPanel:
    def test_first_fourteen_days_removed(self):
        start = dt.date(2014, 3, 1)
        # A02 anchors the season start on day 1; A01 trains on season days 10, 16, 20
        sessions = (season_sessions("A01", start, [9, 15, 19])
                    + season_sessions("A02", start, [0]))
        athletes = [make_athlete("A01"), make_athlete("A02")]
        panel = build_daily_panel(sessions, [], athletes)
        a01_days = [d for aid, d in zip(panel.athlete_ids, panel.dates) if aid == "A01"]
        assert a01_days == [start + dt.timedelta(days=15), start + dt.timedelta(days=19)]
        assert all(aid != "A02" for aid in panel.athlete_ids)  # day 1 is burn-in

    def test_rehab_day_excluded(self):
        start = dt.date(2014, 3, 1)
        sessions = season_sessions("A01", start, [0, 20, 22])
        sessions[1] = make_session("A01", start + dt.timedelta(days=20), 2014,
                                   rehab_flag=True)
        panel = build_daily_panel(sessions, [], [make_athlete("A01")])
        assert panel.dates == [start + dt.timedelta(days=22)]

    def test_age_exact_fractional_years(self):
        # the kept row, 2014-01-15, is 8766 days = exactly 24 * 365.25 days
        # after 1990-01-15; the 2014-01-01 session starts the season
        sessions = [make_session("A01", dt.date(2014, 1, 1), 2014),
                    make_session("A01", dt.date(2014, 1, 15), 2014)]
        panel = build_daily_panel(sessions, [], [make_athlete("A01", dt.date(1990, 1, 15))])
        assert panel.dates == [dt.date(2014, 1, 15)]
        assert panel.age_years[0] == pytest.approx(24.0, abs=1e-12)

    def test_new_player_flag(self):
        start = dt.date(2015, 3, 1)
        sessions = (season_sessions("A01", start, [0, 20], season=2015)
                    + season_sessions("A02", start, [0, 20], season=2015))
        athletes = [make_athlete("A01", first_season=2015),
                    make_athlete("A02", first_season=2014)]
        panel = build_daily_panel(sessions, [], athletes)
        flags = dict(zip(panel.athlete_ids, panel.new_player))
        assert flags["A01"] and not flags["A02"]

    def test_unknown_athlete_rejected(self):
        sessions = [make_session("A09")]
        with pytest.raises(DataError, match="missing from roster"):
            build_daily_panel(sessions, [], [make_athlete("A01")])

    def test_injury_without_sessions_warns_but_labels(self):
        start = dt.date(2014, 3, 1)
        sessions = season_sessions("A01", start, [0, 20])
        injuries = [make_injury("A02", dt.date(2014, 6, 1))]
        athletes = [make_athlete("A01"), make_athlete("A02")]
        with pytest.warns(UserWarning, match="no sessions that season"):
            panel = build_daily_panel(sessions, injuries, athletes)
        assert len(panel) == 1

    def test_row_count_matches_eligible_session_days(self, rng):
        start = dt.date(2014, 3, 1)
        sessions, expected = [], 0
        for a in range(4):
            offsets = sorted(rng.choice(120, size=40, replace=False).tolist())
            rehab = set(rng.choice(offsets, size=5, replace=False).tolist())
            for off in offsets:
                sessions.append(make_session(f"A{a}", start + dt.timedelta(days=off),
                                             2014, rehab_flag=off in rehab))
            expected += sum(1 for off in offsets if off >= 14 and off not in rehab)
        # guarantee a session on the inferred season start
        assert any(s.date == start for s in sessions)
        athletes = [make_athlete(f"A{a}") for a in range(4)]
        panel = build_daily_panel(sessions, [], athletes)
        assert len(panel) == expected

    def test_canonical_ordering(self, small_panel):
        panel = small_panel[0]
        keys = list(zip(panel.athlete_ids, panel.dates))
        assert keys == sorted(keys)


class TestLabelOutcomes:
    def _panel(self, row_offsets, start=dt.date(2014, 3, 1)):
        sessions = season_sessions("A01", start, [0] + row_offsets)
        return build_daily_panel(sessions, [], [make_athlete("A01")]), start

    def test_lag_window_membership(self):
        panel, start = self._panel([20, 22, 24])
        injuries = [make_injury("A01", start + dt.timedelta(days=24), hamstring=True)]
        lagged = label_outcomes(panel, injuries, "hs", lag_days=4)
        assert lagged.tolist() == [1, 1, 1]
        same_day = label_outcomes(panel, injuries, "hs", lag_days=0)
        assert same_day.tolist() == [0, 0, 1]

    def test_transient_counts_for_nc_not_nctl(self):
        panel, start = self._panel([20])
        injuries = [make_injury("A01", start + dt.timedelta(days=20),
                                severity="transient")]
        assert label_outcomes(panel, injuries, "nc").tolist() == [1]
        assert label_outcomes(panel, injuries, "nctl").tolist() == [0]

    def test_contact_never_qualifies(self):
        panel, start = self._panel([20])
        injuries = [make_injury("A01", start + dt.timedelta(days=20),
                                contact="contact", hamstring=True)]
        for outcome in ("nc", "nctl", "hs"):
            assert label_outcomes(panel, injuries, outcome, lag_days=4).sum() == 0

    def test_lag_monotonicity(self, rng):
        start = dt.date(2014, 3, 1)
        offsets = sorted(rng.choice(200, 60, replace=False).tolist())
        sessions = season_sessions("A01", start, [0] + offsets)
        injuries = [make_injury("A01", start + dt.timedelta(days=int(d)))
                    for d in rng.choice(200, 8, replace=False)]
        panel = build_daily_panel(sessions, injuries, [make_athlete("A01")])
        previous = np.zeros(len(panel), dtype=int)
        for lag in (0, 1, 2, 4, 7):
            labels = label_outcomes(panel, injuries, "nc", lag)
            assert np.all(labels >= previous)
            previous = labels

    def test_lag_positive_rows_bounded(self):
        # one injury labels at most lag_days + 1 rows, at least the same-day count
        panel, start = self._panel(list(range(20, 29)))
        injuries = [make_injury("A01", start + dt.timedelta(days=24))]
        lag = label_outcomes(panel, injuries, "nc", 4)
        same = label_outcomes(panel, injuries, "nc", 0)
        assert same.sum() <= lag.sum() <= 5

    @pytest.mark.parametrize("make_config, seed", [
        (signal_config, 1), (signal_config, 9), (signal_config, 100),
        (null_config, 7), (null_config, 7000),
    ])
    def test_matches_nested_loop_oracle(self, make_config, seed):
        cohort = generate_cohort(make_config(seed=seed, n_athletes=8,
                                             seasons=(2014, 2015), season_weeks=10))
        panel = build_daily_panel(cohort.sessions, cohort.injuries, cohort.athletes)
        first_day = panel.dates[0]
        # an athlete without panel rows, a contact hamstring injury, and two
        # injuries on one row's day
        injuries = list(cohort.injuries) + [
            make_injury("Z99", first_day),
            make_injury(panel.athlete_ids[0], first_day, contact="contact",
                        hamstring=True),
            make_injury(panel.athlete_ids[-1], panel.dates[-1], severity="transient"),
            make_injury(panel.athlete_ids[-1], panel.dates[-1], hamstring=True),
        ]
        for outcome in ("nc", "nctl", "hs"):
            for lag in (0, 1, 4, 7):
                labels = label_outcomes(panel, injuries, outcome, lag)
                expected = nested_loop_labels(panel, injuries, outcome, lag)
                assert labels.dtype == expected.dtype == np.int8
                np.testing.assert_array_equal(labels, expected)
        assert panel.labels["nc_lag"].any()


def nested_loop_labels(panel, injuries, outcome, lag_days):
    """The labeller that the outcome table and the key search replaced,
    kept verbatim as the oracle."""
    def qualifies(injury, outcome):
        # contact injuries never qualify for any modelled outcome
        if not injury.non_contact:
            return False
        if outcome == "nc":
            return True
        if outcome == "nctl":
            return injury.severity == "time_loss"
        if outcome == "hs":
            return injury.hamstring
        raise ValueError(f"unknown outcome {outcome!r}")

    by_athlete = {}
    for i, athlete_id in enumerate(panel.athlete_ids):
        by_athlete.setdefault(athlete_id, []).append(i)
    labels = np.zeros(len(panel), dtype=np.int8)
    for inj in injuries:
        if not qualifies(inj, outcome):
            continue
        for i in by_athlete.get(inj.athlete_id, ()):
            delta = (inj.date - panel.dates[i]).days
            if 0 <= delta <= lag_days:
                labels[i] = 1
    return labels


class TestSplitBySeason:
    def _two_season_panel(self):
        sessions = (season_sessions("A01", dt.date(2014, 3, 1), [0, 20, 25])
                    + season_sessions("A01", dt.date(2015, 3, 1), [0, 20, 25], season=2015)
                    + season_sessions("A01", dt.date(2016, 3, 1), [0, 20], season=2016))
        return build_daily_panel(sessions, [], [make_athlete("A01")])

    def test_partition(self):
        panel = self._two_season_panel()
        split = split_by_season(panel, [2014], [2015, 2016])
        np.testing.assert_array_equal(np.concatenate([split.train_idx, split.test_idx]),
                                      np.arange(len(panel)))
        assert set(panel.seasons[split.train_idx]) == {2014}
        assert set(panel.seasons[split.test_idx]) == {2015, 2016}

    def test_row_outside_either_set_dropped(self):
        panel = self._two_season_panel()
        split = split_by_season(panel, [2014], [2016])
        dropped = np.setdiff1d(np.arange(len(panel)),
                               np.concatenate([split.train_idx, split.test_idx]))
        np.testing.assert_array_equal(dropped, np.flatnonzero(panel.seasons == 2015))

    def test_empty_test_set_rejected(self):
        panel = self._two_season_panel()
        with pytest.raises(DataError, match="nonempty"):
            split_by_season(panel, [2014], [])

    def test_overlap_rejected(self):
        panel = self._two_season_panel()
        with pytest.raises(DataError, match="overlap"):
            split_by_season(panel, [2014, 2015], [2015])

    def test_test_must_follow_train(self):
        panel = self._two_season_panel()
        with pytest.raises(DataError, match="strictly later"):
            split_by_season(panel, [2015], [2014])


def test_infer_season_starts():
    sessions = season_sessions("A01", dt.date(2014, 3, 5), [3, 0, 10])
    assert infer_season_starts(sessions) == {2014: dt.date(2014, 3, 5)}
