import dataclasses
import datetime as dt

import numpy as np
import pytest

from injurylab import load_metrics as lm
from injurylab.domain import build_daily_panel

from conftest import load_features, make_athlete, season_sessions


# naive re-implementations used as independent oracles
def naive_window_mean(w, i, c):
    if i < c:
        return float("nan")
    return sum(w[i - c:i]) / c


def naive_exp_mean(w, i, span):
    lam = 2.0 / (span + 1.0)
    return sum(lam * (1.0 - lam) ** k * w[i - 1 - k] for k in range(i))


def naive_monotony(w, i, cap=10.0):
    week = list(w[i - 7:i])
    total = sum(week)
    if total == 0.0:
        return 0.0
    mean = total / 7.0
    sd = (sum((x - mean) ** 2 for x in week) / 6.0) ** 0.5
    return cap if sd < 1e-12 else mean / sd


def naive_strain(w, i, cap=10.0):
    total = sum(w[i - 7:i])
    return 0.0 if total == 0.0 else total * naive_monotony(w, i, cap)


def naive_ratio(w, i, a, c):
    chronic = sum(w[i - c:i]) / c
    if chronic == 0.0:
        return 0.0
    return (sum(w[i - a:i]) / a) / chronic


def naive_exp_ratio(w, i, sa, sc):
    chronic = naive_exp_mean(w, i, sc)
    if chronic == 0.0:
        return 0.0
    return naive_exp_mean(w, i, sa) / chronic


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestRollingAverage:
    def test_constant_series(self):
        assert lm.rolling_average_series(np.full(40, 100.0), 21)[30] == 100.0

    def test_forced_arithmetic(self):
        w = np.array([10.0, 20.0, 30.0, 0.0])
        assert lm.rolling_average_series(w, 3)[3] == 20.0

    def test_zero_window(self):
        assert lm.rolling_average_series(np.zeros(30), 21)[25] == 0.0

    def test_insufficient_history_is_missing(self):
        series = lm.rolling_average_series(np.ones(30), 21)
        assert np.isnan(series[:21]).all()
        assert series[21] == 1.0


class TestEwma:
    def test_lambda(self):
        assert lm.ewma_lambda(3) == 0.5

    def test_two_step_recurrence(self):
        # seed 0, loads (10, 20), lam .5: .5*20 + .5*(.5*10 + .5*0) = 12.5
        assert lm.ewma_series(np.array([10.0, 20.0, 0.0]), 3)[2] == 12.5

    def test_all_zero(self):
        assert (lm.ewma_series(np.zeros(50), 6) == 0.0).all()

    def test_matches_explicit_weighted_sum(self, rng):
        for _ in range(50):
            w = rng.uniform(0, 500, size=60)
            i = int(rng.integers(1, 60))
            span = int(rng.choice([3, 6, 21]))
            assert lm.ewma_series(w, span)[i] == pytest.approx(naive_exp_mean(w, i, span),
                                                               abs=1e-9)


class TestMonotonyStrain:
    def test_hand_computed_week(self):
        w = np.array([1.0, 2, 3, 4, 5, 6, 7, 0])
        monotony, strain = lm.monotony_strain_series(w)
        # mean 4, sample sd sqrt(28/6)
        expected = 4.0 / (28.0 / 6.0) ** 0.5
        assert monotony[7] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.8516, abs=1e-4)
        assert strain[7] == pytest.approx(28.0 * expected, abs=1e-9)
        assert strain[7] == pytest.approx(51.85, abs=0.01)
        assert np.isnan(monotony[:7]).all() and np.isnan(strain[:7]).all()

    def test_all_zero_week(self):
        monotony, strain = lm.monotony_strain_series(np.zeros(10))
        assert monotony[7] == 0.0
        assert strain[7] == 0.0

    def test_constant_week_hits_cap(self):
        monotony, strain = lm.monotony_strain_series(np.full(10, 100.0))
        assert monotony[7] == 10.0
        assert strain[7] == 700.0 * 10.0

    def test_cap_only_below_sd_threshold(self):
        # tiny but real variation: ratio may exceed the cap, cap not applied
        w = np.full(10, 5.0)
        w[3] += 1e-6
        assert lm.monotony_strain_series(w)[0][7] > 10.0
        # true zero variance triggers the cap exactly
        assert lm.monotony_strain_series(np.full(10, 5.0))[0][7] == 10.0

    def test_configurable_cap(self):
        assert lm.monotony_strain_series(np.full(10, 5.0), cap=25.0)[0][7] == 25.0


class TestAcwr:
    def test_constant_series_is_one(self):
        assert load_features(np.full(40, 250.0))["acwr3_21"][30] == 1.0

    def test_zero_chronic_rule(self):
        assert load_features(np.zeros(40))["acwr3_21"][25] == 0.0

    def test_direct_formula(self):
        w = np.concatenate([np.full(18, 125.0), np.full(3, 300.0), [0.0]])
        assert load_features(w)["acwr3_21"][21] == pytest.approx(2.0, abs=1e-12)

    def test_insufficient_history(self):
        assert np.isnan(load_features(np.ones(40))["acwr3_21"][20])


class TestEwAcwr:
    def test_constant_converges_to_one(self):
        w = np.full(200, 420.0)
        assert load_features(w)["ewacwr3_21"][199] == pytest.approx(1.0, abs=1e-6)

    def test_all_zero(self):
        assert load_features(np.zeros(50))["ewacwr3_21"][30] == 0.0

    def test_single_spike_one_step(self):
        w = np.zeros(30)
        w[9] = 700.0
        expected = (2.0 / 4.0) / (2.0 / 22.0)
        assert load_features(w)["ewacwr3_21"][10] == pytest.approx(expected, abs=1e-12)
        assert expected == 5.5


class TestSeriesOracleEquivalence:
    def test_random_series_match_naive(self, rng):
        for _ in range(60):
            n = int(rng.integers(25, 90))
            w = rng.uniform(0, 800, size=n)
            w[rng.random(n) < 0.3] = 0.0
            features = load_features(w)
            for i in range(n):
                if i >= 3:
                    assert features["ra3"][i] == pytest.approx(
                        naive_window_mean(w, i, 3), abs=1e-9)
                if i >= 7:
                    assert features["monotony7"][i] == pytest.approx(
                        naive_monotony(w, i), abs=1e-9)
                    assert features["strain7"][i] == pytest.approx(
                        naive_strain(w, i), abs=1e-9)
                if i >= 21:
                    assert features["ra21"][i] == pytest.approx(
                        naive_window_mean(w, i, 21), abs=1e-9)
                    assert features["acwr3_21"][i] == pytest.approx(
                        naive_ratio(w, i, 3, 21), abs=1e-9)
                assert features["ewacwr3_21"][i] == pytest.approx(
                    naive_exp_ratio(w, i, 3, 21), abs=1e-9)


class TestNoLeakage:
    def test_day_features_ignore_same_day_load(self, rng):
        w = rng.uniform(0, 500, size=60)
        before = load_features(w)
        assert len(before) == 12
        for i in range(w.size):
            raised = w.copy()
            raised[i] += 10000.0
            after = load_features(raised)
            for name in before:
                assert same_bits(before[name][:i + 1], after[name][:i + 1]), (name, i)
            if i + 1 < w.size:   # the raised load does reach the next day
                assert not same_bits(before["ewma3"][i + 1], after["ewma3"][i + 1])


class TestScaleEquivariance:
    def test_scaling_behaviour(self, rng):
        w = rng.uniform(10, 500, size=60)
        s = 3.7
        i = 45
        base, scaled = load_features(w), load_features(s * w)
        for name in ("ra6", "ewma6"):
            assert scaled[name][i] == pytest.approx(s * base[name][i], rel=1e-12)
        assert scaled["strain7"][i] == pytest.approx(s * base["strain7"][i], rel=1e-9)
        assert scaled["monotony7"][i] == pytest.approx(base["monotony7"][i], rel=1e-9)
        for name in ("acwr3_21", "ewacwr3_21"):
            assert scaled[name][i] == pytest.approx(base[name][i], rel=1e-12)


class TestFeatureMatrix:
    def test_sixty_named_columns(self):
        columns = lm.feature_columns()
        assert len(columns) == 60
        assert len(set(columns)) == 60
        for name in ("distance_ra21", "hsr_acwr3_21", "srpe_monotony7",
                     "player_load_ewacwr6_21", "msr_ewma6", "age_years", "is_match"):
            assert name in columns
        assert "hsr_monotony7" not in columns
        assert "hsr_strain7" not in columns

    def _build(self, offsets, session_type="training"):
        start = dt.date(2014, 3, 1)
        sessions = season_sessions("A01", start, offsets, session_type=session_type)
        panel = build_daily_panel(sessions, [], [make_athlete("A01")])
        return panel, lm.build_feature_matrix(panel, sessions)

    def test_day_fifteen_ra21_flagged_missing(self):
        panel, features = self._build([0, 14, 30])
        row = list(panel.season_day).index(14)   # season day 15, 1-based
        assert np.isnan(features.column("distance_ra21")[row])
        assert np.isnan(features.column("distance_acwr3_21")[row])
        assert not np.isnan(features.column("distance_ra3")[row])
        late = list(panel.season_day).index(30)
        assert not np.isnan(features.column("distance_ra21")[late])

    def test_match_indicator(self):
        _, training = self._build([0, 20])
        assert training.column("is_match")[0] == 0.0
        _, match = self._build([0, 20], session_type="match")
        assert match.column("is_match")[0] == 1.0

    def test_row_alignment_and_shape(self, small_panel):
        panel, sessions, _, _ = small_panel
        features = lm.build_feature_matrix(panel, sessions)
        assert features.values.shape == (len(panel), 60)
        np.testing.assert_array_equal(features.column("age_years"), panel.age_years)

    def test_missing_raw_value_propagates_nan(self):
        start = dt.date(2014, 3, 1)
        sessions = season_sessions("A01", start, list(range(0, 30)))
        sessions[10] = sessions[10].__class__(**{**sessions[10].__dict__, "rpe": None})
        panel = build_daily_panel(sessions, [], [make_athlete("A01")])
        features = lm.build_feature_matrix(panel, sessions)
        row = list(panel.season_day).index(14)
        # day 10 is inside the 7-day window before day 14
        assert np.isnan(features.column("srpe_monotony7")[row])
        assert not np.isnan(features.column("distance_monotony7")[row])


def ratio(acute, chronic):
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(chronic == 0.0, 0.0, acute / chronic)


#: every load feature suffix and the public series functions it must equal
SERIES_ORACLE = {
    "ra3": lambda w: lm.rolling_average_series(w, 3),
    "ra6": lambda w: lm.rolling_average_series(w, 6),
    "ra21": lambda w: lm.rolling_average_series(w, 21),
    "ewma3": lambda w: lm.ewma_series(w, 3),
    "ewma6": lambda w: lm.ewma_series(w, 6),
    "ewma21": lambda w: lm.ewma_series(w, 21),
    "acwr3_21": lambda w: ratio(lm.rolling_average_series(w, 3),
                                lm.rolling_average_series(w, 21)),
    "acwr6_21": lambda w: ratio(lm.rolling_average_series(w, 6),
                                lm.rolling_average_series(w, 21)),
    "ewacwr3_21": lambda w: ratio(lm.ewma_series(w, 3), lm.ewma_series(w, 21)),
    "ewacwr6_21": lambda w: ratio(lm.ewma_series(w, 6), lm.ewma_series(w, 21)),
    "monotony7": lambda w: lm.monotony_strain_series(w)[0],
    "strain7": lambda w: lm.monotony_strain_series(w)[1],
}


class TestFeatureMatrixLayout:
    @pytest.fixture
    def cohort(self, rng):
        """Two athletes x two seasons of varied loads, a 15-day break and one
        missing MSR value."""
        sessions = []
        for season in (2014, 2015):
            start = dt.date(season, 3, 1)
            for athlete_id, step in (("A01", 2), ("A02", 3)):
                offsets = list(range(0, 20, step)) + list(range(35, 90, step))
                sessions += season_sessions(athlete_id, start, offsets)
        sessions = [
            dataclasses.replace(
                s, rpe=int(rng.integers(1, 11)), distance_m=float(rng.uniform(0, 9000)),
                msr_m=float(rng.uniform(0, 900)), hsr_m=float(rng.choice([0.0, 150.0])),
                player_load=float(rng.uniform(0, 600)))
            for s in sessions
        ]
        sessions[30] = dataclasses.replace(sessions[30], msr_m=None)
        athletes = [make_athlete("A01"), make_athlete("A02", dt.date(1988, 2, 1))]
        return build_daily_panel(sessions, [], athletes), sessions

    def test_every_load_column_is_its_series_function(self, cohort):
        panel, sessions = cohort
        features = lm.build_feature_matrix(panel, sessions)
        series = lm.build_load_series(sessions, panel.season_starts)
        load_columns = [c for c in features.columns if c not in ("age_years", "is_match")]
        assert len(load_columns) == 58
        assert len(set(zip(panel.athlete_ids, panel.seasons))) == 4
        assert sum(np.isnan(loads["msr"]).sum() for loads in series.values()) == 1
        for name in load_columns:
            variable, suffix = next((v, name[len(v) + 1:]) for v in lm.VARIABLES
                                    if name.startswith(v + "_"))
            expected = np.array([
                SERIES_ORACLE[suffix](series[(athlete_id, int(season))][variable])[day]
                for athlete_id, season, day in zip(panel.athlete_ids, panel.seasons,
                                                   panel.season_day)
            ])
            np.testing.assert_array_equal(features.column(name), expected, err_msg=name)

    def test_raised_load_reaches_only_later_rows(self, cohort):
        panel, sessions = cohort
        k = 20
        target = sessions[k]
        assert (target.athlete_id, target.season) == ("A01", 2014)
        raised = list(sessions)
        raised[k] = dataclasses.replace(
            target, duration_min=target.duration_min + 30.0,
            distance_m=target.distance_m + 5000.0, msr_m=target.msr_m + 500.0,
            hsr_m=target.hsr_m + 150.0, player_load=target.player_load + 300.0)
        before = lm.build_feature_matrix(panel, sessions)
        after = lm.build_feature_matrix(panel, raised)
        dates = np.asarray(panel.dates)
        same_season = ((np.asarray(panel.athlete_ids) == "A01")
                       & (np.asarray(panel.seasons) == 2014))
        later = same_season & (dates > target.date)
        day = np.flatnonzero(same_season & (dates == target.date))
        assert day.size == 1
        assert same_bits(before.values[~later], after.values[~later])
        assert same_bits(before.values[day, :58], after.values[day, :58])
        # A01 trains every second day
        next_day = np.flatnonzero(same_season & (dates == target.date + dt.timedelta(days=2)))
        changed = (before.values[next_day] != after.values[next_day])[0]
        for variable in lm.VARIABLES:
            assert any(changed[j] for j, name in enumerate(before.columns)
                       if name.startswith(variable + "_")), variable


def test_load_series_daily_aggregation():
    start = dt.date(2014, 3, 1)
    one = season_sessions("A01", start, [5], distance_m=1000.0)
    two = season_sessions("A01", start, [5], distance_m=500.0)
    anchor = season_sessions("A01", start, [0])
    series = lm.build_load_series(anchor + one + two, {2014: start})
    assert series[("A01", 2014)]["distance"][5] == 1500.0
    assert series[("A01", 2014)]["distance"][3] == 0.0
