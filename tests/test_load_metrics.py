import dataclasses
import datetime as dt

import numpy as np
import pytest

from injurylab import load_metrics as lm
from injurylab.domain import build_daily_panel

from conftest import make_athlete, season_sessions


# naive re-implementations used as independent oracles
def naive_rolling_average(w, i, c):
    if i < c:
        return float("nan")
    return sum(w[i - c:i]) / c


def naive_ewma(w, i, span):
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


def naive_acwr(w, i, a, c):
    chronic = sum(w[i - c:i]) / c
    if chronic == 0.0:
        return 0.0
    return (sum(w[i - a:i]) / a) / chronic


def naive_ew_acwr(w, i, sa, sc):
    chronic = naive_ewma(w, i, sc)
    if chronic == 0.0:
        return 0.0
    return naive_ewma(w, i, sa) / chronic


class TestRollingAverage:
    def test_constant_series(self):
        w = np.full(40, 100.0)
        assert lm.rolling_average(w, 30, 21) == 100.0

    def test_forced_arithmetic(self):
        w = np.array([10.0, 20.0, 30.0, 0.0])
        assert lm.rolling_average(w, 3, 3) == 20.0

    def test_zero_window(self):
        assert lm.rolling_average(np.zeros(30), 25, 21) == 0.0

    def test_insufficient_history_is_missing(self):
        assert np.isnan(lm.rolling_average(np.ones(30), 20, 21))


class TestEwma:
    def test_lambda(self):
        assert lm.ewma_lambda(3) == 0.5

    def test_two_step_recurrence(self):
        # seed 0, loads (10, 20), lam .5: .5*20 + .5*(.5*10 + .5*0) = 12.5
        assert lm.ewma(np.array([10.0, 20.0]), 2, 3) == 12.5

    def test_all_zero(self):
        assert lm.ewma(np.zeros(50), 30, 6) == 0.0

    def test_matches_explicit_weighted_sum(self, rng):
        for _ in range(50):
            w = rng.uniform(0, 500, size=60)
            i = int(rng.integers(1, 60))
            span = int(rng.choice([3, 6, 21]))
            assert lm.ewma(w, i, span) == pytest.approx(naive_ewma(w, i, span), abs=1e-9)


class TestMonotonyStrain:
    def test_hand_computed_week(self):
        w = np.array([1.0, 2, 3, 4, 5, 6, 7, 0])
        # mean 4, sample sd sqrt(28/6)
        expected = 4.0 / (28.0 / 6.0) ** 0.5
        assert lm.monotony7(w, 7) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.8516, abs=1e-4)
        assert lm.strain7(w, 7) == pytest.approx(28.0 * expected, abs=1e-9)
        assert lm.strain7(w, 7) == pytest.approx(51.85, abs=0.01)

    def test_all_zero_week(self):
        w = np.zeros(10)
        assert lm.monotony7(w, 7) == 0.0
        assert lm.strain7(w, 7) == 0.0

    def test_constant_week_hits_cap(self):
        w = np.full(10, 100.0)
        assert lm.monotony7(w, 7) == 10.0
        assert lm.strain7(w, 7) == 700.0 * 10.0

    def test_cap_only_below_sd_threshold(self):
        # tiny but real variation: ratio may exceed the cap, cap not applied
        w = np.full(10, 5.0)
        w[3] += 1e-6
        value = lm.monotony7(w, 7)
        assert value > 10.0
        # true zero variance triggers the cap exactly
        assert lm.monotony7(np.full(10, 5.0), 7) == 10.0

    def test_configurable_cap(self):
        assert lm.monotony7(np.full(10, 5.0), 7, cap=25.0) == 25.0

    def test_hsr_usage_error(self):
        with pytest.raises(ValueError, match="hsr"):
            lm.monotony7(np.ones(10), 7, variable="hsr")
        with pytest.raises(ValueError, match="hsr"):
            lm.strain7(np.ones(10), 7, variable="hsr")


class TestAcwr:
    def test_constant_series_is_one(self):
        assert lm.acwr(np.full(40, 250.0), 30, 3, 21) == 1.0

    def test_zero_chronic_rule(self):
        w = np.zeros(40)
        assert lm.acwr(w, 25, 3, 21) == 0.0

    def test_direct_formula(self):
        w = np.concatenate([np.full(18, 125.0), np.full(3, 300.0)])
        assert lm.acwr(w, 21, 3, 21) == pytest.approx(2.0, abs=1e-12)

    def test_insufficient_history(self):
        assert np.isnan(lm.acwr(np.ones(40), 20, 3, 21))


class TestEwAcwr:
    def test_constant_converges_to_one(self):
        w = np.full(200, 420.0)
        assert lm.ew_acwr(w, 199, 3, 21) == pytest.approx(1.0, abs=1e-6)

    def test_all_zero(self):
        assert lm.ew_acwr(np.zeros(50), 30, 3, 21) == 0.0

    def test_single_spike_one_step(self):
        w = np.zeros(30)
        w[9] = 700.0
        expected = (2.0 / 4.0) / (2.0 / 22.0)
        assert lm.ew_acwr(w, 10, 3, 21) == pytest.approx(expected, abs=1e-12)
        assert expected == 5.5


class TestSeriesOracleEquivalence:
    def test_random_series_match_naive(self, rng):
        for _ in range(60):
            n = int(rng.integers(25, 90))
            w = rng.uniform(0, 800, size=n)
            w[rng.random(n) < 0.3] = 0.0
            ra3 = lm.rolling_average_series(w, 3)
            ra21 = lm.rolling_average_series(w, 21)
            mono = lm.monotony7_series(w)
            strain = lm.strain7_series(w)
            acwr3 = lm.acwr_series(w, 3)
            ew3 = lm.ew_acwr_series(w, 3)
            for i in range(n):
                if i >= 3:
                    assert ra3[i] == pytest.approx(naive_rolling_average(w, i, 3), abs=1e-9)
                if i >= 7:
                    assert mono[i] == pytest.approx(naive_monotony(w, i), abs=1e-9)
                    assert strain[i] == pytest.approx(naive_strain(w, i), abs=1e-9)
                if i >= 21:
                    assert ra21[i] == pytest.approx(naive_rolling_average(w, i, 21), abs=1e-9)
                    assert acwr3[i] == pytest.approx(naive_acwr(w, i, 3, 21), abs=1e-9)
                assert ew3[i] == pytest.approx(naive_ew_acwr(w, i, 3, 21), abs=1e-9)

    def test_scalar_matches_series(self, rng):
        w = rng.uniform(0, 500, size=50)
        assert lm.rolling_average(w, 30, 6) == lm.rolling_average_series(w, 6)[30]
        assert lm.ewma(w, 30, 6) == pytest.approx(lm.ewma_series(w, 6)[30], abs=1e-12)
        assert lm.monotony7(w, 30) == pytest.approx(lm.monotony7_series(w)[30], abs=1e-12)
        assert lm.acwr(w, 30, 6) == pytest.approx(lm.acwr_series(w, 6)[30], abs=1e-12)
        assert lm.ew_acwr(w, 30, 6) == pytest.approx(lm.ew_acwr_series(w, 6)[30], abs=1e-12)


class TestNoLeakage:
    def test_day_features_ignore_same_day_load(self, rng):
        w = rng.uniform(0, 500, size=60)
        i = 40
        before = [lm.rolling_average(w, i, 21), lm.ewma(w, i, 6),
                  lm.monotony7(w, i), lm.strain7(w, i),
                  lm.acwr(w, i, 3), lm.ew_acwr(w, i, 3)]
        w[i] += 10000.0
        after = [lm.rolling_average(w, i, 21), lm.ewma(w, i, 6),
                 lm.monotony7(w, i), lm.strain7(w, i),
                 lm.acwr(w, i, 3), lm.ew_acwr(w, i, 3)]
        assert before == after


class TestScaleEquivariance:
    def test_scaling_behaviour(self, rng):
        w = rng.uniform(10, 500, size=60)
        s = 3.7
        i = 45
        assert lm.rolling_average(s * w, i, 6) == pytest.approx(
            s * lm.rolling_average(w, i, 6), rel=1e-12)
        assert lm.ewma(s * w, i, 6) == pytest.approx(s * lm.ewma(w, i, 6), rel=1e-12)
        assert lm.strain7(s * w, i) == pytest.approx(s * lm.strain7(w, i), rel=1e-9)
        assert lm.monotony7(s * w, i) == pytest.approx(lm.monotony7(w, i), rel=1e-9)
        assert lm.acwr(s * w, i, 3) == pytest.approx(lm.acwr(w, i, 3), rel=1e-12)
        assert lm.ew_acwr(s * w, i, 3) == pytest.approx(lm.ew_acwr(w, i, 3), rel=1e-12)


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


#: every load feature suffix and the public series function it must equal
SERIES_ORACLE = {
    "ra3": lambda w: lm.rolling_average_series(w, 3),
    "ra6": lambda w: lm.rolling_average_series(w, 6),
    "ra21": lambda w: lm.rolling_average_series(w, 21),
    "ewma3": lambda w: lm.ewma_series(w, 3),
    "ewma6": lambda w: lm.ewma_series(w, 6),
    "ewma21": lambda w: lm.ewma_series(w, 21),
    "acwr3_21": lambda w: lm.acwr_series(w, 3, 21),
    "acwr6_21": lambda w: lm.acwr_series(w, 6, 21),
    "ewacwr3_21": lambda w: lm.ew_acwr_series(w, 3, 21),
    "ewacwr6_21": lambda w: lm.ew_acwr_series(w, 6, 21),
    "monotony7": lambda w: lm.monotony7_series(w),
    "strain7": lambda w: lm.strain7_series(w),
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


def test_load_series_daily_aggregation():
    start = dt.date(2014, 3, 1)
    one = season_sessions("A01", start, [5], distance_m=1000.0)
    two = season_sessions("A01", start, [5], distance_m=500.0)
    anchor = season_sessions("A01", start, [0])
    series = lm.build_load_series(anchor + one + two, {2014: start})
    assert series[("A01", 2014)]["distance"][5] == 1500.0
    assert series[("A01", 2014)]["distance"][3] == 0.0
