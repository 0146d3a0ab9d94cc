import math
from dataclasses import replace

import numpy as np
import pytest

from injurylab.domain import build_daily_panel, parse_athletes, parse_injuries, parse_sessions
from injurylab.load_metrics import build_feature_matrix
from injurylab.synthdata import (CohortConfig, generate_cohort, null_config,
                                 signal_config, write_cohort_csvs)

SMALL = dict(n_athletes=8, seasons=(2014, 2015), season_weeks=10, missing_rate=0.0,
             seed=11)


def small_config(**kw):
    return CohortConfig(**{**SMALL, **kw})


def small_null_cohort(**kw):
    return generate_cohort(null_config(**{**SMALL, **kw}))


def assert_round_trip(cohort, out_dir):
    """Every record reads back from the emitted files exactly, floats to the bit."""
    paths = write_cohort_csvs(cohort, out_dir)
    assert parse_sessions(paths["sessions"]) == cohort.sessions
    assert parse_injuries(paths["injuries"]) == cohort.injuries
    assert parse_athletes(paths["athletes"]) == cohort.athletes


class TestGenerateCohort:
    def test_deterministic_records(self):
        a = generate_cohort(small_config())
        b = generate_cohort(small_config())
        assert a.sessions == b.sessions
        assert a.injuries == b.injuries
        assert a.athletes == b.athletes

    def test_byte_identical_files(self, tmp_path):
        write_cohort_csvs(generate_cohort(small_config()), tmp_path / "a")
        write_cohort_csvs(generate_cohort(small_config()), tmp_path / "b")
        for name in ("sessions.csv", "injuries.csv", "athletes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_intercept_only_rate_matches_sigmoid(self):
        beta0 = math.log(0.004 / 0.996)
        days = injured = 0
        for seed in range(10):
            cfg = CohortConfig(n_athletes=20, seasons=(2014, 2015), season_weeks=26,
                               beta0=beta0, beta1=0.0, beta2=0.0, beta3=0.0,
                               missing_rate=0.0, seed=seed)
            cohort = generate_cohort(cfg)
            days += len(cohort.truth)
            injured += sum(1 for t in cohort.truth if t.injured)
        assert days >= 10000
        assert abs(injured / days - 0.004) < 0.001

    def test_spike_days_carry_more_risk(self):
        hits = 0
        for seed in range(10):
            cohort = generate_cohort(signal_config(seed=seed, n_athletes=20,
                                                   seasons=(2014, 2015),
                                                   season_weeks=26, missing_rate=0.0))
            high = [t.injured for t in cohort.truth
                    if not math.isnan(t.acwr_value) and t.acwr_value > 1.5]
            low = [t.injured for t in cohort.truth
                   if not math.isnan(t.acwr_value) and t.acwr_value < 0.8]
            if high and low and np.mean(high) > np.mean(low):
                hits += 1
        assert hits >= 10 * 0.95

    def test_no_missing_fields_without_knockout(self, tmp_path):
        paths = write_cohort_csvs(generate_cohort(small_config()), tmp_path)
        text = (tmp_path / "sessions.csv").read_text()
        for line in text.strip().splitlines():
            assert ",," not in line and not line.endswith(",")

    def test_missingness_rate_applies(self):
        cohort = generate_cohort(small_config(missing_rate=0.3, seed=2))
        missing = sum(1 for s in cohort.sessions
                      for f in (s.rpe, s.distance_m, s.msr_m, s.hsr_m, s.player_load)
                      if f is None)
        total = 5 * len(cohort.sessions)
        assert 0.2 < missing / total < 0.4

    def test_unrealistic_hazard_warns(self):
        # rehab pauses hazard draws, so disable it to hit the pathological rate
        with pytest.warns(UserWarning, match="> 0.5"):
            generate_cohort(small_config(beta0=3.0, beta1=0.0, beta2=0.0,
                                         beta3=0.0, rehab_sessions=0))

    def test_emitted_files_parse_cleanly(self, tmp_path):
        cohort = generate_cohort(small_config(missing_rate=0.1, seed=4))
        assert_round_trip(cohort, tmp_path)
        assert len(cohort.athletes) == cohort.config.n_athletes

    def test_numpy_scalar_fields_round_trip(self, tmp_path):
        cohort = generate_cohort(small_config(seed=4))
        first = cohort.sessions[0]
        cohort.sessions[0] = replace(
            first, distance_m=np.float64(first.distance_m),
            msr_m=np.float64(first.msr_m), hsr_m=np.float64(first.hsr_m),
            player_load=np.float64(first.player_load), rehab_flag=np.bool_(True))
        assert_round_trip(cohort, tmp_path)

    def test_rehab_follows_time_loss_injury(self):
        cohort = generate_cohort(small_config(seed=7, beta0=-3.5))
        time_loss = [i for i in cohort.injuries
                     if i.severity == "time_loss" and i.non_contact]
        assert time_loss, "fixture needs at least one time-loss injury"
        by_athlete = {}
        for s in cohort.sessions:
            by_athlete.setdefault(s.athlete_id, []).append(s)
        found_rehab = False
        for injury in time_loss:
            later = [s for s in by_athlete[injury.athlete_id]
                     if s.date > injury.date and s.season == injury.date.year]
            found_rehab = found_rehab or any(s.rehab_flag for s in later[:3])
        assert found_rehab


class TestNullCohort:
    def test_null_config_zeroes_slopes(self):
        cfg = null_config(seed=3)
        assert cfg.beta1 == cfg.beta2 == cfg.beta3 == 0.0

    def test_null_hazard_is_flat(self):
        cohort = small_null_cohort(seed=5)
        hazards = {round(t.hazard, 12) for t in cohort.truth}
        assert len(hazards) == 1

    def test_same_seed_identical(self):
        a = small_null_cohort()
        b = small_null_cohort()
        assert a.sessions == b.sessions and a.injuries == b.injuries


class TestSelfConsistency:
    def test_recomputed_features_match_generator(self):
        cohort = generate_cohort(small_config(seed=9, season_weeks=14))
        panel = build_daily_panel(cohort.sessions, cohort.injuries, cohort.athletes)
        features = build_feature_matrix(panel, cohort.sessions)
        truth_by_key = {(t.athlete_id, t.date): t for t in cohort.truth}
        truth = [truth_by_key[key] for key in zip(panel.athlete_ids, panel.dates)]
        checked = 0
        for column, field in (("distance_acwr3_21", "acwr_value"),
                              ("distance_ra21", "chronic_load")):
            recomputed = features.column(column)
            internal = np.array([getattr(t, field) for t in truth])
            missing = np.isnan(internal)
            np.testing.assert_array_equal(np.isnan(recomputed), missing, err_msg=column)
            assert recomputed[~missing].tobytes() == internal[~missing].tobytes(), column
            checked += int(np.count_nonzero(~missing))
        assert checked > 100
