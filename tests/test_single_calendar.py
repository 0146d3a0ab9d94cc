"""`domain.build_daily_panel` is the one function of the package that calls
`infer_season_starts`, and `load_metrics.build_feature_matrix` the one that
calls `build_load_series`, so every load series is laid on the panel's own
season starts and no second calendar can disagree with it."""

from pathlib import Path

import injurylab
from test_single_runner import referring_functions

PACKAGE_DIR = Path(injurylab.__file__).parent


def callers(name):
    return [f"{path.stem}.{scope}"
            for path in sorted(PACKAGE_DIR.rglob("*.py"))
            for scope in referring_functions(path.read_text(), name)]


def test_build_feature_matrix_is_the_only_caller():
    assert callers("build_load_series") == ["load_metrics.build_feature_matrix"]


def test_build_daily_panel_is_the_only_season_start_caller():
    assert callers("infer_season_starts") == ["domain.build_daily_panel"]
