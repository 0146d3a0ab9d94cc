"""`load_metrics.build_feature_matrix` is the one function of the package
that calls `build_load_series`, so every load series is laid on the panel's
own season starts and no second calendar can disagree with it."""

from pathlib import Path

import injurylab
from test_single_runner import referring_functions

PACKAGE_DIR = Path(injurylab.__file__).parent


def test_build_feature_matrix_is_the_only_caller():
    found = [f"{path.stem}.{scope}"
             for path in sorted(PACKAGE_DIR.rglob("*.py"))
             for scope in referring_functions(path.read_text(), "build_load_series")]
    assert found == ["load_metrics.build_feature_matrix"]
