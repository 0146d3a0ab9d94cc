"""Generate one workload cohort as CSV files, in its own process.

Usage: python3 perfbench/gen_inputs.py OUT_DIR SEED N_ATHLETES WEEKS MISSING

Writes sessions.csv, injuries.csv and athletes.csv into OUT_DIR plus
meta.json holding the ``synthdata.generate_cohort`` wall time.  The files
appear under OUT_DIR only once complete.  A separate process keeps the
generator's memory out of the benchmark's peak RSS.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time


def main(argv) -> int:
    out_dir, seed, n_athletes, weeks, missing = argv
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from injurylab.synthdata import generate_cohort, signal_config, write_cohort_csvs

    # every athlete plays every season, so the row count, and with it the
    # work per op, does not vary with the seed
    config = signal_config(seed=int(seed), n_athletes=int(n_athletes),
                           seasons=(2014, 2015, 2016), season_weeks=int(weeks),
                           missing_rate=float(missing), newcomer_fraction=0.0)
    started = time.perf_counter()
    cohort = generate_cohort(config)
    generate_s = time.perf_counter() - started
    partial = out_dir + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    write_cohort_csvs(cohort, partial)
    with open(os.path.join(partial, "meta.json"), "w") as fh:
        json.dump({"generate_s": generate_s, "sessions": len(cohort.sessions),
                   "seed": int(seed)}, fh)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.replace(partial, out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
