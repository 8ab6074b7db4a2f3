"""Refresh the committed benchmark-trajectory baselines.

Re-runs suites of the benchmark-trajectory harness
(:mod:`repro.experiments.bench`) with the pinned repeat counts, merges
the fresh records into
``benchmarks/baselines/bench_trajectory.json`` (the reference
``crowdsky bench --check`` and the CI gate compare against), and
appends the same records to ``BENCH_trajectory.json`` so the committed
trajectory stays continuous across baseline refreshes.

Usage::

    PYTHONPATH=src python benchmarks/record_bench_baseline.py [suite ...]

With no arguments the default set (``smoke``, ``ci``) is re-recorded;
naming suites (e.g. ``scale``) records only those and *merges* them
into the existing baseline document, leaving the other suites'
committed records untouched — refreshing the minutes-long ``scale``
curve must not invalidate the smoke gate, and vice versa.

Regenerate (and commit both diffs) after an *intentional* performance
change — the gate exists precisely to make unintentional ones loud.
Records carry the recording machine's fingerprint; on other machines
the gate skips unless forced with ``--ignore-fingerprint``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.experiments.bench import SUITES, append_record, run_suite
from repro.io.atomic import atomic_write_text

ROOT = Path(__file__).parent.parent
BASELINE_PATH = ROOT / "benchmarks" / "baselines" / "bench_trajectory.json"
TRAJECTORY_PATH = ROOT / "BENCH_trajectory.json"
DEFAULT_SUITES = ("smoke", "ci")
#: Per-suite repeats: the scale suites run a minute or more per
#: repeat, so their baselines use fewer samples than the fast suites.
REPEATS = {"smoke": 3, "ci": 3, "paper": 3, "scale": 2, "crowd-scale": 1}


def main(argv: list) -> None:
    suites = tuple(argv) or DEFAULT_SUITES
    unknown = [suite for suite in suites if suite not in SUITES]
    if unknown:
        raise SystemExit(
            f"unknown suite(s) {unknown}; pick from {sorted(SUITES)}"
        )
    if BASELINE_PATH.exists():
        document = json.loads(BASELINE_PATH.read_text())
    else:
        document = {"suites": {}}
    for suite in suites:
        repeats = REPEATS.get(suite, 3)
        print(f"== suite {suite} ({repeats} repeats)")
        record = run_suite(suite, repeats=repeats, progress=print)
        document["suites"][suite] = record
        total = append_record(record, TRAJECTORY_PATH)
        print(f"appended to {TRAJECTORY_PATH} ({total} records)")
    atomic_write_text(
        str(BASELINE_PATH),
        json.dumps(document, indent=2, sort_keys=True) + "\n",
    )
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    main(sys.argv[1:])
