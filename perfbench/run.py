"""Run one CrowdSky benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serial-ind-perfect --seed 7 \\
        --seconds 10 --trace 0

Run from the repository root. The program is imported from ``src/``
next to this directory. ``--trace 0`` runs the queries untraced and
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the traced pass and the memory pass and reports the per-layer
metrics. Informational lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Without an importable program the script
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: BLAS threads for numpy's matmul (``FrequencyOracle.freq_matrix``);
#: the benchmark is one client in one process.
BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-up is measured this many times, each in a fresh process (this
#: one and ``SETUP_SAMPLES - 1`` children); ``setup_s`` is the median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 120
#: Speed-probe kernels run after set-up (about 0.2 s); set-up time is
#: divided by the slowdown they measure.
SETUP_PROBE_KERNELS = 20


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: measure one set-up in this fresh process and exit.
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_setup_s(args: argparse.Namespace) -> float:
    """One set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def reference_setup_s(start: float) -> float:
    """Set-up time since ``start``, in reference seconds."""
    raw = time.perf_counter() - start
    return raw / speed.slowdown([speed.probe(SETUP_PROBE_KERNELS)])


def main(argv: Optional[List[str]] = None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    for variable in BLAS_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
        import repro
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"imported {repro.__file__}, not the program in "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; pick from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.setup_only:
            harness.setup(workload, args.seed,
                          harness.query_count(args.seconds), scratch)
            print(json.dumps({"setup_s": reference_setup_s(start)}))
            return 0
        info: Dict[str, object] = {
            "workload": workload.name, "seed": args.seed,
            "blas_threads": int(BLAS_THREADS),
        }
        if args.trace:
            harness.setup(workload, args.seed, 0, scratch)
            pairs = harness.query_count(args.seconds, per_query=2)
            metrics = harness.traced_run(workload, args.seed, pairs, scratch)
            metrics.update(harness.memory_pass(workload, args.seed, scratch))
            info["traced_pairs"] = pairs
            kind = "per_layer"
        else:
            queries = harness.setup(workload, args.seed,
                                    harness.query_count(args.seconds),
                                    scratch)
            own_setup_s = reference_setup_s(start)
            metrics = harness.timed_run(workload, queries)
            metrics["peak_rss_bytes"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            )
            samples = [own_setup_s] + [
                child_setup_s(args) for _ in range(SETUP_SAMPLES - 1)
            ]
            metrics["setup_s"] = statistics.median(samples)
            info["queries"] = len(queries)
            for key in ("first_query_ratio", "slowdown", "raw_query_p50_s"):
                info[key] = metrics.pop(key)
            kind = "end_to_end"
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = metrics.pop("attempted")
    failed = metrics.pop("failed")
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
            f"the {kind} list of BENCHMARK.json"
        )
    for key, value in info.items():
        print(f"{key}: {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
