"""Command-line entry point: ``crowdsky`` / ``python -m repro.experiments``.

Subcommands::

    crowdsky list                     # show all experiment ids
    crowdsky run fig8 --scale ci      # reproduce a figure/table
    crowdsky run all --scale smoke    # run everything (e.g. sanity sweep)
    crowdsky run fig6a --trace t.jsonl --metrics m.prom   # traced run
    crowdsky run fig8 --jobs 4        # fan cells out over 4 processes
    crowdsky run fig8 --no-cache      # recompute every cell
    crowdsky trace summarize t.jsonl  # human-readable trace report
    crowdsky trace summarize t.jsonl --format json        # machine form
    crowdsky trace validate t.jsonl --metrics m.prom      # schema check
    crowdsky skyline --dataset toy --journal-dir j/       # journaled run
    crowdsky resume j/ --dataset toy  # continue an interrupted run
    crowdsky resume j/ --dataset toy --replay             # free re-run
    crowdsky report runs/exp1/        # RunReport (JSON+Markdown) from
                                      # the trace in a directory
    crowdsky bench --suite smoke      # append a benchmark-trajectory
                                      # record; --check gates on the
                                      # committed baseline

``run`` and ``plot`` memoize finished sweep cells in a
content-addressed cache (``--cache-dir``, default
``~/.cache/crowdsky/sweeps``), invalidated automatically whenever any
``repro`` source file changes.

Set ``REPRO_LOG_LEVEL=debug`` (or info/warning) for diagnostic logging
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.exceptions import (
    CrowdSkyError,
    ExperimentError,
    TraceSchemaError,
)
from repro.experiments.bench import (
    SUITES,
    append_record,
    check_against_baseline,
    run_suite,
)
from repro.experiments.registry import (
    available_experiments,
    run_experiment,
)
from repro.experiments.report import format_table
from repro.experiments.sweep import resolve_cache
from repro.obs import observe, read_trace_jsonl, summarize_trace
from repro.obs.logging import configure_logging, level_from_env


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Attach the sweep-engine flags shared by ``run`` and ``plot``."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run sweep cells across N worker processes (0 = one per "
            "CPU; default: 1, rows are identical either way)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "directory for the content-addressed result cache "
            "(default: $REPRO_SWEEP_CACHE_DIR or "
            "~/.cache/crowdsky/sweeps)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache (recompute every cell)",
    )


def _add_dataset_option(parser: argparse.ArgumentParser) -> None:
    """Attach the ``--dataset`` spec shared by ``skyline``/``resume``.

    The dataset itself is never journaled (it can be arbitrarily
    large), so ``resume`` takes the same spec the original run used;
    the journal header's relation fingerprint rejects a mismatch.
    """
    parser.add_argument(
        "--dataset",
        default="toy",
        metavar="SPEC",
        help=(
            "'toy' (the paper's Figure 1 example) or "
            "'synthetic:n=100,known=2,crowd=1,dist=ind,seed=7' "
            "(default: toy)"
        ),
    )


def _parse_dataset(spec: str):
    """Build the relation a ``--dataset`` spec names."""
    from repro.data.synthetic import Distribution, generate_synthetic
    from repro.data.toy import figure1_dataset
    from repro.exceptions import DataError

    if spec == "toy":
        return figure1_dataset()
    if spec.startswith("synthetic:"):
        params = {}
        for part in spec[len("synthetic:"):].split(","):
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep:
                raise DataError(f"malformed dataset parameter {part!r}")
            params[key] = value
        distributions = {
            "ind": Distribution.INDEPENDENT,
            "ant": Distribution.ANTI_CORRELATED,
            "cor": Distribution.CORRELATED,
        }
        dist_key = params.pop("dist", "ind")
        if dist_key not in distributions:
            raise DataError(
                f"unknown distribution {dist_key!r} "
                "(expected ind, ant or cor)"
            )
        try:
            relation = generate_synthetic(
                n=int(params.pop("n", "100")),
                num_known=int(params.pop("known", "2")),
                num_crowd=int(params.pop("crowd", "1")),
                distribution=distributions[dist_key],
                seed=int(params.pop("seed", "0")),
            )
        except ValueError as error:
            raise DataError(f"bad dataset spec {spec!r}: {error}") from None
        if params:
            raise DataError(
                f"unknown dataset parameters: {', '.join(sorted(params))}"
            )
        return relation
    raise DataError(
        f"unknown dataset spec {spec!r} (expected 'toy' or 'synthetic:...')"
    )


def _run_skyline(args) -> int:
    """Execute ``crowdsky skyline``: one (optionally journaled) run."""
    from repro.core.crowdsky import crowdsky, crowdsky_budgeted
    from repro.core.parallel import parallel_dset, parallel_sl
    from repro.crowd.platform import SimulatedCrowd
    from repro.crowd.workers import WorkerPool

    if args.max_questions is not None and args.algorithm != "crowdsky":
        print(
            "error: --max-questions only applies to --algorithm crowdsky",
            file=sys.stderr,
        )
        return 2
    relation = _parse_dataset(args.dataset)
    pool = (
        WorkerPool.uniform(size=args.workers, accuracy=args.accuracy)
        if args.accuracy is not None
        else None
    )
    crowd = SimulatedCrowd(
        relation, pool=pool, seed=args.seed, journal=args.journal_dir
    )
    if args.max_questions is not None:
        result = crowdsky_budgeted(relation, args.max_questions, crowd)
    elif args.algorithm == "parallel-dset":
        result = parallel_dset(relation, crowd)
    elif args.algorithm == "parallel-sl":
        result = parallel_sl(relation, crowd)
    else:
        result = crowdsky(relation, crowd)
    print(result.summary(relation))
    if args.journal_dir is not None:
        print(f"journal: {args.journal_dir}")
    return 0


def _find_run_inputs(directory):
    """Locate the trace (required) and journal of a run directory for
    ``crowdsky report``: the first ``*.jsonl`` that is not a journal
    segment, and a nested journal directory containing ``wal-*``
    segments (or the directory itself)."""
    from pathlib import Path

    from repro.crowd.journal import segment_paths

    root = Path(directory)
    if root.is_file():
        return root, None
    traces = [
        path
        for path in sorted(root.glob("*.jsonl"))
        if not path.name.startswith("wal-")
    ]
    journal = None
    if segment_paths(root):
        journal = root
    else:
        for child in sorted(root.iterdir()):
            if child.is_dir() and segment_paths(child):
                journal = child
                break
    return traces[0] if traces else None, journal


def _journal_stats(directory) -> dict:
    """Plain-dict journal health for a RunReport; the obs layer cannot
    import :mod:`repro.crowd` (RA004), so the CLI bridges the two."""
    from repro.crowd.journal import recover_journal, segment_paths

    recovered = recover_journal(directory, heal=False)
    return {
        "directory": str(directory),
        "segments": len(segment_paths(directory)),
        "postings": len(recovered.postings),
        "kept_records": recovered.kept_records,
        "dropped_records": recovered.dropped_records,
        "truncated": recovered.truncated,
        "problems": list(recovered.problems),
        "has_header": recovered.header is not None,
    }


def _run_report(args) -> int:
    """Execute ``crowdsky report``: assemble a RunReport artifact."""
    from repro.obs.report import build_run_report, write_run_report

    trace_path, journal_dir = _find_run_inputs(args.run)
    if args.journal is not None:
        journal_dir = args.journal
    if trace_path is None:
        print(
            f"error: no JSONL trace found in {args.run}", file=sys.stderr
        )
        return 2
    events = read_trace_jsonl(trace_path)
    journal = _journal_stats(journal_dir) if journal_dir else None
    report = build_run_report(
        events,
        journal=journal,
        meta={"trace": str(trace_path), "run": str(args.run)},
    )
    out_dir = args.output if args.output is not None else args.run
    paths = write_run_report(report, out_dir)
    print(f"report: {paths['json']}")
    print(f"report: {paths['markdown']}")
    return 0


def _run_bench(args) -> int:
    """Execute ``crowdsky bench``: record + optionally gate a suite."""
    record = run_suite(
        args.suite,
        repeats=args.repeats,
        progress=lambda line: print(line, file=sys.stderr),
    )
    total = append_record(record, args.output)
    print(
        f"recorded suite {args.suite!r} ({args.repeats} repeat(s)) -> "
        f"{args.output} ({total} record(s))"
    )
    if not args.check:
        return 0
    findings, message = check_against_baseline(
        record,
        baseline_path=args.baseline,
        tolerance=args.tolerance,
        ignore_fingerprint=args.ignore_fingerprint,
    )
    print(message)
    if findings:
        return 0 if args.report_only else 1
    return 0


def _run_resume(args) -> int:
    """Execute ``crowdsky resume``: continue or replay a journal."""
    from repro.core.resume import replay_run, resume_run

    relation = _parse_dataset(args.dataset)
    if args.replay:
        result = replay_run(args.journal, relation)
    else:
        result = resume_run(args.journal, relation)
    print(result.summary(relation))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdsky",
        description=(
            "Reproduce the tables and figures of 'CrowdSky: Skyline "
            "Computation with Crowdsourcing' (EDBT 2016)."
        ),
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help=(
            "run under the determinism sanitizer: record every "
            "wall-clock read, global-RNG use and os.urandom call "
            "with a stack trace, and exit nonzero if any occur "
            "outside the observability layer"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    run = subparsers.add_parser("run", help="run an experiment")
    run.add_argument(
        "experiment",
        help="experiment id (see 'crowdsky list'), or 'all'",
    )
    run.add_argument(
        "--scale",
        choices=("smoke", "ci", "paper"),
        default="ci",
        help="parameter grid size (default: ci)",
    )
    run.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="additionally write results as JSON to PATH ('-' for stdout)",
    )
    run.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record a structured JSONL event trace of the run to PATH",
    )
    run.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write a Prometheus-style metrics dump of the run to PATH",
    )
    _add_sweep_options(run)

    subparsers.add_parser(
        "demo",
        help="walk through the paper's toy example end to end",
    )

    trace = subparsers.add_parser(
        "trace", help="inspect a recorded JSONL trace"
    )
    trace_actions = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_actions.add_parser(
        "summarize", help="print a human-readable trace report"
    )
    summarize.add_argument("path", help="JSONL trace file")
    summarize.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help=(
            "output format: 'text' (default) or 'json' (the schema-"
            "validated summary RunReports embed)"
        ),
    )
    validate = trace_actions.add_parser(
        "validate", help="check a trace against the event schema"
    )
    validate.add_argument("path", help="JSONL trace file")
    validate.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help=(
            "also check that a Prometheus metrics dump holds exactly "
            "the metrics the trace folds to"
        ),
    )

    skyline = subparsers.add_parser(
        "skyline",
        help="run one crowd skyline computation (optionally journaled)",
    )
    _add_dataset_option(skyline)
    skyline.add_argument(
        "--algorithm",
        choices=("crowdsky", "parallel-dset", "parallel-sl"),
        default="crowdsky",
        help="scheduler to run (default: crowdsky)",
    )
    skyline.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help=(
            "attach a write-ahead journal: the run becomes resumable "
            "with 'crowdsky resume DIR' after a crash"
        ),
    )
    skyline.add_argument(
        "--accuracy",
        type=float,
        default=None,
        metavar="P",
        help=(
            "simulate noisy workers answering correctly with "
            "probability P (default: a perfect crowd)"
        ),
    )
    skyline.add_argument(
        "--workers",
        type=int,
        default=100,
        metavar="N",
        help="worker pool size for --accuracy crowds (default: 100)",
    )
    skyline.add_argument(
        "--seed",
        type=int,
        default=0,
        help="crowd-simulation RNG seed (default: 0)",
    )
    skyline.add_argument(
        "--max-questions",
        type=int,
        default=None,
        metavar="N",
        help=(
            "question budget (crowdsky only): stop after N questions "
            "with a conservative skyline superset"
        ),
    )

    resume = subparsers.add_parser(
        "resume",
        help="continue (or replay) a journaled skyline run",
    )
    resume.add_argument("journal", help="journal directory of the run")
    _add_dataset_option(resume)
    resume.add_argument(
        "--replay",
        action="store_true",
        help=(
            "re-execute a *finished* journal at zero crowd cost "
            "instead of resuming an interrupted one"
        ),
    )

    report = subparsers.add_parser(
        "report",
        help=(
            "assemble a RunReport (JSON + Markdown) from a run "
            "directory's trace and journal"
        ),
    )
    report.add_argument(
        "run",
        help="run directory holding the JSONL trace (or the trace file)",
    )
    report.add_argument(
        "--journal",
        metavar="DIR",
        default=None,
        help="journal directory (default: auto-detected under RUN)",
    )
    report.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help=(
            "directory for report.json / report.md "
            "(default: the run directory)"
        ),
    )

    bench = subparsers.add_parser(
        "bench",
        help=(
            "run the pinned benchmark suite and append a record to the "
            "trajectory file"
        ),
    )
    bench.add_argument(
        "--suite",
        choices=tuple(SUITES),
        default="smoke",
        help=(
            "benchmark suite (default: smoke; scale = the sharded "
            "machine-phase n=10k/100k/1M curve, docs/sharding.md; "
            "crowd-scale = the crowd-phase n=1k..20k curve)"
        ),
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="K",
        help="timed repeats per benchmark; medians are compared "
        "(default: 3)",
    )
    bench.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_trajectory.json",
        help="trajectory file to append to (default: "
        "BENCH_trajectory.json)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="gate the new record against the committed baseline",
    )
    bench.add_argument(
        "--baseline",
        metavar="PATH",
        default="benchmarks/baselines/bench_trajectory.json",
        help="baseline file for --check (default: "
        "benchmarks/baselines/bench_trajectory.json)",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        metavar="FRAC",
        help="allowed slowdown fraction for --check (default: 0.30 = "
        "1.30x)",
    )
    bench.add_argument(
        "--ignore-fingerprint",
        action="store_true",
        help="compare even when the baseline machine differs",
    )
    bench.add_argument(
        "--report-only",
        action="store_true",
        help="print regressions but exit 0 (PR mode)",
    )

    plot = subparsers.add_parser(
        "plot", help="render an experiment as an ASCII chart"
    )
    plot.add_argument("experiment", help="experiment id")
    plot.add_argument(
        "--scale",
        choices=("smoke", "ci", "paper"),
        default="ci",
        help="parameter grid size (default: ci)",
    )
    _add_sweep_options(plot)
    return parser


def _run_demo() -> None:
    """Narrated run of the paper's Figure 1 toy example."""
    from repro.core.crowdsky import crowdsky
    from repro.core.parallel import parallel_dset, parallel_sl
    from repro.data.toy import figure1_dataset

    toy = figure1_dataset()
    print("The paper's toy dataset (Figure 1): 12 tuples a..l with two")
    print("known attributes; the third attribute lives only in crowd")
    print("judgment. SKY_AK = {b, e, i, l} is complete from the start.\n")

    serial = crowdsky(figure1_dataset())
    print(f"Serial CrowdSky asks {serial.stats.questions} questions")
    print("(Example 6 / Figure 4(a) of the paper), one per round:")
    pairs = ", ".join(
        f"({toy.label(a)},{toy.label(b)})" for a, b in serial.asked_pairs()
    )
    print(f"  {pairs}\n")

    dset = parallel_dset(figure1_dataset())
    print(
        f"ParallelDSet groups tuples by |DS(t)|: same "
        f"{dset.stats.questions} questions in {dset.stats.rounds} rounds "
        f"(Example 7)."
    )

    layered = parallel_sl(figure1_dataset())
    print(
        f"ParallelSL activates on the covering graph: "
        f"{layered.stats.rounds} rounds (Table 3):"
    )
    for row in layered.round_table(toy):
        print(f"  round {row['round']}: {row['questions']}")

    labels = ", ".join(sorted(serial.skyline_labels(toy)))
    print(f"\nFinal crowdsourced skyline: {{{labels}}} — Example 2.")


def _run_trace_command(args) -> int:
    """Execute ``crowdsky trace summarize|validate``."""
    from repro.obs.exporters import parse_prometheus_text
    from repro.obs.schema import check_metrics_consistency, validate_events

    try:
        events = read_trace_jsonl(args.path)
    except (OSError, TraceSchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.trace_command == "summarize":
        if getattr(args, "format", "text") == "json":
            from repro.obs.report import trace_summary, validate_trace_summary

            summary = trace_summary(events)
            validate_trace_summary(summary)
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(summarize_trace(events))
        return 0

    errors = validate_events(events)
    if args.metrics is not None:
        try:
            with open(args.metrics) as handle:
                values = parse_prometheus_text(handle.read())
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        errors += check_metrics_consistency(events, values)
    if errors:
        for problem in errors:
            print(f"invalid: {problem}", file=sys.stderr)
        return 1
    print(f"ok: {len(events)} records pass schema validation")
    return 0


#: Path fragments the CLI sanitizer run treats as sanctioned wall-clock
#: users: the obs layer owns timestamps (RunReports, trace exports) by
#: design, and stdlib logging stamps every LogRecord — neither feeds
#: result data. See the threat model in docs/static-analysis.md.
_SANITIZE_ALLOW = ("repro/obs/", "logging/")


def _dispatch_sanitized(args) -> int:
    """Run one invocation under the determinism sanitizer."""
    from repro.analysis.sanitize import DeterminismSanitizer

    with DeterminismSanitizer(
        allow_modules=_SANITIZE_ALLOW
    ) as sanitizer:
        code = _dispatch(args)
    if sanitizer.violations:
        print(sanitizer.report(), file=sys.stderr)
        for violation in sanitizer.violations:
            print(violation.render_stack(), file=sys.stderr)
        return 1
    print(
        "determinism sanitizer: no violations", file=sys.stderr
    )
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    configure_logging(level_from_env())
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "sanitize", False):
            return _dispatch_sanitized(args)
        return _dispatch(args)
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `crowdsky list | head`).
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    """Execute one parsed CLI invocation."""

    if args.command == "list":
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0

    if args.command == "demo":
        _run_demo()
        return 0

    if args.command == "trace":
        return _run_trace_command(args)

    if args.command in ("skyline", "resume", "report", "bench"):
        try:
            if args.command == "skyline":
                return _run_skyline(args)
            if args.command == "report":
                return _run_report(args)
            if args.command == "bench":
                return _run_bench(args)
            return _run_resume(args)
        except (OSError, CrowdSkyError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2

    ids = (
        available_experiments()
        if args.experiment == "all"
        else [args.experiment]
    )
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    observing = (
        observe(trace_path=trace_path, metrics_path=metrics_path)
        if trace_path or metrics_path
        else nullcontext()
    )
    # Caching is on by default for CLI sweeps (the point of the cache
    # is free re-runs); --no-cache recomputes, --cache-dir relocates.
    cache = resolve_cache(
        False if args.no_cache else (args.cache_dir or True)
    )
    results = []
    with observing:
        for experiment_id in ids:
            try:
                result = run_experiment(
                    experiment_id, scale=args.scale,
                    jobs=args.jobs, cache=cache,
                )
            except ExperimentError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
            results.append(result)
            if args.command == "plot":
                from repro.experiments.plots import chart_for_experiment

                print(chart_for_experiment(result))
            else:
                print(format_table(result))
            print()

    if args.command == "run" and args.json is not None:
        payload = json.dumps(
            [
                {
                    "id": result.id,
                    "title": result.title,
                    "columns": list(result.columns),
                    "rows": result.rows,
                    "scale": args.scale,
                }
                for result in results
            ],
            indent=2,
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as handle:
                handle.write(payload)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
