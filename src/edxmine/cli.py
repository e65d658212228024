"""Command-line entry point.

Subcommands: validate, pipeline, mine, synth. Exit codes: 0 success,
1 usage error, 2 input error, 3 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
import traceback
from dataclasses import replace
from typing import Callable, Optional

from .engagement import DEFAULT_PASSING_THRESHOLD
from .events import ParseStats
from .manifest import InputError, load_manifest
from .pipeline import (
    RunManifest,
    checked_gap,
    checked_passing_threshold,
    load_run_manifest,
    run_mining,
    run_pipeline,
    validate_files,
)
from .sessions import DEFAULT_GAP
from .store import STORE_NAME
from .synth import generate_corpus, load_corpus_spec, write_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2 for
    # input errors.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _max_len(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _min_support(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be finite and greater than 0, got {text}")
    return value


def _number_then(check: Callable):
    """An argparse type: the text as a float, then ``check`` on it, the same
    check the run config applies."""

    def convert(text: str):
        try:
            return check(float(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return convert


_gap = _number_then(checked_gap)
_threshold = _number_then(checked_passing_threshold)


def _stats_line(label: str, stats: ParseStats) -> str:
    """``label: name=count ...`` over the tallies in field order."""
    return f"{label}: " + " ".join(f"{name}={n}" for name, n in stats.as_dict().items())


def cmd_validate(args) -> int:
    total, per_file = validate_files(args.logs)
    for name, stats in per_file:
        print(_stats_line(name, stats))
    print(_stats_line("TOTAL", total))
    return EXIT_OK


def cmd_pipeline(args) -> int:
    run = load_run_manifest(args.run_config) if args.run_config else RunManifest()
    if args.gap is not None:
        run.gap = args.gap
    if args.passing_threshold is not None:
        run.passing_threshold = args.passing_threshold
    if args.manifest:
        run.manifest = load_manifest(args.manifest)
    result = run_pipeline(
        run,
        args.logs,
        args.out,
        fmt=args.format,
        exclude_no_show=args.exclude_no_show,
    )
    print(_stats_line("parsed", result.parse_stats))
    if result.unmatched_events:
        print(f"unmatched events (no cohort pattern): {result.unmatched_events}")
    for name in sorted(result.files):
        print(f"wrote {result.files[name]}")
    return EXIT_OK


def cmd_mine(args) -> int:
    run = load_run_manifest(args.run_config) if args.run_config else None
    class_names: Optional[list[str]] = None
    if args.classes:
        class_names = [c.strip() for c in args.classes.split(",") if c.strip()]
    files = run_mining(
        run,
        args.logs,
        args.out,
        class_names=class_names,
        min_support=args.min_support,
        max_len=args.max_len,
        granularity="per_user" if args.per_user else "per_session",
        split_check_outcome=args.split_check_outcome,
        collapse_runs=args.collapse_runs,
    )
    for name in sorted(files):
        print(f"wrote {files[name]}")
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = load_corpus_spec(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    try:
        corpus = generate_corpus(spec)
    except InputError as exc:
        raise InputError(f"{args.spec}: {exc}") from None
    events_path, labels_path = write_corpus(corpus, args.out)
    print(f"wrote {events_path} ({len(corpus.lines)} events)")
    print(f"wrote {labels_path} ({len(corpus.labels)} users)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="edxmine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse logs and report line tallies")
    p_validate.add_argument("logs", nargs="+", help="log files (.log or .gz)")
    p_validate.set_defaults(func=cmd_validate)

    p_pipeline = sub.add_parser(
        "pipeline", help="aggregate, classify, and emit all report tables"
    )
    p_pipeline.add_argument("logs", nargs="+")
    p_pipeline.add_argument("--run-config", help="run config JSON")
    p_pipeline.add_argument("--manifest", help="course manifest JSON (overrides the run config's)")
    p_pipeline.add_argument("--out", required=True, help="output directory")
    p_pipeline.add_argument("--gap-minutes", dest="gap", type=_gap, default=None,
                            help="session inactivity gap in minutes, > 0 "
                                 f"(default {DEFAULT_GAP.total_seconds() / 60:g})")
    p_pipeline.add_argument("--passing-threshold", type=_threshold, default=None,
                            help="passing score ratio in (0, 1] "
                                 f"(default {DEFAULT_PASSING_THRESHOLD})")
    p_pipeline.add_argument("--exclude-no-show", action="store_true",
                            help="add no-show-excluded proportions to the breakdown")
    p_pipeline.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    p_pipeline.set_defaults(func=cmd_pipeline)

    p_mine = sub.add_parser("mine", help="mine frequent event sequences per class")
    p_mine.add_argument("logs", nargs="+",
                        help="the logs pipeline read; checked against its store")
    p_mine.add_argument("--out", required=True,
                        help="pipeline output directory (needs classifications.csv and "
                             f"{STORE_NAME})")
    p_mine.add_argument("--run-config",
                        help="run config JSON; its gap and threshold must be the ones "
                             "pipeline used, which mine reads from the store")
    p_mine.add_argument("--class", dest="classes", default=None,
                        help="comma-separated class names (default: all)")
    p_mine.add_argument("--min-support", type=_min_support, default=0.05,
                        help="absolute count, or fraction of sequences when < 1")
    p_mine.add_argument("--max-len", type=_max_len, default=6,
                        help="longest pattern mined, at least 1 (default 6)")
    gran = p_mine.add_mutually_exclusive_group()
    gran.add_argument("--per-session", dest="per_user", action="store_false",
                      help="one sequence per session (default)")
    gran.add_argument("--per-user", dest="per_user", action="store_true",
                      help="one sequence per user")
    p_mine.set_defaults(per_user=False)
    p_mine.add_argument("--split-check-outcome", action="store_true",
                        help="split problem checks into pass/fail symbols")
    p_mine.add_argument("--collapse-runs", action="store_true",
                        help="collapse consecutive duplicate symbols")
    p_mine.set_defaults(func=cmd_mine)

    p_synth = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p_synth.add_argument("--spec", required=True, help="corpus spec JSON")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"edxmine: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
