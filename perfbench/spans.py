"""Tracing for the benchmark's traced run, and the per-layer metrics it yields.

The tracer wraps edxmine's public functions at the places where the CLI,
``edxmine.pipeline``, ``edxmine.patterns`` and ``edxmine.reports`` look them
up, so the program itself stays unedited. Each call records a span: a name,
a start, an end and the span that caused it. Spans stay in memory and are
exported when the command ends. A function that no longer exists is
recorded as absent, and every metric that needs it is reported as absent.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Optional

# (metric, unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = [
    ("setup.import_s", "s", "lower"),
    ("setup.load_config_s", "s", "lower"),
    ("events.parse_s", "s", "lower"),
    ("events.lines_read", "count", "lower"),
    ("events.retained", "count", "lower"),
    ("events.malformed", "count", "lower"),
    ("events.filtered_out", "count", "lower"),
    ("events.retained_share", "ratio", "higher"),
    ("pipeline.validate_files_s", "s", "lower"),
    ("pipeline.parse_files_s", "s", "lower"),
    ("pipeline.assign_cohorts_s", "s", "lower"),
    ("pipeline.resolve_anchor_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("engagement.collect_s", "s", "lower"),
    ("engagement.finalize_s", "s", "lower"),
    ("engagement.students", "count", "lower"),
    ("engagement.events_buffered", "count", "lower"),
    ("classify.classify_s", "s", "lower"),
    ("classify.students", "count", "lower"),
    ("reports.enrollment_s", "s", "lower"),
    ("sessions.build_sessions_s", "s", "lower"),
    ("reports.weekly_s", "s", "lower"),
    ("reports.breakdown_s", "s", "lower"),
    ("reports.score_stats_s", "s", "lower"),
    ("reports.write_s", "s", "lower"),
    ("mine.read_classifications_s", "s", "lower"),
    ("mine.parse_files_s", "s", "lower"),
    ("mine.self_s", "s", "lower"),
    ("patterns.encode_s", "s", "lower"),
    ("patterns.prefixspan_s", "s", "lower"),
    ("patterns.sequences", "count", "lower"),
    ("patterns.mean_sequence_len", "symbols", "lower"),
    ("patterns.patterns_found", "count", "lower"),
    ("patterns.contrast_s", "s", "lower"),
    ("patterns.write_s", "s", "lower"),
    ("cli.validate_s", "s", "lower"),
    ("cli.pipeline_s", "s", "lower"),
    ("cli.mine_s", "s", "lower"),
]


class Tracer:
    """Spans of one command, as ``[name, parent, start, end, busy]`` lists.

    ``busy`` is set for generator spans only: the time spent inside the
    generator, which its consumer interleaves with its own work.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def _parent(self) -> Optional[int]:
        # A span opened on a pool thread belongs to the main thread's open span.
        stack = self._stacks.get(threading.get_ident()) or self._stacks.get(self._main)
        return stack[-1] if stack else None

    def _open(self, name: str) -> int:
        self.spans.append([name, self._parent(), time.perf_counter(), None, None])
        return len(self.spans) - 1

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a traced call; ``after(tracer, args,
        kwargs, result)`` records counts."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            stack = tracer._stacks.setdefault(threading.get_ident(), [])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[index][3] = time.perf_counter()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str, after: Callable) -> None:
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(name)
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            busy = 0.0
            try:
                inner = fn(*args, **kwargs)
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - start
                        break
                    busy += time.perf_counter() - start
                    yield item
            finally:
                tracer.spans[index][3] = time.perf_counter()
                tracer.spans[index][4] = busy
            after(tracer, args, kwargs, None)

        setattr(owner, attr, traced)

    def export(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "absent": self.absent}


def _count_stats(tracer: Tracer, args, kwargs, _result) -> None:
    stats = args[1] if len(args) > 1 else kwargs.get("stats")
    for field in ("lines_read", "retained", "malformed", "filtered_out"):
        value = getattr(stats, field, None)
        if value is None:
            tracer.absent.append(f"events.{field}")
        else:
            tracer.count(f"events.{field}", value)


def _count_buffered(tracer: Tracer, _args, _kwargs, states) -> None:
    try:
        buffered = sum(
            len(evs)
            for state in states.values()
            for bucket in (state.video_events, state.problem_events)
            for evs in bucket.values()
        )
    except AttributeError:
        tracer.absent.append("engagement.events_buffered")
        return
    tracer.count("engagement.events_buffered", buffered)


def _count_sequences(tracer: Tracer, _args, _kwargs, result) -> None:
    sequences = result[0]
    tracer.count("patterns.sequences", len(sequences))
    tracer.count("patterns.symbols", sum(len(s.symbols) for s in sequences))


def _count_patterns(tracer: Tracer, _args, _kwargs, result) -> None:
    tracer.count("patterns.patterns_found", len(result))


def install(tracer: Tracer) -> None:
    """Wrap the program's layer boundaries for one command."""
    import edxmine.cli as cli
    import edxmine.engagement as engagement
    import edxmine.patterns as patterns
    import edxmine.pipeline as pipeline
    import edxmine.reports as reports

    tracer.wrap_generator(pipeline, "iter_events", "events.iter_events", _count_stats)
    for name in ("validate_files", "run_pipeline", "run_mining"):
        tracer.wrap(cli, name, f"pipeline.{name}")
    for name in ("parse_log_files", "assign_cohorts", "resolve_anchor", "read_classifications"):
        tracer.wrap(pipeline, name, f"pipeline.{name}")
    tracer.wrap(pipeline, "collect_student_events", "engagement.collect_student_events",
                _count_buffered)
    tracer.wrap(engagement.StudentEvents, "finalize", "engagement.finalize")
    tracer.wrap(pipeline, "classify", "classify.classify")
    for name in ("enrollment_table", "weekly_report", "categorical_breakdown",
                 "score_comparison", "scorer_distribution", "write_report"):
        tracer.wrap(pipeline, name, f"reports.{name}")
    tracer.wrap(reports, "build_sessions", "sessions.build_sessions")
    tracer.wrap(pipeline, "encode_sequences", "patterns.encode_sequences", _count_sequences)
    tracer.wrap(patterns, "prefixspan", "patterns.prefixspan", _count_patterns)
    for name in ("contrast_patterns", "write_patterns_csv", "write_contrast_csv"):
        tracer.wrap(pipeline, name, f"patterns.{name}")


# -- per-layer metrics from exported spans -------------------------------------

def _duration(span: list) -> float:
    return span[4] if span[4] is not None else span[3] - span[2]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


class _Command:
    def __init__(self, export: dict):
        self.spans = export["spans"]
        self.counters = export["counters"]
        self.absent = set(export["absent"])

    def _under(self, index: Optional[int], ancestor: str) -> bool:
        while index is not None:
            if self.spans[index][0] == ancestor:
                return True
            index = self.spans[index][1]
        return False

    def total(self, name: str, under: Optional[str] = None) -> float:
        return sum(
            _duration(s) for s in self.spans
            if s[0] == name and (under is None or self._under(s[1], under))
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Duration of ``name``'s spans minus the part their children cover;
        a generator child covers the whole interval it was open."""
        total = 0.0
        for index, span in enumerate(self.spans):
            if span[0] != name:
                continue
            children = [(c[2], c[3]) for c in self.spans if c[1] == index]
            total += span[3] - span[2] - _covered(children)
        return total


# metric -> (span or counter names it needs, how to compute it from one command)
_DERIVED: dict[str, tuple[tuple[str, ...], Callable]] = {
    "events.parse_s": (("events.iter_events",), lambda c: c.total("events.iter_events")),
    "pipeline.validate_files_s": (("pipeline.validate_files",), lambda c: c.total("pipeline.validate_files")),
    "pipeline.parse_files_s": (
        ("pipeline.parse_log_files", "pipeline.run_pipeline"),
        lambda c: c.total("pipeline.parse_log_files", under="pipeline.run_pipeline"),
    ),
    "pipeline.assign_cohorts_s": (("pipeline.assign_cohorts",), lambda c: c.total("pipeline.assign_cohorts")),
    "pipeline.resolve_anchor_s": (("pipeline.resolve_anchor",), lambda c: c.total("pipeline.resolve_anchor")),
    "pipeline.self_s": (("pipeline.run_pipeline",), lambda c: c.self_time("pipeline.run_pipeline")),
    "engagement.collect_s": (
        ("engagement.collect_student_events",), lambda c: c.total("engagement.collect_student_events")
    ),
    "engagement.finalize_s": (("engagement.finalize",), lambda c: c.total("engagement.finalize")),
    "engagement.students": (("engagement.finalize",), lambda c: c.calls("engagement.finalize")),
    "classify.classify_s": (("classify.classify",), lambda c: c.total("classify.classify")),
    "classify.students": (("classify.classify",), lambda c: c.calls("classify.classify")),
    "reports.enrollment_s": (("reports.enrollment_table",), lambda c: c.total("reports.enrollment_table")),
    "sessions.build_sessions_s": (("sessions.build_sessions",), lambda c: c.total("sessions.build_sessions")),
    "reports.weekly_s": (("reports.weekly_report",), lambda c: c.total("reports.weekly_report")),
    "reports.breakdown_s": (
        ("reports.categorical_breakdown",), lambda c: c.total("reports.categorical_breakdown")
    ),
    "reports.score_stats_s": (
        ("reports.score_comparison", "reports.scorer_distribution"),
        lambda c: c.total("reports.score_comparison") + c.total("reports.scorer_distribution"),
    ),
    "reports.write_s": (("reports.write_report",), lambda c: c.total("reports.write_report")),
    "mine.read_classifications_s": (
        ("pipeline.read_classifications",), lambda c: c.total("pipeline.read_classifications")
    ),
    "mine.parse_files_s": (
        ("pipeline.parse_log_files", "pipeline.run_mining"),
        lambda c: c.total("pipeline.parse_log_files", under="pipeline.run_mining"),
    ),
    "mine.self_s": (("pipeline.run_mining",), lambda c: c.self_time("pipeline.run_mining")),
    "patterns.encode_s": (("patterns.encode_sequences",), lambda c: c.total("patterns.encode_sequences")),
    "patterns.prefixspan_s": (("patterns.prefixspan",), lambda c: c.total("patterns.prefixspan")),
    "patterns.contrast_s": (("patterns.contrast_patterns",), lambda c: c.total("patterns.contrast_patterns")),
    "patterns.write_s": (
        ("patterns.write_patterns_csv", "patterns.write_contrast_csv"),
        lambda c: c.total("patterns.write_patterns_csv") + c.total("patterns.write_contrast_csv"),
    ),
}
_COUNTED = (
    "events.lines_read", "events.retained", "events.malformed", "events.filtered_out",
    "engagement.events_buffered", "patterns.sequences", "patterns.symbols",
    "patterns.patterns_found",
)


def round_metrics(exports: list[dict]) -> tuple[dict[str, float], set[str]]:
    """Per-layer values of one round (its commands' traces summed), plus the
    names of metrics that could not be measured."""
    commands = [_Command(e) for e in exports]
    absent = set().union(*(c.absent for c in commands))
    values: dict[str, float] = {}
    for metric, (needs, compute) in _DERIVED.items():
        if absent.isdisjoint(needs):
            values[metric] = sum(compute(c) for c in commands)
    for name in _COUNTED:
        if name not in absent:
            values[name] = sum(c.counters.get(name, 0) for c in commands)
    if "events.lines_read" in values and "events.retained" in values:
        values["events.retained_share"] = values["events.retained"] / values["events.lines_read"]
    if "patterns.symbols" in values and values.get("patterns.sequences"):
        values["patterns.mean_sequence_len"] = values["patterns.symbols"] / values["patterns.sequences"]
    values.pop("patterns.symbols", None)
    return values, absent
