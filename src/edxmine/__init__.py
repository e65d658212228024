"""Batch analytics for edX-style tracking logs.

Parses newline-delimited JSON event logs, reconstructs per-student video and
problem engagement, classifies each student into one of eight ordinal
behavior categories, mines frequent interaction sequences, and emits
cohort-comparison report tables.
"""

from .classify import CLASS_NAMES, OrdinalClass, RuleConfig, classify
from .engagement import (
    DEFAULT_PASSING_THRESHOLD,
    ProblemRecord,
    StudentAggregate,
    WatchRecord,
    aggregate_corpus,
    aggregate_student,
    problem_history,
    reconstruct_intervals,
    score_r,
)
from .events import (
    Event,
    EventType,
    FilteredOut,
    Malformed,
    ParseStats,
    classify_event_type,
    event_of,
    iter_events,
    parse_line,
)
from .manifest import (
    BlockKind,
    CourseManifest,
    content_counts,
    load_manifest,
)
from .patterns import encode_sequences, mine, prefixspan
from .pipeline import RunManifest, run_pipeline
from .sessions import build_sessions, weekly_presence
from .synth import CorpusSpec, PersonaSpec, default_corpus_spec, generate_corpus

__version__ = "0.1.0"

__all__ = [
    "CLASS_NAMES",
    "BlockKind",
    "CorpusSpec",
    "CourseManifest",
    "DEFAULT_PASSING_THRESHOLD",
    "Event",
    "EventType",
    "FilteredOut",
    "Malformed",
    "OrdinalClass",
    "ParseStats",
    "PersonaSpec",
    "ProblemRecord",
    "RuleConfig",
    "RunManifest",
    "StudentAggregate",
    "WatchRecord",
    "aggregate_corpus",
    "aggregate_student",
    "build_sessions",
    "classify",
    "classify_event_type",
    "content_counts",
    "default_corpus_spec",
    "encode_sequences",
    "event_of",
    "generate_corpus",
    "iter_events",
    "load_manifest",
    "mine",
    "parse_line",
    "prefixspan",
    "problem_history",
    "reconstruct_intervals",
    "run_pipeline",
    "score_r",
    "weekly_presence",
]
