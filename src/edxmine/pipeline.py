"""File-based pipeline orchestration: parse, aggregate, classify, report, mine.

Stages communicate via files so each is independently re-runnable. Given the
same inputs and flags every stage writes byte-identical outputs: files are
parsed in input order, aggregation state merges commutatively, and all rows
are emitted in sorted order.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from datetime import date, timedelta
from functools import reduce
from itertools import chain, repeat
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from .classify import (
    CLASS_NAMES, FieldCheck, OrdinalClass, RuleConfig, check_fields, classify, reject_unknown_keys,
)
from .engagement import (
    DEFAULT_PASSING_THRESHOLD,
    StudentAggregate,
    StudentEvents,
    StudentKey,
    Students,
    as_datetime,
    collect_student_events,
)
from .events import Head, ParseStats, event_of, iter_events, parse_date
from .manifest import CourseManifest, InputError, load_manifest, read_json
from .patterns import (
    MiningResult,
    contrast_patterns,
    encode_sequences,
    mine,
    write_contrast_csv,
    write_patterns_csv,
)
from .reports import (
    CohortId,
    categorical_breakdown,
    enrollment_table,
    score_comparison,
    scorer_distribution,
    weekly_report,
    write_report,
)
from .sessions import DEFAULT_GAP
from .store import MAX_GAP, STORE_NAME, log_checksums, read_store, write_store


@dataclass(frozen=True)
class CohortRule:
    pattern: str  # regex searched against course_id
    cohort: CohortId


@dataclass
class RunManifest:
    """Run configuration: cohort mapping, thresholds, session gap, anchors."""

    manifest: Optional[CourseManifest] = None
    rules: RuleConfig = field(default_factory=RuleConfig)
    passing_threshold: float = DEFAULT_PASSING_THRESHOLD
    gap: timedelta = DEFAULT_GAP
    cohorts: list[CohortRule] = field(default_factory=list)
    anchors: dict = field(default_factory=dict)  # cohort label -> date

    def __post_init__(self) -> None:
        if not self.cohorts:
            self.cohorts = [CohortRule(".*", CohortId("online", "all"))]


_RUN_KEYS = {"manifest", "cohorts", "rules", "passing_threshold", "gap_minutes", "anchors"}
_COHORT_KEYS = {"pattern", "modality", "term"}
# The types of the keys that hold structure; checked_gap and
# checked_passing_threshold check the two numbers.
_RUN_CHECKS: dict[str, FieldCheck] = {
    "manifest": ((str, type(None)), None),
    "cohorts": ((list,), None),
    "rules": ((dict,), None),
    "anchors": ((dict, type(None)), None),
}
_COHORT_CHECKS: dict[str, FieldCheck] = {"pattern": ((str,), None), "term": ((str, int), None)}


def checked_gap(minutes) -> timedelta:
    """The session gap of ``minutes``, which must be a number (not a bool)
    whose time span is positive and no longer than the state store holds,
    so finite. This is the run config's check. Raises ValueError."""
    try:
        gap = timedelta(minutes=minutes)
    except (TypeError, OverflowError, ValueError):  # not a number, too large, infinite, NaN
        gap = None
    if isinstance(minutes, bool) or gap is None or not timedelta(0) < gap <= MAX_GAP:
        raise ValueError(
            f"gap_minutes must be a number greater than 0 and at most "
            f"{MAX_GAP // timedelta(minutes=1)} (2**63 - 1 microseconds), got {minutes!r}"
        )
    return gap


def checked_passing_threshold(value) -> float:
    """``value`` as a passing score ratio: a number (not a bool) in (0, 1],
    so not NaN. This is the run config's check. Raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= 1:
        raise ValueError(f"passing_threshold must be a number in (0, 1], got {value!r}")
    return float(value)


def load_run_manifest(path: Union[str, Path]) -> RunManifest:
    """Load and validate a run config JSON file. Unknown keys are rejected
    and referenced paths must exist."""
    path = Path(path)
    obj = read_json(path, InputError)
    if not isinstance(obj, dict):
        raise InputError(f"{path}: run config must be a JSON object")
    try:
        reject_unknown_keys(obj, _RUN_KEYS, "run config keys")
        check_fields(obj, _RUN_CHECKS)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")

    manifest = None
    if obj.get("manifest"):
        manifest_path = Path(obj["manifest"])
        if not manifest_path.is_absolute():
            manifest_path = path.parent / manifest_path
        if not manifest_path.exists():
            raise InputError(f"{path}: manifest not found: {manifest_path}")
        manifest = load_manifest(manifest_path)

    cohorts = []
    for i, entry in enumerate(obj.get("cohorts", [])):
        if not isinstance(entry, dict):
            raise InputError(f"{path}: cohorts[{i}] must be an object")
        try:
            reject_unknown_keys(entry, _COHORT_KEYS, "keys")
            check_fields(entry, _COHORT_CHECKS)
            compiled = re.compile(entry["pattern"])
        except ValueError as exc:
            raise InputError(f"{path}: cohorts[{i}] {exc}")
        except (KeyError, re.error) as exc:
            raise InputError(f"{path}: cohorts[{i}] bad pattern ({exc})")
        modality = entry.get("modality", "online")
        if modality not in ("on_campus", "online"):
            raise InputError(f"{path}: cohorts[{i}] modality must be on_campus or online")
        cohorts.append(
            CohortRule(compiled.pattern, CohortId(modality, str(entry.get("term", "all"))))
        )

    try:
        rules = RuleConfig.from_dict(obj.get("rules", {}))
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad rules ({exc})")

    anchors = {}
    for label, raw in (obj.get("anchors") or {}).items():
        try:
            anchors[label] = parse_date(raw)
        except (TypeError, ValueError):
            raise InputError(f"{path}: bad anchor date for {label!r}: {raw!r}")

    try:
        gap = checked_gap(obj["gap_minutes"]) if "gap_minutes" in obj else DEFAULT_GAP
        passing = checked_passing_threshold(
            obj.get("passing_threshold", DEFAULT_PASSING_THRESHOLD)
        )
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")

    return RunManifest(
        manifest=manifest,
        rules=rules,
        passing_threshold=passing,
        gap=gap,
        cohorts=cohorts,
        anchors=anchors,
    )


def _log_paths(paths: Sequence[Union[str, Path]]) -> list[Path]:
    """``paths`` as paths; a missing file is an input error before any log
    is read."""
    paths = [Path(p) for p in paths]
    for p in paths:
        if not p.exists():
            raise InputError(f"log file not found: {p}")
    return paths


def _file_heads(paths: Sequence[Union[str, Path]], per_file: list) -> Iterator[Head]:
    """The heads of many files' retained lines in input order. Each file's
    tallies are appended to ``per_file`` as it is opened. A missing file is
    an input error before any log is read."""

    def parse(path: Path) -> Iterator[Head]:
        stats = ParseStats()
        per_file.append((str(path), stats))
        return iter_events(path, stats)

    # chain, not a generator of ours, so no extra frame resumes per line.
    return chain.from_iterable(map(parse, _log_paths(paths)))


def _total(per_file: list) -> ParseStats:
    return reduce(ParseStats.merge, (stats for _, stats in per_file), ParseStats())


def parse_log_files(
    paths: Sequence[Union[str, Path]],
) -> tuple[ParseStats, dict[StudentKey, StudentEvents], list[tuple[str, ParseStats]]]:
    """Parse many files in one pass into per-(user, course) states, keeping
    no list of events: the total tallies, the states, and each file's
    tallies. Equal ids share one string object across the files."""
    per_file: list[tuple[str, ParseStats]] = []
    students = collect_student_events(map(event_of, _file_heads(paths, per_file), repeat({})))
    return _total(per_file), students, per_file


def validate_files(
    paths: Sequence[Union[str, Path]],
) -> tuple[ParseStats, list[tuple[str, ParseStats]]]:
    """Streaming per-file parse tallies; no event is built."""
    per_file: list[tuple[str, ParseStats]] = []
    for _ in _file_heads(paths, per_file):
        pass
    return _total(per_file), per_file


def assign_cohorts(
    students: Students, cohorts: Sequence[CohortRule]
) -> tuple[dict[CohortId, dict[StudentKey, StudentEvents]], int]:
    """First-match cohort per course_id, each course_id matched once; the
    events of students in no cohort are dropped and counted."""
    compiled = [(re.compile(rule.pattern), rule.cohort) for rule in cohorts]
    cohort_of: dict[str, Optional[CohortId]] = {}
    by_cohort: dict[CohortId, dict[StudentKey, StudentEvents]] = {}
    unmatched = 0
    for key, student in students.items():
        course = student.course_id
        if course not in cohort_of:
            cohort_of[course] = next(
                (c for pattern, c in compiled if pattern.search(course)), None
            )
        cohort = cohort_of[course]
        if cohort is None:
            unmatched += len(student)
        else:
            by_cohort.setdefault(cohort, {})[key] = student
    return by_cohort, unmatched


def _year_from_label(label: str) -> Optional[int]:
    match = re.search(r"(19|20)\d{2}", label)
    return int(match.group(0)) if match else None


def resolve_anchor(
    cohort: CohortId, run: RunManifest, students: Students
) -> date:
    """Weekly anchor: explicit config, else course start for on-campus,
    else January 1 of the online instance year, else the cohort's earliest
    event."""
    if cohort.label in run.anchors:
        return run.anchors[cohort.label]
    if cohort.modality == "on_campus" and run.manifest and run.manifest.course_start:
        return run.manifest.course_start
    online = cohort.modality == "online"
    year = _year_from_label(cohort.term_label) if online else None
    if year is not None:
        return date(year, 1, 1)
    if not students:
        return date(1970, 1, 1)
    earliest = as_datetime(min(min(student.times) for student in students.values()))
    return date(earliest.year, 1, 1) if online else earliest.date()


@dataclass
class PipelineResult:
    files: dict
    parse_stats: ParseStats
    unmatched_events: int
    aggregates: list  # (cohort, StudentAggregate, OrdinalClass)


def run_pipeline(
    run: RunManifest,
    log_paths: Sequence[Union[str, Path]],
    out_dir: Union[str, Path],
    fmt: str = "csv",
    exclude_no_show: bool = False,
) -> PipelineResult:
    """Full batch: validate/parse, aggregate, classify, emit all report tables,
    and store the states for :func:`run_mining`."""
    # Inputs are read before any output exists, so a bad input writes nothing.
    # The checksums come first: reading while the states are alive would
    # raise the peak RSS.
    log_paths = _log_paths(log_paths)
    logs = log_checksums(log_paths)
    total_stats, students, per_file = parse_log_files(log_paths)
    by_cohort, unmatched = assign_cohorts(students, run.cohorts)
    del students  # the states of students in no cohort go with it

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Every student in one (course, user) order, which the rows and the store
    # keep; the reports order the cohorts themselves.
    members = sorted(
        ((cohort, state) for cohort, students in by_cohort.items() for state in students.values()),
        key=lambda member: (member[1].course_id, member[1].user_id),
    )
    pairs_by_cohort: dict[CohortId, list[tuple[StudentAggregate, OrdinalClass]]] = {}
    rows = []
    for cohort, state in members:
        agg = state.finalize(run.manifest, run.passing_threshold)
        assigned = classify(agg, run.rules)
        pairs_by_cohort.setdefault(cohort, []).append((agg, assigned))
        rows.append((cohort, agg, assigned))

    # Finalize has put every state in total order.
    files = {"states": write_store(
        out_dir / STORE_NAME, logs, run.passing_threshold, run.gap, [state for _, state in members]
    )}

    aggregates_path = out_dir / "aggregates.jsonl"
    with open(aggregates_path, "w", encoding="utf-8") as handle:
        for _, agg, _ in rows:
            handle.write(agg.to_json() + "\n")
    files["aggregates"] = aggregates_path

    classifications_path = out_dir / "classifications.csv"
    with open(classifications_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user_id", "course_id", "cohort", "class"])
        for cohort, agg, assigned in rows:
            writer.writerow([agg.user_id, agg.course_instance, cohort.label, assigned.value])
    files["classifications"] = classifications_path

    ext = "csv" if fmt == "csv" else "jsonl"
    anchors = {
        cohort: resolve_anchor(cohort, run, by_cohort[cohort]) for cohort in by_cohort
    }
    weekly_rows, weekly_dropped = weekly_report(by_cohort, anchors)
    report_tables = {
        "enrollment": (enrollment_table(by_cohort, run.gap), "enrollment"),
        "breakdown": (
            categorical_breakdown(
                {c: [assigned for _, assigned in pairs] for c, pairs in pairs_by_cohort.items()},
                exclude_no_show=exclude_no_show,
            ),
            "breakdown",
        ),
        "score_comparison": (score_comparison(
            {c: [agg for agg, _ in pairs] for c, pairs in pairs_by_cohort.items()}
        ), "scores"),
        "scorer_distribution": (scorer_distribution(pairs_by_cohort), "scores"),
        "weekly": (weekly_rows, "weekly"),
    }
    for name, (table_rows, kind) in report_tables.items():
        table_path = out_dir / f"{name}.{ext}"
        write_report(table_path, table_rows, fmt=fmt, kind=kind)
        files[name] = table_path

    meta_path = out_dir / "run_meta.json"
    meta = {
        "parse_stats": total_stats.as_dict(),
        "per_file_stats": {name: stats.as_dict() for name, stats in per_file},
        "unmatched_events": unmatched,
        "weekly_dropped_before_anchor": weekly_dropped,
        "anchors": {c.label: d.isoformat() for c, d in anchors.items()},
        "config": {
            "passing_threshold": run.passing_threshold,
            "gap_minutes": run.gap.total_seconds() / 60,
            "exclude_no_show": exclude_no_show,
            "format": fmt,
        },
        "notes": {
            "score_comparison": "per-student mean first/final scores, not per-attempt pooling",
            "quartiles": "linear interpolation between closest ranks",
        },
    }
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
    files["run_meta"] = meta_path

    return PipelineResult(
        files=files,
        parse_stats=total_stats,
        unmatched_events=unmatched,
        aggregates=rows,
    )


def read_classifications(path: Union[str, Path]) -> dict[tuple[str, str], str]:
    """(user_id, course_id) -> class name from a pipeline classifications.csv.
    A file that is not UTF-8 CSV with those three columns is an input error."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"classifications file not found: {path}")
    out: dict[tuple[str, str], str] = {}
    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                out[(row["user_id"], row["course_id"])] = row["class"]
    except KeyError as exc:
        raise InputError(f"{path}: classifications file has no {exc} column")
    except (ValueError, csv.Error) as exc:  # ValueError includes UnicodeDecodeError
        raise InputError(f"{path}: unreadable classifications file ({exc})")
    return out


def resolve_min_support(spec: float, n_sequences: int) -> int:
    """Absolute count, or a fraction of the database when spec < 1. Either
    rounds up: a count reaches 2.5 only when it reaches 3. A fraction is
    the decimal as written, so 0.07 of 100 sequences is 7, where the float
    product 7.000000000000001 would round up to 8."""
    if spec >= 1:
        return math.ceil(spec)
    # Imported here: fractions pulls in decimal, which only mining needs.
    from fractions import Fraction

    return max(1, math.ceil(Fraction(repr(spec)) * n_sequences))


def run_mining(
    run: Optional[RunManifest],
    log_paths: Sequence[Union[str, Path]],
    out_dir: Union[str, Path],
    class_names: Optional[Sequence[str]] = None,
    min_support: float = 0.05,
    max_len: int = 6,
    granularity: str = "per_session",
    split_check_outcome: bool = False,
    collapse_runs: bool = False,
) -> dict:
    """Per-class pattern tables plus the cross-class contrast table, written
    to ``out_dir``, whose ``classifications.csv`` and state store (as
    :func:`run_pipeline` writes them) give each student's class and events.
    The sequences are built with the passing threshold and session gap the
    store holds, the ones ``pipeline`` ran with. ``log_paths`` and ``run``
    identify that run and are not otherwise read: the logs must be the ones
    the store was read from, by size and CRC-32, in any order, and ``run``,
    when given, must hold the stored threshold and gap."""
    if class_names:
        unknown = [n for n in class_names if n not in CLASS_NAMES]
        if unknown:
            raise InputError(
                f"unknown class name(s) {unknown}; valid names: {', '.join(CLASS_NAMES)}"
            )
        selected = list(dict.fromkeys(class_names))
    else:
        selected = list(CLASS_NAMES)

    out_dir = Path(out_dir)
    student_classes = read_classifications(out_dir / "classifications.csv")
    logs = log_checksums(_log_paths(log_paths))
    store = out_dir / STORE_NAME
    stored_logs, passing_threshold, gap, students = read_store(store)
    if sorted(logs) != sorted(stored_logs):
        raise InputError(f"{store}: the logs given are not the ones pipeline read into it")
    if run is not None and (run.passing_threshold, run.gap) != (passing_threshold, gap):
        raise InputError(
            f"{store}: pipeline ran with passing_threshold {passing_threshold} and gap_minutes "
            f"{gap.total_seconds() / 60}, the run config gives {run.passing_threshold} and "
            f"{run.gap.total_seconds() / 60}"
        )
    students_by_class: dict[str, dict[StudentKey, StudentEvents]] = {
        name: {} for name in selected
    }
    for student in students:
        key = (student.user_id, student.course_id)
        bucket = students_by_class.get(student_classes.get(key))
        if bucket is not None:
            bucket[key] = student
    del students

    # Encode every class before mining any, so the students' states are
    # freed before the miner builds its bitsets.
    sequences_by_class = {}
    for name in selected:
        sequences_by_class[name], alphabet = encode_sequences(
            students_by_class.pop(name),
            granularity=granularity,
            split_check_outcome=split_check_outcome,
            passing_threshold=passing_threshold,
            gap=gap,
            collapse_runs=collapse_runs,
        )

    files = {}
    results: dict[str, MiningResult] = {}
    for name in selected:
        sequences = sequences_by_class.pop(name)
        support = resolve_min_support(min_support, len(sequences))
        result = mine(sequences, support, max_len)
        results[name] = result
        table_path = out_dir / f"patterns_{name}.csv"
        write_patterns_csv(table_path, result, alphabet, class_name=name)
        files[f"patterns_{name}"] = table_path

    if len(results) > 1:
        contrast_path = out_dir / "contrast.csv"
        write_contrast_csv(contrast_path, results, contrast_patterns(results), alphabet)
        files["contrast"] = contrast_path
    return files
