"""Cohort comparison report tables.

Five machine-readable surfaces per run: enrollment/engagement counts,
categorical breakdown, first/final score comparison, retry-index
distribution per class, and weekly new/returning activity. All tables emit
counts and proportions so downstream plotting needs no recomputation.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from datetime import date, timedelta
from enum import Enum
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .classify import OrdinalClass
from .engagement import StudentAggregate, Students
from .sessions import DEFAULT_GAP, build_sessions, weekly_presence


@dataclass(frozen=True)
class CohortId:
    modality: str  # "on_campus" | "online"
    term_label: str

    @property
    def label(self) -> str:
        return f"{self.modality}:{self.term_label}"


@dataclass(frozen=True)
class EnrollmentRow:
    cohort: CohortId
    users: int
    user_events: int
    sessions: int


@dataclass(frozen=True)
class BreakdownRow:
    cohort: CohortId
    ordinal_class: OrdinalClass
    count: int
    proportion: float
    proportion_excluding_no_show: Optional[float]


@dataclass(frozen=True)
class ScoreStats:
    cohort: CohortId
    metric: str  # "first_score" | "final_score" | "score_r"
    group: str  # ordinal class name or "all"
    mean: Optional[float]
    variance: Optional[float]
    q1: Optional[float]
    median: Optional[float]
    q3: Optional[float]
    n: int


@dataclass(frozen=True)
class WeeklyRow:
    cohort: CohortId
    week_index: int
    new_users: int
    returning_users: int


def enrollment_table(
    students_by_cohort: Mapping[CohortId, Students],
    gap: timedelta = DEFAULT_GAP,
) -> list[EnrollmentRow]:
    """Per cohort: its students, each one (user, course) pair, their events
    and their sessions."""
    rows = []
    for cohort in sorted(students_by_cohort, key=lambda c: c.label):
        students = students_by_cohort[cohort].values()
        rows.append(
            EnrollmentRow(
                cohort=cohort,
                users=len(students),
                user_events=sum(len(student) for student in students),
                sessions=sum(len(build_sessions(student, gap)) for student in students),
            )
        )
    return rows


def categorical_breakdown(
    classes_by_cohort: Mapping[CohortId, Sequence[OrdinalClass]],
    exclude_no_show: bool = False,
) -> list[BreakdownRow]:
    """Counts and proportions per class per cohort.

    With ``exclude_no_show`` the no-show-free proportions are added for the
    other seven classes; both proportion columns each sum to 1 per cohort.
    """
    rows = []
    for cohort in sorted(classes_by_cohort, key=lambda c: c.label):
        classes = list(classes_by_cohort[cohort])
        total = len(classes)
        if total == 0:
            continue
        counts = {cls: 0 for cls in OrdinalClass}
        for cls in classes:
            counts[cls] += 1
        engaged_total = total - counts[OrdinalClass.NO_SHOW]
        for cls in OrdinalClass:
            excl: Optional[float] = None
            if exclude_no_show and cls is not OrdinalClass.NO_SHOW and engaged_total > 0:
                excl = counts[cls] / engaged_total
            rows.append(
                BreakdownRow(
                    cohort=cohort,
                    ordinal_class=cls,
                    count=counts[cls],
                    proportion=counts[cls] / total,
                    proportion_excluding_no_show=excl,
                )
            )
    return rows


def _pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 pairwise sum, so the bytes match ``np.add.reduce``.

    Below 8 values a plain loop; up to 128, eight running sums combined as a
    tree and then the remainder; above 128, the halves split at ``n // 2``
    rounded down to a multiple of 8. No built-in ``sum``: from Python 3.12 on
    it compensates float rounding.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n <= 128:
        blocks_end = n - n % 8
        r = []
        for lane in range(8):
            acc = values[lane]
            for x in values[lane + 8:blocks_end:8]:
                acc += x
            r.append(acc)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in values[blocks_end:]:
            total += x
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _percentile(ordered: Sequence[float], q: float) -> float:
    """``np.percentile(..., method="linear")`` of sorted values, same bytes."""
    index = (len(ordered) - 1) * q
    below = int(index)
    if below >= len(ordered) - 1:
        return ordered[-1]
    a, b = ordered[below], ordered[below + 1]
    t = index - below
    d = b - a
    return a + d * t if t < 0.5 else b - d * (1 - t)


def _mean(values: Sequence[float]) -> float:
    """``np.mean``: ``add.reduce`` starts from 0.0, which also turns a sum of
    negative zeros into 0.0."""
    return (0.0 + _pairwise_sum(values)) / len(values)


def _stats(values: Sequence[float]) -> tuple:
    """(mean, population variance, q1, median, q3) with linear-interpolation
    quartiles, computed with numpy's float64 formulas so every byte matches
    ``arr.mean()``, ``arr.var()`` and ``np.percentile``. ``statistics``
    rounds differently in the last place."""
    values = [float(v) for v in values]
    mean = _mean(values)
    ordered = sorted(values)
    return (
        mean,
        _mean([(x - mean) * (x - mean) for x in values]),
        _percentile(ordered, 0.25),
        _percentile(ordered, 0.5),
        _percentile(ordered, 0.75),
    )


def _stats_row(cohort: CohortId, metric: str, group: str, values: list[float]) -> ScoreStats:
    """The stats of ``values``, each absent when there are none."""
    stats = _stats(values) if values else (None,) * 5
    return ScoreStats(cohort, metric, group, *stats, n=len(values))


def score_comparison(
    aggregates_by_cohort: Mapping[CohortId, Sequence[StudentAggregate]],
) -> list[ScoreStats]:
    """Cohort-level stats over per-student mean first and final scores."""
    rows = []
    for cohort in sorted(aggregates_by_cohort, key=lambda c: c.label):
        aggs = aggregates_by_cohort[cohort]
        for metric, getter in (
            ("first_score", lambda a: a.mean_first_score),
            ("final_score", lambda a: a.mean_final_score),
        ):
            values = [getter(a) for a in aggs if getter(a) is not None]
            rows.append(_stats_row(cohort, metric, "all", values))
    return rows


def scorer_distribution(
    aggregates_by_cohort: Mapping[CohortId, Sequence[tuple[StudentAggregate, OrdinalClass]]],
) -> list[ScoreStats]:
    """Box-plot stats of mean retry index per (cohort, class); empty cells
    are omitted."""
    rows = []
    for cohort in sorted(aggregates_by_cohort, key=lambda c: c.label):
        pairs = aggregates_by_cohort[cohort]
        for cls in OrdinalClass:
            values = [
                agg.mean_score_r
                for agg, assigned in pairs
                if assigned is cls and agg.mean_score_r is not None
            ]
            if values:
                rows.append(_stats_row(cohort, "score_r", cls.value, values))
    return rows


def weekly_report(
    students_by_cohort: Mapping[CohortId, Students],
    anchors: Mapping[CohortId, date],
) -> tuple[list[WeeklyRow], dict]:
    """Weekly new/returning rows per cohort plus dropped-event counts."""
    rows = []
    dropped = {}
    for cohort in sorted(students_by_cohort, key=lambda c: c.label):
        presence = weekly_presence(students_by_cohort[cohort], anchors[cohort])
        dropped[cohort.label] = presence.dropped_before_anchor
        for week in presence.weeks:
            rows.append(
                WeeklyRow(
                    cohort=cohort,
                    week_index=week.week_index,
                    new_users=week.new_users,
                    returning_users=week.returning_users,
                )
            )
    return rows, dropped


# -- serialization ----------------------------------------------------------

def _cells(row) -> list:
    """A report row's values in field order; a cohort is written as its
    label and an ordinal class as its name."""
    cells = []
    for f in fields(row):
        value = getattr(row, f.name)
        if isinstance(value, CohortId):
            value = value.label
        elif isinstance(value, Enum):
            value = value.value
        cells.append(value)
    return cells


_HEADERS = {
    "enrollment": ["cohort", "users", "user_events", "sessions"],
    "breakdown": ["cohort", "class", "count", "proportion", "proportion_excluding_no_show"],
    "scores": ["cohort", "metric", "group", "mean", "variance", "q1", "median", "q3", "n"],
    "weekly": ["cohort", "week_index", "new_users", "returning_users"],
}


def write_report(
    path: Union[str, Path],
    rows: Sequence,
    fmt: str = "csv",
    *,
    kind: str,
) -> None:
    """Write a report table of ``kind`` (a ``_HEADERS`` key) as CSV
    (default) or JSON lines, UTF-8. A ``None`` cell is empty in CSV and
    ``null`` in JSON lines."""
    header = _HEADERS[kind]
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(_cells(row) for row in rows)
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as handle:
            for row in rows:
                cells = dict(zip(header, _cells(row)))
                handle.write(json.dumps(cells, separators=(",", ":")) + "\n")
    else:
        raise ValueError(f"unknown format: {fmt!r}")
