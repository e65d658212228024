"""Sessionization and week bucketing of per-(user, course) student states.

Events carrying an explicit session id are grouped by that id; events
without one fall back to inactivity-gap splitting (default 30 minutes).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta

from .engagement import MICROSECOND, StudentEvents, Students, as_datetime

DEFAULT_GAP = timedelta(minutes=30)
_DAY = timedelta(days=1) // MICROSECOND
_WEEK = 7 * _DAY


@dataclass(frozen=True)
class Session:
    session_key: str
    user_id: str
    start: datetime
    end: datetime
    event_count: int


@dataclass(frozen=True)
class WeekActivity:
    week_index: int
    new_users: int
    returning_users: int


def group_into_sessions(
    student: StudentEvents, gap: timedelta = DEFAULT_GAP
) -> list[tuple[str, list[int]]]:
    """Group one student's rows, put in total order, into sessions.

    Returns (session_key, rows) pairs ordered by session start. Fallback
    sessions split when the inter-event interval strictly exceeds ``gap``.
    """
    student.sort()
    times = student.times
    gap_micros = gap // MICROSECOND
    explicit: dict[str, list[int]] = {}
    fallback_runs: list[list[int]] = []
    last = None
    for row, session_id in enumerate(student.sessions):
        if session_id is not None:
            explicit.setdefault(session_id, []).append(row)
            continue
        if last is None or times[row] - last > gap_micros:
            fallback_runs.append([row])
        else:
            fallback_runs[-1].append(row)
        last = times[row]

    groups = list(explicit.items())
    groups.extend((f"{student.user_id}~{i}", run) for i, run in enumerate(fallback_runs))
    groups.sort(key=lambda pair: (times[pair[1][0]], pair[0]))
    return groups


def build_sessions(student: StudentEvents, gap: timedelta = DEFAULT_GAP) -> list[Session]:
    """Sessions of one student, sorted ascending by start."""
    times = student.times
    return [
        Session(
            session_key=key,
            user_id=student.user_id,
            start=as_datetime(times[rows[0]]),
            end=as_datetime(times[rows[-1]]),
            event_count=len(rows),
        )
        for key, rows in group_into_sessions(student, gap)
    ]


@dataclass
class WeeklyPresence:
    weeks: list[WeekActivity]
    dropped_before_anchor: int


def weekly_presence(students: Students, anchor: date) -> WeeklyPresence:
    """Per-week new and returning student counts, a student being one (user,
    course) pair, from ``collect_student_events``' states.

    An event's week is the floor of whole UTC days from ``anchor`` to its
    day, over 7. A student is new in the week of their earliest in-range
    event and returning in every later week they are active. Events before
    the anchor are dropped and counted, never fatal.
    """
    start = (anchor - date(1970, 1, 1)).days * _DAY  # the anchor's first microsecond
    active_weeks: list[set[int]] = []
    dropped = 0
    for student in students.values():
        weeks = set()
        for micros in student.times:
            if micros < start:
                dropped += 1
            else:
                weeks.add((micros - start) // _WEEK)
        if weeks:
            active_weeks.append(weeks)

    n_weeks = max((max(w) for w in active_weeks), default=-1) + 1
    new = [0] * n_weeks
    active = [0] * n_weeks
    for weeks in active_weeks:
        new[min(weeks)] += 1
        for week in weeks:
            active[week] += 1
    rows = [
        WeekActivity(week_index=week, new_users=new[week], returning_users=active[week] - new[week])
        for week in range(n_weeks)
    ]
    return WeeklyPresence(weeks=rows, dropped_before_anchor=dropped)
