"""Sessionization and week bucketing.

Events carrying an explicit session id are grouped by that id; events
without one fall back to inactivity-gap splitting (default 30 minutes).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import Iterable, Optional, Sequence

from .events import Event

DEFAULT_GAP = timedelta(minutes=30)


class BeforeAnchorError(ValueError):
    """Timestamp precedes the week anchor."""


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
    events: Sequence[Event], gap: timedelta = DEFAULT_GAP
) -> list[tuple[str, list[Event]]]:
    """Group one user's time-sorted events into sessions.

    Returns (session_key, events) pairs ordered by session start. Fallback
    sessions split when the inter-event interval strictly exceeds ``gap``.
    """
    explicit: dict[str, list[Event]] = {}
    fallback_runs: list[list[Event]] = []
    last_ts: Optional[datetime] = None
    for ev in events:
        if ev.session_id is not None:
            explicit.setdefault(ev.session_id, []).append(ev)
            continue
        if last_ts is None or ev.timestamp - last_ts > gap or not fallback_runs:
            fallback_runs.append([ev])
        else:
            fallback_runs[-1].append(ev)
        last_ts = ev.timestamp

    user_id = events[0].user_id if events else ""
    groups: list[tuple[str, list[Event]]] = [(sid, evs) for sid, evs in explicit.items()]
    groups.extend(
        (f"{user_id}~{i}", run) for i, run in enumerate(fallback_runs)
    )
    groups.sort(key=lambda pair: (pair[1][0].timestamp, pair[0]))
    return groups


def build_sessions(events: Sequence[Event], gap: timedelta = DEFAULT_GAP) -> list[Session]:
    """Sessions for one user's events, sorted ascending by timestamp."""
    sessions = []
    for key, evs in group_into_sessions(events, gap):
        sessions.append(
            Session(
                session_key=key,
                user_id=evs[0].user_id,
                start=min(e.timestamp for e in evs),
                end=max(e.timestamp for e in evs),
                event_count=len(evs),
            )
        )
    return sessions


def week_index(timestamp: datetime, anchor: date) -> int:
    """Zero-based week bucket: floor of whole days since ``anchor`` over 7."""
    days = (timestamp.date() - anchor).days
    if days < 0:
        raise BeforeAnchorError(f"{timestamp.isoformat()} precedes anchor {anchor}")
    return days // 7


@dataclass
class WeeklyPresence:
    weeks: list[WeekActivity]
    dropped_before_anchor: int


def weekly_presence(events: Iterable[Event], anchor: date) -> WeeklyPresence:
    """Per-week new and returning user counts.

    A user is new in the week of their earliest in-range event and returning
    in every later week they are active. Events before the anchor are dropped
    and counted, never fatal.
    """
    active_weeks: dict[str, set[int]] = {}
    dropped = 0
    for ev in events:
        try:
            week = week_index(ev.timestamp, anchor)
        except BeforeAnchorError:
            dropped += 1
            continue
        active_weeks.setdefault(ev.user_id, set()).add(week)

    n_weeks = max((max(w) for w in active_weeks.values()), default=-1) + 1
    new = [0] * n_weeks
    active = [0] * n_weeks
    for weeks in active_weeks.values():
        new[min(weeks)] += 1
        for week in weeks:
            active[week] += 1
    rows = [
        WeekActivity(week_index=week, new_users=new[week], returning_users=active[week] - new[week])
        for week in range(n_weeks)
    ]
    return WeeklyPresence(weeks=rows, dropped_before_anchor=dropped)
