"""Per-student engagement reconstruction.

Rebuilds watched-interval unions per video, attempt histories per problem,
the 1-4 retry-difficulty index per problem, and the per-student aggregate
consumed by the classifier. Aggregation state merges commutatively across
arbitrary event shards: partial states hold raw event lists and all
order-sensitive work happens in a deterministic finalize step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from datetime import datetime
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import json

from .events import (
    Event,
    EventType,
    ProblemPayload,
    VideoPayload,
    event_to_json,
)
from .manifest import CourseManifest

DEFAULT_PASSING_THRESHOLD = 0.7

#: Attempt-bearing event types; ``problem_graded`` is not one.
ATTEMPT_TYPES = frozenset({EventType.PROBLEM_CHECK, EventType.PROBLEM_CHECK_FAIL})


class NoAttemptsError(ValueError):
    """Retry index is undefined for a problem record with zero attempts."""


@dataclass(frozen=True)
class WatchRecord:
    user_id: str
    video_id: str
    intervals: tuple[tuple[float, float], ...]
    duration: Optional[float]
    watch_fraction: Optional[float]

    @property
    def watched_seconds(self) -> float:
        return sum(end - start for start, end in self.intervals)


@dataclass(frozen=True)
class ProblemRecord:
    user_id: str
    problem_id: str
    attempts: tuple[tuple[datetime, Optional[float]], ...]
    first_score: Optional[float]
    final_score: Optional[float]
    n_attempts: int
    score_r: Optional[int]


@dataclass(frozen=True)
class StudentAggregate:
    user_id: str
    course_instance: str
    n_videos: int = 0
    n_problems: int = 0
    total_attempts: int = 0
    mean_attempts_per_problem: Optional[float] = None
    mean_watch_fraction: Optional[float] = None
    mean_score_r: Optional[float] = None
    mean_first_score: Optional[float] = None
    mean_final_score: Optional[float] = None
    order_fraction: Optional[float] = None

    def to_dict(self) -> dict:
        """Field-ordered dict with absent optionals omitted."""
        out: dict = {}
        for name in _AGGREGATE_FIELDS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, obj: dict) -> "StudentAggregate":
        return cls(**{k: obj.get(k) for k in _AGGREGATE_FIELDS if k in obj})


_AGGREGATE_FIELDS = tuple(f.name for f in fields(StudentAggregate))


def union_intervals(spans: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of [start, end) spans: disjoint, sorted, touching spans merged."""
    valid = sorted((s, e) for s, e in spans if s < e)
    merged: list[tuple[float, float]] = []
    for start, end in valid:
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


_PLAYHEAD_TYPES = frozenset(
    {
        EventType.PLAY_VIDEO,
        EventType.PAUSE_VIDEO,
        EventType.STOP_VIDEO,
        EventType.SEEK_VIDEO,
        EventType.COMPLETE_VIDEO,
    }
)


def reconstruct_intervals(events: Sequence[Event]) -> WatchRecord:
    """Watched-content intervals for one (user, video) event stream.

    A play opens an interval; the next play/pause/stop/seek/complete closes
    it (pause and stop at their playhead, seek at its pre-seek position,
    complete at the video duration, a second play at its own position).
    A close position the event does not carry is the last known playhead.
    Transcript, load, and speed events never move the playhead. An unclosed
    trailing play contributes nothing. Duration comes from the first event
    carrying one; intervals are clamped to [0, duration] when it is known.
    """
    user_id = events[0].user_id if events else ""
    video_id = ""
    duration: Optional[float] = None
    spans: list[tuple[float, float]] = []
    open_pos: Optional[float] = None
    last_pos = 0.0

    for ev in events:
        etype = ev.event_type
        payload = ev.payload
        pos = after = None  # where the event closes an interval; the playhead after it
        if isinstance(payload, VideoPayload):
            if not video_id:
                video_id = payload.video_id
            if duration is None:
                duration = payload.duration
            if etype is EventType.SEEK_VIDEO:
                pos, after = payload.old_time, payload.new_time
            else:
                pos = payload.current_time
        if etype not in _PLAYHEAD_TYPES:
            continue
        if etype is EventType.COMPLETE_VIDEO and duration is not None:
            pos = duration
        if pos is None:
            pos = last_pos
        if open_pos is not None:
            spans.append((open_pos, pos))
        open_pos = pos if etype is EventType.PLAY_VIDEO else None
        last_pos = pos if after is None else after

    if duration is not None:
        spans = [(max(0.0, min(s, duration)), max(0.0, min(e, duration))) for s, e in spans]
    else:
        spans = [(max(0.0, s), max(0.0, e)) for s, e in spans]
    intervals = tuple(union_intervals(spans))

    watch_fraction: Optional[float] = None
    if duration is not None and duration > 0:
        watched = sum(end - start for start, end in intervals)
        watch_fraction = min(1.0, watched / duration)

    return WatchRecord(
        user_id=user_id,
        video_id=video_id,
        intervals=intervals,
        duration=duration,
        watch_fraction=watch_fraction,
    )


def _score_r_value(n_attempts: int, final_score: Optional[float], passing: float) -> int:
    if final_score is None or final_score < passing:
        return 4
    if n_attempts < 2:
        return 1
    if n_attempts < 3:
        return 2
    if n_attempts < 5:
        return 3
    return 4


def score_r(
    record: ProblemRecord, passing_threshold: float = DEFAULT_PASSING_THRESHOLD
) -> int:
    """Retry-difficulty index in {1,2,3,4}; higher means more struggle.

    Passing finals map attempt counts 1/2/3-4/5+ to 1/2/3/4; a non-passing
    (or unscored) final is always 4.
    """
    if record.n_attempts < 1:
        raise NoAttemptsError(f"problem {record.problem_id!r} has no attempts")
    return _score_r_value(record.n_attempts, record.final_score, passing_threshold)


def check_score(ev: Event) -> Optional[float]:
    """Score of a problem check: ``grade / max_grade`` when it is graded,
    else 0 for a failed check and absent for any other."""
    payload = ev.payload
    if isinstance(payload, ProblemPayload) and payload.grade is not None and payload.max_grade:
        return payload.grade / payload.max_grade
    if ev.event_type is EventType.PROBLEM_CHECK_FAIL:
        return 0.0
    return None


def problem_history(
    events: Sequence[Event],
    passing_threshold: float = DEFAULT_PASSING_THRESHOLD,
) -> ProblemRecord:
    """Attempt history for one (user, problem) event stream.

    Checks and failed checks count as attempts; a failed check without grade
    fields scores 0. Showing a problem or an answer is not an attempt, and
    neither is ``problem_graded``.
    """
    user_id = events[0].user_id if events else ""
    problem_id = ""
    attempts: list[tuple[datetime, Optional[float]]] = []
    for ev in events:
        payload = ev.payload
        if isinstance(payload, ProblemPayload) and not problem_id:
            problem_id = payload.problem_id
        if ev.event_type in ATTEMPT_TYPES:
            attempts.append((ev.timestamp, check_score(ev)))

    scored = [s for _, s in attempts if s is not None]
    first_score = scored[0] if scored else None
    final_score = scored[-1] if scored else None
    n_attempts = len(attempts)
    return ProblemRecord(
        user_id=user_id,
        problem_id=problem_id,
        attempts=tuple(attempts),
        first_score=first_score,
        final_score=final_score,
        n_attempts=n_attempts,
        score_r=_score_r_value(n_attempts, final_score, passing_threshold)
        if n_attempts
        else None,
    )


_timestamp = attrgetter("timestamp")


def in_total_order(events: list[Event]) -> list[Event]:
    """``events`` in (timestamp, canonical JSON) order, so identical event
    multisets finalize and mine identically no matter how the log was split
    or the shards merged. Only events that share a timestamp are serialized
    for the tie-break."""
    out: list[Event] = []
    for _, run in groupby(sorted(events, key=_timestamp), key=_timestamp):
        tied = list(run)
        if len(tied) > 1:
            tied.sort(key=event_to_json)
        out.extend(tied)
    return out


@dataclass
class StudentEvents:
    """Mergeable per-(user, course) bucket of content events."""

    user_id: str
    course_id: str
    video_events: dict[str, list[Event]] = field(default_factory=dict)
    problem_events: dict[str, list[Event]] = field(default_factory=dict)

    def add(self, event: Event) -> None:
        payload = event.payload
        if isinstance(payload, VideoPayload):
            self.video_events.setdefault(payload.video_id, []).append(event)
        elif isinstance(payload, ProblemPayload):
            self.problem_events.setdefault(payload.problem_id, []).append(event)

    def merge(self, other: "StudentEvents") -> None:
        for vid, evs in other.video_events.items():
            self.video_events.setdefault(vid, []).extend(evs)
        for pid, evs in other.problem_events.items():
            self.problem_events.setdefault(pid, []).extend(evs)

    def finalize(
        self,
        manifest: Optional[CourseManifest] = None,
        passing_threshold: float = DEFAULT_PASSING_THRESHOLD,
    ) -> StudentAggregate:
        """Reduce buffered events to the per-student aggregate.

        Deterministic: events are sorted by a total order and content ids
        are visited sorted, so merge order never changes the output.
        """
        first_plays: dict[str, datetime] = {}  # played video id -> its first play
        fractions: list[float] = []
        for vid in sorted(self.video_events):
            evs = in_total_order(self.video_events[vid])
            for ev in evs:
                if ev.event_type is EventType.PLAY_VIDEO:
                    first_plays[vid] = ev.timestamp
                    break
            fraction = reconstruct_intervals(evs).watch_fraction
            if fraction is not None:
                fractions.append(fraction)

        # Built in sorted problem-id order, which every mean below relies on.
        attempted: dict[str, ProblemRecord] = {}
        for pid in sorted(self.problem_events):
            evs = in_total_order(self.problem_events[pid])
            rec = problem_history(evs, passing_threshold)
            if rec.n_attempts > 0:
                attempted[pid] = rec
        n_problems = len(attempted)
        total_attempts = sum(rec.n_attempts for rec in attempted.values())

        score_rs = [rec.score_r for rec in attempted.values()]
        firsts = [rec.first_score for rec in attempted.values() if rec.first_score is not None]
        finals = [rec.final_score for rec in attempted.values() if rec.final_score is not None]

        return StudentAggregate(
            user_id=self.user_id,
            course_instance=self.course_id,
            n_videos=len(first_plays),
            n_problems=n_problems,
            total_attempts=total_attempts,
            mean_attempts_per_problem=total_attempts / n_problems if n_problems else None,
            mean_watch_fraction=sum(fractions) / len(fractions) if fractions else None,
            mean_score_r=sum(score_rs) / len(score_rs) if score_rs else None,
            mean_first_score=sum(firsts) / len(firsts) if firsts else None,
            mean_final_score=sum(finals) / len(finals) if finals else None,
            order_fraction=_order_fraction(manifest, attempted, first_plays),
        )


def _order_fraction(
    manifest: Optional[CourseManifest],
    attempted: dict[str, ProblemRecord],
    first_plays: dict[str, datetime],
) -> Optional[float]:
    """Share of placeable attempted problems first tried after a video play
    in the same manifest section."""
    if manifest is None or not attempted:
        return None
    earliest_play: dict[tuple[int, int, int], datetime] = {}
    for vid, first in first_plays.items():
        section = manifest.section_of(vid)
        if section is not None and (section not in earliest_play or first < earliest_play[section]):
            earliest_play[section] = first

    evaluable = 0
    studied_first = 0
    for pid, rec in attempted.items():
        section = manifest.section_of(pid)
        if section is None or not manifest.section_has_video(section):
            continue
        evaluable += 1
        first_attempt = rec.attempts[0][0]
        play_ts = earliest_play.get(section)
        if play_ts is not None and play_ts < first_attempt:
            studied_first += 1
    if evaluable == 0:
        return None
    return studied_first / evaluable


StudentKey = tuple[str, str]


def collect_student_events(events: Iterable[Event]) -> dict[StudentKey, StudentEvents]:
    """Bucket a shard of events into per-(user, course) mergeable states."""
    states: dict[StudentKey, StudentEvents] = {}
    for ev in events:
        key = (ev.user_id, ev.course_id)
        state = states.get(key)
        if state is None:
            state = states[key] = StudentEvents(user_id=ev.user_id, course_id=ev.course_id)
        state.add(ev)
    return states


def merge_student_events(
    into: dict[StudentKey, StudentEvents], other: dict[StudentKey, StudentEvents]
) -> dict[StudentKey, StudentEvents]:
    """Fold ``other`` into ``into`` (in place) and return it."""
    for key, state in other.items():
        existing = into.get(key)
        if existing is None:
            into[key] = state
        else:
            existing.merge(state)
    return into


def aggregate_student(
    events: Iterable[Event],
    manifest: Optional[CourseManifest] = None,
    passing_threshold: float = DEFAULT_PASSING_THRESHOLD,
    user_id: str = "",
    course_id: str = "",
) -> StudentAggregate:
    """Aggregate one student's events (any order) into their metrics row."""
    state = StudentEvents(user_id=user_id, course_id=course_id)
    for ev in events:
        if not state.user_id:
            state.user_id = ev.user_id
            state.course_id = ev.course_id
        state.add(ev)
    return state.finalize(manifest, passing_threshold)


def aggregate_corpus(
    events: Iterable[Event],
    manifest: Optional[CourseManifest] = None,
    passing_threshold: float = DEFAULT_PASSING_THRESHOLD,
) -> list[StudentAggregate]:
    """Aggregate a whole corpus; rows sorted by (course, user)."""
    states = collect_student_events(events)
    return [
        states[key].finalize(manifest, passing_threshold)
        for key in sorted(states, key=lambda k: (k[1], k[0]))
    ]
