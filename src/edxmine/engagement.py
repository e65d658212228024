"""Per-student engagement reconstruction.

Rebuilds watched-interval unions per video, attempt histories per problem,
the 1-4 retry-difficulty index per problem, and the per-student aggregate
consumed by the classifier. Aggregation state merges commutatively across
arbitrary event shards: a partial state holds its student's events in
compact columns, and all order-sensitive work happens after one sort into a
total order.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from itertools import groupby
from math import nan
from typing import Iterable, Mapping, Optional, Sequence

import json

from .events import (
    RETAINED_EVENT_TYPES,
    VIDEO_TYPES,
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
    video_id: str
    intervals: tuple[tuple[float, float], ...]
    duration: Optional[float]
    watch_fraction: Optional[float]

    @property
    def watched_seconds(self) -> float:
        return sum(end - start for start, end in self.intervals)


@dataclass(frozen=True)
class ProblemRecord:
    problem_id: str
    attempts: tuple[tuple[int, Optional[float]], ...]  # (microseconds since the epoch, score)
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


def score_passes(score: Optional[float], passing_threshold: float) -> bool:
    """Whether a score passes: it is present and at least the passing
    threshold. ``score_r`` and the miner's pass/fail symbols both use it."""
    return score is not None and score >= passing_threshold


def _score_r_value(n_attempts: int, final_score: Optional[float], passing: float) -> int:
    if not score_passes(final_score, passing):
        return 4
    if n_attempts < 2:
        return 1
    if n_attempts < 3:
        return 2
    if n_attempts < 5:
        return 3
    return 4


def score_r(record: ProblemRecord) -> int:
    """Retry-difficulty index in {1,2,3,4}; higher means more struggle.

    Passing finals map attempt counts 1/2/3-4/5+ to 1/2/3/4; a non-passing
    (or unscored) final, under the record's passing threshold, is always 4.
    """
    if record.n_attempts < 1:
        raise NoAttemptsError(f"problem {record.problem_id!r} has no attempts")
    return record.score_r


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MICROSECOND = timedelta(microseconds=1)
_TYPE_CODE = {etype.value: code for code, etype in enumerate(RETAINED_EVENT_TYPES)}
_PLAY, _PAUSE, _SEEK, _STOP, _COMPLETE, _CHECK_FAIL = (
    _TYPE_CODE[etype.value]
    for etype in (EventType.PLAY_VIDEO, EventType.PAUSE_VIDEO, EventType.SEEK_VIDEO,
                  EventType.STOP_VIDEO, EventType.COMPLETE_VIDEO, EventType.PROBLEM_CHECK_FAIL)
)
_PLAYHEAD_CODES = frozenset({_PLAY, _PAUSE, _SEEK, _STOP, _COMPLETE})
_ATTEMPT_CODES = frozenset(_TYPE_CODE[etype.value] for etype in ATTEMPT_TYPES)
_VIDEO_CODES = frozenset(_TYPE_CODE[etype.value] for etype in VIDEO_TYPES)
_COLUMNS = ("times", "types", "content", "sessions")


def as_datetime(micros: int) -> datetime:
    """The UTC instant ``micros`` microseconds after the epoch."""
    return _EPOCH + timedelta(0, 0, micros)


def _take(column, rows: list[int]):
    """``column``'s items at ``rows``, in a column of its type."""
    taken = [column[row] for row in rows]
    return array(column.typecode, taken) if isinstance(column, array) else type(column)(taken)


class StudentEvents:
    """Mergeable per-(user, course) state: one student's events, column-wise.

    Row ``i`` is one event: ``times[i]`` (microseconds since the epoch),
    ``types[i]`` (its index in ``RETAINED_EVENT_TYPES``; ``VIDEO_TYPES`` gives
    its payload's class), ``content[i]`` (its payload's id, None without one)
    and ``sessions[i]`` (ids, shared with the parser), and
    ``values[4 * i:4 * i + 4]`` (its payload's numbers in field order, NaN
    where absent, which the parser never yields). Numbers are floats, as the
    parser yields them.
    """

    __slots__ = ("user_id", "course_id", *_COLUMNS, "values", "_ordered")

    def __init__(self, user_id: str, course_id: str) -> None:
        self.user_id, self.course_id = user_id, course_id
        self.times, self.types = array("q"), bytearray()
        self.content: list[Optional[str]] = []
        self.sessions: list[Optional[str]] = []
        self.values = array("d")
        self._ordered = True

    @classmethod
    def from_sorted(cls, user_id: str, course_id: str, times: array, types: bytearray,
                    content: list, sessions: list, values: array) -> "StudentEvents":
        """A state of columns that :meth:`sort` has already put in total order."""
        state = cls(user_id, course_id)
        state.times, state.types, state.content, state.sessions = times, types, content, sessions
        state.values = values
        return state

    def __len__(self) -> int:
        return len(self.times)

    def add(self, event: Event) -> None:
        payload = event.payload
        if isinstance(payload, VideoPayload):
            content = payload.video_id
            a, b, c, d = payload.duration, payload.current_time, payload.old_time, payload.new_time
        elif isinstance(payload, ProblemPayload):
            content, a, b, c, d = payload.problem_id, payload.grade, payload.max_grade, None, None
        else:
            content, a, b, c, d = None, None, None, None, None
        self.times.append((event.timestamp - _EPOCH) // MICROSECOND)
        self.types.append(_TYPE_CODE[event.event_type._value_])
        self.content.append(content)
        self.sessions.append(event.session_id)
        self.values.fromlist([nan if a is None else a, nan if b is None else b,
                              nan if c is None else c, nan if d is None else d])
        self._ordered = False

    def merge(self, other: "StudentEvents") -> None:
        for name in (*_COLUMNS, "values"):
            getattr(self, name).extend(getattr(other, name))
        self._ordered = False

    def event(self, row: int) -> Event:
        """Row ``row`` as an event."""
        payload = None
        content = self.content[row]
        if content is not None:
            a, b, c, d = (None if x != x else x for x in self.values[4 * row:4 * row + 4])
            if self.types[row] in _VIDEO_CODES:
                payload = VideoPayload(content, a, b, c, d)
            else:
                payload = ProblemPayload(content, a, b)
        return Event(self.user_id, self.course_id, self.sessions[row],
                     as_datetime(self.times[row]), RETAINED_EVENT_TYPES[self.types[row]], payload)

    def sort(self) -> None:
        """Put the rows in total order, once: by time, then tied rows by the
        canonical JSON of their events, so identical event multisets finalize
        and mine identically no matter how the log was split or the shards
        merged. Only tied rows are serialized."""
        if self._ordered:
            return
        times = self.times.tolist()
        if times != sorted(times) or len(set(times)) < len(times):  # else in order already
            order: list[int] = []
            for _, run in groupby(sorted(range(len(times)), key=times.__getitem__),
                                  key=times.__getitem__):
                tied = list(run)
                if len(tied) > 1:
                    tied.sort(key=lambda row: event_to_json(self.event(row)))
                order.extend(tied)
            for name in _COLUMNS:
                setattr(self, name, _take(getattr(self, name), order))
            self.values = _take(self.values, [4 * row + i for row in order for i in range(4)])
        self._ordered = True

    def _streams(self) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
        """Both content-stream maps, from one walk."""
        videos, problems = {}, {}
        for row, (code, content) in enumerate(zip(self.types, self.content)):
            if content is not None:
                (videos if code in _VIDEO_CODES else problems).setdefault(content, []).append(row)
        return videos, problems

    @property
    def video_events(self) -> dict[str, list[int]]:
        """Video id -> the rows of its events, in row order."""
        return self._streams()[0]

    @property
    def problem_events(self) -> dict[str, list[int]]:
        """Problem id -> the rows of its events, in row order."""
        return self._streams()[1]

    def watch_record(self, rows: Iterable[int]) -> WatchRecord:
        """Watched-content intervals of one video's rows, read in the given
        order.

        A play opens an interval; the next play/pause/stop/seek/complete closes
        it (pause and stop at their playhead, seek at its pre-seek position,
        complete at the video duration, a second play at its own position).
        A close position the event does not carry is the last known playhead.
        Transcript, load, and speed events never move the playhead. An unclosed
        trailing play contributes nothing. Duration comes from the first event
        carrying one; intervals are clamped to [0, duration] when it is known.
        """
        # NaN, the absent number, is the one value unequal to itself.
        types, content, values = self.types, self.content, self.values
        video_id = ""
        duration = nan
        spans: list[tuple[float, float]] = []
        open_pos: Optional[float] = None
        last_pos = 0.0
        for row in rows:
            etype = types[row]
            pos = after = nan  # where the event closes an interval; the playhead after it
            if etype in _VIDEO_CODES and content[row] is not None:
                i = 4 * row
                if not video_id:
                    video_id = content[row]
                if duration != duration:
                    duration = values[i]
                if etype == _SEEK:
                    pos, after = values[i + 2], values[i + 3]
                else:
                    pos = values[i + 1]
            if etype not in _PLAYHEAD_CODES:
                continue
            if etype == _COMPLETE and duration == duration:
                pos = duration
            if pos != pos:
                pos = last_pos
            if open_pos is not None:
                spans.append((open_pos, pos))
            open_pos = pos if etype == _PLAY else None
            last_pos = pos if after != after else after

        if duration == duration:
            spans = [(max(0.0, min(s, duration)), max(0.0, min(e, duration))) for s, e in spans]
        else:
            spans = [(max(0.0, s), max(0.0, e)) for s, e in spans]
        intervals = tuple(union_intervals(spans))
        watch_fraction: Optional[float] = None
        if duration > 0:  # so known
            watch_fraction = min(1.0, sum(end - start for start, end in intervals) / duration)
        return WatchRecord(video_id, intervals, None if duration != duration else duration,
                           watch_fraction)

    def check_score(self, row: int) -> Optional[float]:
        """Score of a problem check: ``grade / max_grade`` when it is graded,
        else 0 for a failed check and absent for any other."""
        if self.types[row] not in _VIDEO_CODES:  # NaN when the row has no payload
            grade, max_grade = self.values[4 * row], self.values[4 * row + 1]
            if grade == grade and max_grade == max_grade and max_grade:
                return grade / max_grade
        return 0.0 if self.types[row] == _CHECK_FAIL else None

    def problem_record(
        self, rows: Iterable[int], passing_threshold: float = DEFAULT_PASSING_THRESHOLD
    ) -> ProblemRecord:
        """Attempt history of one problem's rows, read in the given order.

        Checks and failed checks count as attempts; a failed check without grade
        fields scores 0. Showing a problem or an answer is not an attempt, and
        neither is ``problem_graded``.
        """
        problem_id = ""
        attempts: list[tuple[int, Optional[float]]] = []
        for row in rows:
            if not problem_id and self.types[row] not in _VIDEO_CODES:
                problem_id = self.content[row] or ""
            if self.types[row] in _ATTEMPT_CODES:
                attempts.append((self.times[row], self.check_score(row)))

        scored = [s for _, s in attempts if s is not None]
        first_score = scored[0] if scored else None
        final_score = scored[-1] if scored else None
        n_attempts = len(attempts)
        return ProblemRecord(
            problem_id=problem_id,
            attempts=tuple(attempts),
            first_score=first_score,
            final_score=final_score,
            n_attempts=n_attempts,
            score_r=_score_r_value(n_attempts, final_score, passing_threshold)
            if n_attempts
            else None,
        )

    def finalize(
        self,
        manifest: Optional[CourseManifest] = None,
        passing_threshold: float = DEFAULT_PASSING_THRESHOLD,
    ) -> StudentAggregate:
        """Reduce the student's events to their aggregate.

        Deterministic: the rows are put in total order and content ids are
        visited sorted, so merge order never changes the output.
        """
        self.sort()
        first_plays: dict[str, int] = {}  # played video id -> its first play's microseconds
        fractions: list[float] = []
        videos, problems = self._streams()
        for vid in sorted(videos):
            rows = videos[vid]
            first = next((row for row in rows if self.types[row] == _PLAY), None)
            if first is not None:
                first_plays[vid] = self.times[first]
            fraction = self.watch_record(rows).watch_fraction
            if fraction is not None:
                fractions.append(fraction)

        # Built in sorted problem-id order, which every mean below relies on.
        attempted: dict[str, ProblemRecord] = {}
        for pid in sorted(problems):
            rec = self.problem_record(problems[pid], passing_threshold)
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
    first_plays: dict[str, int],
) -> Optional[float]:
    """Share of placeable attempted problems first tried strictly after a
    video play in the same manifest section."""
    if manifest is None or not attempted:
        return None
    earliest_play: dict[tuple[int, int, int], int] = {}
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
Students = Mapping[StudentKey, StudentEvents]


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
) -> StudentAggregate:
    """Aggregate one student's events (any order) into their metrics row."""
    return _student(events).finalize(manifest)


def aggregate_corpus(
    events: Iterable[Event],
    manifest: Optional[CourseManifest] = None,
) -> list[StudentAggregate]:
    """Aggregate a whole corpus; rows sorted by (course, user)."""
    states = collect_student_events(events)
    return [
        states[key].finalize(manifest)
        for key in sorted(states, key=lambda k: (k[1], k[0]))
    ]


def _student(events: Iterable[Event]) -> StudentEvents:
    """One state holding ``events`` in their order, keyed by the first
    event's ids."""
    state = StudentEvents("", "")
    for ev in events:
        if not state.user_id:
            state.user_id, state.course_id = ev.user_id, ev.course_id
        state.add(ev)
    return state


def reconstruct_intervals(events: Sequence[Event]) -> WatchRecord:
    """Watched-content intervals for one (user, video) event stream, in its
    order: :meth:`StudentEvents.watch_record`."""
    state = _student(events)
    return state.watch_record(range(len(state)))


def problem_history(events: Sequence[Event]) -> ProblemRecord:
    """Attempt history for one (user, problem) event stream, in its order:
    :meth:`StudentEvents.problem_record`."""
    state = _student(events)
    return state.problem_record(range(len(state)))
