"""Typed event model and tolerant line-level parser for edX-style tracking logs.

Input files are newline-delimited JSON, optionally gzip-compressed. The
parser keeps only browser-generated video and problem-check interactions;
everything else is counted and skipped, never fatal, because log formats
drift between course instances.
"""

from __future__ import annotations

import enum
import gzip
import json
import math
import re
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union


class EventFamily(enum.Enum):
    """Broad interaction family an event type belongs to."""

    VIDEO = "video"
    PROBLEM = "problem"
    OTHER = "other"


class EventType(enum.Enum):
    """Retained tracking-log event types, plus a catch-all ``OTHER``.

    Membership is a case-sensitive match on the raw event name.
    """

    LOAD_VIDEO = "load_video"
    PLAY_VIDEO = "play_video"
    PAUSE_VIDEO = "pause_video"
    SEEK_VIDEO = "seek_video"
    STOP_VIDEO = "stop_video"
    COMPLETE_VIDEO = "complete_video"
    HIDE_TRANSCRIPT = "hide_transcript"
    SPEED_CHANGE = "speed_change"
    PROBLEM_SHOW = "problem_show"
    PROBLEM_GRADED = "problem_graded"
    SAVE_PROBLEM_SUCCESS = "save_problem_success"
    SAVE_PROBLEM_FAIL = "save_problem_fail"
    PROBLEM_CHECK_FAIL = "problem_check_fail"
    SHOWANSWER = "showanswer"
    PROBLEM_CHECK = "problem_check"
    OTHER = "other"

    @property
    def family(self) -> EventFamily:
        return _FAMILY[self]


_VIDEO_TYPES = frozenset(
    {
        EventType.LOAD_VIDEO,
        EventType.PLAY_VIDEO,
        EventType.PAUSE_VIDEO,
        EventType.SEEK_VIDEO,
        EventType.STOP_VIDEO,
        EventType.COMPLETE_VIDEO,
        EventType.HIDE_TRANSCRIPT,
        EventType.SPEED_CHANGE,
    }
)

_PROBLEM_TYPES = frozenset(
    {
        EventType.PROBLEM_SHOW,
        EventType.PROBLEM_GRADED,
        EventType.SAVE_PROBLEM_SUCCESS,
        EventType.SAVE_PROBLEM_FAIL,
        EventType.PROBLEM_CHECK_FAIL,
        EventType.SHOWANSWER,
        EventType.PROBLEM_CHECK,
    }
)

_FAMILY = {
    **{t: EventFamily.VIDEO for t in _VIDEO_TYPES},
    **{t: EventFamily.PROBLEM for t in _PROBLEM_TYPES},
    EventType.OTHER: EventFamily.OTHER,
}

#: Retained event names, in enum declaration order.
RETAINED_EVENT_TYPES: tuple[EventType, ...] = tuple(
    t for t in EventType if t is not EventType.OTHER
)

_BY_NAME = {t.value: t for t in RETAINED_EVENT_TYPES}


def classify_event_type(name: str) -> EventType:
    """Map a raw event name to its retained type, or ``OTHER``. Total function."""
    return _BY_NAME.get(name, EventType.OTHER)


class EventSource(enum.Enum):
    BROWSER = "browser"
    SERVER = "server"
    OTHER = "other"

    @classmethod
    def from_raw(cls, raw) -> "EventSource":
        if raw == "browser":
            return cls.BROWSER
        if raw == "server":
            return cls.SERVER
        return cls.OTHER


@dataclass(frozen=True)
class VideoPayload:
    video_id: str
    duration: Optional[float] = None
    current_time: Optional[float] = None
    old_time: Optional[float] = None  # seek only
    new_time: Optional[float] = None  # seek only
    new_speed: Optional[float] = None  # speed_change only


@dataclass(frozen=True)
class ProblemPayload:
    problem_id: str
    grade: Optional[float] = None
    max_grade: Optional[float] = None
    success: Optional[bool] = None
    attempts: Optional[int] = None


Payload = Union[VideoPayload, ProblemPayload]


@dataclass(frozen=True)
class Event:
    """One retained, typed log record."""

    user_id: str
    course_id: str
    org_id: str
    session_id: Optional[str]
    timestamp: datetime
    event_type: EventType
    source: EventSource
    payload: Optional[Payload]


@dataclass(frozen=True)
class Malformed:
    """Line was not a usable record: bad JSON or missing mandatory fields."""

    reason: str


@dataclass(frozen=True)
class FilteredOut:
    """Valid record deliberately excluded: non-retained type or non-user source."""

    reason: str


ParseOutcome = Union[Event, Malformed, FilteredOut]


@dataclass
class ParseStats:
    """Line-level tally. Merging is commutative and associative."""

    lines_read: int = 0
    parsed: int = 0
    retained: int = 0
    malformed: int = 0
    filtered_out: int = 0

    def record(self, outcome: ParseOutcome) -> None:
        self.lines_read += 1
        if isinstance(outcome, Malformed):
            self.malformed += 1
        elif isinstance(outcome, FilteredOut):
            self.parsed += 1
            self.filtered_out += 1
        else:
            self.parsed += 1
            self.retained += 1

    def merge(self, other: "ParseStats") -> "ParseStats":
        return ParseStats(
            lines_read=self.lines_read + other.lines_read,
            parsed=self.parsed + other.parsed,
            retained=self.retained + other.retained,
            malformed=self.malformed + other.malformed,
            filtered_out=self.filtered_out + other.filtered_out,
        )

    __add__ = merge

    def as_dict(self) -> dict:
        return {
            "lines_read": self.lines_read,
            "parsed": self.parsed,
            "retained": self.retained,
            "malformed": self.malformed,
            "filtered_out": self.filtered_out,
        }


_FRACTION = re.compile(r"\.(\d+)")


def parse_timestamp(raw) -> Optional[datetime]:
    """Parse an ISO-8601 instant (fractional seconds, trailing Z) to UTC.

    Precision is quantized to milliseconds so that serialization round-trips.
    """
    if not isinstance(raw, str) or not raw:
        return None
    text = raw[:-1] + "+00:00" if raw.endswith("Z") else raw
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        # Python 3.10 only accepts 3- or 6-digit fractions; logs vary.
        normalized = _FRACTION.sub(lambda m: "." + m.group(1)[:6].ljust(6, "0"), text, count=1)
        try:
            ts = datetime.fromisoformat(normalized)
        except ValueError:
            return None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    else:
        ts = ts.astimezone(timezone.utc)
    return ts.replace(microsecond=ts.microsecond // 1000 * 1000)


def format_timestamp(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%S.") + f"{ts.microsecond // 1000:03d}Z"


def _as_float(value) -> Optional[float]:
    """Coerce a JSON number or numeric string to a finite float; anything
    else, NaN and the infinities included, is absent."""
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        return None
    try:
        num = float(value)
    except (ValueError, OverflowError):
        return None
    return num if math.isfinite(num) else None


def _nonneg(value) -> Optional[float]:
    num = _as_float(value)
    return num if num is not None and num >= 0 else None


def _positive(value) -> Optional[float]:
    num = _as_float(value)
    return num if num is not None and num > 0 else None


def _as_id(value) -> Optional[str]:
    if isinstance(value, str) and value:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return None


def _as_bool(value) -> Optional[bool]:
    if isinstance(value, bool):
        return value
    if value == "correct":
        return True
    if value == "incorrect":
        return False
    return None


def _video_payload(etype: EventType, raw: dict) -> Optional[VideoPayload]:
    video_id = _as_id(raw.get("id")) or _as_id(raw.get("video_id"))
    if video_id is None:
        return None
    current = raw.get("currentTime")
    if current is None:
        current = raw.get("current_time")
    return VideoPayload(
        video_id=video_id,
        duration=_nonneg(raw.get("duration")),
        current_time=_nonneg(current),
        old_time=_nonneg(raw.get("old_time")) if etype is EventType.SEEK_VIDEO else None,
        new_time=_nonneg(raw.get("new_time")) if etype is EventType.SEEK_VIDEO else None,
        new_speed=_positive(raw.get("new_speed")) if etype is EventType.SPEED_CHANGE else None,
    )


def _problem_payload(raw: dict) -> Optional[ProblemPayload]:
    problem_id = _as_id(raw.get("problem_id")) or _as_id(raw.get("id"))
    if problem_id is None:
        return None
    grade = _nonneg(raw.get("grade"))
    max_grade = _positive(raw.get("max_grade"))
    if grade is not None and max_grade is not None and grade > max_grade:
        grade = max_grade = None  # inconsistent pair, treat as unscored
    attempts = raw.get("attempts")
    if not isinstance(attempts, int) or isinstance(attempts, bool) or attempts < 0:
        attempts = None
    return ProblemPayload(
        problem_id=problem_id,
        grade=grade,
        max_grade=max_grade,
        success=_as_bool(raw.get("success")),
        attempts=attempts,
    )


def parse_line(text: Union[str, bytes]) -> ParseOutcome:
    """Parse one raw log line.

    Returns an :class:`Event` iff the line is valid JSON, names a retained
    event type, comes from the browser, and carries non-empty user and
    course identifiers plus a parseable timestamp. Deterministic: the same
    byte line always yields the same outcome.
    """
    try:
        obj = json.loads(text)
    except (ValueError, UnicodeDecodeError, RecursionError):
        # RecursionError: nesting deeper than the decoder's stack allows.
        return Malformed("invalid json")
    if not isinstance(obj, dict):
        return Malformed("not an object")

    # edX writes the discriminator to both "event_type" and "name";
    # "event_type" wins when they disagree.
    name = obj.get("event_type")
    if not isinstance(name, str) or not name:
        name = obj.get("name")
    if not isinstance(name, str) or not name:
        return Malformed("missing event type")

    etype = classify_event_type(name)
    if etype is EventType.OTHER:
        return FilteredOut("event_type")

    source = EventSource.from_raw(obj.get("event_source"))
    if source is not EventSource.BROWSER:
        return FilteredOut("source")

    context = obj.get("context")
    if not isinstance(context, dict):
        context = {}
    user_id = (
        _as_id(context.get("user_id"))
        or _as_id(obj.get("user_id"))
        or _as_id(obj.get("username"))
    )
    if user_id is None:
        return Malformed("missing user")
    course_id = _as_id(context.get("course_id")) or _as_id(obj.get("course_id"))
    if course_id is None:
        return Malformed("missing course")
    org_id = _as_id(context.get("org_id")) or _as_id(obj.get("org_id")) or ""

    timestamp = parse_timestamp(obj.get("time")) or parse_timestamp(obj.get("timestamp"))
    if timestamp is None:
        return Malformed("missing or bad timestamp")

    session_id = _as_id(obj.get("session")) or _as_id(obj.get("session_id"))

    raw_payload = obj.get("event")
    if isinstance(raw_payload, str):
        # Nested payloads sometimes arrive JSON-encoded; re-parse once.
        try:
            raw_payload = json.loads(raw_payload)
        except (ValueError, RecursionError):
            raw_payload = None
    payload: Optional[Payload] = None
    if isinstance(raw_payload, dict):
        if etype.family is EventFamily.VIDEO:
            payload = _video_payload(etype, raw_payload)
        else:
            payload = _problem_payload(raw_payload)

    return Event(
        user_id=user_id,
        course_id=course_id,
        org_id=org_id,
        session_id=session_id,
        timestamp=timestamp,
        event_type=etype,
        source=source,
        payload=payload,
    )


_PAYLOAD_FIELDS = (
    "video_id",
    "duration",
    "current_time",
    "old_time",
    "new_time",
    "new_speed",
    "problem_id",
    "grade",
    "max_grade",
    "success",
    "attempts",
)


def event_to_json(event: Event) -> str:
    """Serialize an event to its canonical flat one-line JSON form."""
    obj: dict = {
        "user_id": event.user_id,
        "course_id": event.course_id,
        "org_id": event.org_id,
    }
    if event.session_id is not None:
        obj["session_id"] = event.session_id
    obj["timestamp"] = format_timestamp(event.timestamp)
    obj["event_type"] = event.event_type.value
    obj["source"] = event.source.value
    payload = event.payload
    if payload is not None:
        for name in _PAYLOAD_FIELDS:
            value = getattr(payload, name, None)
            if value is not None:
                obj[name] = value
    return json.dumps(obj, separators=(",", ":"))


def event_from_json(line: Union[str, bytes]) -> Event:
    """Rebuild an event from its canonical serialized form."""
    obj = json.loads(line)
    etype = classify_event_type(obj["event_type"])
    timestamp = parse_timestamp(obj["timestamp"])
    if timestamp is None:
        raise ValueError(f"bad timestamp in serialized event: {obj['timestamp']!r}")
    payload: Optional[Payload] = None
    if "video_id" in obj:
        payload = VideoPayload(
            video_id=obj["video_id"],
            duration=obj.get("duration"),
            current_time=obj.get("current_time"),
            old_time=obj.get("old_time"),
            new_time=obj.get("new_time"),
            new_speed=obj.get("new_speed"),
        )
    elif "problem_id" in obj:
        payload = ProblemPayload(
            problem_id=obj["problem_id"],
            grade=obj.get("grade"),
            max_grade=obj.get("max_grade"),
            success=obj.get("success"),
            attempts=obj.get("attempts"),
        )
    return Event(
        user_id=obj["user_id"],
        course_id=obj["course_id"],
        org_id=obj.get("org_id", ""),
        session_id=obj.get("session_id"),
        timestamp=timestamp,
        event_type=etype,
        source=EventSource.from_raw(obj.get("source")),
        payload=payload,
    )


def open_log(path: Union[str, Path]) -> IO[bytes]:
    """Open a log file for binary reading, transparently decompressing .gz."""
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def iter_outcomes(path: Union[str, Path]) -> Iterator[ParseOutcome]:
    """Parse every line of a log file. A gzip stream that ends early or is
    corrupt raises :class:`gzip.BadGzipFile` naming the file."""
    with open_log(path) as handle:
        try:
            for line in handle:
                yield parse_line(line)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise gzip.BadGzipFile(f"{path}: truncated or corrupt gzip data ({exc})") from exc


def iter_events(
    path: Union[str, Path], stats: Optional[ParseStats] = None
) -> Iterator[Event]:
    """Yield retained events from a log file, tallying every line into ``stats``."""
    for outcome in iter_outcomes(path):
        if stats is not None:
            stats.record(outcome)
        if isinstance(outcome, Event):
            yield outcome


def parse_events(
    lines: Iterable[Union[str, bytes]], stats: Optional[ParseStats] = None
) -> Iterator[Event]:
    """Like :func:`iter_events` but over an in-memory iterable of lines."""
    for line in lines:
        outcome = parse_line(line)
        if stats is not None:
            stats.record(outcome)
        if isinstance(outcome, Event):
            yield outcome
