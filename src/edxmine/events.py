"""Typed event model and tolerant line-level parser for edX-style tracking logs.

Input files are newline-delimited JSON, optionally gzip-compressed. The
parser keeps only browser-generated video and problem-check interactions;
everything else is counted and skipped, never fatal, because log formats
drift between course instances.
"""

from __future__ import annotations

import enum
import gzip
import io
import json
import math
import re
import zlib
from dataclasses import asdict, astuple, dataclass
from datetime import date, datetime, timedelta, timezone
from itertools import repeat
from json.scanner import make_scanner
from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union


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


#: Types whose payload is a :class:`VideoPayload`; the others carry a :class:`ProblemPayload`.
VIDEO_TYPES = frozenset(
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

#: Retained event names, in enum declaration order.
RETAINED_EVENT_TYPES: tuple[EventType, ...] = tuple(
    t for t in EventType if t is not EventType.OTHER
)

_BY_NAME = {t.value: t for t in RETAINED_EVENT_TYPES}


def classify_event_type(name: str) -> EventType:
    """Map a raw event name to its retained type, or ``OTHER``. Total function."""
    return _BY_NAME.get(name, EventType.OTHER)


@dataclass(slots=True)
class VideoPayload:
    video_id: str
    duration: Optional[float] = None
    current_time: Optional[float] = None
    old_time: Optional[float] = None  # seek only
    new_time: Optional[float] = None  # seek only


@dataclass(slots=True)
class ProblemPayload:
    problem_id: str
    grade: Optional[float] = None
    max_grade: Optional[float] = None


Payload = Union[VideoPayload, ProblemPayload]


@dataclass(slots=True)
class Event:
    """One retained, typed log record, holding only fields that some
    computation reads. Every retained event comes from the browser, so the
    source is not kept."""

    user_id: str
    course_id: str
    session_id: Optional[str]
    timestamp: datetime
    event_type: EventType
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
        self.add(1, isinstance(outcome, Malformed), isinstance(outcome, FilteredOut))

    def add(self, lines: int, malformed: int, filtered_out: int) -> None:
        """Tally ``lines`` lines: ``malformed`` malformed, ``filtered_out``
        filtered out and the rest retained."""
        self.lines_read += lines
        self.parsed += lines - malformed
        self.retained += lines - malformed - filtered_out
        self.malformed += malformed
        self.filtered_out += filtered_out

    def merge(self, other: "ParseStats") -> "ParseStats":
        return ParseStats(*(a + b for a, b in zip(astuple(self), astuple(other))))

    def as_dict(self) -> dict:
        return asdict(self)


# A timestamp is ``YYYY-MM-DD``, optionally followed by any one separator
# character and ``HH[:MM[:SS[.fraction]]]``, then by ``Z``, by
# ``±HH:MM[:SS[.ffffff]]`` or by nothing (UTC). This is the form Python 3.10's
# ``datetime.fromisoformat`` documents, plus ``Z`` and a fraction of any
# length, less an offset's minutes or seconds of 60 or more, which
# ``fromisoformat`` reads as more minutes or seconds. Later versions of
# ``fromisoformat`` also accept basic (``20210823T102242``), week-date,
# comma-fraction and ``+0200`` forms, so it is only called on shapes that
# every version reads alike.
_TIMESTAMP = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})"
    r"(?:.([0-9]{2})(?::([0-9]{2})(?::([0-9]{2})(?:\.([0-9]+))?)?)?"
    r"(?:Z|([+-])([0-9]{2}):([0-5][0-9])(?::([0-5][0-9])(?:\.([0-9]{6}))?)?)?)?",
    re.DOTALL,
)
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_UTC = timezone.utc
_INF = math.inf
_isfinite = math.isfinite


def parse_date(raw) -> date:
    """A ``YYYY-MM-DD`` string as a date; any other value raises ValueError."""
    if type(raw) is not str or not _DATE.fullmatch(raw):
        raise ValueError(f"not a YYYY-MM-DD date: {raw!r}")
    return date.fromisoformat(raw)


def _timestamp_from_grammar(raw: str) -> Optional[datetime]:
    match = _TIMESTAMP.fullmatch(raw)
    if match is None:
        return None
    year, month, day, hour, minute, second, fraction, sign, oh, om, os_, of = match.groups()
    micro = int(fraction[:6].ljust(6, "0")) if fraction else 0
    try:
        tz = _UTC
        if sign:
            offset = timedelta(hours=int(oh), minutes=int(om), seconds=int(os_ or 0),
                               microseconds=int(of or 0))
            tz = timezone(-offset if sign == "-" else offset)  # ValueError past 24 h
        return datetime(int(year), int(month), int(day), int(hour or 0), int(minute or 0),
                        int(second or 0), micro, tz)
    except ValueError:
        return None


def parse_timestamp(raw) -> Optional[datetime]:
    """Parse a timestamp of the grammar above to UTC.

    Precision is quantized to milliseconds so that serialization round-trips.
    An instant that falls outside ``datetime``'s range once moved to UTC is
    unparseable.
    """
    # Decoded JSON holds exact types, so ``type(...) is`` suffices here and in
    # the field checks below; it is cheaper than isinstance.
    if type(raw) is not str:
        return None
    # The shapes logs use, ``YYYY-MM-DDTHH:MM:SS``, then ``.fff``, ``.ffffff``
    # or nothing, then ``Z`` or ``±HH:MM`` with minutes below 60, are told by
    # their length and punctuation alone: every version of ``fromisoformat``
    # reads the other places of these as ASCII digits or fails, unless one
    # holds a NUL, where its C parser may stop reading. Anything else goes
    # through the grammar's regex.
    n = len(raw)
    punct = raw[4:20:3]
    if (
        (
            punct == "--T::."
            and ((n == 24 or n == 27) and raw[-1] == "Z"
                 or (n == 29 or n == 32) and raw[n - 6] in "+-" and raw[n - 3] == ":"
                 and raw[-2] < "6")
            or n == 20 and punct == "--T::Z"
            or n == 25 and (punct == "--T::+" or punct == "--T::-") and raw[22] == ":"
            and raw[-2] < "6"
        )
        and "\0" not in raw
    ):
        # Python 3.10 reads a UTC offset but not Z. Of a 6-digit fraction
        # only the milliseconds are kept, so its last three places are
        # checked here and not parsed.
        if n == 27 or n == 32:
            dropped = raw[23:26]
            if not (dropped.isdigit() and dropped.isascii()):
                return None
            raw = raw[:23] + ("+00:00" if n == 27 else raw[26:])
        elif raw[-1] == "Z":
            raw = raw[:-1] + "+00:00"
        try:
            ts = datetime.fromisoformat(raw)
        except ValueError:
            return None
    else:
        ts = _timestamp_from_grammar(raw)
        if ts is None:
            return None
    # A zero offset parses to the ``timezone.utc`` singleton, which needs no
    # conversion.
    tz = ts.tzinfo
    if tz is not _UTC:
        try:
            ts = ts.astimezone(_UTC)
        except OverflowError:
            return None
    micro = ts.microsecond
    if micro % 1000:
        ts = ts.replace(microsecond=micro - micro % 1000)
    return ts


def format_timestamp(ts: datetime) -> str:
    """``ts``'s wall clock as ``YYYY-MM-DDTHH:MM:SS.mmmZ``, the year always
    four digits."""
    # isoformat zero-pads the year, where strftime("%Y") gives "999".
    return ts.isoformat(timespec="milliseconds")[:23] + "Z"


def _as_float(value) -> Optional[float]:
    """Coerce a JSON integer or numeric string to a finite float; anything
    else, NaN and the infinities included, is absent. Callers test for a
    float first."""
    kind = type(value)
    if kind is int:
        try:
            return float(value)
        except OverflowError:
            return None
    if kind is str:
        try:
            num = float(value)
        except ValueError:
            return None
        return num if _isfinite(num) else None
    return None


def _nonneg(value) -> Optional[float]:
    if type(value) is float:
        return value if 0 <= value < _INF else None  # False for NaN
    num = _as_float(value)
    return num if num is not None and num >= 0 else None


def _positive(value) -> Optional[float]:
    if type(value) is float:
        return value if 0 < value < _INF else None
    num = _as_float(value)
    return num if num is not None and num > 0 else None


def _as_id(value) -> Optional[str]:
    kind = type(value)
    if kind is str:
        return value or None
    if kind is int:
        return str(value)
    return None


def _as_written_id(value) -> Optional[str]:
    """:func:`_as_id` for the user and course ids, which the outputs hold: a
    string that UTF-8 cannot encode, one with a lone surrogate, is absent."""
    # Not a call to _as_id: every retained line passes here at least twice,
    # and a nested call there is a measurable share of the parse.
    kind = type(value)
    if kind is str:
        if value.isascii():
            return value or None
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return None
        return value
    if kind is int:
        return str(value)
    return None


def _video_payload(etype: EventType, raw: dict, share) -> Optional[VideoPayload]:
    video_id = _as_id(raw.get("id")) or _as_id(raw.get("video_id"))
    if video_id is None:
        return None
    current = raw.get("currentTime")
    if current is None:
        current = raw.get("current_time")
    old_time = new_time = None
    if etype is EventType.SEEK_VIDEO:
        old_time = _nonneg(raw.get("old_time"))
        new_time = _nonneg(raw.get("new_time"))
    duration = _nonneg(raw.get("duration"))
    return VideoPayload(share(video_id, video_id), duration, _nonneg(current), old_time, new_time)


def _problem_payload(raw: dict, share) -> Optional[ProblemPayload]:
    problem_id = _as_id(raw.get("problem_id")) or _as_id(raw.get("id"))
    if problem_id is None:
        return None
    grade = _nonneg(raw.get("grade"))
    max_grade = _positive(raw.get("max_grade"))
    if grade is not None and max_grade is not None and grade > max_grade:
        grade = max_grade = None  # inconsistent pair, treat as unscored
    return ProblemPayload(share(problem_id, problem_id), grade, max_grade)


_scan = make_scanner(json.JSONDecoder())
_JSON_SPACE = " \t\n\r"
_detect_encoding = json.detect_encoding
_NO_CONTEXT: dict = {}


# The outcomes are frozen, so one instance per reason serves every line.
_INVALID_JSON = Malformed("invalid json")
_NOT_AN_OBJECT = Malformed("not an object")
_MISSING_EVENT_TYPE = Malformed("missing event type")
_MISSING_USER = Malformed("missing user")
_MISSING_COURSE = Malformed("missing course")
_BAD_TIMESTAMP = Malformed("missing or bad timestamp")
_OTHER_EVENT_TYPE = FilteredOut("event_type")
_OTHER_SOURCE = FilteredOut("source")


#: A retained line's type, user id, course id, timestamp and decoded object.
Head = tuple[EventType, str, str, datetime, dict]


def _decode(text: Union[str, bytes]):
    """The value of a raw line or string as ``json.loads`` gives it, or the
    invalid-JSON outcome."""
    try:
        if type(text) is not str:
            # What json.loads does with bytes. json.detect_encoding can only
            # answer UTF-8 for a line that opens with "{" and has no NUL next.
            if text[:1] == b"{" and text[1:2] != b"\x00":
                text = text.decode("utf-8", "surrogatepass")
            else:
                text = text.decode(_detect_encoding(text), "surrogatepass")
        text = text.strip(_JSON_SPACE)
        value, end = _scan(text, 0)  # json.loads without its wrappers
    except (ValueError, RecursionError, StopIteration):
        # ValueError includes UnicodeDecodeError; RecursionError: nesting too
        # deep for the decoder's stack; StopIteration: no value starts the text.
        return _INVALID_JSON
    return value if end == len(text) else _INVALID_JSON


def _head(obj) -> Union[Head, Malformed, FilteredOut]:
    """The head of a decoded line that is retained, or the outcome that
    rejects it with its reason."""
    if type(obj) is not dict:
        return obj if obj is _INVALID_JSON else _NOT_AN_OBJECT

    # edX writes the discriminator to both "event_type" and "name";
    # "event_type" wins when they disagree.
    name = obj.get("event_type")
    if type(name) is not str or not name:
        name = obj.get("name")
        if type(name) is not str or not name:
            return _MISSING_EVENT_TYPE

    etype = _BY_NAME.get(name)
    if etype is None:
        return _OTHER_EVENT_TYPE
    if obj.get("event_source") != "browser":
        return _OTHER_SOURCE

    context = obj.get("context")
    if type(context) is not dict:
        context = _NO_CONTEXT
    user_id = (
        _as_written_id(context.get("user_id"))
        or _as_written_id(obj.get("user_id"))
        or _as_written_id(obj.get("username"))
    )
    if user_id is None:
        return _MISSING_USER
    course_id = _as_written_id(context.get("course_id")) or _as_written_id(obj.get("course_id"))
    if course_id is None:
        return _MISSING_COURSE

    timestamp = parse_timestamp(obj.get("time")) or parse_timestamp(obj.get("timestamp"))
    if timestamp is None:
        return _BAD_TIMESTAMP
    return etype, user_id, course_id, timestamp, obj


def event_of(head: Head, memo: Optional[dict] = None) -> Event:
    """The event of a retained line's head, its session and payload read
    from the decoded object. Its user, course, session and content ids are
    looked up in ``memo`` and added to it, so that the events of one parse
    hold one string object per distinct id."""
    etype, user_id, course_id, timestamp, obj = head
    session_id = _as_id(obj.get("session")) or _as_id(obj.get("session_id"))

    if memo is None:
        memo = {}
    # Only string ids are shared. Floats are not: 0.0 == -0.0, yet the two
    # serialize differently, and that form orders tied events.
    share = memo.setdefault
    raw_payload = obj.get("event")
    if type(raw_payload) is str:
        # Nested payloads sometimes arrive JSON-encoded; re-parse once.
        raw_payload = _decode(raw_payload)
    payload: Optional[Payload] = None
    if type(raw_payload) is dict:
        if etype in VIDEO_TYPES:
            payload = _video_payload(etype, raw_payload, share)
        else:
            payload = _problem_payload(raw_payload, share)

    if session_id is not None:
        session_id = share(session_id, session_id)
    return Event(
        share(user_id, user_id), share(course_id, course_id), session_id, timestamp, etype, payload
    )


def parse_line(text: Union[str, bytes], memo: Optional[dict] = None) -> ParseOutcome:
    """Parse one raw log line.

    Returns an :class:`Event` iff the line is valid JSON, names a retained
    event type, comes from the browser, and carries non-empty user and
    course identifiers that UTF-8 can encode plus a parseable timestamp.
    Deterministic: the same byte line always yields the same outcome. Ids
    are shared through ``memo`` as :func:`event_of` says.
    """
    head = _head(_decode(text))
    return event_of(head, memo) if type(head) is tuple else head


def event_to_json(event: Event) -> str:
    """Serialize an event to its canonical flat one-line JSON form, which is
    also the order of events that share a timestamp."""
    obj: dict = {"user_id": event.user_id, "course_id": event.course_id}
    if event.session_id is not None:
        obj["session_id"] = event.session_id
    obj["timestamp"] = format_timestamp(event.timestamp)
    obj["event_type"] = event.event_type.value
    payload = event.payload
    if payload is not None:
        for name in payload.__slots__:
            value = getattr(payload, name)
            if value is not None:
                obj[name] = value
    return json.dumps(obj, separators=(",", ":"))


def open_log(path: Union[str, Path]) -> IO[bytes]:
    """Open a log file for binary reading, transparently decompressing .gz."""
    path = Path(path)
    if path.suffix == ".gz":
        # A BufferedReader splits the lines in C; GzipFile.readline is Python.
        return io.BufferedReader(gzip.open(path, "rb"))
    return open(path, "rb")


def _heads(lines: Iterable[Union[str, bytes]], stats: ParseStats) -> Iterator[Head]:
    """The heads of the retained lines; every line is tallied into
    ``stats`` once the lines are exhausted or the generator is closed."""
    read = malformed = filtered_out = 0
    try:
        for read, line in enumerate(lines, 1):
            head = _head(_decode(line))
            if type(head) is tuple:
                yield head
            elif type(head) is Malformed:
                malformed += 1
            else:
                filtered_out += 1
    finally:
        stats.add(read, malformed, filtered_out)


def iter_events(path: Union[str, Path], stats: Optional[ParseStats] = None) -> Iterator[Head]:
    """Yield the heads of a log file's retained lines (see :func:`event_of`),
    tallying every line into ``stats``: the tallies are complete once the
    generator is exhausted or closed. A gzip stream that ends early or is
    corrupt raises :class:`gzip.BadGzipFile` naming the file."""
    with open_log(path) as handle:
        try:
            yield from _heads(handle, stats or ParseStats())
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise gzip.BadGzipFile(f"{path}: truncated or corrupt gzip data ({exc})") from exc


def parse_events(
    lines: Iterable[Union[str, bytes]],
    stats: Optional[ParseStats] = None,
    memo: Optional[dict] = None,
) -> Iterator[Event]:
    """The retained events of raw lines, tallying every line into ``stats``
    once the lines are exhausted. Equal ids share one string object across
    the lines, and across calls given the same ``memo``."""
    return map(event_of, _heads(lines, stats or ParseStats()), repeat({} if memo is None else memo))
