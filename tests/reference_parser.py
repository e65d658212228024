"""The reference line parser: edxmine's earlier ``parse_line``, kept as the
oracle that the fast parser in ``edxmine.events`` must agree with.

This is the parser as it stood before events became slotted and lost their
``source``, with its helpers, copied as they were. It still reads the
fields that events no longer keep (``org_id``, ``new_speed``, ``success`` and
``attempts``); the fuzz test drops them before comparing. Four things differ:

* it returns a plain tuple (see :func:`typed`) instead of building objects,
  so each field is compared with its type and the timestamp with its tzinfo;
* ``parse_timestamp`` treats an instant that leaves ``datetime``'s range when
  moved to UTC as unparseable. The earlier parser raised ``OverflowError``
  there, which crashed the run.
* a user or course id that UTF-8 cannot encode (one with a lone surrogate)
  is absent, so the line falls through to the next id source. The earlier
  parser kept it, and writing it out crashed the run.
* a timestamp must match :data:`_TIMESTAMP`, the form Python 3.10's
  ``datetime.fromisoformat`` documents. The earlier parser took whatever the
  running interpreter's ``fromisoformat`` took, and 3.11 takes more.

Do not speed this file up: its worth is that it is the slow, obvious form.
"""

from __future__ import annotations

import enum
import json
import math
import re
from datetime import datetime, timezone
from typing import Optional, Union

from edxmine.events import EventType, classify_event_type

_VIDEO_TYPE_NAMES = frozenset(
    {
        "load_video", "play_video", "pause_video", "seek_video", "stop_video",
        "complete_video", "hide_transcript", "speed_change",
    }
)


def typed(value) -> tuple[str, str]:
    """``value`` with its exact type, so that 1, 1.0, True and "1" differ,
    and so do 0.0 and -0.0."""
    return (type(value).__name__, repr(value))


def timestamp_fields(ts: datetime) -> tuple:
    """A timestamp as its wall-clock fields plus its tzinfo: two aware
    datetimes for the same instant compare equal, these tuples do not."""
    return (repr(ts), repr(ts.tzinfo))


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


# ``YYYY-MM-DD``, then optionally any one character, ``HH[:MM[:SS[.fraction]]]``
# and an offset: ``Z``, ``±HH:MM[:SS[.ffffff]]`` with minutes and seconds
# below 60, or none (UTC).
_TIMESTAMP = re.compile(
    r"""
    (?P<date> [0-9]{4}-[0-9]{2}-[0-9]{2} )
    (?:
        .
        (?P<hour> [0-9]{2} )
        (?: : (?P<minute> [0-9]{2} )
            (?: : (?P<second> [0-9]{2} ) (?: \. (?P<fraction> [0-9]+ ) )? )?
        )?
        (?P<offset> Z | [+-] [0-9]{2} : [0-5][0-9] (?: : [0-5][0-9] (?: \. [0-9]{6} )? )? )?
    )?
    """,
    re.VERBOSE | re.DOTALL,
)


def parse_timestamp(raw) -> Optional[datetime]:
    if not isinstance(raw, str):
        return None
    match = _TIMESTAMP.fullmatch(raw)
    if match is None:
        return None
    # Spelled out in full, each part in the one form every fromisoformat reads.
    fraction = (match["fraction"] or "")[:6].ljust(6, "0")
    offset = match["offset"] or "Z"
    text = "{}T{}:{}:{}.{}{}".format(
        match["date"], match["hour"] or "00", match["minute"] or "00", match["second"] or "00",
        fraction, "+00:00" if offset == "Z" else offset,
    )
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        return None
    try:
        ts = ts.astimezone(timezone.utc)
    except OverflowError:  # the earlier parser raised here
        return None
    return ts.replace(microsecond=ts.microsecond // 1000 * 1000)


def _as_float(value) -> Optional[float]:
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


def _as_written_id(value) -> Optional[str]:
    """A user or course id: as :func:`_as_id`, but one that UTF-8 cannot
    encode is absent, since the outputs hold these ids."""
    value = _as_id(value)
    if value is not None:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            return None
    return value


def _as_bool(value) -> Optional[bool]:
    if isinstance(value, bool):
        return value
    if value == "correct":
        return True
    if value == "incorrect":
        return False
    return None


def _video_payload(etype: EventType, raw: dict) -> Optional[tuple]:
    video_id = _as_id(raw.get("id")) or _as_id(raw.get("video_id"))
    if video_id is None:
        return None
    current = raw.get("currentTime")
    if current is None:
        current = raw.get("current_time")
    return (
        "VideoPayload",
        typed(video_id),
        typed(_nonneg(raw.get("duration"))),
        typed(_nonneg(current)),
        typed(_nonneg(raw.get("old_time")) if etype is EventType.SEEK_VIDEO else None),
        typed(_nonneg(raw.get("new_time")) if etype is EventType.SEEK_VIDEO else None),
        typed(_positive(raw.get("new_speed")) if etype is EventType.SPEED_CHANGE else None),
    )


def _problem_payload(raw: dict) -> Optional[tuple]:
    problem_id = _as_id(raw.get("problem_id")) or _as_id(raw.get("id"))
    if problem_id is None:
        return None
    grade = _nonneg(raw.get("grade"))
    max_grade = _positive(raw.get("max_grade"))
    if grade is not None and max_grade is not None and grade > max_grade:
        grade = max_grade = None
    attempts = raw.get("attempts")
    if not isinstance(attempts, int) or isinstance(attempts, bool) or attempts < 0:
        attempts = None
    return (
        "ProblemPayload",
        typed(problem_id),
        typed(grade),
        typed(max_grade),
        typed(_as_bool(raw.get("success"))),
        typed(attempts),
    )


def reference_outcome(text: Union[str, bytes]) -> tuple:
    """The outcome of one raw line: ``("malformed", reason)``,
    ``("filtered", reason)``, or ``("event", None, user_id, course_id,
    org_id, session_id, timestamp, event_type, payload)`` with every field
    from :func:`typed` or :func:`timestamp_fields`."""
    try:
        obj = json.loads(text)
    except (ValueError, UnicodeDecodeError, RecursionError):
        return ("malformed", "invalid json")
    if not isinstance(obj, dict):
        return ("malformed", "not an object")

    name = obj.get("event_type")
    if not isinstance(name, str) or not name:
        name = obj.get("name")
    if not isinstance(name, str) or not name:
        return ("malformed", "missing event type")

    etype = classify_event_type(name)
    if etype is EventType.OTHER:
        return ("filtered", "event_type")

    source = EventSource.from_raw(obj.get("event_source"))
    if source is not EventSource.BROWSER:
        return ("filtered", "source")

    context = obj.get("context")
    if not isinstance(context, dict):
        context = {}
    user_id = (
        _as_written_id(context.get("user_id"))
        or _as_written_id(obj.get("user_id"))
        or _as_written_id(obj.get("username"))
    )
    if user_id is None:
        return ("malformed", "missing user")
    course_id = _as_written_id(context.get("course_id")) or _as_written_id(obj.get("course_id"))
    if course_id is None:
        return ("malformed", "missing course")
    org_id = _as_id(context.get("org_id")) or _as_id(obj.get("org_id")) or ""

    timestamp = parse_timestamp(obj.get("time")) or parse_timestamp(obj.get("timestamp"))
    if timestamp is None:
        return ("malformed", "missing or bad timestamp")

    session_id = _as_id(obj.get("session")) or _as_id(obj.get("session_id"))

    raw_payload = obj.get("event")
    if isinstance(raw_payload, str):
        try:
            raw_payload = json.loads(raw_payload)
        except (ValueError, RecursionError):
            raw_payload = None
    payload = None
    if isinstance(raw_payload, dict):
        if etype.value in _VIDEO_TYPE_NAMES:
            payload = _video_payload(etype, raw_payload)
        else:
            payload = _problem_payload(raw_payload)

    return (
        "event",
        None,
        typed(user_id),
        typed(course_id),
        typed(org_id),
        typed(session_id),
        timestamp_fields(timestamp),
        etype.value,
        payload,
    )
