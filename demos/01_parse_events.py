"""Parsing tracking-log lines: retained, filtered, and malformed outcomes.

The parser never raises on bad input. Every line lands in exactly one of
three buckets, and the tallies always reconcile:
    lines_read = parsed + malformed
    parsed     = retained + filtered_out
"""

import json

from edxmine import Event, ParseStats, parse_line
from edxmine.events import event_to_json

lines = [
    # A browser video event: retained.
    json.dumps(
        {
            "name": "play_video",
            "event_type": "play_video",
            "event_source": "browser",
            "context": {"user_id": 39071876, "course_id": "course-v1:GTX+CS1301+1T2021a", "org_id": "GTX"},
            "session": "c8789c2a8eed52a5924f5d6c4c234ea2",
            "time": "2021-08-26T00:46:55.696Z",
            "event": {"id": "7b8771ce82464140ba1e0d24c1a10e68", "code": "hls", "duration": 53.4, "currentTime": 0},
        }
    ),
    # A problem check with grades; the nested payload may arrive as a string.
    json.dumps(
        {
            "event_type": "problem_check",
            "event_source": "browser",
            "context": {"user_id": 39071876, "course_id": "course-v1:GTX+CS1301+1T2021a"},
            "time": "2021-08-26T00:52:10.100Z",
            "event": json.dumps({"problem_id": "block@p1", "grade": 3, "max_grade": 4}),
        }
    ),
    # Valid JSON, but not an event type this analysis keeps.
    json.dumps(
        {
            "event_type": "edx.course.enrollment.activated",
            "event_source": "server",
            "context": {"user_id": 1, "course_id": "c"},
            "time": "2021-08-26T00:00:00.000Z",
        }
    ),
    # Server-side replica of a user event: filtered, only browser events count.
    json.dumps(
        {
            "event_type": "play_video",
            "event_source": "server",
            "context": {"user_id": 1, "course_id": "c"},
            "time": "2021-08-26T00:00:00.000Z",
        }
    ),
    # Line damage happens; it is counted, never fatal.
    '{"event_type": "play_video", "event_source": "browser", ...truncated',
]

stats = ParseStats()
for line in lines:
    outcome = parse_line(line)
    stats.record(outcome)
    if isinstance(outcome, Event):
        print(f"retained  {outcome.event_type.value:<22} user={outcome.user_id} payload={outcome.payload}")
    else:
        print(f"{type(outcome).__name__:<9} reason={outcome.reason}")

print("\ntallies:", stats.as_dict())
assert stats.lines_read == stats.parsed + stats.malformed
assert stats.parsed == stats.retained + stats.filtered_out

# A retained event has a canonical one-line JSON form; it also orders events
# that share a timestamp.
event = parse_line(lines[0])
print("\ncanonical form:", event_to_json(event))
