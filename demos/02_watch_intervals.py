"""Reconstructing which parts of a video a student actually watched.

A play opens an interval at its playhead; the next video event closes it:
pause/stop at their playhead, a seek at its pre-seek position, a completion
at the video duration. Overlapping passes merge, so rewatching a segment
never counts twice.
"""

from datetime import datetime, timedelta, timezone

from edxmine.events import Event, EventType, VideoPayload
from edxmine.engagement import reconstruct_intervals

T0 = datetime(2021, 8, 26, 10, 0, tzinfo=timezone.utc)


def ev(etype, t, **payload):
    return Event(
        user_id="u1", course_id="c1", session_id=None,
        timestamp=T0 + timedelta(seconds=t),
        event_type=EventType(etype),
        payload=VideoPayload(video_id="v1", **payload),
    )


# Watch 0..10s, jump from 20s back to 5s, watch 5..15s. Content covered:
# [0,20] from the first pass plus [5,15] inside it.
stream = [
    ev("play_video", 0, current_time=0.0, duration=100.0),
    ev("seek_video", 20, old_time=20.0, new_time=5.0),
    ev("play_video", 21, current_time=5.0),
    ev("stop_video", 31, current_time=15.0),
]

record = reconstruct_intervals(stream)
print("intervals:", record.intervals)
print("seconds watched:", record.watched_seconds)
print("watch fraction: ", record.watch_fraction)

# Pausing right at the end means the whole video was covered.
full = [
    ev("play_video", 0, current_time=0.0, duration=53.4),
    ev("pause_video", 54, current_time=53.4),
]
print("\nfull watch fraction:", reconstruct_intervals(full).watch_fraction)

# A play that never closes contributes nothing; we cannot know how far it got.
dangling = [ev("play_video", 0, current_time=0.0, duration=60.0)]
print("dangling play fraction:", reconstruct_intervals(dangling).watch_fraction)
