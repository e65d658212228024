from __future__ import annotations

import json
import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest

from edxmine.events import (
    Event,
    EventType,
    ProblemPayload,
    VideoPayload,
    classify_event_type,
)
from edxmine.manifest import (
    Block, BlockKind, Chapter, CourseManifest, Section, SubModule, manifest_to_dict,
)
from edxmine.synth import default_corpus_spec, generate_corpus, write_corpus

T0 = datetime(2021, 8, 26, 0, 46, 55, 696000, tzinfo=timezone.utc)


def at(seconds: float = 0.0) -> datetime:
    return T0 + timedelta(seconds=seconds)


def video_event(
    name: str,
    video: str = "v1",
    t: float = 0.0,
    user: str = "u1",
    course: str = "c1",
    session: str | None = None,
    duration: float | None = None,
    current_time: float | None = None,
    old_time: float | None = None,
    new_time: float | None = None,
) -> Event:
    etype = classify_event_type(name)
    return Event(
        user_id=user,
        course_id=course,
        session_id=session,
        timestamp=at(t),
        event_type=etype,
        payload=VideoPayload(
            video_id=video,
            duration=duration,
            current_time=current_time,
            old_time=old_time if etype is EventType.SEEK_VIDEO else None,
            new_time=new_time if etype is EventType.SEEK_VIDEO else None,
        ),
    )


def problem_event(
    name: str,
    problem: str = "p1",
    t: float = 0.0,
    user: str = "u1",
    course: str = "c1",
    session: str | None = None,
    grade: float | None = None,
    max_grade: float | None = None,
) -> Event:
    return Event(
        user_id=user,
        course_id=course,
        session_id=session,
        timestamp=at(t),
        event_type=classify_event_type(name),
        payload=ProblemPayload(problem_id=problem, grade=grade, max_grade=max_grade),
    )


def bare_event(
    name: str,
    t: float = 0.0,
    user: str = "u1",
    course: str = "c1",
    session: str | None = None,
) -> Event:
    return Event(
        user_id=user,
        course_id=course,
        session_id=session,
        timestamp=at(t),
        event_type=classify_event_type(name),
        payload=None,
    )


def raw_line(
    name: str = "play_video",
    user: str | int = 39071876,
    course: str = "course-v1:GTX+CS1301+1T2021a",
    org: str = "GTX",
    session: str | None = "c8789c2a8eed52a5924f5d6c4c234ea2",
    source: str = "browser",
    time: str = "2021-08-26T00:46:55.696Z",
    event: dict | str | None = None,
    **extra,
) -> str:
    """Build an edX-shaped raw log line."""
    record: dict = {
        "name": name,
        "event_type": name,
        "event_source": source,
        "context": {"user_id": user, "course_id": course, "org_id": org},
        "time": time,
    }
    if session is not None:
        record["session"] = session
    if event is not None:
        record["event"] = event
    record.update(extra)
    return json.dumps(record)


def _numbered_blocks(prefix: str, kind: BlockKind, count: int) -> list[Block]:
    return [Block(f"{prefix}-{i}", kind) for i in range(count)]


@pytest.fixture
def content_table_manifest() -> CourseManifest:
    """Four sub-modules with the reference per-kind block counts."""
    rows = [
        ("Fundamentals", 160, 56, 54, 67),
        ("Control Structures", 122, 85, 77, 85),
        ("Data Structures", 117, 58, 44, 111),
        ("Objects and Algorithms", 43, 17, 60, 32),
    ]
    submodules = []
    for si, (name, videos, ungraded, coding, graded) in enumerate(rows):
        blocks = (
            _numbered_blocks(f"s{si}-v", BlockKind.VIDEO, videos)
            + _numbered_blocks(f"s{si}-u", BlockKind.UNGRADED_EXERCISE, ungraded)
            + _numbered_blocks(f"s{si}-c", BlockKind.CODING_EXERCISE, coding)
            + _numbered_blocks(f"s{si}-g", BlockKind.GRADED_PROBLEM, graded)
        )
        submodules.append(
            SubModule(
                name=name,
                chapters=(
                    Chapter(name="all", sections=(Section(name="all", blocks=tuple(blocks)),)),
                ),
            )
        )
    return CourseManifest(course_id="c1", course_start=None, submodules=tuple(submodules))


def random_manifest(rng: random.Random) -> CourseManifest:
    counter = 0
    submodules = []
    for si in range(rng.randint(1, 3)):
        chapters = []
        for ci in range(rng.randint(1, 3)):
            sections = []
            for ei in range(rng.randint(1, 3)):
                blocks = []
                for _ in range(rng.randint(0, 5)):
                    kind = rng.choice(list(BlockKind))
                    blocks.append(Block(f"b{counter}", kind))
                    counter += 1
                sections.append(Section(name=f"s{ei}", blocks=tuple(blocks)))
            chapters.append(Chapter(name=f"c{ci}", sections=tuple(sections)))
        submodules.append(SubModule(name=f"m{si}", chapters=tuple(chapters)))
    return CourseManifest(course_id="rand", course_start=None, submodules=tuple(submodules))


def random_video_events(rng: random.Random, video: str = "v1") -> list[Event]:
    """Random play/pause/seek/stop/complete stream with millisecond-aligned
    positions and the duration on the first event."""
    duration = round(rng.uniform(10.0, 600.0), 3)

    def pos() -> float:
        # Occasionally beyond the duration to exercise clamping.
        return round(rng.uniform(0.0, duration * 1.2), 3)

    events = []
    t = 0.0
    first = True
    for _ in range(rng.randint(1, 12)):
        name = rng.choice(
            ["play_video", "pause_video", "seek_video", "stop_video", "complete_video",
             "load_video", "speed_change"]
        )
        kwargs: dict = {"duration": duration if first else None}
        if name == "seek_video":
            kwargs["old_time"] = pos() if rng.random() < 0.9 else None
            kwargs["new_time"] = pos() if rng.random() < 0.9 else None
        else:
            kwargs["current_time"] = pos() if rng.random() < 0.9 else None
        events.append(video_event(name, video=video, t=t, **kwargs))
        first = False
        t += rng.uniform(1.0, 30.0)
    return events


def random_corpus_with_ties(rng: random.Random, n_users: int = 6) -> list[Event]:
    """Shuffled events of ``n_users`` users in one or two courses, with float
    numbers as the parser yields them: random video streams and problem
    attempts and, per user, a few events in one millisecond. Those include a
    seek that also carries ``current_time``, ``-0.0`` positions next to
    ``0.0``, and events without a payload."""
    events = []
    for u in range(n_users):
        user = f"user{u}"
        course = rng.choice(["c1", "c2"])
        for v in range(rng.randint(0, 3)):
            events += [replace(ev, user_id=user, course_id=course)
                       for ev in random_video_events(rng, video=f"v{v}")]
        for p in range(rng.randint(0, 3)):
            for _ in range(rng.randint(1, 4)):
                name = rng.choice(["problem_check", "problem_check_fail", "problem_show"])
                events.append(problem_event(
                    name, problem=f"p{p}", t=round(rng.uniform(0, 300), 3), user=user,
                    course=course, grade=rng.choice([None, 0.0, 0.5, 1.0]), max_grade=1.0,
                ))
        t = round(rng.uniform(0, 300), 3)
        tied = [
            video_event("seek_video", t=t, user=user, course=course,
                        current_time=rng.choice([0.0, -0.0]), old_time=-0.0, new_time=0.0),
            video_event("play_video", t=t, user=user, course=course, current_time=0.0),
            video_event("play_video", t=t, user=user, course=course, current_time=-0.0),
            bare_event("problem_check", t=t, user=user, course=course),
            bare_event("load_video", t=t, user=user, course=course, session=f"{user}-s"),
            problem_event("problem_check", t=t, user=user, course=course, grade=0.5,
                          max_grade=1.0),
        ]
        events += rng.sample(tied, rng.randint(2, len(tied)))
    rng.shuffle(events)
    return events


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """A 32-user synthetic corpus with its manifest and an on-campus run config."""
    root = tmp_path_factory.mktemp("corpus")
    spec = default_corpus_spec(users_per_class=4, seed=321)
    corpus = generate_corpus(spec)
    events_path, labels_path = write_corpus(corpus, root)
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps(manifest_to_dict(spec.manifest)))
    run_config = root / "run.json"
    run_config.write_text(
        json.dumps(
            {
                "manifest": "manifest.json",
                "cohorts": [
                    {"pattern": "SYN", "modality": "on_campus", "term": "Fall 2021"}
                ],
                "anchors": {"on_campus:Fall 2021": "2021-08-23"},
            }
        )
    )
    return {
        "spec": spec,
        "corpus": corpus,
        "events": events_path,
        "labels": labels_path,
        "manifest": manifest_path,
        "run_config": run_config,
    }


def tied_lines(corpus: dict):
    """A builder of raw lines for ``corpus``'s course, all in one millisecond,
    with a video id, a graded problem id and a half-marks payload for it."""
    manifest = corpus["spec"].manifest
    blocks = [b for _, b in manifest.iter_blocks()]

    def tied(name, user, event, org="SYN"):
        return raw_line(name, user=user, course=manifest.course_id, org=org,
                        session=f"{user}-s", time="2021-09-01T10:00:00.500Z", event=event)

    tied.video = next(b.block_id for b in blocks if b.kind is BlockKind.VIDEO)
    tied.problem = next(b.block_id for b in blocks if b.kind is BlockKind.GRADED_PROBLEM)
    tied.graded = {"problem_id": tied.problem, "grade": 1, "max_grade": 2}
    return tied


def tie_pairs(corpus: dict) -> list[tuple[str, str]]:
    """Pairs of events in one millisecond: a play and a pause for three
    users, and two loads that differ only in org_id."""
    tied = tied_lines(corpus)
    event = {"id": tied.video, "currentTime": 3.0, "duration": 60.0}
    pairs = [(tied("play_video", u, event), tied("pause_video", u, event))
             for u in ("tie-1", "tie-2", "tie-3")]
    pairs.append((tied("load_video", "tie-1", event, "GTX"),
                  tied("load_video", "tie-1", event, "MITx")))
    return pairs
