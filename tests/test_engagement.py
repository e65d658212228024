from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from itertools import chain

import pytest

import edxmine.engagement as engagement
from edxmine.engagement import (
    NoAttemptsError,
    StudentAggregate,
    StudentEvents,
    aggregate_corpus,
    aggregate_student,
    collect_student_events,
    merge_student_events,
    problem_history,
    reconstruct_intervals,
    score_r,
    union_intervals,
)
from edxmine.events import EventType, VideoPayload, event_to_json, parse_events
from edxmine.manifest import parse_manifest
from edxmine.synth import default_corpus_spec, generate_corpus
from conftest import (
    at,
    bare_event,
    problem_event,
    random_corpus_with_ties,
    random_video_events,
    video_event,
)


def oracle_watch_fraction(events) -> float | None:
    """Discretized reference: mark watched content at 1ms resolution.

    Walks the same open/close semantics but replaces all interval
    arithmetic (union, clamping, measure) with boolean-array marking.
    """
    duration = None
    for ev in events:
        p = ev.payload
        if isinstance(p, VideoPayload) and p.duration is not None:
            duration = p.duration
            break
    if duration is None or duration <= 0:
        return None
    n = int(round(duration * 1000))
    marked = bytearray(n)

    def mark(a: float, b: float) -> None:
        lo = max(0, min(n, int(round(a * 1000))))
        hi = max(0, min(n, int(round(b * 1000))))
        if lo < hi:
            marked[lo:hi] = b"\x01" * (hi - lo)

    open_pos = None
    last = 0.0
    for ev in events:
        p = ev.payload if isinstance(ev.payload, VideoPayload) else None
        etype = ev.event_type
        if etype is EventType.PLAY_VIDEO:
            pos = p.current_time if p and p.current_time is not None else last
            if open_pos is not None:
                mark(open_pos, pos)
            open_pos = pos
            last = pos
        elif etype in (EventType.PAUSE_VIDEO, EventType.STOP_VIDEO):
            pos = p.current_time if p and p.current_time is not None else last
            if open_pos is not None:
                mark(open_pos, pos)
                open_pos = None
            last = pos
        elif etype is EventType.SEEK_VIDEO:
            close_at = p.old_time if p and p.old_time is not None else last
            if open_pos is not None:
                mark(open_pos, close_at)
                open_pos = None
            last = p.new_time if p and p.new_time is not None else close_at
        elif etype is EventType.COMPLETE_VIDEO:
            close_at = duration
            if open_pos is not None:
                mark(open_pos, close_at)
                open_pos = None
            last = close_at
    return marked.count(1) / n


class TestUnionIntervals:
    def test_overlap_merge(self):
        assert union_intervals([(10, 20), (5, 15)]) == [(5, 20)]

    def test_touching_merge(self):
        assert union_intervals([(0, 5), (5, 10)]) == [(0, 10)]

    def test_disjoint(self):
        assert union_intervals([(8, 9), (0, 1)]) == [(0, 1), (8, 9)]

    def test_empty_spans_dropped(self):
        assert union_intervals([(3, 3), (5, 4)]) == []


class TestReconstructIntervals:
    def test_full_watch(self):
        events = [
            video_event("play_video", t=0, current_time=0, duration=53.4),
            video_event("pause_video", t=60, current_time=53.4),
        ]
        record = reconstruct_intervals(events)
        assert record.intervals == ((0.0, 53.4),)
        assert record.watch_fraction == 1.0
        assert record.duration == 53.4

    def test_seek_and_replay(self):
        events = [
            video_event("play_video", t=0, current_time=10, duration=100),
            video_event("seek_video", t=10, old_time=20, new_time=5),
            video_event("play_video", t=11, current_time=5),
            video_event("stop_video", t=21, current_time=15),
        ]
        record = reconstruct_intervals(events)
        assert record.intervals == ((5.0, 20.0),)
        assert record.watch_fraction == pytest.approx(0.15, abs=1e-12)
        assert record.watch_fraction == pytest.approx(oracle_watch_fraction(events), abs=1e-6)

    def test_no_plays_zero_fraction(self):
        events = [video_event("pause_video", t=0, current_time=5, duration=30)]
        record = reconstruct_intervals(events)
        assert record.intervals == ()
        assert record.watch_fraction == 0.0

    def test_unclosed_trailing_play(self):
        events = [video_event("play_video", t=0, current_time=0, duration=60)]
        record = reconstruct_intervals(events)
        assert record.intervals == ()
        assert record.watch_fraction == 0.0

    def test_complete_closes_at_duration(self):
        events = [
            video_event("play_video", t=0, current_time=50, duration=60),
            video_event("complete_video", t=20, current_time=None),
        ]
        record = reconstruct_intervals(events)
        assert record.intervals == ((50.0, 60.0),)

    def test_speed_change_does_not_close(self):
        events = [
            video_event("play_video", t=0, current_time=0, duration=100),
            video_event("speed_change", t=5, current_time=40),
            video_event("pause_video", t=10, current_time=80),
        ]
        assert reconstruct_intervals(events).intervals == ((0.0, 80.0),)

    def test_missing_close_position_degrades_to_zero_length(self):
        events = [
            video_event("play_video", t=0, current_time=12, duration=100),
            video_event("pause_video", t=5, current_time=None),
        ]
        assert reconstruct_intervals(events).intervals == ()

    def test_seek_past_duration_clamped(self):
        events = [
            video_event("play_video", t=0, current_time=0, duration=50),
            video_event("seek_video", t=5, old_time=500, new_time=0),
        ]
        record = reconstruct_intervals(events)
        assert record.intervals == ((0.0, 50.0),)
        assert record.watch_fraction == 1.0

    def test_duration_unknown_no_fraction(self):
        events = [
            video_event("play_video", t=0, current_time=0),
            video_event("pause_video", t=5, current_time=10),
        ]
        record = reconstruct_intervals(events)
        assert record.watch_fraction is None
        assert record.intervals == ((0.0, 10.0),)

    def test_intervals_disjoint_sorted_in_bounds(self):
        rng = random.Random(99)
        for _ in range(200):
            events = random_video_events(rng)
            record = reconstruct_intervals(events)
            for (s1, e1), (s2, e2) in zip(record.intervals, record.intervals[1:]):
                assert s1 < e1 <= s2 < e2
            if record.duration is not None:
                for s, e in record.intervals:
                    assert 0.0 <= s < e <= record.duration
            if record.watch_fraction is not None:
                assert 0.0 <= record.watch_fraction <= 1.0

    def test_fraction_matches_millisecond_oracle(self):
        rng = random.Random(1301)
        checked = 0
        for _ in range(300):
            events = random_video_events(rng)
            record = reconstruct_intervals(events)
            expected = oracle_watch_fraction(events)
            if expected is None:
                assert record.watch_fraction is None
                continue
            assert record.watch_fraction == pytest.approx(expected, abs=1e-6)
            checked += 1
        assert checked > 250


# (events, exact intervals, exact watch_fraction); compared by repr, so -0.0
# and 0.0 are told apart.
INTERVAL_TABLE = {
    "complete_without_duration_closes_at_playhead": (
        [
            video_event("play_video", t=0, current_time=10.0),
            video_event("complete_video", t=5, current_time=40.0),
        ],
        ((10.0, 40.0),),
        None,
    ),
    "complete_without_duration_or_playhead": (
        [
            video_event("play_video", t=0, current_time=10.0),
            video_event("complete_video", t=5),
            video_event("play_video", t=6),
            video_event("pause_video", t=7, current_time=25.0),
        ],
        ((10.0, 25.0),),
        None,
    ),
    "seek_without_old_time_closes_at_last_position": (
        [
            video_event("play_video", t=0, current_time=0.0, duration=100.0),
            video_event("pause_video", t=1, current_time=30.0),
            video_event("play_video", t=2, current_time=30.0),
            video_event("seek_video", t=3, new_time=80.0),
            video_event("play_video", t=4),
            video_event("pause_video", t=5, current_time=90.0),
        ],
        ((0.0, 30.0), (80.0, 90.0)),
        0.4,
    ),
    "seek_without_new_time_stays_at_old_time": (
        [
            video_event("play_video", t=0, current_time=0.0, duration=100.0),
            video_event("seek_video", t=1, old_time=20.0),
            video_event("play_video", t=2),
            video_event("pause_video", t=3, current_time=50.0),
        ],
        ((0.0, 50.0),),
        0.5,
    ),
    "play_after_play_closes_at_second_play": (
        [
            video_event("play_video", t=0, current_time=10.0, duration=100.0),
            video_event("play_video", t=1, current_time=5.0),
            video_event("play_video", t=2, current_time=70.0),
            video_event("stop_video", t=3, current_time=75.0),
        ],
        ((5.0, 75.0),),
        0.7,
    ),
    "negative_zero_positions_clamp_to_zero": (
        [
            video_event("play_video", t=0, current_time=-0.0, duration=10.0),
            video_event("pause_video", t=1, current_time=5.0),
            video_event("play_video", t=2, current_time=0.0),
            video_event("pause_video", t=3, current_time=-0.0),
        ],
        ((0.0, 5.0),),
        0.5,
    ),
    "negative_zero_start_without_duration": (
        [
            video_event("play_video", t=0, current_time=-0.0),
            video_event("pause_video", t=1, current_time=2.5),
        ],
        ((0.0, 2.5),),
        None,
    ),
    "zero_duration_has_no_fraction": (
        [
            video_event("play_video", t=0, current_time=0.0, duration=0.0),
            video_event("pause_video", t=1, current_time=5.0),
        ],
        (),
        None,
    ),
    "problem_and_payloadless_events_in_a_video_stream": (
        [
            video_event("play_video", t=0, current_time=0.0, duration=100.0),
            video_event("pause_video", t=1, current_time=30.0),
            bare_event("play_video", t=2),
            problem_event("problem_check", t=3, grade=1, max_grade=1),
            # a problem payload under a video event type
            replace(problem_event("problem_check", t=4, grade=40, max_grade=50),
                    event_type=EventType.PAUSE_VIDEO),
            bare_event("play_video", t=5),
            video_event("pause_video", t=6, current_time=60.0),
            bare_event("seek_video", t=7),
        ],
        ((0.0, 60.0),),
        0.6,
    ),
}


@pytest.mark.parametrize("case", sorted(INTERVAL_TABLE))
def test_reconstruct_intervals_table(case):
    events, intervals, fraction = INTERVAL_TABLE[case]
    record = reconstruct_intervals(events)
    assert repr(record.intervals) == repr(intervals)
    assert repr(record.watch_fraction) == repr(fraction)


class TestProblemHistory:
    def test_single_passing_check(self):
        events = [problem_event("problem_check", t=0, grade=1, max_grade=1)]
        record = problem_history(events)
        assert record.n_attempts == 1
        assert record.first_score == 1.0
        assert record.final_score == 1.0
        assert record.score_r == 1

    def test_fail_fail_pass(self):
        events = [
            problem_event("problem_check_fail", t=0),
            problem_event("problem_check_fail", t=10),
            problem_event("problem_check", t=20, grade=1, max_grade=1),
        ]
        record = problem_history(events)
        assert record.n_attempts == 3
        assert record.first_score == 0.0
        assert record.final_score == 1.0
        assert record.score_r == 3

    def test_shows_are_not_attempts(self):
        events = [problem_event("problem_show", t=0), problem_event("showanswer", t=5)]
        record = problem_history(events)
        assert record.n_attempts == 0
        assert record.first_score is None
        assert record.score_r is None

    def test_graded_event_excluded_by_default(self):
        events = [problem_event("problem_graded", t=0, grade=1, max_grade=1)]
        assert problem_history(events).n_attempts == 0

    def test_partial_credit_normalized(self):
        events = [problem_event("problem_check", t=0, grade=3, max_grade=4)]
        assert problem_history(events).final_score == 0.75

    def test_attempt_times_are_epoch_microseconds(self):
        events = [
            problem_event("problem_check_fail", t=0),
            problem_event("problem_show", t=5),
            problem_event("problem_check", t=10.5, grade=1, max_grade=1),
        ]
        epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
        micros = [(at(t) - epoch) // timedelta(microseconds=1) for t in (0, 10.5)]
        assert problem_history(events).attempts == ((micros[0], 0.0), (micros[1], 1.0))

    def test_first_final_bounds_and_provenance(self):
        rng = random.Random(55)
        for _ in range(100):
            events = []
            for i in range(rng.randint(1, 8)):
                name = rng.choice(["problem_check", "problem_check_fail", "problem_show"])
                grade = rng.choice([None, 0.0, rng.uniform(0, 1), 1.0])
                events.append(
                    problem_event(name, t=i * 10.0, grade=grade,
                                  max_grade=1.0 if grade is not None else None)
                )
            record = problem_history(events)
            scored = [s for _, s in record.attempts if s is not None]
            if scored:
                assert record.first_score == scored[0]
                assert record.final_score == scored[-1]
                assert 0.0 <= record.first_score <= 1.0
                assert 0.0 <= record.final_score <= 1.0
            else:
                assert record.first_score is None
                assert record.final_score is None


class TestScoreR:
    @pytest.mark.parametrize(
        "attempts,expected",
        [(1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (6, 4)],
    )
    def test_passing_table(self, attempts, expected):
        events = [
            problem_event("problem_check", t=i * 10, grade=1 if i == attempts - 1 else 0, max_grade=1)
            for i in range(attempts)
        ]
        record = problem_history(events)
        assert record.n_attempts == attempts
        assert score_r(record) == expected

    def test_non_passing_is_four(self):
        events = [problem_event("problem_check", t=0, grade=0.5, max_grade=1)]
        record = problem_history(events)
        assert score_r(record) == 4

    def test_unscored_final_is_four(self):
        events = [problem_event("problem_check", t=0)]
        assert score_r(problem_history(events)) == 4

    def test_reads_the_index_the_record_was_built_with(self):
        # A final of 0.6 passes at a threshold of 0.5, though not at the default.
        state = StudentEvents("u1", "c1")
        state.add(problem_event("problem_check", grade=0.6, max_grade=1))
        record = state.problem_record(range(len(state)), passing_threshold=0.5)
        assert record.score_r == 1
        assert score_r(record) == record.score_r

    def test_no_attempts_raises(self):
        record = problem_history([problem_event("problem_show", t=0)])
        with pytest.raises(NoAttemptsError):
            score_r(record)

    def test_monotone_in_attempts(self):
        previous = 0
        for attempts in range(1, 10):
            events = [
                problem_event("problem_check", t=i * 10, grade=1, max_grade=1)
                for i in range(attempts)
            ]
            value = score_r(problem_history(events))
            assert value >= previous
            previous = value


SECTION_MANIFEST = {
    "course_id": "c1",
    "submodules": [
        {
            "name": "m",
            "chapters": [
                {
                    "name": "ch",
                    "sections": [
                        {
                            "name": "s0",
                            "blocks": [
                                {"block_id": "v1", "kind": "video"},
                                {"block_id": "p1", "kind": "graded_problem"},
                            ],
                        },
                        {
                            "name": "s1",
                            "blocks": [
                                {"block_id": "v2", "kind": "video"},
                                {"block_id": "p2", "kind": "graded_problem"},
                            ],
                        },
                    ],
                }
            ],
        }
    ],
}

# One section whose second video is the one played first in the tests.
TWO_VIDEO_MANIFEST = {
    "course_id": "c1",
    "submodules": [{"name": "m", "chapters": [{"name": "ch", "sections": [{"name": "s0", "blocks": [
        {"block_id": "v1", "kind": "video"},
        {"block_id": "v2", "kind": "video"},
        {"block_id": "p1", "kind": "graded_problem"},
    ]}]}]}],
}


class TestAggregateStudent:
    def test_zero_events(self):
        agg = StudentEvents("u1", "c1").finalize()
        assert agg.n_videos == 0
        assert agg.n_problems == 0
        assert agg.total_attempts == 0
        assert agg.mean_watch_fraction is None
        assert agg.mean_score_r is None
        assert agg.order_fraction is None
        assert agg.to_dict() == {
            "user_id": "u1",
            "course_instance": "c1",
            "n_videos": 0,
            "n_problems": 0,
            "total_attempts": 0,
        }

    def test_two_full_videos_one_problem(self):
        events = [
            video_event("play_video", video="v1", t=0, current_time=0, duration=60),
            video_event("pause_video", video="v1", t=60, current_time=60),
            video_event("play_video", video="v2", t=100, current_time=0, duration=120),
            video_event("pause_video", video="v2", t=220, current_time=120),
            problem_event("problem_check", problem="p1", t=300, grade=1, max_grade=1),
        ]
        agg = aggregate_student(events)
        assert agg.n_videos == 2
        assert agg.n_problems == 1
        assert agg.total_attempts == 1
        assert agg.mean_watch_fraction == 1.0
        assert agg.mean_score_r == 1.0
        assert agg.mean_first_score == 1.0
        assert agg.mean_final_score == 1.0
        assert agg.mean_attempts_per_problem == 1.0

    def test_unknown_duration_excluded_from_mean(self):
        events = [
            video_event("play_video", video="v1", t=0, current_time=0, duration=100),
            video_event("pause_video", video="v1", t=10, current_time=50),
            video_event("play_video", video="v2", t=20, current_time=0),
            video_event("pause_video", video="v2", t=30, current_time=50),
        ]
        agg = aggregate_student(events)
        assert agg.n_videos == 2
        assert agg.mean_watch_fraction == 0.5

    def test_order_fraction_studied_first(self):
        manifest = parse_manifest(SECTION_MANIFEST)
        events = [
            video_event("play_video", video="v1", t=0, current_time=0, duration=60),
            video_event("pause_video", video="v1", t=60, current_time=60),
            problem_event("problem_check", problem="p1", t=100, grade=1, max_grade=1),
        ]
        agg = aggregate_student(events, manifest=manifest)
        assert agg.order_fraction == 1.0

    def test_order_fraction_attempt_first(self):
        manifest = parse_manifest(SECTION_MANIFEST)
        events = [
            problem_event("problem_check", problem="p1", t=0, grade=1, max_grade=1),
            video_event("play_video", video="v1", t=100, current_time=0, duration=60),
            video_event("pause_video", video="v1", t=160, current_time=60),
        ]
        agg = aggregate_student(events, manifest=manifest)
        assert agg.order_fraction == 0.0

    def test_order_fraction_mixed_sections(self):
        manifest = parse_manifest(SECTION_MANIFEST)
        events = [
            video_event("play_video", video="v1", t=0, current_time=0, duration=60),
            problem_event("problem_check", problem="p1", t=50, grade=1, max_grade=1),
            problem_event("problem_check", problem="p2", t=60, grade=1, max_grade=1),
        ]
        agg = aggregate_student(events, manifest=manifest)
        assert agg.order_fraction == 0.5

    def test_order_fraction_play_in_the_same_millisecond_is_not_first(self):
        manifest = parse_manifest(SECTION_MANIFEST)
        events = [
            video_event("play_video", video="v1", t=0, current_time=0, duration=60),
            problem_event("problem_check", problem="p1", t=0, grade=1, max_grade=1),
        ]
        assert aggregate_student(events, manifest=manifest).order_fraction == 0.0

    def test_order_fraction_earliest_play_from_the_second_video(self):
        manifest = parse_manifest(TWO_VIDEO_MANIFEST)
        events = [
            video_event("play_video", video="v2", t=0, current_time=0, duration=60),
            problem_event("problem_check", problem="p1", t=50, grade=1, max_grade=1),
            video_event("play_video", video="v1", t=100, current_time=0, duration=60),
        ]
        assert aggregate_student(events, manifest=manifest).order_fraction == 1.0

    def test_order_fraction_absent_without_manifest(self):
        events = [problem_event("problem_check", t=0, grade=1, max_grade=1)]
        assert aggregate_student(events).order_fraction is None

    def test_unplaceable_problems_not_evaluable(self):
        manifest = parse_manifest(SECTION_MANIFEST)
        events = [problem_event("problem_check", problem="elsewhere", t=0, grade=1, max_grade=1)]
        agg = aggregate_student(events, manifest=manifest)
        assert agg.order_fraction is None

    def test_json_round_trip(self):
        events = [
            video_event("play_video", t=0, current_time=0, duration=60),
            video_event("pause_video", t=30, current_time=30),
        ]
        agg = aggregate_student(events)
        import json

        assert StudentAggregate.from_dict(json.loads(agg.to_json())) == agg


def random_corpus(rng: random.Random, n_users: int = 8) -> list:
    from dataclasses import replace

    events = []
    for u in range(n_users):
        user = f"user{u}"
        for v in range(rng.randint(0, 3)):
            events.extend(
                replace(ev, user_id=user) for ev in random_video_events(rng, video=f"v{v}")
            )
        for p in range(rng.randint(0, 3)):
            for a in range(rng.randint(1, 4)):
                events.append(
                    problem_event(
                        rng.choice(["problem_check", "problem_check_fail", "problem_show"]),
                        problem=f"p{p}",
                        t=rng.uniform(0, 5000),
                        user=user,
                        grade=rng.choice([None, 0, 0.5, 1]),
                        max_grade=1,
                    )
                )
    rng.shuffle(events)
    return events


def tie_corpus(rng: random.Random, n_users: int = 3) -> list:
    """Streams where several events share one millisecond, so only the
    canonical-JSON tie-break decides their order."""
    events = []
    for u in range(n_users):
        user = f"user{u}"
        events += [
            video_event("play_video", t=0, user=user, duration=100.0, current_time=0.0),
            # play and pause at the same millisecond
            video_event("pause_video", t=10, user=user, current_time=10.0),
            video_event("play_video", t=10, user=user, current_time=10.0),
            # a seek and a play sharing a timestamp
            video_event("seek_video", t=20, user=user, old_time=20.0, new_time=50.0),
            video_event("play_video", t=20, user=user, current_time=50.0),
            video_event("pause_video", t=30 + u, user=user, current_time=60.0 + u),
            video_event("play_video", t=3, video="v2", user=user, duration=50.0,
                        current_time=5.0),
            video_event("pause_video", t=3, video="v2", user=user, current_time=25.0),
            # a duplicated problem_check among other attempts at one instant
            problem_event("problem_check", t=5, user=user, grade=0.5, max_grade=1),
            problem_event("problem_check", t=5, user=user, grade=0.5, max_grade=1),
            problem_event("problem_check", t=5, user=user, grade=1, max_grade=1),
            problem_event("problem_check_fail", t=5, user=user),
            problem_event("problem_show", t=7, problem="p2", user=user),
            problem_event("problem_check", t=7, problem="p2", user=user, grade=0, max_grade=1),
            problem_event("problem_check", t=9, problem="p2", user=user, grade=1, max_grade=1),
        ]
    rng.shuffle(events)
    return events


def _tied(events) -> list:
    """Those of ``events`` whose timestamp another of them shares."""
    counts = Counter(ev.timestamp for ev in events)
    return [ev for ev in events if counts[ev.timestamp] > 1]


class TestMergeOrderIndependence:
    def test_sharded_equals_single_pass(self):
        rng = random.Random(2024)
        corpora = chain((random_corpus(rng) for _ in range(30)), [tie_corpus(rng)])
        for events in corpora:
            single = aggregate_corpus(events)
            baseline = "\n".join(a.to_json() for a in single)
            for k in (2, 4, 8):
                shards = [events[i::k] for i in range(k)]
                order = list(range(k))
                rng.shuffle(order)
                merged: dict = {}
                for idx in order:
                    merge_student_events(merged, collect_student_events(shards[idx]))
                aggs = [
                    merged[key].finalize()
                    for key in sorted(merged, key=lambda kk: (kk[1], kk[0]))
                ]
                assert "\n".join(a.to_json() for a in aggs) == baseline

    def test_shuffled_input_same_aggregate(self):
        rng = random.Random(7)
        for events in (random_corpus(rng, n_users=3), tie_corpus(random.Random(11))):
            base = {a.user_id: a for a in aggregate_corpus(events)}
            for _ in range(5):
                rng.shuffle(events)
                again = {a.user_id: a for a in aggregate_corpus(events)}
                assert again == base

    def test_ties_broken_by_canonical_json(self, monkeypatch):
        # Streams reach the reducers in (timestamp, canonical JSON) order,
        # and only events that share a timestamp with another event of the
        # same student are serialized: each student's events are sorted once.
        streams: list = []
        for name in ("watch_record", "problem_record"):
            reducer = getattr(StudentEvents, name)

            def recording(state, rows, *args, _reducer=reducer, **kwargs):
                streams.append([state.event(row) for row in rows])
                return _reducer(state, rows, *args, **kwargs)

            monkeypatch.setattr(StudentEvents, name, recording)
        serialized: list = []

        def counting(ev):
            serialized.append(ev)
            return event_to_json(ev)

        monkeypatch.setattr(engagement, "event_to_json", counting)
        rng = random.Random(5)
        events = tie_corpus(rng) + random_corpus(rng)
        aggregate_corpus(events)

        assert streams
        for stream in streams:
            assert stream == sorted(stream, key=lambda e: (e.timestamp, event_to_json(e)))
        by_student: dict = {}
        for ev in events:
            by_student.setdefault((ev.user_id, ev.course_id), []).append(ev)
        tied = [ev for student in by_student.values() for ev in _tied(student)]
        assert len(tied) > 0
        assert len(serialized) == len(tied)


class TestStudentEvents:
    def test_rows_are_the_events_in_total_order(self):
        # The total order: by timestamp, then tied events by canonical JSON.
        rng = random.Random(20261018)
        seen: Counter = Counter()
        for _ in range(60):
            events = random_corpus_with_ties(rng)
            by_student: dict = {}
            for ev in events:
                by_student.setdefault((ev.user_id, ev.course_id), []).append(ev)
            states = collect_student_events(events)
            assert states.keys() == by_student.keys()
            for key, state in states.items():
                state.sort()
                rows = [state.event(row) for row in range(len(state))]
                expected = sorted(by_student[key], key=lambda e: (e.timestamp, event_to_json(e)))
                assert [event_to_json(e) for e in rows] == [event_to_json(e) for e in expected]
                assert rows == expected
                seen["tied"] += len(_tied(expected))
                seen["-0.0"] += sum(":-0.0" in event_to_json(e) for e in expected)
                seen["no payload"] += sum(e.payload is None for e in expected)
                seen["seek with current_time"] += sum(
                    e.event_type is EventType.SEEK_VIDEO and e.payload.current_time is not None
                    for e in expected
                )
        assert min(seen.values()) > 0 and len(seen) == 4, seen

    def test_states_hold_at_most_half_the_bytes_of_parsed_events(self):
        """Under tracemalloc, the states of this synth corpus (80 students,
        5,237 events) hold 69 B per event on CPython 3.11. A parsed event,
        as the list of events they replace kept it, held 245 B; the bound is
        half of that."""
        corpus = generate_corpus(default_corpus_spec(users_per_class=10, seed=7))
        events = list(parse_events(corpus.lines, None, {}))
        tracemalloc.start()
        try:
            states = collect_student_events(events)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(state) for state in states.values()) == len(events) == 5237
        assert held / len(events) <= 245 / 2
