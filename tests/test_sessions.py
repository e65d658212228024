from __future__ import annotations

import random
from dataclasses import replace
from datetime import date, datetime, time, timedelta, timezone

from edxmine.engagement import StudentEvents, collect_student_events
from edxmine.sessions import build_sessions, group_into_sessions, weekly_presence
from conftest import at, bare_event

ANCHOR = date(2021, 8, 23)


def student(events) -> StudentEvents:
    """The one (user, course) state that ``events`` make."""
    (state,) = collect_student_events(events).values()
    return state


class TestBuildSessions:
    def test_shared_session_id(self):
        events = [bare_event("problem_show", t=i * 60, session="s1") for i in range(3)]
        sessions = build_sessions(student(events))
        assert len(sessions) == 1
        assert sessions[0].session_key == "s1"
        assert sessions[0].event_count == 3
        assert sessions[0].start == at(0)
        assert sessions[0].end == at(120)

    def test_gap_split_above(self):
        events = [bare_event("problem_show", t=0), bare_event("problem_show", t=31 * 60)]
        assert len(build_sessions(student(events), gap=timedelta(minutes=30))) == 2

    def test_gap_no_split_below(self):
        events = [bare_event("problem_show", t=0), bare_event("problem_show", t=29 * 60)]
        assert len(build_sessions(student(events), gap=timedelta(minutes=30))) == 1

    def test_gap_boundary_exact(self):
        # Split requires strictly exceeding the gap.
        events = [bare_event("problem_show", t=0), bare_event("problem_show", t=30 * 60)]
        assert len(build_sessions(student(events), gap=timedelta(minutes=30))) == 1

    def test_mixed_explicit_and_fallback(self):
        events = sorted(
            [
                bare_event("problem_show", t=0, session="s1"),
                bare_event("problem_show", t=60),
                bare_event("problem_show", t=3600 * 3),
                bare_event("problem_show", t=3600 * 3 + 30, session="s1"),
            ],
            key=lambda e: e.timestamp,
        )
        sessions = build_sessions(student(events))
        assert len(sessions) == 3  # s1 spans both of its events; two fallback runs
        explicit = [s for s in sessions if s.session_key == "s1"]
        assert explicit[0].event_count == 2

    def test_duplication_never_moves_boundaries(self):
        rng = random.Random(5)
        for _ in range(30):
            times = sorted(rng.uniform(0, 3 * 3600) for _ in range(rng.randint(1, 12)))
            events = [bare_event("problem_show", t=t) for t in times]
            doubled = sorted(events + events, key=lambda e: e.timestamp)
            base = build_sessions(student(events))
            dup = build_sessions(student(doubled))
            assert len(dup) == len(base)
            assert [(s.start, s.end) for s in dup] == [(s.start, s.end) for s in base]
            assert sum(s.event_count for s in dup) == 2 * sum(s.event_count for s in base)

    def test_gap_monotonicity(self):
        rng = random.Random(9)
        for _ in range(30):
            times = sorted(rng.uniform(0, 6 * 3600) for _ in range(rng.randint(1, 20)))
            events = [bare_event("problem_show", t=t) for t in times]
            g1 = timedelta(minutes=rng.uniform(1, 30))
            g2 = g1 + timedelta(minutes=rng.uniform(1, 60))
            state = student(events)
            assert len(build_sessions(state, g1)) >= len(build_sessions(state, g2))

    def test_group_keys_are_stable(self):
        events = [bare_event("problem_show", t=0), bare_event("problem_show", t=3600 * 2)]
        groups = group_into_sessions(student(events), timedelta(minutes=30))
        assert [key for key, _ in groups] == ["u1~0", "u1~1"]


def one_event_weeks(seconds: float, anchor: date) -> tuple[list[tuple[int, int, int]], int]:
    """``weekly_presence``'s rows and dropped count for one student's one
    event, ``seconds`` after ``at(0)``."""
    presence = weekly_presence(collect_student_events([bare_event("problem_show", t=seconds)]), anchor)
    rows = [(w.week_index, w.new_users, w.returning_users) for w in presence.weeks]
    return rows, presence.dropped_before_anchor


class TestWeekIndex:
    """The week rule: the floor of whole days from the anchor over 7."""

    def test_anchor_day(self):
        assert one_event_weeks(0, date(2021, 8, 26)) == ([(0, 1, 0)], 0)

    def test_thirteen_days(self):
        assert one_event_weeks(13 * 86400, date(2021, 8, 26)) == ([(0, 0, 0), (1, 1, 0)], 0)

    def test_fourteen_days(self):
        assert one_event_weeks(14 * 86400, date(2021, 8, 26)) == (
            [(0, 0, 0), (1, 0, 0), (2, 1, 0)], 0
        )

    def test_before_anchor(self):
        assert one_event_weeks(0, date(2021, 8, 27)) == ([], 1)

    def test_matches_the_date_rule(self):
        # Anchors on both sides of 1970, so event times below 0 microseconds
        # occur, and events within 60 days of the anchor: the table holds a
        # row for every week up to the latest event.
        rng = random.Random(21)
        day = timedelta(days=1)
        epoch = date(1970, 1, 1).toordinal()
        for case in range(300):
            side = -1 if case % 2 else 1
            anchor = date.fromordinal(epoch + side * rng.randint(0, 200 * 366))
            midnight = datetime.combine(anchor, time(), timezone.utc)
            stamps = {}
            for _ in range(rng.randint(1, 30)):
                days = rng.randint(-60, 60)
                offset = rng.choice([
                    days * day,  # a midnight
                    days * day - timedelta(microseconds=1),  # the microsecond before one
                    days * day + timedelta(microseconds=rng.randrange(86400 * 10**6)),
                ])
                stamps.setdefault(f"u{rng.randint(0, 4)}", []).append(midnight + offset)
            events = [replace(bare_event("problem_show", user=user), timestamp=ts)
                      for user, times in stamps.items() for ts in times]

            user_weeks = [{(ts.date() - anchor).days // 7 for ts in times if ts.date() >= anchor}
                          for times in stamps.values()]
            user_weeks = [weeks for weeks in user_weeks if weeks]
            n_weeks = max((max(weeks) for weeks in user_weeks), default=-1) + 1
            new = [sum(min(weeks) == week for weeks in user_weeks) for week in range(n_weeks)]
            active = [sum(week in weeks for weeks in user_weeks) for week in range(n_weeks)]
            dropped = sum(ts.date() < anchor for times in stamps.values() for ts in times)

            presence = weekly_presence(collect_student_events(events), anchor)
            assert presence.dropped_before_anchor == dropped, anchor
            assert [(w.week_index, w.new_users, w.returning_users) for w in presence.weeks] == [
                (week, new[week], active[week] - new[week]) for week in range(n_weeks)
            ], anchor


class TestWeeklyPresence:
    def test_single_user_week_zero(self):
        events = [bare_event("problem_show", t=3600), bare_event("problem_show", t=7200)]
        presence = weekly_presence(collect_student_events(events), ANCHOR)
        assert [(w.week_index, w.new_users, w.returning_users) for w in presence.weeks] == [
            (0, 1, 0)
        ]

    def test_returning_in_later_week(self):
        events = [
            bare_event("problem_show", t=0),
            bare_event("problem_show", t=15 * 86400),  # week 2
        ]
        presence = weekly_presence(collect_student_events(events), ANCHOR)
        weeks = {w.week_index: w for w in presence.weeks}
        assert weeks[0].new_users == 1
        assert weeks[1].new_users == 0 and weeks[1].returning_users == 0
        assert weeks[2].new_users == 0 and weeks[2].returning_users == 1

    def test_two_users_staggered_starts(self):
        events = [
            bare_event("problem_show", t=0, user="a"),
            bare_event("problem_show", t=8 * 86400, user="b"),
        ]
        presence = weekly_presence(collect_student_events(events), ANCHOR)
        assert [(w.new_users, w.returning_users) for w in presence.weeks] == [(1, 0), (1, 0)]

    def test_before_anchor_dropped_and_counted(self):
        events = [
            bare_event("problem_show", t=0, user="a"),
            bare_event("problem_show", t=86400, user="a"),
        ]
        presence = weekly_presence(collect_student_events(events), date(2021, 8, 27))
        assert presence.dropped_before_anchor == 1
        assert presence.weeks[0].new_users == 1

    def test_new_users_sum_to_distinct_users(self):
        rng = random.Random(17)
        for _ in range(20):
            events = [
                bare_event("problem_show", t=rng.uniform(0, 90 * 86400), user=f"u{rng.randint(0, 9)}")
                for _ in range(rng.randint(1, 50))
            ]
            presence = weekly_presence(collect_student_events(events), ANCHOR)
            assert presence.dropped_before_anchor == 0
            assert sum(w.new_users for w in presence.weeks) == len({e.user_id for e in events})
