from __future__ import annotations

import gzip
import json
import random
import string
import zlib
from datetime import date, datetime, timezone

import pytest

from edxmine.events import (
    RETAINED_EVENT_TYPES,
    Event,
    EventType,
    FilteredOut,
    Malformed,
    ParseStats,
    ProblemPayload,
    VideoPayload,
    classify_event_type,
    event_to_json,
    format_timestamp,
    iter_events,
    parse_date,
    parse_events,
    parse_line,
    parse_timestamp,
)
from edxmine.manifest import InputError, ManifestError, parse_manifest
from edxmine.pipeline import load_run_manifest, parse_log_files, validate_files
from edxmine.synth import corpus_spec_from_dict, corpus_spec_to_dict, default_corpus_spec
from conftest import at, raw_line


def payload_kind(name: str) -> type:
    """The payload class a retained event of type ``name`` gets from a
    payload that names both a video and a problem."""
    return type(parse_line(raw_line(name=name, event={"id": "x1"})).payload)


class TestEventTypeEnum:
    def test_retained_membership(self):
        assert len(RETAINED_EVENT_TYPES) == 15
        kinds = [payload_kind(t.value) for t in RETAINED_EVENT_TYPES]
        assert kinds == [VideoPayload] * 8 + [ProblemPayload] * 7

    def test_classify_examples(self):
        assert classify_event_type("play_video") is EventType.PLAY_VIDEO
        assert payload_kind("play_video") is VideoPayload
        assert payload_kind("speed_change") is VideoPayload
        assert classify_event_type("problem_check") is EventType.PROBLEM_CHECK
        assert payload_kind("problem_check") is ProblemPayload
        assert payload_kind("showanswer") is ProblemPayload
        assert classify_event_type("") is EventType.OTHER

    def test_case_sensitive(self):
        assert classify_event_type("Play_Video") is EventType.OTHER
        assert classify_event_type("PLAY_VIDEO") is EventType.OTHER


class TestParseLine:
    def test_play_record(self):
        line = raw_line(
            event={"id": "7b8771ce82464140ba1e0d24c1a10e68", "code": "hls",
                   "duration": 53.4, "currentTime": 0},
        )
        ev = parse_line(line)
        assert isinstance(ev, Event)
        assert ev.event_type is EventType.PLAY_VIDEO
        assert ev.user_id == "39071876"
        assert ev.course_id == "course-v1:GTX+CS1301+1T2021a"
        assert ev.session_id == "c8789c2a8eed52a5924f5d6c4c234ea2"
        assert ev.timestamp == datetime(2021, 8, 26, 0, 46, 55, 696000, tzinfo=timezone.utc)
        assert isinstance(ev.payload, VideoPayload)
        assert ev.payload.duration == 53.4
        assert ev.payload.current_time == 0.0

    def test_empty_line_malformed(self):
        assert isinstance(parse_line(""), Malformed)
        assert isinstance(parse_line(b"   \n"), Malformed)

    def test_invalid_json_malformed(self):
        assert isinstance(parse_line("{not json"), Malformed)
        assert isinstance(parse_line(b"\xff\xfe"), Malformed)
        assert isinstance(parse_line('"just a string"'), Malformed)

    def test_deep_nesting_malformed(self):
        deep = "[" * 100_000
        assert parse_line(deep) == Malformed("invalid json")
        assert parse_line(deep.encode()) == Malformed("invalid json")

    def test_deeply_nested_string_payload_tolerated(self):
        ev = parse_line(raw_line(name="problem_check", event="[" * 100_000))
        assert isinstance(ev, Event)
        assert ev.payload is None

    def test_unretained_name_filtered(self):
        line = raw_line(name="edx.course.enrollment.activated")
        outcome = parse_line(line)
        assert isinstance(outcome, FilteredOut)

    def test_server_source_filtered(self):
        assert isinstance(parse_line(raw_line(source="server")), FilteredOut)
        assert isinstance(parse_line(raw_line(source="task")), FilteredOut)

    def test_missing_user_malformed(self):
        record = json.loads(raw_line())
        del record["context"]["user_id"]
        assert isinstance(parse_line(json.dumps(record)), Malformed)

    def test_missing_course_malformed(self):
        record = json.loads(raw_line())
        del record["context"]["course_id"]
        assert isinstance(parse_line(json.dumps(record)), Malformed)

    @pytest.mark.parametrize(
        "extra, outcome",
        [
            ({}, Malformed("missing user")),
            ({"username": "u2"}, "u2"),
            ({"username": "\ud83d\ude00"}, "\U0001f600"),  # a pair encodes
        ],
    )
    def test_unencodable_user_id_absent(self, extra, outcome):
        parsed = parse_line(raw_line(user="u\ud800", **extra))
        assert (parsed if isinstance(parsed, Malformed) else parsed.user_id) == outcome
        parsed = parse_line(raw_line(course="c\udfff", **extra))
        assert parsed == Malformed("missing course")

    def test_bad_timestamp_malformed(self):
        assert isinstance(parse_line(raw_line(time="not-a-time")), Malformed)
        record = json.loads(raw_line())
        del record["time"]
        assert isinstance(parse_line(json.dumps(record)), Malformed)

    def test_missing_event_type_malformed(self):
        record = json.loads(raw_line())
        del record["event_type"]
        del record["name"]
        assert isinstance(parse_line(json.dumps(record)), Malformed)

    def test_event_type_preferred_over_name(self):
        record = json.loads(raw_line(event={"id": "v1"}))
        record["name"] = "pause_video"  # disagree: event_type wins
        ev = parse_line(json.dumps(record))
        assert ev.event_type is EventType.PLAY_VIDEO

    def test_name_fallback(self):
        record = json.loads(raw_line(event={"id": "v1"}))
        del record["event_type"]
        ev = parse_line(json.dumps(record))
        assert isinstance(ev, Event)
        assert ev.event_type is EventType.PLAY_VIDEO

    def test_numeric_strings_coerced(self):
        as_number = parse_line(raw_line(event={"id": "v1", "duration": 53.4, "currentTime": 7.5}))
        as_string = parse_line(raw_line(event={"id": "v1", "duration": "53.4", "currentTime": "7.5"}))
        assert as_number.payload == as_string.payload

    def test_string_encoded_payload_reparsed(self):
        payload = json.dumps({"id": "v1", "duration": 10.0, "currentTime": 2.0})
        ev = parse_line(raw_line(event=payload))
        assert isinstance(ev.payload, VideoPayload)
        assert ev.payload.duration == 10.0

    def test_unparseable_string_payload_tolerated(self):
        ev = parse_line(raw_line(name="problem_check", event="input_i4x%5B%5D=choice_0"))
        assert isinstance(ev, Event)
        assert ev.payload is None

    def test_problem_payload(self):
        ev = parse_line(
            raw_line(
                name="problem_check",
                event={"problem_id": "p1", "grade": 2, "max_grade": 4,
                       "success": "correct", "attempts": 3},
            )
        )
        # success and attempts are not kept: nothing reads them.
        assert ev.payload == ProblemPayload("p1", grade=2.0, max_grade=4.0)
        assert type(ev.payload.grade) is float

    def test_inconsistent_grades_dropped(self):
        ev = parse_line(
            raw_line(name="problem_check", event={"problem_id": "p1", "grade": 5, "max_grade": 4})
        )
        assert ev.payload.grade is None
        assert ev.payload.max_grade is None

    def test_negative_duration_dropped(self):
        ev = parse_line(raw_line(event={"id": "v1", "duration": -3}))
        assert ev.payload.duration is None

    @pytest.mark.parametrize(
        "value",
        [float("inf"), "Infinity", "inf", 10**400],
        ids=["json-infinity", "string-infinity", "string-inf", "int-beyond-float"],
    )
    def test_non_finite_numbers_absent(self, value):
        video = parse_line(
            raw_line(event={"id": "v1", "duration": value, "currentTime": value})
        )
        assert video.payload.duration is None
        assert video.payload.current_time is None
        seek = parse_line(
            raw_line(name="seek_video", event={"id": "v1", "old_time": value, "new_time": value})
        )
        assert seek.payload.old_time is None
        assert seek.payload.new_time is None
        speed = parse_line(
            raw_line(name="speed_change", event={"id": "v1", "new_speed": value, "duration": value})
        )
        assert speed.payload == VideoPayload("v1")
        check = parse_line(
            raw_line(
                name="problem_check",
                event={"problem_id": "p1", "grade": value, "max_grade": value},
            )
        )
        assert check.payload.grade is None
        assert check.payload.max_grade is None

    def test_org_id_not_kept(self):
        record = json.loads(raw_line())
        del record["context"]["org_id"]
        without_org = parse_line(json.dumps(record))
        assert without_org == parse_line(raw_line(org="GTX")) == parse_line(raw_line(org="MITx"))
        assert not hasattr(without_org, "org_id")

    def test_deterministic(self):
        line = raw_line(event={"id": "v1", "duration": 10})
        assert parse_line(line) == parse_line(line)
        bad = "{broken"
        assert parse_line(bad) == parse_line(bad)


class TestRetainedSetCompleteness:
    def test_every_retained_name_parses(self):
        for etype in RETAINED_EVENT_TYPES:
            ev = parse_line(raw_line(name=etype.value))
            assert isinstance(ev, Event), etype.value
            assert ev.event_type is etype

    def test_random_nonmember_names_filtered(self):
        rng = random.Random(1301)
        retained = {t.value for t in RETAINED_EVENT_TYPES}
        checked = 0
        while checked < 100:
            name = "".join(rng.choices(string.ascii_lowercase + "._", k=rng.randint(1, 30)))
            if name in retained:
                continue
            assert isinstance(parse_line(raw_line(name=name)), FilteredOut), name
            checked += 1


ID_PREFIX = (
    '{"user_id":"39071876","course_id":"course-v1:GTX+CS1301+1T2021a",'
    '"session_id":"c8789c2a8eed52a5924f5d6c4c234ea2"'
)


class TestSerializationRoundTrip:
    """The canonical form holds every field an event keeps, in a fixed key
    order, and nothing else."""

    def test_video_event(self):
        ev = parse_line(
            raw_line(event={"id": "v1", "duration": 53.4, "currentTime": 1.25, "new_speed": 2})
        )
        assert event_to_json(ev) == (
            ID_PREFIX + ',"timestamp":"2021-08-26T00:46:55.696Z","event_type":"play_video",'
            '"video_id":"v1","duration":53.4,"current_time":1.25}'
        )

    def test_seek_event(self):
        ev = parse_line(
            raw_line(name="seek_video", event={"id": "v1", "old_time": 20, "new_time": 5})
        )
        assert ev.payload.old_time == 20.0
        assert event_to_json(ev) == (
            ID_PREFIX + ',"timestamp":"2021-08-26T00:46:55.696Z","event_type":"seek_video",'
            '"video_id":"v1","old_time":20.0,"new_time":5.0}'
        )

    def test_problem_event(self):
        ev = parse_line(
            raw_line(
                name="problem_check",
                event={"problem_id": "p1", "grade": 1, "max_grade": 1, "success": True,
                       "attempts": 2},
            )
        )
        assert event_to_json(ev) == (
            ID_PREFIX + ',"timestamp":"2021-08-26T00:46:55.696Z","event_type":"problem_check",'
            '"problem_id":"p1","grade":1.0,"max_grade":1.0}'
        )

    def test_no_payload_event(self):
        ev = parse_line(raw_line(name="problem_show", session=None))
        assert ev.payload is None
        assert ev.session_id is None
        assert event_to_json(ev) == (
            '{"user_id":"39071876","course_id":"course-v1:GTX+CS1301+1T2021a",'
            '"timestamp":"2021-08-26T00:46:55.696Z","event_type":"problem_show"}'
        )

    def test_timestamp_millisecond_precision(self):
        ev = parse_line(raw_line(time="2021-08-26T00:46:55.696789Z"))
        assert ev.timestamp.microsecond == 696000
        assert '"timestamp":"2021-08-26T00:46:55.696Z"' in event_to_json(ev)

    @pytest.mark.parametrize(
        "year, text",
        [(1, "0001"), (999, "0999"), (1000, "1000"), (9999, "9999")],
    )
    def test_timestamp_four_digit_year(self, year, text):
        ts = datetime(year, 1, 1, 0, 0, 0, 5999, tzinfo=timezone.utc)
        assert format_timestamp(ts) == f"{text}-01-01T00:00:00.005Z"
        ev = parse_line(raw_line(time=f"{text}-01-01T00:00:00Z"))
        assert f'"timestamp":"{text}-01-01T00:00:00.000Z"' in event_to_json(ev)

    def test_timestamp_offset_normalized_to_utc(self):
        with_offset = parse_line(raw_line(time="2021-08-26T02:46:55.696+02:00"))
        with_z = parse_line(raw_line(time="2021-08-26T00:46:55.696Z"))
        assert with_offset.timestamp == with_z.timestamp
        assert with_offset.timestamp.utcoffset().total_seconds() == 0

    def test_timestamp_odd_fraction_lengths(self):
        short = parse_line(raw_line(time="2021-08-26T00:46:55.6Z"))
        assert short.timestamp.microsecond == 600000
        long = parse_line(raw_line(time="2021-08-26T00:46:55.696969696Z"))
        assert long.timestamp.microsecond == 696000
        whole = parse_line(raw_line(time="2021-08-26T00:46:55Z"))
        assert whole.timestamp.microsecond == 0



# The timestamp grammar, the same on every interpreter: ``YYYY-MM-DD``, then
# optionally one separator character and ``HH[:MM[:SS[.fraction]]]``, then
# ``Z``, ``±HH:MM[:SS[.ffffff]]`` or nothing. Each case: the raw value and
# the UTC instant it gives, or None where the line is malformed. Python 3.11
# widened ``datetime.fromisoformat``, so most of the rejected forms below
# parse there and not on 3.10.
TIMESTAMPS = [
    ("2021-08-23T10:22:42.123Z", "2021-08-23T10:22:42.123000"),
    ("2021-08-23T10:22:42.123+00:00", "2021-08-23T10:22:42.123000"),
    ("2021-08-23T10:22:42.123-05:30", "2021-08-23T15:52:42.123000"),
    ("2021-08-23T10:22:42.123456+00:00", "2021-08-23T10:22:42.123000"),
    ("2021-08-23T10:22:42.999999-05:30", "2021-08-23T15:52:42.999000"),
    ("2021-08-23T10:22:42.123456Z", "2021-08-23T10:22:42.123000"),
    ("2021-08-23T10:22:42+02:00", "2021-08-23T08:22:42"),
    ("2021-08-23T10:22:42Z", "2021-08-23T10:22:42"),
    ("2021-08-23T10:22:42", "2021-08-23T10:22:42"),
    ("2021-08-23T10:22Z", "2021-08-23T10:22:00"),
    ("2021-08-23T10Z", "2021-08-23T10:00:00"),
    ("2021-08-23", "2021-08-23T00:00:00"),
    ("2021-08-23 10:22:42.5Z", "2021-08-23T10:22:42.500000"),
    ("2021-08-23\u00e910:22:42Z", "2021-08-23T10:22:42"),
    ("2021-08-23\ud80010:22:42Z", "2021-08-23T10:22:42"),
    ("2021-08-23+00:00", "2021-08-23T00:00:00"),  # "+" is the separator
    ("2021-08-23T10:22:42.1234567Z", "2021-08-23T10:22:42.123000"),
    ("2021-08-23T10:22:42+02:00:30", "2021-08-23T08:22:12"),
    ("2021-08-23T10:22:42+02:00:00.500000", "2021-08-23T08:22:41.500000"),
    ("2021-08-23T10:22:42-00:00", "2021-08-23T10:22:42"),
    ("2021-08-23T10:22:42+23:59", "2021-08-22T10:23:42"),
    ("0001-01-01T00:00:00-00:01", "0001-01-01T00:01:00"),
    ("9999-12-31T23:59:59.999Z", "9999-12-31T23:59:59.999000"),
    # Forms that Python 3.11 and later read, and 3.10 does not.
    ("20210823T102242Z", None),
    ("20210823", None),
    ("2021-08-23T10:22:42+0200", None),
    ("2021-08-23T10:22:42+02", None),
    ("2021-W34-1T10:22:42Z", None),
    ("2021-W34-1", None),
    ("2021-08-23T10:22:42,5Z", None),
    ("2021-08-23T1022Z", None),
    ("2021-08-23T102242Z", None),
    # Forms that every fromisoformat reads, outside the grammar.
    ("2021-08-23Z", None),
    ("2021-08-23T10:22.123456", None),
    ("2021-08-23T10:+02:00", None),
    ("2021-08-23T10:22:42.Z", None),
    ("2021-08-23T10:22:42+02:00:00.5", None),
    # Out of range, or a NUL where a digit belongs.
    ("2021-08-23T24:00:00.000Z", None),
    ("2021-02-29T10:22:42.000Z", None),
    ("2021-08-23T10:22:42.000+24:00", None),
    ("2021-08-23T10:22:42+00:60", None),
    ("2021-08-23T10:22:42+00:99", None),
    ("2021-08-23T10:22:42-05:99", None),
    ("2021-08-23T10:22:42+00:00:60", None),
    ("2021-08-23T10:22:42.123+00:60", None),
    ("2021-08-23T10:22:42.123456-05:99", None),
    ("0001-01-01T00:00:00.000+00:01", None),
    ("2021-08-23T10:22:42.123a56Z", None),
    ("2021-08-23T10:22:42.12345\u0663+00:00", None),
    ("2021-08-23T10:Z\x00:42.123Z", None),
    ("2021-08-23T10:22:Z\x00Z", None),
    ("2021-08-23T10:22:42z", None),
    ("2021-08-23T10:22:42 ", None),
    ("\uff12021-08-23T10:22:42.000Z", None),
    ("", None),
]


@pytest.mark.parametrize("raw, want", TIMESTAMPS)
def test_timestamp_grammar(raw, want):
    ts = parse_timestamp(raw)
    if want is None:
        assert ts is None
    else:
        assert ts.tzinfo is timezone.utc
        assert ts.replace(tzinfo=None).isoformat() == want


def test_timestamps_outside_the_grammar_are_malformed(tmp_path):
    log = tmp_path / "events.log"
    log.write_text(raw_line(time="20210823T102242Z") + "\n"
                   + raw_line(time="2021-08-23T10:22:42+0200") + "\n")
    total, _ = validate_files([log])
    assert (total.malformed, total.retained) == (2, 0)


@pytest.mark.parametrize("raw", ["20210823", "2021-W34-1", "2021-235", "2021-08-23T00:00",
                                 " 2021-08-23", "2021-8-23", "2021-02-29", "", 20210823])
def test_dates_are_exactly_yyyy_mm_dd(raw, tmp_path):
    with pytest.raises(ValueError):
        parse_date(raw)
    with pytest.raises(ManifestError, match="bad course_start"):
        parse_manifest({"course_start": raw})
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"anchors": {"on_campus": raw}}))
    with pytest.raises(InputError, match="bad anchor date"):
        load_run_manifest(config)
    spec = dict(corpus_spec_to_dict(default_corpus_spec(users_per_class=1)), term_start=raw)
    with pytest.raises((TypeError, ValueError)):
        corpus_spec_from_dict(spec)


def test_date():
    assert parse_date("2021-08-23") == date(2021, 8, 23)
    assert parse_manifest({"course_start": "2021-08-23"}).course_start == date(2021, 8, 23)


class TestParseStats:
    def test_invariants_on_mixed_batch(self):
        stats = ParseStats()
        lines = (
            [raw_line() for _ in range(5)]
            + [raw_line(name="edx.ui.lms.link_clicked") for _ in range(3)]
            + ["{broken", ""]
            + [raw_line(source="server")]
        )
        for line in lines:
            stats.record(parse_line(line))
        assert stats.lines_read == 11
        assert stats.lines_read == stats.parsed + stats.malformed
        assert stats.parsed == stats.retained + stats.filtered_out
        assert stats.retained == 5
        assert stats.filtered_out == 4
        assert stats.malformed == 2

    def test_merge_commutative(self):
        a = ParseStats(lines_read=5, parsed=4, retained=3, malformed=1, filtered_out=1)
        b = ParseStats(lines_read=2, parsed=2, retained=1, malformed=0, filtered_out=1)
        assert a.merge(b) == b.merge(a)
        assert a.merge(b).lines_read == 7


class TestFileReading:
    def test_plain_and_gzip(self, tmp_path):
        lines = [raw_line(user=f"u{i}") for i in range(4)]
        plain = tmp_path / "events.log"
        plain.write_text("\n".join(lines) + "\n")
        gz = tmp_path / "events.log.gz"
        with gzip.open(gz, "wt") as handle:
            handle.write("\n".join(lines) + "\n")

        stats_plain = ParseStats()
        from_plain = list(iter_events(plain, stats_plain))
        stats_gz = ParseStats()
        from_gz = list(iter_events(gz, stats_gz))
        assert from_plain == from_gz
        assert stats_plain == stats_gz
        assert stats_plain.retained == 4

    def test_one_parse_shares_equal_ids(self, tmp_path):
        # Integer user ids become new strings on every line unless shared.
        paths = []
        for name in ("a.log", "b.log"):
            lines = [
                raw_line(name=etype, user=user, session=f"session-{user}", event=event)
                for user in (39071876, "u-0001")
                for etype, event in (
                    ("play_video", {"id": "video-0001", "currentTime": 1.5}),
                    ("problem_check", {"problem_id": "problem-0001", "grade": 1, "max_grade": 2}),
                )
            ]
            paths.append(tmp_path / name)
            paths[-1].write_text("\n".join(lines * 2) + "\n")
        _, students, _ = parse_log_files(paths)
        events = [state.event(row) for state in students.values() for row in range(len(state))]
        assert len(events) == 16
        for field, distinct in (
            (lambda ev: ev.user_id, 2),
            (lambda ev: ev.course_id, 1),
            (lambda ev: ev.session_id, 2),
            (lambda ev: getattr(ev.payload, "video_id", None) or ev.payload.problem_id, 2),
        ):
            first: dict = {}
            for ev in events:
                value = field(ev)
                assert value is first.setdefault(value, value)
            assert len(first) == distinct

    def test_floats_never_shared(self):
        # 0.0 == -0.0, so sharing floats by value would change the tie order.
        lines = [raw_line(event={"id": "v1", "currentTime": t}) for t in (-0.0, 0.0, -0.0)]
        texts = [event_to_json(ev) for ev in parse_events(lines)]
        assert ['"current_time":-0.0' in text for text in texts] == [True, False, True]
        assert ['"current_time":0.0' in text for text in texts] == [False, True, False]
        assert texts == [event_to_json(parse_line(line)) for line in lines]

    def _half_gzip(self, tmp_path):
        gz = tmp_path / "events.log.gz"
        lines = [raw_line(user=f"u{i}", time=f"2021-08-26T00:{i // 60:02d}:{i % 60:02d}.000Z")
                 for i in range(2000)]
        data = gzip.compress(("\n".join(lines) + "\n").encode())
        return gz, data

    def test_truncated_gzip_names_file(self, tmp_path):
        gz, data = self._half_gzip(tmp_path)
        gz.write_bytes(data[: len(data) // 2])
        with pytest.raises(gzip.BadGzipFile, match="events.log.gz") as exc:
            list(iter_events(gz, ParseStats()))
        assert isinstance(exc.value, OSError)
        assert isinstance(exc.value.__cause__, EOFError)

    def test_corrupt_gzip_names_file(self, tmp_path):
        gz, data = self._half_gzip(tmp_path)
        middle = len(data) // 2
        gz.write_bytes(data[:middle] + bytes(b ^ 0xFF for b in data[middle:middle + 64])
                       + data[middle + 64:])
        with pytest.raises(gzip.BadGzipFile, match="events.log.gz") as exc:
            list(iter_events(gz, ParseStats()))
        assert isinstance(exc.value.__cause__, (zlib.error, EOFError, gzip.BadGzipFile))
