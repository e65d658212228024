"""Seeded fuzzing of ``edxmine.events.parse_line`` against the reference parser.

Lines start as synth output and are mutated: type swaps on every field,
non-finite numbers, deep nesting, lone surrogates, odd timestamps, string
payloads, then byte flips, truncation, invalid UTF-8, byte-order marks and
UTF-16/32 encodings. Every line must give the same outcome as
``reference_parser.reference_outcome``, field types and tzinfo included,
once the fields that events do not keep are dropped from it (see
:func:`kept_fields`). Apart from the lines, the timestamp shapes that
``parse_timestamp`` hands straight to ``fromisoformat`` are mutated a
character at a time and must parse as the reference's grammar says.

The module needs no pytest, so other interpreters can run it directly::

    PYTHONPATH=src python tests/test_parser_fuzz.py [variants-per-line] [extra-seeds]
"""

from __future__ import annotations

import functools
import gzip
import io
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Union

from edxmine.events import (
    RETAINED_EVENT_TYPES,
    Event,
    FilteredOut,
    Malformed,
    ParseStats,
    event_of,
    event_to_json,
    iter_events,
    parse_events,
    parse_line,
    parse_timestamp,
)
from edxmine.pipeline import parse_log_files, validate_files
from edxmine.synth import default_corpus_spec, generate_corpus

import reference_parser
from reference_parser import reference_outcome, timestamp_fields, typed

Line = Union[str, bytes]

FUZZ_SEED = 6006
VARIANTS_PER_SEED_LINE = 40
TIMESTAMPS_PER_SEED = 4000

TOP_FIELDS = (
    "name", "event_type", "event_source", "context", "user_id", "username",
    "course_id", "org_id", "time", "timestamp", "session", "session_id", "event",
)
CONTEXT_FIELDS = ("user_id", "course_id", "org_id")
PAYLOAD_FIELDS = (
    "id", "video_id", "currentTime", "current_time", "duration", "old_time",
    "new_time", "new_speed", "problem_id", "grade", "max_grade", "success", "attempts",
)
EVENT_NAMES = tuple(t.value for t in RETAINED_EVENT_TYPES) + (
    "Play_Video", "page_close", "seq_goto", "", " play_video",
)
NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e308", "-0.0", "5e-324")
INVALID_UTF8 = (b"\xc3\x28", b"\xff", b"\x80", b"\xed\xa0", b"\xf0\x28\x8c\xbc", b"\xe2\x82", b"\xc0\xaf")
WIDE_ENCODINGS = ("utf-16", "utf-16-le", "utf-16-be", "utf-32", "utf-32-le", "utf-32-be")
# Both sides of the decoder's recursion limit on every supported Python.
NESTING_DEPTHS = (3, 900, 1100, 5000, 50_000)
SURROGATES = ("\ud800", "\udfff", "a\udc80b", "\ud83d")


def describe(outcome) -> tuple:
    """A ``parse_line`` outcome in the reference parser's tuple form."""
    if isinstance(outcome, Malformed):
        return ("malformed", outcome.reason)
    if isinstance(outcome, FilteredOut):
        return ("filtered", outcome.reason)
    payload = outcome.payload
    if payload is not None:
        payload = (type(payload).__name__,) + tuple(
            typed(getattr(payload, name)) for name in payload.__slots__
        )
    return (
        "event",
        None,
        typed(outcome.user_id),
        typed(outcome.course_id),
        typed(outcome.session_id),
        timestamp_fields(outcome.timestamp),
        outcome.event_type.value,
        payload,
    )


# The reference payload tuples end with the fields that events do not keep.
_DROPPED_PAYLOAD_FIELDS = {"VideoPayload": 1, "ProblemPayload": 2}  # new_speed; success, attempts


def kept_fields(reference: tuple) -> tuple:
    """A reference outcome without ``org_id``, ``new_speed``, ``success`` and
    ``attempts``, in the form :func:`describe` gives."""
    if reference[0] != "event":
        return reference
    payload = reference[8]
    if payload is not None:
        payload = payload[: -_DROPPED_PAYLOAD_FIELDS[payload[0]]]
    return reference[:4] + reference[5:8] + (payload,)


# -- mutations of a decoded record --------------------------------------------
# Each takes (rng, obj, raw) and changes obj in place. ``raw`` maps a
# placeholder string to JSON text that json.dumps cannot write itself.


def _placeholder(raw: dict, text: str) -> str:
    key = f"@@raw{len(raw)}@@"
    raw[key] = text
    return key


def _swap_value(rng: random.Random):
    return rng.choice(
        [
            True, False, None, 0, -1, 7, 10**20, 2**1100,
            rng.uniform(-5.0, 500.0), -0.0, 0.0, 1e-320, 2.5,
            "3", "1.5", "-2", "1e3", " 7 ", "nan", "inf", "-Infinity", "1e400",
            "0x10", "1_000", "٣", "correct", "incorrect", "browser", "", "x",
            [], [1, "a"], {}, {"user_id": 5}, rng.choice(EVENT_NAMES),
        ]
    )


def _target(rng: random.Random, obj: dict) -> tuple[dict, str]:
    """A random (container, key) among the top-level, context and payload
    fields, creating the container when it is missing or not an object."""
    level = rng.randrange(3)
    if level == 0:
        return obj, rng.choice(TOP_FIELDS)
    name = "context" if level == 1 else "event"
    if not isinstance(obj.get(name), dict):
        obj[name] = {}
    return obj[name], rng.choice(CONTEXT_FIELDS if level == 1 else PAYLOAD_FIELDS)


def swap_type(rng, obj, raw):
    container, key = _target(rng, obj)
    if rng.random() < 0.15:
        container.pop(key, None)
    else:
        container[key] = _swap_value(rng)


def rename_event(rng, obj, raw):
    for key in rng.choice((("name",), ("event_type",), ("name", "event_type"))):
        obj[key] = rng.choice(EVENT_NAMES) if rng.random() < 0.7 else _swap_value(rng)


def non_finite(rng, obj, raw):
    container, key = _target(rng, obj)
    container[key] = _placeholder(raw, rng.choice(NON_FINITE))


def deep_nesting(rng, obj, raw):
    depth = rng.choice(NESTING_DEPTHS)
    if rng.random() < 0.5:
        nested = "[" * depth + "1" + "]" * depth
    else:
        nested = '{"a":' * depth + "1" + "}" * depth
    container, key = _target(rng, obj)
    if rng.random() < 0.3:
        container, key = obj, "event"
        if rng.random() < 0.5:  # a string payload that nests too deeply
            obj[key] = nested
            return
    container[key] = _placeholder(raw, nested)


def lone_surrogate(rng, obj, raw):
    container, key = _target(rng, obj)
    old = container.get(key)
    text = rng.choice(SURROGATES)
    container[key] = old + text if isinstance(old, str) and rng.random() < 0.5 else text


def timestamp(rng, obj, raw):
    day = rng.choice(("2021-08-26", "0001-01-01", "9999-12-31", "2020-02-29", "2021-02-29"))
    clock = rng.choice(("T00:46:55", "T23:59:59", " 12:00:00", "T12:00", "T00:00:00", "T12", "T1200"))
    digits = rng.randint(0, 9)
    fraction = rng.choice(".,") + "".join(rng.choice("0123456789") for _ in range(digits))
    if digits == 0 and rng.random() < 0.7:
        fraction = ""
    offset = rng.choice((
        "Z", "+00:00", "-00:00", "+02:00", "-05:30", "", "+00:00:00", "+0200", "z",
        "+02", "+02:00:00.500000", "+02:00:00.5",
    ))
    value = day + clock + fraction + offset
    if rng.random() < 0.1:
        value = rng.choice(("2021-08-26", "20210826T004655Z", "week 2021-08-26", "2021-W34-4", value[:-3]))
    key = rng.choice(("time", "time", "timestamp"))
    obj[key] = value
    if key == "timestamp" and rng.random() < 0.5:
        obj.pop("time", None)


def string_event(rng, obj, raw):
    payload = obj.get("event")
    text = json.dumps(payload)
    choice = rng.randrange(5)
    if choice == 1:
        text = text[: rng.randrange(len(text) + 1)]
    elif choice == 2:
        text = "\ufeff" + text
    elif choice == 3:
        text = json.dumps(text)  # encoded twice
    elif choice == 4:
        text = json.dumps([payload])
    obj["event"] = text


def context_to_top(rng, obj, raw):
    context = obj.pop("context", None)
    if isinstance(context, dict):
        obj.update(context)


RECORD_MUTATIONS = (
    swap_type, swap_type, swap_type, rename_event, non_finite, deep_nesting,
    lone_surrogate, timestamp, timestamp, string_event, context_to_top,
)


# -- mutations of the encoded line --------------------------------------------


def flip_bytes(rng, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        if out:
            out[rng.randrange(len(out))] = rng.randrange(256)
    return bytes(out)


def truncate(rng, data: bytes) -> bytes:
    return data[: rng.randrange(len(data) + 1)]


def invalid_utf8(rng, data: bytes) -> bytes:
    quotes = [i for i, byte in enumerate(data) if byte == 0x22] or [0]
    at = rng.choice(quotes) + 1
    return data[:at] + rng.choice(INVALID_UTF8) + data[at:]


def bom(rng, data: bytes) -> bytes:
    return b"\xef\xbb\xbf" * rng.choice((1, 1, 2)) + data


def wide_encoding(rng, data: bytes) -> bytes:
    text = data.decode("utf-8", "surrogatepass")
    return text.encode(rng.choice(WIDE_ENCODINGS), "surrogatepass")


BYTE_MUTATIONS = (flip_bytes, truncate, invalid_utf8, bom, wide_encoding)


def mutate(rng: random.Random, line: str) -> Line:
    """One fuzzed variant of a valid log line, as bytes or text."""
    obj = json.loads(line)
    raw: dict = {}
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        rng.choice(RECORD_MUTATIONS)(rng, obj, raw)
    if rng.random() < 0.02:
        obj = rng.choice(([obj], obj.get("name"), 7, None, []))
    text = json.dumps(
        obj,
        ensure_ascii=rng.random() < 0.5,
        separators=rng.choice(((",", ":"), (", ", ": "))),
    )
    for key, literal in raw.items():
        text = text.replace(json.dumps(key), literal)
    if rng.random() < 0.2:
        return rng.choice((text, "\ufeff" + text, text + "\n"))
    # Unescaped lone surrogates become the raw bytes ED A0 80 and the like.
    data = text.encode("utf-8", "surrogatepass")
    if rng.random() < 0.35:
        data = rng.choice(BYTE_MUTATIONS)(rng, data)
    if rng.random() < 0.7:
        data += b"\n"
    return data


@functools.lru_cache(maxsize=None)
def fuzz_corpus(seed: int = FUZZ_SEED, variants: int = VARIANTS_PER_SEED_LINE) -> tuple[Line, ...]:
    """The synth lines of a small corpus, each followed by ``variants``
    fuzzed variants of it."""
    rng = random.Random(seed)
    lines: list[Line] = []
    for line in generate_corpus(default_corpus_spec(users_per_class=1, seed=seed)).lines:
        lines.append(line.encode() + b"\n")
        lines.extend(mutate(rng, line) for _ in range(variants))
    return tuple(lines)


# Characters a mutated timestamp takes: digits, the grammar's punctuation
# and its near misses, a NUL, and non-ASCII letters, digits and a surrogate.
_TIMESTAMP_CHARS = "0123456789" + "+-:.TZz ,W" * 2 + "\0\0\u00e9\u0663\uff11\ud800"


def timestamp_shapes(seed: int, count: int = TIMESTAMPS_PER_SEED) -> list[str]:
    """``count`` timestamps of the shapes ``YYYY-MM-DDTHH:MM:SS``, then
    ``.fff``, ``.ffffff`` or nothing, then ``Z`` or ``±HH:MM``, most with
    one to three characters replaced, inserted or deleted."""
    rng = random.Random(seed)
    values = []
    for _ in range(count):
        value = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}{}{}".format(
            rng.choice((1, 2021, 2024, 9999)), rng.randint(1, 12), rng.randint(1, 31),
            rng.randint(0, 24), rng.randint(0, 59), rng.randint(0, 60),
            rng.choice(("", ".{:03d}", ".{:06d}")).format(rng.randint(0, 999999) % 1000000),
            rng.choice(("Z", "+00:00", "-00:00", "+02:00", "-05:30", "+14:00", "+24:00")),
        )
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            at = rng.randrange(len(value) + 1)
            kind = rng.random()
            char = rng.choice(_TIMESTAMP_CHARS)
            if kind < 0.7:
                value = value[:at] + char + value[at + 1:]
            elif kind < 0.85:
                value = value[:at] + char + value[at:]
            else:
                value = value[:at] + value[at + 1:]
        values.append(value)
    return values


def check_timestamps_match_reference(values) -> None:
    mismatches = []
    for value in values:
        got, want = parse_timestamp(value), reference_parser.parse_timestamp(value)
        got, want = (None if ts is None else timestamp_fields(ts) for ts in (got, want))
        if got != want:
            mismatches.append(f"{value!r}\n  parse_timestamp: {got}\n  reference:       {want}")
    assert not mismatches, f"{len(mismatches)} timestamps differ:\n" + "\n".join(mismatches[:5])
    # Both outcomes are well represented.
    parsed = sum(reference_parser.parse_timestamp(value) is not None for value in values)
    assert len(values) // 10 < parsed < len(values) * 9 // 10


def _short(line: Line) -> str:
    text = repr(line)
    return text if len(text) <= 300 else text[:300] + "..."


def check_matches_reference(lines) -> None:
    mismatches = []
    for line in lines:
        try:
            got = describe(parse_line(line))
        except Exception as exc:  # parse_line must never raise
            got = ("raised", repr(exc))
        want = kept_fields(reference_outcome(line))
        if got != want:
            mismatches.append(f"{_short(line)}\n  parse_line: {got}\n  reference:  {want}")
    assert not mismatches, f"{len(mismatches)} lines differ:\n" + "\n".join(mismatches[:5])


def check_parse_stats(lines) -> None:
    stats = ParseStats()
    events = list(parse_events(lines, stats))
    retained = len(events)
    # parse_events shares ids between lines; each event still equals the one
    # parse_line gives for its line alone.
    alone = [e for e in map(parse_line, lines) if isinstance(e, Event)]
    assert [describe(e) for e in events] == [describe(e) for e in alone]
    assert [event_to_json(e) for e in events] == [event_to_json(e) for e in alone]
    assert stats.lines_read == len(lines) == stats.parsed + stats.malformed
    assert stats.parsed == stats.retained + stats.filtered_out
    assert stats.retained == retained
    kinds = [reference_outcome(line) for line in lines]
    assert stats.malformed == sum(k[0] == "malformed" for k in kinds)
    assert stats.filtered_out == sum(k[0] == "filtered" for k in kinds)
    # The corpus reaches every outcome, so a broken branch cannot hide.
    reasons = {k[1] for k in kinds if k[0] != "event"}
    assert reasons == {
        "invalid json", "not an object", "missing event type", "missing user",
        "missing course", "missing or bad timestamp", "event_type", "source",
    }
    assert retained > len(lines) // 4


def check_file_tallies(lines) -> None:
    """The fuzz corpus as a plain and a gzip log: ``validate`` and
    ``pipeline`` tally each file as the reference parser does, and the
    events built from ``iter_events``' heads are those of ``parse_line``."""
    data = b"".join(
        (line if type(line) is bytes else line.encode("utf-8", "surrogatepass")).removesuffix(b"\n")
        + b"\n"
        for line in lines
    )
    file_lines = list(io.BytesIO(data))  # what a reader of the file sees
    kinds = [reference_outcome(line)[0] for line in file_lines]
    malformed = kinds.count("malformed")
    want = ParseStats(
        lines_read=len(kinds),
        parsed=len(kinds) - malformed,
        retained=kinds.count("event"),
        malformed=malformed,
        filtered_out=kinds.count("filtered"),
    )
    alone = [e for e in map(parse_line, file_lines) if isinstance(e, Event)]
    with tempfile.TemporaryDirectory() as tmp:
        plain, gz = Path(tmp, "fuzz.log"), Path(tmp, "fuzz.log.gz")
        plain.write_bytes(data)
        gz.write_bytes(gzip.compress(data))
        _, per_file = validate_files([plain, gz])
        assert per_file == parse_log_files([plain, gz])[2] == [(str(plain), want), (str(gz), want)]
        for path in (plain, gz):
            memo: dict = {}
            events = [event_of(head, memo) for head in iter_events(path)]
            assert [describe(e) for e in events] == [describe(e) for e in alone]
            assert [event_to_json(e) for e in events] == [event_to_json(e) for e in alone]


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def check_strict_json(lines) -> None:
    for line in lines:
        event = parse_line(line)
        if isinstance(event, Event):
            obj = json.loads(event_to_json(event), parse_constant=_reject_constant)
            assert not obj.keys() & {"source", "org_id", "new_speed", "success", "attempts"}


CHECKS = (check_matches_reference, check_parse_stats, check_file_tallies, check_strict_json)


def test_parse_line_matches_reference():
    check_matches_reference(fuzz_corpus())


_EVENT_LINE = (
    '{"name": "play_video", "event_source": "browser", "time": "2021-08-26T00:46:55.696Z",'
    ' "context": {"user_id": 7, "course_id": "course-v1:GTX+CS1301+1T2021a"},'
    ' "event": {"id": "v1", "currentTime": 2.5}}'
)
# Lines at the edges of parse_line's decoding: a line that opens with "{" and
# no NUL next is decoded as UTF-8 at once, every other line as
# json.detect_encoding says; JSON whitespace is stripped from both ends, and
# anything after the value makes the line invalid.
DECODE_CASES = {
    "open brace only": b"{",
    "brace then NUL": b"{\x00",
    "utf-8 BOM": b"\xef\xbb\xbf" + _EVENT_LINE.encode(),
    "utf-16-le": _EVENT_LINE.encode("utf-16-le"),
    "utf-16-be": _EVENT_LINE.encode("utf-16-be"),
    "utf-16 with BOM": _EVENT_LINE.encode("utf-16"),
    "utf-32-le": _EVENT_LINE.encode("utf-32-le"),
    "utf-32 with BOM": _EVENT_LINE.encode("utf-32"),
    "whitespace only": b" \t\r\n",
    "CRLF after the value": b"{}\r\n",
    "event line with CRLF": _EVENT_LINE.encode() + b"\r\n",
    "leading tabs": b"\t\t" + _EVENT_LINE.encode(),
    "two values": b"{} {}",
    "event line then a value": (_EVENT_LINE + " {}").encode(),
    "event line as str with trailing data": _EVENT_LINE + " 1",
    "string event payload": _EVENT_LINE.replace(
        '{"id": "v1", "currentTime": 2.5}', json.dumps('{"id": "v1", "currentTime": 2.5}')
    ).encode(),
    "string event payload then a value": _EVENT_LINE.replace(
        '{"id": "v1", "currentTime": 2.5}', json.dumps(' {"id": "v1", "currentTime": 2.5} {}')
    ).encode(),
}


def test_decode_edges_match_reference():
    check_matches_reference(DECODE_CASES.values())
    # The table holds whole events, not only rejects.
    kinds = {name: reference_outcome(line)[0] for name, line in DECODE_CASES.items()}
    assert sorted(name for name, kind in kinds.items() if kind == "event") == [
        "event line with CRLF", "leading tabs", "string event payload",
        "string event payload then a value", "utf-16 with BOM", "utf-16-be", "utf-16-le",
        "utf-32 with BOM", "utf-32-le", "utf-8 BOM",
    ]


def test_timestamp_shapes_match_reference():
    check_timestamps_match_reference(timestamp_shapes(FUZZ_SEED))


def test_parse_stats_identities():
    check_parse_stats(fuzz_corpus())


def test_file_tallies_match_reference():
    check_file_tallies(fuzz_corpus())


def test_retained_events_serialize_to_strict_json():
    check_strict_json(fuzz_corpus())


def main(argv: list[str]) -> int:
    """Run every check on the default corpus and on ``extra`` more seeds."""
    variants = int(argv[0]) if argv else VARIANTS_PER_SEED_LINE
    extra = int(argv[1]) if len(argv) > 1 else 3
    failed = 0
    for seed in range(FUZZ_SEED, FUZZ_SEED + extra + 1):
        lines = fuzz_corpus(seed, variants)
        for check in CHECKS:
            try:
                check(lines)
            except Exception as exc:  # a failed assert, or the strict JSON reader
                failed += 1
                print(f"FAIL seed {seed} {check.__name__}: {exc}"[:2000])
        try:
            check_timestamps_match_reference(timestamp_shapes(seed))
        except AssertionError as exc:
            failed += 1
            print(f"FAIL seed {seed} check_timestamps_match_reference: {exc}"[:2000])
        print(f"seed {seed}: {len(lines)} lines and {TIMESTAMPS_PER_SEED} timestamps checked")
        fuzz_corpus.cache_clear()
    print(f"python {sys.version.split()[0]}: {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
