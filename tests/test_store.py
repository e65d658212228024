"""The state store: ``pipeline`` writes the states it parsed, ``mine`` reads
them back. The states, threshold and gap read back equal the stored ones,
and a store, a log or a run config that does not match makes ``mine`` exit 2
with one line naming the store (or the missing log) and write nothing."""

from __future__ import annotations

import json
import random
import shutil
import struct
import zlib
from datetime import timedelta

import pytest

from edxmine.cli import main
from edxmine.pipeline import parse_log_files
from edxmine.store import MAX_GAP, STORE_NAME, VERSION, log_checksums, read_store, write_store
from edxmine.synth import default_corpus_spec, generate_corpus
from conftest import raw_line, tie_pairs


def _stored_states(tmp_path, lines):
    """The states parsed from ``lines`` and put in total order, and the
    states a store of them reads back as."""
    log = tmp_path / "events.log"
    log.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _, students, _ = parse_log_files([log])
    parsed = [students[key] for key in sorted(students, key=lambda k: (k[1], k[0]))]
    for state in parsed:
        state.sort()
    # The smallest threshold and gap a store can hold.
    threshold, gap = 5e-324, timedelta(microseconds=1)
    store = write_store(tmp_path / STORE_NAME, log_checksums([log]), threshold, gap, parsed)
    logs, passing_threshold, stored_gap, states = read_store(store)
    assert (logs, passing_threshold, stored_gap) == (log_checksums([log]), threshold, gap)
    return parsed, states


def _odd_id_lines() -> list[str]:
    """Ids that hold commas, quotes, newlines, non-ASCII text, and lone
    surrogates where the parser keeps them (session and content ids)."""
    lines = []
    for i, user in enumerate(["a,b", 'q"uote', "new\nline", "ünï cödé", "中文", "x" * 300]):
        for j, (session, video) in enumerate([("s,1", "v\n1"), ("s\ud800", "v\udfff"),
                                              (None, "é"), ("\U0001f600", "v,2")]):
            lines.append(raw_line("play_video", user=user, course=f"course,{i % 2}\n",
                                  session=session, time=f"2021-09-0{j + 1}T10:00:00.000Z",
                                  event={"id": video, "currentTime": -0.0, "duration": 60.5}))
            lines.append(raw_line("problem_check", user=user, course=f"course,{i % 2}\n",
                                  session=session, time=f"2021-09-0{j + 1}T10:00:00.000Z",
                                  event={"problem_id": f"p{j}", "grade": 1, "max_grade": 3}))
            lines.append(raw_line("problem_show", user=user, course=f"course,{i % 2}\n",
                                  session=session, time=f"2021-09-0{j + 1}T11:00:00.000Z"))
    return lines


@pytest.mark.parametrize("corpus", ["small", "ties", "odd-ids"])
def test_states_read_back_equal_column_for_column(small_corpus, tmp_path, corpus):
    lines = list(small_corpus["corpus"].lines)
    if corpus == "ties":
        lines += [line for pair in tie_pairs(small_corpus) for line in pair]
    elif corpus == "odd-ids":
        lines = _odd_id_lines()
    parsed, states = _stored_states(tmp_path, lines)
    assert len(states) == len(parsed) > 1
    for want, got in zip(parsed, states):
        assert (got.user_id, got.course_id) == (want.user_id, want.course_id)
        assert got.times == want.times
        assert got.types == want.types
        assert got.content == want.content
        assert got.sessions == want.sessions
        # Bytes, so NaN and -0.0 compare as stored.
        assert got.values.tobytes() == want.values.tobytes()
        assert len(got.values) == 4 * len(got)
    if corpus == "odd-ids":
        ids = {s for state in states for s in state.sessions + state.content}
        assert {"s\ud800", "v\udfff", "\U0001f600", "v\n1"} <= ids


# -- mine against damaged stores and other logs -------------------------------

@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """A pipeline run over a small corpus split into two logs."""
    root = tmp_path_factory.mktemp("study")
    lines = generate_corpus(default_corpus_spec(users_per_class=1, seed=17)).lines
    logs = [root / "a.log", root / "b.log"]
    logs[0].write_text("".join(line + "\n" for line in lines[0::2]))
    logs[1].write_text("".join(line + "\n" for line in lines[1::2]))
    out = root / "out"
    assert main(["pipeline", *map(str, logs), "--out", str(out)]) == 0
    return {"root": root, "logs": logs, "out": out, "store": (out / STORE_NAME).read_bytes()}


def _record_ends(store: bytes) -> list[int]:
    """The offset where the header and log list end, then where each
    student's record ends."""
    n_logs = int.from_bytes(store[28:32], "little")
    at = 32 + 12 * n_logs + 4
    ends = [at]
    for _ in range(int.from_bytes(store[at - 4:at], "little")):
        n, n_strings, text_bytes = struct.unpack_from("<III", store, at)
        at += 12 + 4 * (2 + n_strings) + text_bytes + 49 * n
        ends.append(at)
    assert at + 4 == len(store)
    return ends


class _Mine:
    """``mine`` in a fresh copy of the pipeline's output directory."""

    def __init__(self, study, tmp_path, capsys):
        self.study, self.tmp_path, self.capsys = study, tmp_path, capsys
        self.runs = 0

    def __call__(self, store, logs=None, flags=()) -> str:
        """Exit 2 with one error line, nothing written; returns the line."""
        self.runs += 1
        out = self.tmp_path / f"out-{self.runs}"
        out.mkdir()
        shutil.copy(self.study["out"] / "classifications.csv", out)
        if store is not None:
            (out / STORE_NAME).write_bytes(store)
        before = sorted(out.iterdir())
        logs = self.study["logs"] if logs is None else logs
        assert main(["mine", *map(str, logs), "--out", str(out), "--max-len", "2", *flags]) == 2
        captured = self.capsys.readouterr()
        err = captured.err.splitlines()
        assert captured.out == "" and len(err) == 1, captured
        assert sorted(out.iterdir()) == before
        return err[0].replace(str(out / STORE_NAME), "<store>")


@pytest.fixture
def mine(study, tmp_path, capsys):
    return _Mine(study, tmp_path, capsys)


def test_mine_reads_the_intact_store(study, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(study["out"], out)
    logs = [str(log) for log in reversed(study["logs"])]  # any order
    assert main(["mine", *logs, "--out", str(out), "--max-len", "2"]) == 0
    assert (out / "contrast.csv").exists()


def test_truncated_store_exits_two(study, mine):
    store = study["store"]
    rng = random.Random(1801)
    # The header's field boundaries: magic, version, threshold, gap, log count.
    cuts = set(_record_ends(store)) | {0, 3, 8, 12, 16, 20, 28, 32, len(store) - 4, len(store) - 1}
    cuts |= {rng.randrange(len(store)) for _ in range(40)}
    for cut in sorted(cuts):
        line = mine(store[:cut])
        assert line.startswith("edxmine: error: <store>: "), (cut, line)


def test_flipped_byte_exits_two(study, mine):
    store = study["store"]
    rng = random.Random(1802)
    # Every byte of the header (the threshold and gap among them), the log
    # list and the first record's counts, then bytes anywhere.
    at = sorted(set(range(_record_ends(store)[0] + 12)) | set(rng.sample(range(len(store)), 150)))
    for i in at:
        damaged = bytearray(store)
        damaged[i] ^= 1 << rng.randrange(8)
        line = mine(bytes(damaged))
        assert line.startswith("edxmine: error: <store>: "), (i, line)


def _with_crc(body: bytearray) -> bytes:
    return bytes(body) + zlib.crc32(body).to_bytes(4, "little")


def test_other_version_exits_two(study, mine):
    body = bytearray(study["store"][:-4])
    body[8:12] = (VERSION + 1).to_bytes(4, "little")
    line = mine(_with_crc(body))
    assert line.startswith("edxmine: error: <store>: ") and f"version {VERSION + 1}" in line


def test_version_one_store_exits_two(study, mine):
    # Version 1's header had no threshold or gap: magic, version, log count.
    store = study["store"]
    body = store[:8] + (1).to_bytes(4, "little") + store[28:-4]
    line = mine(_with_crc(body))
    assert line == (f"edxmine: error: <store>: state store of format version 1; this edxmine "
                    f"reads version {VERSION}, so run pipeline again")


@pytest.mark.parametrize("threshold, minutes", [(0.95, 5), (1.0, MAX_GAP // timedelta(minutes=1))])
def test_pipeline_stores_its_threshold_and_gap(study, tmp_path, threshold, minutes):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"passing_threshold": threshold, "gap_minutes": minutes}))
    out = tmp_path / "out"
    assert main(["pipeline", *map(str, study["logs"]), "--run-config", str(config),
                 "--out", str(out)]) == 0
    logs, passing_threshold, gap, _ = read_store(out / STORE_NAME)
    assert logs == log_checksums(study["logs"])
    assert (passing_threshold, gap) == (threshold, timedelta(minutes=minutes))


@pytest.mark.parametrize("config, given", [
    ({"passing_threshold": 0.9}, "0.9 and 30.0"),
    ({"gap_minutes": 5}, "0.7 and 5.0"),
])
def test_run_config_other_than_pipelines_exits_two(study, mine, tmp_path, config, given):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    line = mine(study["store"], flags=["--run-config", str(path)])
    assert line == ("edxmine: error: <store>: pipeline ran with passing_threshold 0.7 and "
                    f"gap_minutes 30.0, the run config gives {given}")


@pytest.mark.parametrize("fmt, value", [("<d", 0.0), ("<d", 1.5), ("<d", float("nan")),
                                        ("<q", 0), ("<q", -1)])
def test_run_settings_out_of_range_under_a_valid_crc_exit_two(study, mine, fmt, value):
    body = bytearray(study["store"][:-4])
    struct.pack_into(fmt, body, 12 if fmt == "<d" else 20, value)
    line = mine(_with_crc(body))
    assert line == ("edxmine: error: <store>: damaged state store "
                    "(a passing threshold or session gap out of range)")


@pytest.mark.parametrize("column, value, reason", [
    ("types", 15, "an unknown event type code"),
    ("content", 10**6, "a string index out of range"),
])
def test_record_out_of_range_under_a_valid_crc_exits_two(study, mine, column, value, reason):
    body = bytearray(study["store"][:-4])
    at = _record_ends(study["store"])[0]
    n, n_strings, text_bytes = struct.unpack_from("<III", body, at)
    types_at = at + 12 + 4 * (2 + n_strings) + text_bytes + 8 * n
    if column == "types":
        body[types_at] = value
    else:
        struct.pack_into("<I", body, types_at + n, value)
    assert mine(_with_crc(body)) == f"edxmine: error: <store>: damaged state store ({reason})"


def test_no_store_exits_two(mine):
    line = mine(None)
    assert line == "edxmine: error: <store>: no state store; run pipeline with this --out first"


def test_other_logs_exit_two(study, mine):
    a, b = study["logs"]
    root = study["root"]
    other = root / "other.log"
    other.write_text(a.read_text() + "\n")
    changed = root / "changed.log"
    data = bytearray(b.read_bytes())
    data[len(data) // 2] ^= 1
    changed.write_bytes(bytes(data))
    for logs in ([a, other], [a], [a, changed], [a, b, b]):
        line = mine(study["store"], logs)
        assert line.startswith("edxmine: error: <store>: ") and "logs" in line, (logs, line)
    missing = root / "absent.log"
    assert mine(study["store"], [a, missing]) == f"edxmine: error: log file not found: {missing}"
