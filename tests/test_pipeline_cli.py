from __future__ import annotations

import csv
import gzip
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import edxmine
from edxmine.cli import main
from edxmine.engagement import collect_student_events
from edxmine.manifest import manifest_to_dict
from edxmine.patterns import encode_sequences
from edxmine.pipeline import (
    CohortRule,
    InputError,
    RunManifest,
    assign_cohorts,
    load_run_manifest,
    parse_log_files,
    read_classifications,
    resolve_anchor,
    resolve_min_support,
    run_mining,
    run_pipeline,
)
from edxmine.reports import CohortId
from edxmine.store import STORE_NAME
from edxmine.synth import corpus_spec_to_dict, default_corpus_spec, generate_corpus
from conftest import bare_event, raw_line, tie_pairs, tied_lines


def _store_body(store: bytes) -> bytes:
    """A state store's bytes after its log list and before its CRC."""
    n_logs = int.from_bytes(store[28:32], "little")
    return store[32 + 12 * n_logs:-4]


class TestRunManifestLoading:
    def test_load(self, small_corpus):
        run = load_run_manifest(small_corpus["run_config"])
        assert run.manifest is not None
        assert run.cohorts[0].cohort == CohortId("on_campus", "Fall 2021")
        assert run.anchors["on_campus:Fall 2021"] == date(2021, 8, 23)
        assert run.passing_threshold == 0.7

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"cohort_rules": []}))
        with pytest.raises(InputError, match="unknown run config keys"):
            load_run_manifest(path)

    def test_unknown_cohort_keys_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"cohorts": [{"pattern": ".*", "label": "x"}]}))
        with pytest.raises(InputError, match="unknown keys"):
            load_run_manifest(path)

    def test_missing_manifest_path(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"manifest": "absent.json"}))
        with pytest.raises(InputError, match="not found"):
            load_run_manifest(path)

    def test_bad_anchor(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"anchors": {"online:all": "yesterday"}}))
        with pytest.raises(InputError, match="anchor"):
            load_run_manifest(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gap_minutes", "NaN"),
            ("gap_minutes", "Infinity"),
            ("gap_minutes", "1e308"),
            ("gap_minutes", "true"),
            ("gap_minutes", "0"),
            ("gap_minutes", "1e-300"),
            ("gap_minutes", '"30"'),
            ("passing_threshold", "true"),
            ("passing_threshold", "NaN"),
            ("passing_threshold", "1.5"),
        ],
    )
    def test_bad_gap_or_threshold_rejected(self, tmp_path, key, value):
        path = tmp_path / "run.json"
        path.write_text(f'{{"{key}": {value}}}')
        with pytest.raises(InputError, match=key):
            load_run_manifest(path)

    def test_default_catch_all_cohort(self):
        run = RunManifest()
        assert run.cohorts[0].pattern == ".*"


class TestCohortAssignment:
    def test_first_match_and_unmatched(self):
        events = [
            bare_event("problem_show", course="course-v1:GTX+A+1T2021"),
            bare_event("problem_show", course="course-v1:GTX+A+2022"),
            bare_event("problem_show", course="other"),
        ]
        rules = [
            CohortRule("2021", CohortId("on_campus", "2021")),
            CohortRule("GTX", CohortId("online", "any")),
        ]
        by_cohort, unmatched = assign_cohorts(collect_student_events(events), rules)
        assert unmatched == 1
        assert len(by_cohort[CohortId("on_campus", "2021")]) == 1
        assert len(by_cohort[CohortId("online", "any")]) == 1


class TestAnchors:
    def test_explicit_anchor_wins(self):
        run = RunManifest(anchors={"online:2021": date(2020, 12, 31)})
        cohort = CohortId("online", "2021")
        assert resolve_anchor(cohort, run, {}) == date(2020, 12, 31)

    def test_online_defaults_to_january_first(self):
        cohort = CohortId("online", "2022")
        assert resolve_anchor(cohort, RunManifest(), {}) == date(2022, 1, 1)

    def test_on_campus_uses_course_start(self, small_corpus):
        run = load_run_manifest(small_corpus["run_config"])
        run.anchors = {}
        cohort = CohortId("on_campus", "Fall 2021")
        assert resolve_anchor(cohort, run, {}) == date(2021, 8, 23)

    def test_fallback_to_earliest_event(self):
        cohort = CohortId("on_campus", "whenever")
        events = [bare_event("problem_show", t=0)]
        students = collect_student_events(events)
        assert resolve_anchor(cohort, RunManifest(), students) == events[0].timestamp.date()


class TestMinSupport:
    def test_absolute(self):
        assert resolve_min_support(5, 1000) == 5

    def test_absolute_rounds_up(self):
        # A pattern in 2 sequences does not reach a support of 2.5.
        assert resolve_min_support(2.5, 100) == 3
        assert resolve_min_support(5.0, 100) == 5

    def test_fraction(self):
        assert resolve_min_support(0.05, 40) == 2
        assert resolve_min_support(0.05, 1) == 1
        # The decimal as typed: the float 0.07 * 100 is 7.000000000000001.
        assert resolve_min_support(0.07, 100) == 7
        assert resolve_min_support(0.07, 300) == 21
        assert resolve_min_support(0.14, 50) == 7


class TestRunPipeline:
    def test_end_to_end_matches_labels(self, small_corpus, tmp_path):
        run = load_run_manifest(small_corpus["run_config"])
        result = run_pipeline(run, [small_corpus["events"]], tmp_path)
        expected_files = {
            "aggregates", "classifications", "enrollment", "breakdown",
            "score_comparison", "scorer_distribution", "weekly", "run_meta",
        }
        assert expected_files <= set(result.files)
        assert result.unmatched_events == 0

        classified = read_classifications(result.files["classifications"])
        with open(small_corpus["labels"], newline="") as handle:
            truth = {row["user_id"]: row["class"] for row in csv.DictReader(handle)}
        course_id = small_corpus["spec"].manifest.course_id
        assert classified == {(user, course_id): name for user, name in truth.items()}

        # The aggregate rows read back into the same objects they came from.
        from edxmine.engagement import StudentAggregate

        lines = result.files["aggregates"].read_text().splitlines()
        assert len(lines) == len(truth)
        by_user = {cohort_agg[1].user_id: cohort_agg[1] for cohort_agg in result.aggregates}
        for line in lines:
            agg = StudentAggregate.from_dict(json.loads(line))
            assert agg == by_user[agg.user_id]

    def test_idempotent_reruns(self, small_corpus, tmp_path):
        run = load_run_manifest(small_corpus["run_config"])
        first_dir = tmp_path / "a"
        second_dir = tmp_path / "b"
        first = run_pipeline(run, [small_corpus["events"]], first_dir)
        second = run_pipeline(run, [small_corpus["events"]], second_dir)
        for name, path in first.files.items():
            assert path.read_bytes() == second.files[name].read_bytes(), name

    def test_shards_give_same_bytes_as_whole_log(self, small_corpus, tmp_path):
        run = load_run_manifest(small_corpus["run_config"])
        # The whole log holds each tied pair in one order, the shards in the other.
        pairs = tie_pairs(small_corpus)
        firsts, seconds = (list(side) for side in zip(*pairs))
        # Alternate lines, read in the other order: no event keeps its place.
        lines = small_corpus["events"].read_text().splitlines()
        whole = tmp_path / "whole.log"
        whole.write_text("\n".join(lines + [line for pair in pairs for line in pair]) + "\n")
        shard_a = tmp_path / "a.log"
        shard_b = tmp_path / "b.log"
        shard_a.write_text("\n".join(lines[0::2] + firsts) + "\n")
        shard_b.write_text("\n".join(lines[1::2] + seconds) + "\n")

        outputs = {}
        for name, logs in (("whole", [whole]), ("shards", [shard_b, shard_a])):
            out = tmp_path / name
            files = run_pipeline(run, logs, out).files
            files.update(run_mining(run, logs, out, max_len=3))
            outputs[name] = files
        # run_meta.json tallies each input file, so its per_file_stats differ,
        # and the state store checksums each, so its log lists differ.
        del outputs["whole"]["run_meta"]
        whole, shards = (_store_body(files["states"].read_bytes()) for files in outputs.values())
        assert whole == shards
        del outputs["whole"]["states"]
        assert set(outputs["whole"]) < set(outputs["shards"])
        for name, path in outputs["whole"].items():
            assert path.read_bytes() == outputs["shards"][name].read_bytes(), name

    def test_fields_no_analysis_reads_leave_outputs_alone(self, small_corpus, tmp_path):
        # Two logs that differ only in org_id, new_speed, success and
        # attempts. tie-1 and tie-2 are the ties those fields could decide:
        # an ungraded check with an attempt counter tied with a graded one,
        # and the same two checks from two organizations.
        run = load_run_manifest(small_corpus["run_config"])
        tied = tied_lines(small_corpus)
        outputs = {}
        for flip in (False, True):
            first, second = ("AAA", "ZZZ") if flip else ("ZZZ", "AAA")
            ungraded = {"problem_id": tied.problem, **({"attempts": 1} if flip else {})}
            speed = {"id": tied.video, "currentTime": 3.0, **({"new_speed": 1.5} if flip else {})}
            lines = [
                tied("problem_check_fail", "tie-1", ungraded),
                tied("problem_check_fail", "tie-1", tied.graded),
                tied("problem_check_fail", "tie-2", {"problem_id": tied.problem}, org=first),
                tied("problem_check_fail", "tie-2", tied.graded, org=second),
                tied("speed_change", "tie-3", speed),
                tied("problem_check", "tie-3", dict(tied.graded, success="correct" if flip else False)),
            ]
            # The same log path for both runs, so run_meta.json may not differ either.
            log = tmp_path / "events.log"
            log.write_text("\n".join(small_corpus["corpus"].lines + lines) + "\n")
            out = tmp_path / f"out-{flip}"
            files = run_pipeline(run, [log], out).files
            files.update(run_mining(run, [log], out, max_len=3, min_support=1,
                                    split_check_outcome=True))
            outputs[flip] = {name: path.read_bytes() for name, path in files.items()}
            # The state store checksums the log, which differs; its states may not.
            outputs[flip]["states"] = _store_body(outputs[flip]["states"])
        assert outputs[False] == outputs[True]

        # A tie is ordered by the canonical form without the unread fields:
        # the graded check comes first, so it is the first score.
        aggregates = [json.loads(line) for line in outputs[True]["aggregates"].splitlines()]
        for user in ("tie-1", "tie-2"):
            agg = next(a for a in aggregates if a["user_id"] == user)
            assert (agg["mean_first_score"], agg["mean_final_score"]) == (0.5, 0.0)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_outputs_are_strict_json_and_whole_csv_rows(self, small_corpus, tmp_path, fmt):
        run = load_run_manifest(small_corpus["run_config"])
        tied = tied_lines(small_corpus)
        non_finite = ["NaN", "Infinity", "-Infinity", "1e400", '"NaN"', '"Infinity"']
        added = []
        for i, value in enumerate(non_finite):
            user = f"odd-{i}"
            lines = [
                tied("problem_check", user, {"problem_id": tied.problem, "grade": "@", "max_grade": "@"}),
                tied("problem_check", user, {"problem_id": tied.problem, "grade": 1, "max_grade": "@"}),
                tied("play_video", user, {"id": tied.video, "currentTime": 0, "duration": "@"}),
                tied("pause_video", user, {"id": tied.video, "currentTime": "@", "duration": 60}),
            ]
            added += [line.replace('"@"', value) for line in lines]
        log = tmp_path / "events.log"
        log.write_text("\n".join(small_corpus["corpus"].lines + added) + "\n")
        assert "NaN" in log.read_text() and "Infinity" in log.read_text()
        out = tmp_path / "out"
        run_pipeline(run, [log], out, fmt=fmt)
        run_mining(run, [log], out, max_len=3, min_support=1, split_check_outcome=True)

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        written = sorted(out.iterdir())
        # 9 from pipeline, the binary state store among them; from mine, 8
        # class tables and the contrast
        assert len(written) == 18
        for path in written:
            if path.name == STORE_NAME:
                continue
            text = path.read_text(encoding="utf-8")
            if path.suffix == ".json":
                json.loads(text, parse_constant=reject)
            elif path.suffix == ".jsonl":
                for line in text.splitlines():
                    json.loads(line, parse_constant=reject)
            else:
                rows = list(csv.reader(text.splitlines()))
                assert rows, path.name
                for row in rows:
                    assert len(row) == len(rows[0]), (path.name, row)
                    assert not {field.lower() for field in row} & {"nan", "inf", "-inf"}, row

    def test_reports_count_each_course_instance_as_a_student(self, tmp_path):
        # One user plays a video in two instances of one course, five minutes
        # apart, with no session ids, under the default cohort.
        lines = [
            raw_line("play_video", user="u1", course=course, session=None, time=time,
                     event={"id": "v1", "currentTime": 0.0})
            for course, time in (("course-v1:X+CS1301+1T2021a", "2021-08-30T10:00:00.000Z"),
                                 ("course-v1:X+CS1301+2T2021", "2021-08-30T10:05:00.000Z"))
        ]
        log = tmp_path / "events.log"
        log.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        run_pipeline(RunManifest(), [log], out)
        run_mining(RunManifest(), [log], out, min_support=1)

        def rows(name):
            with open(out / name, newline="") as handle:
                return list(csv.DictReader(handle))

        assert len(rows("classifications.csv")) == 2
        enrollment = rows("enrollment.csv")
        assert [(r["cohort"], r["users"], r["user_events"], r["sessions"]) for r in enrollment] == [
            ("online:all", "2", "2", "2")
        ]
        week = next(r for r in rows("weekly.csv") if r["week_index"] == "34")
        assert (week["new_users"], week["returning_users"]) == ("2", "0")
        no_show = {r["pattern"]: r["support"] for r in rows("patterns_no_show.csv")}
        assert no_show["play_video"] == "2"

    def test_enrollment_counts_match_breakdown_and_mined_sessions(self, small_corpus, tmp_path):
        # Per cohort, enrollment users are the students the breakdown counts,
        # and sessions are the per-session sequences mining builds for them.
        run = load_run_manifest(small_corpus["run_config"])
        out = tmp_path / "out"
        result = run_pipeline(run, [small_corpus["events"]], out)
        by_cohort, _ = assign_cohorts(parse_log_files([small_corpus["events"]])[1], run.cohorts)
        with open(result.files["enrollment"], newline="") as handle:
            enrollment = {row["cohort"]: row for row in csv.DictReader(handle)}
        with open(result.files["breakdown"], newline="") as handle:
            breakdown = list(csv.DictReader(handle))
        assert set(enrollment) == {cohort.label for cohort in by_cohort}
        for cohort, students in by_cohort.items():
            row = enrollment[cohort.label]
            counted = sum(int(r["count"]) for r in breakdown if r["cohort"] == cohort.label)
            assert int(row["users"]) == counted == len(students)
            sequences, _ = encode_sequences(students, gap=run.gap)
            assert int(row["sessions"]) == len(sequences)

    def test_zero_event_input(self, tmp_path):
        empty = tmp_path / "empty.log"
        empty.write_text("")
        result = run_pipeline(RunManifest(), [empty], tmp_path / "out")
        assert result.parse_stats.lines_read == 0
        breakdown = (tmp_path / "out" / "breakdown.csv").read_text().splitlines()
        assert breakdown == ["cohort,class,count,proportion,proportion_excluding_no_show"]
        aggregates = (tmp_path / "out" / "aggregates.jsonl").read_text()
        assert aggregates == ""

    def test_jsonl_format(self, small_corpus, tmp_path):
        run = load_run_manifest(small_corpus["run_config"])
        result = run_pipeline(run, [small_corpus["events"]], tmp_path, fmt="jsonl")
        weekly = result.files["weekly"].read_text().splitlines()
        assert json.loads(weekly[0])["cohort"] == "on_campus:Fall 2021"

    def test_missing_log_raises_input_error(self, tmp_path):
        with pytest.raises(InputError, match="not found"):
            parse_log_files([tmp_path / "nope.log"])


class TestMining:
    def test_mine_per_class_and_contrast(self, small_corpus, tmp_path):
        run = load_run_manifest(small_corpus["run_config"])
        out = tmp_path / "out"
        run_pipeline(run, [small_corpus["events"]], out)
        files = run_mining(
            run,
            [small_corpus["events"]],
            out,
            class_names=["studier", "at_risk", "studier"],  # a repeat is mined once
            min_support=0.5,
            max_len=3,
        )
        assert set(files) == {"patterns_studier", "patterns_at_risk", "contrast"}
        header = (out / "patterns_studier.csv").read_text().splitlines()[0]
        assert header == "pattern,support,relative_support,class"

    def test_multi_course_students_mined_per_instance(self, small_corpus, tmp_path):
        # The same students enrolled in a second course instance: each
        # (user, course) pair is its own per-user sequence.
        second = []
        for line in small_corpus["corpus"].lines:
            record = json.loads(line)
            record["context"]["course_id"] += "-rerun"
            second.append(json.dumps(record))
        log = tmp_path / "two_courses.log"
        log.write_text("\n".join(list(small_corpus["corpus"].lines) + second) + "\n")
        run = load_run_manifest(small_corpus["run_config"])
        out = tmp_path / "out"
        run_pipeline(run, [log], out)

        with open(out / "classifications.csv", newline="") as handle:
            instances = [
                (row["user_id"], row["course_id"])
                for row in csv.DictReader(handle)
                if row["class"] == "high_engagement"
            ]
        assert len(instances) == 2 * len({user for user, _ in instances}) == 8

        run_mining(
            run, [log], out,
            class_names=["high_engagement"], min_support=1, max_len=1,
            granularity="per_user",
        )
        with open(out / "patterns_high_engagement.csv", newline="") as handle:
            top = max(csv.DictReader(handle), key=lambda row: int(row["support"]))
        assert round(int(top["support"]) / float(top["relative_support"])) == len(instances)

    def test_mine_splits_checks_at_the_threshold_pipeline_used(self, tmp_path):
        corpus = generate_corpus(default_corpus_spec(users_per_class=5, seed=7))
        log = tmp_path / "events.log"
        log.write_text("".join(line + "\n" for line in corpus.lines))
        out = tmp_path / "out"
        assert main(["pipeline", str(log), "--out", str(out), "--passing-threshold", "0.95"]) == 0
        assert main(["mine", str(log), "--out", str(out), "--split-check-outcome",
                     "--max-len", "1", "--min-support", "1"]) == 0
        with open(out / "patterns_box_checker.csv", newline="") as handle:
            supports = {row["pattern"]: row["support"] for row in csv.DictReader(handle)}
        # Split at the default 0.7 instead, check_pass would be 54 and
        # check_fail absent.
        assert (supports["check_pass"], supports["check_fail"]) == ("30", "54")

    def test_mine_splits_sessions_at_the_gap_pipeline_used(self, tmp_path):
        # No session ids, so the gap alone splits: 4 minutes, then 6.
        lines = [
            raw_line(name, session=None, time=f"2021-08-26T10:{minute:02d}:00.000Z", event=event)
            for name, minute, event in (("play_video", 0, {"id": "v1", "currentTime": 0}),
                                        ("play_video", 4, {"id": "v1", "currentTime": 9}),
                                        ("problem_show", 10, {"problem_id": "p1"}))
        ]
        log = tmp_path / "events.log"
        log.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        assert main(["pipeline", str(log), "--out", str(out), "--gap-minutes", "5"]) == 0
        assert main(["mine", str(log), "--out", str(out), "--class", "no_show",
                     "--max-len", "2", "--min-support", "1"]) == 0
        with open(out / "patterns_no_show.csv", newline="") as handle:
            rows = {row["pattern"]: row["relative_support"] for row in csv.DictReader(handle)}
        # Two sessions; under the default 30 minutes there would be one, and
        # play_video>problem_show a pattern.
        assert rows == {"play_video": "0.5", "play_video>play_video": "0.5", "problem_show": "0.5"}

    def test_unknown_class_listed(self, small_corpus, tmp_path):
        run = load_run_manifest(small_corpus["run_config"])
        with pytest.raises(InputError, match="no_show"):
            run_mining(
                run,
                [small_corpus["events"]],
                tmp_path,
                class_names=["slacker"],
            )

    def test_missing_classifications(self, small_corpus, tmp_path):
        run = load_run_manifest(small_corpus["run_config"])
        with pytest.raises(InputError, match="classifications"):
            run_mining(
                run,
                [small_corpus["events"]],
                tmp_path,
                class_names=["studier"],
            )

    def test_min_support_above_corpus_size_empty_table(self, small_corpus, tmp_path):
        run = load_run_manifest(small_corpus["run_config"])
        out = tmp_path / "out"
        run_pipeline(run, [small_corpus["events"]], out)
        files = run_mining(
            run,
            [small_corpus["events"]],
            out,
            class_names=["studier"],
            min_support=10_000,
        )
        lines = files["patterns_studier"].read_text().splitlines()
        assert lines == ["pattern,support,relative_support,class"]


# Logs, pipeline flags and mine flag sets of the golden-bytes cases. Each
# mine run reads the pipeline's classifications and state store in a
# directory of its own.
_GOLDEN_CASES = {
    "csv": ("corpus", [], [["--per-session"], ["--per-user", "--split-check-outcome", "--collapse-runs"]]),
    "jsonl": ("corpus", ["--format", "jsonl"], []),
    "exclude-no-show": ("corpus", ["--exclude-no-show"], []),
    "ties": ("ties", [], [["--per-session"], ["--per-user", "--split-check-outcome", "--collapse-runs"]]),
    "empty": ("empty", [], [["--per-session"]]),
}

# sha256 of every file that pipeline and mine write for each case above.
_GOLDEN_DIGESTS = {
    "csv": {
        "mine-0/contrast.csv": "1d04b971f825913d610e54b52a261dcccb5a86e46b5302d39a4bd13accf5ac9d",
        "mine-0/patterns_at_risk.csv": "02a715696cceca6c1e62ce04397a56847ddcbe79fe6b5aef728766ba9ceb7a57",
        "mine-0/patterns_box_checker.csv": "ee311906fbc1ca6d3133aa28c3a8067aa58da2abc42c7e8b6a5b84fb2d69711f",
        "mine-0/patterns_high_engagement.csv": "ad0012c86cfc0d35802683f036ddcd13bdc4442785b2cb558c342219024dfc15",
        "mine-0/patterns_no_show.csv": "d166e256b479f9a47929af4091a82ac4b627196a1a8302528093477ff64c93db",
        "mine-0/patterns_normal_engagement.csv": "1888e76618d7eae4a61b1c564e4f14efe455113ed1f0f6e18c3a7111c134b6e5",
        "mine-0/patterns_potentially_at_risk.csv": "1556da1440de8346b145093962a06f170a77af00d9cae1a429e41a0178ba1e32",
        "mine-0/patterns_studier.csv": "753a6891c487395a3db0abf9d1e1b6fed2ab94630ee735efbfd6dc549e6187ba",
        "mine-0/patterns_voyeur.csv": "2e8c3bed6b84a0d4144a64a2eb820d48cff635e8e1930151be4099c3ca9673e1",
        "mine-1/contrast.csv": "60f6625b7c2f4872c0c350b825a9b3db2bf717665ccac842d1a952f425874d76",
        "mine-1/patterns_at_risk.csv": "4d5bfd75963ccc21a0eb13ab7c258d25188bf8df8742b8ed6d9a0b33f103ba34",
        "mine-1/patterns_box_checker.csv": "dbd919b5ce0cc4bf36844bae7df27b662a01c5b7e1d19bf3f9b1c11d881ffb09",
        "mine-1/patterns_high_engagement.csv": "4ce252a929dccf775f6a9b3acbb5f09b9f4c2f8c6163172a9e0b0be1a089f53a",
        "mine-1/patterns_no_show.csv": "089371c98ea030f847682aa769325d827b55a1896e30b5bba369dda63f213c84",
        "mine-1/patterns_normal_engagement.csv": "41cb676278bdad020517fed104a38ff521762aad831cd64f755eb65b0227858f",
        "mine-1/patterns_potentially_at_risk.csv": "002e878e308fa688afaf22c878793d55f1770ca4d036bfa0d85e89b965e25f21",
        "mine-1/patterns_studier.csv": "67c4e18f9406276599933f5b5123744f006da26af2b2364c9c3ed02a5e3305ac",
        "mine-1/patterns_voyeur.csv": "6bcf272946973036a4e5ff7f2a56e3ee34f5cc84a56b53257eedeb02b4362918",
        "out/aggregates.jsonl": "4629bac719ce4ab3a51fdcba44d015fabf47f2013e67c6aa27b22cc04e4cc8d0",
        "out/breakdown.csv": "097bad4dcf22c1a541ce644eecb806ce643ccf6c1ef93cd634aced3b7e526294",
        "out/classifications.csv": "829fc63df67fe36a6b22845e85ce52c615c6b27f2a414d621e0b0acc0fa7a12a",
        "out/enrollment.csv": "330059f206ba5edc8e41099ca616037a233e15d753485862b80568c50233e229",
        "out/run_meta.json": "37dbcc65be3e1d2a58d1d4830099dabc356c05944612927e56da9766fae6b66a",
        "out/score_comparison.csv": "5b3bcc21af2911102734922c5b39b278bc0df62937a18e6a328de46964506548",
        "out/scorer_distribution.csv": "b693a9fb4b8fbde53fda365bbe8ab5cac482d3d6deaac134a9f1028d617b7f8b",
        "out/states.bin": "18ac68b6513f400854c10d535a650e9bcfe263df7afd74ad14d9757a0d690a38",
        "out/weekly.csv": "fe17a55614ebaf735f2929676fa486b9058185ad6b64592703a887cade62319c",
    },
    "empty": {
        "mine-0/contrast.csv": "3265772d5b465c81995e7b34c8bf4de3c452cf2363096bea69ce17c6a3321ede",
        "mine-0/patterns_at_risk.csv": "3265772d5b465c81995e7b34c8bf4de3c452cf2363096bea69ce17c6a3321ede",
        "mine-0/patterns_box_checker.csv": "3265772d5b465c81995e7b34c8bf4de3c452cf2363096bea69ce17c6a3321ede",
        "mine-0/patterns_high_engagement.csv": "3265772d5b465c81995e7b34c8bf4de3c452cf2363096bea69ce17c6a3321ede",
        "mine-0/patterns_no_show.csv": "3265772d5b465c81995e7b34c8bf4de3c452cf2363096bea69ce17c6a3321ede",
        "mine-0/patterns_normal_engagement.csv": "3265772d5b465c81995e7b34c8bf4de3c452cf2363096bea69ce17c6a3321ede",
        "mine-0/patterns_potentially_at_risk.csv": "3265772d5b465c81995e7b34c8bf4de3c452cf2363096bea69ce17c6a3321ede",
        "mine-0/patterns_studier.csv": "3265772d5b465c81995e7b34c8bf4de3c452cf2363096bea69ce17c6a3321ede",
        "mine-0/patterns_voyeur.csv": "3265772d5b465c81995e7b34c8bf4de3c452cf2363096bea69ce17c6a3321ede",
        "out/aggregates.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "out/breakdown.csv": "b743b6f76affcc11b25879c2bfddb68ccaf8dc2432ca83953af7793e1869ce7e",
        "out/classifications.csv": "87d0652ed9cb0956f19b9a85e6e50959034bda1d5d3a1441fe8ff0af3853d70c",
        "out/enrollment.csv": "91150334b9c7e54bf12e912a7e4ad1e1706d28b7456860159cc04f5987fad110",
        "out/run_meta.json": "e60a5af09f141c3d6e03f1c68a20f5c696bf52fbb1578f26a87e577596b08d13",
        "out/score_comparison.csv": "b747a0c2481334cbcaa163bd95fc9117f23b65008aa779be3aca2d6d08f24fa0",
        "out/scorer_distribution.csv": "b747a0c2481334cbcaa163bd95fc9117f23b65008aa779be3aca2d6d08f24fa0",
        "out/states.bin": "8f1fe66dda31c0df0f06f418f57ace4ab9e7040fb28ae445879792351f6edaa0",
        "out/weekly.csv": "06e1d48085c26294f4b008cad2e25b6cefbecbc32ee9cfff57b42dfa883503ea",
    },
    "exclude-no-show": {
        "out/aggregates.jsonl": "4629bac719ce4ab3a51fdcba44d015fabf47f2013e67c6aa27b22cc04e4cc8d0",
        "out/breakdown.csv": "923ce8f61887921b409745fa1f9e96bf2827a0532941c71997f05fe8dd673b69",
        "out/classifications.csv": "829fc63df67fe36a6b22845e85ce52c615c6b27f2a414d621e0b0acc0fa7a12a",
        "out/enrollment.csv": "330059f206ba5edc8e41099ca616037a233e15d753485862b80568c50233e229",
        "out/run_meta.json": "4481b0f234216756b3e58db7149114475dcfd1b7d64e4dd7848e59d99ec32b71",
        "out/score_comparison.csv": "5b3bcc21af2911102734922c5b39b278bc0df62937a18e6a328de46964506548",
        "out/scorer_distribution.csv": "b693a9fb4b8fbde53fda365bbe8ab5cac482d3d6deaac134a9f1028d617b7f8b",
        "out/states.bin": "18ac68b6513f400854c10d535a650e9bcfe263df7afd74ad14d9757a0d690a38",
        "out/weekly.csv": "fe17a55614ebaf735f2929676fa486b9058185ad6b64592703a887cade62319c",
    },
    "jsonl": {
        "out/aggregates.jsonl": "4629bac719ce4ab3a51fdcba44d015fabf47f2013e67c6aa27b22cc04e4cc8d0",
        "out/breakdown.jsonl": "6fef7f547d57b6b3d3d8771f9aeb2c6fa5f026208ad1ce420669700733c959ff",
        "out/classifications.csv": "829fc63df67fe36a6b22845e85ce52c615c6b27f2a414d621e0b0acc0fa7a12a",
        "out/enrollment.jsonl": "885b832c1ab7fcba89707cfdb738c0bcb07b3e2ae7fd85471e9ac31cde543b83",
        "out/run_meta.json": "852c0eaf64fd206d07a4e517c3bfe940e945f632bf4688d48a8bfa6f2dcbf895",
        "out/score_comparison.jsonl": "d6402267c155e0a37c57202e7d1d0d5d8d02d5ad5a03824de7ee4f04de75f6fa",
        "out/scorer_distribution.jsonl": "17d60d7eed38c1302c72ac5a810475ed5584676ca25190ad20579fb4cfefecae",
        "out/states.bin": "18ac68b6513f400854c10d535a650e9bcfe263df7afd74ad14d9757a0d690a38",
        "out/weekly.jsonl": "8ad9b1bf484939b61da66b9a80fb7de020154c96cc13d01219b8e0a44da6bbe5",
    },
    "ties": {
        "mine-0/contrast.csv": "1647b3884e981cb2ba33f14d2eeb5101d1ac7c4a8c1a16f76a04d6f13492b76d",
        "mine-0/patterns_at_risk.csv": "02a715696cceca6c1e62ce04397a56847ddcbe79fe6b5aef728766ba9ceb7a57",
        "mine-0/patterns_box_checker.csv": "ee311906fbc1ca6d3133aa28c3a8067aa58da2abc42c7e8b6a5b84fb2d69711f",
        "mine-0/patterns_high_engagement.csv": "ad0012c86cfc0d35802683f036ddcd13bdc4442785b2cb558c342219024dfc15",
        "mine-0/patterns_no_show.csv": "5be4ba95557290bdd1e1cf03f627bbd687a75397aa13007286b8243061e02a3f",
        "mine-0/patterns_normal_engagement.csv": "1888e76618d7eae4a61b1c564e4f14efe455113ed1f0f6e18c3a7111c134b6e5",
        "mine-0/patterns_potentially_at_risk.csv": "1556da1440de8346b145093962a06f170a77af00d9cae1a429e41a0178ba1e32",
        "mine-0/patterns_studier.csv": "753a6891c487395a3db0abf9d1e1b6fed2ab94630ee735efbfd6dc549e6187ba",
        "mine-0/patterns_voyeur.csv": "2e8c3bed6b84a0d4144a64a2eb820d48cff635e8e1930151be4099c3ca9673e1",
        "mine-1/contrast.csv": "8dafcb6a141c095c7a77caa2108d9dd57e6667cdac036f3e1baa3e504500021b",
        "mine-1/patterns_at_risk.csv": "4d5bfd75963ccc21a0eb13ab7c258d25188bf8df8742b8ed6d9a0b33f103ba34",
        "mine-1/patterns_box_checker.csv": "dbd919b5ce0cc4bf36844bae7df27b662a01c5b7e1d19bf3f9b1c11d881ffb09",
        "mine-1/patterns_high_engagement.csv": "4ce252a929dccf775f6a9b3acbb5f09b9f4c2f8c6163172a9e0b0be1a089f53a",
        "mine-1/patterns_no_show.csv": "eda8fbdc26b2abc963eab0121688862631f25ce4da866c64820b28b75db97667",
        "mine-1/patterns_normal_engagement.csv": "41cb676278bdad020517fed104a38ff521762aad831cd64f755eb65b0227858f",
        "mine-1/patterns_potentially_at_risk.csv": "002e878e308fa688afaf22c878793d55f1770ca4d036bfa0d85e89b965e25f21",
        "mine-1/patterns_studier.csv": "67c4e18f9406276599933f5b5123744f006da26af2b2364c9c3ed02a5e3305ac",
        "mine-1/patterns_voyeur.csv": "6bcf272946973036a4e5ff7f2a56e3ee34f5cc84a56b53257eedeb02b4362918",
        "out/aggregates.jsonl": "5f5fb314d205a607add1d1a5bbf06de9292335a1d19952fb6307c3a05ca9f253",
        "out/breakdown.csv": "180f848cafe20de87f50ed49c7cd012afb99499c772370727cce6de05dcea828",
        "out/classifications.csv": "74a6b50e7b4a5149c6011577cfa95e478234d01384c926421fe6e68d71ef97c1",
        "out/enrollment.csv": "5ccc11713fd85c6af791b7db23ea3c364e7944e31b118630713ba51507e8eddc",
        "out/run_meta.json": "a28de94d4c81697018c02863523bef4d9753c0719df6ca2fc86c978b644ec3fc",
        "out/score_comparison.csv": "5b3bcc21af2911102734922c5b39b278bc0df62937a18e6a328de46964506548",
        "out/scorer_distribution.csv": "b693a9fb4b8fbde53fda365bbe8ab5cac482d3d6deaac134a9f1028d617b7f8b",
        "out/states.bin": "d04d53c2f569494ca99d38038ecb3c7539b7e6fc4f0578d660eedf803d6aa357",
        "out/weekly.csv": "855f54c53dd0d38f821404afdc1b6c4ee1bfecc084611896a08dde4e37dcc190",
    },
}


class TestGoldenBytes:
    @pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
    def test_outputs_match_pinned_digests(self, small_corpus, tmp_path, monkeypatch, case):
        log_kind, pipeline_flags, mine_runs = _GOLDEN_CASES[case]
        lines = [] if log_kind == "empty" else list(small_corpus["corpus"].lines)
        if log_kind == "ties":
            lines += [line for pair in tie_pairs(small_corpus) for line in pair]
        # Relative paths, because run_meta.json names each log as given.
        monkeypatch.chdir(tmp_path)
        Path("events.log").write_text("".join(line + "\n" for line in lines))
        config = str(small_corpus["run_config"])
        args = ["events.log", "--run-config", config]
        assert main(["pipeline", *args, "--out", "out", *pipeline_flags]) == 0
        written = [path for path in Path("out").iterdir()]
        for i, mine_flags in enumerate(mine_runs):
            out = Path(f"mine-{i}")
            out.mkdir()
            for name in ("classifications.csv", STORE_NAME):
                shutil.copy(Path("out") / name, out)
            assert main(["mine", *args, "--out", str(out), "--max-len", "4", *mine_flags]) == 0
            written += [path for path in out.iterdir()
                        if path.name not in ("classifications.csv", STORE_NAME)]
        digests = {
            path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest() for path in written
        }
        assert digests == _GOLDEN_DIGESTS[case]


class TestCli:
    def test_mine_finds_a_pattern_longer_than_the_recursion_limit(self, tmp_path):
        # One student's 1,500 problem shows: one per-user sequence, whose
        # longest pattern outgrows the interpreter's default recursion limit.
        log = tmp_path / "events.log"
        log.write_text("".join(
            raw_line("problem_show", time=f"2021-08-26T00:{i // 60:02d}:{i % 60:02d}.000Z",
                     event={"problem_id": "p1"}) + "\n"
            for i in range(1500)
        ))
        out = tmp_path / "out"
        assert main(["pipeline", str(log), "--out", str(out)]) == 0
        assert main(["mine", str(log), "--out", str(out), "--per-user", "--min-support", "1",
                     "--max-len", "2000", "--class", "no_show"]) == 0
        lines = (out / "patterns_no_show.csv").read_text().splitlines()
        assert len(lines) == 1501
        assert lines[-1] == ">".join(["problem_show"] * 1500) + ",1,1.0,no_show"

    def test_validate(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        log.write_text("\n".join(raw_line(user=f"u{i}") for i in range(100)) + "\n")
        assert main(["validate", str(log)]) == 0
        out = capsys.readouterr().out
        assert "parsed=100" in out
        assert "retained=100" in out
        assert "TOTAL" in out

    def test_validate_empty_file(self, tmp_path, capsys):
        log = tmp_path / "empty.log"
        log.write_text("")
        assert main(["validate", str(log)]) == 0
        assert "lines_read=0" in capsys.readouterr().out

    def test_validate_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.log"
        assert main(["validate", str(missing)]) == 2
        assert "absent.log" in capsys.readouterr().err

    def test_validate_missing_second_file_prints_no_tally(self, tmp_path, capsys):
        good = tmp_path / "good.log"
        good.write_text(raw_line() + "\n")
        assert main(["validate", str(good), str(tmp_path / "absent.log")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "absent.log" in captured.err

    def test_validate_counts_malformed_without_failing(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        log.write_text(raw_line() + "\n{broken\n")
        assert main(["validate", str(log)]) == 0
        assert "malformed=1" in capsys.readouterr().out

    def test_validate_deep_nesting_counted_malformed(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        log.write_text(raw_line() + "\n" + "[" * 100_000 + "\n")
        assert main(["validate", str(log)]) == 0
        out = capsys.readouterr().out
        assert "lines_read=2 " in out
        assert "retained=1 malformed=1 " in out

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline"])  # missing required --out and logs
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "flag",
        [
            "--max-len=0",
            "--max-len=-2",
            "--min-support=nan",
            "--min-support=inf",
            "--min-support=-inf",
            "--min-support=-1",
            "--min-support=0",
        ],
    )
    def test_mine_bad_arguments_exit_one(self, small_corpus, tmp_path, capsys, flag):
        out = tmp_path / "out"
        out.mkdir()
        (out / "classifications.csv").write_text("user_id,course_id,cohort,class\n")
        with pytest.raises(SystemExit) as exc:
            main(["mine", str(small_corpus["events"]), "--out", str(out), flag])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert flag.split("=")[0] in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["classifications.csv"]

    @pytest.mark.parametrize("command", ["pipeline", "mine"])
    @pytest.mark.parametrize(
        "flag",
        [
            "--gap-minutes=nan",
            "--gap-minutes=inf",
            "--gap-minutes=1e308",
            "--gap-minutes=-5",
            "--gap-minutes=0",
            "--gap-minutes=1e-300",
            "--gap-minutes=1.6e11",
            "--passing-threshold=5",
            "--passing-threshold=-1",
            "--passing-threshold=0",
            "--passing-threshold=nan",
            "--workers=2",
        ],
    )
    def test_bad_gap_threshold_or_workers_exit_one(self, tmp_path, capsys, command, flag):
        log = tmp_path / "events.log"
        log.write_text(raw_line() + "\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "classifications.csv").write_text("user_id,course_id,cohort,class\n")
        with pytest.raises(SystemExit) as exc:
            main([command, str(log), "--out", str(out), flag])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert flag.split("=")[0] in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["classifications.csv"]

    def test_validate_workers_flag_is_usage_error(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        log.write_text(raw_line() + "\n")
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(log), "--workers", "2"])
        assert exc.value.code == 1
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("gap", ["NaN", "1e308", "1.6e11"])
    def test_pipeline_unusable_config_gap_exits_two(self, tmp_path, capsys, gap):
        log = tmp_path / "events.log"
        log.write_text(raw_line() + "\n")
        config = tmp_path / "run.json"
        config.write_text(f'{{"gap_minutes": {gap}}}')
        out = tmp_path / "out"
        code = main(["pipeline", str(log), "--run-config", str(config), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "gap_minutes" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, key",
        [
            ('{"cohorts": [{"pattern": 5}]}', "pattern"),
            ('{"cohorts": 5}', "cohorts"),
            ('{"cohorts": [{"pattern": ".*", "term": null}]}', "term"),
            ('{"anchors": ["x"]}', "anchors"),
            ('{"manifest": 5}', "manifest"),
            ('{"rules": {"no_show_total": "3"}}', "no_show_total"),
            ('{"rules": {"ratio_threshold": NaN}}', "ratio_threshold"),
            ('{"rules": {"order_min": true}}', "order_min"),
        ],
    )
    def test_pipeline_config_of_wrong_type_exits_two(self, tmp_path, capsys, config, key):
        log = tmp_path / "events.log"
        log.write_text(raw_line() + "\n")
        path = tmp_path / "run.json"
        path.write_text(config)
        out = tmp_path / "out"
        code = main(["pipeline", str(log), "--run-config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and key in err[0], err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, text",
        [
            ("pipeline", "--manifest", "[" * 200_000),
            ("pipeline", "--run-config", "[" * 200_000),
            ("mine", "--run-config", "[" * 200_000),
            ("synth", "--spec", "[" * 200_000),
            ("pipeline", "--run-config", '{"cohorts": [{"pattern": ".*", "term": "x\\ud800"}]}'),
        ],
        ids=["manifest-nesting", "pipeline-config-nesting", "mine-config-nesting",
             "synth-spec-nesting", "config-lone-surrogate"],
    )
    def test_unusable_config_json_exits_two(self, tmp_path, capsys, command, flag, text):
        log = tmp_path / "events.log"
        log.write_text(raw_line() + "\n")
        config = tmp_path / "config.json"
        config.write_text(text)
        out = tmp_path / "out"
        argv = [command, flag, str(config), "--out", str(out)]
        code = main(argv if command == "synth" else argv + [str(log)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"edxmine: error: {config}: "), err
        assert not out.exists()

    def test_gap_and_threshold_flags_override_config(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "pipeline", str(small_corpus["events"]),
                "--run-config", str(small_corpus["run_config"]), "--out", str(out),
                "--gap-minutes", "45", "--passing-threshold", "0.5",
            ]
        )
        assert code == 0
        config = json.loads((out / "run_meta.json").read_text())["config"]
        assert config["gap_minutes"] == 45.0
        assert config["passing_threshold"] == 0.5

    def test_manifest_flag_runs_as_config_manifest(self, small_corpus, tmp_path):
        """``pipeline --manifest M`` alone, and over a run config naming no
        manifest or another one, writes what a run config naming M writes."""
        logs = [str(small_corpus["events"])]
        manifest = str(small_corpus["manifest"])
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"course_id": "x", "submodules": []}))
        configs = {}
        for name, obj in (("named", {"manifest": manifest}), ("none", {}),
                          ("other", {"manifest": str(other)})):
            configs[name] = tmp_path / f"{name}.json"
            configs[name].write_text(json.dumps(obj))
        runs = {
            "config": ["--run-config", str(configs["named"])],
            "flag": ["--manifest", manifest],
            "flag_over_none": ["--run-config", str(configs["none"]), "--manifest", manifest],
            "flag_over_other": ["--run-config", str(configs["other"]), "--manifest", manifest],
        }
        outputs = {}
        for name, args in runs.items():
            out = tmp_path / name
            assert main(["pipeline", *logs, *args, "--out", str(out)]) == 0
            outputs[name] = [(out / f).read_bytes() for f in ("aggregates.jsonl", "classifications.csv")]
        aggregates, classifications = outputs.pop("config")
        assert b"order_fraction" in aggregates
        assert b",studier" in classifications
        for name, files in outputs.items():
            assert files == [aggregates, classifications], name

    def test_missing_manifest_flag_exits_two(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "pipeline", str(small_corpus["events"]),
                "--run-config", str(small_corpus["run_config"]), "--out", str(out),
                "--manifest", str(tmp_path / "nonexistent.json"),
            ]
        )
        assert code == 2
        assert "nonexistent.json" in capsys.readouterr().err
        assert not out.exists()

    def test_mine_has_no_manifest_flag(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "classifications.csv").write_text("user_id,course_id,cohort,class\n")
        log = str(small_corpus["events"])
        with pytest.raises(SystemExit) as exc:
            main(["mine", log, "--out", str(out), "--manifest", str(small_corpus["manifest"])])
        assert exc.value.code == 1
        assert "--manifest" in capsys.readouterr().err
        # The run config's manifest is still checked.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"manifest": "nonexistent.json"}))
        assert main(["mine", log, "--out", str(out), "--run-config", str(config)]) == 2
        assert "nonexistent.json" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["classifications.csv"]

    def test_cli_import_leaves_numpy_out(self):
        src = str(Path(edxmine.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        code = "import sys, edxmine.cli; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_traced_run_measures_every_layer(self, small_corpus, tmp_path):
        """The benchmark's traced round (perfbench/child.py, which wraps the
        program's functions by name) finds every function it wraps, and its
        traces give every per-layer metric. Each command runs in its own
        interpreter, because the tracer patches modules."""
        root = Path(__file__).resolve().parents[1]
        bench = root / "perfbench"
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))
        log, config = str(small_corpus["events"]), str(small_corpus["run_config"])
        out = str(tmp_path / "out")
        report = tmp_path / "report.json"
        traces = []
        for args in (
            ["validate", log],
            ["pipeline", log, "--run-config", config, "--out", out],
            ["mine", log, "--run-config", config, "--out", out],
        ):
            proc = subprocess.run(
                [sys.executable, str(bench / "child.py"), "cli", str(report), "trace", *args],
                cwd=tmp_path, env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            result = json.loads(report.read_text())
            assert result["rc"] == 0, args
            traces.append(result["trace"])

        spec = importlib.util.spec_from_file_location("perfbench_spans", bench / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        values, absent = spans.round_metrics(traces)
        assert absent == set()
        layers = [name for name, _, _ in spans.LAYER_METRICS
                  if not name.startswith(("setup.", "cli."))]
        assert [name for name in layers if name not in values] == []
        # validate and pipeline parse the log; mine reads the state store.
        assert values["events.retained"] == len(small_corpus["corpus"].lines) * 2
        assert traces[2]["counters"].get("events.lines_read", 0) == 0

    def test_pipeline_bad_config_writes_nothing(self, small_corpus, tmp_path, capsys):
        bad = tmp_path / "run.json"
        bad.write_text(json.dumps({"nonsense": True}))
        out = tmp_path / "out"
        code = main(
            [
                "pipeline", str(small_corpus["events"]),
                "--run-config", str(bad), "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_pipeline_missing_log_writes_nothing(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "pipeline", str(tmp_path / "absent.log"),
                "--run-config", str(small_corpus["run_config"]), "--out", str(out),
            ]
        )
        assert code == 2
        assert not out.exists()

    def test_non_finite_grade_writes_strict_json(self, tmp_path, capsys):
        log = tmp_path / "events.log"
        log.write_text(
            raw_line(
                name="problem_check",
                event={"problem_id": "p1", "grade": float("inf"), "max_grade": float("inf")},
            )
            + "\n"
        )
        assert "Infinity" in log.read_text()
        out = tmp_path / "out"
        assert main(["pipeline", str(log), "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        lines = (out / "aggregates.jsonl").read_text().splitlines()
        assert len(lines) == 1
        agg = json.loads(lines[0], parse_constant=reject)
        assert agg["n_problems"] == 1
        assert agg["total_attempts"] == 1
        assert agg["mean_score_r"] == 4.0  # an unscored final never passes
        assert "mean_first_score" not in agg
        assert "mean_final_score" not in agg

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_unencodable_user_id_counted_malformed(self, tmp_path, capsys, fmt):
        log = tmp_path / "events.log"
        log.write_text(raw_line(user="u\ud800") + "\n")
        assert "u\\ud800" in log.read_text()
        out = tmp_path / "out"
        assert main(["pipeline", str(log), "--out", str(out), "--format", fmt]) == 0
        stats = json.loads((out / "run_meta.json").read_text())["parse_stats"]
        assert (stats["lines_read"], stats["malformed"], stats["retained"]) == (1, 1, 0)
        assert (out / "classifications.csv").read_text() == "user_id,course_id,cohort,class\n"
        assert main(["mine", str(log), "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "pipeline", "mine"])
    def test_truncated_gzip_exits_two(self, small_corpus, tmp_path, capsys, command):
        """validate and pipeline decode the log and name it; mine only
        checksums it, and exits 2 naming the state store it lacks."""
        gz = tmp_path / "events.log.gz"
        data = gzip.compress(small_corpus["events"].read_bytes())
        gz.write_bytes(data[: len(data) // 2])
        out = tmp_path / "out"
        argv = [command, str(gz)]
        if command != "validate":
            argv += ["--out", str(out)]
        if command == "mine":
            out.mkdir()
            (out / "classifications.csv").write_text("user_id,course_id,cohort,class\n")
        before = sorted(out.glob("*"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        named = out / STORE_NAME if command == "mine" else gz
        assert captured.err.startswith(f"edxmine: error: {named}: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err
        assert sorted(out.glob("*")) == before
        assert out.exists() == (command == "mine")

    def test_pipeline_and_mine_commands(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            [
                "pipeline",
                str(small_corpus["events"]),
                "--run-config", str(small_corpus["run_config"]),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "classifications.csv").exists()
        code = main(
            [
                "mine",
                str(small_corpus["events"]),
                "--run-config", str(small_corpus["run_config"]),
                "--out", str(out),
                "--class", "studier",
                "--min-support", "0.5",
            ]
        )
        assert code == 0
        assert (out / "patterns_studier.csv").exists()

    def test_mine_unknown_class_exit_two(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "out"
        main(
            [
                "pipeline", str(small_corpus["events"]),
                "--run-config", str(small_corpus["run_config"]),
                "--out", str(out),
            ]
        )
        code = main(
            [
                "mine", str(small_corpus["events"]),
                "--run-config", str(small_corpus["run_config"]),
                "--out", str(out),
                "--class", "slacker",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "slacker" in err
        assert "at_risk" in err  # valid names listed

    @pytest.mark.parametrize(
        "content",
        [b"user_id,course_id,cohort\nu1,c1,online:all\n", b"user_id,course_id,cohort,class\n\xff,c1,x,at_risk\n"],
        ids=["no-class-column", "not-utf-8"],
    )
    def test_mine_damaged_classifications_exits_two(self, small_corpus, tmp_path, capsys, content):
        out = tmp_path / "out"
        out.mkdir()
        (out / "classifications.csv").write_bytes(content)
        code = main(["mine", str(small_corpus["events"]), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"edxmine: error: {out / 'classifications.csv'}: "), err
        assert sorted(p.name for p in out.iterdir()) == ["classifications.csv"]

    @pytest.mark.parametrize(
        "damage",
        [
            "{}", "not json", "seed", "weeks", "term_start", "weeks=0", "personas=[]",
            'term_start="9999-12-01"', "weeks=1000000",
        ],
    )
    def test_synth_unusable_spec_exits_two(self, tmp_path, capsys, damage):
        doc = corpus_spec_to_dict(default_corpus_spec(users_per_class=1, seed=55))
        key, _, value = damage.partition("=")
        if value:
            doc[key] = json.loads(value)
        else:
            doc.pop(key, None)
        spec_path = tmp_path / "corpus.json"
        spec_path.write_text(damage if damage in ("{}", "not json") else json.dumps(doc))
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"edxmine: error: {spec_path}: "), err
        if key in ("seed", "weeks", "term_start"):
            assert key in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("watch_before_problems", "false"),
            ("n_users", 2.9),
            ("n_users", "3"),
            ("seed_offset", True),
            ("video_watch_range", "ab"),
            ("videos_played_range", [1.5, 3]),
            ("first_score_range", [0.5]),
            ("weeks", 2.9),
        ],
    )
    def test_synth_mistyped_value_exits_two(self, tmp_path, capsys, key, value):
        doc = corpus_spec_to_dict(default_corpus_spec(users_per_class=1, seed=55))
        (doc if key == "weeks" else doc["personas"][0])[key] = value
        spec_path = tmp_path / "corpus.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"edxmine: error: {spec_path}: "), err
        assert key in err[0]
        assert not out.exists()

    def test_synth_command(self, tmp_path, capsys):
        spec = default_corpus_spec(users_per_class=2, seed=55)
        spec_path = tmp_path / "corpus.json"
        spec_path.write_text(json.dumps(corpus_spec_to_dict(spec)))
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
        assert (out / "events.log").exists()
        assert (out / "labels.csv").exists()

    def test_synth_bad_spec_exit_two(self, tmp_path, capsys):
        spec = default_corpus_spec(users_per_class=2, seed=55)
        doc = corpus_spec_to_dict(spec)
        doc["personas"][3]["video_watch_range"] = [0.5, 0.9]
        spec_path = tmp_path / "corpus.json"
        spec_path.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2


def _one_section(doc: dict) -> dict:
    """A corpus spec dict whose manifest keeps only its first section."""
    submodule = doc["manifest"]["submodules"][0]
    chapter = submodule["chapters"][0]
    section = chapter["sections"][0]
    doc["manifest"]["submodules"] = [dict(submodule, chapters=[dict(chapter, sections=[section])])]
    return doc


def _blocks_manifest(block) -> str:
    return json.dumps({"submodules": [{"chapters": [{"sections": [{"blocks": [block]}]}]}]})


# Each case: the file's text, and a fragment its one error line must hold.
_BAD_MANIFESTS = {
    "not-json": ("{", "invalid JSON"),
    "not-an-object": ("[]", "manifest must be a JSON object"),
    "course-id": ('{"course_id": 5}', "course_id must be a string"),
    "course-start": ('{"course_start": "someday"}', "bad course_start"),
    "submodules-not-a-list": ('{"submodules": 5}', "submodules must be a list"),
    "submodule": ('{"submodules": [5]}', "submodules[0]: must be an object"),
    "chapter": ('{"submodules": [{"chapters": [5]}]}', "chapters[0]: must be an object"),
    "section": ('{"submodules": [{"chapters": [{"sections": [5]}]}]}',
                "sections[0]: must be an object"),
    "block": (_blocks_manifest(5), "blocks[0]: must be an object"),
    "block-id": (_blocks_manifest({"block_id": "", "kind": "video"}),
                 "block_id must be a non-empty string"),
    "duplicate-block": (
        json.dumps({"submodules": [{"chapters": [{"sections": [{"blocks": [
            {"block_id": "b", "kind": "video"}, {"block_id": "b", "kind": "text"}]}]}]}]}),
        "duplicate block_id",
    ),
}
_BAD_RUN_CONFIGS = {
    "not-an-object": ("[]", "run config must be a JSON object"),
    "cohort-not-an-object": ('{"cohorts": [5]}', "cohorts[0] must be an object"),
    "cohort-without-pattern": ('{"cohorts": [{}]}', "cohorts[0] bad pattern"),
    "cohort-bad-regex": ('{"cohorts": [{"pattern": "("}]}', "cohorts[0] bad pattern"),
    "cohort-modality": ('{"cohorts": [{"pattern": ".*", "modality": "hybrid"}]}',
                        "cohorts[0] modality must be on_campus or online"),
}


def _spec_text(damage) -> str:
    doc = corpus_spec_to_dict(default_corpus_spec(users_per_class=1, seed=55))
    return json.dumps(damage(doc))


def _ambiguous_studier(doc: dict) -> dict:
    """A corpus spec dict whose studier persona watches too little for its rule."""
    doc["personas"][3]["video_watch_range"] = [0.5, 0.9]
    return doc


_BAD_SPECS = {
    "not-an-object": ("[]", "corpus spec must be a JSON object"),
    "persona-not-an-object": (_spec_text(lambda doc: dict(doc, personas=[5])),
                              "a persona must be an object"),
    "manifest-too-small": (_spec_text(_one_section),
                           "personas[0]: manifest too small for persona no_show: "),
    "ambiguous-persona": (_spec_text(_ambiguous_studier),
                          "personas[3]: ranges do not clear the studier rule with margin 0.05"),
}


class TestInputErrors:
    """Every input-error branch exits 2 through ``main`` with one error line
    and writes nothing."""

    @staticmethod
    def _error_line(capsys) -> str:
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("edxmine: error: "), err
        return err[0]

    @staticmethod
    def _log(tmp_path) -> str:
        log = tmp_path / "events.log"
        log.write_text(raw_line() + "\n")
        return str(log)

    @pytest.mark.parametrize("case", sorted(_BAD_MANIFESTS))
    def test_bad_manifest_names_its_file_once(self, tmp_path, capsys, case):
        text, fragment = _BAD_MANIFESTS[case]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        out = tmp_path / "out"
        argv = ["pipeline", self._log(tmp_path), "--manifest", str(manifest), "--out", str(out)]
        assert main(argv) == 2
        line = self._error_line(capsys)
        assert line.startswith(f"edxmine: error: {manifest}: ") and fragment in line, line
        assert line.count(str(manifest)) == 1, line
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(_BAD_RUN_CONFIGS))
    def test_bad_run_config(self, tmp_path, capsys, case):
        text, fragment = _BAD_RUN_CONFIGS[case]
        config = tmp_path / "run.json"
        config.write_text(text)
        out = tmp_path / "out"
        argv = ["pipeline", self._log(tmp_path), "--run-config", str(config), "--out", str(out)]
        assert main(argv) == 2
        line = self._error_line(capsys)
        assert line.startswith(f"edxmine: error: {config}: ") and fragment in line, line
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(_BAD_SPECS))
    def test_bad_synth_spec(self, tmp_path, capsys, case):
        text, fragment = _BAD_SPECS[case]
        spec_path = tmp_path / "corpus.json"
        spec_path.write_text(text)
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        line = self._error_line(capsys)
        assert line.startswith(f"edxmine: error: {spec_path}: ") and fragment in line, line
        assert not out.exists()

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("persona", "pacnig", "compressed"),
            ("spec", "seeds", 3),
            ("spec", "manifest_path", "manifest.json"),
        ],
        ids=["persona-key-typo", "unknown-spec-key", "two-manifests"],
    )
    def test_synth_spec_unknown_key_or_two_manifests(self, tmp_path, capsys, where, key, value):
        spec = default_corpus_spec(users_per_class=1, seed=55)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_to_dict(spec.manifest)))
        doc = corpus_spec_to_dict(spec)
        (doc["personas"][0] if where == "persona" else doc)[key] = value
        spec_path = tmp_path / "corpus.json"
        spec_path.write_text(json.dumps(doc))
        out = tmp_path / "synth"
        assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
        line = self._error_line(capsys)
        assert line.startswith(f"edxmine: error: {spec_path}: ") and key in line, line
        assert not out.exists()
