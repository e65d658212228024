"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
Real-course magnitudes (enrollment counts, category proportions, score gaps)
come from private datasets and are NOT targets here; the suite instead
validates exact rule tables, oracle agreement, determinism, and the
qualitative table shapes on synthetic corpora.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from csv import DictReader

import pytest

from edxmine.classify import OrdinalClass, classify
from edxmine.engagement import (
    StudentAggregate,
    aggregate_corpus,
    collect_student_events,
    merge_student_events,
    problem_history,
    reconstruct_intervals,
    score_r,
)
from edxmine.events import parse_line, parse_events, ParseStats
from edxmine.manifest import manifest_to_dict
from edxmine.patterns import SymbolSequence, prefixspan
from edxmine.pipeline import RunManifest, load_run_manifest, run_pipeline
from edxmine.reports import CohortId, categorical_breakdown, weekly_report
from edxmine.synth import (
    PACING_COMPRESSED,
    default_corpus_spec,
    generate_corpus,
    write_corpus,
)
from conftest import problem_event, random_video_events
from test_engagement import oracle_watch_fraction, random_corpus
from test_patterns import brute_force


@contextmanager
def criterion(number: int, name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s (budget {budget_s}s)"
    print(f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def test_criterion_1_score_r_table():
    with criterion(1, "retry-index table", budget_s=1.0):
        expected = {1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 6: 4}
        for attempts, want in expected.items():
            events = [
                problem_event("problem_check", t=i * 10.0,
                              grade=1 if i == attempts - 1 else 0, max_grade=1)
                for i in range(attempts)
            ]
            record = problem_history(events)
            assert record.n_attempts == attempts
            assert score_r(record) == want, f"passing, {attempts} attempts"
        for attempts in range(1, 7):
            events = [
                problem_event("problem_check", t=i * 10.0, grade=0.5, max_grade=1)
                for i in range(attempts)
            ]
            assert score_r(problem_history(events)) == 4, f"non-passing, {attempts} attempts"


def test_criterion_2_classifier_round_trip(tmp_path):
    with criterion(2, "classifier round trip, 50 users per persona", budget_s=60.0):
        spec = default_corpus_spec(users_per_class=50, seed=8451)
        corpus = generate_corpus(spec)
        corpus_dir = tmp_path / "corpus"
        events_path, labels_path = write_corpus(corpus, corpus_dir)
        manifest_path = corpus_dir / "manifest.json"
        manifest_path.write_text(json.dumps(manifest_to_dict(spec.manifest)))
        run_config = corpus_dir / "run.json"
        run_config.write_text(json.dumps({"manifest": "manifest.json"}))

        out = tmp_path / "out"
        run_pipeline(load_run_manifest(run_config), [events_path], out)

        with open(labels_path, newline="") as handle:
            truth = {row["user_id"]: row["class"] for row in DictReader(handle)}
        with open(out / "classifications.csv", newline="") as handle:
            got = {row["user_id"]: row["class"] for row in DictReader(handle)}
        assert len(truth) == 400
        assert got == truth  # 100% agreement, every persona


def test_criterion_3_interval_union_oracle():
    with criterion(3, "interval union vs 1ms oracle, 1000 sequences", budget_s=30.0):
        rng = random.Random(60613)
        compared = 0
        trials = 0
        while compared < 1000:
            trials += 1
            events = random_video_events(rng)
            expected = oracle_watch_fraction(events)
            record = reconstruct_intervals(events)
            if expected is None:
                assert record.watch_fraction is None
                continue
            assert record.watch_fraction == pytest.approx(expected, abs=1e-6)
            compared += 1
        assert trials < 1300  # duration is nearly always known


def test_criterion_4_prefixspan_oracle():
    with criterion(4, "sequence miner vs brute force, 200 corpora", budget_s=60.0):
        rng = random.Random(1994)
        for _ in range(200):
            sequences = [
                SymbolSequence(symbols=tuple(rng.randrange(4) for _ in range(rng.randint(1, 10))))
                for _ in range(rng.randint(1, 8))
            ]
            min_support = rng.choice([1, 2, 3])
            max_len = 10  # brute force enumerates every subsequence
            mined = {p.symbols: p.support for p in prefixspan(sequences, min_support, max_len)}
            assert mined == brute_force(sequences, min_support, max_len)


def test_criterion_5_merge_order_independence():
    with criterion(5, "shard merge byte-identical, 100 corpora"):
        rng = random.Random(2468)
        for _ in range(100):
            events = random_corpus(rng, n_users=rng.randint(1, 6))
            baseline = "\n".join(a.to_json() for a in aggregate_corpus(events))
            for k in (1, 2, 4, 8):
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


def _boundary(n_videos=20, n_problems=20, attempts=1.0, watch=None, scorer=None, order=None):
    return StudentAggregate(
        user_id="u", course_instance="c",
        n_videos=n_videos, n_problems=n_problems,
        total_attempts=int(attempts * n_problems),
        mean_attempts_per_problem=attempts if n_problems else None,
        mean_watch_fraction=watch, mean_score_r=scorer, order_fraction=order,
    )


BOUNDARY_FIXTURE = [
    # (description, aggregate, expected class)
    ("sum exactly 10 is not a no-show",
     _boundary(n_videos=5, n_problems=5, attempts=4.0), OrdinalClass.AT_RISK),
    ("sum 9 is a no-show",
     _boundary(n_videos=5, n_problems=4), OrdinalClass.NO_SHOW),
    ("watch exactly 0.8 fails the high guards",
     _boundary(watch=0.8, scorer=1.0, order=1.0), OrdinalClass.NORMAL_ENGAGEMENT),
    ("watch exactly 0.6 fails the normal guard",
     _boundary(watch=0.6, scorer=2.5), OrdinalClass.POTENTIALLY_AT_RISK),
    ("watch exactly 0.4 fails the at-risk guard",
     _boundary(watch=0.4, scorer=3.5, attempts=3.0), OrdinalClass.AT_RISK),
    ("retry index exactly 2 fails the high guards",
     _boundary(watch=0.9, scorer=2.0, order=1.0, attempts=2.0), OrdinalClass.NORMAL_ENGAGEMENT),
    ("retry index exactly 3 fails the normal guard",
     _boundary(watch=0.65, scorer=3.0, attempts=3.0), OrdinalClass.POTENTIALLY_AT_RISK),
    ("retry index exactly 4 fails the at-risk guard",
     _boundary(watch=0.5, scorer=4.0, attempts=6.0), OrdinalClass.AT_RISK),
    ("exactly 20 videos is not a voyeur",
     _boundary(n_videos=20, n_problems=0, attempts=0), OrdinalClass.AT_RISK),
    ("21 videos is a voyeur",
     _boundary(n_videos=21, n_problems=0, attempts=0), OrdinalClass.VOYEUR),
    ("video/problem ratio exactly 0.10 is not a box-checker",
     _boundary(n_videos=2, n_problems=20, attempts=1.0), OrdinalClass.AT_RISK),
    ("problem/video ratio exactly 0.10 is not a voyeur",
     _boundary(n_videos=30, n_problems=3, attempts=3.0), OrdinalClass.AT_RISK),
    ("ordering gate exactly 0.8 is a studier (non-strict)",
     _boundary(watch=0.9, scorer=1.0, order=0.8), OrdinalClass.STUDIER),
]


def test_criterion_6_boundary_strictness():
    with criterion(6, "threshold boundary strictness"):
        for description, aggregate, expected in BOUNDARY_FIXTURE:
            assert classify(aggregate) is expected, description


def test_criterion_7_report_integrity(tmp_path):
    with criterion(7, "breakdown proportions sum to one"):
        rng = random.Random(77)
        cohort = CohortId("online", "2021")
        for _ in range(100):
            classes = [rng.choice(list(OrdinalClass)) for _ in range(rng.randint(1, 300))]
            rows = categorical_breakdown({cohort: classes}, exclude_no_show=True)
            assert sum(r.proportion for r in rows) == pytest.approx(1.0, abs=1e-9)
            engaged = [
                r.proportion_excluding_no_show
                for r in rows
                if r.proportion_excluding_no_show is not None
            ]
            if engaged:
                assert sum(engaged) == pytest.approx(1.0, abs=1e-9)

        # Same property on a full pipeline run.
        spec = default_corpus_spec(users_per_class=5, seed=707)
        corpus = generate_corpus(spec)
        events_path, _ = write_corpus(corpus, tmp_path)
        result = run_pipeline(RunManifest(), [events_path], tmp_path / "out",
                              exclude_no_show=True)
        with open(result.files["breakdown"], newline="") as handle:
            rows = list(DictReader(handle))
        assert sum(float(r["proportion"]) for r in rows) == pytest.approx(1.0, abs=1e-9)
        engaged = [
            float(r["proportion_excluding_no_show"])
            for r in rows
            if r["proportion_excluding_no_show"]
        ]
        assert sum(engaged) == pytest.approx(1.0, abs=1e-9)


def test_criterion_8_throughput_soft():
    # Soft, non-blocking: a regression signal, never a hard gate.
    spec = default_corpus_spec(users_per_class=10, seed=888)
    base_lines = generate_corpus(spec).lines
    target = 1_000_000
    repeats = target // len(base_lines) + 1

    stats = ParseStats()
    start = time.perf_counter()
    lines_done = 0
    for _ in range(repeats):
        if lines_done >= target:
            break
        for line in base_lines:
            stats.record(parse_line(line))
        lines_done += len(base_lines)
    elapsed = time.perf_counter() - start
    rate = lines_done / elapsed

    assert stats.malformed == 0
    assert stats.retained == lines_done
    status = "PASS" if rate >= 50_000 else "WARN (soft target 50k lines/s)"
    print(
        f"ACCEPTANCE 8 (parse throughput, {lines_done} lines): {status} "
        f"[{rate:,.0f} lines/s, {elapsed:.2f}s]"
    )


def test_criterion_9_weekly_shape_on_synthetic_cohorts(tmp_path):
    with criterion(9, "weekly table shapes, campus vs online personas"):
        campus_spec = default_corpus_spec(users_per_class=8, seed=911, weeks=15)
        online_spec = default_corpus_spec(
            users_per_class=8, seed=912, pacing=PACING_COMPRESSED, weeks=52,
            term_start=campus_spec.term_start.replace(month=1, day=1),
            course_id="course-v1:SYN+ED101+MOOC2021",
        )
        campus = CohortId("on_campus", "Fall 2021")
        online = CohortId("online", "2021")

        campus_events = list(parse_events(generate_corpus(campus_spec).lines))
        online_events = list(parse_events(generate_corpus(online_spec).lines))

        rows, dropped = weekly_report(
            {campus: collect_student_events(campus_events),
             online: collect_student_events(online_events)},
            {campus: campus_spec.term_start, online: online_spec.term_start},
        )
        assert dropped == {campus.label: 0, online.label: 0}

        campus_rows = [r for r in rows if r.cohort == campus]
        online_rows = [r for r in rows if r.cohort == online]

        # Campus shape: every user is new in week 0, none later.
        assert campus_rows[0].new_users == 64
        assert all(r.new_users == 0 for r in campus_rows if r.week_index >= 1)
        # Campus users keep returning through the term.
        assert sum(r.returning_users for r in campus_rows) > 0

        # Online shape: new users keep arriving across many weeks.
        weeks_with_new = [r.week_index for r in online_rows if r.new_users > 0]
        assert len(weeks_with_new) >= 5
        assert max(weeks_with_new) >= 10
