from __future__ import annotations

import csv
import json
import random
from datetime import date

import pytest

from edxmine.classify import OrdinalClass
from edxmine.engagement import StudentAggregate, collect_student_events
from edxmine.reports import (
    CohortId,
    _stats,
    categorical_breakdown,
    enrollment_table,
    score_comparison,
    scorer_distribution,
    weekly_report,
    write_report,
)
from conftest import bare_event

ON_CAMPUS = CohortId("on_campus", "Spring 2021")
ONLINE = CohortId("online", "2021")


def agg(user="u", first=None, final=None, scorer=None) -> StudentAggregate:
    return StudentAggregate(
        user_id=user,
        course_instance="c",
        mean_first_score=first,
        mean_final_score=final,
        mean_score_r=scorer,
    )


class TestEnrollment:
    def test_constructed_counts(self):
        # 5 users x 40 events each; sessions per user: 2,2,2,3,3 = 12.
        events = []
        sessions_per_user = [2, 2, 2, 3, 3]
        for u, n_sessions in enumerate(sessions_per_user):
            for i in range(40):
                session = f"u{u}-s{i % n_sessions}"
                events.append(
                    bare_event("problem_show", t=i * 60, user=f"u{u}", session=session)
                )
        rows = enrollment_table({ON_CAMPUS: collect_student_events(events)})
        assert len(rows) == 1
        assert rows[0].users == 5
        assert rows[0].user_events == 200
        assert rows[0].sessions == 12

    def test_empty_cohort(self):
        rows = enrollment_table({ON_CAMPUS: {}})
        assert rows[0].users == 0
        assert rows[0].user_events == 0
        assert rows[0].sessions == 0


class TestBreakdown:
    def test_all_one_class(self):
        rows = categorical_breakdown({ON_CAMPUS: [OrdinalClass.AT_RISK] * 10})
        by_class = {r.ordinal_class: r for r in rows}
        assert by_class[OrdinalClass.AT_RISK].count == 10
        assert by_class[OrdinalClass.AT_RISK].proportion == 1.0
        assert by_class[OrdinalClass.STUDIER].proportion == 0.0

    def test_exclusion_of_no_shows(self):
        classes = [OrdinalClass.NO_SHOW] * 4 + [OrdinalClass.STUDIER] * 6
        rows = categorical_breakdown({ON_CAMPUS: classes}, exclude_no_show=True)
        by_class = {r.ordinal_class: r for r in rows}
        assert by_class[OrdinalClass.STUDIER].proportion == 0.6
        assert by_class[OrdinalClass.STUDIER].proportion_excluding_no_show == 1.0
        assert by_class[OrdinalClass.NO_SHOW].proportion_excluding_no_show is None

    def test_two_cohorts_sum_independently(self):
        rows = categorical_breakdown(
            {
                ON_CAMPUS: [OrdinalClass.VOYEUR] * 3,
                ONLINE: [OrdinalClass.BOX_CHECKER] * 7,
            }
        )
        for cohort in (ON_CAMPUS, ONLINE):
            total = sum(r.proportion for r in rows if r.cohort == cohort)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_proportions_sum_to_one_random(self):
        rng = random.Random(61)
        for _ in range(50):
            classes = [rng.choice(list(OrdinalClass)) for _ in range(rng.randint(1, 200))]
            rows = categorical_breakdown({ONLINE: classes}, exclude_no_show=True)
            assert sum(r.proportion for r in rows) == pytest.approx(1.0, abs=1e-9)
            engaged = [
                r.proportion_excluding_no_show
                for r in rows
                if r.proportion_excluding_no_show is not None
            ]
            if engaged:
                assert sum(engaged) == pytest.approx(1.0, abs=1e-9)

    def test_empty_cohort_emits_no_rows(self):
        assert categorical_breakdown({ONLINE: []}) == []


class TestScoreStats:
    def test_quartiles_five_elements(self):
        mean, var, q1, median, q3 = _stats([1, 2, 3, 4, 5])
        assert (q1, median, q3) == (2.0, 3.0, 4.0)
        assert mean == 3.0
        assert var == 2.0

    def test_quartiles_interpolated(self):
        _, _, q1, median, q3 = _stats([1, 2, 3, 4])
        assert q1 == 1.75
        assert median == 2.5
        assert q3 == 3.25

    def test_matches_numpy_bytes(self):
        """Oracle: the same repr as numpy's mean, var and linear percentiles,
        on values shaped like per-student mean scores and retry indexes."""
        np = pytest.importorskip("numpy")
        rng = random.Random(4711)

        def mean_score():
            marks = [rng.choice((1, 2, 4, 5, 10)) for _ in range(rng.randint(1, 12))]
            return sum(rng.randint(0, m) / m for m in marks) / len(marks)

        def mean_retry():
            problems = rng.randint(1, 9)
            return sum(rng.randint(1, 4) for _ in range(problems)) / problems

        cases = [[-0.0] * size for size in (1, 7, 8, 130)]
        for size in list(range(1, 301)) + [1000, 8191, 8192, 8193, 16384, 20001]:
            for draw in (mean_score, mean_retry, rng.random):
                cases.append([draw() for _ in range(size)])
        for values in cases:
            arr = np.asarray(values, dtype=float)
            q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0], method="linear")
            expected = (arr.mean(), arr.var(), q1, median, q3)
            assert repr(_stats(values)) == repr(tuple(float(v) for v in expected)), len(values)

    def test_uniform_scores(self):
        aggs = [agg(user=f"u{i}", first=0.5, final=1.0) for i in range(4)]
        rows = score_comparison({ON_CAMPUS: aggs})
        by_metric = {r.metric: r for r in rows}
        assert by_metric["first_score"].mean == 0.5
        assert by_metric["first_score"].variance == 0.0
        assert by_metric["final_score"].mean == 1.0
        assert by_metric["final_score"].n == 4

    def test_two_finals(self):
        aggs = [agg(user="a", final=0.8), agg(user="b", final=1.0)]
        rows = score_comparison({ON_CAMPUS: aggs})
        final = next(r for r in rows if r.metric == "final_score")
        assert final.mean == pytest.approx(0.9)
        assert final.median == pytest.approx(0.9)

    def test_no_attempts_empty_row(self):
        rows = score_comparison({ON_CAMPUS: [agg(user="a")]})
        for row in rows:
            assert row.n == 0
            assert row.mean is None

    def test_scorer_distribution_variance_zero(self):
        pairs = [(agg(user=f"u{c.value}", scorer=2.0), c) for c in OrdinalClass]
        rows = scorer_distribution({ON_CAMPUS: pairs})
        assert len(rows) == len(OrdinalClass)
        assert all(r.variance == 0.0 for r in rows)

    def test_scorer_distribution_median(self):
        pairs = [
            (agg(user="a", scorer=1.0), OrdinalClass.STUDIER),
            (agg(user="b", scorer=2.0), OrdinalClass.STUDIER),
            (agg(user="c", scorer=3.0), OrdinalClass.STUDIER),
        ]
        rows = scorer_distribution({ON_CAMPUS: pairs})
        assert len(rows) == 1
        assert rows[0].median == 2.0
        assert rows[0].group == "studier"

    def test_scorer_distribution_omits_empty_cells(self):
        pairs = [(agg(user="a", scorer=1.5), OrdinalClass.VOYEUR)]
        rows = scorer_distribution({ON_CAMPUS: pairs})
        assert [r.group for r in rows] == ["voyeur"]


class TestWeeklyReport:
    def test_all_users_start_week_zero(self):
        events = [
            bare_event("problem_show", t=u * 100 + d * 86400 * 7, user=f"u{u}")
            for u in range(3)
            for d in range(4)
        ]
        rows, dropped = weekly_report(
            {ON_CAMPUS: collect_student_events(events)}, {ON_CAMPUS: date(2021, 8, 26)}
        )
        assert dropped == {ON_CAMPUS.label: 0}
        assert all(r.new_users == 0 for r in rows if r.week_index >= 1)
        week0 = next(r for r in rows if r.week_index == 0)
        assert week0.new_users == 3

    def test_single_user_cohort(self):
        rows, _ = weekly_report(
            {ONLINE: collect_student_events([bare_event("problem_show", t=0)])},
            {ONLINE: date(2021, 8, 26)},
        )
        assert [(r.week_index, r.new_users, r.returning_users) for r in rows] == [(0, 1, 0)]

    def test_long_running_user(self):
        events = [
            bare_event("problem_show", t=w * 7 * 86400 + 60) for w in range(15)
        ]
        rows, _ = weekly_report(
            {ONLINE: collect_student_events(events)}, {ONLINE: date(2021, 8, 26)}
        )
        assert len(rows) == 15
        assert rows[0].new_users == 1
        assert all(r.returning_users == 1 for r in rows[1:])


class TestWriteReport:
    def _rows(self):
        return categorical_breakdown(
            {ON_CAMPUS: [OrdinalClass.STUDIER, OrdinalClass.AT_RISK]}, exclude_no_show=True
        )

    def test_csv(self, tmp_path):
        path = tmp_path / "breakdown.csv"
        write_report(path, self._rows(), fmt="csv", kind="breakdown")
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["cohort"] == "on_campus:Spring 2021"
        studier = next(r for r in rows if r["class"] == "studier")
        assert float(studier["proportion"]) == 0.5
        no_show = next(r for r in rows if r["class"] == "no_show")
        assert no_show["proportion_excluding_no_show"] == ""

    def test_jsonl(self, tmp_path):
        path = tmp_path / "breakdown.jsonl"
        write_report(path, self._rows(), fmt="jsonl", kind="breakdown")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["cohort"] == "on_campus:Spring 2021"
        assert {"class", "count", "proportion"} <= set(lines[0])

    def test_empty_table_keeps_header(self, tmp_path):
        path = tmp_path / "weekly.csv"
        write_report(path, [], fmt="csv", kind="weekly")
        assert path.read_text().splitlines() == ["cohort,week_index,new_users,returning_users"]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(tmp_path / "x", self._rows(), fmt="parquet", kind="breakdown")
