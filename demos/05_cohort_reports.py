"""The five cohort-comparison report tables, campus vs online.

Two synthetic cohorts illustrate the qualitative shapes: campus students all
start in week 0 and pace through a 15-week term, online students arrive all
year and compress their activity into a couple of weeks.
"""

from edxmine import classify, default_corpus_spec, generate_corpus
from edxmine.engagement import aggregate_corpus, collect_student_events
from edxmine.events import parse_events
from edxmine.reports import (
    CohortId,
    categorical_breakdown,
    enrollment_table,
    score_comparison,
    scorer_distribution,
    weekly_report,
)
from edxmine.synth import PACING_COMPRESSED

campus_spec = default_corpus_spec(users_per_class=8, seed=1, weeks=15)
online_spec = default_corpus_spec(
    users_per_class=8, seed=2, pacing=PACING_COMPRESSED, weeks=52,
    term_start=campus_spec.term_start.replace(month=1, day=1),
    course_id="course-v1:SYN+ED101+MOOC2021",
)

campus = CohortId("on_campus", "Fall 2021")
online = CohortId("online", "2021")
events = {
    campus: list(parse_events(generate_corpus(campus_spec).lines)),
    online: list(parse_events(generate_corpus(online_spec).lines)),
}
pairs = {
    cohort: [
        (agg, classify(agg))
        for agg in aggregate_corpus(evs, campus_spec.manifest)
    ]
    for cohort, evs in events.items()
}
students = {cohort: collect_student_events(evs) for cohort, evs in events.items()}

print("== enrollment ==")
for row in enrollment_table(students):
    print(f"  {row.cohort.label:<22} users={row.users:<4} events={row.user_events:<6} sessions={row.sessions}")

print("\n== categorical breakdown (excluding no-shows) ==")
classes = {c: [cls for _, cls in p] for c, p in pairs.items()}
for row in categorical_breakdown(classes, exclude_no_show=True):
    if row.count:
        excl = f"{row.proportion_excluding_no_show:.2f}" if row.proportion_excluding_no_show is not None else "-"
        print(f"  {row.cohort.label:<22} {row.ordinal_class.value:<20} n={row.count:<4} share={row.proportion:.2f} engaged-share={excl}")

print("\n== first vs final submission scores ==")
aggs = {c: [a for a, _ in p] for c, p in pairs.items()}
for row in score_comparison(aggs):
    if row.n:
        print(f"  {row.cohort.label:<22} {row.metric:<12} mean={row.mean:.3f} var={row.variance:.4f} n={row.n}")

print("\n== retry-index distribution per category ==")
for row in scorer_distribution(pairs):
    print(f"  {row.cohort.label:<22} {row.group:<20} q1={row.q1:.2f} median={row.median:.2f} q3={row.q3:.2f} n={row.n}")

print("\n== weekly new/returning ==")
weekly_rows, _ = weekly_report(
    students, {campus: campus_spec.term_start, online: online_spec.term_start}
)
for row in weekly_rows:
    if row.new_users or row.returning_users:
        print(f"  {row.cohort.label:<22} week={row.week_index:<3} new={row.new_users:<4} returning={row.returning_users}")
