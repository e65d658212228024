"""Output checks for the benchmark, computed apart from the program.

Every expected value here is derived from the raw input lines that the
benchmark generated (or from the per-category counts it wrote), never from
edxmine's parser or a stored copy of an earlier output. Each check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Optional

from workloads import FILTERED_KINDS, MALFORMED_KINDS, Workload

PASSING_THRESHOLD = 0.7  # the run configs leave the program default in place
TOLERANCE = 1e-9
AGGREGATE_SAMPLE = 40
PATTERN_SAMPLE = 150  # reported patterns per class whose support is recounted
EXTENSION_SAMPLE = 12  # prefixes per class checked for missing extensions
TALLY_FIELDS = ("lines_read", "parsed", "retained", "malformed", "filtered_out")


@dataclass(frozen=True)
class RawEvent:
    """One retained line, read straight from the generated JSON."""

    user: str
    course: str
    session: str
    time: str  # ISO-8601 with a Z suffix; sorts chronologically as text
    name: str
    video: Optional[str]
    problem: Optional[str]
    duration: Optional[float]
    current_time: Optional[float]
    grade: Optional[float]
    max_grade: Optional[float]


def _raw_event(line: str) -> RawEvent:
    obj = json.loads(line)
    payload = obj["event"]
    return RawEvent(
        user=obj["context"]["user_id"],
        course=obj["context"]["course_id"],
        session=obj["session"],
        time=obj["time"],
        name=obj["event_type"],
        video=payload.get("id"),
        problem=payload.get("problem_id"),
        duration=payload.get("duration"),
        current_time=payload.get("currentTime"),
        grade=payload.get("grade"),
        max_grade=payload.get("max_grade"),
    )


class Reference:
    """What the outputs of one workload must say, from its raw inputs."""

    def __init__(self, wl: Workload, inputs: Path):
        self.wl = wl
        self.labels: dict[str, str] = {}
        self.cohort_of: dict[str, str] = {}
        self.course_of: dict[str, str] = {}
        self.events: list[RawEvent] = []
        self.tallies: dict[str, dict] = {}
        for corpus in wl.corpora:
            with open(inputs / f"{corpus.stem}.labels.csv", encoding="utf-8", newline="") as handle:
                for row in csv.DictReader(handle):
                    self.labels[row["user_id"]] = row["class"]
                    self.cohort_of[row["user_id"]] = corpus.cohort
            lines = (inputs / f"{corpus.stem}.log").read_text(encoding="utf-8").splitlines()
            events = [_raw_event(line) for line in lines]
            self.events.extend(events)
            for ev in events:
                self.course_of[ev.user] = ev.course
            n = len(lines)
            self.tallies[f"{corpus.stem}.log"] = dict(
                lines_read=n, parsed=n, retained=n, malformed=0, filtered_out=0
            )
        if wl.noise_per_kind:
            retained = len(self.events)
            malformed = wl.noise_per_kind * len(MALFORMED_KINDS)
            filtered = wl.noise_per_kind * len(FILTERED_KINDS)
            self.tallies = {
                "noisy.log.gz": dict(
                    lines_read=retained + malformed + filtered,
                    parsed=retained + filtered,
                    retained=retained,
                    malformed=malformed,
                    filtered_out=filtered,
                )
            }
        self.total = {k: sum(t[k] for t in self.tallies.values()) for k in TALLY_FIELDS}
        self.by_user: dict[str, list[RawEvent]] = {}
        for ev in sorted(self.events, key=lambda e: e.time):
            self.by_user.setdefault(ev.user, []).append(ev)
        self._sequences: Optional[dict[str, list[tuple[str, ...]]]] = None

    @property
    def lines_read(self) -> int:
        return self.total["lines_read"]

    def sequences(self) -> dict[str, list[tuple[str, ...]]]:
        """Class name -> symbol sequences, per session or per user, in time order."""
        if self._sequences is None:
            mining = self.wl.mining
            out: dict[str, list[tuple[str, ...]]] = {}
            for user, events in self.by_user.items():
                groups: dict[str, list[str]] = {}
                for ev in events:
                    key = user if mining.per_user else ev.session
                    groups.setdefault(key, []).append(self._symbol(ev))
                out.setdefault(self.labels[user], []).extend(tuple(g) for g in groups.values())
            self._sequences = out
        return self._sequences

    def _symbol(self, ev: RawEvent) -> str:
        if not (self.wl.mining.split_check_outcome and ev.name == "problem_check"):
            return ev.name
        passed = bool(ev.max_grade) and ev.grade is not None and ev.grade / ev.max_grade >= PASSING_THRESHOLD
        return "check_pass" if passed else "check_fail"


# -- loading -----------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def load_outputs(out: Path, names: list[str]) -> tuple[dict, list[str]]:
    """Load each named output strictly: JSON without NaN/Infinity, CSV with
    rectangular rows and finite numbers. Returns (name -> content, problems)."""
    loaded, problems = {}, []
    for name in names:
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        text = path.read_text(encoding="utf-8")
        try:
            if name.endswith(".jsonl"):
                loaded[name] = [strict_json(line) for line in text.splitlines()]
            elif name.endswith(".json"):
                loaded[name] = strict_json(text)
            else:
                rows = list(csv.DictReader(text.splitlines()))
                for row in rows:
                    if None in row or None in row.values():
                        raise ValueError(f"ragged row {row}")
                    for cell in row.values():
                        if cell.strip().lower().lstrip("+-") in ("nan", "inf", "infinity"):
                            raise ValueError(f"non-finite cell {cell!r}")
                loaded[name] = rows
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    return loaded, problems


# -- validate ----------------------------------------------------------------

def _tally_problems(label: str, got: dict, want: dict) -> list[str]:
    problems = []
    got = {k: int(got.get(k, -1)) for k in TALLY_FIELDS}
    if got != want:
        problems.append(f"{label}: tallies {got} != {want}")
    if got["lines_read"] != got["parsed"] + got["malformed"]:
        problems.append(f"{label}: lines_read != parsed + malformed")
    if got["parsed"] != got["retained"] + got["filtered_out"]:
        problems.append(f"{label}: parsed != retained + filtered_out")
    return problems


def check_validate(stdout: str, ref: Reference) -> list[str]:
    """``validate`` prints one tally line per file and a TOTAL line."""
    seen = {}
    for line in stdout.splitlines():
        label, _, rest = line.rpartition(": ")
        fields = dict(part.split("=", 1) for part in rest.split() if "=" in part)
        if label and fields:
            seen["TOTAL" if label == "TOTAL" else Path(label).name] = fields
    want = dict(ref.tallies, TOTAL=ref.total)
    if set(seen) != set(want):
        return [f"validate: tally lines for {sorted(seen)}, expected {sorted(want)}"]
    problems = []
    for label, fields in seen.items():
        problems += _tally_problems(f"validate {label}", fields, want[label])
    return problems


# -- pipeline ----------------------------------------------------------------

PIPELINE_OUTPUTS = [
    "aggregates.jsonl",
    "classifications.csv",
    "enrollment.csv",
    "breakdown.csv",
    "score_comparison.csv",
    "scorer_distribution.csv",
    "weekly.csv",
    "run_meta.json",
]


def check_pipeline(
    out: Path, ref: Reference, rng: random.Random, clean_out: Optional[Path] = None
) -> list[str]:
    loaded, problems = load_outputs(out, PIPELINE_OUTPUTS)
    if problems:
        return problems
    problems += _check_meta(loaded["run_meta.json"], ref)
    problems += _check_classifications(loaded["classifications.csv"], ref)
    problems += _check_breakdown(loaded["breakdown.csv"], ref)
    problems += _check_enrollment(loaded["enrollment.csv"], ref)
    problems += _check_aggregates(loaded["aggregates.jsonl"], ref, rng)
    problems += _check_weekly(loaded["weekly.csv"], loaded["run_meta.json"], ref)
    if clean_out is not None:
        for name in ("aggregates.jsonl", "classifications.csv"):
            if (out / name).read_bytes() != (clean_out / name).read_bytes():
                problems.append(f"{name}: differs from the output for the clean corpus")
    return problems


def _check_meta(meta: dict, ref: Reference) -> list[str]:
    problems = _tally_problems("run_meta parse_stats", meta["parse_stats"], ref.total)
    per_file = {Path(k).name: v for k, v in meta["per_file_stats"].items()}
    if set(per_file) != set(ref.tallies):
        return problems + [f"run_meta per_file_stats for {sorted(per_file)}"]
    for name, stats in per_file.items():
        problems += _tally_problems(f"run_meta {name}", stats, ref.tallies[name])
    return problems


def _check_classifications(rows: list[dict], ref: Reference) -> list[str]:
    problems = []
    users = [row["user_id"] for row in rows]
    if sorted(users) != sorted(ref.labels):
        problems.append(f"classifications: {len(users)} rows for {len(ref.labels)} users")
    for row in rows:
        user = row["user_id"]
        want = (ref.labels.get(user), ref.cohort_of.get(user), ref.course_of.get(user))
        got = (row["class"], row["cohort"], row["course_id"])
        if got != want:
            problems.append(f"classifications: {user} is {got}, expected {want}")
    return problems


def _check_breakdown(rows: list[dict], ref: Reference) -> list[str]:
    problems = []
    want = Counter((ref.cohort_of[u], c) for u, c in ref.labels.items())
    got = Counter({(r["cohort"], r["class"]): int(r["count"]) for r in rows})
    if +got != want:
        problems.append(f"breakdown: counts {dict(+got)} != {dict(want)}")
    for cohort in set(ref.cohort_of.values()):
        total = math.fsum(float(r["proportion"]) for r in rows if r["cohort"] == cohort)
        if abs(total - 1.0) > TOLERANCE:
            problems.append(f"breakdown: {cohort} proportions sum to {total!r}")
    return problems


def _check_enrollment(rows: list[dict], ref: Reference) -> list[str]:
    want: dict[str, list] = {}
    for ev in ref.events:
        cell = want.setdefault(ref.cohort_of[ev.user], [set(), 0, set()])
        cell[0].add(ev.user)
        cell[1] += 1
        cell[2].add(ev.session)
    want_rows = {c: (len(u), n, len(s)) for c, (u, n, s) in want.items()}
    got_rows = {
        r["cohort"]: (int(r["users"]), int(r["user_events"]), int(r["sessions"])) for r in rows
    }
    if got_rows != want_rows:
        return [f"enrollment: (users, user_events, sessions) {got_rows} != {want_rows}"]
    return []


def recompute_aggregate(events: list[RawEvent]) -> dict:
    """n_videos, n_problems, total_attempts and the three means for one
    student, from raw synth events (load, play at 0, pause at the watched
    point; problem_check with grade and max_grade)."""
    videos: dict[str, list[RawEvent]] = {}
    problems: dict[str, list[float]] = {}
    for ev in events:
        if ev.video is not None:
            videos.setdefault(ev.video, []).append(ev)
        elif ev.name == "problem_check":
            problems.setdefault(ev.problem, []).append(ev.grade / ev.max_grade)
    fractions = []
    for evs in videos.values():
        duration = next(e.duration for e in evs if e.duration is not None)
        spans, opened = [], None
        for e in evs:
            if e.name == "play_video":
                opened = e.current_time
            elif e.name == "pause_video" and opened is not None:
                spans.append((min(opened, duration), min(e.current_time, duration)))
                opened = None
            elif e.name not in ("load_video", "pause_video"):
                raise ValueError(f"recompute_aggregate: no rule for {e.name}")
        watched, reach = 0.0, 0.0
        for start, end in sorted(s for s in spans if s[0] < s[1]):
            start = max(start, reach)
            if end > start:
                watched += end - start
                reach = end
        fractions.append(min(1.0, watched / duration))

    def mean(values):
        return sum(values) / len(values) if values else None

    return {
        "n_videos": sum(1 for evs in videos.values() if any(e.name == "play_video" for e in evs)),
        "n_problems": len(problems),
        "total_attempts": sum(len(s) for s in problems.values()),
        "mean_watch_fraction": mean(fractions),
        "mean_first_score": mean([s[0] for s in problems.values()]),
        "mean_final_score": mean([s[-1] for s in problems.values()]),
    }


def _check_aggregates(rows: list[dict], ref: Reference, rng: random.Random) -> list[str]:
    by_user = {row["user_id"]: row for row in rows}
    if sorted(by_user) != sorted(ref.by_user) or len(rows) != len(by_user):
        return [f"aggregates: {len(rows)} rows for {len(ref.by_user)} students"]
    problems = []
    sample = rng.sample(sorted(ref.by_user), min(AGGREGATE_SAMPLE, len(ref.by_user)))
    for user in sample:
        row = by_user[user]
        for key, want in recompute_aggregate(ref.by_user[user]).items():
            got = row.get(key)
            if want is None or got is None or isinstance(want, int):
                ok = got == want
            else:
                ok = abs(got - want) <= TOLERANCE
            if not ok:
                problems.append(f"aggregates: {user} {key} = {got!r}, recomputed {want!r}")
    return problems


def _check_weekly(rows: list[dict], meta: dict, ref: Reference) -> list[str]:
    problems = []
    active: dict[str, dict[int, set]] = {}
    dropped = Counter()
    for ev in ref.events:
        cohort = ref.cohort_of[ev.user]
        days = (date.fromisoformat(ev.time[:10]) - ref.wl.anchors[cohort]).days
        if days < 0:
            dropped[cohort] += 1
            continue
        active.setdefault(cohort, {}).setdefault(days // 7, set()).add(ev.user)
    if meta["weekly_dropped_before_anchor"] != {c: dropped[c] for c in ref.wl.anchors}:
        problems.append(f"weekly: dropped {meta['weekly_dropped_before_anchor']} != {dict(dropped)}")
    for cohort, weeks in active.items():
        got = {
            int(r["week_index"]): (int(r["new_users"]), int(r["returning_users"]))
            for r in rows
            if r["cohort"] == cohort
        }
        if sorted(got) != list(range(max(weeks) + 1)):
            problems.append(f"weekly: {cohort} weeks {sorted(got)} are not 0..{max(weeks)}")
            continue
        for week, (new, returning) in got.items():
            if new + returning != len(weeks.get(week, ())):
                problems.append(
                    f"weekly: {cohort} week {week} new+returning={new + returning}, "
                    f"active={len(weeks.get(week, ()))}"
                )
        cohort_users = sum(1 for c in ref.cohort_of.values() if c == cohort)
        if sum(new for new, _ in got.values()) != cohort_users:
            problems.append(f"weekly: {cohort} new users do not add up to {cohort_users}")
        if cohort.startswith("on_campus:") and got[0][0] != cohort_users:
            problems.append(f"weekly: {cohort} has {got[0][0]} new users in week 0, not all")
    return problems


# -- mine --------------------------------------------------------------------

def _ends(sequence: tuple, pattern: tuple) -> Optional[int]:
    """Index after the earliest embedding of ``pattern`` in ``sequence``."""
    pos = 0
    for sym in pattern:
        try:
            pos = sequence.index(sym, pos) + 1
        except ValueError:
            return None
    return pos


def support(sequences: list[tuple], pattern: tuple) -> int:
    """Number of sequences that contain ``pattern`` as a subsequence."""
    return sum(1 for seq in sequences if _ends(seq, pattern) is not None)


def extension_supports(sequences: list[tuple], prefix: tuple) -> Counter:
    """Support of every one-symbol extension of ``prefix``."""
    counts: Counter = Counter()
    for seq in sequences:
        end = _ends(seq, prefix)
        if end is not None:
            counts.update(set(seq[end:]))
    return counts


def check_mine(out: Path, ref: Reference, rng: random.Random) -> list[str]:
    mining = ref.wl.mining
    classes = sorted(set(ref.labels.values()))
    names = [f"patterns_{c}.csv" for c in classes] + (["contrast.csv"] if len(classes) > 1 else [])
    loaded, problems = load_outputs(out, names)
    if problems:
        return problems
    sequences = ref.sequences()
    for cls in classes:
        seqs = sequences.get(cls, [])
        n = len(seqs)
        spec = mining.min_support
        threshold = int(spec) if spec >= 1 else max(1, math.ceil(spec * n))
        label = f"patterns_{cls}"
        reported: dict[tuple, int] = {}
        for row in loaded[f"{label}.csv"]:
            pattern = tuple(row["pattern"].split(">"))
            count = int(row["support"])
            if pattern in reported or row["class"] != cls:
                problems.append(f"{label}: duplicate or misfiled row {row}")
            reported[pattern] = count
            if float(row["relative_support"]) != count / n:
                problems.append(f"{label}: {row['pattern']} relative_support != {count}/{n}")
            if count < threshold or len(pattern) > mining.max_len:
                problems.append(f"{label}: {row['pattern']} below support {threshold} or too long")
        patterns = sorted(reported)
        for pattern in rng.sample(patterns, min(PATTERN_SAMPLE, len(patterns))):
            want = support(seqs, pattern)
            if reported[pattern] != want:
                problems.append(f"{label}: {'>'.join(pattern)} support {reported[pattern]}, counted {want}")
        short = [p for p in patterns if len(p) < mining.max_len]
        for prefix in [()] + rng.sample(short, min(EXTENSION_SAMPLE, len(short))):
            for sym, count in extension_supports(seqs, prefix).items():
                if count >= threshold and prefix + (sym,) not in reported:
                    problems.append(f"{label}: frequent {'>'.join(prefix + (sym,))} ({count}) missing")
    return problems
