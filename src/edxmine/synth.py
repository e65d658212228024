"""Deterministic synthetic log corpus generation with ground-truth labels.

Personas are samplers over one classification rule region. Every range must
clear the relevant thresholds by a strict margin so the round-trip test
(generate, parse, aggregate, classify) is meaningful and never
boundary-flaky. Generation is bit-for-bit reproducible from (spec, seed):
each user draws from an independent substream keyed by seed, persona, and
user index.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, fields, replace
from datetime import date, datetime, time, timedelta, timezone
from pathlib import Path
from typing import Optional, Union

from .classify import DEFAULT_RULES, FieldCheck, OrdinalClass, check_fields, reject_unknown_keys
from .engagement import DEFAULT_PASSING_THRESHOLD, _score_r_value
from .events import format_timestamp, parse_date
from .manifest import (
    Block,
    BlockKind,
    Chapter,
    CourseManifest,
    InputError,
    Section,
    SubModule,
    load_manifest,
    manifest_to_dict,
    parse_manifest,
    read_json,
)

MARGIN = 0.05

PACING_SPREAD = "spread"  # activity spaced over the whole term
PACING_COMPRESSED = "compressed"  # activity packed into a <=2 week burst


class AmbiguousPersonaError(InputError, ValueError):
    """Persona ranges do not sit safely inside the target class region."""


class GenerationError(InputError, RuntimeError):
    """Manifest cannot supply the content a persona asks for."""


@dataclass(frozen=True)
class PersonaSpec:
    target_class: OrdinalClass
    n_users: int
    video_watch_range: tuple[float, float]
    videos_played_range: tuple[int, int]
    problems_attempted_range: tuple[int, int]
    attempts_per_problem_range: tuple[int, int]
    first_score_range: tuple[float, float]
    watch_before_problems: bool
    pacing: str = PACING_SPREAD
    seed_offset: int = 0


@dataclass(frozen=True)
class CorpusSpec:
    manifest: CourseManifest
    personas: tuple[PersonaSpec, ...]
    term_start: date
    weeks: int
    seed: int

    def __post_init__(self) -> None:
        if self.weeks < 1:
            raise ValueError("weeks must be >= 1")
        # Timestamps end in year 9999, and the term's last day may run past
        # midnight.
        if 7 * self.weeks >= (date.max - self.term_start).days:
            raise ValueError("term_start plus weeks must fall before 9999-12-31")
        if sum(p.n_users for p in self.personas) < 1:
            raise ValueError("corpus must contain at least one user")


@dataclass
class SynthCorpus:
    lines: list[str]
    labels: list[tuple[str, str]]  # (user_id, class name)


def _scorer_bounds(p: PersonaSpec) -> tuple[float, float]:
    """Reachable mean retry-index interval under the generation policy:
    multi-attempt problems always end at full marks, single-attempt problems
    end at the drawn first score."""
    a_lo, a_hi = p.attempts_per_problem_range
    lo = _score_r_value(max(a_lo, 1), 1.0, DEFAULT_PASSING_THRESHOLD)
    hi = _score_r_value(max(a_hi, 1), 1.0, DEFAULT_PASSING_THRESHOLD)
    if a_lo <= 1 and p.first_score_range[0] < DEFAULT_PASSING_THRESHOLD + MARGIN:
        hi = 4  # a single-attempt final may fail the passing threshold
    return float(lo), float(hi)


def validate_persona(p: PersonaSpec) -> None:
    """Raise :class:`AmbiguousPersonaError` unless every reachable metric
    classifies under the default rules to the persona's target class with
    margin to spare."""
    cfg = DEFAULT_RULES
    problems: list[str] = []
    v_lo, v_hi = p.videos_played_range
    p_lo, p_hi = p.problems_attempted_range
    a_lo, a_hi = p.attempts_per_problem_range
    w_lo, w_hi = p.video_watch_range
    f_lo, f_hi = p.first_score_range

    if p.n_users < 1:
        problems.append("n_users must be >= 1")
    for label, (lo, hi) in (
        ("videos_played_range", (v_lo, v_hi)),
        ("problems_attempted_range", (p_lo, p_hi)),
        ("attempts_per_problem_range", (a_lo, a_hi)),
    ):
        if lo < 0 or lo > hi:
            problems.append(f"{label} must be 0 <= lo <= hi")
    for label, (lo, hi) in (
        ("video_watch_range", (w_lo, w_hi)),
        ("first_score_range", (f_lo, f_hi)),
    ):
        if not (0.0 <= lo <= hi <= 1.0):
            problems.append(f"{label} must satisfy 0 <= lo <= hi <= 1")
    if p.pacing not in (PACING_SPREAD, PACING_COMPRESSED):
        problems.append(f"unknown pacing {p.pacing!r}")
    if p_hi > 0 and a_lo < 1:
        problems.append("attempts_per_problem_range must start at >= 1 when problems are attempted")
    if p.watch_before_problems and p_hi > 0 and v_lo < 1:
        problems.append("watch_before_problems requires at least one played video")
    if v_lo + p_lo < 1:
        problems.append("persona must guarantee at least one content interaction per user")
    if problems:
        raise AmbiguousPersonaError("; ".join(problems))

    total_lo, total_hi = v_lo + p_lo, v_hi + p_hi
    r_lo, r_hi = _scorer_bounds(p)
    m = MARGIN
    # Exact-margin personas must validate despite float representation.
    eps = 1e-9

    # Clear a threshold by the margin.
    def below(value: float, threshold: float) -> bool:
        return value <= threshold - m + eps

    def above(value: float, threshold: float) -> bool:
        return value >= threshold + m - eps

    def engaged(watch: float, scorer: float) -> tuple[bool, bool]:
        """(passes, fails) of a watch-above / retry-index-below rule, which needs both metrics."""
        return (
            v_lo >= 1 and p_lo >= 1 and above(w_lo, watch) and below(r_hi, scorer),
            v_hi == 0 or p_hi == 0 or below(w_hi, watch) or above(r_lo, scorer),
        )

    ratio, apm = cfg.ratio_threshold, cfg.attempts_per_problem_max
    high = engaged(cfg.watch_hi, cfg.scorer_hi)
    # (every user passes the rule, every user fails it) per class. Integer
    # counts clear by 1, and each division is guarded against zero.
    rules = {
        OrdinalClass.NO_SHOW: (
            total_hi <= cfg.no_show_total - 1, total_lo >= cfg.no_show_total + 1
        ),
        OrdinalClass.BOX_CHECKER: (
            p_lo >= 1 and (v_hi == 0 or below(v_hi / p_lo, ratio)) and below(a_hi, apm),
            p_hi == 0 or above(v_lo / p_hi, ratio) or above(a_lo, apm),
        ),
        OrdinalClass.VOYEUR: (
            v_lo >= cfg.voyeur_min_videos + 1 and (p_hi == 0 or below(p_hi / v_lo, ratio)),
            # Video counts are integers, so sitting on the strict > is exact.
            v_hi <= cfg.voyeur_min_videos or (v_hi > 0 and above(p_lo / v_hi, ratio)),
        ),
        OrdinalClass.STUDIER: (
            high[0] and p.watch_before_problems and above(1.0, cfg.order_min),
            high[1] or (not p.watch_before_problems and below(0.0, cfg.order_min)),
        ),
        OrdinalClass.HIGH_ENGAGEMENT: high,
        OrdinalClass.NORMAL_ENGAGEMENT: engaged(cfg.watch_mid, cfg.scorer_mid),
        OrdinalClass.POTENTIALLY_AT_RISK: engaged(cfg.watch_lo, cfg.scorer_lo),
        OrdinalClass.AT_RISK: (True, False),
    }
    for cls in OrdinalClass:  # the order classify evaluates its rules in
        passes, fails = rules[cls]
        if cls is p.target_class:
            if not passes:
                problems.append(f"ranges do not clear the {cls.value} rule with margin {m}")
            break
        if not fails:
            problems.append(
                f"ranges cannot rule out {cls.value} (evaluated before {p.target_class.value})"
            )
    if problems:
        raise AmbiguousPersonaError("; ".join(problems))


# -- default fixtures --------------------------------------------------------

def default_manifest(course_id: str, course_start: Optional[date]) -> CourseManifest:
    """Synthetic course tree: 4 sub-modules, 16 sections, 64 videos and 64
    graded problems, every section mixing both kinds."""
    submodules = []
    for si in range(4):
        chapters = []
        for ci in range(2):
            sections = []
            for ei in range(2):
                blocks = []
                for k in range(4):
                    blocks.append(Block(f"v-{si}{ci}{ei}-{k}", BlockKind.VIDEO))
                for k in range(4):
                    blocks.append(Block(f"p-{si}{ci}{ei}-{k}", BlockKind.GRADED_PROBLEM))
                blocks.append(Block(f"t-{si}{ci}{ei}", BlockKind.TEXT))
                sections.append(Section(name=f"Section {si}.{ci}.{ei}", blocks=tuple(blocks)))
            chapters.append(Chapter(name=f"Chapter {si}.{ci}", sections=tuple(sections)))
        submodules.append(SubModule(name=f"Module {si}", chapters=tuple(chapters)))
    return CourseManifest(
        course_id=course_id, course_start=course_start, submodules=tuple(submodules)
    )


def default_personas(users_per_class: int = 50, pacing: str = PACING_SPREAD) -> list[PersonaSpec]:
    """One margin-validated persona per ordinal class."""
    mk = PersonaSpec
    specs = [
        mk(OrdinalClass.NO_SHOW, users_per_class, (0.2, 0.6), (1, 3), (1, 3), (1, 2), (0.3, 0.9), False),
        mk(OrdinalClass.BOX_CHECKER, users_per_class, (0.2, 0.5), (0, 1), (35, 45), (1, 1), (0.8, 1.0), False),
        mk(OrdinalClass.VOYEUR, users_per_class, (0.3, 0.9), (25, 30), (0, 1), (1, 1), (0.8, 1.0), False),
        mk(OrdinalClass.STUDIER, users_per_class, (0.86, 0.97), (12, 16), (6, 9), (1, 1), (0.8, 1.0), True),
        mk(OrdinalClass.HIGH_ENGAGEMENT, users_per_class, (0.86, 0.97), (12, 16), (6, 9), (1, 1), (0.8, 1.0), False),
        mk(OrdinalClass.NORMAL_ENGAGEMENT, users_per_class, (0.65, 0.75), (12, 16), (6, 9), (2, 2), (0.4, 0.8), False),
        mk(OrdinalClass.POTENTIALLY_AT_RISK, users_per_class, (0.45, 0.55), (12, 16), (6, 9), (3, 4), (0.2, 0.6), False),
        mk(OrdinalClass.AT_RISK, users_per_class, (0.05, 0.30), (12, 16), (6, 9), (5, 6), (0.1, 0.5), False),
    ]
    return [replace(s, pacing=pacing, seed_offset=i) for i, s in enumerate(specs)]


def default_corpus_spec(
    users_per_class: int = 50,
    seed: int = 20210826,
    pacing: str = PACING_SPREAD,
    weeks: int = 15,
    term_start: date = date(2021, 8, 23),
    course_id: str = "course-v1:SYN+ED101+2021",
) -> CorpusSpec:
    return CorpusSpec(
        manifest=default_manifest(course_id=course_id, course_start=term_start),
        personas=tuple(default_personas(users_per_class, pacing)),
        term_start=term_start,
        weeks=weeks,
        seed=seed,
    )


# -- generation ---------------------------------------------------------------

@dataclass
class _SectionContent:
    videos: list[str]
    problems: list[str]


def _section_contents(manifest: CourseManifest) -> list[_SectionContent]:
    sections = []
    for sub in manifest.submodules:
        for chapter in sub.chapters:
            for section in chapter.sections:
                videos = [b.block_id for b in section.blocks if b.kind is BlockKind.VIDEO]
                problems = [
                    b.block_id for b in section.blocks if b.kind is BlockKind.GRADED_PROBLEM
                ]
                sections.append(_SectionContent(videos=videos, problems=problems))
    return sections


@dataclass
class _Visit:
    videos: list[str]
    problems: list[str]
    problems_first: bool


def _plan_visits(rng: random.Random, persona: PersonaSpec, sections: list[_SectionContent]) -> list[_Visit]:
    v_need = rng.randint(*persona.videos_played_range)
    p_need = rng.randint(*persona.problems_attempted_range)
    order = rng.sample(range(len(sections)), len(sections))
    visits: list[_Visit] = []

    if persona.watch_before_problems:
        # Co-locate: problems are only attempted in sections whose videos were
        # already played earlier in the stream.
        spare_problems: list[list[str]] = []
        for idx in order:
            if v_need == 0 and p_need == 0:
                break
            sec = sections[idx]
            take_v = min(len(sec.videos), v_need)
            take_p = min(len(sec.problems), p_need) if take_v > 0 else 0
            if take_v == 0 and take_p == 0:
                continue
            vids = rng.sample(sec.videos, take_v)
            pids = rng.sample(sec.problems, take_p)
            if take_v > 0 and take_p < len(sec.problems):
                spare_problems.append([p for p in sec.problems if p not in pids])
            visits.append(_Visit(videos=vids, problems=pids, problems_first=False))
            v_need -= take_v
            p_need -= take_p
        # Late problem-only passes over sections already played.
        for remaining in spare_problems:
            if p_need == 0:
                break
            take = min(len(remaining), p_need)
            visits.append(
                _Visit(videos=[], problems=rng.sample(remaining, take), problems_first=False)
            )
            p_need -= take
    else:
        # Keep problem sections disjoint from video sections so no attempted
        # problem ever has an earlier same-section play.
        problem_visits: list[_Visit] = []
        video_visits: list[_Visit] = []
        reserved_for_problems: set[int] = set()
        for idx in order:
            if p_need == 0:
                break
            sec = sections[idx]
            if not sec.problems:
                continue
            take = min(len(sec.problems), p_need)
            problem_visits.append(
                _Visit(videos=[], problems=rng.sample(sec.problems, take), problems_first=True)
            )
            reserved_for_problems.add(idx)
            p_need -= take
        for idx in order:
            if v_need == 0:
                break
            if idx in reserved_for_problems:
                continue
            sec = sections[idx]
            if not sec.videos:
                continue
            take = min(len(sec.videos), v_need)
            video_visits.append(
                _Visit(videos=rng.sample(sec.videos, take), problems=[], problems_first=False)
            )
            v_need -= take
        visits = problem_visits + video_visits
        rng.shuffle(visits)

    if v_need > 0 or p_need > 0:
        raise GenerationError(
            f"manifest too small for persona {persona.target_class.value}: "
            f"{v_need} videos / {p_need} problems unplaced"
        )
    return visits


def _visit_days(rng: random.Random, persona: PersonaSpec, n_visits: int, weeks: int) -> list[int]:
    horizon = weeks * 7
    if persona.pacing == PACING_COMPRESSED:
        start = rng.randint(0, max(0, horizon - 14))
        span = min(13, horizon - 1 - start)
        if n_visits == 1:
            return [start]
        return [start + round(i * span / (n_visits - 1)) for i in range(n_visits)]
    if n_visits == 1:
        return [0]
    return [round(i * (horizon - 1) / (n_visits - 1)) for i in range(n_visits)]


def _event_line(
    etype: str,
    user_id: str,
    course_id: str,
    org_id: str,
    session: str,
    when: datetime,
    payload: dict,
) -> str:
    record = {
        "name": etype,
        "event_type": etype,
        "event_source": "browser",
        "context": {"user_id": user_id, "course_id": course_id, "org_id": org_id},
        "session": session,
        "time": format_timestamp(when),
        "event": payload,
    }
    return json.dumps(record, separators=(",", ":"))


def _generate_user(
    rng: random.Random,
    user_id: str,
    persona: PersonaSpec,
    sections: list[_SectionContent],
    course_id: str,
    org_id: str,
    term_start: date,
    weeks: int,
) -> list[str]:
    visits = _plan_visits(rng, persona, sections)
    days = _visit_days(rng, persona, len(visits), weeks)
    w_lo, w_hi = persona.video_watch_range
    f_lo, f_hi = persona.first_score_range
    a_lo, a_hi = persona.attempts_per_problem_range

    lines: list[str] = []
    prev_end: Optional[datetime] = None
    for visit_idx, (visit, day) in enumerate(zip(visits, days)):
        session = f"{user_id}-s{visit_idx}"
        cursor = datetime.combine(term_start, time(9, 0), tzinfo=timezone.utc) + timedelta(
            days=day, seconds=rng.randint(0, 4 * 3600)
        )
        # Visits must stay chronological even when two land on the same day;
        # ordering carries the watch-before-attempt semantics.
        if prev_end is not None and cursor <= prev_end:
            cursor = prev_end + timedelta(seconds=rng.randint(60, 600))

        def emit(etype: str, payload: dict) -> None:
            nonlocal cursor
            lines.append(
                _event_line(etype, user_id, course_id, org_id, session, cursor, payload)
            )
            cursor += timedelta(seconds=rng.randint(20, 200))

        def emit_problems() -> None:
            for pid in visit.problems:
                emit("problem_show", {"problem_id": pid})
                n_att = rng.randint(a_lo, a_hi)
                first = round(rng.uniform(f_lo, f_hi), 3)
                for attempt in range(1, n_att + 1):
                    if attempt == 1:
                        grade = first
                    elif attempt == n_att:
                        grade = 1.0
                    else:
                        grade = round(rng.uniform(first, 1.0), 3)
                    emit(
                        "problem_check",
                        {
                            "problem_id": pid,
                            "grade": grade,
                            "max_grade": 1.0,
                            "attempts": attempt,
                            "success": grade >= 1.0,
                        },
                    )

        def emit_videos() -> None:
            for vid in visit.videos:
                duration = round(rng.uniform(60.0, 600.0), 1)
                watched = round(rng.uniform(w_lo, w_hi) * duration, 3)
                emit("load_video", {"id": vid, "code": "hls", "duration": duration})
                emit(
                    "play_video",
                    {"id": vid, "code": "hls", "duration": duration, "currentTime": 0.0},
                )
                emit("pause_video", {"id": vid, "currentTime": watched, "duration": duration})

        if visit.problems_first:
            emit_problems()
            emit_videos()
        else:
            emit_videos()
            emit_problems()
        prev_end = cursor
    return lines


def generate_corpus(spec: CorpusSpec) -> SynthCorpus:
    """Emit log lines plus the ground-truth label per user.

    Every persona is validated first; an out-of-region range raises
    :class:`AmbiguousPersonaError` before anything is generated. Errors about
    a persona start with ``personas[<i>]: ``.
    """
    sections = _section_contents(spec.manifest)
    course_id = spec.manifest.course_id
    org_id = course_id.split(":", 1)[-1].split("+", 1)[0] if ":" in course_id else "SYN"

    lines: list[str] = []
    labels: list[tuple[str, str]] = []
    try:
        for p_idx, persona in enumerate(spec.personas):
            validate_persona(persona)
        for p_idx, persona in enumerate(spec.personas):
            for i in range(persona.n_users):
                rng = random.Random(f"{spec.seed}/{p_idx}/{persona.seed_offset}/{i}")
                user_id = f"u{spec.seed}-{p_idx:02d}-{i:04d}"
                lines.extend(
                    _generate_user(
                        rng, user_id, persona, sections, course_id, org_id,
                        spec.term_start, spec.weeks,
                    )
                )
                labels.append((user_id, persona.target_class.value))
    except InputError as exc:
        raise type(exc)(f"personas[{p_idx}]: {exc}") from None
    return SynthCorpus(lines=lines, labels=labels)


def write_corpus(corpus: SynthCorpus, out_dir: Union[str, Path]) -> tuple[Path, Path]:
    """Write events.log and labels.csv; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    events_path = out_dir / "events.log"
    labels_path = out_dir / "labels.csv"
    with open(events_path, "w", encoding="utf-8") as handle:
        for line in corpus.lines:
            handle.write(line + "\n")
    with open(labels_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["user_id", "class"])
        writer.writerows(corpus.labels)
    return events_path, labels_path


# -- spec (de)serialization ---------------------------------------------------

def corpus_spec_to_dict(spec: CorpusSpec) -> dict:
    return {
        "manifest": manifest_to_dict(spec.manifest),
        "term_start": spec.term_start.isoformat(),
        "weeks": spec.weeks,
        "seed": spec.seed,
        "personas": [
            {f.name: _json_value(getattr(p, f.name)) for f in fields(PersonaSpec)}
            for p in spec.personas
        ],
    }


def _json_value(value):
    """A persona field as its JSON form holds it: a class by name, a range
    as a list."""
    if isinstance(value, OrdinalClass):
        return value.value
    return list(value) if isinstance(value, tuple) else value


# The JSON types of a corpus spec's values, with the least number allowed.
# Values are checked, never coerced: "false" is not false and 2.9 is not 2.
_SPEC_CHECKS: dict[str, FieldCheck] = {
    "term_start": ((str,), None),
    "weeks": ((int,), 1),
    "seed": ((int,), None),
    "personas": ((list,), None),
}
_PERSONA_CHECKS: dict[str, FieldCheck] = {
    "target_class": ((str,), None),
    "n_users": ((int,), 1),
    "watch_before_problems": ((bool,), None),
    "pacing": ((str,), None),
    "seed_offset": ((int,), None),
}
# A range is a list of two values, each checked as listed.
_RANGE_CHECKS: dict[str, FieldCheck] = {
    "video_watch_range": ((int, float), None),
    "videos_played_range": ((int,), None),
    "problems_attempted_range": ((int,), None),
    "attempts_per_problem_range": ((int,), None),
    "first_score_range": ((int, float), None),
}


def _persona_from_dict(p) -> PersonaSpec:
    if type(p) is not dict:
        raise ValueError(f"a persona must be an object, got {p!r}")
    reject_unknown_keys(p, (f.name for f in fields(PersonaSpec)), "persona keys")
    check_fields(p, _PERSONA_CHECKS)
    ranges = {}
    for key, check in _RANGE_CHECKS.items():
        value = p[key]
        if type(value) is not list or len(value) != 2:
            raise ValueError(f"{key} must be a list of two numbers, got {value!r}")
        for end in value:
            check_fields({key: end}, {key: check})
        ranges[key] = tuple(value)
    return PersonaSpec(
        target_class=OrdinalClass(p["target_class"]),
        n_users=p["n_users"],
        watch_before_problems=p["watch_before_problems"],
        pacing=p.get("pacing", PACING_SPREAD),
        seed_offset=p.get("seed_offset", 0),
        **ranges,
    )


def corpus_spec_from_dict(obj: dict, base_dir: Optional[Path] = None) -> CorpusSpec:
    """Build a spec from its JSON form. An unknown or mistyped key raises
    ValueError naming it, and a missing one KeyError."""
    reject_unknown_keys(obj, {"manifest", "manifest_path", *_SPEC_CHECKS}, "corpus spec keys")
    check_fields(obj, _SPEC_CHECKS)
    if ("manifest" in obj) == ("manifest_path" in obj):
        raise ValueError("corpus spec needs one of 'manifest' and 'manifest_path'")
    if "manifest" in obj:
        manifest = parse_manifest(obj["manifest"])
    else:
        path = Path(obj["manifest_path"])
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        manifest = load_manifest(path)
    return CorpusSpec(
        manifest=manifest,
        personas=tuple(_persona_from_dict(p) for p in obj.get("personas", [])),
        term_start=parse_date(obj["term_start"]),
        weeks=obj["weeks"],
        seed=obj["seed"],
    )


def load_corpus_spec(path: Union[str, Path]) -> CorpusSpec:
    """Load a corpus spec JSON file. Text that is not JSON, or a spec with a
    missing or mistyped key, raises :class:`InputError` naming the file."""
    path = Path(path)
    obj = read_json(path, InputError)
    try:
        if not isinstance(obj, dict):
            raise TypeError("corpus spec must be a JSON object")
        return corpus_spec_from_dict(obj, base_dir=path.parent)
    except KeyError as exc:
        raise InputError(f"{path}: corpus spec lacks the key {exc}")
    except (TypeError, ValueError) as exc:  # ValueError includes manifest errors
        raise InputError(f"{path}: bad corpus spec ({exc})")
