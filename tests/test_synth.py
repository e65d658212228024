from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from datetime import date

import pytest

from edxmine.classify import OrdinalClass, classify
from edxmine.engagement import aggregate_corpus
from edxmine.events import ParseStats, parse_events
from edxmine.manifest import manifest_to_dict
from edxmine.synth import (
    PACING_COMPRESSED,
    AmbiguousPersonaError,
    corpus_spec_from_dict,
    corpus_spec_to_dict,
    default_corpus_spec,
    default_personas,
    generate_corpus,
    load_corpus_spec,
    validate_persona,
    write_corpus,
)


class TestValidation:
    def test_default_personas_all_valid(self):
        for persona in default_personas(10):
            validate_persona(persona)

    def test_watch_range_without_margin_rejected(self):
        persona = replace(
            default_personas(5)[3],  # studier
            video_watch_range=(0.82, 0.95),  # too close to the 0.8 guard
        )
        with pytest.raises(AmbiguousPersonaError, match="studier"):
            validate_persona(persona)

    def test_no_show_total_without_clearance_rejected(self):
        persona = replace(
            default_personas(5)[0],
            videos_played_range=(5, 5),
            problems_attempted_range=(5, 5),  # exactly the boundary
        )
        with pytest.raises(AmbiguousPersonaError):
            validate_persona(persona)

    def test_overlapping_earlier_rule_rejected(self):
        # Claims at_risk but watches like a high-engagement student.
        persona = replace(
            default_personas(5)[7],
            video_watch_range=(0.9, 0.95),
        )
        with pytest.raises(AmbiguousPersonaError, match="rule out"):
            validate_persona(persona)

    def test_interaction_free_persona_rejected(self):
        persona = replace(
            default_personas(5)[0],
            videos_played_range=(0, 2),
            problems_attempted_range=(0, 2),
        )
        with pytest.raises(AmbiguousPersonaError, match="at least one content interaction"):
            validate_persona(persona)

    def test_generate_rejects_bad_persona(self):
        spec = default_corpus_spec(users_per_class=2)
        bad = replace(spec.personas[3], video_watch_range=(0.5, 0.95))
        spec = replace(spec, personas=(bad,))
        with pytest.raises(AmbiguousPersonaError):
            generate_corpus(spec)


def _shift_ints(rng, pair, least=0):
    lo = max(pair[0] + rng.randint(-6, 6), least)
    return lo, lo + max(pair[1] - pair[0] + rng.randint(-1, 1), 0)


def _shift_fractions(rng, pair):
    # Steps of 0.05 land exactly on the margin around each threshold.
    lo = min(max(round(pair[0] + 0.05 * rng.randint(-2, 2), 2), 0.0), 1.0)
    return lo, min(round(lo + pair[1] - pair[0] + 0.05 * rng.randint(-1, 1), 2), 1.0)


def _random_persona(rng, bases):
    """A default persona with every range moved a little, its order flag
    drawn, and half the time another target class."""
    base = rng.choice(bases)
    target = base.target_class if rng.random() < 0.5 else rng.choice(list(OrdinalClass))
    return replace(
        base,
        target_class=target,
        video_watch_range=_shift_fractions(rng, base.video_watch_range),
        videos_played_range=_shift_ints(rng, base.videos_played_range),
        problems_attempted_range=_shift_ints(rng, base.problems_attempted_range),
        attempts_per_problem_range=_shift_ints(rng, base.attempts_per_problem_range, 1),
        first_score_range=_shift_fractions(rng, base.first_score_range),
        watch_before_problems=rng.random() < 0.5,
    )


def test_validate_persona_golden_outcomes():
    """Pin the verdict and message of ``validate_persona`` on 20,000 random
    personas near the class boundaries."""
    rng = random.Random(20261019)
    bases = default_personas(5)
    digest = hashlib.sha256()
    accepted = 0
    for _ in range(20_000):
        try:
            validate_persona(_random_persona(rng, bases))
            outcome = "ok"
            accepted += 1
        except AmbiguousPersonaError as exc:
            outcome = str(exc)
        digest.update(outcome.encode() + b"\n")
    assert accepted == 2327
    assert digest.hexdigest() == "d0750131f2a3ce7bc8d7f30ad41fa6aa64c0982f0a3d3bc39d51d13eae977bca"


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        spec = default_corpus_spec(users_per_class=3, seed=99)
        first = generate_corpus(spec)
        second = generate_corpus(spec)
        assert first.lines == second.lines
        assert first.labels == second.labels

    def test_distinct_seeds_distinct_users(self):
        a = generate_corpus(default_corpus_spec(users_per_class=2, seed=1))
        b = generate_corpus(default_corpus_spec(users_per_class=2, seed=2))
        assert {u for u, _ in a.labels}.isdisjoint({u for u, _ in b.labels})
        assert a.lines != b.lines


class TestGeneratedEvents:
    def test_all_lines_retained(self):
        spec = default_corpus_spec(users_per_class=3, seed=5)
        corpus = generate_corpus(spec)
        stats = ParseStats()
        events = list(parse_events(corpus.lines, stats))
        assert stats.malformed == 0
        assert stats.filtered_out == 0
        assert stats.retained == len(corpus.lines)
        assert len(events) == len(corpus.lines)

    def test_round_trip_per_persona(self):
        spec = default_corpus_spec(users_per_class=6, seed=13)
        corpus = generate_corpus(spec)
        events = list(parse_events(corpus.lines))
        labels = dict(corpus.labels)
        aggregates = aggregate_corpus(events, spec.manifest)
        assert len(aggregates) == len(labels)
        for agg in aggregates:
            assert classify(agg).value == labels[agg.user_id], agg.to_dict()

    def test_compressed_pacing_spans_at_most_two_weeks(self):
        spec = default_corpus_spec(users_per_class=4, seed=3, pacing=PACING_COMPRESSED, weeks=52)
        corpus = generate_corpus(spec)
        events = list(parse_events(corpus.lines))
        spans: dict[str, list] = {}
        for ev in events:
            spans.setdefault(ev.user_id, []).append(ev.timestamp)
        for user, stamps in spans.items():
            assert (max(stamps) - min(stamps)).days <= 14, user

    def test_spread_pacing_starts_week_zero(self):
        spec = default_corpus_spec(users_per_class=4, seed=3, weeks=15)
        corpus = generate_corpus(spec)
        events = list(parse_events(corpus.lines))
        first_by_user: dict[str, object] = {}
        for ev in events:
            current = first_by_user.get(ev.user_id)
            if current is None or ev.timestamp < current:
                first_by_user[ev.user_id] = ev.timestamp
        for user, first in first_by_user.items():
            assert (first.date() - spec.term_start).days < 7, user


class TestSpecSerialization:
    def test_dict_round_trip(self):
        spec = default_corpus_spec(users_per_class=2, seed=7)
        again = corpus_spec_from_dict(corpus_spec_to_dict(spec))
        assert again.personas == spec.personas
        assert again.term_start == spec.term_start
        assert again.seed == spec.seed
        assert manifest_to_dict(again.manifest) == manifest_to_dict(spec.manifest)

    def test_load_from_file(self, tmp_path):
        spec = default_corpus_spec(users_per_class=2, seed=7)
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus_spec_to_dict(spec)))
        loaded = load_corpus_spec(path)
        assert loaded.personas == spec.personas

    def test_manifest_path_reference(self, tmp_path):
        spec = default_corpus_spec(users_per_class=1, seed=7)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest_to_dict(spec.manifest)))
        doc = corpus_spec_to_dict(spec)
        del doc["manifest"]
        doc["manifest_path"] = "manifest.json"
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(doc))
        loaded = load_corpus_spec(path)
        assert manifest_to_dict(loaded.manifest) == manifest_to_dict(spec.manifest)

    def test_missing_manifest_key(self):
        with pytest.raises(ValueError, match="manifest"):
            corpus_spec_from_dict({"term_start": "2021-01-01", "weeks": 2, "seed": 1})


class TestWriteCorpus:
    def test_files_written(self, tmp_path):
        corpus = generate_corpus(default_corpus_spec(users_per_class=1, seed=11))
        events_path, labels_path = write_corpus(corpus, tmp_path)
        assert events_path.read_text().count("\n") == len(corpus.lines)
        rows = labels_path.read_text().splitlines()
        assert rows[0] == "user_id,class"
        assert len(rows) == 1 + len(corpus.labels)
