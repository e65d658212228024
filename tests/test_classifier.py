from __future__ import annotations

import random

import pytest

from edxmine.classify import CLASS_NAMES, OrdinalClass, RuleConfig, classify
from edxmine.engagement import StudentAggregate


def agg(
    n_videos=0,
    n_problems=0,
    total_attempts=0,
    mean_attempts_per_problem=None,
    mean_watch_fraction=None,
    mean_score_r=None,
    order_fraction=None,
) -> StudentAggregate:
    return StudentAggregate(
        user_id="u",
        course_instance="c",
        n_videos=n_videos,
        n_problems=n_problems,
        total_attempts=total_attempts,
        mean_attempts_per_problem=mean_attempts_per_problem,
        mean_watch_fraction=mean_watch_fraction,
        mean_score_r=mean_score_r,
        order_fraction=order_fraction,
    )


class TestRuleExamples:
    def test_no_show(self):
        assert classify(agg(n_videos=3, n_problems=2)) is OrdinalClass.NO_SHOW

    def test_voyeur(self):
        assert classify(agg(n_videos=25, n_problems=1, total_attempts=1)) is OrdinalClass.VOYEUR

    def test_box_checker(self):
        candidate = agg(
            n_videos=2, n_problems=40, total_attempts=60, mean_attempts_per_problem=1.5
        )
        assert classify(candidate) is OrdinalClass.BOX_CHECKER

    def test_studier(self):
        candidate = agg(
            n_videos=30, n_problems=30, total_attempts=30,
            mean_attempts_per_problem=1.0, mean_watch_fraction=0.9,
            mean_score_r=1.5, order_fraction=0.9,
        )
        assert classify(candidate) is OrdinalClass.STUDIER

    def test_high_engagement_when_order_low(self):
        candidate = agg(
            n_videos=30, n_problems=30, total_attempts=30,
            mean_attempts_per_problem=1.0, mean_watch_fraction=0.9,
            mean_score_r=1.5, order_fraction=0.3,
        )
        assert classify(candidate) is OrdinalClass.HIGH_ENGAGEMENT

    def test_high_engagement_when_order_absent(self):
        candidate = agg(
            n_videos=30, n_problems=30, total_attempts=30,
            mean_attempts_per_problem=1.0, mean_watch_fraction=0.9, mean_score_r=1.5,
        )
        assert classify(candidate) is OrdinalClass.HIGH_ENGAGEMENT

    def test_normal_engagement(self):
        candidate = agg(
            n_videos=30, n_problems=30, total_attempts=60,
            mean_attempts_per_problem=2.0, mean_watch_fraction=0.65, mean_score_r=2.5,
        )
        assert classify(candidate) is OrdinalClass.NORMAL_ENGAGEMENT

    def test_at_risk_default(self):
        candidate = agg(
            n_videos=30, n_problems=30, total_attempts=150,
            mean_attempts_per_problem=5.0, mean_watch_fraction=0.2, mean_score_r=3.9,
        )
        assert classify(candidate) is OrdinalClass.AT_RISK

    def test_zero_videos_satisfies_box_ratio(self):
        candidate = agg(n_problems=40, total_attempts=40, mean_attempts_per_problem=1.0)
        assert classify(candidate) is OrdinalClass.BOX_CHECKER

    def test_zero_problems_satisfies_voyeur_ratio(self):
        assert classify(agg(n_videos=21)) is OrdinalClass.VOYEUR


class TestBoundaryStrictness:
    def test_total_exactly_ten_not_no_show(self):
        assert classify(agg(n_videos=5, n_problems=5, total_attempts=20,
                            mean_attempts_per_problem=4.0)) is OrdinalClass.AT_RISK

    def test_total_nine_is_no_show(self):
        assert classify(agg(n_videos=5, n_problems=4)) is OrdinalClass.NO_SHOW

    def test_watch_exactly_hi_drops_to_normal(self):
        candidate = agg(
            n_videos=20, n_problems=20, total_attempts=20,
            mean_attempts_per_problem=1.0, mean_watch_fraction=0.8,
            mean_score_r=1.0, order_fraction=1.0,
        )
        assert classify(candidate) is OrdinalClass.NORMAL_ENGAGEMENT

    def test_watch_exactly_mid_drops_to_potentially_at_risk(self):
        candidate = agg(
            n_videos=20, n_problems=20, total_attempts=20,
            mean_attempts_per_problem=1.0, mean_watch_fraction=0.6, mean_score_r=2.5,
        )
        assert classify(candidate) is OrdinalClass.POTENTIALLY_AT_RISK

    def test_watch_exactly_lo_drops_to_at_risk(self):
        candidate = agg(
            n_videos=20, n_problems=20, total_attempts=60,
            mean_attempts_per_problem=3.0, mean_watch_fraction=0.4, mean_score_r=3.5,
        )
        assert classify(candidate) is OrdinalClass.AT_RISK

    def test_scorer_exactly_hi_drops_to_normal(self):
        candidate = agg(
            n_videos=20, n_problems=20, total_attempts=40,
            mean_attempts_per_problem=2.0, mean_watch_fraction=0.9,
            mean_score_r=2.0, order_fraction=1.0,
        )
        assert classify(candidate) is OrdinalClass.NORMAL_ENGAGEMENT

    def test_scorer_exactly_mid_drops_to_potentially_at_risk(self):
        candidate = agg(
            n_videos=20, n_problems=20, total_attempts=60,
            mean_attempts_per_problem=3.0, mean_watch_fraction=0.65, mean_score_r=3.0,
        )
        assert classify(candidate) is OrdinalClass.POTENTIALLY_AT_RISK

    def test_scorer_exactly_lo_drops_to_at_risk(self):
        candidate = agg(
            n_videos=20, n_problems=20, total_attempts=120,
            mean_attempts_per_problem=6.0, mean_watch_fraction=0.5, mean_score_r=4.0,
        )
        assert classify(candidate) is OrdinalClass.AT_RISK

    def test_videos_exactly_twenty_not_voyeur(self):
        assert classify(agg(n_videos=20, n_problems=0)) is OrdinalClass.AT_RISK

    def test_ratio_exactly_threshold_not_box(self):
        candidate = agg(n_videos=2, n_problems=20, total_attempts=20,
                        mean_attempts_per_problem=1.0)
        assert classify(candidate) is OrdinalClass.AT_RISK

    def test_ratio_exactly_threshold_not_voyeur(self):
        assert classify(agg(n_videos=30, n_problems=3, total_attempts=9,
                            mean_attempts_per_problem=3.0)) is OrdinalClass.AT_RISK

    def test_order_exactly_min_is_studier(self):
        # The ordering gate is non-strict.
        candidate = agg(
            n_videos=20, n_problems=20, total_attempts=20,
            mean_attempts_per_problem=1.0, mean_watch_fraction=0.9,
            mean_score_r=1.0, order_fraction=0.8,
        )
        assert classify(candidate) is OrdinalClass.STUDIER


class TestRuleConfig:
    def test_defaults(self):
        cfg = RuleConfig()
        assert cfg.no_show_total == 10
        assert cfg.ratio_threshold == 0.10
        assert cfg.voyeur_min_videos == 20
        assert cfg.watch_hi == 0.8 and cfg.watch_mid == 0.6 and cfg.watch_lo == 0.4
        assert cfg.scorer_hi == 2.0 and cfg.scorer_mid == 3.0 and cfg.scorer_lo == 4.0
        assert cfg.order_min == 0.8

    def test_from_dict(self):
        cfg = RuleConfig.from_dict({"watch_hi": 0.9, "no_show_total": 5})
        assert cfg.watch_hi == 0.9
        assert cfg.no_show_total == 5
        assert cfg.watch_mid == 0.6

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            RuleConfig.from_dict({"watch_high": 0.9})

    def test_bad_ordering_rejected(self):
        with pytest.raises(ValueError):
            RuleConfig(watch_lo=0.7, watch_mid=0.6, watch_hi=0.8)

    def test_literal_box_checker_ratio(self):
        candidate = agg(n_videos=2, n_problems=40, total_attempts=60,
                        mean_attempts_per_problem=1.5)
        literal = RuleConfig(literal_box_checker_ratio=True)
        # 60 attempts / 2 videos = 30, not under the limit.
        assert classify(candidate, literal) is not OrdinalClass.BOX_CHECKER
        sparse = agg(n_videos=40, n_problems=0)  # ratio requires problems
        assert classify(sparse, literal) is OrdinalClass.VOYEUR

    def test_class_names_export(self):
        assert len(CLASS_NAMES) == 8
        assert CLASS_NAMES[0] == "no_show"
        assert CLASS_NAMES[-1] == "at_risk"


class TestProperties:
    def test_totality_on_random_aggregates(self):
        rng = random.Random(31)
        for _ in range(500):
            candidate = agg(
                n_videos=rng.randint(0, 60),
                n_problems=rng.randint(0, 60),
                total_attempts=rng.randint(0, 200),
                mean_attempts_per_problem=rng.choice([None, rng.uniform(0, 8)]),
                mean_watch_fraction=rng.choice([None, rng.uniform(0, 1)]),
                mean_score_r=rng.choice([None, rng.uniform(1, 4)]),
                order_fraction=rng.choice([None, rng.uniform(0, 1)]),
            )
            assert classify(candidate) in OrdinalClass

    def test_deterministic(self):
        candidate = agg(n_videos=12, n_problems=9, total_attempts=9,
                        mean_attempts_per_problem=1.0, mean_watch_fraction=0.9,
                        mean_score_r=1.2, order_fraction=1.0)
        assert classify(candidate) is classify(candidate)

    def test_monotone_in_scorer(self):
        # Engagement rank can only degrade as the retry index grows.
        rank = {
            OrdinalClass.STUDIER: 0,
            OrdinalClass.HIGH_ENGAGEMENT: 1,
            OrdinalClass.NORMAL_ENGAGEMENT: 2,
            OrdinalClass.POTENTIALLY_AT_RISK: 3,
            OrdinalClass.AT_RISK: 4,
        }
        rng = random.Random(41)
        for _ in range(100):
            watch = rng.uniform(0, 1)
            order = rng.choice([None, rng.uniform(0, 1)])
            previous = -1
            for scorer in [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]:
                candidate = agg(
                    n_videos=20, n_problems=20, total_attempts=40,
                    mean_attempts_per_problem=2.0, mean_watch_fraction=watch,
                    mean_score_r=scorer, order_fraction=order,
                )
                current = rank[classify(candidate)]
                assert current >= previous
                previous = current
