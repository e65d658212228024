"""Ordinal behavior classification over per-student aggregates.

Eight categories evaluated as an ordered first-match rule chain. Rules that
reference an absent optional metric simply fail, so every aggregate lands
in exactly one class.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Optional

from .engagement import StudentAggregate


class OrdinalClass(enum.Enum):
    """Declaration order is the rule evaluation order."""

    NO_SHOW = "no_show"
    BOX_CHECKER = "box_checker"
    VOYEUR = "voyeur"
    STUDIER = "studier"
    HIGH_ENGAGEMENT = "high_engagement"
    NORMAL_ENGAGEMENT = "normal_engagement"
    POTENTIALLY_AT_RISK = "potentially_at_risk"
    AT_RISK = "at_risk"


CLASS_NAMES = tuple(c.value for c in OrdinalClass)

#: The type check of one config key: the accepted types, and for a number
#: the least value allowed (None for no bound).
FieldCheck = tuple[tuple[type, ...], Optional[float]]

_TYPE_NAMES = {
    str: "a string", int: "an integer", float: "a number", bool: "true or false",
    list: "a list", dict: "an object", type(None): "null",
}


def _passes(value, types: tuple[type, ...], least: Optional[float]) -> bool:
    if isinstance(value, bool):
        return bool in types
    if not isinstance(value, types):
        return False
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return least is None or not isinstance(value, (int, float)) or value >= least


def check_fields(obj: Mapping, checks: Mapping[str, FieldCheck]) -> None:
    """Check each key of ``obj`` that ``checks`` lists: its value must have
    one of the listed types, and a number must be finite and at least the
    listed bound. A bool is never a number. Run configs and rule configs
    share this check. Raises ValueError naming the key."""
    for key, value in obj.items():
        if key not in checks:
            continue
        types, least = checks[key]
        if _passes(value, types, least):
            continue
        # A number may be an integer, so "an integer" is named only alone.
        expected = " or ".join(_TYPE_NAMES[t] for t in types if t is not int or float not in types)
        if least is not None:
            expected = f"{'a finite number' if float in types else 'an integer'} >= {least:g}"
        raise ValueError(f"{key} must be {expected}, got {value!r}")


def reject_unknown_keys(obj: Mapping, known: Iterable[str], what: str) -> None:
    """Raise ValueError naming the keys of ``obj`` not in ``known``, as
    ``unknown <what>: [...]``. Every config and spec shares this check."""
    unknown = set(obj).difference(known)
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")


@dataclass(frozen=True)
class RuleConfig:
    """Classification thresholds; defaults are the published rule values.

    ``literal_box_checker_ratio`` switches the box-checker second clause to
    the degenerate attempts-to-videos form for fidelity experiments.
    """

    no_show_total: int = 10
    ratio_threshold: float = 0.10
    voyeur_min_videos: int = 20
    attempts_per_problem_max: float = 2.0
    watch_hi: float = 0.8
    watch_mid: float = 0.6
    watch_lo: float = 0.4
    scorer_hi: float = 2.0
    scorer_mid: float = 3.0
    scorer_lo: float = 4.0
    order_min: float = 0.8
    literal_box_checker_ratio: bool = False

    def __post_init__(self) -> None:
        if not (self.watch_lo < self.watch_mid < self.watch_hi):
            raise ValueError("watch thresholds must be strictly increasing")
        if not (self.scorer_hi < self.scorer_mid <= self.scorer_lo):
            raise ValueError("scorer thresholds must satisfy hi < mid <= lo")

    @classmethod
    def from_dict(cls, obj: dict) -> "RuleConfig":
        reject_unknown_keys(obj, _RULE_CHECKS, "rule config keys")
        check_fields(obj, _RULE_CHECKS)
        return cls(**obj)


DEFAULT_RULES = RuleConfig()

# Every threshold is a number >= 0; the one switch is a bool.
_RULE_CHECKS: dict[str, FieldCheck] = {
    f.name: ((bool,), None) if f.type == "bool" else ((int, float), 0) for f in fields(RuleConfig)
}


def classify(agg: StudentAggregate, cfg: RuleConfig = DEFAULT_RULES) -> OrdinalClass:
    """First matching rule wins; total and pure."""
    if agg.n_videos + agg.n_problems < cfg.no_show_total:
        return OrdinalClass.NO_SHOW

    if agg.n_problems > 0 and agg.n_videos / agg.n_problems < cfg.ratio_threshold:
        if cfg.literal_box_checker_ratio:
            # Attempts over videos, as printed; zero videos with any attempts
            # cannot satisfy it.
            if agg.n_videos > 0:
                sparse_attempts = (
                    agg.total_attempts / agg.n_videos < cfg.attempts_per_problem_max
                )
            else:
                sparse_attempts = agg.total_attempts == 0
        else:
            sparse_attempts = (
                agg.mean_attempts_per_problem is not None
                and agg.mean_attempts_per_problem < cfg.attempts_per_problem_max
            )
        if sparse_attempts:
            return OrdinalClass.BOX_CHECKER

    if (
        agg.n_videos > 0
        and agg.n_problems / agg.n_videos < cfg.ratio_threshold
        and agg.n_videos > cfg.voyeur_min_videos
    ):
        return OrdinalClass.VOYEUR

    watch = agg.mean_watch_fraction
    scorer = agg.mean_score_r
    order = agg.order_fraction
    if watch is not None and scorer is not None:
        if watch > cfg.watch_hi and scorer < cfg.scorer_hi:
            if order is not None and order >= cfg.order_min:
                return OrdinalClass.STUDIER
            return OrdinalClass.HIGH_ENGAGEMENT
        if watch > cfg.watch_mid and scorer < cfg.scorer_mid:
            return OrdinalClass.NORMAL_ENGAGEMENT
        if watch > cfg.watch_lo and scorer < cfg.scorer_lo:
            return OrdinalClass.POTENTIALLY_AT_RISK

    return OrdinalClass.AT_RISK
