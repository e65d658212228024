"""Frequent ordered event-type subsequence mining (PrefixSpan).

Sequences are per-user or per-session streams of event-type symbols.
Patterns are counted by subsequence containment (not necessarily
contiguous), one count per containing sequence. Before the search, each
(sequence, offset) suffix gets one integer id and a table, built once
backwards over the sequence, of (symbol, id of the suffix after that
symbol's first position) for each distinct symbol in it. The miner grows
patterns depth-first over projected databases kept as lists of suffix ids,
so projecting a suffix reads at most one pair per alphabet symbol instead of
scanning it; input sequences are never copied.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

from .engagement import DEFAULT_PASSING_THRESHOLD, Students
from .events import EventType, RETAINED_EVENT_TYPES
from .sessions import DEFAULT_GAP, group_into_sessions

CHECK_PASS = "check_pass"
CHECK_FAIL = "check_fail"


class ParameterMismatchError(ValueError):
    """Contrast inputs were mined with different parameters."""


@dataclass(frozen=True)
class SymbolAlphabet:
    """Stable symbol-code table; at most 16 symbols."""

    names: tuple[str, ...]

    def render(self, symbols: Sequence[int]) -> str:
        return ">".join(self.names[code] for code in symbols)


def build_alphabet(split_check_outcome: bool = False) -> SymbolAlphabet:
    names = []
    for etype in RETAINED_EVENT_TYPES:
        if split_check_outcome and etype is EventType.PROBLEM_CHECK:
            names.extend([CHECK_PASS, CHECK_FAIL])
        else:
            names.append(etype.value)
    return SymbolAlphabet(names=tuple(names))


@dataclass(frozen=True)
class SymbolSequence:
    symbols: tuple[int, ...]


@dataclass(frozen=True)
class SequencePattern:
    symbols: tuple[int, ...]
    support: int


def encode_sequences(
    students: Students,
    granularity: str = "per_session",
    split_check_outcome: bool = False,
    passing_threshold: float = DEFAULT_PASSING_THRESHOLD,
    gap: timedelta = DEFAULT_GAP,
    collapse_runs: bool = False,
) -> tuple[list[SymbolSequence], SymbolAlphabet]:
    """One symbol sequence per (user, course) student, or per session of
    one, from ``collect_student_events``' states."""
    if granularity not in ("per_user", "per_session"):
        raise ValueError(f"unknown granularity: {granularity!r}")
    alphabet = build_alphabet(split_check_outcome)
    codes = {name: i for i, name in enumerate(alphabet.names)}
    symbol_of_type = [codes.get(etype.value) for etype in RETAINED_EVENT_TYPES]
    check = RETAINED_EVENT_TYPES.index(EventType.PROBLEM_CHECK) if split_check_outcome else None

    sequences: list[SymbolSequence] = []
    for key in sorted(students):
        student = students[key]
        # Rows in the order finalize uses: tied events must not keep their
        # input order, or the output would depend on how the log was split.
        if granularity == "per_user":
            student.sort()
            groups = [range(len(student))]
        else:
            groups = [rows for _, rows in group_into_sessions(student, gap)]
        types = student.types
        for rows in groups:
            symbols: list[int] = []
            for row in rows:
                etype = types[row]
                if etype == check:
                    score = student.check_score(row)
                    passed = score is not None and score >= passing_threshold
                    code = codes[CHECK_PASS if passed else CHECK_FAIL]
                else:
                    code = symbol_of_type[etype]
                if collapse_runs and symbols and symbols[-1] == code:
                    continue
                symbols.append(code)
            if symbols:
                sequences.append(SymbolSequence(symbols=tuple(symbols)))
    return sequences, alphabet


def prefixspan(
    sequences: Sequence[SymbolSequence], min_support: int, max_len: int = 6
) -> list[SequencePattern]:
    """All patterns up to ``max_len`` with subsequence-support >= ``min_support``.

    Output is canonical: sorted by length, then symbol order, regardless of
    input order.
    """
    if min_support < 1:
        raise ValueError("min_support must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")

    # Suffix seq[offset:] has id base + offset, the empty suffix included.
    # first_next[id] pairs each distinct symbol of that suffix with the id of
    # the suffix that follows the symbol's first position.
    first_next: list[tuple[tuple[int, int], ...]] = []
    starts: list[int] = []
    n_symbols = 0
    for seq in sequences:
        symbols = seq.symbols
        base = len(first_next)
        starts.append(base)
        first_next.extend([()] * (len(symbols) + 1))
        first: dict[int, tuple[int, int]] = {}
        for offset in range(len(symbols) - 1, -1, -1):
            sym = symbols[offset]
            first[sym] = (sym, base + offset + 1)
            first_next[base + offset] = tuple(first.values())
        if first:
            n_symbols = max(n_symbols, max(first) + 1)

    found: list[SequencePattern] = []

    def grow(projection: list[int], prefix: tuple[int, ...]) -> None:
        # A suffix id belongs to one sequence, so each posting list counts
        # distinct sequences.
        postings_by_symbol: list[list[int]] = [[] for _ in range(n_symbols)]
        appends = [postings.append for postings in postings_by_symbol]
        for suffix in projection:
            for sym, next_suffix in first_next[suffix]:
                appends[sym](next_suffix)
        for sym, postings in enumerate(postings_by_symbol):
            support = len(postings)
            if support < min_support:
                continue
            pattern = prefix + (sym,)
            found.append(SequencePattern(symbols=pattern, support=support))
            if len(pattern) < max_len:
                grow(postings, pattern)

    grow(starts, ())
    found.sort(key=lambda p: (len(p.symbols), p.symbols))
    return found


@dataclass(frozen=True)
class MiningResult:
    """One class's mining output plus the parameters that produced it."""

    patterns: tuple[SequencePattern, ...]
    n_sequences: int
    params: Mapping


def mine(
    sequences: Sequence[SymbolSequence],
    min_support: int,
    max_len: int = 6,
    params: Optional[Mapping] = None,
) -> MiningResult:
    patterns = prefixspan(sequences, min_support, max_len)
    if params is None:
        params = {"min_support": min_support, "max_len": max_len}
    return MiningResult(
        patterns=tuple(patterns), n_sequences=len(sequences), params=dict(params)
    )


@dataclass(frozen=True)
class ContrastRow:
    symbols: tuple[int, ...]
    gap: float
    per_class: Mapping  # class name -> (support, relative_support)


def contrast_patterns(results: Mapping[str, MiningResult]) -> list[ContrastRow]:
    """Join per-class mining results on pattern, ranked by the largest
    cross-class relative-support gap."""
    items = list(results.items())
    if not items:
        return []
    reference = items[0][1].params
    for name, result in items[1:]:
        if dict(result.params) != dict(reference):
            raise ParameterMismatchError(
                f"mining parameters for {name!r} differ: {dict(result.params)} != {dict(reference)}"
            )

    all_patterns: dict[tuple[int, ...], dict[str, tuple[int, float]]] = {}
    for name, result in items:
        for pattern in result.patterns:
            cell = all_patterns.setdefault(pattern.symbols, {})
            rel = pattern.support / result.n_sequences if result.n_sequences else 0.0
            cell[name] = (pattern.support, rel)

    rows = []
    for symbols, cells in all_patterns.items():
        per_class = {name: cells.get(name, (0, 0.0)) for name, _ in items}
        rels = [rel for _, rel in per_class.values()]
        rows.append(ContrastRow(symbols=symbols, gap=max(rels) - min(rels), per_class=per_class))
    rows.sort(key=lambda r: (-r.gap, len(r.symbols), r.symbols))
    return rows


def write_patterns_csv(
    path: Union[str, Path],
    result: MiningResult,
    alphabet: SymbolAlphabet,
    class_name: str,
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pattern", "support", "relative_support", "class"])
        for pattern in result.patterns:
            rel = pattern.support / result.n_sequences if result.n_sequences else 0.0
            writer.writerow([alphabet.render(pattern.symbols), pattern.support, rel, class_name])


def write_contrast_csv(
    path: Union[str, Path], rows: Sequence[ContrastRow], alphabet: SymbolAlphabet
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pattern", "support", "relative_support", "class"])
        for row in rows:
            pattern = alphabet.render(row.symbols)
            for class_name in sorted(row.per_class):
                support, rel = row.per_class[class_name]
                writer.writerow([pattern, support, rel, class_name])
