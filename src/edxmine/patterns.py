"""Frequent ordered event-type subsequence mining (PrefixSpan).

Sequences are per-user or per-session streams of event-type symbols.
Patterns are counted by subsequence containment (not necessarily
contiguous), one count per containing sequence. The miner lays the
sequences end to end in one bitset, each followed by a guard bit, and gives
each symbol one Python int marking where it occurs. A pattern is a bitmap of
the positions where an occurrence of it can end; extending it by a symbol is
a few whole-int operations (a subtraction marks everything after each
sequence's first end, an AND with the symbol's bitmap) and its support is a
popcount of the guard bits, so no per-suffix table is built and input
sequences are never copied. This is SPAM's bitmap representation (Ayres et
al., KDD 2002) under PrefixSpan's depth-first growth (Pei et al., ICDE 2001).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import timedelta
from pathlib import Path
from typing import Mapping, Sequence, Union

from .engagement import DEFAULT_PASSING_THRESHOLD, Students
from .events import EventType, RETAINED_EVENT_TYPES
from .sessions import DEFAULT_GAP, group_into_sessions

CHECK_PASS = "check_pass"
CHECK_FAIL = "check_fail"
# The layout byte that ends each sequence in prefixspan; no symbol code.
_GUARD = 255


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


@dataclass(frozen=True, slots=True)
class SymbolSequence:
    symbols: tuple[int, ...]


@dataclass(frozen=True, slots=True)
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

    # Bit i stands for byte i of the layout: each non-empty sequence's codes,
    # then a guard byte. An empty sequence contains no pattern, so it adds
    # no block.
    layout = bytearray()
    blocks = 0
    for seq in sequences:
        if seq.symbols:
            layout += bytes(seq.symbols)
            layout.append(_GUARD)
            blocks += 1
    if layout.count(_GUARD) != blocks:
        raise ValueError(f"symbol codes must be below {_GUARD}")
    if not blocks:
        return []
    # int(..., 2) reads the most significant digit first.
    digits = layout[::-1]

    def bitmap(code: int) -> int:
        table = bytearray(b"0" * 256)
        table[code] = ord("1")
        return int(digits.translate(table), 2)

    guard = bitmap(_GUARD)
    data = ((1 << len(layout)) - 1) ^ guard
    low = ((guard << 1) | 1) & data  # each block's first bit
    bits = {code: bitmap(code) for code in sorted(set(layout) - {_GUARD})}
    found: list[SequencePattern] = []

    # Depth-first growth on an explicit stack, so a pattern may be longer
    # than the interpreter's recursion limit. Each entry is a pattern, the
    # bitmap of where its occurrences can end (unread for the empty
    # pattern, which extends anywhere), and the symbols that may extend it.
    stack: list[tuple[int, tuple[int, ...], list[int]]] = [(0, (), list(bits))]
    while stack:
        ends, prefix, candidates = stack.pop()
        g = ends | guard  # g ^ (g - low): each block's bits up to its first end
        # The positions past the first end of ``prefix`` in each sequence.
        after = data & ~(g ^ (g - low)) if prefix else data
        # prefix + (t, sym) is frequent only if prefix + (sym,) is, so the
        # extensions found here share one list of this level's frequent symbols.
        symbols: list[int] = []
        frequent = []
        for sym in candidates:
            sym_ends = after & bits[sym]
            # Subtracting ``low`` borrows up to each block's lowest set bit and
            # no further, as the guards are set, so a guard survives exactly
            # when its block holds a set bit.
            support = (((sym_ends | guard) - low) & guard).bit_count()
            if support >= min_support:
                pattern = prefix + (sym,)
                found.append(SequencePattern(symbols=pattern, support=support))
                symbols.append(sym)
                frequent.append((sym_ends, pattern, symbols))
        if len(prefix) + 1 < max_len:
            # Popped in symbol order, so ``found`` grows as a recursive descent
            # would grow it.
            stack.extend(reversed(frequent))
    found.sort(key=lambda p: (len(p.symbols), p.symbols))
    return found


@dataclass(frozen=True)
class MiningResult:
    """One class's mining output."""

    patterns: tuple[SequencePattern, ...]
    n_sequences: int


def mine(sequences: Sequence[SymbolSequence], min_support: int, max_len: int = 6) -> MiningResult:
    return MiningResult(tuple(prefixspan(sequences, min_support, max_len)), len(sequences))


def relative_support(support: int, n_sequences: int) -> float:
    return support / n_sequences if n_sequences else 0.0


@dataclass(frozen=True, slots=True)
class ContrastRow:
    symbols: tuple[int, ...]
    gap: float
    supports: tuple[int, ...]  # one per class, in sorted(results) order


def contrast_patterns(results: Mapping[str, MiningResult]) -> list[ContrastRow]:
    """Join per-class mining results on pattern, ranked by the largest
    cross-class relative-support gap. A class that lacks a pattern counts 0."""
    names = sorted(results)
    supports: dict[tuple[int, ...], list[int]] = {}
    for i, name in enumerate(names):
        for pattern in results[name].patterns:
            counts = supports.get(pattern.symbols)
            if counts is None:
                counts = supports[pattern.symbols] = [0] * len(names)
            counts[i] = pattern.support

    sizes = [results[name].n_sequences for name in names]
    rows = []
    for symbols, counts in supports.items():
        rels = [relative_support(support, n) for support, n in zip(counts, sizes)]
        rows.append(ContrastRow(symbols, max(rels) - min(rels), tuple(counts)))
    rows.sort(key=lambda r: (-r.gap, len(r.symbols), r.symbols))
    return rows


# Every field is a fixed symbol name, a CLASS_NAMES entry or a number, so no
# field needs csv quoting and each row is formatted directly.
_HEADER = "pattern,support,relative_support,class\r\n"


def write_patterns_csv(
    path: Union[str, Path],
    result: MiningResult,
    alphabet: SymbolAlphabet,
    class_name: str,
) -> None:
    n = result.n_sequences
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_HEADER)
        for pattern in result.patterns:
            support = pattern.support
            rel = relative_support(support, n)
            handle.write(f"{alphabet.render(pattern.symbols)},{support},{rel!r},{class_name}\r\n")


def write_contrast_csv(
    path: Union[str, Path],
    results: Mapping[str, MiningResult],
    rows: Sequence[ContrastRow],
    alphabet: SymbolAlphabet,
) -> None:
    """``rows`` as :func:`contrast_patterns` gives them for ``results``;
    each row's classes are written in name order."""
    classes = [(name, results[name].n_sequences) for name in sorted(results)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_HEADER)
        for row in rows:
            text = alphabet.render(row.symbols)
            for (name, n), support in zip(classes, row.supports):
                handle.write(f"{text},{support},{relative_support(support, n)!r},{name}\r\n")
