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
from itertools import chain
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
        return ">".join(map(self.names.__getitem__, symbols))


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
    input order. The growth below finds each length's patterns in that
    order, so no sort is needed.
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
    # levels[k] holds the patterns of length k + 1. A level is added only
    # when a pattern reaches it, so ``max_len`` costs nothing until then.
    levels: list[list[SequencePattern]] = []

    # Depth-first growth on an explicit stack, so a pattern may be longer
    # than the interpreter's recursion limit. Each entry is a pattern, the
    # bitmap of where its occurrences can end (unread for the empty
    # pattern, which extends anywhere), and the symbols that may extend it.
    # Entries are popped in symbol order, so each level is filled in symbol
    # order: a pre-order walk of the pattern tree.
    stack: list[tuple[int, tuple[int, ...], list[int]]] = [(0, (), list(bits))]
    while stack:
        ends, prefix, candidates = stack.pop()
        depth = len(prefix)
        if depth == len(levels):
            levels.append([])
        found = levels[depth]
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
                found.append(SequencePattern(pattern, support))
                symbols.append(sym)
                frequent.append((sym_ends, pattern, symbols))
        if depth + 1 < max_len:
            stack.extend(reversed(frequent))
    return list(chain.from_iterable(levels))


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


class _Relative(dict):
    """One class's relative support by support. A class has at most
    ``n_sequences + 1`` supports, so each is divided once."""

    def __init__(self, n_sequences: int):
        super().__init__()
        self.n_sequences = n_sequences

    def __missing__(self, support: int) -> float:
        rel = self[support] = relative_support(support, self.n_sequences)
        return rel


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

    rel_of = [_Relative(results[name].n_sequences) for name in names]
    rows = []
    for symbols, counts in supports.items():
        rels = list(map(_Relative.__getitem__, rel_of, counts))
        rows.append(ContrastRow(symbols, max(rels) - min(rels), tuple(counts)))
    rows.sort(key=lambda r: (-r.gap, len(r.symbols), r.symbols))
    return rows


# Every field is a fixed symbol name, a CLASS_NAMES entry or a number, so no
# field needs csv quoting and each row is formatted directly.
_HEADER = "pattern,support,relative_support,class\r\n"


class _Tails(dict):
    """One class's line endings by support: the text that follows the
    pattern on each of its lines. A class has at most ``n_sequences + 1``
    supports, so each ending is formatted once."""

    def __init__(self, n_sequences: int, class_name: str):
        super().__init__()
        self.n_sequences = n_sequences
        self.class_name = class_name

    def __missing__(self, support: int) -> str:
        rel = relative_support(support, self.n_sequences)
        tail = self[support] = f",{support},{rel!r},{self.class_name}\r\n"
        return tail


def write_patterns_csv(
    path: Union[str, Path],
    result: MiningResult,
    alphabet: SymbolAlphabet,
    class_name: str,
) -> None:
    render = alphabet.render
    tails = _Tails(result.n_sequences, class_name)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write = handle.write
        write(_HEADER)
        for pattern in result.patterns:
            write(render(pattern.symbols) + tails[pattern.support])


def write_contrast_csv(
    path: Union[str, Path],
    results: Mapping[str, MiningResult],
    rows: Sequence[ContrastRow],
    alphabet: SymbolAlphabet,
) -> None:
    """``rows`` as :func:`contrast_patterns` gives them for ``results``;
    each row's classes are written in name order."""
    render = alphabet.render
    classes = [_Tails(results[name].n_sequences, name) for name in sorted(results)]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        write = handle.write
        write(_HEADER)
        for row in rows:
            text = render(row.symbols)
            for tails, support in zip(classes, row.supports):
                write(text + tails[support])
