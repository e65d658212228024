"""The per-suffix-table PrefixSpan that ``edxmine.patterns.prefixspan``
replaced, kept as a reference for its tests.

Each (sequence, offset) suffix gets one integer id and a table, built once
backwards over the sequence, of (symbol, id of the suffix after that
symbol's first position) for each distinct symbol in it. Patterns grow
depth-first over projected databases kept as lists of suffix ids.
"""

from __future__ import annotations

from typing import Sequence

from edxmine.patterns import SequencePattern, SymbolSequence


def reference_prefixspan(
    sequences: Sequence[SymbolSequence], min_support: int, max_len: int = 6
) -> list[SequencePattern]:
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
