"""Seeded comparison of ``edxmine.patterns.prefixspan`` with the per-suffix
miner it replaced, kept in ``reference_prefixspan``.

The databases hold empty sequences, a single sequence, layouts that cross
64, 128 and 1,000 bits, sparse symbol codes, ``max_len`` 1, ``min_support``
equal to and above the number of sequences, and the per-session and per-user
sequences (check outcomes split) of each class of a synth corpus. Both miners
must return the same pattern list for every database. A ``max_len`` of 10**6
must give the reference's patterns at the longest sequence's length, with
under 1 MB traced.

The module needs no pytest, so other interpreters can run it directly::

    PYTHONPATH=src:tests python tests/test_prefixspan_reference.py [databases-per-seed] [extra-seeds]
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from typing import Iterator, NamedTuple

from edxmine.engagement import collect_student_events
from edxmine.events import parse_events
from edxmine.patterns import SymbolSequence, encode_sequences, prefixspan
from edxmine.synth import default_corpus_spec, generate_corpus

from reference_prefixspan import reference_prefixspan

SEED = 1616
DATABASES_PER_SEED = 40
# A sequence of length k takes k + 1 bits, so these put layouts on both
# sides of 64, 128 and 1,000 bits.
LENGTHS = (0, 1, 2, 5, 62, 63, 64, 126, 127, 128, 998, 999, 1000)


class Case(NamedTuple):
    label: str
    sequences: list[SymbolSequence]
    min_support: int
    max_len: int


def seqs(*symbol_lists) -> list[SymbolSequence]:
    return [SymbolSequence(symbols=tuple(s)) for s in symbol_lists]


def edge_cases() -> list[Case]:
    rng = random.Random(SEED)
    sparse = [[rng.choice((0, 15)) for _ in range(rng.randint(0, 9))] for _ in range(12)]
    three = seqs([0, 1, 2], [2, 0, 1, 1], [1, 0])
    cases = [
        Case("no sequences", [], 1, 3),
        Case("only empty sequences", seqs([], [], []), 1, 3),
        Case("empty sequences among others", seqs([], [0, 1], [], [1, 0], []), 2, 3),
        Case("a single sequence", seqs([3, 1, 3, 2, 1]), 1, 5),
        Case("sparse codes 0 and 15", seqs(*sparse), 2, 4),
        Case("max_len 1", three, 1, 1),
        Case("min_support equal to n", three, 3, 3),
        Case("min_support above n", three, 4, 3),
    ]
    for length in LENGTHS:
        one = [rng.randrange(16) for _ in range(length)]
        cases.append(Case(f"one sequence of {length}", seqs(one), 1, 2))
        cases.append(Case(f"{length} then 1", seqs(one, [one[-1] if one else 0]), 2, 3))
    return cases


def random_databases(seed: int, count: int) -> Iterator[Case]:
    """``count`` databases over a random few of the 16 codes, a random share
    of them long, with supports from 1 to above the number of sequences."""
    rng = random.Random(seed)
    for i in range(count):
        codes = rng.sample(range(16), rng.choice((1, 2, 3, 5, 16)))
        lengths = [rng.choice(LENGTHS[:4]) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.4:
            lengths[rng.randrange(len(lengths))] = rng.choice(LENGTHS[4:])
        sequences = seqs(*[[rng.choice(codes) for _ in range(k)] for k in lengths])
        n = len(sequences)
        min_support = rng.choice((1, 2, max(1, n // 2), n, n + 1))
        max_len = rng.choice((1, 2, 3) if max(lengths) > 5 else (1, 2, 3, 5))
        yield Case(f"seed {seed} database {i}", sequences, min_support, max_len)


def synth_cases(seed: int) -> Iterator[Case]:
    """Each class's per-session and per-user sequences of a small synth
    corpus, check outcomes split, at a low and a high support."""
    corpus = generate_corpus(default_corpus_spec(users_per_class=3, seed=seed))
    class_of = dict(corpus.labels)
    by_class: dict[str, dict] = {}
    for key, student in collect_student_events(parse_events(corpus.lines)).items():
        by_class.setdefault(class_of[key[0]], {})[key] = student
    for name, students in sorted(by_class.items()):
        for granularity, max_len in (("per_session", 5), ("per_user", 3)):
            sequences, _ = encode_sequences(
                students, granularity=granularity, split_check_outcome=True
            )
            n = len(sequences)
            for min_support in sorted({1 if granularity == "per_session" else n, max(1, n // 2)}):
                yield Case(
                    f"seed {seed} {name} {granularity} support {min_support}",
                    sequences, min_support, max_len,
                )


def check(case: Case) -> None:
    expected = reference_prefixspan(case.sequences, case.min_support, case.max_len)
    mined = prefixspan(case.sequences, case.min_support, case.max_len)
    assert mined == expected, f"{case.label}: {len(mined)} patterns, reference {len(expected)}"


def check_huge_max_len() -> None:
    """A ``max_len`` far above every sequence's length gives the patterns of
    ``max_len`` equal to the longest length, and allocates nothing for the
    lengths no pattern reaches."""
    sequences = seqs([0, 1, 2, 0], [1, 2, 0, 1, 2], [2, 2, 1], [])
    longest = max(len(seq.symbols) for seq in sequences)
    expected = reference_prefixspan(sequences, 1, longest)
    tracemalloc.start()
    try:
        mined = prefixspan(sequences, 1, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mined == expected, f"max_len 10**6: {len(mined)} patterns, reference {len(expected)}"
    assert peak < 1 << 20, f"max_len 10**6: peak {peak} bytes traced"


def test_huge_max_len():
    check_huge_max_len()


def test_edge_cases():
    for case in edge_cases():
        check(case)


def test_random_databases():
    for case in random_databases(SEED, DATABASES_PER_SEED):
        check(case)


def test_synth_corpus_classes():
    for case in synth_cases(SEED):
        check(case)


def main(argv: list[str]) -> int:
    """Check a huge ``max_len`` and the edge cases, then ``count`` random
    databases and the synth corpus classes on the default seed and on
    ``extra`` more seeds."""
    count = int(argv[0]) if argv else DATABASES_PER_SEED
    extra = int(argv[1]) if len(argv) > 1 else 3
    failed = 0
    batches = [("edge cases", edge_cases())] + [
        (f"seed {seed}", [*random_databases(seed, count), *synth_cases(seed)])
        for seed in range(SEED, SEED + extra + 1)
    ]
    try:
        check_huge_max_len()
    except AssertionError as exc:
        failed += 1
        print(f"FAIL {exc}")
    for name, cases in batches:
        for case in cases:
            try:
                check(case)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {exc}")
        print(f"{name}: {len(cases)} databases checked")
    print(f"python {sys.version.split()[0]}: {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
