from __future__ import annotations

import csv
import itertools
import random
from collections import Counter

import pytest

from edxmine.engagement import collect_student_events
from edxmine.patterns import (
    CHECK_FAIL,
    CHECK_PASS,
    ContrastRow,
    MiningResult,
    SequencePattern,
    SymbolSequence,
    build_alphabet,
    contrast_patterns,
    encode_sequences,
    mine,
    prefixspan,
    write_contrast_csv,
    write_patterns_csv,
)
from conftest import bare_event, problem_event, video_event


def seqs(*symbol_lists) -> list[SymbolSequence]:
    return [SymbolSequence(symbols=tuple(s)) for s in symbol_lists]


def brute_force(sequences, min_support, max_len) -> dict[tuple, int]:
    """All subsequences up to max_len, counted once per containing sequence."""
    counts: Counter = Counter()
    for seq in sequences:
        symbols = seq.symbols
        found = set()
        for length in range(1, min(max_len, len(symbols)) + 1):
            for positions in itertools.combinations(range(len(symbols)), length):
                found.add(tuple(symbols[i] for i in positions))
        counts.update(found)
    return {pattern: n for pattern, n in counts.items() if n >= min_support}


def is_subsequence(pattern, symbols) -> bool:
    it = iter(symbols)
    return all(any(s == p for s in it) for p in pattern)


class TestPrefixSpan:
    def test_three_sequence_example(self):
        a, b, c = 0, 1, 2
        result = prefixspan(seqs([a, b, c], [a, c], [b, c]), min_support=2, max_len=3)
        expected = {
            (a,): 2,
            (b,): 2,
            (c,): 3,
            (a, c): 2,
            (b, c): 2,
        }
        assert {p.symbols: p.support for p in result} == expected

    def test_empty_database(self):
        assert prefixspan([], min_support=1, max_len=3) == []

    def test_single_sequence_support_one(self):
        a, b = 0, 1
        result = prefixspan(seqs([a, b]), min_support=1, max_len=2)
        assert {p.symbols: p.support for p in result} == {(a,): 1, (b,): 1, (a, b): 1}

    def test_pattern_longer_than_the_recursion_limit(self):
        # Each run of one symbol is a pattern, and the longest run here is
        # longer than the interpreter's default recursion limit of 1,000.
        result = prefixspan(seqs([0] * 1500), min_support=1, max_len=2000)
        assert [(p.symbols, p.support) for p in result] == [((0,) * k, 1) for k in range(1, 1501)]

    def test_max_len_bounds_output(self):
        a = 0
        result = prefixspan(seqs([a, a, a, a]), min_support=1, max_len=2)
        assert max(len(p.symbols) for p in result) == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            prefixspan([], min_support=0, max_len=3)
        with pytest.raises(ValueError):
            prefixspan([], min_support=1, max_len=0)
        with pytest.raises(ValueError):  # 255 is the layout's guard byte
            prefixspan(seqs([0, 255]), min_support=1, max_len=3)

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(4)
        for _ in range(60):
            sequences = seqs(
                *[
                    [rng.randrange(4) for _ in range(rng.randint(1, 10))]
                    for _ in range(rng.randint(1, 8))
                ]
            )
            min_support = rng.choice([1, 2, 3])
            max_len = rng.choice([2, 3, 4])
            mined = prefixspan(sequences, min_support, max_len)
            assert {p.symbols: p.support for p in mined} == brute_force(
                sequences, min_support, max_len
            )

    @pytest.mark.parametrize("n_symbols", [16, 17])
    def test_long_sequences_over_full_alphabet(self, n_symbols):
        """Supports match a direct recount, and no frequent one-symbol
        extension of the empty prefix or of a reported pattern is missing."""
        rng = random.Random(n_symbols)

        def runs(length):
            out = []
            while len(out) < length:
                out += [rng.randrange(n_symbols)] * rng.randint(3, 20)
            return out[:length]

        uniform = [[rng.randrange(n_symbols) for _ in range(rng.randint(40, 110))] for _ in range(10)]
        single_runs = [runs(rng.randint(40, 110)) for _ in range(10)]
        mixed = [[rng.randrange(n_symbols)] for _ in range(6)] + single_runs[:3] + uniform[:3]
        for corpus, min_support, max_len in [
            (uniform, 9, 3),
            (single_runs, 2, 4),
            (mixed, 2, 3),
        ]:
            sequences = seqs(*corpus)
            mined = prefixspan(sequences, min_support, max_len)
            supports = {p.symbols: p.support for p in mined}
            assert len(supports) == len(mined)

            def direct(pattern):
                return sum(1 for s in sequences if is_subsequence(pattern, s.symbols))

            for pattern, support in supports.items():
                assert direct(pattern) == support
            for prefix in [()] + [p for p in supports if len(p) < max_len]:
                for sym in range(n_symbols):
                    extension = prefix + (sym,)
                    if extension not in supports:
                        assert direct(extension) < min_support

    def test_anti_monotonic_prefix_support(self):
        rng = random.Random(8)
        sequences = seqs(
            *[[rng.randrange(4) for _ in range(10)] for _ in range(8)]
        )
        mined = prefixspan(sequences, min_support=2, max_len=4)
        supports = {p.symbols: p.support for p in mined}
        for pattern in mined:
            for cut in range(1, len(pattern.symbols)):
                assert supports[pattern.symbols[:cut]] >= pattern.support

    def test_support_by_direct_scan(self):
        rng = random.Random(12)
        sequences = seqs(
            *[[rng.randrange(3) for _ in range(rng.randint(2, 9))] for _ in range(6)]
        )
        for pattern in prefixspan(sequences, min_support=1, max_len=3):
            direct = sum(1 for s in sequences if is_subsequence(pattern.symbols, s.symbols))
            assert direct == pattern.support

    def test_canonical_order_independent_of_input(self):
        rng = random.Random(16)
        sequences = seqs(*[[rng.randrange(3) for _ in range(6)] for _ in range(6)])
        base = prefixspan(sequences, min_support=2, max_len=3)
        for _ in range(5):
            shuffled = sequences[:]
            rng.shuffle(shuffled)
            assert prefixspan(shuffled, min_support=2, max_len=3) == base
        lengths = [len(p.symbols) for p in base]
        assert lengths == sorted(lengths)


class TestEncodeSequences:
    def test_single_event(self):
        sequences, alphabet = encode_sequences(
            collect_student_events([video_event("play_video", t=0)])
        )
        assert len(sequences) == 1
        assert alphabet.render(sequences[0].symbols) == "play_video"

    def test_zero_events(self):
        sequences, _ = encode_sequences({})
        assert sequences == []

    def test_split_check_outcome(self):
        events = [
            problem_event("problem_check", t=0, grade=0, max_grade=1),
            problem_event("problem_check", t=10, grade=1, max_grade=1),
        ]
        sequences, alphabet = encode_sequences(
            collect_student_events(events), split_check_outcome=True
        )
        assert alphabet.render(sequences[0].symbols) == f"{CHECK_FAIL}>{CHECK_PASS}"

    @pytest.mark.parametrize("grade, max_grade, score_r, symbol", [
        (7, 10, 1, CHECK_PASS),  # exactly the threshold passes
        (69, 100, 4, CHECK_FAIL),
    ])
    def test_check_outcome_and_score_r_share_the_pass_rule(
        self, grade, max_grade, score_r, symbol
    ):
        students = collect_student_events(
            [problem_event("problem_check", grade=grade, max_grade=max_grade)]
        )
        (state,) = students.values()
        assert state.problem_record(range(len(state)), passing_threshold=0.7).score_r == score_r
        sequences, alphabet = encode_sequences(
            students, split_check_outcome=True, passing_threshold=0.7
        )
        assert alphabet.render(sequences[0].symbols) == symbol

    def test_alphabet_size_cap(self):
        assert len(build_alphabet(False).names) == 15
        assert len(build_alphabet(True).names) == 16

    def test_per_user_vs_per_session(self):
        events = [
            bare_event("problem_show", t=0, session="s1"),
            bare_event("problem_show", t=10_000, session="s2"),
        ]
        per_user, _ = encode_sequences(collect_student_events(events), granularity="per_user")
        per_session, _ = encode_sequences(collect_student_events(events), granularity="per_session")
        assert len(per_user) == 1
        assert len(per_user[0].symbols) == 2
        assert len(per_session) == 2

    @pytest.mark.parametrize("granularity", ["per_user", "per_session"])
    def test_course_instances_not_spliced(self, granularity):
        events = [
            bare_event("problem_show", t=0, course="c1", session="s1"),
            video_event("play_video", t=5, course="c2", session="s1"),
            bare_event("problem_show", t=10, course="c1", session="s1"),
            video_event("pause_video", t=15, course="c2", session="s1"),
        ]
        sequences, alphabet = encode_sequences(
            collect_student_events(events), granularity=granularity
        )
        assert [alphabet.render(s.symbols) for s in sequences] == [
            "problem_show>problem_show",
            "play_video>pause_video",
        ]

    def test_collapse_runs(self):
        events = [bare_event("problem_show", t=i) for i in range(4)]
        kept, _ = encode_sequences(collect_student_events(events))
        collapsed, _ = encode_sequences(collect_student_events(events), collapse_runs=True)
        assert len(kept[0].symbols) == 4
        assert len(collapsed[0].symbols) == 1

    def test_unknown_granularity(self):
        with pytest.raises(ValueError):
            encode_sequences({}, granularity="per_week")


class TestContrast:
    def _result(self, patterns: dict[tuple, int], n: int) -> MiningResult:
        return MiningResult(
            patterns=tuple(
                SequencePattern(symbols=s, support=c) for s, c in sorted(patterns.items())
            ),
            n_sequences=n,
        )

    def test_identical_results_zero_gap(self):
        result = self._result({(0,): 2}, 4)
        rows = contrast_patterns({"a": result, "b": result})
        assert all(row.gap == 0.0 for row in rows)

    def test_single_class_pattern(self):
        rows = contrast_patterns(
            {"a": self._result({(0,): 2}, 4), "b": self._result({}, 4)}
        )
        assert rows[0].gap == 0.5
        assert rows[0].supports == (2, 0)

    def test_gap_ranking(self):
        rows = contrast_patterns(
            {
                "a": self._result({(0,): 9, (1,): 5}, 10),
                "b": self._result({(0,): 1, (1,): 5}, 10),
            }
        )
        assert rows[0].symbols == (0,)
        assert rows[0].gap == pytest.approx(0.8)
        assert rows[1].gap == pytest.approx(0.0)

    def test_three_classes_given_out_of_name_order(self):
        rows = contrast_patterns(
            {
                "c": self._result({(0,): 3, (1,): 1}, 4),
                "a": self._result({(0,): 1}, 2),
                "b": self._result({(1,): 5, (2,): 2}, 10),
            }
        )
        # Supports follow the names' sorted order, with 0 where a class lacks the pattern.
        assert rows == [
            ContrastRow(symbols=(0,), gap=0.75, supports=(1, 0, 3)),
            ContrastRow(symbols=(1,), gap=0.5, supports=(0, 5, 1)),
            ContrastRow(symbols=(2,), gap=0.2, supports=(0, 2, 0)),
        ]


def test_records_have_slots_and_no_dict():
    records = [
        SymbolSequence(symbols=(0, 1)),
        SequencePattern(symbols=(0,), support=2),
        ContrastRow(symbols=(0,), gap=0.5, supports=(2, 0)),
    ]
    for record in records:
        assert type(record).__slots__
        assert not hasattr(record, "__dict__")


class TestCsvOutput:
    def test_patterns_csv(self, tmp_path):
        sequences, alphabet = encode_sequences(
            collect_student_events(
                [video_event("play_video", t=0), video_event("pause_video", t=5)]
            )
        )
        result = mine(sequences, min_support=1, max_len=2)
        path = tmp_path / "patterns.csv"
        write_patterns_csv(path, result, alphabet, class_name="studier")
        lines = path.read_text().splitlines()
        assert lines[0] == "pattern,support,relative_support,class"
        assert any("play_video>pause_video" in line for line in lines)

    def test_contrast_csv(self, tmp_path):
        sequences, alphabet = encode_sequences(
            collect_student_events([video_event("play_video", t=0)])
        )
        result = mine(sequences, min_support=1, max_len=2)
        results = {"a": result, "b": result}
        path = tmp_path / "contrast.csv"
        write_contrast_csv(path, results, contrast_patterns(results), alphabet)
        lines = path.read_text().splitlines()
        assert lines[0] == "pattern,support,relative_support,class"
        assert len(lines) == 3  # one pattern, two classes

    def test_files_parse_back_to_the_rows(self, tmp_path):
        alphabet = build_alphabet(split_check_outcome=True)
        studier = mine(seqs([0, 1, 2], [1, 2], [2, 0, 1]), min_support=1, max_len=3)
        voyeur = mine(seqs([2, 1], [0, 3, 3]), min_support=1, max_len=3)
        results = {"voyeur": voyeur, "studier": studier}
        rows = contrast_patterns(results)
        write_patterns_csv(tmp_path / "patterns.csv", studier, alphabet, class_name="studier")
        write_contrast_csv(tmp_path / "contrast.csv", results, rows, alphabet)

        def read(name):
            with open(tmp_path / name, encoding="utf-8", newline="") as handle:
                header, *body = csv.reader(handle)
            assert header == ["pattern", "support", "relative_support", "class"]
            return [(text, int(support), float(rel), cls) for text, support, rel, cls in body]

        assert read("patterns.csv") == [
            (alphabet.render(p.symbols), p.support, p.support / 3, "studier")
            for p in studier.patterns
        ]
        sizes = {"studier": 3, "voyeur": 2}
        assert read("contrast.csv") == [
            (alphabet.render(row.symbols), support, support / sizes[name], name)
            for row in rows
            for name, support in zip(["studier", "voyeur"], row.supports)
        ]


ALPHABET = build_alphabet(split_check_outcome=True)


def plain_csv(path, lines) -> None:
    """The tables as a plain csv writer gives them, one row per line."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pattern", "support", "relative_support", "class"])
        for symbols, support, n, name in lines:
            rel = support / n if n else 0.0
            writer.writerow([">".join(ALPHABET.names[code] for code in symbols), support, rel, name])


def random_results(rng: random.Random) -> dict[str, MiningResult]:
    """Three to five classes, one of them empty, whose supports run from 0
    to ``n_sequences``."""
    names = rng.sample(["at_risk", "box_checker", "no_show", "studier", "voyeur"], rng.randint(3, 5))
    sizes = [0, rng.randint(1, 3), rng.randint(4, 60)] + [rng.randint(0, 60) for _ in names[3:]]
    rng.shuffle(sizes)
    pool = {
        tuple(rng.randrange(len(ALPHABET.names)) for _ in range(rng.randint(1, 5)))
        for _ in range(rng.randint(0, 40))
    }
    results = {}
    for name, n in zip(names, sizes):
        mined = rng.sample(sorted(pool), rng.randint(0, len(pool)))
        patterns = sorted((SequencePattern(p, rng.randint(0, n)) for p in mined),
                          key=lambda p: (len(p.symbols), p.symbols))
        results[name] = MiningResult(tuple(patterns), n)
    # The largest class gets every support from 0 to its size, and each other
    # non-empty class every support up to its own, so classes of different
    # sizes share supports.
    big = max(results, key=lambda name: results[name].n_sequences)
    n = results[big].n_sequences
    shared = tuple(SequencePattern((k % len(ALPHABET.names),) * (k // 8 + 6), k) for k in range(n + 1))
    results[big] = MiningResult(results[big].patterns + shared, n)
    for name in results:
        if name != big and results[name].n_sequences:
            other = results[name].n_sequences
            results[name] = MiningResult(results[name].patterns + shared[: other + 1], other)
    return results


@pytest.mark.parametrize("seed", range(25))
def test_writers_match_a_plain_csv_writer(seed, tmp_path):
    results = random_results(random.Random(seed))
    for name, result in results.items():
        write_patterns_csv(tmp_path / "got.csv", result, ALPHABET, class_name=name)
        plain_csv(tmp_path / "want.csv", [(p.symbols, p.support, result.n_sequences, name)
                                          for p in result.patterns])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    rows = contrast_patterns(results)
    names = sorted(results)
    write_contrast_csv(tmp_path / "got.csv", results, rows, ALPHABET)
    plain_csv(tmp_path / "want.csv", [
        (row.symbols, support, results[name].n_sequences, name)
        for row in rows
        for name, support in zip(names, row.supports)
    ])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
