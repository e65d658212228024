"""Frequent ordered event subsequences, per behavior category.

Sequences are one-per-session streams of event symbols; support counts the
sessions containing a pattern as an ordered (not necessarily contiguous)
subsequence. The contrast table ranks patterns by how differently two
categories exhibit them.
"""

from edxmine import classify, default_corpus_spec, generate_corpus
from edxmine.engagement import aggregate_corpus, collect_student_events
from edxmine.events import parse_events
from edxmine.patterns import contrast_patterns, encode_sequences, mine, relative_support

spec = default_corpus_spec(users_per_class=15, seed=404)
corpus = generate_corpus(spec)
events = list(parse_events(corpus.lines))

aggregates = aggregate_corpus(events, spec.manifest)
user_class = {agg.user_id: classify(agg).value for agg in aggregates}

results = {}
for target in ("studier", "box_checker"):
    class_events = [ev for ev in events if user_class[ev.user_id] == target]
    sequences, alphabet = encode_sequences(
        collect_student_events(class_events), granularity="per_session"
    )
    min_support = max(1, round(0.2 * len(sequences)))
    results[target] = mine(sequences, min_support, max_len=3)
    print(f"{target}: {len(sequences)} sessions, top patterns:")
    top = sorted(results[target].patterns, key=lambda p: -p.support)[:5]
    for pattern in top:
        print(f"  {alphabet.render(pattern.symbols):<50} support={pattern.support}")
    print()

print("largest cross-class gaps:")
names = sorted(results)
for row in contrast_patterns(results)[:8]:
    cells = ", ".join(
        f"{name}={relative_support(support, results[name].n_sequences):.2f}"
        for name, support in zip(names, row.supports)
    )
    print(f"  {alphabet.render(row.symbols):<50} gap={row.gap:.2f}  {cells}")
