import random

import pytest

from textaudit.corpus import Comment, LabeledCorpus
from textaudit.databias import (
    frequency_table_csv,
    identity_term_frequencies,
    subgroup_reference_frequencies,
)
from textaudit.errors import EmptyPartitionError
from textaudit.lexicon import default_gazetteer, default_lexicon
from textaudit.mining import annotate_corpus


def corpus_of(*rows):
    return LabeledCorpus(
        [Comment(id=str(i), text=text, label=label) for i, (text, label) in enumerate(rows)]
    )


def test_identity_frequencies_hand_count():
    corpus = corpus_of(("gay people bad", 1), ("white noise", 1), ("gay pride", 0))
    rows = identity_term_frequencies(corpus, ("gay",))
    row = rows[0]
    assert row.key == "gay"
    assert row.hateful_pct == pytest.approx(50.0, abs=1e-9)
    assert row.nothateful_pct == pytest.approx(100.0, abs=1e-9)
    assert row.overall_pct == pytest.approx(200.0 / 3.0, abs=1e-9)
    assert (row.hateful_n, row.nothateful_n, row.overall_n) == (1, 1, 2)


def test_identity_absent_term_zero():
    corpus = corpus_of(("nothing here", 1), ("still nothing", 0))
    row = identity_term_frequencies(corpus, ("gay",))[0]
    assert row.hateful_pct == row.nothateful_pct == row.overall_pct == 0.0


def test_identity_everywhere_hundred():
    corpus = corpus_of(("gay rights", 1), ("gay pride", 0))
    row = identity_term_frequencies(corpus, ("gay",))[0]
    assert row.hateful_pct == row.nothateful_pct == row.overall_pct == 100.0


def test_identity_terms_with_trailing_period():
    corpus = corpus_of(("we saw Dr. Jones today", 1), ("nothing here", 0))
    row = identity_term_frequencies(corpus, ("dr.",))[0]
    assert row.hateful_n == 1


def test_presence_counted_once_per_comment():
    corpus = corpus_of(("gay gay gay", 1), ("none", 0))
    row = identity_term_frequencies(corpus, ("gay",))[0]
    assert row.hateful_n == 1


def test_empty_partition_structured_error():
    corpus = corpus_of(("all hateful", 1))
    with pytest.raises(EmptyPartitionError) as excinfo:
        identity_term_frequencies(corpus, ("gay",))
    assert excinfo.value.partition == "not-hateful"


def test_identity_frequencies_tally_the_annotate_pass():
    corpus = corpus_of(("gay people", 1), ("he is muslim", 0))
    terms = ("gay", "muslim")
    annotated = annotate_corpus(corpus, default_lexicon(), default_gazetteer(), terms)
    assert annotated.identity_hits == {"0": {"gay"}, "1": {"muslim"}}
    assert identity_term_frequencies(annotated, terms) == identity_term_frequencies(corpus, terms)
    for other in (None, ("gay",)):
        stale = annotate_corpus(corpus, default_lexicon(), default_gazetteer(), other)
        with pytest.raises(ValueError, match="other identity terms"):
            identity_term_frequencies(stale, terms)


def test_row_order_follows_input_terms():
    corpus = corpus_of(("gay white muslim", 1), ("none", 0))
    terms = ("white", "gay", "muslim")
    rows = identity_term_frequencies(corpus, terms)
    assert [r.key for r in rows] == ["white", "gay", "muslim"]


def test_subgroup_frequencies_table_trio():
    corpus = corpus_of(
        ("Hitler also got the Muslims on his side", 1),
        ("Seton Catholic where their own students", 0),
        ("since she is super active", 0),
    )
    annotated = annotate_corpus(corpus, default_lexicon(), default_gazetteer())
    rows = {r.key: r for r in subgroup_reference_frequencies(annotated)}
    islam = rows["religion/islam"]
    assert islam.hateful_pct == pytest.approx(100.0)
    assert islam.nothateful_pct == pytest.approx(0.0)
    assert rows["gender/male"].hateful_pct == pytest.approx(100.0)
    assert rows["gender/female"].nothateful_pct == pytest.approx(50.0)


def test_subgroup_frequencies_no_annotations():
    corpus = corpus_of(("nothing to see", 1), ("move along", 0))
    annotated = annotate_corpus(corpus, default_lexicon(), default_gazetteer())
    assert subgroup_reference_frequencies(annotated) == []


def test_subgroup_rows_sorted():
    corpus = corpus_of(("she met the muslim imam", 1), ("he is catholic", 0))
    annotated = annotate_corpus(corpus, default_lexicon(), default_gazetteer())
    keys = [r.key for r in subgroup_reference_frequencies(annotated)]
    assert keys == sorted(keys)


def test_weighted_mean_identity_random():
    rng = random.Random(1234)
    words = ["gay", "white", "calm", "tree", "sky", "muslim"]
    for _ in range(50):
        rows = []
        for label in (0, 1):
            rows.append((" ".join(rng.choices(words, k=4)), label))
        for _ in range(rng.randrange(2, 20)):
            rows.append((" ".join(rng.choices(words, k=4)), rng.randrange(2)))
        corpus = corpus_of(*rows)
        n_h, n_nh = corpus.counts[1], corpus.counts[0]
        table = identity_term_frequencies(corpus, ("gay", "muslim"))
        for row in table:
            lhs = row.overall_pct * (n_h + n_nh)
            rhs = row.hateful_pct * n_h + row.nothateful_pct * n_nh
            assert lhs == pytest.approx(rhs, abs=1e-9)
            assert (
                min(row.hateful_pct, row.nothateful_pct)
                <= row.overall_pct
                <= max(row.hateful_pct, row.nothateful_pct)
            )


def test_monotonic_numerator_under_insertion():
    base = [("gay parade", 1), ("quiet day", 0)]
    corpus = corpus_of(*base)
    before = identity_term_frequencies(corpus, ("gay",))[0]
    grown = corpus_of(*base, ("gay again", 1))
    after = identity_term_frequencies(grown, ("gay",))[0]
    assert after.hateful_n >= before.hateful_n


def test_csv_layout():
    corpus = corpus_of(("gay people", 1), ("fine day", 0))
    rows = identity_term_frequencies(corpus, ("gay",))
    csv_text = frequency_table_csv(rows)
    header = csv_text.splitlines()[0]
    assert header == "Term,Hateful %,Not-hateful %,Overall %"
    assert csv_text.splitlines()[1].startswith("gay,")
