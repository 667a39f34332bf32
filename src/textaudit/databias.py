"""Data-bias frequency tables over hateful / not-hateful / overall partitions.

Both approaches count comment presence (a comment counts once no matter how
often a term repeats), reported as percentages alongside the raw counts.
Neither tokenizes: :func:`textaudit.mining.annotate_corpus` finds each
comment's subgroup references and identity terms in its one pass over the
corpus, and the tables here tally what it found.
"""

from typing import NamedTuple

from .corpus import LabeledCorpus
from .errors import EmptyPartitionError
from .lexicon import AttributeLexicon
from .mining import AnnotatedCorpus, annotate_corpus
from .record import csv_text, plain


class FrequencyRow(NamedTuple):
    """Prevalence of one key (term or attribute/subgroup) per label partition."""

    key: str
    hateful_pct: float
    nothateful_pct: float
    overall_pct: float
    hateful_n: int
    nothateful_n: int
    overall_n: int

    to_dict = plain


def _check_partitions(corpus: LabeledCorpus) -> tuple[int, int]:
    n_hateful = corpus.counts[1]
    n_nothateful = corpus.counts[0]
    if n_hateful == 0:
        raise EmptyPartitionError("hateful")
    if n_nothateful == 0:
        raise EmptyPartitionError("not-hateful")
    return n_hateful, n_nothateful


def _row(key: str, hateful_n: int, nothateful_n: int, n_h: int, n_nh: int) -> FrequencyRow:
    overall_n = hateful_n + nothateful_n
    return FrequencyRow(
        key=key,
        hateful_pct=100.0 * hateful_n / n_h,
        nothateful_pct=100.0 * nothateful_n / n_nh,
        overall_pct=100.0 * overall_n / (n_h + n_nh),
        hateful_n=hateful_n,
        nothateful_n=nothateful_n,
        overall_n=overall_n,
    )


def identity_term_frequencies(
    corpus: LabeledCorpus | AnnotatedCorpus, terms: tuple[str, ...]
) -> list[FrequencyRow]:
    """Per identity term, the share of comments containing it, per partition.

    Containment is whole-token; rows follow the input term order. An
    :class:`AnnotatedCorpus` must have been annotated with ``terms``; a
    plain corpus is annotated with ``terms`` alone.
    """
    if isinstance(corpus, LabeledCorpus):
        corpus = annotate_corpus(corpus, AttributeLexicon({}), {}, terms)
    elif corpus.identity_terms != terms:
        raise ValueError("the corpus was annotated with other identity terms")
    n_h, n_nh = _check_partitions(corpus.corpus)
    counts = {term: [0, 0] for term in terms}  # [hateful, not-hateful]
    hits = corpus.identity_hits
    for comment in corpus.corpus:
        for term in hits.get(comment.id, ()):
            counts[term][0 if comment.label == 1 else 1] += 1
    return [_row(term, counts[term][0], counts[term][1], n_h, n_nh) for term in terms]


def subgroup_reference_frequencies(annotated: AnnotatedCorpus) -> list[FrequencyRow]:
    """Per (attribute, subgroup), the share of comments referencing it, per partition.

    Rows are ordered lexicographically by attribute then subgroup; keys are
    "attribute/subgroup". A comment referencing several subgroups counts
    toward each.
    """
    n_h, n_nh = _check_partitions(annotated.corpus)
    rows = []
    for (attribute, subgroup), members in sorted(annotated.members.items()):
        hateful_n = sum(comment.label for comment in members)
        rows.append(_row(f"{attribute}/{subgroup}", hateful_n, len(members) - hateful_n, n_h, n_nh))
    return rows


def frequency_table_csv(rows: list[FrequencyRow]) -> str:
    """CSV with columns Term, Hateful %, Not-hateful %, Overall %."""
    return csv_text(
        ("Term", "Hateful %", "Not-hateful %", "Overall %"),
        (
            (r.key, f"{r.hateful_pct:.4f}", f"{r.nothateful_pct:.4f}", f"{r.overall_pct:.4f}")
            for r in rows
        ),
    )


def frequency_table_json(rows: list[FrequencyRow]) -> list[dict]:
    return [row.to_dict() for row in rows]
