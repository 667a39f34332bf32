"""Protected-attribute mining: find subgroup references in comments.

Two deterministic extractors feed every bias assessment: a look-up over the
attribute lexicon and a gazetteer matcher for nationality/religion/political
group mentions. Matching is whole-token only (multi-token terms match as
contiguous token runs); "gayety" never matches "gay".

Both extractors, and the identity-term counts of :mod:`textaudit.databias`,
match through a :class:`TermIndex` that keys every term on its first token.
:func:`annotate_corpus` is the one pass that tokenizes and matches: it
tokenizes each comment once, keeping the periods of every index's terms,
and each index then sees the tokens its own terms alone would give. A
comment's identity terms are kept as a set, its tokens are not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator

from .corpus import Comment, LabeledCorpus, TokenSpan, narrow_abbreviations, tokenize
from .lexicon import AttributeLexicon, Gazetteer, IdentityTermList

METHOD_LOOKUP = "lookup"
METHOD_GAZETTEER = "gazetteer"


@dataclass(frozen=True)
class SubgroupRef:
    """One subgroup referenced by a comment, with the matching term spans."""

    attribute: str
    subgroup: str
    matched_terms: tuple[tuple[str, TokenSpan], ...]
    method: str


@dataclass(frozen=True)
class AnnotatedCorpus:
    """Corpus plus per-comment subgroup references (the join for all bias stats).

    ``identity_hits`` maps each comment id to the identity terms it
    contains, for the ``identity_terms`` it was annotated with; comments
    without any, and every comment when there are no such terms, are absent.
    """

    corpus: LabeledCorpus
    annotations: dict[str, tuple[SubgroupRef, ...]]
    identity_terms: IdentityTermList | None = None
    identity_hits: dict[str, frozenset[str]] = field(default_factory=dict)

    def refs(self, comment_id: str) -> tuple[SubgroupRef, ...]:
        return self.annotations.get(comment_id, ())

    def subgroups_referenced(self, comment_id: str, attribute: str) -> set[str]:
        return {r.subgroup for r in self.refs(comment_id) if r.attribute == attribute}

    def comments_referencing(self, attribute: str, subgroup: str) -> list[Comment]:
        return [
            c
            for c in self.corpus
            if any(
                r.attribute == attribute and r.subgroup == subgroup for r in self.refs(c.id)
            )
        ]


def term_occurrences(tokens: list[TokenSpan], term: str) -> list[TokenSpan]:
    """Whole-token occurrences of a (possibly multi-token) term.

    Multi-token terms match contiguous token sequences; the returned span
    covers the whole run. This is the one-term-at-a-time reference that
    :class:`TermIndex` must agree with.
    """
    parts = term.split()
    if not parts:
        return []
    hits: list[TokenSpan] = []
    if len(parts) == 1:
        for span in tokens:
            if span.token == term:
                hits.append(span)
        return hits
    for i in range(len(tokens) - len(parts) + 1):
        if all(tokens[i + j].token == parts[j] for j in range(len(parts))):
            hits.append(
                TokenSpan(token=" ".join(parts), start=tokens[i].start, end=tokens[i + len(parts) - 1].end)
            )
    return hits


class TermIndex:
    """Whole-token matcher for many terms at once, keyed on each term's first token.

    Built from ``(term, target)`` pairs whose terms are non-empty words
    separated by single spaces, as :mod:`textaudit.lexicon` checks them to
    be. Each first token maps to the remaining tokens, the term and the
    target of every term that starts with it, in the order the pairs were
    given. ``abbreviations`` are the words of these terms that end in a
    period ("u.s." of "u.s. citizen"): the tokenizer must keep them intact
    for the terms to match. Matching a comment costs one dict lookup per
    token, plus one comparison per multi-token candidate, however many terms
    there are.
    """

    def __init__(self, pairs: Iterable[tuple[str, Hashable]]):
        self._by_first: dict[str, list[tuple[tuple[str, ...], str, Hashable]]] = {}
        abbreviations: set[str] = set()
        for term, target in pairs:
            words = term.split()
            abbreviations.update(w for w in words if w.endswith("."))
            self._by_first.setdefault(words[0], []).append((tuple(words[1:]), term, target))
        self.abbreviations = frozenset(abbreviations)

    def matches(self, tokens: list[TokenSpan]) -> Iterator[tuple[Hashable, str, TokenSpan]]:
        """``(target, term, span)`` per occurrence, in token order, then pair order.

        Finds exactly the spans :func:`term_occurrences` finds for each term.
        """
        by_first = self._by_first
        n = len(tokens)
        for i, first in enumerate(tokens):
            for rest, term, target in by_first.get(first.token, ()):
                if not rest:
                    yield target, term, first
                    continue
                last = i + len(rest)
                if last < n and all(tokens[i + 1 + k].token == part for k, part in enumerate(rest)):
                    yield target, term, TokenSpan(term, first.start, tokens[last].end)


def _group(matches: Iterable[tuple[Hashable, str, TokenSpan]]) -> dict:
    """target -> {(start, end): (term, span)}; the first term found keeps a span."""
    grouped: dict = {}
    for target, term, span in matches:
        grouped.setdefault(target, {}).setdefault((span.start, span.end), (term, span))
    return grouped


def _refs(grouped: dict, method: str) -> list[SubgroupRef]:
    return [
        SubgroupRef(
            attribute=attribute,
            subgroup=subgroup,
            matched_terms=tuple(spans[key] for key in sorted(spans)),
            method=method,
        )
        for (attribute, subgroup), spans in sorted(grouped.items())
    ]


def _lookup_index(lexicon: AttributeLexicon) -> TermIndex:
    pairs = (
        (term, (attribute, subgroup))
        for attribute, subgroups in lexicon.attributes.items()
        for subgroup, terms in subgroups.items()
        for term in dict.fromkeys(terms)
    )
    return TermIndex(pairs)


def annotate_corpus(
    corpus: LabeledCorpus,
    lexicon: AttributeLexicon,
    gaz: Gazetteer,
    identity_terms: IdentityTermList | None = None,
) -> AnnotatedCorpus:
    """Union of look-up and gazetteer references per comment, and identity hits.

    Matches are deduplicated on (attribute, subgroup, span) with the look-up
    path taking precedence; output order is deterministic. Each comment is
    tokenized once, keeping the periods of the lexicon's, the gazetteer's
    and the identity terms' words; each index then sees the tokens its own
    terms alone would give.
    """
    lookup = _lookup_index(lexicon)
    gazetteer = TermIndex(gaz.entries.items())
    abbreviations = lookup.abbreviations | gazetteer.abbreviations
    identity = None
    if identity_terms is not None:
        identity = TermIndex((term, term) for term in identity_terms.terms)
        abbreviations |= identity.abbreviations
    annotations: dict[str, tuple[SubgroupRef, ...]] = {}
    identity_hits: dict[str, frozenset[str]] = {}
    for comment in corpus:
        text = comment.text
        tokens = tokenize(text, abbreviations)
        found = _group(lookup.matches(narrow_abbreviations(text, tokens, lookup.abbreviations)))
        gazetted = _group(
            gazetteer.matches(narrow_abbreviations(text, tokens, gazetteer.abbreviations))
        )
        fresh: dict = {}
        for target, spans in gazetted.items():
            claimed = found.get(target, {})
            unclaimed = {key: match for key, match in spans.items() if key not in claimed}
            if unclaimed:
                fresh[target] = unclaimed
        refs = _refs(found, METHOD_LOOKUP) + _refs(fresh, METHOD_GAZETTEER)
        if refs:
            refs.sort(key=lambda r: (r.attribute, r.subgroup, r.method != METHOD_LOOKUP))
            annotations[comment.id] = tuple(refs)
        if identity is not None:
            narrowed = narrow_abbreviations(text, tokens, identity.abbreviations)
            hits = frozenset(term for term, _, _ in identity.matches(narrowed))
            if hits:
                identity_hits[comment.id] = hits
    return AnnotatedCorpus(corpus, annotations, identity_terms, identity_hits)


def annotations_to_jsonl(annotated: AnnotatedCorpus) -> str:
    """Serialize annotations as JSONL: {id, attribute, subgroup, terms, method}."""
    lines = []
    for comment in annotated.corpus:
        for ref in annotated.refs(comment.id):
            lines.append(
                json.dumps(
                    {
                        "id": comment.id,
                        "attribute": ref.attribute,
                        "subgroup": ref.subgroup,
                        "terms": [term for term, _ in ref.matched_terms],
                        "method": ref.method,
                    },
                    ensure_ascii=False,
                )
            )
    return "\n".join(lines) + ("\n" if lines else "")
