"""Protected-attribute mining: find subgroup references in comments.

Two deterministic extractors feed every bias assessment: a look-up over the
attribute lexicon and a gazetteer matcher for nationality/religion/political
group mentions. Matching is whole-token only (multi-token terms match as
contiguous token runs); "gayety" never matches "gay".

Both extractors and the identity-term counts of :mod:`textaudit.databias`
are roles of one :class:`TermIndex` that keys every term on its first token.
:func:`annotate_corpus` is the one pass that tokenizes and matches: it
tokenizes each comment once, keeping the periods of every role's terms and
only the tokens some term could use, and each role then sees the tokens its
own terms alone would give. A comment's identity terms are kept as a set,
its tokens are not; identity swapping replaces the look-up spans.
"""

import re
from json.encoder import encode_basestring
from typing import Hashable, Iterable, NamedTuple

from .corpus import Comment, LabeledCorpus, TokenSpan, narrow, tokenize
from .lexicon import AttributeLexicon

METHOD_LOOKUP = "lookup"
METHOD_GAZETTEER = "gazetteer"

# A letter or digit, as in the tokenizer's pattern: every token holds one, and
# the text between two tokens holds one only where a token lies between them.
_WORD_CHAR = re.compile(r"[^\W_]")


class SubgroupRef(NamedTuple):
    """One subgroup referenced by a comment, with the matching term spans."""

    attribute: str
    subgroup: str
    matched_terms: tuple[tuple[str, TokenSpan], ...]
    method: str


class AnnotatedCorpus(NamedTuple):
    """Corpus plus per-comment subgroup references (the join for all bias stats).

    ``members`` maps each referenced (attribute, subgroup) to the comments
    referencing it, in corpus order: :func:`annotate_corpus` records it in its
    pass, so the bias statistics read it instead of walking every comment.
    ``identity_hits`` maps each comment id to the identity terms it
    contains, for the ``identity_terms`` it was annotated with; comments
    without any, and every comment when there are no such terms, are absent.
    """

    corpus: LabeledCorpus
    annotations: dict[str, tuple[SubgroupRef, ...]]
    members: dict[tuple[str, str], list[Comment]]
    identity_terms: tuple[str, ...] | None
    identity_hits: dict[str, frozenset[str]]

    def refs(self, comment_id: str) -> tuple[SubgroupRef, ...]:
        return self.annotations.get(comment_id, ())


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
    """Whole-token matcher for several term sets at once, keyed on each term's first token.

    Each set is ``(term, target)`` pairs, its terms words separated by single
    spaces as :mod:`textaudit.lexicon` checks them to be; its position is its
    role. ``abbreviations[role]`` are the words of that role's terms that end
    in a period ("u.s." of "u.s. citizen"); ``union`` holds them all.
    ``vocabulary`` holds every token a match can use: each first word, each
    word of ``union`` and each later word of a multi-word term. Matching a
    comment costs one dict lookup per token, plus one comparison per
    multi-token candidate, however many terms there are.
    """

    def __init__(self, *term_sets: Iterable[tuple[str, Hashable]]):
        self._by_first: dict[str, list[tuple[int, tuple[str, ...], str, Hashable]]] = {}
        kept: list[set[str]] = [set() for _ in term_sets]
        later: set[str] = set()
        for role, pairs in enumerate(term_sets):
            for term, target in pairs:
                words = term.split()
                kept[role].update(w for w in words if w.endswith("."))
                later.update(words[1:])
                self._by_first.setdefault(words[0], []).append((role, tuple(words[1:]), term, target))
        self.abbreviations = tuple(map(frozenset, kept))
        self.union = frozenset().union(*kept)
        # Every word ending in a period is a key, so a token that is not one matches no
        # role, trimmed or not, and is skipped after one lookup.
        for word in self.union:
            self._by_first.setdefault(word, [])
        # A token keeps a trailing period only as a word of ``union``, so any other
        # token is its own narrowed form: outside this set, it matches no word of a term.
        self.vocabulary = frozenset(self._by_first).union(later)

    def matches(self, text: str, tokens: list[TokenSpan]) -> list[tuple]:
        """``(role, target, term, span)`` per occurrence, in token order, then set and pair order.

        ``tokens`` are ``tokenize(text, self.union)``, or only those of them
        in ``self.vocabulary``; each role sees them as its own abbreviations
        alone would give them, as :func:`narrow` does. A multi-token term
        matches only where no left-out token lies between its tokens.
        """
        get, kept, union = self._by_first.get, self.abbreviations, self.union
        search = _WORD_CHAR.search
        found = []
        for i, first in enumerate(tokens):
            entries = get(first[0])
            if entries is None:
                continue
            period = first[0] in union
            if period:
                # Only roles that keep this period key terms on it; the others look up the trimmed token.
                entries = [*entries, *(
                    entry
                    for role, words in enumerate(kept) if first[0] not in words
                    for entry in get(narrow(text, first, words)[0], ()) if entry[0] == role
                )]
            for role, rest, term, target in entries:
                if not rest:
                    found.append((role, target, term, narrow(text, first, kept[role]) if period else first))
                    continue
                run = tokens[i : i + 1 + len(rest)]
                view = [narrow(text, span, kept[role]) for span in run[1:]]
                if tuple(span.token for span in view) == rest and not any(
                    search(text, a.end, b.start) for a, b in zip(run, run[1:])
                ):
                    found.append((role, target, term, TokenSpan(term, first.start, view[-1].end)))
        return found


_METHODS = (METHOD_LOOKUP, METHOD_GAZETTEER)  # by role


def annotate_corpus(
    corpus: LabeledCorpus,
    lexicon: AttributeLexicon,
    gaz: dict[str, tuple[str, str]],
    identity_terms: tuple[str, ...] | None = None,
) -> AnnotatedCorpus:
    """Union of look-up and gazetteer references per comment, and identity hits.

    Matches are deduplicated on (attribute, subgroup, span) with the look-up
    path taking precedence; output order is deterministic. One
    :class:`TermIndex` holds the lexicon's, the gazetteer's and the identity
    terms; each comment is tokenized and matched against it once, and only
    its tokens in the index's vocabulary are kept.
    """
    index = TermIndex(
        (
            (term, (attribute, subgroup))
            for attribute, subgroups in lexicon.attributes.items()
            for subgroup, terms in subgroups.items()
            for term in dict.fromkeys(terms)
        ),
        gaz.items(),
        ((term, term) for term in identity_terms or ()),
    )
    matches, union, vocabulary = index.matches, index.union, index.vocabulary
    annotations: dict[str, tuple[SubgroupRef, ...]] = {}
    identity_hits: dict[str, frozenset[str]] = {}
    members: dict[tuple[str, str], list[Comment]] = {}
    for comment in corpus:
        text = comment.text
        # (target, role) -> {(start, end): (term, span)}; the first term found keeps a span.
        grouped: dict = {}
        identity = []
        for role, target, term, span in matches(text, tokenize(text, union, vocabulary)):
            if role == 2:
                identity.append(target)
            else:
                grouped.setdefault((target, role), {}).setdefault(span[1:], (term, span))
        if identity:
            identity_hits[comment.id] = frozenset(identity)
        if not grouped:
            continue
        refs = []
        # Keys sort as (attribute, subgroup), then look-up before gazetteer.
        for (target, role), spans in sorted(grouped.items()):
            if role:
                for key in grouped.get((target, 0), ()):
                    spans.pop(key, None)
                if not spans:
                    continue
            if not refs or refs[-1][:2] != target:  # a subgroup's two methods are adjacent
                members.setdefault(target, []).append(comment)
            refs.append(SubgroupRef(*target, tuple([spans[key] for key in sorted(spans)]), _METHODS[role]))
        annotations[comment.id] = tuple(refs)
    return AnnotatedCorpus(corpus, annotations, members, identity_terms, identity_hits)


def annotations_to_jsonl(annotated: AnnotatedCorpus) -> str:
    """Serialize annotations as JSONL: {id, attribute, subgroup, terms, method}.

    Each line is what ``json.dumps(record, ensure_ascii=False)`` gives for the
    record, built from the strings it would encode with ``encode_basestring``.
    """
    encode = encode_basestring
    lines = []
    for comment in annotated.corpus:
        refs = annotated.annotations.get(comment.id)
        if refs is None:
            continue
        head = f'{{"id": {encode(comment.id)}, "attribute": '
        for ref in refs:
            terms = ", ".join([encode(term) for term, _ in ref.matched_terms])
            lines.append(
                f'{head}{encode(ref.attribute)}, "subgroup": {encode(ref.subgroup)}, '
                f'"terms": [{terms}], "method": {encode(ref.method)}}}'
            )
    return "\n".join(lines) + ("\n" if lines else "")
