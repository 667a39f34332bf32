import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, REPO_ROOT

from textaudit.corpus import Comment, LabeledCorpus, TokenSpan, tokenize
from textaudit.databias import (
    _row,
    frequency_table_csv,
    identity_term_frequencies,
    subgroup_reference_frequencies,
)
from textaudit.errors import LexiconError
from textaudit.lexicon import (
    AttributeLexicon,
    default_gazetteer,
    default_identity_terms,
    default_lexicon,
    load_identity_terms,
    _gazetteer_from_obj,
    _lexicon_from_obj,
)
from textaudit.mining import (
    METHOD_GAZETTEER,
    METHOD_LOOKUP,
    AnnotatedCorpus,
    SubgroupRef,
    annotate_corpus,
    annotations_to_jsonl,
    term_occurrences,
)
from textaudit.report import AuditConfig, run_audit

LEX = default_lexicon()
GAZ = default_gazetteer()
NO_LEX = AttributeLexicon(attributes={})
NO_GAZ = {}


def mine(text, lexicon, gaz):
    """The references ``annotate_corpus`` finds in a one-comment corpus."""
    corpus = LabeledCorpus([Comment(id="1", text=text, label=0)])
    return list(annotate_corpus(corpus, lexicon, gaz).refs("1"))


def subgroups_referenced(annotated, comment_id, attribute):
    """The subgroups of ``attribute`` whose member comments include ``comment_id``."""
    return {
        subgroup
        for (name, subgroup), members in annotated.members.items()
        if name == attribute and comment_id in [comment.id for comment in members]
    }

ROW1 = (
    "A visit to the DC Holocaust Museum revealed Hitler won by 43% of the popular vote "
    "and 32% of the seats. He also used the Schutzstaffel (SS) to intimidate his "
    "opponents, reminding one of the Antifa thugs we have today. Hitler also got the "
    "Muslims on his side. Uncanny."
)
ROW2 = "Seton Catholic where their own students talk trash about how low of a division there football team is in."
ROW3 = (
    "How to develop their competitive skills and social skills in Home Schooling...as "
    "my child too complain abt bullying and unjust behaviour of teachers since she is "
    "super active..."
)


def test_lookup_male_pronouns():
    refs = mine("He also used his power", LEX, NO_GAZ)
    assert len(refs) == 1
    ref = refs[0]
    assert (ref.attribute, ref.subgroup, ref.method) == ("gender", "male", "lookup")
    assert [term for term, _ in ref.matched_terms] == ["he", "his"]


def test_lookup_female():
    refs = mine("she is super active", LEX, NO_GAZ)
    assert [(r.attribute, r.subgroup) for r in refs] == [("gender", "female")]
    assert [term for term, _ in refs[0].matched_terms] == ["she"]


def test_lookup_no_match():
    assert mine("the sky is blue", LEX, NO_GAZ) == []


def test_lookup_whole_token_only():
    refs = mine("gayety and hugs", LEX, NO_GAZ)
    # 'gayety' must not match 'gay'; 'hu' (ethnicity) must not match 'hugs'
    assert refs == []


def test_gazetteer_muslims():
    refs = mine("Hitler also got the Muslims on his side", NO_LEX, GAZ)
    assert [(r.attribute, r.subgroup, r.method) for r in refs] == [("religion", "islam", "gazetteer")]
    assert [term for term, _ in refs[0].matched_terms] == ["muslims"]


def test_gazetteer_catholic():
    refs = mine("Seton Catholic where their own students", NO_LEX, GAZ)
    assert [(r.attribute, r.subgroup) for r in refs] == [("religion", "christianity")]


def test_gazetteer_no_entries():
    assert mine("hello world", NO_LEX, GAZ) == []


def test_annotate_table_trio():
    corpus = LabeledCorpus(
        [
            Comment(id="row1", text=ROW1, label=1),
            Comment(id="row2", text=ROW2, label=0),
            Comment(id="row3", text=ROW3, label=0),
        ]
    )
    annotated = annotate_corpus(corpus, LEX, GAZ)
    assert subgroups_referenced(annotated, "row1", "gender") == {"male"}
    assert subgroups_referenced(annotated, "row1", "religion") == {"islam"}
    assert subgroups_referenced(annotated, "row2", "religion") == {"christianity"}
    assert subgroups_referenced(annotated, "row2", "gender") == set()
    assert subgroups_referenced(annotated, "row3", "gender") == {"female"}
    assert subgroups_referenced(annotated, "row3", "religion") == set()


def test_annotate_empty_corpus():
    annotated = annotate_corpus(LabeledCorpus([]), LEX, GAZ)
    assert annotated.annotations == {}


def test_both_subgroups_retained():
    corpus = LabeledCorpus([Comment(id="1", text="he told her", label=0)])
    annotated = annotate_corpus(corpus, LEX, GAZ)
    assert subgroups_referenced(annotated, "1", "gender") == {"male", "female"}


def test_lookup_gazetteer_dedup_by_span():
    # 'catholic' is both a christianity lexicon term and a gazetteer entry;
    # the identical span must appear once, with the lookup method winning.
    corpus = LabeledCorpus([Comment(id="1", text="the catholic school", label=0)])
    annotated = annotate_corpus(corpus, LEX, GAZ)
    refs = annotated.refs("1")
    assert [(r.attribute, r.subgroup, r.method) for r in refs] == [
        ("religion", "christianity", "lookup")
    ]


def test_gazetteer_only_subgroup_survives():
    corpus = LabeledCorpus([Comment(id="1", text="a jewish bakery", label=0)])
    annotated = annotate_corpus(corpus, LEX, GAZ)
    refs = annotated.refs("1")
    assert [(r.attribute, r.subgroup, r.method) for r in refs] == [
        ("religion", "judaism", "gazetteer")
    ]


def test_lookup_subset_of_annotate():
    flat = {
        (r.attribute, r.subgroup, span.start, span.end)
        for r in mine(ROW1, LEX, GAZ)
        for _, span in r.matched_terms
    }
    for ref in mine(ROW1, LEX, NO_GAZ):
        for _, span in ref.matched_terms:
            assert (ref.attribute, ref.subgroup, span.start, span.end) in flat


def test_annotation_determinism():
    corpus = LabeledCorpus(
        [Comment(id="1", text=ROW1, label=1), Comment(id="2", text=ROW3, label=0)]
    )
    first = annotate_corpus(corpus, LEX, GAZ)
    second = annotate_corpus(corpus, LEX, GAZ)
    assert first.annotations == second.annotations


def test_matched_spans_equal_terms():
    corpus = LabeledCorpus([Comment(id="1", text="The Muslims and the catholic women", label=0)])
    annotated = annotate_corpus(corpus, LEX, GAZ)
    text = "The Muslims and the catholic women"
    for ref in annotated.refs("1"):
        for term, span in ref.matched_terms:
            assert text[span.start : span.end].lower() == term


def test_multi_token_term_matching():
    lex = _lexicon_from_obj(
        {"origin": {"domestic": ["home town"], "foreign": ["far away"]}}
    )
    refs = mine("back in my home town tonight", lex, NO_GAZ)
    assert [(r.attribute, r.subgroup) for r in refs] == [("origin", "domestic")]
    term, span = refs[0].matched_terms[0]
    assert term == "home town"
    assert "back in my home town tonight"[span.start : span.end] == "home town"


def test_multi_token_term_with_abbreviated_word():
    # "u.s." is a word of the term, not a term, and must keep its period.
    lex = _lexicon_from_obj({"origin": {"domestic": ["u.s. citizen"], "foreign": ["visitor"]}})
    text = "Every U.S. citizen votes"
    refs = mine(text, lex, NO_GAZ)
    assert [(r.attribute, r.subgroup) for r in refs] == [("origin", "domestic")]
    ((term, span),) = refs[0].matched_terms
    assert (term, text[span.start : span.end]) == ("u.s. citizen", "U.S. citizen")
    corpus = LabeledCorpus(
        [Comment(id="h", text=text, label=1), Comment(id="n", text="A visitor", label=0)]
    )
    (row,) = identity_term_frequencies(corpus, ("u.s. citizen",))
    assert (row.hateful_n, row.nothateful_n) == (1, 0)


# Strings JSON must escape, or must not: quotes, backslashes, control
# characters, the line and paragraph separators, non-ASCII and astral text.
json_strings = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029é€\U0001d406'),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            json_strings,
            st.lists(
                st.tuples(json_strings, json_strings, st.lists(json_strings, min_size=1, max_size=3)),
                max_size=3,
            ),
        ),
        max_size=4,
        unique_by=lambda comment: comment[0],
    )
)
def test_annotations_jsonl_equals_json_dumps(comments):
    corpus = LabeledCorpus([Comment(id=comment_id, text="x", label=0) for comment_id, _ in comments])
    annotations = {
        comment_id: tuple(
            SubgroupRef(attribute, subgroup, tuple((t, TokenSpan(t, 0, 1)) for t in terms), method)
            for (attribute, subgroup, terms), method in zip(refs, [METHOD_LOOKUP, METHOD_GAZETTEER] * 2)
        )
        for comment_id, refs in comments
        if refs
    }
    expected = "".join(
        json.dumps(
            {
                "id": comment_id,
                "attribute": ref.attribute,
                "subgroup": ref.subgroup,
                "terms": [term for term, _ in ref.matched_terms],
                "method": ref.method,
            },
            ensure_ascii=False,
        )
        + "\n"
        for comment_id, refs in annotations.items()
        for ref in refs
    )
    assert annotations_to_jsonl(AnnotatedCorpus(corpus, annotations, {}, None, {})) == expected


def test_annotations_jsonl_export(fixture_annotated):
    text = annotations_to_jsonl(fixture_annotated)
    lines = [line for line in text.splitlines() if line]
    assert lines, "fixture corpus must produce annotations"
    import json

    first = json.loads(lines[0])
    assert set(first) == {"id", "attribute", "subgroup", "terms", "method"}


# ---------------------------------------------------------------------------
# brute-force reference: every term scanned on its own, each extractor and the
# identity counts tokenizing with their own abbreviation set
# ---------------------------------------------------------------------------


def reference_mine(tokens, targets, method):
    grouped = {}
    for attribute, subgroup, term in targets:
        for span in term_occurrences(tokens, term):
            grouped.setdefault((attribute, subgroup), {}).setdefault((span.start, span.end), (term, span))
    return [
        SubgroupRef(
            attribute=attribute,
            subgroup=subgroup,
            matched_terms=tuple(matches[key] for key in sorted(matches)),
            method=method,
        )
        for (attribute, subgroup), matches in sorted(grouped.items())
    ]


def reference_lookup(comment, lexicon):
    targets = [
        (attribute, subgroup, term)
        for attribute, subgroups in lexicon.attributes.items()
        for subgroup, terms in subgroups.items()
        for term in dict.fromkeys(terms)
    ]
    return reference_mine(tokenize(comment.text, lexicon.abbreviations()), targets, METHOD_LOOKUP)


def reference_gazetteer(comment, gaz):
    abbreviations = frozenset(w for t in gaz for w in t.split() if w.endswith("."))
    targets = [(attribute, subgroup, term) for term, (attribute, subgroup) in gaz.items()]
    return reference_mine(tokenize(comment.text, abbreviations), targets, METHOD_GAZETTEER)


def reference_annotate_corpus(corpus, lexicon, gaz):
    annotations = {}
    for comment in corpus:
        refs = reference_lookup(comment, lexicon)
        claimed = {
            (ref.attribute, ref.subgroup, span.start, span.end)
            for ref in refs
            for _, span in ref.matched_terms
        }
        for ref in reference_gazetteer(comment, gaz):
            fresh = tuple(
                (term, span)
                for term, span in ref.matched_terms
                if (ref.attribute, ref.subgroup, span.start, span.end) not in claimed
            )
            if fresh:
                refs.append(SubgroupRef(ref.attribute, ref.subgroup, fresh, ref.method))
        if refs:
            refs.sort(key=lambda r: (r.attribute, r.subgroup, r.method != METHOD_LOOKUP))
            annotations[comment.id] = tuple(refs)
    return AnnotatedCorpus(corpus, annotations, reference_members(corpus, annotations), None, {})


def reference_members(corpus, annotations):
    """(attribute, subgroup) -> the comments with a reference to it, in corpus order."""
    members = {}
    for comment in corpus:
        for key in {(ref.attribute, ref.subgroup) for ref in annotations.get(comment.id, ())}:
            members.setdefault(key, []).append(comment)
    return members


def reference_identity_term_frequencies(corpus, terms):
    abbreviations = frozenset(w for t in terms for w in t.split() if w.endswith("."))
    counts = {term: [0, 0] for term in terms}
    for comment in corpus:
        tokens = tokenize(comment.text, abbreviations)
        for term in terms:
            if term_occurrences(tokens, term):
                counts[term][0 if comment.label == 1 else 1] += 1
    n_h, n_nh = corpus.counts[1], corpus.counts[0]
    return [_row(term, counts[term][0], counts[term][1], n_h, n_nh) for term in terms]


def reference_identity_hits(corpus, terms):
    abbreviations = frozenset(w for t in terms for w in t.split() if w.endswith("."))
    hits = {}
    for comment in corpus:
        tokens = tokenize(comment.text, abbreviations)
        found = frozenset(term for term in terms if term_occurrences(tokens, term))
        if found:
            hits[comment.id] = found
    return hits


# Terms that share tokens, differ only by trailing periods ("mr" / "mr." /
# "mr.."), span several tokens, or change under NFKC ("ﬁ."). Terms with stray
# whitespace are rejected by the lexicon types (see the test below).
TERMS = [
    "mr", "mr.", "mr..", "mrs.", "ms", "ms.", "he", "his", "new", "new york",
    "york", "mr. smith", "ms. jones", "jones", "st. louis", "st.", "ﬁ.",
    "fi.", "fi", "dr", "dr.",
]
AFFIXES = ["", "", ".", "..", "'", "'.", ".'", ",", "!"]
SUBGROUPS = [("a", "x"), ("a", "y"), ("b", "x"), ("b", "z")]


@st.composite
def mining_inputs(draw):
    term_lists = st.lists(st.sampled_from(TERMS), min_size=1, max_size=5)
    lexicon = AttributeLexicon(
        attributes={
            "a": {"x": tuple(draw(term_lists)), "y": tuple(draw(term_lists))},
            "b": {"x": tuple(draw(term_lists)), "z": tuple(draw(term_lists))},
        }
    )
    gaz = draw(st.dictionaries(st.sampled_from(TERMS), st.sampled_from(SUBGROUPS), max_size=6))
    identity = tuple(draw(st.lists(st.sampled_from(TERMS), min_size=1, max_size=6, unique=True)))
    word = st.tuples(
        st.sampled_from(["", "", "'", "("]),
        st.sampled_from(TERMS + ["ok", "smith"]),
        st.sampled_from([str.lower, str.upper, str.title]),
        st.sampled_from(AFFIXES),
    )
    texts = draw(
        st.lists(
            st.lists(word, min_size=1, max_size=8).map(
                lambda words: " ".join(lead + case(body) + tail for lead, body, case, tail in words)
            ),
            min_size=2,
            max_size=6,
        )
    )
    corpus = LabeledCorpus(
        [Comment(id=f"c{i}", text=text, label=i % 2) for i, text in enumerate(texts)]
    )
    return lexicon, gaz, identity, corpus


def _period_word_example(lexicon_term, identity_term):
    """The lexicon and the identity list hold a word with and without its period."""
    lexicon = AttributeLexicon(attributes={"a": {"x": (lexicon_term,), "y": ("he",)}})
    texts = ["Dr. Smith met dr Jones", "DR.. and 'dr.' and dr", "no doctor here", "Dr."]
    corpus = LabeledCorpus(
        [Comment(id=f"c{i}", text=text, label=i % 2) for i, text in enumerate(texts)]
    )
    return lexicon, NO_GAZ, (identity_term, "he"), corpus


def _gap_example():
    """A word of no term sits between the words of a multi-word term, which must not match."""
    lexicon = AttributeLexicon(attributes={"a": {"x": ("new york",), "y": ("he",)}})
    texts = ["New ok York", "new york, ok", "New. York", "new_york", "ok new 1 york he"]
    corpus = LabeledCorpus(
        [Comment(id=f"c{i}", text=text, label=i % 2) for i, text in enumerate(texts)]
    )
    return lexicon, {"new york": ("b", "z")}, ("new york",), corpus


@settings(max_examples=300, deadline=None)
@given(mining_inputs())
@example(_gap_example())
@example(_period_word_example("dr", "dr."))  # a period only the identity list keeps
@example(_period_word_example("dr.", "dr"))  # a period only the lexicon keeps
def test_indexed_mining_matches_brute_force(inputs):
    lexicon, gaz, identity, corpus = inputs
    annotated = annotate_corpus(corpus, lexicon, gaz, identity)
    expected = reference_annotate_corpus(corpus, lexicon, gaz)
    assert annotated.annotations == expected.annotations
    assert annotated.members == expected.members
    assert annotations_to_jsonl(annotated) == annotations_to_jsonl(expected)
    lookup_only = annotate_corpus(corpus, lexicon, NO_GAZ)
    gazetteer_only = annotate_corpus(corpus, NO_LEX, gaz)
    for comment in corpus:
        assert list(lookup_only.refs(comment.id)) == reference_lookup(comment, lexicon)
        assert list(gazetteer_only.refs(comment.id)) == reference_gazetteer(comment, gaz)
    assert annotated.identity_hits == reference_identity_hits(corpus, identity)
    expected_rows = reference_identity_term_frequencies(corpus, identity)
    assert identity_term_frequencies(annotated, identity) == expected_rows
    assert identity_term_frequencies(corpus, identity) == expected_rows


@pytest.mark.parametrize("term", ["he ", " he", "new  york", "new\tyork", "new york\n", "  "])
def test_terms_with_stray_whitespace_rejected(tmp_path, term):
    # Matching is token by token: "he " could never match, "new  york" would
    # match "new york" under another name. So no loader keeps such a term as
    # written: each stores the cleaned term, or rejects a term that cleans to "".
    path = tmp_path / "identity.txt"
    path.write_text(f"{term}\n")
    loads = [
        lambda: _lexicon_from_obj({"a": {"x": [term], "y": ["she"]}}).terms("a", "x"),
        lambda: tuple(_gazetteer_from_obj({term: ["a", "x"]})),
        lambda: load_identity_terms(path),
    ]
    cleaned = " ".join(term.split())
    if cleaned:
        assert [load() for load in loads] == [(cleaned,)] * 3
        return
    messages = ["subgroup a.x: invalid term ''", "invalid gazetteer term ''", "identity term list is empty"]
    for load, message in zip(loads, messages):
        with pytest.raises(LexiconError) as caught:
            load()
        assert str(caught.value) == message


def test_loaders_collapse_whitespace_in_terms(tmp_path):
    lexicon = _lexicon_from_obj({"a": {"x": [" New  York "], "y": ["he\t"]}})
    assert lexicon.terms("a", "x") == ("new york",)
    assert lexicon.terms("a", "y") == ("he",)
    assert _gazetteer_from_obj({"St.\n Louis": ["a", "x"]}) == {"st. louis": ("a", "x")}
    path = tmp_path / "identity.txt"
    path.write_text("New   York  # a city\n\the\n")
    assert load_identity_terms(path) == ("new york", "he")


def test_gazetteer_keeps_its_own_tokens_next_to_lexicon_abbreviation():
    # The lexicon keeps the period of "mr."; the gazetteer entry "mr" must still match.
    lexicon = AttributeLexicon(attributes={"a": {"x": ("mr.",), "y": ("she",)}})
    gaz = {"mr": ("a", "y")}
    text = "Hello Mr.. and mr'. and 'MR.'"
    corpus = LabeledCorpus([Comment(id="1", text=text, label=0)])
    refs = annotate_corpus(corpus, lexicon, gaz).refs("1")
    assert refs == reference_annotate_corpus(corpus, lexicon, gaz).refs("1")
    by_method = {r.method: r for r in refs}
    assert [(r.subgroup, r.method) for r in refs] == [("x", METHOD_LOOKUP), ("y", METHOD_GAZETTEER)]
    assert [text[s.start : s.end] for _, s in by_method[METHOD_LOOKUP].matched_terms] == ["Mr.", "MR."]
    assert [text[s.start : s.end] for _, s in by_method[METHOD_GAZETTEER].matched_terms] == [
        "Mr",
        "mr",
        "MR",
    ]


def test_fixture_outputs_byte_identical_to_brute_force(fixture_corpus, monkeypatch, tmp_path):
    monkeypatch.chdir(REPO_ROOT)
    config = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    config.update(adapter=None, sections=["data_bias"], output_dir=str(tmp_path))
    run_audit(AuditConfig.from_dict(config))

    expected = reference_annotate_corpus(fixture_corpus, default_lexicon(), default_gazetteer())
    identity_rows = reference_identity_term_frequencies(fixture_corpus, default_identity_terms())
    assert (tmp_path / "annotations.jsonl").read_bytes() == annotations_to_jsonl(expected).encode()
    assert (tmp_path / "data_bias_identity_terms.csv").read_bytes() == frequency_table_csv(
        identity_rows
    ).encode()
    assert (tmp_path / "data_bias_subgroup_references.csv").read_bytes() == frequency_table_csv(
        subgroup_reference_frequencies(expected)
    ).encode()
