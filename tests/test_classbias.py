import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CallableAdapter, annotate_and_swap

from textaudit.classbias import (
    CLASS_NAMES,
    CBResult,
    CounterfactualCorpus,
    CounterfactualRow,
    counterfactual_bias,
    counterfactual_probability_stats,
    expand_templates,
    fairness_metrics,
    gini_coefficient,
    performance_report,
    plan_swap_favor,
    subgroup_probability_stats,
    swap_favor_analysis,
    swap_text,
)
from textaudit.corpus import Comment, LabeledCorpus, tokenize
from textaudit.errors import AuditError, CoverageError, LexiconError
from textaudit.lexicon import (
    AttributeLexicon,
    aligned_swap_pairs,
    default_lexicon,
    default_templates,
    _lexicon_from_obj,
)
from textaudit.mining import annotate_corpus
from textaudit.modeliface import PredictionRecord

LEX = default_lexicon()
EMPTY_GAZ = {}


def gender_swap_table():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return aligned_swap_pairs(LEX, "gender", "male", "female")


def records(pairs):
    return [PredictionRecord(comment_id=cid, p_hateful=p) for cid, p in pairs]


# ---------------------------------------------------------------------------
# performance report
# ---------------------------------------------------------------------------

def four_comment_corpus():
    return LabeledCorpus(
        [
            Comment(id="a", text="t one", label=1),
            Comment(id="b", text="t two", label=1),
            Comment(id="c", text="t three", label=0),
            Comment(id="d", text="t four", label=0),
        ]
    )


def test_performance_hand_confusion():
    corpus = four_comment_corpus()
    preds = records([("a", 0.9), ("b", 0.2), ("c", 0.1), ("d", 0.1)])
    report = performance_report(corpus, preds, threshold=0.5)
    hateful = report.per_class["hateful"]
    assert hateful.precision == pytest.approx(1.0, abs=1e-9)
    assert hateful.recall == pytest.approx(0.5, abs=1e-9)
    assert hateful.f1 == pytest.approx(2 / 3, abs=1e-9)
    assert hateful.support == 2
    nothateful = report.per_class["not-hateful"]
    assert nothateful.precision == pytest.approx(2 / 3, abs=1e-9)
    assert nothateful.recall == pytest.approx(1.0, abs=1e-9)
    assert report.accuracy == pytest.approx(0.75, abs=1e-9)
    assert report.macro.precision == pytest.approx((1.0 + 2 / 3) / 2, abs=1e-9)
    assert report.weighted.f1 == pytest.approx((0.8 * 2 + (2 / 3) * 2) / 4, abs=1e-9)
    assert report.macro.support == report.weighted.support == 4


def test_performance_perfect():
    corpus = four_comment_corpus()
    preds = records([("a", 0.9), ("b", 0.8), ("c", 0.1), ("d", 0.2)])
    report = performance_report(corpus, preds)
    for cls in ("not-hateful", "hateful"):
        m = report.per_class[cls]
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
    assert report.accuracy == 1.0
    assert report.zero_division_flags == ()


def test_performance_zero_denominator_flagged():
    corpus = four_comment_corpus()
    preds = records([("a", 0.1), ("b", 0.1), ("c", 0.1), ("d", 0.1)])
    report = performance_report(corpus, preds)
    assert report.per_class["hateful"].precision == 0.0
    assert "precision[hateful]" in report.zero_division_flags


def test_performance_coverage_gap():
    corpus = four_comment_corpus()
    preds = records([("a", 0.9), ("b", 0.2), ("c", 0.1)])
    with pytest.raises(CoverageError, match="'d'"):
        performance_report(corpus, preds)


def test_performance_weighted_identity_and_trace():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randrange(4, 30)
        comments = []
        preds = []
        labels = [1, 0] + [rng.randrange(2) for _ in range(n - 2)]
        for i, label in enumerate(labels):
            comments.append(Comment(id=str(i), text=f"text {i}", label=label))
            preds.append(PredictionRecord(comment_id=str(i), p_hateful=rng.random()))
        corpus = LabeledCorpus(comments)
        report = performance_report(corpus, preds, threshold=0.5)
        recomputed = sum(
            report.per_class[c].f1 * report.per_class[c].support for c in CLASS_NAMES.values()
        ) / len(corpus)
        assert report.weighted.f1 == pytest.approx(recomputed, abs=1e-9)
        assert sum(report.per_class[c].support for c in CLASS_NAMES.values()) == len(corpus)


# ---------------------------------------------------------------------------
# subgroup probability statistics
# ---------------------------------------------------------------------------

def annotated_gender_corpus():
    corpus = LabeledCorpus(
        [
            Comment(id="f1", text="she is around", label=1),
            Comment(id="m1", text="he is around", label=0),
            Comment(id="m2", text="the guy waved", label=0),
        ]
    )
    return annotate_corpus(corpus, LEX, EMPTY_GAZ)


def test_subgroup_stats_singleton_and_mean():
    annotated = annotated_gender_corpus()
    preds = records([("f1", 0.856), ("m1", 0.1), ("m2", 0.208)])
    stats = subgroup_probability_stats(annotated, preds, "gender")
    by_cell = {(r.actual, r.subgroup): r for r in stats.rows}
    assert by_cell[("hateful", "female")].mean_p_hateful == pytest.approx(0.856)
    assert by_cell[("hateful", "female")].n == 1
    assert by_cell[("not-hateful", "male")].mean_p_hateful == pytest.approx(0.154)
    assert by_cell[("not-hateful", "male")].n == 2


def test_subgroup_stats_empty_cell_is_none():
    annotated = annotated_gender_corpus()
    preds = records([("f1", 0.856), ("m1", 0.1), ("m2", 0.208)])
    stats = subgroup_probability_stats(annotated, preds, "gender")
    by_cell = {(r.actual, r.subgroup): r for r in stats.rows}
    assert by_cell[("not-hateful", "female")].mean_p_hateful is None
    assert by_cell[("not-hateful", "female")].n == 0
    assert by_cell[("hateful", "male")].mean_p_hateful is None


def test_subgroup_stats_multi_reference_contributes_to_each():
    corpus = LabeledCorpus([Comment(id="x", text="he told her", label=1)])
    annotated = annotate_corpus(corpus, LEX, EMPTY_GAZ)
    stats = subgroup_probability_stats(annotated, records([("x", 0.7)]), "gender")
    by_cell = {(r.actual, r.subgroup): r for r in stats.rows}
    assert by_cell[("hateful", "male")].mean_p_hateful == pytest.approx(0.7)
    assert by_cell[("hateful", "female")].mean_p_hateful == pytest.approx(0.7)


def test_subgroup_stats_name_each_missing_prediction_once():
    # "x" references both subgroups, so it is asked for twice; it is named once.
    corpus = LabeledCorpus(
        [
            Comment(id="x", text="he told her", label=1),
            Comment(id="m", text="he is around", label=0),
            Comment(id="f", text="she is around", label=0),
        ]
    )
    annotated = annotate_corpus(corpus, LEX, EMPTY_GAZ)
    message = re.escape("predictions missing for 2 comment(s): ['x', 'm']")
    with pytest.raises(CoverageError, match=f"^{message}$"):
        subgroup_probability_stats(annotated, records([("f", 0.2)]), "gender")


# ---------------------------------------------------------------------------
# identity swapping
# ---------------------------------------------------------------------------

TABLE5_ORIGINAL = (
    "This Jerry Lewis ripoff needs to just go away already. "
    "The guy is so good at acting like a fool because he is a fool."
)
TABLE5_SWAPPED = (
    "This Jerry Lewis ripoff needs to just go away already. "
    "The gal is so good at acting like a fool because she is a fool."
)


def swap(text, table):
    return annotate_and_swap(text, table, LEX)


def test_swap_text_reference_example():
    assert swap(TABLE5_ORIGINAL, gender_swap_table()) == TABLE5_SWAPPED


def test_swap_involution_lowercase_pairs():
    table = gender_swap_table()
    text = "the guy told his brother that he and the gal were waiters"
    # 'his' is unpaired (collapsed duplicate); restrict to paired terms
    text = "guy brother he gal waiters queen mr. ma'am"
    assert swap(swap(text, table), table) == text


def test_swap_casing_rules():
    table = gender_swap_table()
    assert swap("HE left", table) == "SHE left"
    assert swap("He left", table) == "She left"
    assert swap("Mr. Smith met MA'AM", table) == "Mrs. Smith met SIR"


def test_swap_after_non_ascii_text():
    # "é" and "𝐀" stand before the swapped terms; spans are character offsets.
    table = gender_swap_table()
    assert swap("Café 𝐀 says He is a guy", table) == "Café 𝐀 says She is a gal"


def test_swap_identity_table_is_noop():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = aligned_swap_pairs(LEX, "gender", "male", "male")
    text = "The guy is here and he is loud"
    assert swap(text, table) == text


def test_swap_no_chaining():
    lex = _lexicon_from_obj({"x": {"a": ["red", "blue"], "b": ["blue", "green"]}})
    with pytest.warns(UserWarning, match="already paired"):
        table = aligned_swap_pairs(lex, "x", "a", "b")
    # red->blue and blue->red happen simultaneously: blue never chains to green
    assert annotate_and_swap("red blue", table, lex) == "blue red"


def test_swap_whole_token_only():
    table = gender_swap_table()
    assert swap("guys guyss", table) == "gals guyss"


def test_swap_multi_word_term_in_both_directions():
    lex = _lexicon_from_obj({"origin": {"a": ["new yorker", "he"], "b": ["texan", "she"]}})
    table = aligned_swap_pairs(lex, "origin", "a", "b")
    texts = ["A New Yorker walked in", "The Texan walked in"]
    corpus = LabeledCorpus([Comment(id=str(i), text=t, label=0) for i, t in enumerate(texts)])
    plan = plan_swap_favor(annotate_corpus(corpus, lex, EMPTY_GAZ), table, "origin", "a", "b")
    assert plan.texts == texts + ["A Texan walked in", "The New Yorker walked in"]
    # Casing is mirrored word by word: a longer replacement repeats the last
    # original word's, a shorter one drops the rest.
    assert annotate_and_swap("THE TEXAN and he", table, lex) == "THE NEW YORKER and she"
    assert annotate_and_swap("the Texan", table, lex) == "the New Yorker"
    assert annotate_and_swap("a new YORKER", table, lex) == "a texan"
    lex = _lexicon_from_obj({"origin": {"a": ["new yorker"], "b": ["lone star texan"]}})
    table = aligned_swap_pairs(lex, "origin", "a", "b")
    assert annotate_and_swap("a new YORKER", table, lex) == "a lone STAR TEXAN"


def test_swap_overlapping_terms_longest_wins():
    lex = _lexicon_from_obj(
        {"place": {"a": ["new", "new york", "york"], "b": ["old", "boston", "paris"]}}
    )
    table = aligned_swap_pairs(lex, "place", "a", "b")
    assert annotate_and_swap("I love New York", table, lex) == "I love Boston"
    assert annotate_and_swap("York and new york, new", table, lex) == "Paris and boston, old"
    assert annotate_and_swap("Boston, paris, old", table, lex) == "New York, york, new"


def test_swap_term_with_abbreviated_inner_word():
    lex = _lexicon_from_obj({"origin": {"a": ["u.s. citizen"], "b": ["foreigner"]}})
    table = aligned_swap_pairs(lex, "origin", "a", "b")
    assert annotate_and_swap("every u.s. citizen votes", table, lex) == "every foreigner votes"
    assert annotate_and_swap("a foreigner votes", table, lex) == "a u.s. citizen votes"


def reference_swap(text, lexicon, table):
    """Token by token: each token of the lexicon's tokenization that has a partner, cased like it."""
    pieces, cursor = [], 0
    for span in tokenize(text, lexicon.abbreviations()):
        partner = table.partner(span.token)
        if partner is None or partner == span.token:
            continue
        original = text[span.start : span.end]
        if original.isupper():
            partner = partner.upper()
        elif original[:1].isupper():
            partner = partner[:1].upper() + partner[1:]
        pieces += [text[cursor : span.start], partner]
        cursor = span.end
    return "".join(pieces) + text[cursor:]


SWAP_WORDS = ["mr", "mr.", "mr..", "mrs.", "ms", "ms.", "he", "she", "his", "her", "dr", "dr.", "ﬁ.", "fi."]


@st.composite
def single_word_swap_inputs(draw):
    n = draw(st.integers(1, 4))
    paired = st.lists(st.sampled_from(SWAP_WORDS), min_size=n, max_size=n)
    terms = st.lists(st.sampled_from(SWAP_WORDS), min_size=1, max_size=3)
    lexicon = AttributeLexicon(
        attributes={
            "x": {"a": tuple(draw(paired)), "b": tuple(draw(paired)), "c": tuple(draw(terms))},
            "y": {"p": tuple(draw(terms)), "q": tuple(draw(terms))},
        }
    )
    word = st.tuples(
        st.sampled_from(["", "", "'", "("]),
        st.sampled_from(SWAP_WORDS + ["ok"]),
        st.sampled_from([str.lower, str.upper, str.title]),
        st.sampled_from(["", "", ".", "..", "'", "'.", ".'", ",", "!"]),
    )
    words = draw(st.lists(word, min_size=1, max_size=8))
    return lexicon, " ".join(lead + case(body) + tail for lead, body, case, tail in words)


@settings(max_examples=300, deadline=None)
@given(single_word_swap_inputs())
def test_swap_of_single_word_terms_matches_token_reference(inputs):
    lexicon, text = inputs
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = aligned_swap_pairs(lexicon, "x", "a", "b")
    assert annotate_and_swap(text, table, lexicon) == reference_swap(text, lexicon, table)


# ---------------------------------------------------------------------------
# swapped-identity favor analysis
# ---------------------------------------------------------------------------

def favor_fixture():
    corpus = LabeledCorpus(
        [
            Comment(id="c1", text="men are universally terrible", label=1),
            Comment(id="c2", text="the girls sing", label=0),
            Comment(id="c3", text="he told her", label=1),
            Comment(id="c4", text="she naps", label=0),
        ]
    )
    annotated = annotate_corpus(corpus, LEX, EMPTY_GAZ)
    scores = {
        "men are universally terrible": 0.9811,
        "women are universally terrible": 0.9891,
        "the girls sing": 0.30,
        "the boys sing": 0.20,
        "she naps": 0.4,
        "he naps": 0.4,
        "he told her": 0.5,
        "she told him": 0.5,
    }
    return annotated, CallableAdapter(lambda text: scores[text])


def test_favor_rules_and_exclusions():
    annotated, adapter = favor_fixture()
    report = swap_favor_analysis(
        annotated, adapter, gender_swap_table(), "gender", "male", "female"
    )
    assert report.n_swapped == 3  # c3 references both subgroups and is excluded
    assert report.fraction_favor_a == pytest.approx(1 / 3)  # c2 favors male
    assert report.fraction_favor_b == pytest.approx(1 / 3)  # c1 favors female
    assert report.fraction_no_change == pytest.approx(1 / 3)  # c4
    total = report.fraction_favor_a + report.fraction_favor_b + report.fraction_no_change
    assert total == pytest.approx(1.0, abs=1e-9)
    assert report.by_label["hateful"]["female"] == 1
    assert report.by_label["not-hateful"]["male"] == 1
    assert report.by_label["not-hateful"]["no_change"] == 1


def test_favor_rounding_collapses_tiny_gaps():
    corpus = LabeledCorpus([Comment(id="c", text="she naps", label=0)])
    annotated = annotate_corpus(corpus, LEX, EMPTY_GAZ)
    scores = {"she naps": 0.12341, "he naps": 0.12344}
    adapter = CallableAdapter(lambda text: scores[text])
    report = swap_favor_analysis(
        annotated, adapter, gender_swap_table(), "gender", "male", "female"
    )
    assert report.fraction_no_change == 1.0
    finer = swap_favor_analysis(
        annotated, adapter, gender_swap_table(), "gender", "male", "female",
        rounding_decimals=5,
    )
    assert finer.fraction_no_change == 0.0


def test_swap_pair_naming_one_subgroup_twice_is_rejected():
    annotated = annotated_gender_corpus()
    with pytest.raises(AuditError, match=re.escape("got gender.male twice")):
        plan_swap_favor(annotated, gender_swap_table(), "gender", "male", "male")


def test_favor_requires_eligible_comments():
    corpus = LabeledCorpus([Comment(id="c", text="no identities here", label=0)])
    annotated = annotate_corpus(corpus, LEX, EMPTY_GAZ)
    with pytest.raises(AuditError, match="exactly one"):
        swap_favor_analysis(
            annotated, CallableAdapter(lambda t: 0.5), gender_swap_table(),
            "gender", "male", "female",
        )


# ---------------------------------------------------------------------------
# counterfactual templates and the CB metric
# ---------------------------------------------------------------------------

def rows_by_group(corpus):
    """The corpus rows per group index, in row order."""
    groups = {}
    for row in corpus.rows:
        groups.setdefault(row.group_index, []).append(row)
    return groups


def test_expand_templates_reference_rows():
    fills = {"christianity": ["Christian"], "islam": ["Muslim"]}
    corpus = expand_templates(default_templates(), LEX, "religion", fills)
    texts = [row.text for row in corpus.rows]
    assert texts == [
        "I am a Christian person, ask me anything",
        "I am a Muslim person, ask me anything",
        "Christian people are gross and universally terrible",
        "Muslim people are gross and universally terrible",
    ]
    assert [row.label for row in corpus.rows] == [0, 0, 1, 1]
    assert len(rows_by_group(corpus)) == 2


def test_expand_templates_counts():
    templates = (("[Identity] one", 0), ("two [Identity]", 1), ("three [Identity] x", 0))
    fills = {"christianity": ["Christian"], "islam": ["Muslim"]}
    corpus = expand_templates(templates, LEX, "religion", fills)
    assert len(corpus.rows) == 6
    groups = rows_by_group(corpus)
    assert len(groups) == 3
    for group in groups.values():
        assert {row.subgroup for row in group} == {"christianity", "islam"}
        assert len({row.label for row in group}) == 1


def test_expand_templates_errors():
    fills_unequal = {"christianity": ["Christian", "Catholic"], "islam": ["Muslim"]}
    with pytest.raises(LexiconError, match="equal lengths"):
        expand_templates(default_templates(), LEX, "religion", fills_unequal)
    with pytest.raises(LexiconError, match="unknown subgroup"):
        expand_templates(default_templates(), LEX, "religion", {"islam": ["Muslim"], "zen": ["Zen"]})
    with pytest.raises(LexiconError, match="no identity fill"):
        expand_templates(default_templates(), LEX, "religion", {"islam": ["Muslim"], "christianity": []})


def group_rows(group_index, label, entries):
    return [
        CounterfactualRow(
            template_index=group_index,
            group_index=group_index,
            subgroup=subgroup,
            fill_term=subgroup,
            text=f"g{group_index} {subgroup}",
            label=label,
        )
        for subgroup in entries
    ]


def test_cb_single_hateful_group():
    rows = group_rows(0, 1, ["ref", "oth"])
    corpus = CounterfactualCorpus(rows=tuple(rows))
    result = counterfactual_bias(corpus, [0.9, 0.7], "ref")
    assert result.cb_total == pytest.approx(0.2, abs=1e-12)
    assert result.cb_mean == pytest.approx(0.2, abs=1e-12)


def test_cb_single_nothateful_group():
    rows = group_rows(0, 0, ["ref", "oth"])
    corpus = CounterfactualCorpus(rows=tuple(rows))
    result = counterfactual_bias(corpus, [0.1, 0.3], "ref")
    assert result.cb_total == pytest.approx(0.2, abs=1e-12)


def test_cb_equal_probabilities_zero():
    rows = group_rows(0, 1, ["ref", "oth"]) + group_rows(1, 0, ["ref", "oth"])
    corpus = CounterfactualCorpus(rows=tuple(rows))
    result = counterfactual_bias(corpus, [0.6, 0.6, 0.2, 0.2], "ref")
    assert result.cb_total == 0.0


def test_cb_counterfactual_mean_within_group():
    rows = group_rows(0, 1, ["ref", "x", "y"])
    corpus = CounterfactualCorpus(rows=tuple(rows))
    result = counterfactual_bias(corpus, [0.9, 0.5, 0.3], "ref")
    assert result.cb_total == pytest.approx(0.9 - 0.4, abs=1e-12)


def test_cb_missing_reference_realization():
    rows = group_rows(0, 1, ["x", "y"])
    corpus = CounterfactualCorpus(rows=tuple(rows))
    with pytest.raises(AuditError, match="exactly one 'ref'"):
        counterfactual_bias(corpus, [0.9, 0.5], "ref")


def test_cb_antisymmetry_random():
    rng = random.Random(7)
    for _ in range(100):
        n_groups = rng.randrange(1, 6)
        rows = []
        probs = []
        for g in range(n_groups):
            label = rng.randrange(2)
            rows.extend(group_rows(g, label, ["a", "b"]))
            probs.extend([rng.random(), rng.random()])
        corpus = CounterfactualCorpus(rows=tuple(rows))
        cb_a = counterfactual_bias(corpus, probs, "a").cb_total
        cb_b = counterfactual_bias(corpus, probs, "b").cb_total
        assert cb_a == -cb_b


def test_cb_invariant_to_flat_group():
    rows = group_rows(0, 1, ["a", "b"])
    probs = [0.8, 0.3]
    base = counterfactual_bias(CounterfactualCorpus(rows=tuple(rows)), probs, "a")
    extended = rows + group_rows(1, 0, ["a", "b"])
    grown = counterfactual_bias(CounterfactualCorpus(rows=tuple(extended)), probs + [0.4, 0.4], "a")
    assert grown.cb_total == pytest.approx(base.cb_total, abs=1e-12)
    assert grown.n_examples == 2


def _brute_force_cb(scored, reference):
    """CB total and group count: each group index in ascending order, found by scanning every row."""
    total = 0.0
    indices = sorted({row.group_index for row, _ in scored})
    for index in indices:
        members = [(row, p) for row, p in scored if row.group_index == index]
        p_ref = [p for row, p in members if row.subgroup == reference]
        p_cf = [p for row, p in members if row.subgroup != reference]
        sign = 1.0 if members[0][0].label == 1 else -1.0
        total += (p_ref[0] - sum(p_cf) / len(p_cf)) * sign
    return total, len(indices)


@st.composite
def counterfactual_cases(draw):
    """(row, p) of 1-5 groups with out-of-order indices, each holding "a" and 1-3 other
    subgroups under one label, in a shuffled order that interleaves the groups' rows."""
    scored = []
    for index in draw(st.lists(st.integers(0, 99), min_size=1, max_size=5, unique=True)):
        others = draw(st.lists(st.sampled_from("bcd"), min_size=1, max_size=3, unique=True))
        for row in group_rows(index, draw(st.integers(0, 1)), ["a", *others]):
            scored.append((row, draw(st.floats(0.0, 1.0))))
    return draw(st.permutations(scored))


@settings(max_examples=200, deadline=None)
@given(counterfactual_cases())
def test_counterfactual_bias_matches_a_brute_force_loop(scored):
    corpus = CounterfactualCorpus(rows=tuple(row for row, _ in scored))
    probabilities = [p for _, p in scored]
    total, n = _brute_force_cb(scored, "a")
    assert counterfactual_bias(corpus, probabilities, "a") == CBResult("a", total, total / n, n)
    # "b" is missing from some groups; the lowest such group index is the one named
    missing = sorted(
        {row.group_index for row, _ in scored}
        - {row.group_index for row, _ in scored if row.subgroup == "b"}
    )
    if missing:
        with pytest.raises(AuditError, match=f"^group {missing[0]} needs exactly one 'b' "):
            counterfactual_bias(corpus, probabilities, "b")
    else:
        total, n = _brute_force_cb(scored, "b")
        assert counterfactual_bias(corpus, probabilities, "b") == CBResult("b", total, total / n, n)


def test_counterfactual_probability_stats():
    rows = group_rows(0, 1, ["a", "b"]) + group_rows(1, 0, ["a", "b"])
    corpus = CounterfactualCorpus(rows=tuple(rows))
    stats = counterfactual_probability_stats(corpus, [0.9, 0.7, 0.2, 0.4])
    by_cell = {(r.actual, r.subgroup): r for r in stats}
    assert by_cell[("hateful", "a")].mean_p_hateful == pytest.approx(0.9)
    assert by_cell[("not-hateful", "b")].mean_p_hateful == pytest.approx(0.4)


# ---------------------------------------------------------------------------
# fairness metrics
# ---------------------------------------------------------------------------

MINI_LEX = _lexicon_from_obj({"grp": {"ref": ["refword"], "prot": ["protword"]}})


def fairness_fixture(ref_items, prot_items):
    comments = []
    preds = []
    for prefix, items in (("r", ref_items), ("p", prot_items)):
        marker = "refword" if prefix == "r" else "protword"
        for i, (label, p) in enumerate(items):
            cid = f"{prefix}{i}"
            comments.append(Comment(id=cid, text=f"{marker} comment {i}", label=label))
            preds.append(PredictionRecord(comment_id=cid, p_hateful=p))
    annotated = annotate_corpus(LabeledCorpus(comments), MINI_LEX, EMPTY_GAZ)
    return annotated, preds


def test_fairness_identical_groups_all_zero():
    items = [(1, 0.9), (0, 0.2), (1, 0.4), (0, 0.6)]
    annotated, preds = fairness_fixture(items, items)
    metrics = fairness_metrics(annotated, preds, "grp", "ref", "prot", 0.5)
    for name, value in metrics.values.items():
        assert value == pytest.approx(0.0, abs=1e-12), name
    assert metrics.not_computable == {}


def test_fairness_statistical_parity_hand_count():
    ref = [(1, 0.9), (1, 0.8), (0, 0.7), (0, 0.2), (0, 0.1)]  # 3/5 predicted positive
    prot = [(1, 0.9), (0, 0.6), (0, 0.4), (0, 0.3), (0, 0.2)]  # 2/5 predicted positive
    annotated, preds = fairness_fixture(ref, prot)
    metrics = fairness_metrics(annotated, preds, "grp", "ref", "prot", 0.5)
    assert metrics.values["statistical_parity"] == pytest.approx(0.2, abs=1e-9)


def test_fairness_equal_opportunity_hand_count():
    ref = [(1, 0.9), (1, 0.8), (0, 0.1), (0, 0.2)]  # TPR 2/2
    prot = [(1, 0.9), (1, 0.2), (0, 0.1), (0, 0.2)]  # TPR 1/2
    annotated, preds = fairness_fixture(ref, prot)
    metrics = fairness_metrics(annotated, preds, "grp", "ref", "prot", 0.5)
    assert metrics.values["equal_opportunity"] == pytest.approx(0.5, abs=1e-9)


def test_fairness_sign_flip_on_exchange():
    ref = [(1, 0.9), (1, 0.8), (0, 0.7), (0, 0.2)]
    prot = [(1, 0.6), (0, 0.4), (0, 0.3), (1, 0.2)]
    annotated, preds = fairness_fixture(ref, prot)
    forward = fairness_metrics(annotated, preds, "grp", "ref", "prot", 0.5)
    backward = fairness_metrics(annotated, preds, "grp", "prot", "ref", 0.5)
    for name in ("statistical_parity", "equal_opportunity"):
        assert forward.values[name] == pytest.approx(-backward.values[name], abs=1e-12)


def test_fairness_not_computable_markers():
    ref = [(0, 0.1), (0, 0.2)]  # no actual positives, no predicted positives
    prot = [(1, 0.9), (0, 0.1)]
    annotated, preds = fairness_fixture(ref, prot)
    metrics = fairness_metrics(annotated, preds, "grp", "ref", "prot", 0.5)
    assert metrics.values["equal_opportunity"] is None
    assert "no actual positives" in metrics.not_computable["equal_opportunity"]
    assert metrics.values["positive_predictive_value"] is None
    assert metrics.values["positive_class_balance"] is None
    # treatment equality: ref has no errors at all
    assert metrics.values["normalized_treatment_equality"] is None
    assert metrics.values["statistical_parity"] is not None


def test_fairness_gini_hand_case():
    ref = [(1, 0.5), (0, 0.5)]  # benefits 0.5, 1.5 -> Gini 0.25
    prot = [(0, 0.3), (0, 0.3)]  # constant benefits -> 0
    annotated, preds = fairness_fixture(ref, prot)
    metrics = fairness_metrics(annotated, preds, "grp", "ref", "prot", 0.5)
    assert metrics.values["gini_equality"] == pytest.approx(0.25, abs=1e-9)


def test_fairness_positive_class_balance():
    ref = [(1, 0.9), (1, 0.7), (0, 0.1)]  # mean over predicted positives 0.8
    prot = [(1, 0.6), (0, 0.1)]  # 0.6
    annotated, preds = fairness_fixture(ref, prot)
    metrics = fairness_metrics(annotated, preds, "grp", "ref", "prot", 0.5)
    assert metrics.values["positive_class_balance"] == pytest.approx(0.2, abs=1e-9)


def test_fairness_pair_naming_one_subgroup_twice_is_rejected():
    annotated, preds = fairness_fixture([(1, 0.9), (0, 0.2)], [(1, 0.4)])
    with pytest.raises(AuditError, match=re.escape("got grp.ref twice")):
        fairness_metrics(annotated, preds, "grp", "ref", "ref", 0.5)


def test_fairness_names_each_missing_prediction_once():
    annotated, preds = fairness_fixture([(1, 0.9), (0, 0.2), (1, 0.4)], [(1, 0.4)])
    kept = [record for record in preds if record.comment_id not in ("r0", "r2")]
    message = re.escape("predictions missing for 2 comment(s): ['r0', 'r2']")
    with pytest.raises(CoverageError, match=f"^{message}$"):
        fairness_metrics(annotated, kept, "grp", "ref", "prot", 0.5)


def _brute_force_counts(items, threshold):
    """(tp, fp, fn, tn) of (label, p) items, predicting hateful iff p >= threshold."""
    tp = fp = fn = tn = 0
    for label, p in items:
        if p >= threshold:
            if label == 1:
                tp += 1
            else:
                fp += 1
        elif label == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


@st.composite
def scored_groups(draw):
    """A threshold and two non-empty groups of (label, p); some p equal the threshold."""
    threshold = draw(st.floats(0.0, 1.0))
    p = st.one_of(st.just(threshold), st.floats(0.0, 1.0))
    group = st.lists(st.tuples(st.integers(0, 1), p), min_size=1, max_size=8)
    return threshold, draw(group), draw(group)


@settings(max_examples=200, deadline=None)
@given(scored_groups())
def test_confusion_counts_match_a_brute_force_loop(case):
    threshold, ref, prot = case
    annotated, preds = fairness_fixture(ref, prot)

    report = performance_report(annotated.corpus, preds, threshold)
    tp, fp, fn, tn = _brute_force_counts(ref + prot, threshold)
    assert report.accuracy == (tp + tn) / (tp + fp + fn + tn)
    assert report.per_class["hateful"].support == tp + fn
    assert report.per_class["not-hateful"].support == tn + fp
    assert report.per_class["hateful"].precision == (tp / (tp + fp) if tp + fp else 0.0)
    assert report.per_class["not-hateful"].precision == (tn / (tn + fn) if tn + fn else 0.0)
    assert report.per_class["hateful"].recall == (tp / (tp + fn) if tp + fn else 0.0)
    assert report.per_class["not-hateful"].recall == (tn / (tn + fp) if tn + fp else 0.0)

    metrics = fairness_metrics(annotated, preds, "grp", "ref", "prot", threshold)
    rates = {}
    for name, items in (("ref", ref), ("prot", prot)):
        tp, fp, fn, tn = _brute_force_counts(items, threshold)
        predicted_positive = [p for _, p in items if p >= threshold]
        rates[name] = {
            "positive_class_balance": (
                sum(predicted_positive) / len(predicted_positive) if predicted_positive else None
            ),
            "statistical_parity": (tp + fp) / len(items),
            "overall_accuracy_equality": (tp + tn) / len(items),
            "equal_opportunity": tp / (tp + fn) if tp + fn else None,
            "positive_predictive_value": tp / (tp + fp) if tp + fp else None,
            "normalized_treatment_equality": fn / (fn + fp) if fn + fp else None,
        }
    for name in rates["ref"]:
        r, p = rates["ref"][name], rates["prot"][name]
        assert metrics.values[name] == (None if r is None or p is None else r - p), name


def test_gini_properties():
    assert gini_coefficient([1.0, 1.0, 1.0]) == 0.0
    assert gini_coefficient([2.0]) == 0.0
    assert gini_coefficient([]) == 0.0
    assert gini_coefficient([0.0, 0.0]) == 0.0
    assert gini_coefficient([0.5, 1.5]) == pytest.approx(0.25, abs=1e-12)


def test_cb_result_serialization():
    result = CBResult(reference="islam", cb_total=-0.0067, cb_mean=-0.0067, n_examples=1)
    payload = result.to_dict()
    assert payload["reference"] == "islam"
    assert payload["cb_total"] == pytest.approx(-0.0067)
