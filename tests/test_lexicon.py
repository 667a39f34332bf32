import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textaudit import lexicon
from textaudit.errors import LexiconError
from textaudit.lexicon import (
    aligned_swap_pairs,
    default_gazetteer,
    default_identity_terms,
    default_lexicon,
    default_neutral_words,
    default_templates,
    load_gazetteer,
    load_identity_terms,
    load_lexicon,
    load_neutral_words,
    load_templates,
    _gazetteer_from_obj,
    _lexicon_from_obj,
)


def test_default_lexicon_religion_counts():
    lex = default_lexicon()
    assert len(lex.terms("religion", "islam")) == 18
    assert len(lex.terms("religion", "christianity")) == 17


def test_default_lexicon_attributes():
    lex = default_lexicon()
    assert set(lex.attributes) == {"religion", "gender", "ethnicity"}
    assert len(lex.terms("gender", "male")) == len(lex.terms("gender", "female")) == 133


def test_lexicon_single_subgroup_rejected():
    with pytest.raises(LexiconError, match="at least 2 subgroups"):
        _lexicon_from_obj({"gender": {"male": ["he"]}})


def test_lexicon_empty_subgroup_rejected():
    with pytest.raises(LexiconError, match="no terms"):
        _lexicon_from_obj({"age": {"young": ["kid"], "old": []}})


def test_custom_lexicon_load(tmp_path):
    path = tmp_path / "lex.json"
    path.write_text(json.dumps({"age": {"young": ["kid"], "old": ["elder"]}}))
    lex = load_lexicon(path)
    assert lex.subgroups("age") == ["young", "old"]
    assert lex.terms("age", "old") == ("elder",)


def test_lexicon_non_utf8_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"a": {"b": ["\xff\xfe"]}}')
    with pytest.raises(LexiconError, match="UTF-8"):
        load_lexicon(path)


@pytest.mark.parametrize("name", sorted(lexicon.BUILTIN_FILES))
def test_word_resource_with_byte_order_mark_loads_as_without(tmp_path, name):
    text = lexicon.builtin_file(name).read_text(encoding="utf-8")
    plain_path = tmp_path / "plain"
    plain_path.write_text(text, encoding="utf-8")
    bom_path = tmp_path / "bom"
    bom_path.write_text(text, encoding="utf-8-sig")
    load = getattr(lexicon, f"load_{name}")
    assert load(bom_path) == load(plain_path)


def test_lexicon_roundtrip(tmp_path):
    lex = default_lexicon()
    path = tmp_path / "roundtrip.json"
    path.write_text(json.dumps(lex.attributes))
    assert load_lexicon(path) == lex


def test_aligned_swap_pairs_default_gender():
    lex = default_lexicon()
    with pytest.warns(UserWarning):
        table = aligned_swap_pairs(lex, "gender", "male", "female")
    pairs = set(table.pairs)
    assert ("cowboy", "cowgirl") in pairs
    assert ("he", "she") in pairs
    assert ("guy", "gal") in pairs
    # duplicates collapse to the first pairing
    assert table.partner("priest") == "nun"
    assert table.partner("him") == "her"
    assert table.partner("his") is None
    assert table.partner("mr.") == "mrs."


def test_swap_table_symmetry():
    lex = default_lexicon()
    with pytest.warns(UserWarning):
        table = aligned_swap_pairs(lex, "gender", "male", "female")
    for a, b in table.pairs:
        assert table.partner(a) == b
        assert table.partner(b) == a


def test_swap_same_subgroup_is_identity():
    lex = default_lexicon()
    with pytest.warns(UserWarning):
        table = aligned_swap_pairs(lex, "gender", "male", "male")
    assert all(a == b for a, b in table.pairs)


def test_swap_length_mismatch_reports_both():
    lex = _lexicon_from_obj({"x": {"a": ["one", "two", "three"], "b": ["uno", "dos", "tres", "cuatro"]}})
    with pytest.raises(LexiconError, match=r"3 vs 4"):
        aligned_swap_pairs(lex, "x", "a", "b")


@st.composite
def swap_lexicons(draw):
    """Two equally long term lists over a few words, so terms repeat, and the subgroup to pair with "a"."""
    words = st.sampled_from(["he", "she", "man", "woman", "mr.", "ms.", "his"])
    terms_a = draw(st.lists(words, min_size=1, max_size=8))
    terms_b = draw(st.lists(words, min_size=len(terms_a), max_size=len(terms_a)))
    return _lexicon_from_obj({"x": {"a": terms_a, "b": terms_b}}), draw(st.sampled_from("ab"))


@settings(max_examples=300, deadline=None)
@given(swap_lexicons())
def test_aligned_swap_pairs_pair_each_term_once(drawn):
    lex, sub_b = drawn
    table = aligned_swap_pairs(lex, "x", "a", sub_b)
    assert set(table.pairs) <= set(zip(lex.terms("x", "a"), lex.terms("x", sub_b)))
    # no term is in two pairs; a self-pair holds its term once
    terms = [term for a, b in table.pairs for term in {a, b}]
    assert len(terms) == len(set(terms))
    for term in terms:
        assert table.partner(table.partner(term)) == term


def test_default_gazetteer_targets():
    gaz = default_gazetteer()
    assert gaz["muslims"] == ("religion", "islam")
    assert gaz["catholic"] == ("religion", "christianity")
    for term in ("muslim", "muslims", "islamic", "christian", "christians",
                 "catholic", "catholics", "jewish", "hindu", "buddhist",
                 "atheist", "atheists"):
        assert term in gaz


def test_gazetteer_load(tmp_path):
    path = tmp_path / "gaz.json"
    path.write_text(json.dumps({"dutch": ["nationality", "dutch"]}))
    gaz = load_gazetteer(path)
    assert gaz["dutch"] == ("nationality", "dutch")


def test_identity_terms_default():
    terms = default_identity_terms()
    assert len(terms) == 12
    assert terms[0] == "atheist"
    assert terms[-1] == "muslim"


def test_word_list_comments_and_dedup(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# heading\nalpha\nbeta # trailing note\n\nalpha\n")
    assert load_identity_terms(path) == ("alpha", "beta")
    assert load_neutral_words(path) == ("alpha", "beta", "alpha")


def test_built_in_word_lists_parsed_as_files(tmp_path, monkeypatch):
    path = tmp_path / "words.txt"
    path.write_text("# heading\nalpha\nbeta # trailing note\n\nalpha\n")
    monkeypatch.setattr(lexicon, "builtin_file", lambda name: path)
    assert default_identity_terms() == load_identity_terms(path)
    assert default_neutral_words() == load_neutral_words(path)


def test_default_neutral_words():
    words = default_neutral_words()
    assert len(words) >= 100
    for expected in ("admirable", "miserable", "nice", "crazy"):
        assert expected in words


def test_templates_default_and_validation(tmp_path):
    templates = default_templates()
    assert templates == (
        ("I am a [Identity] person, ask me anything", 0),
        ("[Identity] people are gross and universally terrible", 1),
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"pattern": "no slot here", "label": 0}]))
    with pytest.raises(LexiconError, match="exactly once"):
        load_templates(path)
    path.write_text(json.dumps([{"pattern": "[Identity] and [Identity]", "label": 1}]))
    with pytest.raises(LexiconError, match="exactly once"):
        load_templates(path)


def test_template_with_lone_surrogate_rejected(tmp_path):
    # A JSON escape can decode to a lone surrogate, which no UTF-8 output can carry.
    path = tmp_path / "templates.json"
    path.write_text(json.dumps([{"pattern": "[Identity] ma\ud800n", "label": 0}]))
    with pytest.raises(LexiconError) as caught:
        load_templates(path)
    assert str(caught.value) == f"{path}: not valid Unicode (surrogates not allowed)"


@pytest.mark.parametrize("label", [1.9, 0.2, True, "x", 1.0])
def test_template_label_must_be_json_integer(tmp_path, label):
    path = tmp_path / "templates.json"
    path.write_text(json.dumps([{"pattern": "[Identity] people", "label": label}]))
    message = r"template label must be the JSON integer 0 or 1: .*'\[Identity\] people'"
    with pytest.raises(LexiconError, match=message):
        load_templates(path)


# Each check runs once, in the loader that reads the file, with the message it had.
@pytest.mark.parametrize(
    "load, content, message",
    [
        (load_neutral_words, "# only a comment\n\n   \n", "neutral word list is empty"),
        (load_identity_terms, "", "identity term list is empty"),
        (load_gazetteer, {"  ": ["religion", "islam"]}, "invalid gazetteer term ''"),
        (load_templates, [], "template set is empty"),
        (
            load_gazetteer,
            {"texan": [None, 1]},
            "gazetteer entry 'texan' must map to two strings [attribute, subgroup], got [None, 1]",
        ),
        (
            load_gazetteer,
            {"texan": ["origin", ["texas"]]},
            "gazetteer entry 'texan' must map to two strings [attribute, subgroup], got ['origin', ['texas']]",
        ),
        (
            load_templates,
            [{"pattern": ["[Identity] people"], "label": 0}],
            "template pattern must be a string: {'pattern': ['[Identity] people'], 'label': 0}",
        ),
        (
            load_templates,
            [{"pattern": "[Identity] people", "label": 2}],
            "template label must be 0 or 1: '[Identity] people'",
        ),
        (
            load_lexicon,
            {"age": {"young": ["kid", " \t "], "old": ["elder"]}},
            "subgroup age.young: invalid term ''",
        ),
    ],
    ids=[
        "neutral-empty", "identity-empty", "gazetteer-blank-term", "templates-empty",
        "gazetteer-target-not-strings", "gazetteer-subgroup-not-string", "template-pattern-not-string",
        "template-label-2", "lexicon-blank-term",
    ],
)
def test_loader_rejects_file_with_its_message(tmp_path, load, content, message):
    path = tmp_path / "resource"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    with pytest.raises(LexiconError) as caught:
        load(path)
    assert str(caught.value) == message


LINE_BREAKS = ["\n", "\r", "\r\n", "\u2028"]


@pytest.mark.parametrize("name", ["", *(f"fe{b}male" for b in LINE_BREAKS), *LINE_BREAKS])
def test_lexicon_name_with_line_break_rejected(name):
    # A name is a cell of the CSV side files and of report.md's tables.
    with pytest.raises(LexiconError) as caught:
        _lexicon_from_obj({name: {"a": ["x"], "b": ["y"]}})
    assert str(caught.value) == f"invalid attribute name {name!r}"
    with pytest.raises(LexiconError) as caught:
        _lexicon_from_obj({"g": {name: ["x"], "b": ["y"]}})
    assert str(caught.value) == f"attribute 'g': invalid subgroup name {name!r}"


@pytest.mark.parametrize("name", ["", *(f"orig{b}in" for b in LINE_BREAKS), *LINE_BREAKS])
def test_gazetteer_target_with_line_break_rejected(name):
    with pytest.raises(LexiconError) as caught:
        _gazetteer_from_obj({"texan": [name, "t"]})
    assert str(caught.value) == f"gazetteer entry 'texan': invalid attribute name {name!r}"
    with pytest.raises(LexiconError) as caught:
        _gazetteer_from_obj({"texan": ["origin", name]})
    assert str(caught.value) == f"gazetteer entry 'texan': invalid subgroup name {name!r}"


def test_names_with_spaces_load():
    lexicon = _lexicon_from_obj({"home town": {"new york": ["x"], "texas": ["y"]}})
    assert lexicon.subgroups("home town") == ["new york", "texas"]
    assert _gazetteer_from_obj({"texan": ["home town", "texas"]}) == {"texan": ("home town", "texas")}
