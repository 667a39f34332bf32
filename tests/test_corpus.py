import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textaudit.corpus import (
    _TOKEN,
    TokenSpan,
    load_dataset,
    narrow,
    tokenize,
)
from textaudit.errors import DatasetError
from textaudit.modeliface import PredictionRecord, load_predictions


def test_load_csv_basic(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('id,text,label\n1,good day,0\n2,awful people,1\n')
    corpus = load_dataset(path, "csv")
    assert len(corpus) == 2
    assert corpus.counts == {0: 1, 1: 1}
    assert corpus.get("1").text == "good day"
    assert corpus.get("2").label == 1


def test_load_csv_header_with_spaces(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id, text, label\n1,good day,0\n2,awful people,1\n")
    corpus = load_dataset(path, "csv")
    assert [(c.id, c.text, c.label) for c in corpus] == [
        ("1", "good day", 0),
        ("2", "awful people", 1),
    ]


@pytest.mark.parametrize(
    "name, body",
    [
        ("data.csv", "id,text,label\nc1,good day,0\nc2,awful people,1\n"),
        (
            "data.jsonl",
            '{"id": "c1", "text": "good day", "label": 0}\n'
            '{"id": "c2", "text": "awful people", "label": 1}\n',
        ),
    ],
)
def test_load_dataset_ignores_utf8_byte_order_mark(tmp_path, name, body):
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    corpus = load_dataset(path, name.rsplit(".", 1)[1])
    assert [(c.id, c.text, c.label) for c in corpus] == [
        ("c1", "good day", 0),
        ("c2", "awful people", 1),
    ]


def test_load_jsonl_label_strings(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"text": "you are the worst", "label": "hateful"}\n'
        '{"text": "lovely morning", "label": "NOT-HATEFUL"}\n'
    )
    corpus = load_dataset(path, "jsonl")
    assert [c.label for c in corpus] == [1, 0]
    assert [c.id for c in corpus] == ["row-1", "row-2"]


def test_duplicate_id_names_offender(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,text,label\n1,first,0\n1,second,1\n")
    with pytest.raises(DatasetError, match="'1'"):
        load_dataset(path, "csv")


def test_unknown_label_reports_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,text,label\n1,fine,0\n2,odd,maybe\n")
    with pytest.raises(DatasetError, match="line 3"):
        load_dataset(path, "csv")


def test_empty_text_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('id,text,label\n1,"   ",0\n')
    with pytest.raises(DatasetError, match="empty text"):
        load_dataset(path, "csv")


def test_missing_file():
    with pytest.raises(DatasetError):
        load_dataset("/nonexistent/nope.csv", "csv")


def test_jsonl_non_object_record(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"text": "ok", "label": 0}\n[1, 2, 3]\n')
    with pytest.raises(DatasetError, match="line 2"):
        load_dataset(path, "jsonl")


def test_jsonl_lone_surrogate_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        '{"id": "a", "text": "fine", "label": 0}\n{"id": "b", "text": "bad \\ud800", "label": 1}\n'
    )
    with pytest.raises(DatasetError, match="'b': text is not valid Unicode"):
        load_dataset(path, "jsonl")


@pytest.mark.parametrize(
    "format, body, message",
    [
        ("jsonl", '{"id": "a", "text": "fine", "label": 0}\n{"id": "b", "text": "odd", "label": 2}\n',
         "line 2: label must be 0 or 1, got 2"),
        ("csv", 'id,text,label\na,fine,0\nb," \t ",1\n', "line 3: empty text"),
        ("jsonl", '{"id": "a", "text": "fine", "label": 0}\n\n{"id": "b", "text": " \\n ", "label": 1}\n',
         "line 3: empty text"),
        ("csv", "id,text,label,split\na,fine,0,train\nb,odd,1,dev\n", "line 3: unknown split 'dev'"),
        ("csv", "id,text,label\na,fine,0\nb,more,1\na,again,1\n",
         "line 4: duplicate id 'a' (first seen at line 2)"),
        ("csv", "id,text,label\n a1 ,first,0\na1,second,1\n",
         "line 3: duplicate id 'a1' (first seen at line 2)"),
        ("jsonl", '{"id": " a1 ", "text": "first", "label": 0}\n{"id": "a1", "text": "second", "label": 1}\n',
         "line 2: duplicate id 'a1' (first seen at line 1)"),
        ("jsonl", '{"id": "a", "text": "fine", "label": 0}\n{"id": "b", "text": "bad \\ud800", "label": 1}\n',
         "line 2: comment 'b': text is not valid Unicode (surrogates not allowed)"),
        ("jsonl", '{"id": "a\\udc80", "text": "fine", "label": 0}\n',
         "line 1: comment 'a\\udc80': id is not valid Unicode (surrogates not allowed)"),
        # U+2028 breaks a line as "\n" does; the CSV loader counts it as one.
        ("csv", 'id,text,label\na,fine,0\n"h0\u20281",odd,1\n', "line 4: id 'h0\\u20281' is not one line"),
        ("jsonl", '{"id": "a", "text": "fine", "label": 0}\n{"id": "h0\\u20281", "text": "odd", "label": 1}\n',
         "line 2: id 'h0\\u20281' is not one line"),
    ],
    ids=["jsonl-label-2", "csv-blank-text", "jsonl-blank-text", "unknown-split", "duplicate-id",
         "csv-padded-duplicate-id", "jsonl-padded-duplicate-id", "text-surrogate", "id-surrogate",
         "csv-id-line-break", "jsonl-id-line-break"],
)
def test_loader_rejects_bad_record_naming_its_line(tmp_path, format, body, message):
    path = tmp_path / f"data.{format}"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DatasetError) as excinfo:
        load_dataset(path, format)
    assert str(excinfo.value) == message
    assert excinfo.value.line == int(message.split(":")[0].removeprefix("line "))


@pytest.mark.parametrize(
    "format, body",
    [("csv", "id,text,label\n a1 ,the gay people,1\n"),
     ("jsonl", '{"id": " a1 ", "text": "the gay people", "label": 1}\n')],
)
def test_padded_id_is_the_id_a_predictions_file_names(tmp_path, format, body):
    # Both loaders strip an id, so a predictions file that repeats the padded id
    # exactly, or gives it bare, names the same comment.
    path = tmp_path / f"data.{format}"
    path.write_text(body, encoding="utf-8")
    corpus = load_dataset(path, format)
    assert [c.id for c in corpus] == ["a1"]
    for id_field in (" a1 ", "a1"):
        predictions = tmp_path / "predictions.csv"
        predictions.write_text(f"id,p_hateful\n{id_field},0.9\n", encoding="utf-8")
        assert load_predictions(predictions, corpus) == [PredictionRecord("a1", 0.9)]


def test_split_column_honored(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,text,label,split\n1,hello there,0,test\n2,more text,1,\n")
    corpus = load_dataset(path, "csv")
    assert corpus.get("1").split == "test"
    assert corpus.get("2").split == "unsplit"


def test_quoted_multiline_field_preserved(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('id,text,label\n1,"line one\nline two",0\n')
    corpus = load_dataset(path, "csv")
    assert corpus.get("1").text == "line one\nline two"


def test_load_deterministic(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,text,label\na,one fine day,0\nb,the worst day,1\n")
    first = load_dataset(path, "csv")
    second = load_dataset(path, "csv")
    assert first.comments == second.comments
    assert first.counts == second.counts


def test_tokenize_lowercase_strip():
    assert [s.token for s in tokenize("He is SICK!")] == ["he", "is", "sick"]


def test_tokenize_internal_apostrophe():
    assert [s.token for s in tokenize("ma'am said hi")] == ["ma'am", "said", "hi"]


def test_tokenize_spans_hand_enumerated():
    spans = tokenize("I am Gay")
    assert [(s.token, s.start, s.end) for s in spans] == [
        ("i", 0, 1),
        ("am", 2, 4),
        ("gay", 5, 8),
    ]
    # spans recover original casing
    text = "I am Gay"
    assert text[5:8] == "Gay"


def test_tokenize_abbreviation_period():
    assert [s.token for s in tokenize("Mr. Smith met Ms. Jones.")] == [
        "mr.", "smith", "met", "ms.", "jones",
    ]


def test_tokenize_trailing_period_stripped():
    assert [s.token for s in tokenize("the end.")] == ["the", "end"]
    assert [s.token for s in tokenize("wait... what")] == ["wait", "what"]


def test_tokenize_empty_and_punct_only():
    assert tokenize("") == []
    assert tokenize("?! ... --") == []


def test_tokenize_spans_monotonic_and_reconstruct():
    texts = [
        "The Quick brown FOX, jumps!",
        "naïve café-goers réunion",
        "Mr. O'Neil's dog; 42 times.",
        "@user said #hashtag https://x.example/path?q=1",
    ]
    for text in texts:
        spans = tokenize(text)
        previous_end = 0
        for span in spans:
            assert 0 <= span.start < span.end <= len(text)
            assert span.start >= previous_end
            previous_end = span.end
            assert text[span.start : span.end].lower() == span.token


def test_tokenize_multibyte_offsets():
    text = "héllo wörld"
    spans = tokenize(text)
    assert [s.token for s in spans] == ["héllo", "wörld"]
    assert text[spans[1].start : spans[1].end] == "wörld"


# ---------------------------------------------------------------------------
# reference: the character-at-a-time tokenizer the compiled pattern replaced
# ---------------------------------------------------------------------------

_RUN_EXTRA = {"'", "."}


def _reference_trim_run(text, i, j, abbreviations):
    while i < j and text[i] in _RUN_EXTRA:
        i += 1
    while j > i and text[j - 1] in _RUN_EXTRA:
        if text[j - 1] == "." and unicodedata.normalize("NFKC", text[i:j]).lower() in abbreviations:
            break
        j -= 1
    if j <= i or not any(text[k].isalnum() for k in range(i, j)):
        return None
    return i, j


def reference_tokenize(text, abbreviations):
    """Maximal runs of letters, digits, apostrophes and periods, trimmed one by one."""
    spans = []
    n = len(text)
    i = 0
    while i < n:
        if text[i].isalnum() or text[i] in _RUN_EXTRA:
            j = i
            while j < n and (text[j].isalnum() or text[j] in _RUN_EXTRA):
                j += 1
            trimmed = _reference_trim_run(text, i, j, abbreviations)
            if trimmed is not None:
                s, e = trimmed
                token = unicodedata.normalize("NFKC", text[s:e]).lower()
                spans.append(TokenSpan(token=token, start=s, end=e))
            i = j
        else:
            i += 1
    return spans


# ASCII word characters and the run punctuation; characters whose lowercase
# differs in length ("İ") or depends on context ("Σ"); characters NFKC
# rewrites ("ﬁ", "²", "①"); a non-Latin digit and a 4-byte UTF-8 letter.
CHARACTERS = list("aAzZ09_'.- ") + [
    "ß", "é", "\u0301", "İ", "Σ", "ﬁ", "²", "①", "١", "𝐀",
]
ABBREVIATIONS = ["mr.", "u.s.", "ß.", "ﬁ.", "'a.", "a..", "a.", "σ."]

# Free character soup, and words built to sit next to the abbreviations:
# a lead, a body in some casing, then trailing apostrophes and periods.
soup = st.lists(st.sampled_from(CHARACTERS), max_size=30).map("".join)
word = st.tuples(
    st.sampled_from(["", "", "'", ".", "'."]),
    st.sampled_from(
        ["mr", "u.s", "ß", "ﬁ", "a", "σ", "İ", "𝐀b", "١", "①", "e\u0301", "x_y"]
    ),
    st.sampled_from([str.lower, str.upper, str.title]),
    st.sampled_from(["", "", ".", "..", "...", "'", ".'", "'.", "..'"]),
).map(lambda parts: parts[0] + parts[2](parts[1]) + parts[3])
words = st.lists(
    st.tuples(word, st.sampled_from([" ", " ", "-", "_", "", "²"])), max_size=8
).map(lambda pairs: "".join(w + sep for w, sep in pairs))
texts = st.lists(st.one_of(soup, words), min_size=1, max_size=3).map("".join)
abbreviation_sets = st.frozensets(st.sampled_from(ABBREVIATIONS))


@settings(max_examples=500, deadline=None)
@given(texts, abbreviation_sets)
def test_tokenize_matches_reference(text, abbreviations):
    assert tokenize(text, abbreviations) == reference_tokenize(text, abbreviations)


@settings(max_examples=500, deadline=None)
@given(texts, abbreviation_sets, st.data())
def test_narrow_abbreviations_equals_tokenizing_with_narrow_set(text, wide, data):
    narrow_set = data.draw(
        st.frozensets(st.sampled_from(sorted(wide))) if wide else st.just(frozenset())
    )
    assert [narrow(text, s, narrow_set) for s in tokenize(text, wide)] == tokenize(text, narrow_set)


@settings(max_examples=500, deadline=None)
@given(texts, abbreviation_sets)
def test_span_slices_normalize_to_token(text, abbreviations):
    for span in tokenize(text, abbreviations):
        piece = text[span.start : span.end]
        assert unicodedata.normalize("NFKC", piece).lower() == span.token


# Words whose tokens NFKC changes (accented, fullwidth, ligature, styled) or
# that end in a run of periods, for the vocabulary filter.
FILTER_WORDS = ["café", "cafe\u0301", "Ｍｒ.", "ＭＲ", "ﬁne", "ﬁ..", "U.S...", "a....", "𝐀b.", "Ok"]
FILTER_VOCABULARY = [
    "café", "mr", "mr.", "fine", "fi", "fi.", "u.s", "u.s.", "a", "a.", "a..", "ab", "ok", "ß", "σ", "1",
]
filter_texts = st.lists(
    st.one_of(soup, words, st.lists(st.sampled_from(FILTER_WORDS), max_size=5).map(" ".join)),
    min_size=1,
    max_size=3,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(filter_texts, abbreviation_sets, st.data())
def test_tokenize_with_vocabulary_keeps_exactly_the_tokens_in_it(text, abbreviations, data):
    tokens = tokenize(text, abbreviations)
    assert tokens == reference_tokenize(text, abbreviations)
    # Some tokens the text holds, and some words it may or may not hold.
    vocabulary = data.draw(st.frozensets(st.sampled_from(FILTER_VOCABULARY)))
    if tokens:
        vocabulary |= data.draw(st.frozensets(st.sampled_from([s.token for s in tokens])))
    assert tokenize(text, abbreviations, vocabulary) == [s for s in tokens if s.token in vocabulary]


def test_narrow_abbreviations_trims_the_raw_text():
    # "ﬁ" is one character, but its NFKC token "fi" is two, so narrowing
    # must cut the text, not the token.
    text = "ﬁ. MR.. a...'"
    wide = frozenset({"ﬁ.", "mr..", "a..", "a."})
    narrowed = [narrow(text, s, frozenset({"a."})) for s in tokenize(text, wide)]
    assert narrowed == tokenize(text, frozenset({"a."}))
    assert narrowed == [("fi", 0, 1), ("mr", 3, 5), ("a.", 8, 10)]


def test_tokenize_default_abbreviations_and_unicode_examples():
    assert tokenize("Mr.. ß. U.S.' ﬁ.") == reference_tokenize(
        "Mr.. ß. U.S.' ﬁ.", frozenset({"mr.", "mrs.", "ms."})
    )
    # The longest trailing run that makes an abbreviation wins.
    assert [s.token for s in tokenize("A... a..' a.x a.", frozenset({"a.", "a.."}))] == [
        "a..", "a..", "a.x", "a.",
    ]
    # Final sigma, a lowercase two characters long, a 4-byte letter, NFKC.
    assert tokenize("ΟΔΟΣ. İstanbul 𝐚b ①.", frozenset({"οδος."})) == [
        ("οδος.", 0, 5),
        ("i̇stanbul", 6, 14),
        ("ab", 15, 17),
        ("1", 18, 19),
    ]
    # NFKC before lowercasing: mathematical bold capitals become "gay".
    assert tokenize("𝐆𝐀𝐘 people") == [("gay", 0, 3), ("people", 4, 10)]
    # The abbreviation check normalizes the same way: a styled "𝐌𝐑." keeps its period.
    assert tokenize("𝐌𝐑. Smith") == [("mr.", 0, 3), ("smith", 4, 9)]


def test_token_pattern_letters_and_digits_are_exactly_isalnum():
    # Every code point on its own: the pattern must find exactly those for
    # which str.isalnum() holds, under this interpreter's Unicode database.
    everything = [chr(code) for code in range(sys.maxunicode + 1)]
    found = [match[1] for match in _TOKEN.finditer(" ".join(everything))]
    assert found == [ch for ch in everything if ch.isalnum()]
