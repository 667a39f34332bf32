"""Every input file is read one way: UTF-8 with an optional byte-order mark, errors naming the file."""

import json
import re

import pytest

from textaudit import lexicon
from textaudit.corpus import Comment, LabeledCorpus, load_dataset
from textaudit.embedbias import load_embeddings
from textaudit.errors import ConfigError, DatasetError, EmbeddingError, LexiconError
from textaudit.modeliface import load_predictions
from textaudit.report import load_config

CORPUS = LabeledCorpus(
    [Comment(id="a", text="hello there", label=0), Comment(id="b", text="you", label=1)]
)


# kind -> (loader, its error class, a valid file of that kind)
KINDS = {
    "dataset_csv": (
        lambda path: list(load_dataset(path, "csv")),
        DatasetError,
        "id,text,label\na,hello there,0\nb,you,1\n",
    ),
    "dataset_jsonl": (
        lambda path: list(load_dataset(path, "jsonl")),
        DatasetError,
        '{"id": "a", "text": "hello there", "label": 0}\n{"id": "b", "text": "you", "label": 1}\n',
    ),
    "predictions": (
        lambda path: load_predictions(path, CORPUS),
        DatasetError,
        "id,p_hateful\na,0.25\nb,0.75\n",
    ),
    "embeddings": (load_embeddings, EmbeddingError, "he 0.5 1.0\nshe 1.0 -0.5\n"),
    "lexicon": (
        lexicon.load_lexicon,
        LexiconError,
        json.dumps({"gender": {"male": ["he"], "female": ["she"]}}),
    ),
    "gazetteer": (lexicon.load_gazetteer, LexiconError, json.dumps({"texan": ["origin", "us"]})),
    "neutral_words": (lexicon.load_neutral_words, LexiconError, "# neutral\nnurse\nengineer\n"),
    "identity_terms": (lexicon.load_identity_terms, LexiconError, "gay\nmuslim\n"),
    "templates": (
        lexicon.load_templates,
        LexiconError,
        json.dumps([{"pattern": "[Identity] people are nice", "label": 0}]),
    ),
    "config": (load_config, ConfigError, json.dumps({"threshold": 0.4, "rng_seed": 3})),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_input_kind_read_one_way(tmp_path, kind):
    load, error, content = KINDS[kind]
    plain = tmp_path / "plain"
    plain.write_text(content, encoding="utf-8")
    bom = tmp_path / "bom"
    bom.write_bytes(b"\xef\xbb\xbf" + content.encode("utf-8"))
    assert load(bom) == load(plain)

    missing = tmp_path / "no_such_dir" / "missing"
    with pytest.raises(error, match=re.escape(str(missing))):
        load(missing)

    bad = tmp_path / "bad"
    bad.write_bytes(content.encode("utf-8") + b"\xff")
    with pytest.raises(error, match=f"{re.escape(str(bad))} is not valid UTF-8"):
        load(bad)


@pytest.mark.parametrize(
    "name, content, message",
    [
        ("dataset", "", "is empty (header row required)"),
        ("dataset", "id,text\na,hello\n", "header is missing the 'label' column"),
        ("predictions", "", "is empty (header row required)"),
        ("predictions", "id,p\na,0.5\n", "header is missing the 'p_hateful' column"),
    ],
)
def test_csv_header_errors_name_the_file(tmp_path, name, content, message):
    path = tmp_path / f"{name}.csv"
    path.write_text(content)
    load = {"dataset": load_dataset, "predictions": lambda p: load_predictions(p, CORPUS)}[name]
    with pytest.raises(DatasetError) as caught:
        load(path)
    assert str(caught.value) == f"{name} {path} {message}"


@pytest.mark.parametrize("format, content", [("csv", "id,text,label\n"), ("jsonl", "\n  \n\n")])
def test_dataset_without_records_rejected(tmp_path, format, content):
    # An empty corpus would fail every section that divides by its size.
    path = tmp_path / f"dataset.{format}"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(DatasetError) as caught:
        load_dataset(path, format)
    assert str(caught.value) == f"dataset {path} has no records"


# Rows the CSV loaders read as csv.DictReader does: a blank row is skipped, a
# short row's missing fields are missing, and a line number is the physical
# line a row ends on. A row longer than the header is an error in both.
@pytest.mark.parametrize(
    "name, content, message",
    [
        ("dataset", "id,text,label\na,hello,1\n\nb,world,7\n", "line 4: unknown label '7'"),
        ("dataset", "id,text,label\na,hello,1\nb,world\n", "line 3: missing label field"),
        ("dataset", "id,text,label\na,hello\n", "line 2: missing label field"),
        ("dataset", "id,text,label\na,hello,1,x\n", "line 2: row has more fields than the header"),
        ("dataset", 'id,text,label\na,"two\nlines",1\n\nb,world,7\n', "line 5: unknown label '7'"),
        (
            "predictions",
            "id,p_hateful\na,0.5\n\nb,7\n",
            "line 4: probability outside [0, 1] for id 'b': 7.0",
        ),
        ("predictions", "id,p_hateful\na,0.5\nb\n", "line 3: unparseable probability ''"),
        # "0,5" with a decimal comma: the extra field must not be dropped, leaving p = 0
        ("predictions", "id,p_hateful\na,0.5\nb,0,5\n", "line 3: row has more fields than the header"),
        (
            "predictions",
            'id,p_hateful,note\na,0.5,"two\nlines"\n\nb,7,\n',
            "line 5: probability outside [0, 1] for id 'b': 7.0",
        ),
    ],
)
def test_csv_row_errors_name_the_rows_line(tmp_path, name, content, message):
    path = tmp_path / f"{name}.csv"
    path.write_text(content, encoding="utf-8")
    load = {"dataset": load_dataset, "predictions": lambda p: load_predictions(p, CORPUS)}[name]
    with pytest.raises(DatasetError) as caught:
        load(path)
    assert str(caught.value) == message


def test_csv_repeated_header_name_reads_its_last_column(tmp_path):
    path = tmp_path / "dataset.csv"
    path.write_text("id,text,label,text\na,x,0,hello there\nb,y,1,you\n", encoding="utf-8")
    assert list(load_dataset(path)) == CORPUS.comments
    path = tmp_path / "predictions.csv"
    path.write_text("id,p_hateful,p_hateful\na,7,0.25\nb,,0.75\n", encoding="utf-8")
    assert [record.p_hateful for record in load_predictions(path, CORPUS)] == [0.25, 0.75]
