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


def _embeddings(path):
    table = load_embeddings(path)
    return table.dimension, {term: list(vector) for term, vector in table.vectors.items()}


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
    "embeddings": (_embeddings, EmbeddingError, "he 0.5 1.0\nshe 1.0 -0.5\n"),
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
