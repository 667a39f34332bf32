import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
FIXTURES_DIR = TESTS_DIR / "fixtures"
GOLDEN_DIR = TESTS_DIR / "golden"
REPO_ROOT = TESTS_DIR.parent

sys.path.insert(0, str(TESTS_DIR))

from stub_model import keyword_probability  # noqa: E402

from textaudit.classbias import swap_text  # noqa: E402
from textaudit.corpus import Comment, LabeledCorpus, load_dataset  # noqa: E402
from textaudit.lexicon import default_gazetteer, default_lexicon  # noqa: E402
from textaudit.mining import annotate_corpus  # noqa: E402
from textaudit.modeliface import AdapterConfig  # noqa: E402


def annotate_and_swap(text, table, lexicon):
    """``text`` swapped as the audit swaps it: over its look-up matches of the table's attribute."""
    refs = annotate_corpus(LabeledCorpus([Comment(id="c", text=text, label=0)]), lexicon, {}).refs("c")
    return swap_text(text, [m for r in refs if r.attribute == table.attribute for m in r.matched_terms], table)


class CallableAdapter:
    """In-process adapter wrapping a plain scoring function; counts calls, records batches."""

    def __init__(self, fn, batch_size=64, max_retries=0):
        self.config = AdapterConfig(
            kind="subprocess",
            location="<in-process>",
            batch_size=batch_size,
            max_retries=max_retries,
        )
        self.fn = fn
        self.calls = 0
        self.texts_scored = 0
        self.sent = []
        self.batches = []

    def score_batch(self, texts):
        self.calls += 1
        self.texts_scored += len(texts)
        self.sent.extend(texts)
        self.batches.append(list(texts))
        return [self.fn(t) for t in texts]

    def close(self):
        pass


@pytest.fixture
def keyword_adapter():
    return CallableAdapter(keyword_probability)


@pytest.fixture(scope="session")
def fixture_corpus():
    return load_dataset(FIXTURES_DIR / "comments.csv", "csv")


@pytest.fixture(scope="session")
def fixture_annotated(fixture_corpus):
    return annotate_corpus(fixture_corpus, default_lexicon(), default_gazetteer())
