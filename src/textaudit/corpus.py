"""Labeled comment datasets and the tokenizer shared by every assessment.

Tokenization is deliberately simple and deterministic. One compiled
pattern finds every token: a letter or digit, then further letters and
digits with apostrophes and periods between them; trailing periods stay only
on known abbreviations such as "mr.". Tokens are NFKC-normalized, then
lowercased, and carry their span as character offsets into the original
text, so ``splice`` can rewrite the text around them. Hashtags, @-mentions
and URLs get no special treatment: their letters and digits become ordinary
tokens. There is no stemming, sentence splitting or emoji normalization.
"""

import csv
import io
import json
import re
import unicodedata
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .errors import DatasetError, numbered_lines, read_text

SPLITS = ("train", "test", "unsplit")

# Periods kept when they terminate one of these tokens; derived from the
# built-in lexicon (terms such as "mr." would otherwise lose their period).
DEFAULT_ABBREVIATIONS = frozenset({"mr.", "mrs.", "ms."})

# One token: group 1 runs from its first letter or digit to its last, group 2
# is the apostrophes and periods after it. ``[^\W_]`` matches exactly the
# characters for which ``str.isalnum()`` is true. Each repetition consumes a
# whole run of letters and digits, or of apostrophes and periods then letters
# and digits, so the engine steps once per run, not once per character.
_TOKEN = re.compile(r"([^\W_]+(?:['.]+[^\W_]+)*)(['.]*)")


class TokenSpan(NamedTuple):
    """A token and its character span: the token is NFKC, then lowercase, of ``text[start:end]``."""

    token: str
    start: int
    end: int


class Comment(NamedTuple):
    """One labeled comment. :func:`load_dataset` checks each field, naming the line."""

    id: str
    text: str
    label: int
    split: str = "unsplit"


class LabeledCorpus:
    """Ordered collection of labeled comments with cached per-label totals.

    Ids are unique: :func:`load_dataset` rejects a repeated one, naming both lines.
    """

    def __init__(self, comments: Iterable[Comment]):
        self.comments: list[Comment] = list(comments)
        self._by_id: dict[str, Comment] = {comment.id: comment for comment in self.comments}
        self.counts: dict[int, int] = {
            0: sum(1 for c in self.comments if c.label == 0),
            1: sum(1 for c in self.comments if c.label == 1),
        }

    def __len__(self) -> int:
        return len(self.comments)

    def __iter__(self) -> Iterator[Comment]:
        return iter(self.comments)

    def get(self, comment_id: str) -> Comment:
        return self._by_id[comment_id]

    def __contains__(self, comment_id: str) -> bool:
        return comment_id in self._by_id


def _parse_label(raw, line: int) -> int:
    if isinstance(raw, bool):
        raise DatasetError(f"label must be 0/1 or hateful/not-hateful, got {raw!r}", line)
    if isinstance(raw, int):
        if raw in (0, 1):
            return raw
        raise DatasetError(f"label must be 0 or 1, got {raw!r}", line)
    if isinstance(raw, str):
        value = raw.strip().lower()
        if value in ("0", "1"):
            return int(value)
        if value == "hateful":
            return 1
        if value == "not-hateful":
            return 0
    raise DatasetError(f"unknown label {raw!r}", line)


def _parse_split(raw, line: int) -> str:
    if raw is None or raw == "":
        return "unsplit"
    value = str(raw).strip().lower()
    if value not in SPLITS:
        raise DatasetError(f"unknown split {raw!r}", line)
    return value


def _build_comment(
    comment_id, text, label, split, line: int, ordinal: int, has_ids: bool
) -> Comment:
    """The comment of one record's fields, each ``None`` where the record lacks it.

    An id is stripped, as :func:`~textaudit.modeliface.load_predictions`
    strips the ids it reads, so " a1 " and "a1" are one id. It must be one
    line: the report names comments by id in table cells and list items.
    """
    if text is None:
        raise DatasetError("missing text field", line)
    if not isinstance(text, str):
        raise DatasetError(f"text must be a string, got {type(text).__name__}", line)
    if not text.strip():
        raise DatasetError("empty text", line)
    if label is None:
        raise DatasetError("missing label field", line)
    label = _parse_label(label, line)
    split = _parse_split(split, line)
    if has_ids:
        comment_id = "" if comment_id is None else str(comment_id).strip()
        if not comment_id:
            raise DatasetError("missing id value", line)
        if comment_id.splitlines() != [comment_id]:
            raise DatasetError(f"id {comment_id!r} is not one line", line)
    else:
        comment_id = f"row-{ordinal}"
    return Comment(comment_id, text, label, split)


def load_dataset(path: str | Path, format: str = "csv") -> LabeledCorpus:
    """Load a labeled comment dataset from CSV or JSONL.

    CSV needs a header with columns ``text`` and ``label`` (``id`` and
    ``split`` optional, RFC-4180 quoting). JSONL is one object per line with
    the same keys. Labels are 0/1 or "hateful"/"not-hateful"
    (case-insensitive). Records without an id column get ids "row-<n>"
    (1-based). A file without any record is an error. Loading is
    deterministic: identical bytes yield an identical corpus.
    """
    if format not in ("csv", "jsonl"):
        raise DatasetError(f"unknown dataset format {format!r}")
    comments: list[Comment] = []
    seen_ids: dict[str, int] = {}
    if format == "csv":
        columns, rows = csv_rows(path, ("text", "label"), "dataset")
        id_column, split_column = columns.get("id"), columns.get("split")
        text_column, label_column = columns["text"], columns["label"]
        for ordinal, (line, row) in enumerate(rows, start=1):
            comment = _build_comment(
                None if id_column is None else row[id_column],
                row[text_column],
                row[label_column],
                None if split_column is None else row[split_column],
                line,
                ordinal,
                id_column is not None,
            )
            _check_duplicate(comment.id, seen_ids, line)
            comments.append(comment)
    else:
        ordinal = 0
        for line, text_line in numbered_lines(read_text(path, DatasetError, "dataset")):
            ordinal += 1
            try:
                record = json.loads(text_line)
            except json.JSONDecodeError as exc:
                raise DatasetError(f"invalid JSON: {exc.msg}", line) from exc
            if not isinstance(record, dict):
                raise DatasetError("record must be a JSON object", line)
            comment = _build_comment(
                record.get("id"), record.get("text"), record.get("label"), record.get("split"),
                line, ordinal, "id" in record,
            )
            # JSON escapes can carry lone surrogates, which have no UTF-8 bytes: such
            # text can neither be written to the outputs nor sent to a model. A CSV
            # row cannot hold one, since its file was decoded as strict UTF-8.
            for field in ("id", "text"):
                try:
                    getattr(comment, field).encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise DatasetError(
                        f"comment {comment.id!r}: {field} is not valid Unicode ({exc.reason})",
                        line,
                    ) from exc
            _check_duplicate(comment.id, seen_ids, line)
            comments.append(comment)
    if not comments:
        raise DatasetError(f"dataset {path} has no records")
    return LabeledCorpus(comments)


def csv_rows(path: str | Path, required: tuple[str, ...], name: str) -> tuple[dict[str, int], Iterator]:
    """The columns and rows of CSV file ``path`` (``name`` in messages), as ``csv.DictReader`` reads them.

    The columns map each header name, stripped, to its index; a repeated
    name maps to its last column, and the header must hold every column in
    ``required``. The rows are ``(line, fields)`` per non-blank row, where
    ``line`` is the row's last physical line. A short row's missing fields
    are ``None``; a row longer than the header is an error.
    """
    reader = csv.reader(io.StringIO(read_text(path, DatasetError, name), newline=""))
    header = next(reader, None)
    if header is None:
        raise DatasetError(f"{name} {path} is empty (header row required)")
    columns = {column.strip(): i for i, column in enumerate(header)}
    for column in required:
        if column not in columns:
            raise DatasetError(f"{name} {path} header is missing the {column!r} column")
    return columns, _rows(reader, len(header))


def _rows(reader, width: int) -> Iterator[tuple[int, list]]:
    for row in reader:
        if len(row) != width:
            if not row:
                continue
            if len(row) > width:
                raise DatasetError("row has more fields than the header", reader.line_num)
            row += [None] * (width - len(row))
        yield reader.line_num, row


def _check_duplicate(comment_id: str, seen: dict[str, int], line: int) -> None:
    if comment_id in seen:
        raise DatasetError(
            f"duplicate id {comment_id!r} (first seen at line {seen[comment_id]})", line
        )
    seen[comment_id] = line


def tokenize(
    text: str,
    abbreviations: frozenset[str] | None = None,
    vocabulary: frozenset[str] | None = None,
) -> list[TokenSpan]:
    """Segment text into lowercased word tokens with character spans.

    A token is one match of ``_TOKEN``: a letter or digit, then any further
    letters and digits with apostrophes and periods between them. Leading
    apostrophes and periods are never part of a token; of the trailing ones,
    a token keeps the longest prefix ending in a period that makes it a known
    abbreviation (e.g. "mr."), and no others. Tokens are NFKC-normalized,
    then lowercased, so letters that only NFKC maps to ASCII ("𝐆") lose
    their case too.

    Spans are offsets into ``text`` itself: the token is ``text[start:end]``,
    NFKC-normalized, then lowercased. Given a ``vocabulary``, only the
    tokens in it are kept: the result is the unfiltered one with every other
    token left out.
    """
    if abbreviations is None:
        abbreviations = DEFAULT_ABBREVIATIONS
    # TokenSpan(...) calls a Python-level __new__; tuple.__new__ builds the same record directly.
    new, normalize = tuple.__new__, unicodedata.normalize
    spans: list[TokenSpan] = []
    append = spans.append
    for match in _TOKEN.finditer(text):
        word, run = match.groups()
        if "." in run:
            start, end = match.span(1)
            word = text[start : _kept_end(text, start, end, match.end(), abbreviations)]
        token = normalize("NFKC", word).lower()
        if vocabulary is None or token in vocabulary:
            start = match.start()  # group 1 opens the match
            append(new(TokenSpan, (token, start, start + len(word))))
    return spans


def narrow(text: str, span: TokenSpan, abbreviations: frozenset[str]) -> TokenSpan:
    """The token ``tokenize(text, abbreviations)`` gives in place of ``span``.

    ``span`` must come from tokenizing ``text`` with a superset of
    ``abbreviations``, so it differs only if it kept a trailing period for a
    word outside ``abbreviations``: the tokenizer's rule then trims it
    further.
    """
    if not span.token.endswith("."):
        return span
    # A span starts where its token's match did, so the pattern matches there.
    first_end = _TOKEN.match(text, span.start).end(1)
    end = _kept_end(text, span.start, first_end, span.end, abbreviations)
    return TokenSpan(unicodedata.normalize("NFKC", text[span.start : end]).lower(), span.start, end)


def splice(text: str, replacements: Iterable[tuple[TokenSpan, str]]) -> str:
    """``text`` with each span, given in text order, replaced by its string."""
    pieces: list[str] = []
    cursor = 0
    for span, replacement in replacements:
        pieces.append(text[cursor : span.start])
        pieces.append(replacement)
        cursor = span.end
    pieces.append(text[cursor:])
    return "".join(pieces)


def _kept_end(text: str, start: int, end: int, run_end: int, abbreviations: frozenset[str]) -> int:
    """Where the token ``text[start:end]`` ends once its trailing run is trimmed.

    ``text[end:run_end]`` are the apostrophes and periods after the token's
    last letter or digit. Walking back from ``run_end``, the first cut just
    after a period that leaves a known abbreviation wins; otherwise the whole
    run goes. The candidate is normalized as a token is: NFKC, then
    lowercase.
    """
    k = text.rfind(".", end, run_end)
    while k >= 0:
        if unicodedata.normalize("NFKC", text[start : k + 1]).lower() in abbreviations:
            return k + 1
        k = text.rfind(".", end, k)
    return end
