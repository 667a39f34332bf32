"""Exception types shared across the audit toolkit, and the readers of every input file."""

from __future__ import annotations

import json
from pathlib import Path


class AuditError(Exception):
    """Base class for all audit-specific failures.

    ``line`` is the 1-based physical line of the offending input record when
    known; the message then starts with "line <n>: ".
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DatasetError(AuditError):
    """Malformed or unreadable dataset input."""


class LexiconError(AuditError):
    """Invalid word-resource file (lexicon, gazetteer, word list, templates)."""


class EmbeddingError(AuditError):
    """Invalid embedding file or vector operation."""


class EmptyPartitionError(AuditError):
    """A label partition required for a frequency denominator is empty."""

    def __init__(self, partition: str):
        super().__init__(f"partition {partition!r} is empty, cannot compute percentages")
        self.partition = partition


class CoverageError(AuditError):
    """Predictions do not cover the corpus under audit."""


class AdapterError(AuditError):
    """Base for failures while talking to the model under audit."""


class AdapterUnavailableError(AdapterError):
    """The adapter could not be reached; retryable."""


class AdapterProtocolError(AdapterError):
    """The adapter answered but violated the wire contract; not retryable."""


class ExplainError(AuditError):
    """Explanation could not be computed for the given inputs."""


class ConfigError(AuditError):
    """Invalid audit configuration."""


def read_text(path, error: type[AuditError], name: str = "") -> str:
    """Input file ``path`` as UTF-8 text, with or without a byte-order mark.

    If that fails, raises ``error``, naming the file as "<name> <path>".
    """
    where = f"{name} {path}" if name else f"{path}"
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise error(f"cannot read {where}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{where} is not valid UTF-8: {exc}") from exc


def read_json(path, error: type[AuditError], name: str = ""):
    """The JSON value in input file ``path``, read by :func:`read_text`.

    A lone surrogate, which a JSON escape can decode to, has no UTF-8 bytes
    and could not be written to any output, so it raises ``error`` too.
    """
    text = read_text(path, error, name)
    where = f"{name} {path}" if name else f"{path}"
    try:
        value = json.loads(text)
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except json.JSONDecodeError as exc:
        raise error(f"{where}: invalid JSON: {exc.msg}") from exc
    except UnicodeEncodeError as exc:
        raise error(f"{where}: not valid Unicode ({exc.reason})") from exc
    return value
