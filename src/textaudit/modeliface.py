"""Black-box access to the classifier under audit.

The auditor never loads the model itself. It reads an offline predictions
file (per-comment probabilities, :func:`load_predictions`), or it talks to
the model through one of two adapters: a subprocess speaking a line protocol
(one JSON-encoded text in, one decimal probability out), or an HTTP endpoint
(POST /predict over one kept-alive standard-library connection per adapter).
Every adapter has one lifecycle: it is opened by :func:`open_adapter`,
scores batches, and is closed with ``close()`` or by leaving a ``with``
block, and imports its own transport (``subprocess`` and ``shlex``, or
``http.client`` and ``ssl``), so an audit loads only the one it uses. A
normalized-text cache keeps swap/counterfactual/explanation workloads
affordable. Probabilities outside [0, 1] are rejected, never
clamped: they signal a broken adapter and clamping would corrupt every
downstream metric.
"""

import json
import math
import unicodedata
from pathlib import Path
from typing import Callable, NamedTuple, Protocol, Sequence
from urllib.parse import urlsplit

from .corpus import LabeledCorpus, csv_rows
from .errors import (
    AdapterError,
    AdapterProtocolError,
    AdapterUnavailableError,
    CoverageError,
    DatasetError,
)
from .record import checked

ADAPTER_KINDS = ("predictions_file", "subprocess", "http")


class PredictionRecord(NamedTuple):
    """One comment's probability, range-checked by :func:`load_predictions` or :func:`predict_batch`."""

    comment_id: str
    p_hateful: float


@checked
class AdapterConfig(NamedTuple):
    kind: str
    location: str
    batch_size: int = 32
    timeout: float = 30.0
    max_retries: int = 2

    def _check(self):
        if self.kind not in ADAPTER_KINDS:
            raise AdapterError(f"unknown adapter kind {self.kind!r} (expected one of {ADAPTER_KINDS})")
        if not isinstance(self.location, str):
            raise AdapterError(f"location must be a string, got {self.location!r}")
        for name in ("batch_size", "max_retries"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise AdapterError(f"{name} must be an integer, got {value!r}")
        if self.batch_size < 1:
            raise AdapterError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_retries < 0:
            raise AdapterError(f"max_retries must be >= 0, got {self.max_retries}")
        timeout = self.timeout
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or not (math.isfinite(timeout) and timeout > 0)
        ):
            raise AdapterError(f"timeout must be a positive number of seconds, got {timeout!r}")

    @property
    def is_live(self) -> bool:
        """Whether the adapter can score novel texts (swap/counterfactual/explain)."""
        return self.kind != "predictions_file"


class PredictionCache:
    """Text -> probability cache keyed by NFC-normalized text.

    Hit/miss counters cover lookups made through :func:`predict_batch`.
    """

    def __init__(self):
        self._store: dict[str, float] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(text: str) -> str:
        return unicodedata.normalize("NFC", text)

    def lookup(self, text: str) -> float | None:
        value = self._store.get(self.key(text))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def store(self, text: str, probability: float) -> None:
        self._store[self.key(text)] = probability

    def __len__(self) -> int:
        return len(self._store)


class Adapter(Protocol):
    """Anything that can score one batch of texts (single attempt, no retry)."""

    config: AdapterConfig

    def score_batch(self, texts: Sequence[str]) -> list[float]: ...


class _AdapterLifecycle:
    """Open on construction, score, then close; also a context manager."""

    def close(self) -> None:
        """Release what the adapter holds; safe to call more than once."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SubprocessAdapter(_AdapterLifecycle):
    """Spawns the scoring command per batch and speaks the line protocol.

    One JSON string per line on stdin; one decimal probability per line on
    stdout; EOF terminates the child. Both pipes carry UTF-8, whatever the
    locale; output that is not UTF-8 is decoded with replacement characters,
    so it fails as a protocol error, never as a codec error.
    """

    def __init__(self, config: AdapterConfig):
        import shlex

        self.config = config
        self._argv = shlex.split(config.location)
        if not self._argv:
            raise AdapterError("subprocess adapter needs a non-empty command")

    def score_batch(self, texts: Sequence[str]) -> list[float]:
        import subprocess

        payload = "".join(json.dumps(t, ensure_ascii=False) + "\n" for t in texts)
        try:
            data = payload.encode("utf-8")
        except UnicodeEncodeError as exc:  # a lone surrogate; JSON escapes a text's own newlines
            index = payload.count("\n", 0, exc.start)
            raise AdapterProtocolError(f"text at batch index {index} is not valid Unicode ({exc.reason})") from exc
        try:
            proc = subprocess.run(
                self._argv,
                input=data,
                capture_output=True,
                timeout=self.config.timeout,
            )
        except FileNotFoundError as exc:
            raise AdapterUnavailableError(f"cannot start {self._argv[0]!r}: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise AdapterUnavailableError(
                f"scoring command timed out after {self.config.timeout}s"
            ) from exc
        stdout, stderr = (out.decode("utf-8", "replace") for out in (proc.stdout, proc.stderr))
        if proc.returncode != 0:
            raise AdapterUnavailableError(
                f"scoring command exited with {proc.returncode}: {stderr.strip()[:500]}"
            )
        lines = [line for line in stdout.splitlines() if line.strip()]
        if len(lines) != len(texts):
            raise AdapterProtocolError(
                f"response count mismatch: sent {len(texts)} texts, got {len(lines)} lines"
            )
        probabilities = []
        for line in lines:
            try:
                probabilities.append(float(line.strip()))
            except ValueError as exc:
                raise AdapterProtocolError(f"non-numeric response line: {line!r}") from exc
        return probabilities


class HttpAdapter(_AdapterLifecycle):
    """POSTs {"texts": [...]} to <location>/predict and reads {"probabilities": [...]}.

    Every batch goes over one kept-alive ``http.client`` connection. HTTPS
    verifies the server against the system CA store; proxy environment
    variables are not honoured. A transport failure closes the connection,
    so the next attempt opens a fresh one.
    """

    def __init__(self, config: AdapterConfig):
        import http.client
        import ssl

        self.config = config
        self._url = config.location.rstrip("/") + "/predict"
        parts = urlsplit(self._url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise AdapterError(
                f"http adapter needs an http:// or https:// URL with a host, got {config.location!r}"
            )
        if parts.username is not None:
            raise AdapterError("http adapter location must not carry credentials")
        try:
            port = parts.port
        except ValueError as exc:
            raise AdapterError(f"http adapter location {config.location!r}: {exc}") from exc
        self._target = parts.path + (f"?{parts.query}" if parts.query else "")
        if parts.scheme == "https":
            self._conn = http.client.HTTPSConnection(
                parts.hostname, port, timeout=config.timeout, context=ssl.create_default_context()
            )
        else:
            self._conn = http.client.HTTPConnection(parts.hostname, port, timeout=config.timeout)

    def close(self) -> None:
        self._conn.close()

    def _send(self, body: bytes) -> "http.client.HTTPResponse":
        self._conn.request("POST", self._target, body, {"Content-Type": "application/json"})
        return self._conn.getresponse()

    def score_batch(self, texts: Sequence[str]) -> list[float]:
        import http.client

        payload = json.dumps({"texts": list(texts)}).encode("utf-8")
        try:
            reused = self._conn.sock is not None
            try:
                response = self._send(payload)
            except (ConnectionResetError, BrokenPipeError):
                # The server closed an idle kept-alive connection before
                # answering (http.client.RemoteDisconnected is a
                # ConnectionResetError): send once more on a fresh one. This
                # is not a failed attempt, so it is not counted as a retry.
                if not reused:
                    raise
                self._conn.close()
                response = self._send(payload)
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()
            raise AdapterUnavailableError(f"cannot reach {self._url}: {exc}") from exc
        if response.status != 200:
            raise AdapterUnavailableError(f"{self._url} answered with status {response.status}")
        try:
            body = json.loads(data)
        except ValueError as exc:
            raise AdapterProtocolError(f"{self._url} returned non-JSON body") from exc
        if not isinstance(body, dict):
            raise AdapterProtocolError(
                f"{self._url} returned a JSON {type(body).__name__}, expected an object"
            )
        probabilities = body.get("probabilities")
        if not isinstance(probabilities, list):
            raise AdapterProtocolError('response is missing the "probabilities" array')
        if len(probabilities) != len(texts):
            raise AdapterProtocolError(
                f"response count mismatch: sent {len(texts)} texts, got {len(probabilities)}"
            )
        for p in probabilities:
            # bool is an int subclass, but JSON true/false is not a probability
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise AdapterProtocolError(f"non-numeric probability in response: {p!r}")
        return [float(p) for p in probabilities]


def open_adapter(config: AdapterConfig):
    """An open adapter for a live kind; a predictions file is read, never opened."""
    if config.kind == "subprocess":
        return SubprocessAdapter(config)
    if config.kind == "http":
        return HttpAdapter(config)
    raise AdapterError(
        "a predictions file cannot score novel texts; "
        "swap/counterfactual/explanation assessments need a subprocess or http adapter"
    )


def _score_with_retry(adapter: Adapter, texts: Sequence[str]) -> list[float]:
    attempts = adapter.config.max_retries + 1
    last_error: AdapterUnavailableError | None = None
    for _ in range(attempts):
        try:
            return adapter.score_batch(texts)
        except AdapterUnavailableError as exc:
            last_error = exc
    raise AdapterUnavailableError(
        f"batch failed after {attempts} attempt(s): {last_error}"
    ) from last_error


def predict_batch(
    texts: Sequence[str],
    adapter: Adapter,
    cache: PredictionCache | None = None,
) -> list[float]:
    """Probabilities for ``texts``, in input order.

    The cache is consulted first; duplicate texts trigger a single adapter
    call. Requests go out in batches of at most ``batch_size``, each retried
    up to ``max_retries`` times on transport failures. Protocol violations
    (count mismatch, non-numeric lines, probabilities outside [0, 1]) fail
    immediately.
    """
    if not texts:
        return []
    keys = [PredictionCache.key(t) for t in texts]
    resolved: dict[str, float] = {}
    pending: list[tuple[str, str]] = []  # (key, original text)
    seen: set[str] = set()
    for key, text in zip(keys, texts):
        if key in seen:
            continue
        seen.add(key)
        if cache is not None:
            hit = cache.lookup(text)
            if hit is not None:
                resolved[key] = hit
                continue
        pending.append((key, text))

    batch_size = adapter.config.batch_size
    for start in range(0, len(pending), batch_size):
        batch = pending[start : start + batch_size]
        batch_texts = [text for _, text in batch]
        probabilities = _score_with_retry(adapter, batch_texts)
        if len(probabilities) != len(batch_texts):
            raise AdapterProtocolError(
                f"response count mismatch: sent {len(batch_texts)}, got {len(probabilities)}"
            )
        for index, ((key, text), p) in enumerate(zip(batch, probabilities)):
            if not 0.0 <= p <= 1.0:
                raise AdapterProtocolError(
                    f"probability outside [0, 1] at batch index {index} for text {text!r}: {p!r}"
                )
            resolved[key] = p
            if cache is not None:
                cache.store(text, p)
    return [resolved[key] for key in keys]


class ScoringPlan(NamedTuple):
    """Every text a computation will score, and how their probabilities become its result.

    Building a plan calls no model, so a caller can score the texts of many
    plans in one :func:`predict_batch` call, whose batches then fill across
    plans, and finish each plan from the cache afterwards.
    """

    texts: list[str]
    finish: Callable[[list[float]], object]

    def run(self, adapter: Adapter, cache: PredictionCache | None = None):
        """Score the plan's texts (cached ones are not sent) and finish."""
        return self.finish(predict_batch(self.texts, adapter, cache))


def gather(plans: Sequence[ScoringPlan], finish: Callable[[list], object]) -> ScoringPlan:
    """One plan over the texts of all ``plans``; ``finish`` gets their results, in order."""
    plans = list(plans)

    def finish_all(probs: list[float]):
        results, start = [], 0
        for plan in plans:
            results.append(plan.finish(probs[start : start + len(plan.texts)]))
            start += len(plan.texts)
        return finish(results)

    return ScoringPlan([text for plan in plans for text in plan.texts], finish_all)


def load_predictions(path: str | Path, corpus: LabeledCorpus) -> list[PredictionRecord]:
    """Read a "id,p_hateful" CSV covering the whole corpus.

    Records come back in corpus order. Unknown ids, duplicate ids, missing
    ids and out-of-range probabilities are all hard errors.
    """
    columns, rows = csv_rows(path, ("id", "p_hateful"), "predictions")
    id_column, p_column = columns["id"], columns["p_hateful"]
    by_id: dict[str, float] = {}
    for line, row in rows:
        comment_id = (row[id_column] or "").strip()
        if not comment_id:
            raise DatasetError("missing id value", line)
        if comment_id not in corpus:
            raise DatasetError(f"unknown comment id {comment_id!r}", line)
        if comment_id in by_id:
            raise DatasetError(f"duplicate prediction for id {comment_id!r}", line)
        raw = (row[p_column] or "").strip()
        try:
            p = float(raw)
        except ValueError as exc:
            raise DatasetError(f"unparseable probability {raw!r}", line) from exc
        if not 0.0 <= p <= 1.0:
            raise DatasetError(f"probability outside [0, 1] for id {comment_id!r}: {p}", line)
        by_id[comment_id] = p
    missing = [c.id for c in corpus if c.id not in by_id]
    if missing:
        raise CoverageError(f"predictions missing for {len(missing)} comment(s): {missing}")
    return [PredictionRecord(comment_id=c.id, p_hateful=by_id[c.id]) for c in corpus]
