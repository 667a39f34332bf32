"""Black-box access to the classifier under audit.

The auditor never loads the model itself. It reads an offline predictions
file (per-comment probabilities, :func:`load_predictions`), or it talks to
the model through one of two adapters: a subprocess speaking a line protocol
(one JSON-encoded text in, one decimal probability out), or an HTTP endpoint
(POST /predict over one kept-alive HTTP/1.1 connection per adapter, spoken
by a small client on ``socket``). Every adapter has one lifecycle: it is
opened by :func:`open_adapter`, scores batches, and is closed with
``close()`` or by leaving a ``with`` block, and imports its own transport
(``subprocess`` and ``shlex``, or ``socket``, plus ``ssl`` only when an
``https://`` connection is opened), so an audit loads only the one it uses.
Adapters only parse answers: :func:`predict_batch` checks their count and
range, and always scores through a normalized-text cache, which keeps
swap/counterfactual/explanation workloads affordable. Probabilities outside
[0, 1] are rejected, never clamped: they signal a broken adapter and clamping
would corrupt every downstream metric.
"""

import json
import math
import unicodedata
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence
from urllib.parse import urlsplit

from .corpus import Comment, LabeledCorpus, csv_rows
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
        probabilities = []
        for line in lines:
            try:
                probabilities.append(float(line.strip()))
            except ValueError as exc:
                raise AdapterProtocolError(f"non-numeric response line: {line!r}") from exc
        return probabilities


_MAX_LINE = 65536  # bytes in one status or header line, as http.client allows
_MAX_HEADERS = 100


def _line(reader) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"answer line longer than {_MAX_LINE} bytes")
    if not line:
        raise ConnectionError("connection closed in the middle of the answer")
    return line


def _header_section(reader) -> dict[bytes, bytes]:
    """Lower-cased header names to values, up to the blank line that ends them."""
    headers: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _line(reader)
        if line in (b"\r\n", b"\n"):
            return headers
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()
    raise ValueError(f"answer has more than {_MAX_HEADERS} headers")


def _exactly(reader, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise ConnectionError(f"connection closed after {len(data)} of {size} body bytes")
    return data


def _body(reader, headers: dict[bytes, bytes]) -> tuple[bytes, bool]:
    """The body framed by chunked coding, Content-Length or the close; and whether it closed."""
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks = []
        while True:
            line = _line(reader)
            try:
                size = int(line.split(b";", 1)[0], 16)
            except ValueError:
                size = -1
            if size < 0:
                raise ValueError(f"bad chunk size line {line[:80]!r}")
            if size == 0:
                break
            chunks.append(_exactly(reader, size))
            _line(reader)  # the line break that ends the chunk
        _header_section(reader)  # trailer
        return b"".join(chunks), False
    length = headers.get(b"content-length")
    if length is not None:
        if not length.isdigit():
            raise ValueError(f"bad Content-Length {length[:80]!r}")
        return _exactly(reader, int(length)), False
    return reader.read(), True


class HttpAdapter(_AdapterLifecycle):
    """POSTs {"texts": [...]} to <location>/predict and reads {"probabilities": [...]}.

    Every batch goes over one kept-alive HTTP/1.1 connection on a plain
    socket. ``https://`` wraps that socket in TLS verified against the system
    CA store, and only then imports ``ssl``. Proxy environment variables are
    not honoured. A transport failure or a malformed answer drops the
    connection, so the next attempt opens a fresh one.
    """

    def __init__(self, config: AdapterConfig):
        self.config = config
        location = config.location
        parts = urlsplit(location)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise AdapterError(
                f"http adapter needs an http:// or https:// URL with a host, got {location!r}"
            )
        if parts.username is not None:
            raise AdapterError("http adapter location must not carry credentials")
        if "#" in location:
            raise AdapterError(f"http adapter location {location!r} must not carry a fragment")
        try:
            port = parts.port
        except ValueError as exc:
            raise AdapterError(f"http adapter location {location!r}: {exc}") from exc
        target = parts.path.rstrip("/") + "/predict" + (f"?{parts.query}" if parts.query else "")
        if not all(" " < c < "\x7f" for c in parts.netloc + target):
            raise AdapterError(
                f"http adapter location {location!r} must be printable ASCII "
                "(percent-encode the path and query, punycode the host)"
            )
        self._url = f"{parts.scheme}://{parts.netloc}{target}"
        self._head = (
            f"POST {target} HTTP/1.1\r\nHost: {parts.netloc}\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        self._tls = parts.scheme == "https"
        self._address = (parts.hostname, port or (443 if self._tls else 80))
        self._tls_context = None
        self._sock = self._reader = None

    def close(self) -> None:
        self._drop()

    def _drop(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def _connect(self) -> None:
        import socket

        if self._tls and self._tls_context is None:
            import ssl

            self._tls_context = ssl.create_default_context()
        sock = socket.create_connection(self._address, self.config.timeout)
        try:
            # A request is one write: send its last segment without waiting for an ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls:
                sock = self._tls_context.wrap_socket(sock, server_hostname=self._address[0])
        except Exception:
            sock.close()
            raise
        self._sock, self._reader = sock, sock.makefile("rb")

    def _send(self, request: bytes) -> None:
        """Write the request and wait for the first byte of the answer."""
        self._sock.sendall(request)
        if not self._reader.peek(1):
            raise ConnectionResetError("connection closed before any answer")

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        """The status of the answer to ``request``, and its body if the status is 200."""
        if self._sock is None:
            self._connect()
            self._send(request)
        else:
            try:
                self._send(request)
            except (ConnectionResetError, BrokenPipeError):
                # The server closed an idle kept-alive connection before
                # answering: send once more on a fresh one. This is not a
                # failed attempt, so it is not counted as a retry.
                self._drop()
                self._connect()
                self._send(request)
        reader = self._reader
        while True:  # an informational (1xx) answer comes before the real one
            line = _line(reader)
            fields = line.split(None, 2)
            if (
                len(fields) < 2
                or not fields[0].startswith(b"HTTP/")
                or not (len(fields[1]) == 3 and fields[1].isdigit())
            ):
                raise ValueError(f"bad status line {line[:80]!r}")
            status = int(fields[1])
            headers = _header_section(reader)
            if not 100 <= status < 200:
                break
        if status != 200:
            self._drop()
            return status, b""
        body, closed = _body(reader, headers)
        connection = {t.strip() for t in headers.get(b"connection", b"").lower().split(b",")}
        if closed or fields[0] == b"HTTP/1.0" or b"close" in connection:
            self._drop()
        return status, body

    def score_batch(self, texts: Sequence[str]) -> list[float]:
        payload = json.dumps({"texts": list(texts)}).encode("utf-8")
        try:
            status, data = self._exchange(self._head + b"%d\r\n\r\n" % len(payload) + payload)
        except (OSError, ValueError) as exc:
            self._drop()
            raise AdapterUnavailableError(f"cannot reach {self._url}: {exc}") from exc
        if status != 200:
            raise AdapterUnavailableError(f"{self._url} answered with status {status}")
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
        scores = []
        for p in probabilities:
            # bool is an int subclass, but JSON true/false is not a probability
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise AdapterProtocolError(f"non-numeric probability in response: {p!r}")
            try:
                scores.append(float(p))
            except OverflowError as exc:  # a JSON integer beyond every float
                raise AdapterProtocolError(
                    f"probability too large for a float in response: {p!r}"
                ) from exc
        return scores


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

    Each distinct normalized text is looked up once in the cache (a fresh one
    if none is given); misses go out once each, in first-seen order, in batches
    of at most ``batch_size``, each retried up to ``max_retries`` times on
    transport failures. Here alone an answer is checked against its batch: a
    count mismatch or a probability outside [0, 1] fails at once.
    """
    if cache is None:
        cache = PredictionCache()
    keys = [PredictionCache.key(text) for text in texts]
    first_text: dict[str, str] = {}  # distinct key -> the first text with that key
    for key, text in zip(keys, texts):
        first_text.setdefault(key, text)
    pending = [text for text in first_text.values() if cache.lookup(text) is None]

    batch_size = adapter.config.batch_size
    for start in range(0, len(pending), batch_size):
        batch = pending[start : start + batch_size]
        probabilities = _score_with_retry(adapter, batch)
        if len(probabilities) != len(batch):
            raise AdapterProtocolError(
                f"response count mismatch: sent {len(batch)}, got {len(probabilities)}"
            )
        for index, (text, p) in enumerate(zip(batch, probabilities)):
            if not 0.0 <= p <= 1.0:
                raise AdapterProtocolError(
                    f"probability outside [0, 1] at batch index {index} for text {text!r}: {p!r}"
                )
            cache.store(text, p)
    return [cache._store[key] for key in keys]  # read, not looked up: hits count once


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
    probabilities = comment_probabilities(by_id.items(), corpus.comments)
    return [PredictionRecord(comment_id=c.id, p_hateful=p) for c, p in zip(corpus, probabilities)]


def comment_probabilities(
    preds: Iterable[tuple[str, float]], comments: Sequence[Comment]
) -> list[float]:
    """Each comment's probability in the order given, or one error naming each missing id once."""
    by_id = dict(preds)
    missing = list(dict.fromkeys(c.id for c in comments if c.id not in by_id))
    if missing:
        raise CoverageError(f"predictions missing for {len(missing)} comment(s): {missing}")
    return [by_id[c.id] for c in comments]
