import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import FIXTURES_DIR, REPO_ROOT, CallableAdapter, TESTS_DIR
from stub_model import keyword_probability

from textaudit.corpus import Comment, LabeledCorpus
from textaudit.errors import (
    AdapterError,
    AdapterProtocolError,
    AdapterUnavailableError,
    CoverageError,
    DatasetError,
)
from textaudit.modeliface import (
    AdapterConfig,
    HttpAdapter,
    PredictionCache,
    SubprocessAdapter,
    load_predictions,
    open_adapter,
    predict_batch,
)
from textaudit.report import AuditConfig, run_audit

STUB_CMD = f"{sys.executable} {TESTS_DIR / 'stub_model.py'}"


def test_stub_scores_profanity_free_text(keyword_adapter):
    assert predict_batch(["nice day"], keyword_adapter) == [pytest.approx(0.08)]


def test_profane_list_stub_example():
    profane = {"filthy", "scum", "disgusting"}

    def stub(text):
        return 0.9 if set(text.lower().split()) & profane else 0.1

    assert predict_batch(["nice day"], CallableAdapter(stub)) == [0.1]
    assert predict_batch(["utterly filthy day"], CallableAdapter(stub)) == [0.9]


def test_order_preserved_across_batches(keyword_adapter):
    keyword_adapter.config = AdapterConfig(kind="subprocess", location="x", batch_size=2)
    texts = ["nice day", "filthy liar", "ok", "you are scum", "meh"]
    probs = predict_batch(texts, keyword_adapter)
    assert probs == [keyword_probability(t) for t in texts]
    assert keyword_adapter.calls == 3  # ceil(5 / 2)


def test_repeated_text_single_adapter_call(keyword_adapter):
    cache = PredictionCache()
    probs = predict_batch(["same text", "same text"], keyword_adapter, cache)
    assert probs[0] == probs[1]
    assert keyword_adapter.texts_scored == 1


def test_cache_transparency(keyword_adapter):
    texts = ["one", "two", "one", "three"]
    without = predict_batch(texts, CallableAdapter(keyword_probability))
    cache = PredictionCache()
    with_cache = predict_batch(texts, CallableAdapter(keyword_probability), cache)
    assert without == with_cache
    # second call is served entirely from cache
    quiet = CallableAdapter(keyword_probability)
    again = predict_batch(texts, quiet, cache)
    assert again == without
    assert quiet.calls == 0
    assert cache.hits > 0


def test_predict_batch_sends_each_distinct_key_once_in_first_seen_order():
    composed, decomposed = "caf\u00e9", "cafe\u0301"  # one NFC key
    texts = ["b", composed, "a", "b", decomposed, "c", "d", "a", "e"]
    fresh = CallableAdapter(keyword_probability, batch_size=2)
    probs = predict_batch(texts, fresh)
    assert fresh.batches == [["b", composed], ["a", "c"], ["d", "e"]]
    assert probs == [keyword_probability(PredictionCache.key(t)) for t in texts]

    # A shared cache that already holds some keys: the same list, only the
    # misses sent, and one lookup per distinct key of the call.
    cache = PredictionCache()
    predict_batch(["a", "d", decomposed], CallableAdapter(keyword_probability), cache)
    shared = CallableAdapter(keyword_probability, batch_size=2)
    assert predict_batch(texts, shared, cache) == probs
    assert shared.batches == [["b", "c"], ["e"]]
    assert (cache.hits, cache.misses) == (3, 3 + 3)


def test_out_of_range_probability_rejected():
    adapter = CallableAdapter(lambda text: 1.2)
    with pytest.raises(AdapterProtocolError, match=r"outside \[0, 1\].*index 0"):
        predict_batch(["anything"], adapter)


def test_count_mismatch_rejected():
    class ShortAdapter(CallableAdapter):
        def score_batch(self, texts):
            return [0.5]

    adapter = ShortAdapter(keyword_probability)
    with pytest.raises(AdapterProtocolError, match="count mismatch"):
        predict_batch(["a", "b"], adapter)


def test_retry_then_success():
    attempts = {"n": 0}

    class FlakyAdapter(CallableAdapter):
        def score_batch(self, texts):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise AdapterUnavailableError("transient")
            return [0.5 for _ in texts]

    adapter = FlakyAdapter(keyword_probability, max_retries=2)
    assert predict_batch(["x"], adapter) == [0.5]
    assert attempts["n"] == 3


def test_retries_exhausted():
    class DeadAdapter(CallableAdapter):
        def score_batch(self, texts):
            raise AdapterUnavailableError("gone")

    adapter = DeadAdapter(keyword_probability, max_retries=1)
    with pytest.raises(AdapterUnavailableError, match="2 attempt"):
        predict_batch(["x"], adapter)


def test_predictions_file_adapter_cannot_score():
    with pytest.raises(AdapterError, match="cannot score novel texts"):
        open_adapter(AdapterConfig(kind="predictions_file", location="preds.csv"))


def test_adapter_config_validation():
    with pytest.raises(AdapterError, match="unknown adapter kind"):
        AdapterConfig(kind="carrier_pigeon", location="x")
    with pytest.raises(AdapterError, match="batch_size"):
        AdapterConfig(kind="http", location="x", batch_size=0)
    with pytest.raises(AdapterError, match="max_retries"):
        AdapterConfig(kind="http", location="x", max_retries=-1)
    for bad in (2.5, True, "8"):
        with pytest.raises(AdapterError, match="batch_size must be an integer"):
            AdapterConfig(kind="http", location="x", batch_size=bad)
    for bad in (1.5, False, None):
        with pytest.raises(AdapterError, match="max_retries must be an integer"):
            AdapterConfig(kind="http", location="x", max_retries=bad)
    for bad in (None, 5, ["python3", "model.py"]):
        with pytest.raises(AdapterError, match="location must be a string"):
            AdapterConfig(kind="subprocess", location=bad)
    assert AdapterConfig(kind="http", location="x").is_live
    assert not AdapterConfig(kind="predictions_file", location="x").is_live


@pytest.mark.parametrize("kind", ["http", "subprocess"])
@pytest.mark.parametrize("timeout", [0, -1, float("inf"), float("nan")])
def test_adapter_config_rejects_bad_timeout(kind, timeout):
    with pytest.raises(AdapterError, match="timeout must be a positive"):
        AdapterConfig(kind=kind, location="x", timeout=timeout)


def test_subprocess_adapter_end_to_end():
    adapter = SubprocessAdapter(AdapterConfig(kind="subprocess", location=STUB_CMD, batch_size=8))
    texts = ["nice day", "filthy scum", 'quoting "stuff" and\nnewline']
    probs = predict_batch(texts, adapter)
    assert probs[0] == pytest.approx(0.08, abs=1e-6)
    assert probs[1] == pytest.approx(0.99, abs=1e-6)
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_subprocess_adapter_missing_command():
    adapter = SubprocessAdapter(
        AdapterConfig(kind="subprocess", location="/no/such/binary-xyz", max_retries=0)
    )
    with pytest.raises(AdapterUnavailableError):
        predict_batch(["x"], adapter)


def test_subprocess_adapter_non_numeric_line(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text("import sys\nfor line in sys.stdin:\n    print('banana')\n")
    adapter = SubprocessAdapter(
        AdapterConfig(kind="subprocess", location=f"{sys.executable} {script}", max_retries=0)
    )
    with pytest.raises(AdapterProtocolError, match="non-numeric"):
        adapter.score_batch(["x"])


def test_a_short_subprocess_answer_fails_in_predict_batch(tmp_path):
    script = tmp_path / "short.py"
    script.write_text("import sys\nfor line in sys.stdin.readlines()[1:]:\n    print('0.5')\n")
    adapter = SubprocessAdapter(
        AdapterConfig(kind="subprocess", location=f"{sys.executable} {script}", max_retries=0)
    )
    assert adapter.score_batch(["x", "y"]) == [0.5]  # the adapter only parses
    with pytest.raises(AdapterProtocolError, match="^response count mismatch: sent 2, got 1$") as info:
        predict_batch(["x", "y"], adapter)
    assert info.traceback[-1].name == "predict_batch"


def test_subprocess_protocol_is_utf8_under_an_ascii_locale(tmp_path):
    # The auditor runs with LC_ALL=C and UTF-8 mode off, so its locale
    # encoding is ASCII; the scorer must still get UTF-8 lines.
    received = tmp_path / "received.bin"
    recorder = tmp_path / "record.py"
    recorder.write_text(
        "import sys\n"
        "data = sys.stdin.buffer.read()\n"
        f"open({str(received)!r}, 'wb').write(data)\n"
        "sys.stdout.write('0.5\\n' * data.count(b'\\n'))\n"
    )
    probe = (
        "import locale, sys\n"
        "from textaudit.modeliface import AdapterConfig, SubprocessAdapter, predict_batch\n"
        "def score(command, text):\n"
        "    config = AdapterConfig(kind='subprocess', location=command, max_retries=0)\n"
        "    return predict_batch([text], SubprocessAdapter(config))[0]\n"
        "print(locale.getpreferredencoding(False), sys.flags.utf8_mode)\n"
        f"print(score({f'{sys.executable} {recorder}'!r}, {ascii('café 𝐆 ✓')}))\n"
        f"print(score({STUB_CMD!r}, {ascii('café gay people')}))\n"
    )
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        LC_ALL="C",
        PYTHONUTF8="0",
        PYTHONPATH=os.pathsep.join(p for p in paths if p),
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    encoding, recorded, stub = result.stdout.splitlines()
    assert "utf" not in encoding.lower()
    assert received.read_bytes() == '"café 𝐆 ✓"\n'.encode("utf-8")
    assert float(recorded) == 0.5
    assert float(stub) == pytest.approx(keyword_probability("café gay people"))


def test_subprocess_non_utf8_stderr_is_reported(tmp_path):
    script = tmp_path / "crash.py"
    script.write_text("import sys\nsys.stderr.buffer.write(b'bad \\xff byte')\nsys.exit(3)\n")
    adapter = SubprocessAdapter(
        AdapterConfig(kind="subprocess", location=f"{sys.executable} {script}", max_retries=0)
    )
    with pytest.raises(AdapterUnavailableError, match="exited with 3: bad \ufffd byte"):
        adapter.score_batch(["x"])


def test_subprocess_adapter_rejects_lone_surrogate_before_spawning(tmp_path):
    spawned = tmp_path / "spawned"
    script = tmp_path / "record_spawn.py"
    script.write_text(f"import sys\nopen({str(spawned)!r}, 'w').close()\nfor line in sys.stdin:\n    print(0.5)\n")
    adapter = SubprocessAdapter(
        AdapterConfig(kind="subprocess", location=f"{sys.executable} {script}", max_retries=0)
    )
    with pytest.raises(
        AdapterProtocolError, match=r"^text at batch index 2 is not valid Unicode \(surrogates not allowed\)$"
    ):
        predict_batch(["fine", "two\nlines", "caf\ud800 gay"], adapter)
    assert not spawned.exists()


class _StubHTTPHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keyword stub that records connections, request targets and bodies."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        self.server.connections += 1

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append((self.headers["Content-Type"], raw))
        self.server.paths.append(self.path)
        if self.path.partition("?")[0] != "/predict":
            self.send_response(404)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        texts = json.loads(raw)["texts"]
        data = json.dumps({"probabilities": [keyword_probability(t) for t in texts]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        # Optionally hang up after answering without a "Connection: close"
        # header, as a server does when an idle kept-alive connection times out.
        self.close_connection = self.server.drop_after_answer

    def log_message(self, *args):
        pass


@pytest.fixture
def http_stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHTTPHandler)
    server.connections = 0
    server.requests = []
    server.paths = []
    server.drop_after_answer = False
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def test_http_adapter_end_to_end(http_stub):
    with HttpAdapter(AdapterConfig(kind="http", location=http_stub.url, timeout=5)) as adapter:
        probs = predict_batch(["nice day", "filthy"], adapter)
    assert probs == [pytest.approx(0.08), pytest.approx(0.58)]


class _CannedHTTPHandler(BaseHTTPRequestHandler):
    """Answers every POST with the raw body stored on the server."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        data = self.server.canned_body
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def canned_http():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CannedHTTPHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def adapter_answering(body: bytes) -> HttpAdapter:
        server.canned_body = body
        url = f"http://127.0.0.1:{server.server_address[1]}"
        return HttpAdapter(AdapterConfig(kind="http", location=url, timeout=5, max_retries=0))

    yield adapter_answering
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize(
    "body, message",
    [
        (b"[0.1]", "JSON list, expected an object"),
        (b"0.5", "JSON float, expected an object"),
        (b'{"probabilities": [true]}', "non-numeric probability in response: True"),
        (b'{"probabilities": [false]}', "non-numeric probability in response: False"),
        (b'{"probabilities": ["0.5"]}', "non-numeric probability in response: '0.5'"),
        (b'{"probabilities": [null]}', "non-numeric probability in response: None"),
        # float() of an integer beyond every float raises OverflowError, which must not escape.
        (b'{"probabilities": [1%s]}' % (b"0" * 400),
         "too large for a float in response: 1%s$" % ("0" * 400)),
    ],
)
def test_http_adapter_rejects_malformed_response(canned_http, body, message):
    adapter = canned_http(body)
    with pytest.raises(AdapterProtocolError, match=message):
        predict_batch(["x"], adapter)


def test_a_short_http_answer_fails_in_predict_batch(canned_http):
    adapter = canned_http(b'{"probabilities": [0.5]}')
    assert adapter.score_batch(["x", "y"]) == [0.5]  # the adapter only parses
    with pytest.raises(AdapterProtocolError, match="^response count mismatch: sent 2, got 1$") as info:
        predict_batch(["x", "y"], adapter)
    assert info.traceback[-1].name == "predict_batch"


def test_http_adapter_accepts_integer_probabilities(canned_http):
    assert predict_batch(["x", "y"], canned_http(b'{"probabilities": [0, 1]}')) == [0.0, 1.0]


def test_http_adapter_unreachable():
    adapter = HttpAdapter(
        AdapterConfig(kind="http", location="http://127.0.0.1:1", timeout=0.5, max_retries=0)
    )
    with pytest.raises(AdapterUnavailableError):
        predict_batch(["x"], adapter)


@pytest.mark.parametrize(
    "location",
    [
        "localhost:8000", "ftp://example.org", "http://", "http://host:port", "http://u:p@host",
        "http://host/a b", "http://host/café",
    ],
)
def test_http_adapter_rejects_bad_location(location):
    with pytest.raises(AdapterError, match="http adapter"):
        HttpAdapter(AdapterConfig(kind="http", location=location))


@pytest.mark.parametrize("location", ["http://h/x#f", "http://h/x?k=v#f", "http://h/x#"])
def test_http_adapter_rejects_a_fragment_naming_the_location(location):
    with pytest.raises(AdapterError, match=re.escape(f"http adapter location '{location}' must not carry a fragment")):
        HttpAdapter(AdapterConfig(kind="http", location=location))


@pytest.mark.parametrize("suffix", ["?k=v", "/?k=v"])
def test_http_adapter_puts_predict_on_the_path_before_the_query(http_stub, suffix):
    with HttpAdapter(AdapterConfig(kind="http", location=http_stub.url + suffix, timeout=5)) as adapter:
        assert adapter.score_batch(["filthy"]) == [keyword_probability("filthy")]
    assert http_stub.paths == ["/predict?k=v"]


def test_http_adapter_puts_predict_after_the_path_of_a_location_with_a_query(http_stub):
    location = http_stub.url + "/x?k=v"
    with HttpAdapter(AdapterConfig(kind="http", location=location, timeout=5)) as adapter:
        with pytest.raises(AdapterUnavailableError, match=re.escape("/x/predict?k=v answered with status 404")):
            adapter.score_batch(["x"])
    assert http_stub.paths == ["/x/predict?k=v"]


FIVE_TEXTS = ["nice day", "filthy", "a", "b", "c"]


def test_http_adapter_sends_every_batch_over_one_connection(http_stub):
    config = AdapterConfig(kind="http", location=http_stub.url, batch_size=2, timeout=5)
    with HttpAdapter(config) as adapter:
        probs = predict_batch(FIVE_TEXTS, adapter)
    assert probs == [keyword_probability(t) for t in FIVE_TEXTS]
    assert len(http_stub.requests) == 3
    assert http_stub.connections == 1


def test_http_adapter_resends_when_server_drops_kept_alive_connection(http_stub):
    http_stub.drop_after_answer = True
    config = AdapterConfig(
        kind="http", location=http_stub.url, batch_size=2, timeout=5, max_retries=0
    )
    with HttpAdapter(config) as adapter:
        probs = predict_batch(FIVE_TEXTS, adapter)
    assert probs == [keyword_probability(t) for t in FIVE_TEXTS]
    assert len(http_stub.requests) == 3
    assert http_stub.connections == 3


def test_http_adapter_sends_utf8_json(http_stub):
    text = "café 𝐆 ✓"
    with HttpAdapter(AdapterConfig(kind="http", location=http_stub.url, timeout=5)) as adapter:
        adapter.score_batch([text])
    content_type, raw = http_stub.requests[0]
    assert content_type == "application/json"
    assert raw == json.dumps({"texts": [text]}).encode("utf-8")
    assert json.loads(raw)["texts"] == [text]


def test_http_adapter_status_other_than_200_is_unavailable(http_stub):
    location = http_stub.url + "/v1/"
    with HttpAdapter(AdapterConfig(kind="http", location=location, timeout=5)) as adapter:
        with pytest.raises(AdapterUnavailableError, match="v1/predict answered with status 404"):
            adapter.score_batch(["x"])
    assert http_stub.paths == ["/v1/predict"]


def test_https_location_speaks_tls(http_stub):
    # A plain-HTTP server cannot complete the TLS handshake.
    location = http_stub.url.replace("http://", "https://")
    adapter = HttpAdapter(AdapterConfig(kind="http", location=location, timeout=5, max_retries=0))
    with pytest.raises(AdapterUnavailableError, match="cannot reach"):
        predict_batch(["x"], adapter)


class _ThenClose(bytes):
    """An answer after which the raw server closes the connection."""


class _RawHTTPServer:
    """Loopback server that reads each request and writes back the next canned answer as is.

    An answer of ``None`` is never sent: the server holds the connection
    silent. After an answer that says ``Connection: close`` or is HTTP/1.0,
    the server also holds the connection silent, open but unread, so a
    client that sent on it again would wait for an answer. After a
    :class:`_ThenClose` answer it closes the connection.
    """

    def __init__(self, answers, host):
        self.answers = list(answers)
        self.connections = 0
        self.targets = []
        self.stopped = threading.Event()
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.listener = socket.create_server((host, 0), family=family)
        self.listener.settimeout(0.05)
        port = self.listener.getsockname()[1]
        self.url = f"http://[{host}]:{port}" if ":" in host else f"http://{host}:{port}"
        self.thread = threading.Thread(target=self._accept, daemon=True)
        self.thread.start()

    def _accept(self):
        with self.listener:
            while not self.stopped.is_set():
                try:
                    conn, _ = self.listener.accept()
                except TimeoutError:
                    continue
                self.connections += 1
                threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn):
        with conn, conn.makefile("rb") as reader:
            conn.settimeout(10)
            while True:
                request_line = reader.readline()
                if not request_line:
                    return
                self.targets.append(request_line.split()[1].decode())
                length = 0
                for line in iter(reader.readline, b"\r\n"):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                answer = self.answers.pop(0)
                if answer is not None:
                    conn.sendall(answer)
                if isinstance(answer, _ThenClose):
                    return
                if answer is None or b"Connection: close" in answer or answer.startswith(b"HTTP/1.0"):
                    self.stopped.wait()
                    return

    def stop(self):
        self.stopped.set()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture
def raw_http():
    servers = []

    def start(answers, host="127.0.0.1"):
        servers.append(_RawHTTPServer(answers, host))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


def _ok(probabilities, head=b"HTTP/1.1 200 OK", headers=b""):
    body = json.dumps({"probabilities": probabilities}).encode()
    return b"%s\r\n%sContent-Length: %d\r\n\r\n%s" % (head, headers, len(body), body)


def _raw_adapter(server, timeout=5.0):
    return HttpAdapter(AdapterConfig(kind="http", location=server.url, timeout=timeout, max_retries=0))


def test_http_adapter_gives_up_on_a_server_that_never_answers(raw_http):
    server = raw_http([None])
    start = time.perf_counter()
    with _raw_adapter(server, timeout=0.5) as adapter:
        with pytest.raises(AdapterUnavailableError, match="timed out"):
            predict_batch(["x"], adapter)
    assert time.perf_counter() - start < 0.5 + 2.0


def test_http_adapter_rejects_a_truncated_body(raw_http):
    server = raw_http([_ThenClose(_ok([0.5])[:-3])])
    with _raw_adapter(server) as adapter:
        with pytest.raises(AdapterUnavailableError, match="connection closed after 21 of 24 body bytes"):
            predict_batch(["x"], adapter)


@pytest.mark.parametrize(
    "headers, message",
    [
        (b"X-A: 1\r\n" * 101, "more than 100 headers"),
        (b"X-A: " + b"a" * 65530 + b"\r\n", "answer line longer than 65536 bytes"),
    ],
)
def test_http_adapter_bounds_the_header_section(raw_http, headers, message):
    server = raw_http([_ok([0.5], headers=headers)])
    with _raw_adapter(server) as adapter:
        with pytest.raises(AdapterUnavailableError, match=message):
            predict_batch(["x"], adapter)


def test_http_adapter_takes_a_header_section_at_its_bounds(raw_http):
    # 100 headers in all, one of them a line of exactly 65536 bytes
    headers = b"X-A: 1\r\n" * 98 + b"X-B: " + b"b" * 65529 + b"\r\n"
    server = raw_http([_ok([0.5], headers=headers)])
    with _raw_adapter(server) as adapter:
        assert adapter.score_batch(["x"]) == [0.5]


def test_http_adapter_decodes_a_chunked_body_and_keeps_the_connection(raw_http):
    body = b'{"probabilities": [0.25, 1]}'
    chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
    chunked += b"5;ext=1\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: t\r\n\r\n" % (body[:5], len(body) - 5, body[5:])
    server = raw_http([chunked, _ok([0.75])])
    with _raw_adapter(server) as adapter:
        assert adapter.score_batch(["x", "y"]) == [0.25, 1.0]
        assert adapter.score_batch(["z"]) == [0.75]
    assert server.connections == 1


@pytest.mark.parametrize(
    "first", [_ok([0.25], headers=b"Connection: close\r\n"), _ok([0.25], head=b"HTTP/1.0 200 OK")]
)
def test_http_adapter_opens_a_fresh_connection_after_the_server_says_it_closes(raw_http, first):
    # The server leaves the first connection open but never reads it again,
    # so sending the second batch on it would wait out the timeout.
    server = raw_http([first, _ok([0.75])])
    with _raw_adapter(server, timeout=2) as adapter:
        assert adapter.score_batch(["x"]) == [0.25]
        assert adapter.score_batch(["y"]) == [0.75]
    assert server.connections == 2


def test_http_adapter_skips_informational_answers(raw_http):
    early = b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n"
    server = raw_http([early + _ok([0.25]), _ok([0.75])])
    with _raw_adapter(server) as adapter:
        assert adapter.score_batch(["x"]) == [0.25]
        assert adapter.score_batch(["y"]) == [0.75]
    assert server.connections == 1


def test_http_adapter_reaches_an_ipv6_literal(raw_http):
    server = raw_http([_ok([0.25])], host="::1")
    assert server.url.startswith("http://[::1]:")
    with _raw_adapter(server) as adapter:
        assert adapter.score_batch(["x"]) == [0.25]
    assert server.targets == ["/predict"]


def test_http_scoring_loads_no_http_client_email_or_ssl(http_stub):
    # The adapter speaks HTTP/1.1 on a plain socket: http.client and the
    # email parser it reads headers with cost every audit over HTTP about
    # 20 ms of imports, and ssl is needed only for https://. Only modules
    # added beyond a bare interpreter count, so a site hook cannot matter.
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    https = http_stub.url.replace("http://", "https://")
    probe = (
        "import sys\n"
        "bare = set(sys.modules)\n"
        "from textaudit.errors import AdapterUnavailableError\n"
        "from textaudit.modeliface import AdapterConfig, HttpAdapter\n"
        f"with HttpAdapter(AdapterConfig(kind='http', location={http_stub.url!r}, timeout=5)) as a:\n"
        "    print(a.score_batch(['filthy']))\n"
        "print(sorted({'http.client', 'email.parser', 'ssl'} & (set(sys.modules) - bare)))\n"
        f"a = HttpAdapter(AdapterConfig(kind='http', location={https!r}, timeout=5))\n"
        "try:\n"
        "    a.score_batch(['x'])\n"
        "except AdapterUnavailableError:\n"
        "    print('ssl' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [str([keyword_probability("filthy")]), "[]", "True"]


def test_adapters_close_more_than_once(http_stub):
    adapter = HttpAdapter(AdapterConfig(kind="http", location=http_stub.url, timeout=5))
    assert adapter.score_batch(["filthy"]) == [keyword_probability("filthy")]
    adapter.close()
    adapter.close()
    with open_adapter(AdapterConfig(kind="subprocess", location=STUB_CMD)) as other:
        other.close()
    other.close()


def test_run_audit_closes_adapter_when_a_section_fails(canned_http, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # the fixture config uses repo-relative paths
    closed = []
    close = HttpAdapter.close

    def recording_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(HttpAdapter, "close", recording_close)
    location = canned_http(b'{"probabilities": "none"}').config.location
    data = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    data.update(
        adapter={"kind": "http", "location": location, "max_retries": 0},
        sections=["performance"],
    )
    report = run_audit(AuditConfig.from_dict(data))
    assert report.sections["performance"]["status"] == "failed"
    assert len(closed) == 1


def _corpus():
    return LabeledCorpus(
        [
            Comment(id="a", text="first comment", label=0),
            Comment(id="b", text="second comment", label=1),
        ]
    )


def test_load_predictions_complete(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("id,p_hateful\na,0.25\nb,0.9811\n")
    records = load_predictions(path, _corpus())
    assert [(r.comment_id, r.p_hateful) for r in records] == [("a", 0.25), ("b", 0.9811)]


def test_load_predictions_header_with_spaces(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("id, p_hateful\na,0.25\nb,0.9811\n")
    records = load_predictions(path, _corpus())
    assert [(r.comment_id, r.p_hateful) for r in records] == [("a", 0.25), ("b", 0.9811)]


def test_load_predictions_ignores_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_bytes(b"\xef\xbb\xbfid,p_hateful\na,0.25\nb,0.9811\n")
    records = load_predictions(path, _corpus())
    assert [(r.comment_id, r.p_hateful) for r in records] == [("a", 0.25), ("b", 0.9811)]


def test_load_predictions_missing_id(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("id,p_hateful\na,0.25\n")
    with pytest.raises(CoverageError, match="'b'"):
        load_predictions(path, _corpus())


def test_load_predictions_unknown_id(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("id,p_hateful\na,0.25\nzz,0.5\n")
    with pytest.raises(DatasetError, match="'zz'"):
        load_predictions(path, _corpus())


def test_load_predictions_duplicate_id(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("id,p_hateful\na,0.25\na,0.3\nb,0.5\n")
    with pytest.raises(DatasetError, match="duplicate"):
        load_predictions(path, _corpus())


def test_load_predictions_out_of_range(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("id,p_hateful\na,1.25\nb,0.5\n")
    with pytest.raises(DatasetError, match="outside"):
        load_predictions(path, _corpus())


def test_load_predictions_not_utf8(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_bytes(b"id,p_hateful\na,0.25\nb,0.5\xff\n")
    with pytest.raises(DatasetError, match=r"^predictions .*preds\.csv is not valid UTF-8: .*0xff"):
        load_predictions(path, _corpus())


def test_determinism_with_deterministic_adapter(keyword_adapter):
    texts = ["alpha", "beta", "gamma"]
    assert predict_batch(texts, keyword_adapter) == predict_batch(texts, keyword_adapter)


def test_predict_batch_empty_list(keyword_adapter):
    assert predict_batch([], keyword_adapter) == []
    assert keyword_adapter.calls == 0
