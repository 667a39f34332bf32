"""Tests for the benchmark's own pieces: generator, stub models, span arithmetic.

Run from the repository root: ``python3 -m pytest auditbench/tests``.
"""

import csv
import json
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import corpus_gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times, summarize  # noqa: E402
from stub_http import make_server  # noqa: E402
from stub_model import keyword_probability  # noqa: E402

FIXTURE_CSV = ROOT / "tests" / "fixtures" / "comments.csv"
TEXTS = [
    "Women are universally terrible and filthy",
    "The weather is nice today",
    "I hate those filthy muslim invaders, said nobody",
    "Ma'am, your table is ready été",
]


def _workload_bytes(tmp_path: Path, seed: int, name: str) -> tuple[bytes, bytes, dict]:
    out = tmp_path / name
    properties = corpus_gen.write_workload(FIXTURE_CSV, out, 500, seed)
    return (out / "comments.csv").read_bytes(), (out / "predictions.csv").read_bytes(), properties


def test_generator_is_deterministic_per_seed(tmp_path):
    first = _workload_bytes(tmp_path, 3, "a")
    again = _workload_bytes(tmp_path, 3, "b")
    other = _workload_bytes(tmp_path, 4, "c")
    assert first == again
    assert first[0] != other[0] and first[1] != other[1]
    assert first[2]["n_comments"] == 500
    assert first[2]["duplicate_text_share"] == 0.0


def test_generator_predictions_match_keyword_probability(tmp_path):
    corpus_gen.write_workload(FIXTURE_CSV, tmp_path, 200, 9)
    with (tmp_path / "comments.csv").open(encoding="utf-8", newline="") as handle:
        comments = list(csv.DictReader(handle))
    with (tmp_path / "predictions.csv").open(encoding="utf-8", newline="") as handle:
        predictions = {row["id"]: float(row["p_hateful"]) for row in csv.DictReader(handle)}
    assert predictions == {row["id"]: keyword_probability(row["text"]) for row in comments}
    assert len({row["text"] for row in comments}) == 200
    assert {row["label"] for row in comments} == {"0", "1"}


def test_subprocess_stub_matches_keyword_probability(tmp_path):
    log = tmp_path / "calls.jsonl"
    payload = "".join(json.dumps(t) + "\n" for t in TEXTS)
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, str(BENCH / "stub_subprocess.py"), str(log)],
            input=payload, capture_output=True, text=True, timeout=60, check=True,
        )
    expected = [f"{keyword_probability(t):.6f}" for t in TEXTS]
    assert result.stdout.splitlines() == expected
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(r["calls"], r["texts"]) for r in records] == [(1, len(TEXTS))] * 2
    assert all(r["busy_s"] > 0 for r in records)


def test_http_stub_matches_keyword_probability():
    server = make_server()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
    try:
        request = urllib.request.Request(
            base + "/predict", data=json.dumps({"texts": TEXTS}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with opener.open(request, timeout=10) as response:
            body = json.loads(response.read())
        with opener.open(base + "/stats", timeout=10) as response:
            stats = json.loads(response.read())
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert body["probabilities"] == [keyword_probability(t) for t in TEXTS]
    assert (stats["calls"], stats["texts"]) == (1, len(TEXTS))
    assert stats["busy_s"] > 0


def test_self_time_subtracts_children():
    spans = [
        ["root", 0.0, 10.0, None],
        ["child", 1.0, 3.0, 0],
        ["grandchild", 1.5, 2.0, 1],
        ["child", 5.0, 9.0, 0],
        ["other", 20.0, 21.0, None],
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 0.5, 4.0, 1.0])
    summary = summarize(spans)
    assert summary["child"] == pytest.approx({"calls": 2, "total_s": 6.0, "self_s": 5.5})


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, None], ["a", 2.0, 6.0, 0], ["b", 4.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_records_parents_and_counters():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.counter("leaf", lambda x: x + 1)
    inner = tracer.span("inner", lambda x: leaf(x))
    outer = tracer.span("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    assert tracer.counts["leaf"] == 2
    assert self_times(tracer.spans) == pytest.approx([3.0, 1.0, 1.0])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
