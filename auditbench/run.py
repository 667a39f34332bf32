#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``textaudit audit``.

Usage, from the repository root::

    python3 auditbench/run.py --workload fixture_audit --seed 1 --seconds 40 --trace 0

One closed-loop auditor runs one audit at a time, each in a fresh
interpreter, for ``--seconds``, and checks every audit's outputs. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates traced and untraced audits and reports the per-layer metrics and
the tracing overhead. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md for
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURE_CONFIG = ROOT / "tests" / "fixtures" / "audit_config.json"
FIXTURE_CSV = ROOT / "tests" / "fixtures" / "comments.csv"
GOLDEN = ROOT / "tests" / "golden" / "report.json"

WORKLOADS = ("fixture_audit", "shapley_http", "corpus_scale")
CORPUS_SCALE_N = 4000
SHAPLEY_PERMUTATIONS = 50
SETUP_PROBES = 7
MIN_AUDITS = 3
AUDIT_TIMEOUT_S = 40.0

END_TO_END = (
    ("audit_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("modeliface.adapter_calls", "count"),
    ("modeliface.texts_sent", "count"),
    ("modeliface.adapter_s", "s"),
    ("modeliface.overhead_s", "s"),
    ("modeliface.predict_batch_calls", "count"),
    ("modeliface.predict_batch_s", "s"),
    ("modeliface.texts_requested", "count"),
    ("modeliface.cache_hit_ratio", "ratio"),
    ("modeliface.cache_lookups", "count"),
    ("modeliface.sent_ratio", "ratio"),
    ("modeliface.retries", "count"),
    ("modeliface.load_predictions_s", "s"),
    ("model.busy_s", "s"),
    ("model.calls", "count"),
    ("model.texts", "count"),
    ("corpus.load_dataset_s", "s"),
    ("corpus.tokenize_calls", "count"),
    ("corpus.tokenize_s", "s"),
    ("lexicon.load_s", "s"),
    ("lexicon.abbreviations_calls", "count"),
    ("mining.annotate_s", "s"),
    ("mining.term_occurrences_calls", "count"),
    ("mining.annotations_jsonl_s", "s"),
    ("databias.identity_s", "s"),
    ("databias.subgroup_s", "s"),
    ("embedbias.load_s", "s"),
    ("embedbias.bias_s", "s"),
    ("classbias.performance_s", "s"),
    ("classbias.subgroup_stats_s", "s"),
    ("classbias.fairness_s", "s"),
    ("classbias.swap_self_s", "s"),
    ("classbias.swap_text_calls", "count"),
    ("classbias.counterfactual_s", "s"),
    ("explain.local_self_s", "s"),
    ("explain.global_self_s", "s"),
    ("report.render_s", "s"),
    ("trace.audit_s", "s"),
    ("trace.overhead_s", "s"),
)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def _rel(path: Path) -> str:
    return os.path.relpath(path, ROOT)


@dataclass
class ProcessRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_process(argv: list[str], log_path: Path, timeout: float) -> ProcessRun:
    """Run ``argv`` from the repository root; wall time from spawn to exit.

    CPU time and peak RSS come from ``wait4``, so they cover the process and
    the children it waited for.
    """
    with log_path.open("wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcessRun(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
    )


# ---------------------------------------------------------------------------
# Stub models: each counts calls, texts and busy seconds on the model side.
# ---------------------------------------------------------------------------

class NoModel:
    location = None

    def snapshot(self) -> tuple[int, int, float]:
        return 0, 0, 0.0

    def close(self) -> None:
        pass


class SubprocessModel:
    """The counting line-protocol stub; the audit spawns it once per batch."""

    def __init__(self, work: Path):
        self.log = work / "model_calls.jsonl"
        argv = [sys.executable, _rel(BENCH / "stub_subprocess.py"), _rel(self.log)]
        self.location = " ".join(shlex.quote(a) for a in argv)

    def snapshot(self) -> tuple[int, int, float]:
        calls = texts = 0
        busy = 0.0
        if self.log.exists():
            for line in self.log.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                calls += record["calls"]
                texts += record["texts"]
                busy += record["busy_s"]
        return calls, texts, busy

    def close(self) -> None:
        pass


class HttpModel:
    """The loopback HTTP stub in a child process, started before timing."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub_http.py")],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        try:
            port = int(self.proc.stdout.readline())
        except ValueError:
            self.close()
            raise RuntimeError("HTTP stub model did not report its port") from None
        self.location = f"http://127.0.0.1:{port}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))

    def snapshot(self) -> tuple[int, int, float]:
        with self._opener.open(self.location + "/stats", timeout=10) as response:
            stats = json.loads(response.read())
        return stats["calls"], stats["texts"], stats["busy_s"]

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    config_path: Path
    model: object
    check: Callable[[Path], str | None]  # difference from the expected outputs, or None
    properties: dict = field(default_factory=dict)


def _write_config(work: Path, config: dict) -> Path:
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def _reference_check(config_path: Path, properties: dict):
    from reference import check_against_reference, reference_outputs
    from textaudit.report import load_config

    sections, files, ref_share = reference_outputs(load_config(config_path))
    properties["subgroup_ref_share"] = ref_share
    return lambda out: check_against_reference(out, sections, files)


def fixture_audit(work: Path, seed: int) -> Workload:
    """The fixture config unchanged; the seed does not enter (fixed inputs)."""
    from reference import check_against_golden

    config = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))
    model = SubprocessModel(work)
    config["adapter"]["location"] = model.location
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return Workload(
        config_path=_write_config(work, config),
        model=model,
        check=lambda out: check_against_golden(out, golden, model.location),
        properties={"n_comments": 30},
    )


def shapley_http(work: Path, seed: int) -> Workload:
    """Fixture corpus, sampled Shapley over HTTP; the seed is the audit's rng_seed."""
    config = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))
    config["explanation"]["method"] = "sampled_shapley"
    config["explanation"]["m_permutations"] = SHAPLEY_PERMUTATIONS
    config["rng_seed"] = seed
    model = HttpModel()
    try:
        config["adapter"] = {
            "kind": "http", "location": model.location,
            "batch_size": 64, "timeout": 60, "max_retries": 1,
        }
        path = _write_config(work, config)
        properties = {"n_comments": 30, "m_permutations": SHAPLEY_PERMUTATIONS}
        check = _reference_check(path, properties)
    except BaseException:
        model.close()
        raise
    return Workload(config_path=path, model=model, check=check, properties=properties)


def corpus_scale(work: Path, seed: int) -> Workload:
    """Seeded synthetic corpus of distinct texts with a predictions file."""
    from corpus_gen import write_workload

    properties = write_workload(FIXTURE_CSV, work, CORPUS_SCALE_N, seed)
    config = json.loads(FIXTURE_CONFIG.read_text(encoding="utf-8"))
    config["dataset"] = {"path": _rel(work / "comments.csv"), "format": "csv"}
    config["adapter"] = {"kind": "predictions_file", "location": _rel(work / "predictions.csv")}
    path = _write_config(work, config)
    check = _reference_check(path, properties)
    return Workload(config_path=path, model=NoModel(), check=check, properties=properties)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Audit:
    run: ProcessRun
    model: tuple[int, int, float]  # calls, texts, busy seconds during this audit
    error: str | None
    trace: dict | None = None


def run_audit(work: Path, workload: Workload, index: int, traced: bool) -> Audit:
    out = work / f"out{index}"
    args = ["audit", "--config", _rel(workload.config_path), "--out", _rel(out)]
    trace_path = work / f"trace{index}.json"
    if traced:
        argv = [sys.executable, _rel(BENCH / "traced_audit.py"), _rel(trace_path), *args]
    else:
        argv = [sys.executable, "-m", "textaudit.cli", *args]
    before = workload.model.snapshot()
    run = run_process(argv, work / f"audit{index}.log", AUDIT_TIMEOUT_S)
    after = workload.model.snapshot()
    model = (after[0] - before[0], after[1] - before[1], after[2] - before[2])
    if run.exit_code != 0:
        tail = (work / f"audit{index}.log").read_text(encoding="utf-8", errors="replace")[-800:]
        error = f"exit code {run.exit_code}: {tail}"
    else:
        error = workload.check(out)
    trace = None
    if traced and trace_path.exists():
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        trace_path.unlink()
    elif traced and error is None:
        error = "traced audit wrote no trace"
    shutil.rmtree(out, ignore_errors=True)
    return Audit(run=run, model=model, error=error, trace=trace)


def layer_metrics(trace: dict, model: tuple[int, int, float], wall_s: float) -> dict[str, float]:
    """Per-layer values of one traced audit, keyed as in PER_LAYER."""
    from spans import summarize

    spans = summarize(trace["spans"])
    counts = trace["counts"]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    adapter_s = total("modeliface.score_batch")
    requested = counts.get("modeliface.texts_requested", 0)
    sent = counts.get("modeliface.texts_sent", 0)
    lookups = counts.get("modeliface.cache_lookups", 0)
    return {
        "modeliface.adapter_calls": calls("modeliface.score_batch"),
        "modeliface.texts_sent": sent,
        "modeliface.adapter_s": adapter_s,
        "modeliface.overhead_s": adapter_s - model[2],
        "modeliface.predict_batch_calls": calls("modeliface.predict_batch"),
        "modeliface.predict_batch_s": total("modeliface.predict_batch"),
        "modeliface.texts_requested": requested,
        "modeliface.cache_hit_ratio": ratio(counts.get("modeliface.cache_hits", 0), lookups),
        "modeliface.cache_lookups": lookups,
        "modeliface.sent_ratio": ratio(sent, requested),
        "modeliface.retries": counts.get("modeliface.score_batch.errors", 0),
        "modeliface.load_predictions_s": total("modeliface.load_predictions"),
        "model.busy_s": model[2],
        "model.calls": model[0],
        "model.texts": model[1],
        "corpus.load_dataset_s": total("corpus.load_dataset"),
        "corpus.tokenize_calls": counts.get("corpus.tokenize", 0),
        "corpus.tokenize_s": counts.get("corpus.tokenize_s", 0.0),
        "lexicon.load_s": total("lexicon.load"),
        "lexicon.abbreviations_calls": counts.get("lexicon.abbreviations", 0),
        "mining.annotate_s": total("mining.annotate_corpus"),
        "mining.term_occurrences_calls": counts.get("mining.term_occurrences", 0),
        "mining.annotations_jsonl_s": total("mining.annotations_to_jsonl"),
        "databias.identity_s": total("databias.identity"),
        "databias.subgroup_s": total("databias.subgroup"),
        "embedbias.load_s": total("embedbias.load"),
        "embedbias.bias_s": total("embedbias.bias"),
        "classbias.performance_s": total("classbias.performance"),
        "classbias.subgroup_stats_s": total("classbias.subgroup_stats"),
        "classbias.fairness_s": total("classbias.fairness"),
        "classbias.swap_self_s": own("classbias.swap"),
        "classbias.swap_text_calls": counts.get("classbias.swap_text", 0),
        "classbias.counterfactual_s": total("classbias.counterfactual"),
        "explain.local_self_s": own("explain.local"),
        "explain.global_self_s": own("explain.global"),
        "report.render_s": total("report.render"),
        "trace.audit_s": wall_s,
    }


def tail_percentile(values: list[float]) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return "max", max(values)


def setup_probe(work: Path, workload: Workload, index: int) -> float:
    log_path = work / f"setup{index}.log"
    probe = run_process(
        [sys.executable, _rel(BENCH / "setup_probe.py"), _rel(workload.config_path)],
        log_path, AUDIT_TIMEOUT_S,
    )
    if probe.exit_code != 0:
        log = log_path.read_text(encoding="utf-8", errors="replace")
        raise RuntimeError(f"setup probe failed: {log[-800:]}")
    return probe.wall_s


def measure(work: Path, workload: Workload, seconds: float, traced: bool) -> dict:
    """Audits one at a time for ``seconds``; set-up probes go between the first ones,
    so that a short slow spell on the host does not hit all of them."""
    setup: list[float] = []
    plain: list[Audit] = []
    with_trace: list[Audit] = []
    start = time.perf_counter()
    index = 0
    while (
        time.perf_counter() - start < seconds
        or len(plain) < MIN_AUDITS
        or (traced and len(with_trace) < MIN_AUDITS)
    ):
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(work, workload, index))
        trace_this = traced and index % 2 == 1
        audit = run_audit(work, workload, index, trace_this)
        (with_trace if trace_this else plain).append(audit)
        if audit.error:
            print(f"audit {index} failed: {audit.error}", file=sys.stderr)
        index += 1
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(work, workload, len(setup)))
    return {"setup": setup, "plain": plain, "traced": with_trace}


def report(name: str, workload: Workload, result: dict, traced: bool) -> dict:
    plain, with_trace = result["plain"], result["traced"]
    audits = plain + with_trace
    failed = sum(1 for a in audits if a.error)
    walls = [a.run.wall_s for a in plain]
    model_counts = {a.model[:2] for a in audits}

    print(f"workload {name}: {len(audits)} audits, one at a time (closed loop, 1 client)")
    for key, value in workload.properties.items():
        print(f"  property {key} = {value}")
    label, tail = tail_percentile(walls)
    end_to_end = {
        "audit_s": statistics.median(walls),
        "setup_s": statistics.median(result["setup"]),
        "cpu_s": statistics.median(a.run.cpu_s for a in plain),
        "peak_rss_mb": statistics.median(a.run.peak_rss_mb for a in plain),
    }
    for key, unit in END_TO_END:
        print(f"  {key} = {end_to_end[key]:.6g} {unit}")
    print(f"  audit_s {label} = {tail:.6g} s over {len(walls)} untraced audits")
    print("  audit_s samples = " + " ".join(f"{w:.3f}" for w in walls))
    print(f"  setup_s over {len(result['setup'])} set-ups")
    calls, texts = sorted(model_counts)[0]
    print(f"  model_calls = {calls} count per audit")
    print(f"  texts_scored = {texts} count per audit")
    print(f"  failed_frac = {failed / len(audits):.6g} ratio ({failed} of {len(audits)} audits)")
    if len(model_counts) != 1:
        print(f"  model counts differ between audits: {sorted(model_counts)}", file=sys.stderr)

    if not traced:
        metrics = {key: {"value": end_to_end[key], "unit": unit} for key, unit in END_TO_END}
    else:
        per_audit = [
            layer_metrics(a.trace, a.model, a.run.wall_s) for a in with_trace if a.trace
        ]
        values = {
            key: statistics.median(m[key] for m in per_audit) if per_audit else 0.0
            for key, _ in PER_LAYER if key != "trace.overhead_s"
        }
        values["trace.overhead_s"] = values["trace.audit_s"] - end_to_end["audit_s"]
        bases = {
            "modeliface.cache_hit_ratio": ("modeliface.cache_lookups", "lookups"),
            "modeliface.sent_ratio": ("modeliface.texts_requested", "texts requested"),
        }
        for key, unit in PER_LAYER:
            base = f" (of {values[bases[key][0]]:g} {bases[key][1]})" if key in bases else ""
            print(f"  {key} = {values[key]:.6g} {unit}{base}")
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER}
    return {
        "correct": failed == 0 and len(model_counts) == 1,
        "attempted": len(audits),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "textaudit" / "cli.py", FIXTURE_CONFIG, GOLDEN):
        if not needed.is_file():
            print(f"cannot benchmark: {_rel(needed)} is missing", file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The auditor, its audit and the stub model take turns and never run at
    # the same time, so they share one CPU: on a shared VM, waking another CPU
    # for each of ~800 HTTP round trips adds more noise than it saves.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    scratch = BENCH / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    # Turn a termination request into an exit, so the finally block below
    # still stops the stub model and removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    make_workload = {
        "fixture_audit": fixture_audit,
        "shapley_http": shapley_http,
        "corpus_scale": corpus_scale,
    }
    workload = None
    try:
        workload = make_workload[args.workload](work, args.seed)
        result = measure(work, workload, args.seconds, bool(args.trace))
        summary = report(args.workload, workload, result, bool(args.trace))
    finally:
        if workload is not None:
            workload.model.close()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
