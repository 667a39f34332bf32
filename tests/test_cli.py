import json
import os
import subprocess
import sys

import pytest

from conftest import FIXTURES_DIR, REPO_ROOT

from textaudit.cli import main


@pytest.fixture(autouse=True)
def run_from_repo_root(monkeypatch):
    # the fixture config uses repo-relative paths
    monkeypatch.chdir(REPO_ROOT)


def test_emissions_standalone(tmp_path, capsys):
    code = main(
        [
            "emissions",
            "--power-draw-kw", "1.0",
            "--hours", "10",
            "--pue", "1.0",
            "--carbon-intensity", "0.5",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert "emissions: computed" in capsys.readouterr().out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["sections"]["emissions"]["data"]["co2eq_kg"] == pytest.approx(5.0)
    assert list(report["sections"]) == ["emissions"]


def test_full_audit_exit_zero(tmp_path, capsys):
    code = main(
        ["audit", "--config", str(FIXTURES_DIR / "audit_config.json"), "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    for section in ("performance", "data_bias", "embedding_bias", "emissions"):
        assert f"{section}: computed" in out
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.md").exists()


def test_config_error_exit_one(capsys):
    code = main(["perf", "--dataset", "/no/such/file.csv"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dataset": "x.csv", "oops": 1}))
    code = main(["audit", "--config", str(bad)])
    assert code == 1
    assert "unknown key" in capsys.readouterr().err


def test_bad_http_location_exit_one(tmp_path, capsys):
    config = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    config["adapter"] = {"kind": "http", "location": "localhost:8000"}
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(config))
    code = main(["perf", "--config", str(path)])
    assert code == 1
    assert "adapter: http adapter needs an http:// or https:// URL" in capsys.readouterr().err


def test_cli_import_loads_no_third_party_http_client():
    # The http adapter uses only the standard library; requests and urllib3
    # would add to every audit's start-up time.
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = "import sys, textaudit.cli; print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_failed_section_exit_two(tmp_path, capsys):
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("a 1 2\nb 1\n")
    code = main(
        [
            "embed-bias",
            "--config", str(FIXTURES_DIR / "audit_config.json"),
            "--embeddings", str(corrupt),
        ]
    )
    assert code == 2
    assert "embedding_bias: failed" in capsys.readouterr().out


def test_perf_subcommand_runs_single_section(tmp_path):
    code = main(
        [
            "perf",
            "--config", str(FIXTURES_DIR / "audit_config.json"),
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert list(report["sections"]) == ["performance"]
    assert report["sections"]["performance"]["data"]["accuracy"] == pytest.approx(0.9)


def test_class_bias_subcommand_sections(tmp_path):
    code = main(
        [
            "class-bias",
            "--config", str(FIXTURES_DIR / "audit_config.json"),
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report["sections"]) == {"subgroup_stats", "fairness_metrics"}


def test_explain_local_mode_override(tmp_path):
    code = main(
        [
            "explain-local",
            "--config", str(FIXTURES_DIR / "audit_config.json"),
            "--comment-id", "h01",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    data = report["sections"]["explanations"]["data"]
    assert data["mode"] == "local"
    assert "global" not in data
    assert data["local"][0]["comment_id"] == "h01"


def test_flag_overrides_config_threshold(tmp_path):
    code = main(
        [
            "perf",
            "--config", str(FIXTURES_DIR / "audit_config.json"),
            "--threshold", "0.9",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["sections"]["performance"]["data"]["threshold"] == pytest.approx(0.9)


def test_swap_subcommand(tmp_path):
    code = main(
        [
            "swap",
            "--config", str(FIXTURES_DIR / "audit_config.json"),
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    data = report["sections"]["swap_favor"]["data"]
    assert data["n_swapped"] == 13
    assert data["fraction_favor_a"] + data["fraction_favor_b"] + data["fraction_no_change"] == pytest.approx(1.0)
