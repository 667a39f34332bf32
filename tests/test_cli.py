import gc
import json
import os
import re
import subprocess
import sys

import pytest

from conftest import FIXTURES_DIR, GOLDEN_DIR, REPO_ROOT

from textaudit.cli import _FLAGS, COMMANDS, main


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


def test_config_with_byte_order_mark_audits_to_golden(tmp_path):
    path = tmp_path / "audit.json"
    path.write_bytes(b"\xef\xbb\xbf" + (FIXTURES_DIR / "audit_config.json").read_bytes())
    out = tmp_path / "out"
    assert main(["audit", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "report.json").read_bytes() == (GOLDEN_DIR / "report.json").read_bytes()


def test_config_error_exit_one(capsys):
    code = main(["perf", "--dataset", "/no/such/file.csv"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_empty_dataset_path_is_not_given(tmp_path, capsys):
    config = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    config["dataset"] = {"path": ""}
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(config))
    assert main(["audit", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "config error: config.dataset is required for the requested sections\n"
    )


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
    # would add to every audit's start-up time. Each adapter imports its own
    # transport, so importing the CLI loads neither http.client and ssl nor
    # subprocess and shlex. Only what the import adds to a bare interpreter's
    # modules counts, so a site hook that loads one of them cannot matter.
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    probe = (
        "import sys; bare = set(sys.modules); import textaudit.cli; "
        "print(sorted({'requests', 'urllib3', 'http.client', 'ssl', 'subprocess', 'shlex'}"
        " & (set(sys.modules) - bare)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_audit_without_a_live_adapter_never_imports_explain(tmp_path):
    # Only the explanations section, which needs a live adapter, uses the
    # explainers: neither importing the CLI nor an audit over a predictions
    # file loads them.
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    predictions = tmp_path / "predictions.csv"
    rows = (FIXTURES_DIR / "comments.csv").read_text(encoding="utf-8").splitlines()[1:]
    predictions.write_text(
        "id,p_hateful\n" + "".join(f"{row.split(',', 1)[0]},0.5\n" for row in rows), encoding="utf-8"
    )
    config = json.loads((FIXTURES_DIR / "audit_config.json").read_text(encoding="utf-8"))
    config["adapter"] = {"kind": "predictions_file", "location": str(predictions)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    probe = (
        "import sys\n"
        "import textaudit.cli\n"
        "print('textaudit.explain' in sys.modules)\n"
        f"argv = ['audit', '--config', {str(config_path)!r}, '--out', {str(tmp_path / 'out')!r}]\n"
        "code = textaudit.cli.main(argv)\n"
        "print(code, 'textaudit.explain' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "0 False")
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["sections"]["explanations"]["status"] == "skipped"


def test_fixture_audit_imports_no_numpy(tmp_path):
    # The audit's math is pure Python; numpy would cost every audit about
    # 0.1 s of start-up.
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    config = FIXTURES_DIR / "audit_config.json"
    probe = (
        "import sys\n"
        "from textaudit.cli import main\n"
        f"code = main(['audit', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 False"


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


def test_audit_runs_the_config_sections_and_perf_its_own(tmp_path):
    config = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    config["sections"] = ["performance", "emissions"]
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(config))
    for command, expected in (("audit", ["emissions", "performance"]), ("perf", ["performance"])):
        out = tmp_path / command
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        assert sorted(json.loads((out / "report.json").read_text())["sections"]) == expected


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


def test_unknown_attribute_fails_subgroup_stats(tmp_path):
    argv = ["class-bias", "--config", str(FIXTURES_DIR / "audit_config.json"), "--attributes", "gendre"]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    sections = json.loads((tmp_path / "report.json").read_text())["sections"]
    assert sections["subgroup_stats"] == {
        "status": "failed",
        "error": "AuditError: unknown attribute 'gendre'",
    }
    assert sections["fairness_metrics"]["status"] == "computed"


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--fair-attribute", "gendre"], "unknown attribute 'gendre'"),
        (["--reference", "males"], "unknown subgroup gender.males"),
        # A subgroup the gazetteer knows but no fixture comment references.
        (["--fair-attribute", "religion", "--reference", "islam", "--protected", "sikhism"],
         "no annotated comment references religion.sikhism"),
    ],
)
def test_unknown_fairness_group_named_as_unknown(tmp_path, flags, error):
    argv = ["class-bias", "--config", str(FIXTURES_DIR / "audit_config.json"), *flags]
    assert main([*argv, "--out", str(tmp_path)]) == 2
    sections = json.loads((tmp_path / "report.json").read_text())["sections"]
    assert sections["fairness_metrics"] == {"status": "failed", "error": f"AuditError: {error}"}
    assert sections["subgroup_stats"]["status"] == "computed"


def test_gazetteer_only_attribute_has_subgroup_stats(tmp_path):
    gazetteer = tmp_path / "gazetteer.json"
    gazetteer.write_text(json.dumps({"muslim": ["faith", "islam"], "imam": ["faith", "islam"]}))
    argv = ["class-bias", "--config", str(FIXTURES_DIR / "audit_config.json"), "--attributes", "faith"]
    out = tmp_path / "out"
    assert main([*argv, "--gazetteer", str(gazetteer), "--out", str(out)]) == 0
    stats = json.loads((out / "report.json").read_text())["sections"]["subgroup_stats"]
    assert stats["status"] == "computed"
    [per_attribute] = stats["data"]["per_attribute"]
    assert per_attribute["attribute"] == "faith"
    assert [(row["actual"], row["subgroup"], row["n"]) for row in per_attribute["rows"]] == [
        ("not-hateful", "islam", 2),
        ("hateful", "islam", 1),
    ]


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


@pytest.mark.parametrize(
    "argv, section, error",
    [
        (["swap", "--swap-a", "male", "--swap-b", "male"], "swap_favor",
         "AuditError: a swap needs two subgroups, got gender.male twice"),
        (["class-bias", "--reference", "male", "--protected", "male"], "fairness_metrics",
         "AuditError: fairness metrics need two subgroups, got gender.male twice"),
    ],
    ids=["swap", "fairness"],
)
def test_a_pair_naming_one_subgroup_twice_fails_its_section(tmp_path, argv, section, error):
    main([*argv, "--config", str(FIXTURES_DIR / "audit_config.json"), "--out", str(tmp_path)])
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["sections"][section] == {"status": "failed", "error": error}


# ---------------------------------------------------------------------------
# every flag overrides exactly one config field
# ---------------------------------------------------------------------------

# (argv after the fixture config, dotted AuditConfig attribute, expected value);
# every value differs from the fixture config's, so a flag that is not applied fails
FLAG_CASES = [
    (["--out", "results"], "output_dir", "results"),
    (["--dataset", "other.jsonl"], "dataset_path", "other.jsonl"),
    (["--dataset-format", "jsonl"], "dataset_format", "jsonl"),
    (["--lexicon", "lex.json"], "lexicon_path", "lex.json"),
    (["--gazetteer", "gaz.json"], "gazetteer_path", "gaz.json"),
    (["--neutral-words", "neutral.txt"], "neutral_words_path", "neutral.txt"),
    (["--identity-terms", "identity.txt"], "identity_terms_path", "identity.txt"),
    (["--templates", "tpl.json"], "templates_path", "tpl.json"),
    (["--embeddings", "vectors.txt"], "embeddings_path", "vectors.txt"),
    (["--adapter-kind", "http"], "adapter.kind", "http"),
    (["--adapter-location", "python3 other.py"], "adapter.location", "python3 other.py"),
    (["--batch-size", "7"], "adapter.batch_size", 7),
    (["--timeout", "2.5"], "adapter.timeout", 2.5),
    (["--max-retries", "0"], "adapter.max_retries", 0),
    (["--threshold", "0.25"], "threshold", 0.25),
    (["--attributes", "religion, gender"], "attributes", ("religion", "gender")),
    (["--seed", "11"], "rng_seed", 11),
    (["--swap-attribute", "religion"], "swap.attribute", "religion"),
    (["--swap-a", "islam"], "swap.sub_a", "islam"),
    (["--swap-b", "christianity"], "swap.sub_b", "christianity"),
    (["--rounding-decimals", "2"], "swap.rounding_decimals", 2),
    (["--fair-attribute", "religion"], "fairness.attribute", "religion"),
    (["--reference", "islam"], "fairness.reference", "islam"),
    (["--protected", "christianity"], "fairness.protected", "christianity"),
    (["--method", "sampled_shapley"], "explanation.method", "sampled_shapley"),
    (["--n-samples", "99"], "explanation.n_samples", 99),
    (["--kernel-width", "0.5"], "explanation.kernel_width", 0.5),
    (["--l2-lambda", "0.01"], "explanation.l2_lambda", 0.01),
    (["--m-permutations", "9"], "explanation.m_permutations", 9),
    (["--max-tokens-per-comment", "5"], "explanation.max_tokens_per_comment", 5),
    (["--comment-id", "h01", "--comment-id", "n02"], "explanation.local_comment_ids", ("h01", "n02")),
    (["--power-draw-kw", "2.5"], "emissions.power_draw_kw", 2.5),
    (["--hours", "3"], "emissions.hours", 3.0),
    (["--pue", "1.2"], "emissions.pue", 1.2),
    (["--carbon-intensity", "0.3"], "emissions.carbon_intensity_kg_per_kwh", 0.3),
]


def config_from_argv(monkeypatch, argv):
    """The AuditConfig that ``main(argv)`` would audit, without running the audit."""
    from textaudit import cli
    from textaudit.report import AuditReport

    seen = []

    def fake_run_audit(config):
        seen.append(config)
        return AuditReport(version="0", config={}, inputs=[], sections={})

    monkeypatch.setattr(cli, "run_audit", fake_run_audit)
    assert main(argv) == 0
    [config] = seen
    return config


def attribute(config, dotted):
    for name in dotted.split("."):
        config = getattr(config, name)
    return config


@pytest.mark.parametrize(
    "flag_args, dotted, expected", FLAG_CASES, ids=[case[0][0] for case in FLAG_CASES]
)
def test_flag_lands_on_its_config_field(monkeypatch, flag_args, dotted, expected):
    base = ["audit", "--config", str(FIXTURES_DIR / "audit_config.json")]
    before = config_from_argv(monkeypatch, base)
    after = config_from_argv(monkeypatch, base + flag_args)
    assert attribute(before, dotted) != expected
    value = attribute(after, dotted)
    assert value == expected and type(value) is type(expected)
    # nothing else moved
    for name in ("threshold", "rng_seed", "attributes", "sections", "output_dir", "dataset_path"):
        if name != dotted:
            assert getattr(after, name) == getattr(before, name)
    for name in ("adapter", "swap", "fairness", "explanation", "emissions"):
        if not dotted.startswith(name + "."):
            assert getattr(after, name) == getattr(before, name)


def test_config_flag_reads_the_file(monkeypatch):
    config = config_from_argv(
        monkeypatch, ["perf", "--config", str(FIXTURES_DIR / "audit_config.json")]
    )
    assert config.rng_seed == 7 and config.adapter.batch_size == 64
    assert config.sections == ("performance",)


def test_flag_cases_cover_every_flag(capsys):
    with pytest.raises(SystemExit):
        main(["audit", "--help"])
    flags = set(re.findall(r"(--[a-z][a-z0-9-]*)", capsys.readouterr().out)) - {"--help"}
    covered = {arg for case in FLAG_CASES for arg in case[0] if arg.startswith("--")}
    assert flags == covered | {"--config"}
    assert len(flags) == 36


def test_attributes_flag_empty_keeps_config_list(monkeypatch):
    base = ["audit", "--config", str(FIXTURES_DIR / "audit_config.json")]
    assert config_from_argv(monkeypatch, base + ["--attributes", ""]).attributes == (
        "gender",
        "religion",
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {"threshold": "abc"},
        {"threshold": None},
        {"rng_seed": 1.7},
        {"explanation": {"n_samples": "a"}},
        {"swap": {"rounding_decimals": "4"}},
        {"attributes": "gender"},
        {"explanation": {"local_comment_ids": "h11"}},
    ],
)
def test_badly_typed_config_exit_one(tmp_path, capsys, overrides):
    config = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    config.update(overrides)
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(config))
    assert main(["audit", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: config.") and "must be" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["emissions", "--power-draw-kw", "1", "--hours", "nan"],
            "config.emissions.hours must be a finite number, got nan",
        ),
        (
            ["explain-local", "--config", str(FIXTURES_DIR / "audit_config.json"),
             "--kernel-width", "0"],
            "explanation.kernel_width must be > 0, got 0.0",
        ),
    ],
)
def test_out_of_range_number_exit_one(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_non_utf8_config_exit_one(tmp_path, capsys):
    path = tmp_path / "audit.json"
    path.write_bytes(b'{"threshold": "\xff"}')
    assert main(["audit", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith(
        f"config error: config {path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff"
    )


def test_lone_surrogate_in_config_exit_one(tmp_path, capsys):
    config = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    config["counterfactual_fills"]["gender"]["male"] = ["ma\ud800n"]
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["audit", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: config {path}: not valid Unicode (surrogates not allowed)\n"
    )
    assert not out.exists()


def test_lone_surrogate_flag_exit_one(tmp_path, capsys):
    # An undecodable argument byte arrives as a lone surrogate, which the
    # config echo in report.json could not carry.
    out = tmp_path / "out"
    argv = ["audit", "--config", str(FIXTURES_DIR / "audit_config.json"), "--swap-a", "\udcff"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: config: not valid Unicode (surrogates not allowed)\n"
    )
    assert not out.exists()


def test_lone_surrogate_dataset_id_exit_one(tmp_path, capsys):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text('{"id": "a\\ud800", "text": "he is gay", "label": 0}\n')
    out = tmp_path / "out"
    argv = ["data-bias", "--dataset", str(dataset), "--dataset-format", "jsonl"]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: dataset: line 1: comment 'a\\ud800': id is not valid Unicode "
        "(surrogates not allowed)\n"
    )
    assert not out.exists()


def test_dataset_without_records_exit_one(tmp_path, capsys):
    dataset = tmp_path / "header_only.csv"
    dataset.write_text("id,text,label\n")
    out = tmp_path / "out"
    argv = ["audit", "--config", str(FIXTURES_DIR / "audit_config.json"), "--dataset", str(dataset)]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: dataset: dataset {dataset} has no records\n"
    assert not out.exists()


def test_lexicon_name_with_line_break_exit_one(tmp_path, capsys):
    # A subgroup name is a cell of embedding_bias.csv and of report.md's tables.
    lexicon = tmp_path / "lexicon.json"
    lexicon.write_text(json.dumps({"gender": {"fe\nmale": ["she"], "male": ["he"]}}))
    out = tmp_path / "out"
    argv = ["audit", "--config", str(FIXTURES_DIR / "audit_config.json"), "--lexicon", str(lexicon)]
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: attribute 'gender': invalid subgroup name 'fe\\nmale'\n"
    )
    assert not out.exists()


def test_overflowing_emissions_fail_that_section_only(tmp_path, capsys):
    config = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    config["emissions"].update(power_draw_kw=1e200, hours=1e200, pue=1, carbon_intensity_kg_per_kwh=1)
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["audit", "--config", str(path), "--out", str(out)]) == 2
    assert "emissions: failed (AuditError: co2eq_kg is not finite: inf)" in capsys.readouterr().out
    sections = json.loads((out / "report.json").read_text())["sections"]
    assert [name for name, section in sections.items() if section["status"] != "computed"] == ["emissions"]
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    for golden in GOLDEN_DIR.iterdir():
        if golden.stem != "report":  # the side files, which emissions does not feed
            assert (out / golden.name).read_bytes() == golden.read_bytes()


def test_dataset_format_flag_keeps_a_path_only_dataset(monkeypatch, tmp_path):
    config = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    config["dataset"] = "comments.jsonl"
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(config))
    argv = ["audit", "--config", str(path), "--dataset-format", "jsonl"]
    parsed = config_from_argv(monkeypatch, argv)
    assert (parsed.dataset_path, parsed.dataset_format) == ("comments.jsonl", "jsonl")


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_lists_every_flag(capsys, command):
    with pytest.raises(SystemExit) as caught:
        main([command, "-h"])
    assert caught.value.code == 0
    listed = set(re.findall(r"(--[a-z][a-z0-9-]*)", capsys.readouterr().out))
    assert listed == {flag for flag, _, _ in _FLAGS} | {"--config", "--help"}


def test_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["-h"])
    assert caught.value.code == 0
    out = capsys.readouterr().out
    for command in COMMANDS:
        assert re.search(rf"^ +{re.escape(command)} ", out, re.MULTILINE), command


def test_unknown_command_exit_two(capsys):
    with pytest.raises(SystemExit) as caught:
        main(["audits", "--out", "x"])
    assert caught.value.code == 2
    assert "argument command: invalid choice: 'audits'" in capsys.readouterr().err


def test_main_leaves_the_heap_unfrozen(tmp_path):
    assert main(["emissions", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == 0


def test_console_script_freezes_the_heap_after_writing_the_golden(tmp_path):
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    argv = ["textaudit", "audit", "--config", str(FIXTURES_DIR / "audit_config.json"), "--out", str(tmp_path)]
    probe = (
        "import gc, sys\n"
        "from textaudit.cli import run\n"
        f"sys.argv = {argv!r}\n"
        "print(run(), gc.get_freeze_count() > 0)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "0 True"
    for golden in GOLDEN_DIR.iterdir():
        assert (tmp_path / golden.name).read_bytes() == golden.read_bytes(), golden.name
