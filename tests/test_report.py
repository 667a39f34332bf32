import hashlib
import json
import math
import re
import shlex
import sys
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES_DIR, CallableAdapter
from stub_model import keyword_probability

from textaudit import lexicon, mining
from textaudit.classbias import (
    counterfactual_bias,
    counterfactual_probability_stats,
    expand_templates,
    fairness_metrics,
    performance_report,
    subgroup_probability_stats,
    swap_favor_analysis,
)
from textaudit.corpus import load_dataset
from textaudit.errors import AuditError, ConfigError, LexiconError
from textaudit.explain import global_importance, local_explain
from textaudit.lexicon import aligned_swap_pairs, default_gazetteer, default_lexicon, load_templates
from textaudit.mining import annotate_corpus
from textaudit.modeliface import PredictionCache, PredictionRecord, predict_batch
from textaudit.report import (
    SECTIONS,
    AuditConfig,
    AuditReport,
    canonical_json,
    estimate_emissions,
    load_config,
    read_json,
    render_report,
    run_audit,
)


def fixture_config(**overrides):
    data = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    data.update(overrides)
    return AuditConfig.from_dict(data)


@pytest.fixture(scope="module")
def full_report(module_chdir):
    return run_audit(fixture_config())


@pytest.fixture(scope="module")
def module_chdir():
    # the fixture config uses repo-relative paths
    import os

    old = os.getcwd()
    os.chdir(FIXTURES_DIR.parent.parent)
    yield
    os.chdir(old)


# ---------------------------------------------------------------------------
# emissions
# ---------------------------------------------------------------------------

def test_emissions_zero_hours():
    assert estimate_emissions(1.0, 0.0, 1.0, 0.5).co2eq_kg == 0.0


def test_emissions_hand_products():
    assert estimate_emissions(1.0, 10.0, 1.0, 0.5).co2eq_kg == pytest.approx(5.0, abs=1e-9)
    assert estimate_emissions(0.3, 4.0, 1.58, 0.4).co2eq_kg == pytest.approx(0.7584, abs=1e-9)


def test_emissions_negative_input():
    with pytest.raises(AuditError, match="pue"):
        estimate_emissions(1.0, 1.0, -0.5, 0.5)


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------

def test_canonical_json_roundtrip():
    payload = {"b": 1 / 3, "a": [1, 2.0, None, "x"], "c": {"nested": 0.1234567891}}
    text = canonical_json(payload)
    parsed = json.loads(text)
    assert parsed["b"] == pytest.approx(1 / 3, rel=1e-5)
    assert text == canonical_json(parsed)  # idempotent at 6 significant digits
    assert list(json.loads(text)) == ["a", "b", "c"]


def test_canonical_json_negative_zero():
    assert "-0.0" not in canonical_json({"x": -0.0})


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_canonical_json_rejects_a_record():
    # a record reaches the report only through plain; as a tuple it would be written as a list
    with pytest.raises(TypeError, match="cannot canonicalize PredictionRecord"):
        canonical_json({"x": [PredictionRecord("h01", 0.5)]})


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        AuditConfig.from_dict({"datasett": "typo.csv"})


def test_config_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        AuditConfig.from_dict({"sections": ["performance", "vibes"]})


def test_config_threshold_validated():
    with pytest.raises(ConfigError, match="threshold"):
        AuditConfig.from_dict({"threshold": 1.5})


def test_config_adapter_validated():
    with pytest.raises(ConfigError, match="adapter"):
        AuditConfig.from_dict({"adapter": {"kind": "telepathy", "location": "x"}})


@pytest.mark.parametrize(
    "field, value", [("batch_size", 2.5), ("batch_size", True), ("max_retries", 1.5)]
)
def test_config_adapter_integers_validated(field, value):
    adapter = {"kind": "subprocess", "location": "x", field: value}
    with pytest.raises(ConfigError, match=rf"config\.adapter: {field} must be an integer"):
        AuditConfig.from_dict({"adapter": adapter})


@pytest.mark.parametrize(
    "adapter, missing",
    [({"kind": "http"}, "['location']"), ({"location": "x"}, "['kind']"), ({}, "['kind', 'location']")],
)
def test_config_adapter_missing_key_named(adapter, missing):
    with pytest.raises(ConfigError) as info:
        AuditConfig.from_dict({"adapter": adapter})
    assert str(info.value) == f"config.adapter: missing key(s) {missing}"


@pytest.mark.parametrize("timeout", [0, -1, float("inf"), True, "5", None])
def test_config_adapter_timeout_validated(timeout):
    adapter = {"kind": "subprocess", "location": "x", "timeout": timeout}
    with pytest.raises(ConfigError, match=r"config\.adapter: timeout must be a positive"):
        AuditConfig.from_dict({"adapter": adapter})


def test_config_explanation_mode_validated():
    with pytest.raises(ConfigError, match="explanation.mode"):
        AuditConfig.from_dict({"explanation": {"mode": "banana"}})
    with pytest.raises(ConfigError, match="explanation.method"):
        AuditConfig.from_dict({"explanation": {"method": "banana"}})


def fixture_json():
    return json.loads((FIXTURES_DIR / "audit_config.json").read_text())


@pytest.mark.parametrize(
    "data",
    [
        {},
        fixture_json(),
        {
            "dataset": "comments.jsonl",
            "adapter": {"kind": "http", "location": "http://localhost:1", "timeout": 2},
            "explanation": {"local_comment_ids": ["h01", "n02"], "n_samples": None},
            "attributes": ["religion"],
            "sections": ["performance", "emissions"],
            "counterfactual_fills": {},
            "output_dir": "out",
        },
    ],
    ids=["defaults", "fixture", "mixed"],
)
def test_config_round_trip(data):
    config = AuditConfig.from_dict(data)
    assert AuditConfig.from_dict(config.to_dict()) == config._replace(output_dir=None)
    assert "output_dir" not in config.to_dict()


@pytest.mark.parametrize(
    "data, message",
    [
        ({"oops": 1}, "config: unknown key(s) ['oops']"),
        ({"zz": 1, "aa": 2}, "config: unknown key(s) ['aa', 'zz']"),
        ({"dataset": {"path": "x.csv", "oops": 1}}, "config.dataset: unknown key(s) ['oops']"),
        (
            {"adapter": {"kind": "subprocess", "location": "x", "oops": 1}},
            "config.adapter: unknown key(s) ['oops']",
        ),
        ({"swap": {"oops": 1}}, "config.swap: unknown key(s) ['oops']"),
        ({"fairness": {"oops": 1}}, "config.fairness: unknown key(s) ['oops']"),
        ({"explanation": {"oops": 1}}, "config.explanation: unknown key(s) ['oops']"),
        ({"emissions": {"oops": 1}}, "config.emissions: unknown key(s) ['oops']"),
        ({"dataset": 5}, "config.dataset must be a path or {path, format}"),
        ({"dataset": {"format": "xml"}}, "unknown dataset format 'xml'"),
        ({"adapter": 5}, "config.adapter must be an object"),
        ({"swap": 5}, "config.swap must be an object"),
        ({"fairness": []}, "config.fairness must be an object"),
        ({"explanation": "both"}, "config.explanation must be an object"),
        ({"emissions": 5}, "config.emissions must be an object"),
        ({"counterfactual_fills": 5}, "config.counterfactual_fills must be an object"),
        (
            {"sections": ["vibes"]},
            f"unknown section 'vibes' (expected one of {SECTIONS})",
        ),
        ({"threshold": 1.5}, "threshold must lie strictly between 0 and 1, got 1.5"),
        ({"swap": {"rounding_decimals": -1}}, "swap.rounding_decimals must be >= 0, got -1"),
        ({"explanation": {"m_permutations": 0}}, "explanation.m_permutations must be positive"),
        (
            {"explanation": {"mode": "banana"}},
            "explanation.mode must be local, global or both, got 'banana'",
        ),
        (
            {"adapter": {"kind": "telepathy", "location": "x"}},
            "config.adapter: unknown adapter kind 'telepathy' "
            "(expected one of ('predictions_file', 'subprocess', 'http'))",
        ),
        ({"explanation": {"kernel_width": 0}}, "explanation.kernel_width must be > 0, got 0"),
        ({"explanation": {"kernel_width": -0.5}}, "explanation.kernel_width must be > 0, got -0.5"),
        ({"explanation": {"l2_lambda": -1e-3}}, "explanation.l2_lambda must be >= 0, got -0.001"),
        (
            {"explanation": {"max_local_comments": -1}},
            "explanation.max_local_comments must be >= 0, got -1",
        ),
        (
            {"explanation": {"max_tokens_per_comment": -2}},
            "explanation.max_tokens_per_comment must be >= 0, got -2",
        ),
    ],
)
def test_config_error_messages_pinned(data, message):
    with pytest.raises(ConfigError) as caught:
        AuditConfig.from_dict(data)
    assert str(caught.value) == message


def test_config_null_object_keys_mean_defaults():
    keys = ("dataset", "adapter", "swap", "fairness", "explanation", "emissions",
            "counterfactual_fills")
    assert AuditConfig.from_dict(dict.fromkeys(keys)) == AuditConfig()


# values of the wrong type, each once a traceback, a silent conversion or a late failure
BAD_TYPED_CONFIGS = [
    ({"threshold": "abc"}, "config.threshold must be a number, got 'abc'"),
    ({"threshold": None}, "config.threshold must be a number, got None"),
    ({"threshold": True}, "config.threshold must be a number, got True"),
    ({"rng_seed": 1.7}, "config.rng_seed must be an integer, got 1.7"),
    ({"rng_seed": None}, "config.rng_seed must be an integer, got None"),
    ({"explanation": {"n_samples": "a"}}, "config.explanation.n_samples must be an integer, got 'a'"),
    (
        {"swap": {"rounding_decimals": "4"}},
        "config.swap.rounding_decimals must be an integer, got '4'",
    ),
    ({"attributes": "gender"}, "config.attributes must be a list, got 'gender'"),
    ({"attributes": ["gender", 1]}, "config.attributes[1] must be a string, got 1"),
    ({"sections": None}, "config.sections must be a list, got None"),
    (
        {"explanation": {"local_comment_ids": "h11"}},
        "config.explanation.local_comment_ids must be a list, got 'h11'",
    ),
    ({"swap": {"attribute": None}}, "config.swap.attribute must be a string, got None"),
    ({"emissions": {"hours": "4"}}, "config.emissions.hours must be a number, got '4'"),
    ({"lexicon": 5}, "config.lexicon must be a string, got 5"),
    ({"dataset": {"path": 5}}, "config.dataset.path must be a string, got 5"),
    (
        {"counterfactual_fills": {"gender": {"male": "man"}}},
        "config.counterfactual_fills.gender.male must be a list, got 'man'",
    ),
    ({"adapter": {"kind": "subprocess", "location": None}}, "config.adapter: location must be a string, got None"),
    # JSON NaN and Infinity, which json.loads accepts
    (json.loads('{"threshold": NaN}'), "config.threshold must be a finite number, got nan"),
    (
        json.loads('{"emissions": {"hours": Infinity}}'),
        "config.emissions.hours must be a finite number, got inf",
    ),
    (
        json.loads('{"explanation": {"kernel_width": -Infinity}}'),
        "config.explanation.kernel_width must be a finite number, got -inf",
    ),
]


@pytest.mark.parametrize("data, message", BAD_TYPED_CONFIGS)
def test_config_value_types_checked(data, message):
    with pytest.raises(ConfigError) as caught:
        AuditConfig.from_dict(data)
    assert str(caught.value) == message


def test_config_explanation_zero_values_accepted():
    spec = AuditConfig.from_dict(
        {"explanation": {"l2_lambda": 0, "max_tokens_per_comment": 0, "max_local_comments": 0}}
    ).explanation
    assert (spec.l2_lambda, spec.max_tokens_per_comment, spec.max_local_comments) == (0, 0, 0)


def test_config_integers_kept_for_float_fields():
    config = AuditConfig.from_dict(fixture_json())
    assert type(config.emissions.hours) is int and config.emissions.hours == 4
    assert type(config.adapter.timeout) is int and config.adapter.timeout == 60
    assert config.to_dict()["emissions"]["hours"] == 4
    assert AuditConfig.from_dict({"threshold": 0.5}).threshold == 0.5


def test_config_field_types_resolved_once_per_class():
    from textaudit.report import _field_types

    AuditConfig.from_dict(fixture_json())
    resolved = _field_types.cache_info().misses
    AuditConfig.from_dict(fixture_json())
    assert _field_types.cache_info().misses == resolved


def test_config_optional_fields_take_null():
    config = AuditConfig.from_dict(
        {"lexicon": None, "explanation": {"n_samples": None}, "output_dir": None}
    )
    assert config.lexicon_path is None and config.explanation.n_samples is None


def test_config_dataset_required_for_corpus_sections():
    config = AuditConfig.from_dict({"sections": ["performance"]})
    with pytest.raises(ConfigError, match="dataset"):
        run_audit(config)


def test_config_emissions_only_needs_no_dataset():
    config = AuditConfig.from_dict(
        {"sections": ["emissions"], "emissions": {"power_draw_kw": 1.0, "hours": 10.0,
                                                  "pue": 1.0, "carbon_intensity_kg_per_kwh": 0.5}}
    )
    report = run_audit(config)
    assert report.sections["emissions"]["data"]["co2eq_kg"] == pytest.approx(5.0)


def test_load_config_file(module_chdir):
    config = load_config(FIXTURES_DIR / "audit_config.json")
    assert config.rng_seed == 7
    assert config.adapter.kind == "subprocess"


def test_config_with_lone_surrogate_rejected(tmp_path):
    path = tmp_path / "audit.json"
    path.write_text(json.dumps({"counterfactual_fills": {"gender": {"male": ["ma\ud800n"]}}}))
    with pytest.raises(ConfigError) as caught:
        read_json(path)
    assert str(caught.value) == f"config {path}: not valid Unicode (surrogates not allowed)"


# ---------------------------------------------------------------------------
# run_audit
# ---------------------------------------------------------------------------

def test_all_nine_sections_computed(full_report):
    assert len(full_report.sections) == 9
    statuses = {name: s["status"] for name, s in full_report.sections.items()}
    assert set(statuses.values()) == {"computed"}


def test_report_determinism(full_report, module_chdir):
    again = run_audit(fixture_config())
    assert render_report(full_report, "json") == render_report(again, "json")


def test_missing_embeddings_skipped(module_chdir):
    config = fixture_config(embeddings=None)
    report = run_audit(config)
    section = report.sections["embedding_bias"]
    assert section["status"] == "skipped"
    assert section["reason"] == "no embedding file"


def predictions_file_config(tmp_path, **overrides):
    corpus = load_dataset(FIXTURES_DIR / "comments.csv", "csv")
    preds_path = tmp_path / "preds.csv"
    lines = ["id,p_hateful"] + [
        f"{c.id},{keyword_probability(c.text):.6f}" for c in corpus
    ]
    preds_path.write_text("\n".join(lines) + "\n")
    return fixture_config(
        adapter={"kind": "predictions_file", "location": str(preds_path)}, **overrides
    )


def test_predictions_file_adapter_skips_live_sections(module_chdir, tmp_path):
    report = run_audit(predictions_file_config(tmp_path))
    assert report.sections["performance"]["status"] == "computed"
    assert report.sections["fairness_metrics"]["status"] == "computed"
    for live_only in ("swap_favor", "counterfactual", "explanations"):
        section = report.sections[live_only]
        assert section["status"] == "skipped"
        assert "live adapter" in section["reason"]
    # offline and live predictions agree on the performance numbers
    live = run_audit(fixture_config())
    assert (
        report.sections["performance"]["data"]["accuracy"]
        == live.sections["performance"]["data"]["accuracy"]
    )


def test_predictions_file_is_read_not_opened(module_chdir, tmp_path):
    out = tmp_path / "out"
    opened = mock.Mock(side_effect=AssertionError("a predictions file was opened as an adapter"))
    with mock.patch("textaudit.report.open_adapter", opened):
        report = run_audit(predictions_file_config(tmp_path, output_dir=str(out)))
    opened.assert_not_called()
    assert report.sections["performance"]["status"] == "computed"
    assert report.inputs[-1]["name"] == "predictions"
    assert not (out / "global_importance.csv").exists()
    assert (out / "report.json").exists()


def test_predictions_file_audit_tokenizes_each_comment_once(module_chdir, tmp_path, monkeypatch):
    # Mining, the subgroup tables and the identity-term counts share one pass.
    calls = []
    original = mining.tokenize

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("textaudit.")]:
        if getattr(module, "tokenize", None) is original:
            monkeypatch.setattr(module, "tokenize", counted)
    report = run_audit(predictions_file_config(tmp_path, output_dir=str(tmp_path / "out")))
    assert all(s["status"] != "failed" for s in report.sections.values())
    assert report.sections["data_bias"]["status"] == "computed"
    corpus = load_dataset(FIXTURES_DIR / "comments.csv", "csv")
    assert sorted(calls) == sorted(c.text for c in corpus)


def test_no_adapter_skips_prediction_sections(module_chdir):
    config = fixture_config(adapter=None)
    report = run_audit(config)
    assert report.sections["performance"]["status"] == "skipped"
    assert report.sections["data_bias"]["status"] == "computed"
    assert report.sections["emissions"]["status"] == "computed"


def test_section_isolation(full_report, module_chdir, tmp_path):
    corrupt = tmp_path / "broken_embeddings.txt"
    corrupt.write_text("a 1 0\nb 0 1 7\n")  # dimension mismatch at line 2
    report = run_audit(fixture_config(embeddings=str(corrupt)))
    assert report.sections["embedding_bias"]["status"] == "failed"
    assert "line 2" in report.sections["embedding_bias"]["error"]
    for name, section in report.sections.items():
        if name == "embedding_bias":
            continue
        assert section == full_report.sections[name], name


def test_section_isolation_unreadable_identity_terms(full_report, module_chdir, tmp_path):
    missing = tmp_path / "no_such_identity_terms.txt"
    with pytest.raises(LexiconError) as raised:
        lexicon.load_identity_terms(missing)
    report = run_audit(fixture_config(identity_terms=str(missing)))
    assert report.sections["data_bias"] == {
        "status": "failed",
        "error": f"LexiconError: {raised.value}",
    }
    assert report.sections["subgroup_stats"]["status"] == "computed"
    for name, section in report.sections.items():
        if name != "data_bias":
            assert section == full_report.sections[name], name


LIVE_SECTIONS = (
    "performance", "subgroup_stats", "swap_favor", "counterfactual", "fairness_metrics",
    "explanations",
)

# A line-protocol model that logs one line per start and exits with status 3
# when it should fail; otherwise it scores like tests/stub_model.py.
FAILING_MODEL = """\
import json, sys
sys.path.insert(0, {tests_dir!r})
from stub_model import keyword_probability
texts = [json.loads(line) for line in sys.stdin if line.strip()]
with open({log!r}, "a") as log:
    log.write("attempt\\n")
if {fail_on!r} is None or {fail_on!r} in texts:
    sys.stderr.write("model down")
    sys.exit(3)
for text in texts:
    print(f"{{keyword_probability(text):.6f}}")
"""


def failing_model_config(tmp_path, fail_on, max_retries):
    """The fixture config over FAILING_MODEL; returns it and the attempt log."""
    log = tmp_path / "attempts.log"
    script = tmp_path / "failing_model.py"
    script.write_text(
        FAILING_MODEL.format(tests_dir=str(FIXTURES_DIR.parent), log=str(log), fail_on=fail_on)
    )
    adapter = json.loads((FIXTURES_DIR / "audit_config.json").read_text())["adapter"]
    adapter["location"] = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    adapter["max_retries"] = max_retries
    return fixture_config(adapter=adapter), log


def test_section_isolation_model_failing_one_counterfactual_text(
    full_report, module_chdir, tmp_path
):
    config, _ = failing_model_config(
        tmp_path, fail_on="Every Muslim neighbor deserves respect", max_retries=0
    )
    report = run_audit(config)
    section = report.sections["counterfactual"]
    assert section["status"] == "failed"
    assert section["error"].startswith("AdapterUnavailableError: batch failed after 1 attempt(s)")
    for name, section in report.sections.items():
        if name != "counterfactual":
            assert section == full_report.sections[name], name


def test_section_isolation_model_always_failing(full_report, module_chdir, tmp_path):
    config, log = failing_model_config(tmp_path, fail_on=None, max_retries=1)
    report = run_audit(config)
    error = (
        "AdapterUnavailableError: batch failed after 2 attempt(s): "
        "scoring command exited with 3: model down"
    )
    for name, section in report.sections.items():
        if name in LIVE_SECTIONS:
            assert section == {"status": "failed", "error": error}, name
        else:
            assert section == full_report.sections[name], name
    # Each live section fails on its first batch; at most one more failed
    # batch may come before them.
    attempts = len(log.read_text().splitlines())
    assert 2 * len(LIVE_SECTIONS) <= attempts <= 2 * (len(LIVE_SECTIONS) + 1)


def test_section_whose_planning_fails_sends_none_of_its_texts(module_chdir):
    config = fixture_config(
        sections=["explanations"],
        explanation={"mode": "local", "local_comment_ids": ["h01", "no-such-id"]},
    )
    adapter = CallableAdapter(keyword_probability)
    with mock.patch("textaudit.report.open_adapter", lambda adapter_config: adapter):
        report = run_audit(config)
    assert report.sections["explanations"] == {
        "status": "failed",
        "error": "AuditError: unknown comment id for local explanation: 'no-such-id'",
    }
    assert adapter.sent == []


def public_section_data(config, name, adapter, cache):
    """A live section's data from the public section functions, called one by one."""
    corpus = load_dataset(config.dataset_path, config.dataset_format)
    lexicon = default_lexicon()
    annotated = annotate_corpus(corpus, lexicon, default_gazetteer())
    if name in ("performance", "subgroup_stats", "fairness_metrics"):
        records = [
            PredictionRecord(c.id, p)
            for c, p in zip(corpus, predict_batch([c.text for c in corpus], adapter, cache))
        ]
    if name == "performance":
        return performance_report(corpus, records, config.threshold).to_dict()
    if name == "subgroup_stats":
        return {
            "per_attribute": [
                subgroup_probability_stats(annotated, records, a).to_dict()
                for a in config.attributes
            ]
        }
    if name == "fairness_metrics":
        spec = config.fairness
        return fairness_metrics(
            annotated, records, spec.attribute, spec.reference, spec.protected,
            threshold=config.threshold,
        ).to_dict()
    if name == "swap_favor":
        spec = config.swap
        table = aligned_swap_pairs(lexicon, spec.attribute, spec.sub_a, spec.sub_b)
        return swap_favor_analysis(
            annotated, adapter, table, spec.attribute, spec.sub_a, spec.sub_b,
            rounding_decimals=spec.rounding_decimals, cache=cache,
        ).to_dict()
    if name == "counterfactual":
        payload = []
        fills = config.counterfactual_fills
        for attribute in sorted(fills):
            cf = expand_templates(
                load_templates(config.templates_path), lexicon, attribute, fills[attribute]
            )
            probs = predict_batch([row.text for row in cf.rows], adapter, cache)
            payload.append({
                "attribute": attribute,
                "rows": [{**row.to_dict(), "p_hateful": p} for row, p in zip(cf.rows, probs)],
                "stats": [r.to_dict() for r in counterfactual_probability_stats(cf, probs)],
                "cb": [
                    counterfactual_bias(cf, probs, ref).to_dict()
                    for ref in sorted(fills[attribute])
                ],
            })
        return {"per_attribute": payload}
    spec = config.explanation
    ids = [c.id for c in corpus][: spec.max_local_comments]
    return {
        "mode": spec.mode,
        "local": [
            local_explain(
                corpus.get(cid), adapter, n_samples=spec.n_samples,
                kernel_width=spec.kernel_width, l2_lambda=spec.l2_lambda,
                rng_seed=config.rng_seed, cache=cache,
            ).to_dict()
            for cid in ids
        ],
        "global": global_importance(
            corpus, adapter, method=spec.method, m_permutations=spec.m_permutations,
            max_tokens_per_comment=spec.max_tokens_per_comment,
            rng_seed=config.rng_seed, cache=cache,
        ).to_dict(),
    }


@settings(max_examples=50, deadline=None)
@given(
    batch_size=st.integers(1, 64),
    sections=st.sets(st.sampled_from(LIVE_SECTIONS), min_size=1),
    rng_seed=st.integers(0, 2**32 - 1),
    method=st.sampled_from(["occlusion", "sampled_shapley"]),
    m_permutations=st.integers(1, 5),
)
def test_one_upfront_call_scores_every_distinct_text_once(
    module_chdir, batch_size, sections, rng_seed, method, m_permutations
):
    data = json.loads((FIXTURES_DIR / "audit_config.json").read_text())
    data["adapter"]["batch_size"] = batch_size
    data["explanation"].update(method=method, m_permutations=m_permutations)
    data.update(sections=sorted(sections), rng_seed=rng_seed)
    config = AuditConfig.from_dict(data)

    audited = CallableAdapter(keyword_probability, batch_size=batch_size)
    with mock.patch("textaudit.report.open_adapter", lambda adapter_config: audited):
        result = run_audit(config)

    reference = CallableAdapter(keyword_probability, batch_size=batch_size)
    cache = PredictionCache()
    for name in SECTIONS:
        if name in sections:
            expected = public_section_data(config, name, reference, cache)
            assert result.sections[name] == {"status": "computed", "data": expected}, name
    assert len(set(reference.sent)) == len(reference.sent)
    assert sorted(audited.sent) == sorted(reference.sent)
    assert audited.calls == math.ceil(len(audited.sent) / batch_size)


def test_word_resources_loaded_through_lexicon_module(module_chdir, monkeypatch):
    calls = []
    for name in lexicon.BUILTIN_FILES:
        for loader in (f"load_{name}", f"default_{name}"):
            original = getattr(lexicon, loader)
            monkeypatch.setattr(
                lexicon, loader, lambda *args, _f=original, _n=loader: calls.append(_n) or _f(*args)
            )
    config = fixture_config(sections=["data_bias", "embedding_bias", "counterfactual"])
    adapter = CallableAdapter(keyword_probability)
    with mock.patch("textaudit.report.open_adapter", lambda adapter_config: adapter):
        report = run_audit(config)
    assert all(section["status"] == "computed" for section in report.sections.values())
    assert sorted(calls) == [
        "default_gazetteer",
        "default_identity_terms",
        "default_lexicon",
        "default_neutral_words",
        "load_templates",
    ]


def test_input_hashes_match_files(full_report):
    by_name = {entry["name"]: entry for entry in full_report.inputs}
    dataset = by_name["dataset"]
    digest = hashlib.sha256((FIXTURES_DIR / "comments.csv").read_bytes()).hexdigest()
    assert dataset["sha256"] == digest
    assert by_name["lexicon"]["path"] == "builtin:default_lexicon.json"
    assert by_name["lexicon"]["sha256"]


def test_input_manifest_empty_path_is_built_in(module_chdir):
    report = run_audit(fixture_config(gazetteer="", embeddings="", sections=["data_bias"]))
    by_name = {entry["name"]: entry for entry in report.inputs}
    assert by_name["gazetteer"] == {
        "name": "gazetteer",
        "path": "builtin:default_gazetteer.json",
        "sha256": hashlib.sha256(lexicon.builtin_file("gazetteer").read_bytes()).hexdigest(),
    }
    assert "embeddings" not in by_name


def test_outputs_written_atomically(module_chdir, tmp_path):
    out = tmp_path / "out"
    config = fixture_config(output_dir=str(out))
    run_audit(config)
    assert sorted(path.name for path in out.iterdir()) == [
        "annotations.jsonl",
        "data_bias_identity_terms.csv",
        "data_bias_subgroup_references.csv",
        "embedding_bias.csv",
        "global_importance.csv",
        "report.json",
        "report.md",
    ]
    parsed = json.loads((out / "report.json").read_text())
    assert parsed["tool"] == "textaudit"


def test_config_echo_excludes_output_dir(module_chdir, tmp_path):
    report_a = run_audit(fixture_config(output_dir=str(tmp_path / "a")))
    report_b = run_audit(fixture_config(output_dir=str(tmp_path / "b")))
    assert render_report(report_a, "json") == render_report(report_b, "json")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_json_roundtrip(full_report):
    text = render_report(full_report, "json")
    parsed = json.loads(text)
    assert parsed["sections"]["performance"]["status"] == "computed"
    assert canonical_json(parsed) == text


def test_markdown_performance_table(full_report):
    text = render_report(full_report, "markdown")
    assert "| Precision | Recall | F1-Score | Support |" in text
    assert "| Not-hateful |" in text
    assert "| Hateful |" in text
    assert "Macro Avg." in text and "Weighted Avg." in text


def test_markdown_reports_skip_reason(module_chdir):
    report = run_audit(fixture_config(embeddings=None))
    text = render_report(report, "markdown")
    assert "_Skipped: no embedding file_" in text


def test_markdown_local_weights_rank_at_report_precision():
    # are, and, should are exchangeable: their fitted weights differ only in
    # the 16th digit, so they rank as equal and keep token order.
    weights = [
        ["men", -0.05],
        ["are", -1.202494170000002e-06],
        ["scum", 0.5],
        ["and", -1.202494170000001e-06],
        ["should", -1.202494170000004e-06],
        ["vanish", 0.2],
    ]
    item = {"comment_id": "h02", "surrogate_fit_r2": 1.0, "token_weights": weights}
    section = {"status": "computed", "data": {"local": [item]}}
    report = AuditReport(version="0", config={}, inputs=[], sections={"explanations": section})
    text = render_report(report, "markdown")
    assert (
        "- `h02` (R2 1.000): scum: +0.500, vanish: +0.200, men: -0.050, are: -0.000, and: -0.000"
        in text.splitlines()
    )


def test_markdown_stats_table_shape(full_report):
    text = render_report(full_report, "markdown")
    assert "| Actual Comment Type | Subgroup | Avg. Predicted Probability | N |" in text
    # Every row of every table has as many cells, split on unescaped pipes,
    # as its delimiter row; otherwise GitHub renders no table at all.
    blocks = groupby(text.splitlines(), lambda line: line.startswith("|"))
    tables = [list(lines) for is_table, lines in blocks if is_table]
    assert tables
    for header, delimiter, *rows in tables:
        assert set(delimiter) == {"|", "-"}
        for row in (header, *rows):
            assert len(re.split(r"(?<!\\)\|", row)) == len(delimiter.split("|")), row
