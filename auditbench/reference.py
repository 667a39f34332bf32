"""Expected audit outputs, and the check that compares an audit's outputs to them.

For the fixture config the expectation is the committed golden report. For
generated configs it is an in-process run of the same public section
functions, scored by ``keyword_probability`` with no transport in between.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from stub_model import keyword_probability  # noqa: E402

from textaudit.classbias import (  # noqa: E402
    counterfactual_bias,
    counterfactual_probability_stats,
    expand_templates,
    fairness_metrics,
    performance_report,
    subgroup_probability_stats,
    swap_favor_analysis,
)
from textaudit.corpus import load_dataset  # noqa: E402
from textaudit.databias import (  # noqa: E402
    frequency_table_csv,
    frequency_table_json,
    identity_term_frequencies,
    subgroup_reference_frequencies,
)
from textaudit.embedbias import embedding_bias, embedding_bias_csv, load_embeddings  # noqa: E402
from textaudit.explain import global_importance, local_explain  # noqa: E402
from textaudit.lexicon import (  # noqa: E402
    aligned_swap_pairs,
    default_gazetteer,
    default_identity_terms,
    default_lexicon,
    default_neutral_words,
    default_templates,
    load_templates,
)
from textaudit.mining import annotate_corpus, annotations_to_jsonl  # noqa: E402
from textaudit.modeliface import AdapterConfig, PredictionCache, PredictionRecord  # noqa: E402
from textaudit.report import SECTIONS, AuditConfig, canonical_json, estimate_emissions  # noqa: E402


class InProcessAdapter:
    """``keyword_probability`` behind the adapter interface, without transport."""

    def __init__(self, batch_size: int):
        self.config = AdapterConfig(
            kind="http", location="<in-process>", batch_size=batch_size, max_retries=0
        )

    def score_batch(self, texts):
        return [keyword_probability(t) for t in texts]


def reference_outputs(config: AuditConfig) -> tuple[dict, dict[str, str], float]:
    """Expected report sections, expected side files by name, and the share of
    comments with at least one subgroup reference.

    Covers what the benchmark's configs use: built-in lexicon, gazetteer,
    identity terms and neutral words, and every section requested.
    """
    corpus = load_dataset(config.dataset_path, config.dataset_format)
    lexicon = default_lexicon()
    annotated = annotate_corpus(corpus, lexicon, default_gazetteer())
    live = config.adapter.is_live
    adapter = InProcessAdapter(config.adapter.batch_size)
    cache = PredictionCache()
    records = [PredictionRecord(c.id, keyword_probability(c.text)) for c in corpus]
    files = {"annotations.jsonl": annotations_to_jsonl(annotated)}

    def data_bias():
        identity_rows = identity_term_frequencies(corpus, default_identity_terms())
        subgroup_rows = subgroup_reference_frequencies(annotated)
        files["data_bias_identity_terms.csv"] = frequency_table_csv(identity_rows)
        files["data_bias_subgroup_references.csv"] = frequency_table_csv(subgroup_rows)
        return {
            "identity_terms": frequency_table_json(identity_rows),
            "subgroup_references": frequency_table_json(subgroup_rows),
        }

    def embedding():
        table = load_embeddings(config.embeddings_path)
        results = [
            embedding_bias(default_neutral_words(), lexicon, attribute, table)
            for attribute in config.attributes
        ]
        files["embedding_bias.csv"] = embedding_bias_csv(results)
        return {"results": [r.to_dict() for r in results]}

    def swap():
        spec = config.swap
        table = aligned_swap_pairs(lexicon, spec.attribute, spec.sub_a, spec.sub_b)
        return swap_favor_analysis(
            annotated, adapter, table, spec.attribute, spec.sub_a, spec.sub_b,
            rounding_decimals=spec.rounding_decimals, cache=cache,
        ).to_dict()

    def counterfactual():
        path = config.templates_path
        templates = load_templates(path) if path else default_templates()
        payload = []
        fills = config.counterfactual_fills
        for attribute in sorted(fills):
            cf = expand_templates(templates, lexicon, attribute, fills[attribute])
            probs = [keyword_probability(row.text) for row in cf.rows]
            payload.append({
                "attribute": attribute,
                "rows": [{**row.to_dict(), "p_hateful": p} for row, p in zip(cf.rows, probs)],
                "stats": [row.to_dict() for row in counterfactual_probability_stats(cf, probs)],
                "cb": [
                    counterfactual_bias(cf, probs, ref).to_dict()
                    for ref in sorted(fills[attribute])
                ],
            })
        return {"per_attribute": payload}

    def explanations():
        spec = config.explanation
        payload = {"mode": spec.mode}
        if spec.mode in ("local", "both"):
            ids = list(spec.local_comment_ids) or [c.id for c in corpus][: spec.max_local_comments]
            payload["local"] = [
                local_explain(
                    corpus.get(cid), adapter, n_samples=spec.n_samples,
                    kernel_width=spec.kernel_width, l2_lambda=spec.l2_lambda,
                    rng_seed=config.rng_seed, cache=cache,
                ).to_dict()
                for cid in ids
            ]
        if spec.mode in ("global", "both"):
            importance = global_importance(
                corpus, adapter, method=spec.method, m_permutations=spec.m_permutations,
                max_tokens_per_comment=spec.max_tokens_per_comment,
                rng_seed=config.rng_seed, cache=cache,
            )
            files["global_importance.csv"] = importance.to_csv()
            payload["global"] = importance.to_dict()
        return payload

    spec = config.emissions
    section_makers = {
        "performance": lambda: performance_report(corpus, records, config.threshold).to_dict(),
        "data_bias": data_bias,
        "embedding_bias": embedding if config.embeddings_path else None,
        "subgroup_stats": lambda: {
            "per_attribute": [
                subgroup_probability_stats(annotated, records, a).to_dict()
                for a in config.attributes
            ]
        },
        "swap_favor": swap if live else None,
        "counterfactual": counterfactual if live else None,
        "fairness_metrics": lambda: fairness_metrics(
            annotated, records, config.fairness.attribute, config.fairness.reference,
            config.fairness.protected, threshold=config.threshold,
        ).to_dict(),
        "explanations": explanations if live else None,
        "emissions": lambda: estimate_emissions(
            spec.power_draw_kw, spec.hours, spec.pue, spec.carbon_intensity_kg_per_kwh
        ).to_dict(),
    }
    sections = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in SECTIONS:
            if name in config.sections:
                build = section_makers[name]
                sections[name] = (
                    {"status": "skipped"} if build is None
                    else {"status": "computed", "data": build()}
                )
    sections = json.loads(canonical_json(sections))
    return sections, files, len(annotated.annotations) / len(corpus)


def _first_difference(expected, actual, path: str = "") -> str | None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{path}/{key}: present on one side only"
            found = _first_difference(expected[key], actual[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(actual)}, expected {len(expected)}"
        for index, (e, a) in enumerate(zip(expected, actual)):
            found = _first_difference(e, a, f"{path}[{index}]")
            if found:
                return found
        return None
    return None if expected == actual else f"{path}: {actual!r}, expected {expected!r}"


def check_against_golden(out_dir: Path, golden: dict, location: str) -> str | None:
    """Difference between report.json and the golden, ignoring only the adapter command."""
    expected = json.loads(json.dumps(golden))
    expected["config"]["adapter"]["location"] = location
    return _first_difference(expected, _read_report(out_dir))


def check_against_reference(out_dir: Path, sections: dict, files: dict[str, str]) -> str | None:
    """Difference between the audit's sections and side files and the reference."""
    actual = _read_report(out_dir)["sections"]
    for name, section in actual.items():
        if section.get("status") == "skipped":
            actual[name] = {"status": "skipped"}
    found = _first_difference(sections, actual, "/sections")
    if found:
        return found
    for name, text in files.items():
        path = out_dir / name
        if not path.exists() or path.read_text(encoding="utf-8") != text:
            return f"{name} differs from the reference"
    return None


def _read_report(out_dir: Path) -> dict:
    return json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
