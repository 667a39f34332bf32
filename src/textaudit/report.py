"""Audit orchestration: configuration, the full audit run, report rendering.

A single JSON config document drives the whole audit; every section runs in
isolation and records a computed / skipped(reason) / failed(error) status,
so one broken axis never hides the others. Each section returns either its
data or one :class:`~textaudit.modeliface.ScoringPlan` whose finish returns
that data; a section that needs the model returns a plan, and planning
calls no model. The run scores the texts of every returned plan in one
batched call, so batches fill across sections, and then finishes each plan
from the cache. If that call fails, each plan scores what is still missing
on its own, exactly as without it; a section whose planning raised sends
none of its texts. Reports render to canonical JSON (sorted keys, 6
significant digits) so identical config + seed + inputs yield byte-identical
files, and to markdown for humans. The report carries a content hash for
every input so the audit is self-contained evidence.
"""

import functools
import hashlib
import json
import math
import os
import types
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

from . import __version__, errors, lexicon
from .classbias import (
    CounterfactualCorpus,
    counterfactual_bias,
    counterfactual_probability_stats,
    expand_templates,
    fairness_metrics,
    performance_report,
    plan_swap_favor,
    subgroup_probability_stats,
)
from .corpus import load_dataset
from .databias import (
    frequency_table_csv,
    identity_term_frequencies,
    subgroup_reference_frequencies,
)
from .embedbias import embedding_bias, embedding_bias_csv, load_embeddings
from .errors import AdapterError, AuditError, ConfigError
from .lexicon import aligned_swap_pairs
from .mining import annotate_corpus, annotations_to_jsonl
from .modeliface import (
    AdapterConfig,
    PredictionCache,
    PredictionRecord,
    ScoringPlan,
    gather,
    load_predictions,
    open_adapter,
    predict_batch,
)
from .record import checked, plain

SECTIONS = (
    "performance",
    "data_bias",
    "embedding_bias",
    "subgroup_stats",
    "swap_favor",
    "counterfactual",
    "fairness_metrics",
    "explanations",
    "emissions",
)

DEFAULT_COUNTERFACTUAL_FILLS = {
    "religion": {"islam": ["Muslim"], "christianity": ["Christian"]},
    "gender": {"male": ["man"], "female": ["woman"]},
}


# ---------------------------------------------------------------------------
# Emissions estimate
# ---------------------------------------------------------------------------

class EmissionsEstimate(NamedTuple):
    power_draw_kw: float
    hours: float
    pue: float
    carbon_intensity_kg_per_kwh: float
    co2eq_kg: float

    to_dict = plain


def estimate_emissions(
    power_draw_kw: float, hours: float, pue: float, carbon_intensity_kg_per_kwh: float
) -> EmissionsEstimate:
    """Closed-form training emissions: power x time x PUE x grid intensity."""
    for name, value in (
        ("power_draw_kw", power_draw_kw),
        ("hours", hours),
        ("pue", pue),
        ("carbon_intensity_kg_per_kwh", carbon_intensity_kg_per_kwh),
    ):
        if value < 0:
            raise AuditError(f"{name} must be >= 0, got {value}")
    co2eq_kg = power_draw_kw * hours * pue * carbon_intensity_kg_per_kwh
    # finite factors can still overflow; the report holds finite numbers only
    if not math.isfinite(co2eq_kg):
        raise AuditError(f"co2eq_kg is not finite: {co2eq_kg}")
    return EmissionsEstimate(
        power_draw_kw=power_draw_kw,
        hours=hours,
        pue=pue,
        carbon_intensity_kg_per_kwh=carbon_intensity_kg_per_kwh,
        co2eq_kg=co2eq_kg,
    )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _check_keys(obj: dict, allowed, context: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {sorted(unknown)}")


@checked
class SwapSpec(NamedTuple):
    attribute: str = "gender"
    sub_a: str = "male"
    sub_b: str = "female"
    rounding_decimals: int = 4

    def _check(self):
        if self.rounding_decimals < 0:
            raise ConfigError(f"swap.rounding_decimals must be >= 0, got {self.rounding_decimals}")


class FairnessSpec(NamedTuple):
    attribute: str = "gender"
    reference: str = "male"
    protected: str = "female"


@checked
class ExplanationSpec(NamedTuple):
    mode: str = "both"  # local | global | both
    n_samples: int | None = None  # None: max(512, 8 x unique tokens)
    kernel_width: float = 0.75
    l2_lambda: float = 1e-3
    method: str = "occlusion"  # occlusion | sampled_shapley
    m_permutations: int = 200
    max_tokens_per_comment: int = 12
    local_comment_ids: tuple[str, ...] = ()
    max_local_comments: int = 2

    def _check(self):
        if self.mode not in ("local", "global", "both"):
            raise ConfigError(f"explanation.mode must be local, global or both, got {self.mode!r}")
        if self.method not in ("occlusion", "sampled_shapley"):
            raise ConfigError(
                f"explanation.method must be occlusion or sampled_shapley, got {self.method!r}"
            )
        if self.m_permutations < 1:
            raise ConfigError("explanation.m_permutations must be positive")
        # the kernel divides by kernel_width; a negative cap would slice from the end
        if not self.kernel_width > 0:
            raise ConfigError(f"explanation.kernel_width must be > 0, got {self.kernel_width}")
        for name in ("l2_lambda", "max_tokens_per_comment", "max_local_comments"):
            if getattr(self, name) < 0:
                raise ConfigError(f"explanation.{name} must be >= 0, got {getattr(self, name)}")


class EmissionsSpec(NamedTuple):
    power_draw_kw: float = 0.0
    hours: float = 0.0
    pue: float = 1.0
    carbon_intensity_kg_per_kwh: float = 0.0


@checked
class AuditConfig(NamedTuple):
    """One self-describing document configuring the whole audit."""

    dataset_path: str | None = None
    dataset_format: str = "csv"
    lexicon_path: str | None = None
    gazetteer_path: str | None = None
    neutral_words_path: str | None = None
    identity_terms_path: str | None = None
    templates_path: str | None = None
    embeddings_path: str | None = None
    adapter: AdapterConfig | None = None
    threshold: float = 0.5
    attributes: tuple[str, ...] = ("gender", "religion")
    swap: SwapSpec = SwapSpec()
    fairness: FairnessSpec = FairnessSpec()
    counterfactual_fills: dict[str, dict[str, list[str]]] = DEFAULT_COUNTERFACTUAL_FILLS
    explanation: ExplanationSpec = ExplanationSpec()
    emissions: EmissionsSpec = EmissionsSpec()
    rng_seed: int = 0
    sections: tuple[str, ...] = SECTIONS
    output_dir: str | None = None

    def _check(self):
        if self.dataset_format not in ("csv", "jsonl"):
            raise ConfigError(f"unknown dataset format {self.dataset_format!r}")
        for name in self.sections:
            if name not in SECTIONS:
                raise ConfigError(f"unknown section {name!r} (expected one of {SECTIONS})")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie strictly between 0 and 1, got {self.threshold}")
        # A flag's undecodable bytes arrive as lone surrogates, which the echo could not write.
        try:
            json.dumps(self.to_dict(), ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ConfigError(f"config: not valid Unicode ({exc.reason})") from exc

    @classmethod
    def from_dict(cls, obj: dict) -> "AuditConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        rest = dict(obj)
        dataset = rest.pop("dataset", None)
        if dataset is None or isinstance(dataset, str):
            dataset = {} if dataset is None else {"path": dataset}
        elif not isinstance(dataset, dict):
            raise ConfigError("config.dataset must be a path or {path, format}")
        _check_keys(dataset, ("path", "format"), "config.dataset")
        return _load(cls, rest, "config", {f"dataset.{k}": v for k, v in dataset.items()})

    def to_dict(self) -> dict:
        """Config echo embedded in the report; omits the output location."""
        echo: dict = {}
        for name, value in zip(self._fields, self):
            set_path(echo, _JSON_KEYS.get(name, name), plain(value))
        del echo["output_dir"]
        return echo


# JSON keys of the AuditConfig fields not named by their field. A dotted key
# sits inside another: "dataset" is a path, or {path, format}.
_JSON_KEYS = {
    "dataset_path": "dataset.path",
    "dataset_format": "dataset.format",
    "lexicon_path": "lexicon",
    "gazetteer_path": "gazetteer",
    "neutral_words_path": "neutral_words",
    "identity_terms_path": "identity_terms",
    "templates_path": "templates",
    "embeddings_path": "embeddings",
}

_KINDS = {str: "a string", int: "an integer", float: "a number", list: "a list", tuple: "a list"}


_field_types = functools.cache(get_type_hints)  # resolved once per config record class


def _load(cls, obj: dict, context: str, nested: dict | None = None):
    """Record ``cls`` from JSON object ``obj``, every value checked against its field's type.

    ``nested`` holds the values of fields whose dotted key sits inside
    another key, which the caller has read. Null for an object-valued key
    means its default.
    """
    keys = {_JSON_KEYS.get(name, name): name for name in cls._fields}
    _check_keys(obj, [key for key in keys if "." not in key], context)
    hints = _field_types(cls)
    values = {}
    for key, value in [*obj.items(), *(nested or {}).items()]:
        name = keys[key]
        if value is None and (get_origin(hints[name]) is dict or hasattr(hints[name], "_fields")):
            continue  # an object-valued key: null means its default
        # AdapterConfig checks its own values, because code builds it too
        values[name] = value if cls is AdapterConfig else _typed(value, hints[name], f"{context}.{key}")
    missing = [key for key, name in keys.items() if name not in values and name not in cls._field_defaults]
    if missing:
        raise ConfigError(f"{context}: missing key(s) {missing}")
    try:
        return cls(**values)
    except (AdapterError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _typed(value, hint, where: str):
    """``value`` if it has type ``hint``, with JSON arrays as tuples where ``hint`` says so.

    Integers are accepted, and kept, where a float is wanted; NaN and
    infinities are not numbers here, nor are booleans; null is a value only
    for ``X | None``.
    """
    if isinstance(hint, types.UnionType):
        if value is None:
            return None
        hint = get_args(hint)[0]
    kind, args = get_origin(hint) or hint, get_args(hint)
    if kind is dict or hasattr(kind, "_fields"):
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object")
        if kind is dict:
            return {k: _typed(v, args[1], f"{where}.{k}") for k, v in value.items()}
        return _load(kind, value, where)
    if kind in (list, tuple):
        if isinstance(value, list):
            return kind(_typed(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    elif isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool):
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        return value
    raise ConfigError(f"{where} must be {_KINDS[kind]}, got {value!r}")


def set_path(data: dict, dotted: str, value) -> None:
    """``data[a][b] = value`` for key ``"a.b"``, making inner objects (over any non-object)."""
    *outer, last = dotted.split(".")
    for key in outer:
        if not isinstance(data.get(key), dict):
            data[key] = {}
        data = data[key]
    data[last] = value


def read_json(path: str | Path) -> dict:
    """The JSON object in config file ``path``."""
    obj = errors.read_json(path, ConfigError, "config")
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    return obj


def load_config(path: str | Path) -> AuditConfig:
    return AuditConfig.from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Canonical rendering
# ---------------------------------------------------------------------------

def _canonical(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            raise ValueError("non-finite float in report")
        if value == 0:
            return 0.0
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)) and not hasattr(value, "_asdict"):  # a record goes through plain
        return [_canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def canonical_json(obj) -> str:
    """Sorted keys, floats at 6 significant digits: byte-stable across runs."""
    return json.dumps(_canonical(obj), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _sha256_file(path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# The audit run
# ---------------------------------------------------------------------------

class AuditReport(NamedTuple):
    version: str
    config: dict
    inputs: list[dict]
    sections: dict[str, dict]
    tool: str = "textaudit"

    to_dict = plain

    @property
    def any_failed(self) -> bool:
        return any(s.get("status") == "failed" for s in self.sections.values())


class _Skip(Exception):
    """Raised inside a section to record a skipped(reason) status."""


def _attempt(step, *args):
    """``step(*args)``, or the exception it raised (section isolation: never abort the run)."""
    try:
        return step(*args)
    except Exception as exc:
        return exc


class _AuditRun:
    def __init__(self, config: AuditConfig):
        self.config = config
        self.cache = PredictionCache()
        # side file name -> its renderer, registered by the code that computed its data
        self.files: dict[str, Callable[[], str]] = {}
        needs_corpus = any(s != "emissions" for s in config.sections)
        if needs_corpus and not config.dataset_path:
            raise ConfigError("config.dataset is required for the requested sections")
        try:
            self.corpus = (
                load_dataset(config.dataset_path, config.dataset_format)
                if needs_corpus
                else None
            )
        except AuditError as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        try:
            self.lexicon = self.resource("lexicon")
            self.gazetteer = self.resource("gazetteer")
        except AuditError as exc:
            raise ConfigError(str(exc)) from exc
        live = config.adapter is not None and config.adapter.is_live
        try:
            self.adapter = open_adapter(config.adapter) if live else None
        except AdapterError as exc:
            raise ConfigError(f"adapter: {exc}") from exc

    # -- shared lazy resources ------------------------------------------------

    def resource(self, name: str):
        """Word resource ``name``, read from ``config.<name>_path`` or the built-in file.

        The loader is looked up in :mod:`textaudit.lexicon` on every call, so
        a loader replaced there, as a tracer or a test may do, is the one called.
        """
        path = getattr(self.config, f"{name}_path")
        if path:
            return getattr(lexicon, f"load_{name}")(path)
        return getattr(lexicon, f"default_{name}")()

    @functools.cached_property
    def identity_terms(self):
        """The identity-term list, or the error loading it raised, which fails data_bias only."""
        return _attempt(self.resource, "identity_terms")

    @functools.cached_property
    def annotated(self):
        terms = self.identity_terms if "data_bias" in self.config.sections else None
        if isinstance(terms, Exception):
            terms = None
        annotated = annotate_corpus(self.corpus, self.lexicon, self.gazetteer, terms)
        self.files["annotations.jsonl"] = functools.partial(annotations_to_jsonl, annotated)
        return annotated

    @functools.cached_property
    def file_records(self) -> list[PredictionRecord]:
        return load_predictions(self.config.adapter.location, self.corpus)

    def from_records(self, compute: Callable[[list[PredictionRecord]], object]):
        """``compute`` over one probability per comment: from the predictions file, or planned."""
        if self.config.adapter is None:
            raise _Skip("no adapter or predictions file configured")
        if self.adapter is None:
            return compute(self.file_records)
        corpus = self.corpus
        return ScoringPlan(
            [c.text for c in corpus],
            lambda probs: compute(
                [PredictionRecord(comment_id=c.id, p_hateful=p) for c, p in zip(corpus, probs)]
            ),
        )

    def require_live(self) -> None:
        if self.adapter is None:
            raise _Skip("live adapter required (subprocess or http)")

    # -- sections: each returns its data, or one plan whose finish returns it ---

    def section_performance(self):
        return self.from_records(
            lambda records: performance_report(self.corpus, records, self.config.threshold)
        )

    def section_data_bias(self) -> dict:
        terms = self.identity_terms
        if isinstance(terms, Exception):
            raise terms
        data = {
            "identity_terms": identity_term_frequencies(self.annotated, terms),
            "subgroup_references": subgroup_reference_frequencies(self.annotated),
        }
        for key, rows in data.items():
            self.files[f"data_bias_{key}.csv"] = functools.partial(frequency_table_csv, rows)
        return data

    def section_embedding_bias(self) -> dict:
        if not self.config.embeddings_path:
            raise _Skip("no embedding file")
        table = load_embeddings(self.config.embeddings_path)
        neutrals = self.resource("neutral_words")
        results = [
            embedding_bias(neutrals, self.lexicon, attribute, table)
            for attribute in self.config.attributes
        ]
        self.files["embedding_bias.csv"] = functools.partial(embedding_bias_csv, results)
        return {"results": results}

    def check_known(self, attribute: str, *subgroups: str) -> None:
        """Fail unless the lexicon or the gazetteer names ``attribute`` and each of ``subgroups``."""
        known = {(a, s) for a, names in self.lexicon.attributes.items() for s in names}
        known.update(self.gazetteer.values())
        if attribute not in {a for a, _ in known}:
            raise AuditError(f"unknown attribute {attribute!r}")
        for subgroup in subgroups:
            if (attribute, subgroup) not in known:
                raise AuditError(f"unknown subgroup {attribute}.{subgroup}")

    def section_subgroup_stats(self):
        for attribute in self.config.attributes:
            self.check_known(attribute)
        return self.from_records(lambda records: {
            "per_attribute": [
                subgroup_probability_stats(self.annotated, records, attribute)
                for attribute in self.config.attributes
            ]
        })

    def section_swap_favor(self) -> ScoringPlan:
        self.require_live()
        spec = self.config.swap
        table = aligned_swap_pairs(self.lexicon, spec.attribute, spec.sub_a, spec.sub_b)
        return plan_swap_favor(self.annotated, table, **spec._asdict())

    def section_counterfactual(self) -> ScoringPlan:
        self.require_live()
        fills = self.config.counterfactual_fills
        if not fills:
            raise _Skip("no counterfactual fills configured")
        templates = self.resource("templates")
        plans = []
        for attribute in sorted(fills):
            corpus = expand_templates(templates, self.lexicon, attribute, fills[attribute])
            plans.append(ScoringPlan(
                [row.text for row in corpus.rows],
                functools.partial(
                    _counterfactual_payload, attribute, corpus, sorted(fills[attribute])
                ),
            ))
        return gather(plans, lambda payloads: {"per_attribute": payloads})

    def section_fairness_metrics(self):
        spec = self.config.fairness
        self.check_known(spec.attribute, spec.reference, spec.protected)
        return self.from_records(lambda records: fairness_metrics(
            self.annotated,
            records,
            **self.config.fairness._asdict(),
            threshold=self.config.threshold,
        ))

    def section_explanations(self) -> ScoringPlan:
        self.require_live()
        # Imported here, so an audit with no live adapter never loads the explainers.
        from .explain import plan_global_importance, plan_local_explain

        spec = self.config.explanation
        plans = []
        if spec.mode in ("local", "both"):
            ids = spec.local_comment_ids or [c.id for c in self.corpus][: spec.max_local_comments]
            for comment_id in ids:
                if comment_id not in self.corpus:
                    raise AuditError(f"unknown comment id for local explanation: {comment_id!r}")
                plans.append(plan_local_explain(
                    self.corpus.get(comment_id),
                    n_samples=spec.n_samples,
                    kernel_width=spec.kernel_width,
                    l2_lambda=spec.l2_lambda,
                    rng_seed=self.config.rng_seed,
                ))
        if spec.mode in ("global", "both"):
            plans.append(plan_global_importance(
                self.corpus,
                method=spec.method,
                m_permutations=spec.m_permutations,
                max_tokens_per_comment=spec.max_tokens_per_comment,
                rng_seed=self.config.rng_seed,
            ))

        def finish(results: list) -> dict:
            payload: dict = {"mode": spec.mode}
            if spec.mode in ("global", "both"):
                payload["global"] = importance = results.pop()
                self.files["global_importance.csv"] = importance.to_csv
            if spec.mode in ("local", "both"):
                payload["local"] = results
            return payload

        return gather(plans, finish)

    def section_emissions(self) -> EmissionsEstimate:
        return estimate_emissions(**self.config.emissions._asdict())

    # -- assembly ---------------------------------------------------------------

    def input_manifest(self) -> list[dict]:
        """Path and content hash of every input file; a word resource with no path is built in.

        An empty path counts as none, as in :meth:`resource` and the embedding section.
        """
        config = self.config
        paths = {
            name: getattr(config, f"{name}_path")
            for name in ("dataset", *lexicon.BUILTIN_FILES, "embeddings")
        }
        if config.adapter is not None and config.adapter.kind == "predictions_file":
            paths["predictions"] = config.adapter.location
        entries = []
        for name, path in paths.items():
            if path:
                entries.append({"name": name, "path": path, "sha256": _sha256_file(Path(path))})
            elif name in lexicon.BUILTIN_FILES:
                entries.append({
                    "name": name,
                    "path": f"builtin:{lexicon.BUILTIN_FILES[name]}",
                    "sha256": _sha256_file(lexicon.builtin_file(name)),
                })
        return entries

    def run(self) -> AuditReport:
        """Call every requested section, score every plan's texts in one call, then finish.

        One :func:`predict_batch` over every plan's texts, in ``SECTIONS``
        order, fills every batch but the last. If it fails, what it scored
        stays cached and each plan scores the rest itself.
        """
        results = {
            name: _attempt(getattr(self, f"section_{name}"))
            for name in SECTIONS
            if name in self.config.sections
        }
        plans = [result for result in results.values() if isinstance(result, ScoringPlan)]
        if plans:
            try:
                predict_batch(
                    [text for plan in plans for text in plan.texts], self.adapter, self.cache
                )
            except Exception:  # reported by the plans, which ask again
                pass
        sections: dict[str, dict] = {}
        for name, result in results.items():
            if isinstance(result, ScoringPlan):
                result = _attempt(result.run, self.adapter, self.cache)
            if isinstance(result, _Skip):
                sections[name] = {"status": "skipped", "reason": str(result)}
            elif isinstance(result, Exception):
                sections[name] = {"status": "failed", "error": f"{type(result).__name__}: {result}"}
            else:
                sections[name] = {"status": "computed", "data": plain(result)}
        return AuditReport(
            version=__version__,
            config=self.config.to_dict(),
            inputs=self.input_manifest(),
            sections=sections,
        )

    def write_outputs(self, report: AuditReport, out_dir: str | Path) -> None:
        out = Path(out_dir)
        _atomic_write(out / "report.json", render_report(report, "json"))
        _atomic_write(out / "report.md", render_report(report, "markdown"))
        for name, render in self.files.items():
            _atomic_write(out / name, render())


def _counterfactual_payload(
    attribute: str, corpus: CounterfactualCorpus, references: list[str], probs: list[float]
) -> dict:
    return {
        "attribute": attribute,
        "rows": [{**row._asdict(), "p_hateful": p} for row, p in zip(corpus.rows, probs)],
        "stats": counterfactual_probability_stats(corpus, probs),
        "cb": [counterfactual_bias(corpus, probs, reference) for reference in references],
    }


def run_audit(config: AuditConfig) -> AuditReport:
    """Execute every requested section and (if configured) write the outputs.

    Each section returns its data or one scoring plan. Every plan's texts
    are scored in one shared call, then each plan is finished, so each
    distinct text goes to the model once. Only configuration problems
    raise; anything that goes wrong inside a section, in its planning, its
    scoring or its finish, is captured as that section's failed(error)
    status. The run's adapter is opened once and closed after the last
    section, whatever happened in it. Output files are written atomically
    into ``config.output_dir``.
    """
    run = _AuditRun(config)
    try:
        report = run.run()
    finally:
        if run.adapter is not None:
            run.adapter.close()
    if config.output_dir:
        run.write_outputs(report, config.output_dir)
    return report


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------

def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """GitHub-flavoured markdown table; a ``|`` inside a cell is escaped so it splits no cell."""

    def line(cells: list[str]) -> str:
        return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"

    return [line(headers), "|" + "---|" * len(headers), *map(line, rows)]


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _pct(value) -> str:
    return "n/a" if value is None else f"{100.0 * value:.1f}%"


def _md_performance(data: dict) -> list[str]:
    named = [(name.capitalize(), m) for name, m in data["per_class"].items()]
    named += [("Macro Avg.", data["macro"]), ("Weighted Avg.", data["weighted"])]
    rows = [
        [name, _fmt(m["precision"], 2), _fmt(m["recall"], 2), _fmt(m["f1"], 2), str(m["support"])]
        for name, m in named
    ]
    lines = _md_table(["", "Precision", "Recall", "F1-Score", "Support"], rows)
    lines.append("")
    lines.append(f"Accuracy: {data['accuracy']:.2f} at threshold {data['threshold']:.2f}.")
    if data["zero_division_flags"]:
        lines.append(f"Zero-denominator metrics reported as 0: {', '.join(data['zero_division_flags'])}.")
    return lines


def _md_frequency_table(rows: list[dict], key_header: str) -> list[str]:
    return _md_table(
        [key_header, "Hateful %", "Not-hateful %", "Overall %"],
        [
            [r["key"], _fmt(r["hateful_pct"]), _fmt(r["nothateful_pct"]), _fmt(r["overall_pct"])]
            for r in rows
        ],
    )


def _md_data_bias(data: dict) -> list[str]:
    lines = ["### Identity term frequency", ""]
    lines += _md_frequency_table(data["identity_terms"], "Term")
    lines += ["", "### Protected attribute reference frequency", ""]
    if data["subgroup_references"]:
        lines += _md_frequency_table(data["subgroup_references"], "Attribute/Subgroup")
    else:
        lines.append("No subgroup references found.")
    return lines


def _md_embedding_bias(data: dict) -> list[str]:
    lines = []
    for result in data["results"]:
        lines.append(f"### {result['attribute']}")
        lines.append("")
        lines += _md_table(
            ["Subgroup A", "Subgroup B", "MAE", "RMSE"],
            [
                [p["subgroup_a"], p["subgroup_b"], _fmt(p["mae"]), _fmt(p["rmse"])]
                for p in result["pairwise"]
            ],
        )
        lines.append("")
        lines.append(f"AMAE = {_fmt(result['amae'])}, ARMSE = {_fmt(result['armse'])}.")
        if result["skipped_terms"]:
            lines.append(f"Skipped terms (OOV or multi-token): {len(result['skipped_terms'])}.")
        lines.append("")
    return lines


def _md_stats_rows(rows: list[dict]) -> list[str]:
    return _md_table(
        ["Actual Comment Type", "Subgroup", "Avg. Predicted Probability", "N"],
        [
            [r["actual"].capitalize(), r["subgroup"].capitalize(), _pct(r["mean_p_hateful"]), str(r["n"])]
            for r in rows
        ],
    )


def _md_subgroup_stats(data: dict) -> list[str]:
    lines = []
    for block in data["per_attribute"]:
        lines.append(f"### {block['attribute']}")
        lines.append("")
        lines += _md_stats_rows(block["rows"])
        lines.append("")
    return lines


def _md_swap_favor(data: dict) -> list[str]:
    lines = _md_table(
        ["Outcome", "Fraction"],
        [
            [f"favors {data['sub_a']}", _fmt(data["fraction_favor_a"])],
            [f"favors {data['sub_b']}", _fmt(data["fraction_favor_b"])],
            ["no change", _fmt(data["fraction_no_change"])],
        ],
    )
    lines.append("")
    lines.append(
        f"{data['n_swapped']} comments swapped on attribute {data['attribute']} "
        f"({data['sub_a']} vs {data['sub_b']}), probabilities rounded to "
        f"{data['rounding_decimals']} decimal places."
    )
    return lines


def _md_counterfactual(data: dict) -> list[str]:
    lines = []
    for block in data["per_attribute"]:
        lines.append(f"### {block['attribute']}")
        lines.append("")
        lines += _md_stats_rows(block["stats"])
        lines.append("")
        lines += _md_table(
            ["Reference Subgroup", "CB total", "CB mean", "Groups"],
            [
                [cb["reference"], f"{cb['cb_total']:.4f}", f"{cb['cb_mean']:.4f}", str(cb["n_examples"])]
                for cb in block["cb"]
            ],
        )
        lines.append("")
        lines.append("Positive CB favors the reference subgroup.")
        lines.append("")
    return lines


def _md_fairness(data: dict) -> list[str]:
    rows = []
    for name, value in data["values"].items():
        note = data["not_computable"].get(name, "")
        rows.append([name, _fmt(value), note])
    lines = _md_table(["Metric", "Reference - Protected", "Notes"], rows)
    lines.append("")
    lines.append(
        f"Attribute {data['attribute']}: reference {data['reference']}, protected "
        f"{data['protected']}, threshold {data['threshold']:.2f}."
    )
    return lines


def _md_explanations(data: dict) -> list[str]:
    lines = []
    if "global" in data:
        lines.append(f"### Global token importance ({data['global']['method']})")
        lines.append("")
        top = data["global"]["rows"][:15]
        lines += _md_table(
            ["Token", "Mean effect", "Mean |effect|", "Support"],
            [
                [r["token"], _fmt(r["mean_effect"]), _fmt(r["mean_abs_effect"]), str(r["support"])]
                for r in top
            ],
        )
        lines.append("")
    if "local" in data:
        lines.append("### Local explanations")
        lines.append("")
        for item in data["local"]:
            # Rank by the magnitude the report shows, so weights that differ
            # only in floating-point noise keep token order.
            weights = sorted(
                item["token_weights"], key=lambda tw: -abs(_canonical(tw[1]))
            )[:5]
            rendered = ", ".join(f"{t}: {w:+.3f}" for t, w in weights)
            lines.append(
                f"- `{item['comment_id']}` (R2 {item['surrogate_fit_r2']:.3f}): {rendered}"
            )
        lines.append("")
    return lines


def _md_emissions(data: dict) -> list[str]:
    return [
        f"{data['power_draw_kw']} kW x {data['hours']} h x PUE {data['pue']} x "
        f"{data['carbon_intensity_kg_per_kwh']} kgCO2eq/kWh = "
        f"**{data['co2eq_kg']:.4f} kg CO2eq**."
    ]


# Each section's markdown heading and the renderer of its data.
_MARKDOWN = {
    "performance": ("Technical Performance", _md_performance),
    "data_bias": ("Data Bias", _md_data_bias),
    "embedding_bias": ("Embedding Bias", _md_embedding_bias),
    "subgroup_stats": ("Subgroup Probability Statistics", _md_subgroup_stats),
    "swap_favor": ("Swapped-Identity Favor Analysis", _md_swap_favor),
    "counterfactual": ("Counterfactual Assessment", _md_counterfactual),
    "fairness_metrics": ("Classification Fairness Metrics", _md_fairness),
    "explanations": ("Explanations", _md_explanations),
    "emissions": ("Training Emissions Estimate", _md_emissions),
}


def render_report(report: AuditReport, format: str = "json") -> str:
    if format == "json":
        return canonical_json(report.to_dict())
    if format != "markdown":
        raise AuditError(f"unknown report format {format!r}")

    lines = ["# Classifier Audit Report", ""]
    lines.append(f"textaudit {report.version}")
    lines.append("")
    lines.append("## Inputs")
    lines.append("")
    lines += _md_table(
        ["Input", "Path", "SHA-256"],
        [
            [entry["name"], entry["path"], (entry["sha256"] or "missing")[:16]]
            for entry in report.inputs
        ],
    )
    lines.append("")
    for name in SECTIONS:
        if name not in report.sections:
            continue
        section = report.sections[name]
        title, render = _MARKDOWN[name]
        lines.append(f"## {title}")
        lines.append("")
        if section["status"] == "skipped":
            lines.append(f"_Skipped: {section['reason']}_")
        elif section["status"] == "failed":
            lines.append(f"_Failed: {section['error']}_")
        else:
            lines += render(section["data"])
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
