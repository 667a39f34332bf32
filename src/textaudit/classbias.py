"""Classification-level assessments.

Covers the technical performance report, per-subgroup probability
statistics, swapped-identity favor analysis, counterfactual template
expansion with the threshold-insensitive counterfactual bias (CB) score,
and the seven classification fairness metrics. The classification
threshold defaults to 0.5 and is a parameter everywhere it matters; the CB
score needs no threshold at all.
"""

from typing import Iterable, NamedTuple

from .corpus import LabeledCorpus, TokenSpan, splice
from .errors import AuditError, LexiconError
from .lexicon import IDENTITY_SLOT, AttributeLexicon, SwapTable
from .mining import METHOD_LOOKUP, AnnotatedCorpus
from .modeliface import (
    Adapter,
    PredictionCache,
    PredictionRecord,
    ScoringPlan,
    comment_probabilities,
)
from .record import plain

CLASS_NAMES = {0: "not-hateful", 1: "hateful"}


def _confusion(labels: list[int], probs: list[float], threshold: float) -> dict:
    """Comments per (actual, predicted) class, with predicted class 1 iff p >= threshold."""
    confusion = {(actual, predicted): 0 for actual in (0, 1) for predicted in (0, 1)}
    for label, p in zip(labels, probs):
        predicted = 1 if p >= threshold else 0
        confusion[(label, predicted)] += 1
    return confusion


# ---------------------------------------------------------------------------
# Technical performance report
# ---------------------------------------------------------------------------

class ClassMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


class ClassReport(NamedTuple):
    """Per-class precision/recall/F1/support plus macro and weighted averages."""

    per_class: dict[str, ClassMetrics]  # keyed by class name
    macro: ClassMetrics
    weighted: ClassMetrics
    accuracy: float
    threshold: float
    zero_division_flags: tuple[str, ...]

    to_dict = plain


def _safe_ratio(numerator: float, denominator: float, flag: str, flags: list[str]) -> float:
    if denominator == 0:
        flags.append(flag)
        return 0.0
    return numerator / denominator


def performance_report(
    corpus: LabeledCorpus, preds: list[PredictionRecord], threshold: float = 0.5
) -> ClassReport:
    """Confusion-matrix metrics with predicted class 1 iff p >= threshold.

    Macro averages are unweighted means over the two classes, weighted
    averages are support-weighted. Zero-denominator metrics come back as 0
    and are named in ``zero_division_flags``.
    """
    probs = comment_probabilities(preds, corpus.comments)
    confusion = _confusion([c.label for c in corpus], probs, threshold)

    total = len(corpus)
    flags: list[str] = []
    per_class: dict[str, ClassMetrics] = {}
    for cls, name in CLASS_NAMES.items():
        tp = confusion[(cls, cls)]
        fp = confusion[(1 - cls, cls)]
        fn = confusion[(cls, 1 - cls)]
        support = tp + fn
        precision = _safe_ratio(tp, tp + fp, f"precision[{name}]", flags)
        recall = _safe_ratio(tp, support, f"recall[{name}]", flags)
        f1 = _safe_ratio(2 * precision * recall, precision + recall, f"f1[{name}]", flags)
        per_class[name] = ClassMetrics(precision=precision, recall=recall, f1=f1, support=support)

    def average(weights: list[int], divisor: int) -> ClassMetrics:
        """Each rate times its class's weight, summed in class order, over ``divisor``."""
        rates = (sum(m[i] * w for m, w in zip(per_class.values(), weights)) / divisor for i in range(3))
        return ClassMetrics(*rates, support=total)

    return ClassReport(
        per_class=per_class,
        macro=average([1, 1], 2),
        weighted=average([m.support for m in per_class.values()], total),
        accuracy=(confusion[(0, 0)] + confusion[(1, 1)]) / total,
        threshold=threshold,
        zero_division_flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Per-subgroup probability statistics
# ---------------------------------------------------------------------------

class SubgroupStatsRow(NamedTuple):
    actual: str  # class name
    subgroup: str
    mean_p_hateful: float | None  # None when no comment falls in the cell
    n: int

    to_dict = plain


def _stats_rows(cells: dict[tuple[int, str], list[float]]) -> list[SubgroupStatsRow]:
    """One row per subgroup and label, subgroups sorted; an empty cell's mean is None."""
    rows = []
    for subgroup in sorted({subgroup for _, subgroup in cells}):
        for label, actual in CLASS_NAMES.items():
            values = cells.get((label, subgroup), [])
            rows.append(
                SubgroupStatsRow(
                    actual=actual,
                    subgroup=subgroup,
                    mean_p_hateful=(sum(values) / len(values)) if values else None,
                    n=len(values),
                )
            )
    return rows


class SubgroupProbabilityStats(NamedTuple):
    attribute: str
    rows: tuple[SubgroupStatsRow, ...]

    to_dict = plain


def subgroup_probability_stats(
    annotated: AnnotatedCorpus, preds: list[PredictionRecord], attribute: str
) -> SubgroupProbabilityStats:
    """Mean predicted probability per (actual label, referenced subgroup).

    Comments referencing several subgroups contribute to each. Empty cells
    carry a None mean, never 0.
    """
    groups = [(sub, members) for (attr, sub), members in annotated.members.items() if attr == attribute]
    references = [(subgroup, comment) for subgroup, members in groups for comment in members]
    probs = comment_probabilities(preds, [comment for _, comment in references])
    cells: dict[tuple[int, str], list[float]] = {}
    for (subgroup, comment), p in zip(references, probs):
        cells.setdefault((comment.label, subgroup), []).append(p)
    return SubgroupProbabilityStats(attribute=attribute, rows=tuple(_stats_rows(cells)))


# ---------------------------------------------------------------------------
# Identity swapping
# ---------------------------------------------------------------------------

def _mirror_casing(original: str, replacement: str) -> str:
    """Each replacement word cased as the original word at its position, or the last one."""
    words = original.split()
    mirrored = []
    for k, word in enumerate(replacement.split()):
        model = words[min(k, len(words) - 1)]
        if model.isupper():
            word = word.upper()
        elif model[:1].isupper():
            word = word[:1].upper() + word[1:]
        mirrored.append(word)
    return " ".join(mirrored)


def swap_text(text: str, matched: Iterable[tuple[str, TokenSpan]], table: SwapTable) -> str:
    """Replace every matched term that has a partner by that partner, all at once.

    ``matched`` are look-up ``(term, span)`` matches in ``text``. A replacement
    is never re-swapped; of overlapping partnered matches, the leftmost, then
    the longest, is swapped. All caps and initial capitals are mirrored word by
    word; everything else is emitted lowercase.
    """
    replacements, cursor = [], 0
    for term, span in sorted(matched, key=lambda match: (match[1].start, -match[1].end)):
        partner = table.partner(term)
        if partner is not None and partner != term and span.start >= cursor:
            replacements.append((span, _mirror_casing(text[span.start : span.end], partner)))
            cursor = span.end
    return splice(text, replacements)


# ---------------------------------------------------------------------------
# Swapped-identity favor analysis
# ---------------------------------------------------------------------------

class FavorReport(NamedTuple):
    """Which identity the model favors when the pair is swapped in-place.

    For not-hateful comments the identity present in the lower-probability
    version is favored; for hateful comments, the higher. Probabilities are
    rounded to ``rounding_decimals`` before comparison, equal means
    no_change. ``by_label`` carries the same tallies split by actual label.
    """

    attribute: str
    sub_a: str
    sub_b: str
    fraction_favor_a: float
    fraction_favor_b: float
    fraction_no_change: float
    n_swapped: int
    rounding_decimals: int
    by_label: dict[str, dict[str, int]]

    to_dict = plain


def plan_swap_favor(
    annotated: AnnotatedCorpus,
    table: SwapTable,
    attribute: str,
    sub_a: str,
    sub_b: str,
    rounding_decimals: int = 4,
) -> ScoringPlan:
    """The original and swapped texts :func:`swap_favor_analysis` scores, and the tally."""
    if sub_a == sub_b:
        raise AuditError(f"a swap needs two subgroups, got {attribute}.{sub_a} twice")
    eligible: list[tuple[str, int, str]] = []  # (comment id, label, referenced subgroup)
    originals, swapped = [], []
    for comment in annotated.corpus:
        refs = [r for r in annotated.refs(comment.id) if r.attribute == attribute]
        referenced = {r.subgroup for r in refs} & {sub_a, sub_b}
        if len(referenced) == 1:
            eligible.append((comment.id, comment.label, referenced.pop()))
            originals.append(comment.text)
            matched = [m for r in refs if r.method == METHOD_LOOKUP for m in r.matched_terms]
            swapped.append(swap_text(comment.text, matched, table))
    if not eligible:
        raise AuditError(
            f"no comment references exactly one of {sub_a!r}/{sub_b!r} for attribute {attribute!r}"
        )

    n = len(eligible)

    def finish(probs: list[float]) -> FavorReport:
        outcomes = (sub_a, sub_b, "no_change")
        by_label = {name: dict.fromkeys(outcomes, 0) for name in CLASS_NAMES.values()}
        for (cid, label, referenced), po, ps in zip(eligible, probs[:n], probs[n:]):
            ro = round(po, rounding_decimals)
            rs = round(ps, rounding_decimals)
            other = sub_b if referenced == sub_a else sub_a
            if ro == rs:
                outcome = "no_change"
            elif label == 0:
                outcome = referenced if ro < rs else other
            else:
                outcome = referenced if ro > rs else other
            by_label[CLASS_NAMES[label]][outcome] += 1

        overall = {o: sum(counts[o] for counts in by_label.values()) for o in outcomes}
        return FavorReport(
            attribute=attribute,
            sub_a=sub_a,
            sub_b=sub_b,
            fraction_favor_a=overall[sub_a] / n,
            fraction_favor_b=overall[sub_b] / n,
            fraction_no_change=overall["no_change"] / n,
            n_swapped=n,
            rounding_decimals=rounding_decimals,
            by_label=by_label,
        )

    return ScoringPlan(originals + swapped, finish)


def swap_favor_analysis(
    annotated: AnnotatedCorpus,
    adapter: Adapter,
    table: SwapTable,
    attribute: str,
    sub_a: str,
    sub_b: str,
    rounding_decimals: int = 4,
    cache: PredictionCache | None = None,
) -> FavorReport:
    """Score original vs swapped text for every eligible comment.

    Eligible comments reference exactly one of the two subgroups; comments
    referencing both are excluded because a simultaneous bidirectional swap
    makes "favor" ill-defined.
    """
    plan = plan_swap_favor(annotated, table, attribute, sub_a, sub_b, rounding_decimals)
    return plan.run(adapter, cache)


# ---------------------------------------------------------------------------
# Counterfactual templates and the CB metric
# ---------------------------------------------------------------------------

class CounterfactualRow(NamedTuple):
    template_index: int
    group_index: int
    subgroup: str
    fill_term: str
    text: str
    label: int

    to_dict = plain


class CounterfactualCorpus(NamedTuple):
    """Template realizations, grouped so each group spans all subgroups."""

    rows: tuple[CounterfactualRow, ...]


def expand_templates(
    templates: tuple[tuple[str, int], ...],
    lexicon: AttributeLexicon,
    attribute: str,
    identity_terms_per_subgroup: dict[str, list[str]],
) -> CounterfactualCorpus:
    """Realize every template for every subgroup fill.

    Fill lists are aligned positionally across subgroups and must have equal
    lengths; group i of a template holds the i-th fill of every subgroup, so
    texts within a group differ only in the identity slot.
    """
    if not identity_terms_per_subgroup:
        raise LexiconError("no identity fill terms supplied")
    known = set(lexicon.subgroups(attribute))
    subgroups = sorted(identity_terms_per_subgroup)
    for subgroup in subgroups:
        if subgroup not in known:
            raise LexiconError(f"unknown subgroup {attribute}.{subgroup}")
        if not identity_terms_per_subgroup[subgroup]:
            raise LexiconError(f"subgroup {subgroup!r} has no identity fill terms")
    lengths = {s: len(identity_terms_per_subgroup[s]) for s in subgroups}
    if len(set(lengths.values())) != 1:
        raise LexiconError(f"fill lists must have equal lengths, got {lengths}")
    n_fills = lengths[subgroups[0]]

    rows: list[CounterfactualRow] = []
    group_index = 0
    for template_index, (pattern, label) in enumerate(templates):
        for slot in range(n_fills):
            for subgroup in subgroups:
                term = identity_terms_per_subgroup[subgroup][slot]
                rows.append(
                    CounterfactualRow(
                        template_index=template_index,
                        group_index=group_index,
                        subgroup=subgroup,
                        fill_term=term,
                        text=pattern.replace(IDENTITY_SLOT, term),
                        label=label,
                    )
                )
            group_index += 1
    return CounterfactualCorpus(rows=tuple(rows))


class CBResult(NamedTuple):
    """Counterfactual bias for one reference subgroup; positive favors it."""

    reference: str
    cb_total: float
    cb_mean: float
    n_examples: int

    to_dict = plain


def counterfactual_bias(
    corpus: CounterfactualCorpus, probabilities: list[float], reference: str
) -> CBResult:
    """Sum over groups of (p_reference - mean p_counterfactual), sign-corrected.

    The signed gap is multiplied by +1 for hateful groups and -1 for
    not-hateful groups, so a positive total always means the model favors
    the reference subgroup. ``probabilities`` aligns with ``corpus.rows``.
    """
    if len(probabilities) != len(corpus.rows):
        raise AuditError(
            f"need one probability per row: {len(corpus.rows)} rows, {len(probabilities)} probabilities"
        )
    # group index -> (first row's label, reference and counterfactual probabilities, in row order)
    groups: dict[int, tuple[int, list[float], list[float]]] = {}
    for row, p in zip(corpus.rows, probabilities):
        _, p_refs, p_cfs = groups.setdefault(row.group_index, (row.label, [], []))
        (p_refs if row.subgroup == reference else p_cfs).append(p)
    total = 0.0
    for index in sorted(groups):
        label, p_refs, p_cfs = groups[index]
        if len(p_refs) != 1:
            raise AuditError(
                f"group {index} needs exactly one {reference!r} realization, found {len(p_refs)}"
            )
        if not p_cfs:
            raise AuditError(f"group {index} has no counterfactual realization")
        sign = 1.0 if label == 1 else -1.0
        total += (p_refs[0] - sum(p_cfs) / len(p_cfs)) * sign
    return CBResult(
        reference=reference,
        cb_total=total,
        cb_mean=total / len(groups),
        n_examples=len(groups),
    )


def counterfactual_probability_stats(
    corpus: CounterfactualCorpus, probabilities: list[float]
) -> list[SubgroupStatsRow]:
    """Mean predicted probability per (label, subgroup) over the synthetic rows."""
    if len(probabilities) != len(corpus.rows):
        raise AuditError("need one probability per counterfactual row")
    cells: dict[tuple[int, str], list[float]] = {}
    for row, p in zip(corpus.rows, probabilities):
        cells.setdefault((row.label, row.subgroup), []).append(p)
    return _stats_rows(cells)


# ---------------------------------------------------------------------------
# Classification fairness metrics
# ---------------------------------------------------------------------------

FAIRNESS_METRIC_NAMES = (
    "equal_opportunity",
    "gini_equality",
    "normalized_treatment_equality",
    "overall_accuracy_equality",
    "positive_predictive_value",
    "positive_class_balance",
    "statistical_parity",
)


def gini_coefficient(values: list[float]) -> float:
    """Standard mean-absolute-difference Gini; 0 for constant or singleton lists."""
    n = len(values)
    if n <= 1:
        return 0.0
    total = sum(values)
    if total == 0.0:
        return 0.0
    ordered = sorted(values)
    weighted = sum((i + 1) * v for i, v in enumerate(ordered))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


class FairnessMetrics(NamedTuple):
    """Seven signed differences (reference - protected) at a fixed threshold.

    A metric whose components are undefined for either group carries None in
    ``values`` and an explanation in ``not_computable``, never a silent 0.
    """

    attribute: str
    reference: str
    protected: str
    threshold: float
    values: dict[str, float | None]
    not_computable: dict[str, str]

    to_dict = plain


def _group_components(labels: list[int], probs: list[float], threshold: float) -> dict:
    confusion = _confusion(labels, probs, threshold)
    tp, fp = confusion[(1, 1)], confusion[(0, 1)]
    fn, tn = confusion[(1, 0)], confusion[(0, 0)]
    n = len(labels)
    positives_predicted = [p for p in probs if p >= threshold]
    out: dict[str, float | None] = {}
    out["equal_opportunity"] = tp / (tp + fn) if (tp + fn) > 0 else None
    out["gini_equality"] = gini_coefficient([p - y + 1.0 for y, p in zip(labels, probs)])
    out["normalized_treatment_equality"] = fn / (fn + fp) if (fn + fp) > 0 else None
    out["overall_accuracy_equality"] = (tp + tn) / n
    out["positive_predictive_value"] = tp / (tp + fp) if (tp + fp) > 0 else None
    out["positive_class_balance"] = (
        sum(positives_predicted) / len(positives_predicted) if positives_predicted else None
    )
    out["statistical_parity"] = (tp + fp) / n
    return out


_NC_REASONS = {
    "equal_opportunity": "no actual positives",
    "normalized_treatment_equality": "no classification errors (FN + FP = 0)",
    "positive_predictive_value": "no predicted positives",
    "positive_class_balance": "no predicted positives",
}


def fairness_metrics(
    annotated: AnnotatedCorpus,
    preds: list[PredictionRecord],
    attribute: str,
    reference: str,
    protected: str,
    threshold: float = 0.5,
) -> FairnessMetrics:
    """The seven bias metrics over comments referencing each subgroup."""
    if reference == protected:
        raise AuditError(f"fairness metrics need two subgroups, got {attribute}.{reference} twice")
    parts: dict[str, dict] = {}
    for name in (reference, protected):
        members = annotated.members.get((attribute, name), [])
        if not members:
            raise AuditError(f"no annotated comment references {attribute}.{name}")
        probs = comment_probabilities(preds, members)
        parts[name] = _group_components([c.label for c in members], probs, threshold)

    values: dict[str, float | None] = {}
    not_computable: dict[str, str] = {}
    for name in FAIRNESS_METRIC_NAMES:
        undefined = [group for group in (reference, protected) if parts[group][name] is None]
        if undefined:
            values[name] = None
            not_computable[name] = "; ".join(f"{group}: {_NC_REASONS[name]}" for group in undefined)
        else:
            values[name] = parts[reference][name] - parts[protected][name]
    return FairnessMetrics(
        attribute=attribute,
        reference=reference,
        protected=protected,
        threshold=threshold,
        values=values,
        not_computable=not_computable,
    )
