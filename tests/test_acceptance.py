"""Acceptance gate: every criterion runs against an independent oracle or a
hand-derived fixture and prints one PASS line. Run with ``pytest -v``.
"""

import random
import subprocess
import sys
import time
import warnings
from array import array

import numpy as np
import pytest

from conftest import FIXTURES_DIR, GOLDEN_DIR, REPO_ROOT, CallableAdapter, annotate_and_swap

from textaudit.classbias import (
    CLASS_NAMES,
    CounterfactualCorpus,
    CounterfactualRow,
    counterfactual_bias,
    expand_templates,
    fairness_metrics,
    performance_report,
    swap_favor_analysis,
)
from textaudit.corpus import Comment, LabeledCorpus, load_dataset, tokenize
from textaudit.databias import identity_term_frequencies, subgroup_reference_frequencies
from textaudit.embedbias import embedding_bias
from textaudit.errors import AuditError
from textaudit.explain import exact_shapley, global_importance, local_explain
from textaudit.lexicon import (
    aligned_swap_pairs,
    default_gazetteer,
    default_identity_terms,
    default_lexicon,
    default_templates,
    _lexicon_from_obj,
)
from textaudit.mining import annotate_corpus
from textaudit.modeliface import PredictionRecord
from textaudit.report import estimate_emissions

EMPTY_GAZ = {}
MINI_LEX = _lexicon_from_obj({"grp": {"ref": ["refword"], "prot": ["protword"]}})


# ---------------------------------------------------------------------------
# independent oracles (loops only, no reuse of package internals)
# ---------------------------------------------------------------------------

def oracle_confusion(labels, probs, threshold):
    tp = fp = fn = tn = 0
    for y, p in zip(labels, probs):
        predicted = 1 if p >= threshold else 0
        if predicted == 1 and y == 1:
            tp += 1
        elif predicted == 1 and y == 0:
            fp += 1
        elif predicted == 0 and y == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def oracle_class_metrics(labels, probs, threshold, cls):
    predicted = [1 if p >= threshold else 0 for p in probs]
    tp = sum(1 for y, yh in zip(labels, predicted) if y == cls and yh == cls)
    pp = sum(1 for yh in predicted if yh == cls)
    ap = sum(1 for y in labels if y == cls)
    precision = tp / pp if pp else None
    recall = tp / ap if ap else None
    if precision and recall and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    elif precision is None or recall is None:
        f1 = None
    else:
        f1 = 0.0
    return precision, recall, f1, ap


def oracle_group_metrics(labels, probs, threshold):
    tp, fp, fn, tn = oracle_confusion(labels, probs, threshold)
    n = len(labels)
    predicted_positive_probs = [p for p in probs if p >= threshold]
    return {
        "equal_opportunity": tp / (tp + fn) if (tp + fn) else None,
        "normalized_treatment_equality": fn / (fn + fp) if (fn + fp) else None,
        "positive_predictive_value": tp / (tp + fp) if (tp + fp) else None,
        "positive_class_balance": (
            sum(predicted_positive_probs) / len(predicted_positive_probs)
            if predicted_positive_probs
            else None
        ),
        "statistical_parity": (tp + fp) / n,
    }


def assert_matches(actual, expected, label):
    if expected is None:
        assert actual is None or actual == 0.0, label
    else:
        assert actual == pytest.approx(expected, abs=1e-9), label


# ---------------------------------------------------------------------------
# 1. oracle equivalence for classification and fairness metrics
# ---------------------------------------------------------------------------

def test_criterion_01_metric_oracle_equivalence():
    rng = random.Random(20240901)
    started = time.monotonic()
    role_texts = {
        "ref": "refword filler",
        "prot": "protword filler",
        "both": "refword protword filler",
        "none": "plain filler",
    }
    for trial in range(200):
        n = rng.randrange(4, 51)
        roles = ["ref", "prot"] + [
            rng.choice(("ref", "prot", "both", "none")) for _ in range(n - 2)
        ]
        labels = [rng.randrange(2) for _ in range(n)]
        probs = [round(rng.random(), 3) for _ in range(n)]
        threshold = 0.5
        comments = [
            Comment(id=f"c{i}", text=f"{role_texts[role]} {i}", label=label)
            for i, (role, label) in enumerate(zip(roles, labels))
        ]
        corpus = LabeledCorpus(comments)
        preds = [
            PredictionRecord(comment_id=f"c{i}", p_hateful=p) for i, p in enumerate(probs)
        ]

        report = performance_report(corpus, preds, threshold)
        tp, fp, fn, tn = oracle_confusion(labels, probs, threshold)
        assert report.accuracy == pytest.approx((tp + tn) / n, abs=1e-9)
        for cls in (0, 1):
            precision, recall, f1, support = oracle_class_metrics(labels, probs, threshold, cls)
            metrics = report.per_class[CLASS_NAMES[cls]]
            assert_matches(metrics.precision, precision, f"precision[{cls}] trial {trial}")
            assert_matches(metrics.recall, recall, f"recall[{cls}] trial {trial}")
            assert_matches(metrics.f1, f1, f"f1[{cls}] trial {trial}")
            assert metrics.support == support

        annotated = annotate_corpus(corpus, MINI_LEX, EMPTY_GAZ)
        result = fairness_metrics(annotated, preds, "grp", "ref", "prot", threshold)
        group_oracle = {}
        for group in ("ref", "prot"):
            members = [
                i for i, role in enumerate(roles) if role == group or role == "both"
            ]
            group_oracle[group] = oracle_group_metrics(
                [labels[i] for i in members], [probs[i] for i in members], threshold
            )
        for name in (
            "statistical_parity",
            "equal_opportunity",
            "positive_predictive_value",
            "positive_class_balance",
            "normalized_treatment_equality",
        ):
            r, p = group_oracle["ref"][name], group_oracle["prot"][name]
            if r is None or p is None:
                assert result.values[name] is None, f"{name} trial {trial}"
                assert name in result.not_computable
            else:
                assert result.values[name] == pytest.approx(r - p, abs=1e-9), (
                    f"{name} trial {trial}"
                )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 PASS - metric oracle equivalence on 200 corpora ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. embedding-bias properties on random tables
# ---------------------------------------------------------------------------

def test_criterion_02_embedding_bias_properties():
    rng = np.random.default_rng(20240902)
    started = time.monotonic()
    for trial in range(100):
        d = int(rng.integers(2, 9))
        n_terms = int(rng.integers(4, 21))
        n_subgroups = int(rng.integers(2, 5))
        if n_terms < n_subgroups:
            n_terms = n_subgroups
        term_names = [f"t{i}" for i in range(n_terms)]
        neutral_names = [f"n{i}" for i in range(int(rng.integers(2, 6)))]
        vectors = {}
        for name in term_names + neutral_names:
            vec = rng.normal(size=d)
            while np.linalg.norm(vec) < 1e-6:
                vec = rng.normal(size=d)
            vectors[name] = vec
        table = {k: array("d", v) for k, v in vectors.items()}

        assignments = [term_names[i::n_subgroups] for i in range(n_subgroups)]
        lexicon = _lexicon_from_obj(
            {"attr": {f"s{i}": assignments[i] for i in range(n_subgroups)}}
        )
        neutrals = tuple(neutral_names)
        result = embedding_bias(neutrals, lexicon, "attr", table)

        for gap in result.pairwise:
            assert gap.rmse >= gap.mae - 1e-12, f"RMSE >= MAE violated for {gap} in trial {trial}"
        assert 0.0 <= result.amae <= 2.0
        assert 0.0 <= result.armse <= 2.0
        if n_subgroups == 2:
            (gap,) = result.pairwise
            assert result.amae == gap.mae
            assert result.armse == gap.rmse

        scale = float(rng.uniform(0.1, 50.0))
        scaled_table = {k: array("d", scale * v) for k, v in vectors.items()}
        rescaled = embedding_bias(neutrals, lexicon, "attr", scaled_table)
        assert rescaled.amae == pytest.approx(result.amae, abs=1e-9)
        assert rescaled.armse == pytest.approx(result.armse, abs=1e-9)

        twin_lexicon = _lexicon_from_obj(
            {"attr": {"a": assignments[0], "b": assignments[0]}}
        )
        twin = embedding_bias(neutrals, twin_lexicon, "attr", table)
        assert twin.amae == 0.0
        assert twin.armse == 0.0
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 PASS - embedding-bias properties on 100 tables ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. CB metric fixture, antisymmetry, O = X
# ---------------------------------------------------------------------------

def _cb_group(index, label, subgroup_probs):
    rows = []
    probs = []
    for subgroup, p in subgroup_probs:
        rows.append(
            CounterfactualRow(
                template_index=index,
                group_index=index,
                subgroup=subgroup,
                fill_term=subgroup,
                text=f"g{index} {subgroup}",
                label=label,
            )
        )
        probs.append(p)
    return rows, probs


def test_criterion_03_cb_metric():
    # three-group hand fixture: +0.2, +0.2, 0 -> total 0.4, mean 0.4/3
    rows, probs = [], []
    for index, (label, entries) in enumerate(
        [
            (1, [("ref", 0.9), ("oth", 0.7)]),
            (0, [("ref", 0.1), ("oth", 0.3)]),
            (1, [("ref", 0.5), ("oth", 0.5)]),
        ]
    ):
        group_rows, group_probs = _cb_group(index, label, entries)
        rows.extend(group_rows)
        probs.extend(group_probs)
    corpus = CounterfactualCorpus(rows=tuple(rows))
    result = counterfactual_bias(corpus, probs, "ref")
    assert result.cb_total == pytest.approx(0.4, abs=1e-9)
    assert result.cb_mean == pytest.approx(0.4 / 3.0, abs=1e-9)
    assert result.n_examples == 3

    rng = random.Random(20240903)
    for _ in range(100):
        n_groups = rng.randrange(1, 8)
        rows, probs = [], []
        for g in range(n_groups):
            group_rows, group_probs = _cb_group(
                g, rng.randrange(2), [("a", rng.random()), ("b", rng.random())]
            )
            rows.extend(group_rows)
            probs.extend(group_probs)
        corpus = CounterfactualCorpus(rows=tuple(rows))
        cb_a = counterfactual_bias(corpus, probs, "a").cb_total
        cb_b = counterfactual_bias(corpus, probs, "b").cb_total
        assert cb_a == -cb_b  # role exchange negates CB exactly

    rows, probs = [], []
    for g in range(5):
        p = random.Random(g).random()
        group_rows, group_probs = _cb_group(g, g % 2, [("a", p), ("b", p)])
        rows.extend(group_rows)
        probs.extend(group_probs)
    corpus = CounterfactualCorpus(rows=tuple(rows))
    assert counterfactual_bias(corpus, probs, "a").cb_total == 0.0
    print("\nACCEPTANCE 3 PASS - CB fixture 0.4 total / 0.1333 mean, antisymmetry, O=X -> 0")


# ---------------------------------------------------------------------------
# 4. swap correctness
# ---------------------------------------------------------------------------

TABLE5_ORIGINAL = (
    "This Jerry Lewis ripoff needs to just go away already. "
    "The guy is so good at acting like a fool because he is a fool."
)
TABLE5_SWAPPED = (
    "This Jerry Lewis ripoff needs to just go away already. "
    "The gal is so good at acting like a fool because she is a fool."
)


def test_criterion_04_swap_correctness():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = aligned_swap_pairs(lexicon := default_lexicon(), "gender", "male", "female")

    def swap(text):
        return annotate_and_swap(text, table, lexicon)

    assert swap(TABLE5_ORIGINAL) == TABLE5_SWAPPED

    paired_terms = [term for pair in table.pairs for term in pair]
    rng = random.Random(20240904)
    for _ in range(1000):
        sentence = " ".join(
            rng.choice(paired_terms) for _ in range(rng.randrange(3, 13))
        )
        assert swap(swap(sentence)) == sentence
    print("\nACCEPTANCE 4 PASS - reference swap example reproduced byte-for-byte; involution on 1000 sentences")


# ---------------------------------------------------------------------------
# 5. favor analysis on the 40-comment fixture
# ---------------------------------------------------------------------------

def test_criterion_05_favor_fractions():
    def stub(text):
        tokens = set(text.lower().split())
        return 0.5 + 0.3 * ("women" in tokens) - 0.3 * ("men" in tokens)

    comments = []
    for i in range(12):
        comments.append(Comment(id=f"a{i}", text=f"women are welcome here {i}", label=0))
    for i in range(10):
        comments.append(Comment(id=f"b{i}", text=f"men must leave now {i}", label=1))
    for i in range(8):
        comments.append(Comment(id=f"c{i}", text=f"she enjoys quiet parks {i}", label=0))
    for i in range(10):
        comments.append(Comment(id=f"d{i}", text=f"women ruin everything {i}", label=1))
    assert len(comments) == 40
    corpus = LabeledCorpus(comments)
    annotated = annotate_corpus(corpus, default_lexicon(), EMPTY_GAZ)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = aligned_swap_pairs(default_lexicon(), "gender", "male", "female")
    report = swap_favor_analysis(
        annotated, CallableAdapter(stub), table, "gender", "male", "female"
    )
    # hand enumeration: 12 favor male, 20 favor female, 8 unchanged
    assert report.n_swapped == 40
    assert report.fraction_favor_a == 12 / 40
    assert report.fraction_favor_b == 20 / 40
    assert report.fraction_no_change == 8 / 40
    total = report.fraction_favor_a + report.fraction_favor_b + report.fraction_no_change
    assert total == pytest.approx(1.0, abs=1e-9)
    print("\nACCEPTANCE 5 PASS - favor fractions 0.3/0.5/0.2 match hand enumeration exactly")


# ---------------------------------------------------------------------------
# 6. frequency tables: fixture hand counts + weighted-mean identity
# ---------------------------------------------------------------------------

FIXTURE_IDENTITY_COUNTS = {
    # term: (hateful_n of 12, nothateful_n of 18)
    "atheist": (0, 0), "queer": (1, 0), "gay": (1, 2), "transgender": (0, 0),
    "lesbian": (0, 0), "homosexual": (0, 0), "feminist": (0, 0), "black": (1, 1),
    "white": (1, 1), "heterosexual": (0, 0), "islam": (0, 0), "muslim": (1, 1),
}

FIXTURE_SUBGROUP_COUNTS = {
    # attribute/subgroup: (hateful_n, nothateful_n)
    "ethnicity/white": (0, 1),
    "gender/female": (3, 6),
    "gender/male": (3, 5),
    "religion/christianity": (1, 2),
    "religion/islam": (1, 2),
    "religion/judaism": (0, 1),
}


def test_criterion_06_frequency_tables():
    corpus = load_dataset(FIXTURES_DIR / "comments.csv", "csv")
    assert corpus.counts == {1: 12, 0: 18}

    rows = identity_term_frequencies(corpus, default_identity_terms())
    assert [r.key for r in rows] == list(FIXTURE_IDENTITY_COUNTS)
    for row in rows:
        hateful_n, nothateful_n = FIXTURE_IDENTITY_COUNTS[row.key]
        assert (row.hateful_n, row.nothateful_n) == (hateful_n, nothateful_n), row.key
        assert row.hateful_pct == pytest.approx(100.0 * hateful_n / 12, abs=1e-9)
        assert row.nothateful_pct == pytest.approx(100.0 * nothateful_n / 18, abs=1e-9)
        assert row.overall_pct == pytest.approx(
            100.0 * (hateful_n + nothateful_n) / 30, abs=1e-9
        )

    annotated = annotate_corpus(corpus, default_lexicon(), default_gazetteer())
    subgroup_rows = subgroup_reference_frequencies(annotated)
    observed = {r.key: (r.hateful_n, r.nothateful_n) for r in subgroup_rows}
    assert observed == FIXTURE_SUBGROUP_COUNTS

    rng = random.Random(20240906)
    words = ["gay", "white", "calm", "sky", "muslim", "tree", "queer"]
    terms = ("gay", "muslim", "queer")
    for _ in range(100):
        comments = [
            Comment(id="h0", text=" ".join(rng.choices(words, k=5)), label=1),
            Comment(id="n0", text=" ".join(rng.choices(words, k=5)), label=0),
        ]
        for i in range(rng.randrange(0, 25)):
            comments.append(
                Comment(
                    id=f"x{i}",
                    text=" ".join(rng.choices(words, k=5)),
                    label=rng.randrange(2),
                )
            )
        corpus = LabeledCorpus(comments)
        n_h, n_nh = corpus.counts[1], corpus.counts[0]
        for row in identity_term_frequencies(corpus, terms):
            lhs = row.overall_pct * (n_h + n_nh)
            rhs = row.hateful_pct * n_h + row.nothateful_pct * n_nh
            assert lhs == pytest.approx(rhs, abs=1e-9)
    print("\nACCEPTANCE 6 PASS - fixture tables match hand counts; weighted-mean identity holds")


# ---------------------------------------------------------------------------
# 7. explanation fidelity
# ---------------------------------------------------------------------------

def test_criterion_07_explanation_fidelity():
    def keyword_stub(text):
        return 0.9 if "filthy" in text.lower().split() else 0.1

    adapter = CallableAdapter(keyword_stub)
    corpus = load_dataset(FIXTURES_DIR / "comments.csv", "csv")

    checked = 0
    for comment in corpus:
        tokens = {span.token for span in tokenize(comment.text)}
        if len(tokens) > 10:
            continue
        values = exact_shapley(comment, adapter)
        total = sum(v for _, v in values)
        expected = keyword_stub(comment.text) - keyword_stub("")
        assert total == pytest.approx(expected, abs=1e-9), comment.id
        checked += 1
    assert checked >= 20

    def or_stub(text):
        tokens = set(text.lower().split())
        return 0.9 if tokens & {"alpha", "beta"} else 0.1

    symmetric = dict(
        exact_shapley(
            Comment(id="sym", text="alpha beta gamma delta", label=0),
            CallableAdapter(or_stub),
        )
    )
    assert symmetric["alpha"] == pytest.approx(symmetric["beta"], abs=1e-9)

    sample_comment = Comment(id="s", text="you filthy liar today friend", label=1)
    sampled = global_importance(
        LabeledCorpus([sample_comment]),
        adapter,
        method="sampled_shapley",
        m_permutations=2000,
        rng_seed=0,
    )
    exact = dict(exact_shapley(sample_comment, adapter))
    gaps = [abs(row.mean_effect - exact[row.token]) for row in sampled.rows]
    assert sum(gaps) / len(gaps) <= 0.02

    explanation = local_explain(
        Comment(id="l", text="you filthy liar", label=1),
        adapter,
        n_samples=8,
        l2_lambda=1e-6,
    )
    assert dict(explanation.token_weights)["filthy"] == pytest.approx(0.8, abs=1e-3)
    print(f"\nACCEPTANCE 7 PASS - Shapley efficiency/symmetry on {checked} comments; sampled within 0.02; LIME-style weight 0.8")


# ---------------------------------------------------------------------------
# 8. end-to-end determinism and the committed golden report
# ---------------------------------------------------------------------------

def test_criterion_08_end_to_end_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        result = subprocess.run(
            [
                sys.executable, "-m", "textaudit.cli", "audit",
                "--config", "tests/fixtures/audit_config.json",
                "--out", str(out),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
    names = sorted(path.name for path in out_a.iterdir())
    assert names == sorted(path.name for path in out_b.iterdir())
    assert "report.json" in names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    assert names == sorted(path.name for path in GOLDEN_DIR.iterdir())
    for name in names:
        golden = (GOLDEN_DIR / name).read_bytes()
        assert (out_a / name).read_bytes() == golden, f"{name} drifted from the golden"
    print(
        f"\nACCEPTANCE 8 PASS - two audit runs wrote {len(names)} byte-identical files"
        " and each equals its golden file"
    )


# ---------------------------------------------------------------------------
# 9. template expansion reproduces the reference sentences
# ---------------------------------------------------------------------------

def test_criterion_09_template_expansion():
    corpus = expand_templates(
        default_templates(),
        default_lexicon(),
        "religion",
        {"christianity": ["Christian"], "islam": ["Muslim"]},
    )
    assert [row.text for row in corpus.rows] == [
        "I am a Christian person, ask me anything",
        "I am a Muslim person, ask me anything",
        "Christian people are gross and universally terrible",
        "Muslim people are gross and universally terrible",
    ]
    assert [row.label for row in corpus.rows] == [0, 0, 1, 1]
    print("\nACCEPTANCE 9 PASS - four reference counterfactual sentences reproduced verbatim")


# ---------------------------------------------------------------------------
# 10. emissions closed form
# ---------------------------------------------------------------------------

def test_criterion_10_emissions():
    assert estimate_emissions(1.0, 10.0, 1.0, 0.5).co2eq_kg == pytest.approx(5.0, abs=1e-9)
    assert estimate_emissions(0.3, 4.0, 1.58, 0.4).co2eq_kg == pytest.approx(0.7584, abs=1e-9)
    assert estimate_emissions(2.0, 0.0, 1.2, 0.7).co2eq_kg == 0.0
    with pytest.raises(AuditError):
        estimate_emissions(-1.0, 1.0, 1.0, 1.0)
    print("\nACCEPTANCE 10 PASS - emissions estimates match hand multiplication to 1e-9")
