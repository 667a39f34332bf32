import math
from itertools import compress

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import CallableAdapter
from stub_model import keyword_probability

from textaudit import explain
from textaudit.corpus import Comment, LabeledCorpus
from textaudit.errors import ExplainError
from textaudit.explain import (
    exact_shapley,
    global_importance,
    local_explain,
)
from textaudit.modeliface import PredictionCache, predict_batch


def keyword_model(keyword, present=0.9, absent=0.1):
    def fn(text):
        return present if keyword in text.lower().split() else absent

    return fn


def filthy_adapter():
    return CallableAdapter(keyword_model("filthy"))


def constant_adapter(value=0.5):
    return CallableAdapter(lambda text: value)


# ---------------------------------------------------------------------------
# local explanations
# ---------------------------------------------------------------------------

def test_local_explain_recovers_keyword_weight():
    comment = Comment(id="c", text="you filthy liar", label=1)
    explanation = local_explain(
        comment, filthy_adapter(), n_samples=8, l2_lambda=1e-6, rng_seed=0
    )
    weights = dict(explanation.token_weights)
    assert weights["filthy"] == pytest.approx(0.8, abs=1e-3)
    assert weights["you"] == pytest.approx(0.0, abs=1e-3)
    assert weights["liar"] == pytest.approx(0.0, abs=1e-3)
    assert explanation.intercept == pytest.approx(0.1, abs=1e-3)
    assert explanation.surrogate_fit_r2 == pytest.approx(1.0, abs=1e-6)


def test_local_explain_constant_model_zero_weights():
    comment = Comment(id="c", text="five tokens in this comment", label=0)
    explanation = local_explain(comment, constant_adapter(), n_samples=64, rng_seed=3)
    for token, weight in explanation.token_weights:
        assert weight == pytest.approx(0.0, abs=1e-9), token


@pytest.mark.parametrize(
    "text, n_samples",
    [
        ("five tokens in this comment", 64),  # every mask enumerated
        (" ".join(f"w{i}" for i in range(25)), 512),  # sampled masks
    ],
)
def test_local_explain_constant_model_fits_perfectly(text, n_samples):
    # The intercept reproduces a constant response; the residuals are rounding.
    comment = Comment(id="c", text=text, label=0)
    explanation = local_explain(comment, constant_adapter(), n_samples=n_samples, rng_seed=3)
    assert explanation.intercept == pytest.approx(0.5, abs=1e-12)
    assert explanation.surrogate_fit_r2 == 1.0


def test_local_explain_deterministic():
    comment = Comment(
        id="c",
        text="one two three four five six seven eight nine ten eleven twelve thirteen",
        label=0,
    )
    adapter = CallableAdapter(keyword_model("three"))
    first = local_explain(comment, adapter, n_samples=128, rng_seed=42)
    second = local_explain(comment, adapter, n_samples=128, rng_seed=42)
    assert first == second
    shifted = local_explain(comment, adapter, n_samples=128, rng_seed=43)
    assert shifted.token_weights != first.token_weights


def test_local_explain_exact_linear_recovery():
    # p = beta . mask + beta0 within [0, 1]: exhaustive masks + tiny ridge recover beta
    beta = {"aa": 0.3, "bb": -0.2, "cc": 0.1}
    beta0 = 0.4

    def linear_model(text):
        tokens = set(text.lower().split())
        return beta0 + sum(b for t, b in beta.items() if t in tokens)

    comment = Comment(id="c", text="aa bb cc", label=0)
    explanation = local_explain(
        comment, CallableAdapter(linear_model), n_samples=8, l2_lambda=1e-9
    )
    weights = dict(explanation.token_weights)
    for token, expected in beta.items():
        assert weights[token] == pytest.approx(expected, abs=1e-3)
    assert explanation.intercept == pytest.approx(beta0, abs=1e-3)


def test_local_explain_degenerate_design_raises():
    # With no ridge and a kernel so narrow that every mask but the full one
    # weighs exactly 0, the normal equations are exactly singular.
    comment = Comment(id="c", text="you filthy liar", label=1)
    with pytest.raises(ExplainError, match="degenerate design matrix for comment 'c'"):
        local_explain(comment, filthy_adapter(), n_samples=8, kernel_width=1e-3, l2_lambda=0.0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 30),
    n_samples=st.integers(16, 600),
    l2_lambda=st.floats(1e-6, 1.0),
    kernel_width=st.one_of(st.none(), st.floats(0.5, 2.0)),
)
# 322 masks keep the one token and 278 keep none: each weight's columns are
# integers of several machine words, not one.
@example(seed=0, k=1, n_samples=600, l2_lambda=1e-3, kernel_width=0.75)
def test_ridge_coefficients_match_numpy_solve(seed, k, n_samples, l2_lambda, kernel_width):
    # kernel_width None: a different weight per mask; otherwise the audit's
    # kernel, which gives every mask with the same kept count one weight.
    # Beyond 13 tokens, few masks per token can leave the system so
    # ill-conditioned (condition numbers near 1e8) that double-precision
    # solvers land about 1e-9 apart.
    assume(k <= 13 or n_samples >= 4 * (k + 1))
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2, size=(n_samples, k))
    masks[0] = 1
    bits = (masks << np.arange(k)).sum(axis=1).tolist()  # bit j of a mask keeps token j
    if kernel_width is None:
        weights = rng.uniform(0.05, 1.0, size=n_samples)
    else:
        weights = np.asarray(explain._mask_weights(bits, k, kernel_width))
    y = rng.uniform(0.0, 1.0, size=n_samples)

    X = np.hstack([masks, np.ones((n_samples, 1))])
    ridge = l2_lambda * np.eye(k + 1)
    ridge[k, k] = 0.0
    expected = np.linalg.solve(X.T @ (X * weights[:, None]) + ridge, X.T @ (weights * y))

    got = explain._ridge_coefficients(bits, k, weights.tolist(), y.tolist(), l2_lambda)
    assert np.linalg.norm(np.asarray(got) - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_masks_draw_one_bit_per_token_in_token_order(seed):
    # The all-ones mask, then per mask one getrandbits(1) draw per token:
    # drawing a mask's k bits at once would change every sampled text.
    words = [f"tok{j}" for j in range(30)]
    comment = Comment(id="long", text=" ".join(words), label=0)
    rng = explain._comment_rng(seed, comment.id)
    keeps = [[1] * 30] + [[rng.getrandbits(1) for _ in range(30)] for _ in range(63)]
    expected = [" ".join(compress(words, keep)) for keep in keeps]
    assert explain.plan_local_explain(comment, n_samples=64, rng_seed=seed).texts == expected


def test_local_explain_requires_enough_samples():
    comment = Comment(id="c", text="a b c d", label=0)
    with pytest.raises(ExplainError, match="n_samples"):
        local_explain(comment, constant_adapter(), n_samples=3)


def test_local_explain_empty_comment_rejected():
    comment = Comment(id="c", text="!!!", label=0)
    with pytest.raises(ExplainError, match="no tokens"):
        local_explain(comment, constant_adapter(), n_samples=8)


def test_local_explain_single_token():
    comment = Comment(id="c", text="filthy", label=1)
    explanation = local_explain(comment, filthy_adapter(), n_samples=4, l2_lambda=1e-9)
    assert dict(explanation.token_weights)["filthy"] == pytest.approx(0.8, abs=1e-3)


def test_global_importance_token_cap():
    text = " ".join(f"tok{i}" for i in range(15)) + " filthy"
    corpus = LabeledCorpus([Comment(id="c", text=text, label=1)])
    importance = global_importance(
        corpus, filthy_adapter(), method="occlusion", max_tokens_per_comment=12
    )
    tokens = {row.token for row in importance.rows}
    assert len(tokens) == 12
    assert "filthy" not in tokens  # 16 unique tokens, only the first 12 become features


# ---------------------------------------------------------------------------
# global importance
# ---------------------------------------------------------------------------

def ten_comment_corpus():
    texts = [
        "you filthy liar",
        "filthy words everywhere",
        "a calm morning walk",
        "the filthy mess stayed",
        "quiet rooms help focus",
        "she sang a filthy tune",
        "bright ideas win games",
        "filthy tricks never pay",
        "long roads reach towns",
        "he wrote filthy notes",
    ]
    return LabeledCorpus(
        [Comment(id=f"c{i}", text=t, label=i % 2) for i, t in enumerate(texts)]
    )


def test_occlusion_finds_keyword():
    importance = global_importance(ten_comment_corpus(), filthy_adapter(), method="occlusion")
    top = importance.rows[0]
    assert top.token == "filthy"
    assert top.mean_effect == pytest.approx(0.8, abs=1e-6)
    assert top.mean_abs_effect == pytest.approx(0.8, abs=1e-6)
    assert top.support == 6
    others = {row.token: row for row in importance.rows[1:]}
    for token, row in others.items():
        assert row.mean_abs_effect == pytest.approx(0.0, abs=1e-9), token


def test_occlusion_deletes_tokens_after_non_ascii_text():
    adapter = constant_adapter()
    corpus = LabeledCorpus([Comment(id="c", text="Café 𝐀 the filthy  liar", label=1)])
    global_importance(corpus, adapter, method="occlusion")
    assert adapter.sent == [
        "Café 𝐀 the filthy  liar",
        "𝐀 the filthy liar",
        "Café the filthy liar",
        "Café 𝐀 filthy liar",
        "Café 𝐀 the liar",
        "Café 𝐀 the filthy",
    ]


def test_occlusion_constant_model_all_zero():
    importance = global_importance(ten_comment_corpus(), constant_adapter(), method="occlusion")
    for row in importance.rows:
        assert row.mean_effect == 0.0
        assert row.mean_abs_effect == 0.0


def test_importance_support_counts_containing_comments():
    importance = global_importance(ten_comment_corpus(), constant_adapter(), method="occlusion")
    by_token = {row.token: row for row in importance.rows}
    assert by_token["filthy"].support == 6
    assert by_token["calm"].support == 1
    assert "zebra" not in by_token


def test_occlusion_duplicate_comment_invariance():
    base = ten_comment_corpus()
    importance_base = global_importance(base, filthy_adapter(), method="occlusion")
    duplicated = LabeledCorpus(
        list(base.comments)
        + [Comment(id="dup", text="you filthy liar", label=1)]
    )
    importance_dup = global_importance(duplicated, filthy_adapter(), method="occlusion")
    base_top = importance_base.rows[0]
    dup_top = importance_dup.rows[0]
    assert base_top.token == dup_top.token == "filthy"
    assert dup_top.mean_effect == pytest.approx(base_top.mean_effect, abs=1e-9)
    assert dup_top.support == base_top.support + 1


def test_sampled_shapley_matches_exact_on_stub():
    corpus = LabeledCorpus([Comment(id="c", text="you filthy liar today", label=1)])
    adapter = filthy_adapter()
    importance = global_importance(
        corpus, adapter, method="sampled_shapley", m_permutations=500, rng_seed=0
    )
    exact = dict(exact_shapley(corpus.get("c"), adapter))
    for row in importance.rows:
        assert row.mean_effect == pytest.approx(exact[row.token], abs=0.02), row.token


def test_sampled_shapley_deterministic():
    corpus = ten_comment_corpus()
    adapter = filthy_adapter()
    first = global_importance(corpus, adapter, method="sampled_shapley", m_permutations=20, rng_seed=9)
    second = global_importance(corpus, adapter, method="sampled_shapley", m_permutations=20, rng_seed=9)
    assert first == second


def reference_sampled_shapley_effects(
    corpus, adapter, m_permutations, max_tokens_per_comment, rng_seed, cache
):
    """The per-permutation loop: one memoized ``predict_batch`` per order."""
    if m_permutations < 1:
        raise ExplainError(f"m_permutations must be positive, got {m_permutations}")
    effects = {}
    for comment in corpus:
        tokens, spans = explain._capped_tokens(comment.text, max_tokens_per_comment)
        k = len(tokens)
        if k == 0:
            continue
        rng = explain._comment_rng(rng_seed, comment.id)
        value_memo = {}

        def ensure_values(bit_sets):
            missing = [b for b in dict.fromkeys(bit_sets) if b not in value_memo]
            if not missing:
                return
            texts = [explain._realize_mask(comment.text, spans, b) for b in missing]
            for b, p in zip(missing, predict_batch(texts, adapter, cache)):
                value_memo[b] = p

        marginals = np.zeros(k)
        ensure_values([0])
        for _ in range(m_permutations):
            order = rng.sample(range(k), k)
            states = [0]
            bits = 0
            for j in order:
                bits |= 1 << int(j)
                states.append(bits)
            ensure_values(states)
            previous = value_memo[0]
            bits = 0
            for j in order:
                bits |= 1 << int(j)
                current = value_memo[bits]
                marginals[int(j)] += current - previous
                previous = current
        for token, total in zip(tokens, marginals):
            effects.setdefault(token, []).append(float(total) / m_permutations)
    return effects


@settings(max_examples=40, deadline=None)
@given(
    rng_seed=st.integers(0, 2**32 - 1),
    m_permutations=st.integers(1, 30),
    max_tokens=st.sampled_from([0, 3, 12]),
    batch_size=st.integers(1, 64),
)
def test_sampled_shapley_matches_reference_loop(
    fixture_corpus, rng_seed, m_permutations, max_tokens, batch_size
):
    batched = CallableAdapter(keyword_probability, batch_size=batch_size)
    result = global_importance(
        fixture_corpus,
        batched,
        method="sampled_shapley",
        m_permutations=m_permutations,
        max_tokens_per_comment=max_tokens,
        rng_seed=rng_seed,
    )
    reference_adapter = CallableAdapter(keyword_probability, batch_size=batch_size)
    effects = reference_sampled_shapley_effects(
        fixture_corpus, reference_adapter, m_permutations, max_tokens, rng_seed,
        PredictionCache(),
    )
    expected = explain._importance_from_effects(effects, "sampled_shapley", rng_seed)

    assert result.to_dict() == expected.to_dict()
    assert len(set(batched.sent)) == len(batched.sent)
    assert set(batched.sent) == set(reference_adapter.sent)
    assert batched.calls == math.ceil(len(batched.sent) / batch_size)


def test_sampled_shapley_one_batched_call_for_shared_coalitions():
    corpus = LabeledCorpus(
        [Comment(id="a", text="you filthy liar", label=1), Comment(id="b", text="filthy", label=1)]
    )
    adapter = CallableAdapter(keyword_probability)
    cache = PredictionCache()
    cache.store("filthy", keyword_probability("filthy"))
    global_importance(corpus, adapter, method="sampled_shapley", m_permutations=20, cache=cache)
    assert adapter.calls == 1
    assert "filthy" not in adapter.sent  # served from the cache
    assert len(adapter.sent) == len(set(adapter.sent))


def test_sampled_shapley_rejects_nonpositive_permutations():
    with pytest.raises(ExplainError, match="m_permutations"):
        global_importance(
            ten_comment_corpus(), constant_adapter(), method="sampled_shapley", m_permutations=0
        )


def test_global_importance_rows_sorted():
    importance = global_importance(ten_comment_corpus(), filthy_adapter(), method="occlusion")
    values = [row.mean_abs_effect for row in importance.rows]
    assert values == sorted(values, reverse=True)


def test_global_importance_validation():
    with pytest.raises(ExplainError, match="unknown importance method"):
        global_importance(ten_comment_corpus(), constant_adapter(), method="magic")
    with pytest.raises(ExplainError, match="empty"):
        global_importance(LabeledCorpus([]), constant_adapter())


def test_global_importance_csv():
    importance = global_importance(ten_comment_corpus(), filthy_adapter(), method="occlusion")
    text = importance.to_csv()
    assert text.splitlines()[0] == "token,mean_effect,mean_abs_effect,support"
    assert text.splitlines()[1].startswith("filthy,")


# ---------------------------------------------------------------------------
# exact Shapley values
# ---------------------------------------------------------------------------

def test_exact_shapley_efficiency():
    comment = Comment(id="c", text="you filthy liar today friend", label=1)
    adapter = filthy_adapter()
    values = exact_shapley(comment, adapter)
    total = sum(v for _, v in values)
    p_full = adapter.fn(comment.text)
    p_empty = adapter.fn("")
    assert total == pytest.approx(p_full - p_empty, abs=1e-9)


def test_exact_shapley_symmetry():
    def or_model(text):
        tokens = set(text.lower().split())
        return 0.9 if tokens & {"apple", "banana"} else 0.1

    comment = Comment(id="c", text="apple banana cherry", label=0)
    values = dict(exact_shapley(comment, CallableAdapter(or_model)))
    assert values["apple"] == pytest.approx(values["banana"], abs=1e-9)


def test_exact_shapley_dummy_player():
    comment = Comment(id="c", text="you filthy liar", label=1)
    values = dict(exact_shapley(comment, filthy_adapter()))
    assert values["filthy"] == pytest.approx(0.8, abs=1e-9)
    assert values["you"] == pytest.approx(0.0, abs=1e-9)
    assert values["liar"] == pytest.approx(0.0, abs=1e-9)


def test_exact_shapley_token_limit():
    text = " ".join(f"tok{i}" for i in range(13))
    comment = Comment(id="c", text=text, label=0)
    with pytest.raises(ExplainError, match="12"):
        exact_shapley(comment, constant_adapter())


def test_exact_shapley_uses_cache():
    comment = Comment(id="c", text="you filthy liar", label=1)
    adapter = filthy_adapter()
    cache = PredictionCache()
    exact_shapley(comment, adapter, cache)
    scored_first = adapter.texts_scored
    exact_shapley(comment, adapter, cache)
    assert adapter.texts_scored == scored_first
